"""Discrete-event simulation core (a minimal SimPy-like engine).

The virtualization experiments of Section II and the shared-I/O
evaluation of Section IV run on this engine: simulated hosts, VMs,
background flows, fluctuation processes and metric samplers are all
*processes* — Python generators that ``yield`` events — scheduled on a
single deterministic event heap.

Design notes
------------
* Time is a float in **seconds** (simulated).
* Determinism: ties on the heap break by insertion sequence number, and
  all randomness comes from :mod:`repro.sim.rng` streams, so a run is a
  pure function of its seed.
* The engine is deliberately small (events, timeouts, processes); what
  the paper's setting actually needs — fluid-shared links, CPU ledgers,
  caches — lives in dedicated modules built on top.
* Timers are cancellable: :meth:`Timeout.cancel` retracts a scheduled
  wake-up before it fires.  Cancelled entries are skipped on pop and
  periodically compacted out of the heap, so a component that
  reschedules its timer thousands of times (the fluid link reprices on
  every arrival/departure) cannot pollute the heap with stale entries.
* :meth:`Environment.run` also accepts an :class:`Event` as the stop
  condition, which is how fleet harnesses wait for "all N flows done"
  without polling the process list.
* End-of-instant hooks: a component whose state changes many times at
  one simulated instant (the fluid link, when a wake-up completes a
  flow and that flow transmits again) registers a callable with
  :meth:`Environment._at_instant_end` and settles once, after every
  callback of the instant, instead of once per change.  Hooks are not
  heap events: they take no sequence number and are not counted by
  :attr:`Environment.events_processed` or
  :attr:`Environment.pending_events`.  A timer the hook creates can
  keep the heap position of the change that caused it: the component
  draws a sequence number at the change and passes it to
  :meth:`Environment._timeout_at_seq`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Union

from ..telemetry.events import BUS, EventBus

#: Lazy-deletion bound: once more than this many cancelled timers sit in
#: the heap *and* they outnumber the live entries, the heap is rebuilt
#: without them.  Keeps pop cost low without paying a rebuild per cancel.
_COMPACT_MIN = 64


class SimulationError(Exception):
    """Base class for engine errors."""


class Event:
    """A one-shot occurrence processes can wait for.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` triggers
    it, after which waiting processes resume (in FIFO order) at the
    current simulation time.
    """

    __slots__ = ("env", "callbacks", "_triggered", "_value", "_is_error",
                 "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[[Event], None]] = []
        self._triggered = False
        self._value: Any = None
        self._is_error = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._queue_callbacks(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = exc
        self._is_error = True
        self.env._queue_callbacks(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        # Inlined Event.__init__: one Timeout per yield makes this the
        # engine's hottest allocation site.
        self.env = env
        self.callbacks = []
        self._triggered = True  # scheduled, cannot be succeeded manually
        self._value = value
        self._is_error = False
        self._cancelled = False
        self.delay = delay
        env._schedule(env.now + delay, self)

    def cancel(self) -> None:
        """Retract the timer: its callbacks will never run.

        Safe to call at most any point: cancelling a timer that already
        fired (callbacks drained) is a no-op.  A cancelled entry stays
        in the heap until popped or compacted, but costs O(1) to skip.
        Never cancel a timeout some *other* process is yielding on —
        that process would deadlock; only cancel timers you own.
        """
        if self._cancelled or not self.callbacks:
            return
        self._cancelled = True
        self.callbacks.clear()
        self.env._note_cancel()


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at the current time.
        init = Event(env)
        init._triggered = True
        env._schedule(env.now, init)
        init.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            if event._is_error:
                target = self.generator.throw(event._value)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self._triggered:
                self.fail(exc)
                if not self.callbacks:
                    # Nobody is waiting on this process: re-raise so the
                    # failure is not silently swallowed.
                    raise
                return
            raise
        if target.__class__ is Timeout:
            # Fast path for the dominant yield shape: a freshly created
            # Timeout is already in the heap at its fire time and needs
            # neither the isinstance validation nor the re-schedule
            # check below.
            target.callbacks.append(self._resume)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        target.callbacks.append(self._resume)
        if target._triggered and not isinstance(target, Timeout):
            # Already-triggered event (e.g. an ``env.event()`` that
            # succeeded before it was yielded, or a finished process):
            # make sure its callbacks run.  Double-scheduling
            # is harmless — callbacks are drained exactly once per pop.
            # Timeouts are excluded: they are already in the heap at
            # their fire time and must be yielded right after creation.
            self.env._schedule(self.env.now, target)


class Environment:
    """The simulation clock and event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._n_cancelled = 0
        self._events_processed = 0
        #: End-of-instant hooks, in registration order.
        self._hooks: List[Callable[[], None]] = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        """Heap pops delivered so far (engine-throughput telemetry).

        Cancelled timers skipped on pop are not counted: they do no
        callback work.
        """
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) entries currently in the heap."""
        return len(self._heap) - self._n_cancelled

    def bind_telemetry(self, bus: Optional[EventBus] = None) -> Callable[[], float]:
        """Drive the telemetry clock with *virtual* time.

        Rebinds ``bus.clock`` to this environment's ``now`` so every
        event published while the simulation runs — epochs, level
        switches, backoff updates, spans — is stamped in simulated
        seconds, giving simulated and real traces one schema.  Returns
        the previous clock so the caller can restore it afterwards.
        """
        bus = bus if bus is not None else BUS
        previous = bus.clock
        bus.clock = lambda: self._now
        return previous

    # -- scheduling ---------------------------------------------------

    def _schedule(self, at: float, event: Event) -> None:
        if at < self._now:
            raise SimulationError(f"cannot schedule in the past ({at} < {self._now})")
        heapq.heappush(self._heap, (at, next(self._seq), event))

    def _queue_callbacks(self, event: Event) -> None:
        """Schedule an already-triggered event's callbacks to run now."""
        self._schedule(self._now, event)

    def _note_cancel(self) -> None:
        """Account one cancelled heap entry; compact when they dominate."""
        self._n_cancelled += 1
        if (
            self._n_cancelled > _COMPACT_MIN
            and self._n_cancelled * 2 > len(self._heap)
        ):
            # In place: run() holds a reference to this exact list.
            self._heap[:] = [e for e in self._heap if not e[2]._cancelled]
            heapq.heapify(self._heap)
            self._n_cancelled = 0

    def _at_instant_end(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` once, before :attr:`now` next advances.

        Hooks run in registration order after every callback of the
        current instant; :meth:`run` also drains them before it returns.
        A hook may schedule events, including at the current instant.
        """
        self._hooks.append(hook)

    def _run_hooks(self) -> None:
        hooks = self._hooks
        while hooks:
            hooks.pop(0)()

    def _timeout_at_seq(self, delay: float, seq: int) -> Timeout:
        """A :class:`Timeout` that sorts on the heap under ``seq``.

        ``seq`` is drawn earlier with ``next(self._seq)``.  An
        end-of-instant hook that creates a timer this way orders it
        against other events due at the same time as if it had been
        created when ``seq`` was drawn.
        """
        timeout = Timeout.__new__(Timeout)
        Event.__init__(timeout, self)
        timeout._triggered = True  # scheduled, as Timeout.__init__ marks it
        timeout.delay = delay
        heapq.heappush(self._heap, (self._now + delay, seq, timeout))
        return timeout

    # -- public API ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, generator, name)

    def run(self, until: Union[float, Event, None] = None) -> float:
        """Execute events until the heap drains or ``until`` is reached.

        ``until`` may be a simulation time (stop the clock there), an
        :class:`Event` (stop right after its callbacks run; raises
        :class:`SimulationError` if the heap drains first), or ``None``
        (drain the heap).  An already-triggered until-event returns
        immediately.  Returns the simulation time at which execution
        stopped.  End-of-instant hooks run before the clock moves to a
        later heap time, when the heap empties, and before stopping at
        ``until``.
        """
        heap = self._heap
        hooks = self._hooks
        pop = heapq.heappop
        until_time: Optional[float] = None
        fired: List[Event] = []
        if until is not None:
            if isinstance(until, Event):
                if until._triggered:
                    return self._now
                until.callbacks.append(fired.append)
            else:
                until_time = until
        while True:
            if hooks and (not heap or heap[0][0] > self._now):
                self._run_hooks()
                continue  # a hook may have scheduled events at `now`
            if not heap:
                break
            at, _, event = heap[0]
            if until_time is not None and at > until_time:
                self._now = until_time
                return self._now
            pop(heap)
            if event._cancelled:
                self._n_cancelled -= 1
                continue
            self._now = at
            self._events_processed += 1
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
            if fired:
                self._run_hooks()
                return self._now
        if until is not None and isinstance(until, Event):
            raise SimulationError(
                "run(until=event): event queue drained before the event fired "
                "(deadlock or starvation)"
            )
        if until_time is not None and until_time > self._now:
            self._now = until_time
        return self._now

    def run_process(self, generator: Generator[Event, Any, Any], name: str = "") -> Any:
        """Convenience: run a single process to completion, return its value."""
        proc = self.process(generator, name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock or starvation)"
            )
        if proc._is_error:
            raise proc._value
        return proc.value
