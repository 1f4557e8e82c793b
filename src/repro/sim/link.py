"""Fluid-flow model of a shared network link.

Co-located virtual machines "in fact share the I/O resources of the
host system" (Section I); Table II's background scenarios are 1–3
concurrent TCP connections saturating the sender host's NIC.  This
module models that contention with the classic *fluid* approximation:
at any instant, each active flow receives a weighted max-min fair share
of the link capacity, subject to its own demand cap (a flow whose
sender is compression-bound does not use its full share; the spare
capacity is redistributed to the other flows).

Calibration: the paper's Table II NO-compression rows imply the
foreground flow's share of the 1 GbE link was consistently *larger*
than a 1/(c+1) fair split — 0.63/0.41/0.35 of the link for c=1/2/3
background connections.  A foreground weight of 1.5 (background weight
1.0) reproduces those fractions to within a few percent; see
:mod:`repro.sim.calibration`.

Scale: the allocator sorts demand-capped flows by normalized demand
(``demand / weight``) once and walks the sorted prefix, so a full
re-price of N flows is O(N log N) — the seed's restart-from-scratch
fill with ``list.remove`` was O(N²) and throttled thousand-flow fleets
(see docs/simulator.md, "Performance and scale").  A dirty flag skips
repricing entirely when nothing allocation-relevant changed, and the
single completion wake-up timer is cancelled/reused instead of being
version-orphaned in the event heap.

Rates are bytes/second, sizes are bytes, time is seconds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Generator, List, Optional

from .engine import Environment, Event, Timeout

#: Residual bytes below which a transmission counts as finished.  Float
#: error of ``remaining - rate * dt`` leaves residues around
#: ``size * 1e-10``; treating anything under a hundredth of a byte as
#: done absorbs those without measurably distorting multi-KB transfers.
_COMPLETION_EPS = 1e-2

#: Never schedule a completion wake-up closer than this: at large
#: simulation times, ``now + tiny`` can round back to ``now`` and
#: starve the event loop at a single timestamp.
_MIN_WAKE_DELAY = 1e-9


@dataclass
class Flow:
    """One logical connection riding the link."""

    link: "SharedLink"
    name: str
    weight: float = 1.0
    #: Demand cap in bytes/s; ``None`` means the flow will use whatever
    #: share it is allocated.
    demand: Optional[float] = None

    # -- live transmission state (owned by the link) -----------------
    remaining: float = 0.0
    rate: float = 0.0
    completion: Optional[Event] = None
    bytes_done: float = 0.0
    _active: bool = field(default=False, repr=False)

    @property
    def transmitting(self) -> bool:
        return self._active

    def set_demand(self, demand: Optional[float]) -> None:
        """Update the demand cap (takes effect immediately)."""
        if demand is not None and demand < 0:
            raise ValueError("demand must be >= 0 or None")
        if demand == self.demand:
            return  # allocation unchanged; skip the re-price
        if not self._active:
            # An idle flow's cap does not enter the allocation until it
            # transmits; no need to advance or re-price the fleet.
            self.demand = demand
            return
        link = self.link
        link._advance()
        self.demand = demand
        link._dirty = True
        link._recompute()


def _norm_demand(flow: "Flow") -> float:
    """Water-fill sort key: the share level at which the cap binds."""
    return flow.demand / flow.weight


#: C-level weight accumulator; ``sum(map(...))`` adds left-to-right with
#: a 0 start, bit-identical to the explicit loop it replaces.
_get_weight = attrgetter("weight")


class _Probe:
    """Throwaway stand-in flow used to price :meth:`allocation_preview`."""

    __slots__ = ("weight", "demand")

    def __init__(self, demand: Optional[float]) -> None:
        self.weight = 1.0
        self.demand = demand


def _fill_level(demanders: List[Flow], total_weight: float, cap: float):
    """Water-fill core over demand-capped flows sorted by ``demand/weight``.

    Replays the classic round structure — cap every flow whose demand is
    below its current fair share, redistribute, repeat — but because the
    capped set of each round is a prefix of the normalized-demand order,
    a single advancing pointer visits each flow once: O(N) after the
    sort, and the per-flow arithmetic is identical to the seed
    allocator's (same expressions, same operands), so allocations match
    it bit for bit away from ulp-boundary ties.

    Returns ``(k, cap, total_weight)``: the first ``k`` demanders are
    capped at their own demand; every other flow's rate is
    ``cap * weight / total_weight``.
    """
    i = 0
    n = len(demanders)
    while total_weight > 0.0:
        start = i
        while i < n:
            f = demanders[i]
            if f.demand < cap * f.weight / total_weight:
                i += 1
            else:
                break
        if i == start:
            break  # fixed point: no flow's cap binds at this level
        for f in demanders[start:i]:
            cap -= f.demand
            total_weight -= f.weight
        if cap < 0.0:
            cap = 0.0
    return i, cap, total_weight


class SharedLink:
    """A single bottleneck link shared by weighted max-min fair flows."""

    def __init__(
        self,
        env: Environment,
        capacity: float,
        name: str = "link",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._capacity_factor = 1.0
        #: Open flows by id(flow), in open order: O(1) close even with
        #: thousands open.  Progress, completion and weight sums walk
        #: the transmitting ones in this order, as the seed allocator
        #: did, so float sums match it bit for bit.
        self._flows: Dict[int, Flow] = {}
        self._last_update = env.now
        #: True when the active set / a demand / the capacity changed
        #: since the last re-price; clean recomputes return immediately.
        self._dirty = False
        self._wake: Optional[Timeout] = None
        self._wake_at = math.inf
        # Cached outcome of the last fill, reused by allocation_preview
        # so pricing a probe never rebuilds Flow objects or re-sorts.
        self._sorted_demanders: List[Flow] = []
        self._active_weight = 0.0
        #: Total bytes that have crossed the link (for conservation tests).
        self.total_bytes = 0.0

    # -- flow management ---------------------------------------------

    def open_flow(
        self, name: str, weight: float = 1.0, demand: Optional[float] = None
    ) -> Flow:
        if weight <= 0:
            raise ValueError("weight must be positive")
        flow = Flow(link=self, name=name, weight=weight, demand=demand)
        self._flows[id(flow)] = flow
        return flow

    def close_flow(self, flow: Flow) -> None:
        if flow.transmitting:
            raise RuntimeError(f"flow {flow.name!r} still transmitting")
        if self._flows.pop(id(flow), None) is None:
            raise RuntimeError(
                f"flow {flow.name!r} is not open on this link "
                "(never opened, or already closed)"
            )
        # An idle flow holds no allocation: closing it cannot change any
        # other flow's rate, so the fleet is not re-priced.

    @property
    def effective_capacity(self) -> float:
        return self.capacity * self._capacity_factor

    def set_capacity_factor(self, factor: float) -> None:
        """Scale the link capacity (driven by fluctuation processes)."""
        if factor < 0:
            raise ValueError("capacity factor must be >= 0")
        if factor == self._capacity_factor:
            return
        self._advance()
        self._capacity_factor = factor
        self._dirty = True
        self._recompute()

    # -- transmission ------------------------------------------------

    def transmit(self, flow: Flow, nbytes: float) -> Event:
        """Event that fires when ``nbytes`` have crossed the link."""
        if id(flow) not in self._flows:
            raise RuntimeError(f"flow {flow.name!r} not open on this link")
        if flow.transmitting:
            raise RuntimeError(f"flow {flow.name!r} already transmitting")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        event = self.env.event()
        if nbytes == 0:
            event.succeed()
            return event
        self._advance()
        flow.remaining = float(nbytes)
        flow.completion = event
        flow._active = True
        self._dirty = True
        self._recompute()
        return event

    def send(self, flow: Flow, nbytes: float) -> Generator[Event, None, None]:
        """Process-style convenience wrapper around :meth:`transmit`."""
        yield self.transmit(flow, nbytes)

    def current_rate(self, flow: Flow) -> float:
        """The flow's instantaneous allocated rate (bytes/s)."""
        self._advance()
        self._recompute()
        return flow.rate

    def allocation_preview(self, extra_demand: Optional[float] = None) -> float:
        """Rate a hypothetical foreground transmission would get *now*.

        Used by the epoch-granularity transfer model to price a send
        without mutating link state.  Priced against the cached sorted
        allocation from the last re-price: O(N) per probe with zero
        Flow construction, instead of the seed's throwaway-flow full
        refill.
        """
        self._advance()
        self._recompute()
        cap = self.effective_capacity
        weight = self._active_weight + 1.0  # probe weight
        base = self._sorted_demanders
        if extra_demand is None:
            _, rcap, rweight = _fill_level(base, weight, cap)
            return rcap / rweight if rweight > 0.0 else 0.0
        probe = _Probe(extra_demand)
        idx = bisect_right(base, extra_demand, key=_norm_demand)
        demanders = base[:idx] + [probe] + base[idx:]
        k, rcap, rweight = _fill_level(demanders, weight, cap)
        if idx < k:
            return extra_demand  # the probe's own cap binds
        return rcap / rweight if rweight > 0.0 else 0.0

    # -- internals ----------------------------------------------------

    def _active_flows(self) -> List[Flow]:
        return [f for f in self._flows.values() if f._active]

    def _advance(self) -> None:
        """Account progress since the last state change."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows.values():
            if not flow._active:
                continue
            moved = min(flow.remaining, flow.rate * dt)
            flow.remaining -= moved
            flow.bytes_done += moved
            self.total_bytes += moved
            if flow.remaining <= _COMPLETION_EPS:
                self._dirty = True  # a completion is due: force re-price

    def _water_fill(self, active: List[Flow]) -> Dict[int, float]:
        """Weighted max-min allocation with per-flow demand caps.

        Stateless entry point (used by parity tests and benchmarks);
        :meth:`_recompute` runs the same core but writes rates in place.
        """
        demanders = [f for f in active if f.demand is not None]
        demanders.sort(key=_norm_demand)
        weight = sum(map(_get_weight, active))
        k, cap, rweight = _fill_level(demanders, weight, self.effective_capacity)
        if rweight > 0.0:
            alloc = {id(f): cap * f.weight / rweight for f in active}
        else:
            alloc = {id(f): 0.0 for f in active}
        for f in demanders[:k]:
            alloc[id(f)] = f.demand
        return alloc

    def _recompute(self) -> None:
        """Re-allocate rates and reschedule the completion wake-up.

        A no-op unless something allocation-relevant changed since the
        last re-price (`_dirty`), so per-flow events against an
        unchanged fleet — an idle flow closing, a repeated demand cap,
        a rate query — cost O(1) instead of a full refill.
        """
        if not self._dirty:
            return
        self._dirty = False
        active = self._active_flows()
        # Complete anything that has (numerically) finished, crediting
        # the sub-epsilon residue so byte accounting stays exact.
        finished = [f for f in active if f.remaining <= _COMPLETION_EPS]
        for flow in finished:
            flow.bytes_done += flow.remaining
            self.total_bytes += flow.remaining
            flow.remaining = 0.0
            flow._active = False
            flow.rate = 0.0
            event, flow.completion = flow.completion, None
            assert event is not None
            event.succeed()
        if finished:
            active = [f for f in active if f._active]

        weight = sum(map(_get_weight, active))
        demanders = [f for f in active if f.demand is not None]
        demanders.sort(key=_norm_demand)
        k, cap, rweight = _fill_level(demanders, weight, self.effective_capacity)

        next_done = math.inf
        if rweight > 0.0:
            for f in active:
                f.rate = cap * f.weight / rweight
        else:
            for f in active:
                f.rate = 0.0
        for f in demanders[:k]:
            f.rate = f.demand
        for f in active:
            if f.rate > 0.0:
                t = f.remaining / f.rate
                if t < next_done:
                    next_done = t

        self._sorted_demanders = demanders
        self._active_weight = weight

        if next_done is math.inf:
            if self._wake is not None:
                self._wake.cancel()
                self._wake = None
                self._wake_at = math.inf
            return
        delay = max(next_done, _MIN_WAKE_DELAY)
        at = self.env.now + delay
        if self._wake is not None:
            if self._wake_at == at:
                return  # reuse the already-scheduled timer: no churn
            self._wake.cancel()
        wake = self.env.timeout(delay)
        wake.callbacks.append(self._on_wake)
        self._wake = wake
        self._wake_at = at

    def _on_wake(self, _event: Event) -> None:
        self._wake = None
        self._wake_at = math.inf
        self._advance()
        self._dirty = True
        self._recompute()
