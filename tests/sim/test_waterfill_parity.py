"""Seed-vs-new water-fill allocator parity (the PR-10 perf rewrite).

The O(N log N) sorted-prefix allocator in :mod:`repro.sim.link` must be
a pure optimization: same rates, same completion times as the seed's
restart-from-scratch iterative fill.  This suite freezes the seed
allocator (and the seed link, for end-to-end timing) and property-tests
the new code against it.

Exactness note: the round-replay in ``_fill_level`` uses the same
per-round expressions and operands as the seed, so when the inputs
(weights, demand caps, capacity) are *dyadic* rationals every
intermediate sum/subtraction is exact and the allocations agree bit for
bit — that is what the ``*_exact`` properties assert.  On arbitrary
floats the two differ only by summation order, bounded here at 1e-9
relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.engine import Event
from repro.sim.link import SharedLink

# ---------------------------------------------------------------------------
# Frozen seed implementation (verbatim algorithm from the pre-PR-10 link).
# ---------------------------------------------------------------------------

_COMPLETION_EPS = 1e-2
_MIN_WAKE_DELAY = 1e-9


def seed_water_fill(active, capacity: float) -> Dict[int, float]:
    """The seed's iterative weighted max-min fill (O(N²) via list.remove)."""
    alloc: Dict[int, float] = {}
    todo = list(active)
    cap = capacity
    while todo:
        total_weight = sum(f.weight for f in todo)
        capped = []
        for f in todo:
            share = cap * f.weight / total_weight
            if f.demand is not None and f.demand < share:
                capped.append(f)
        if not capped:
            for f in todo:
                alloc[id(f)] = cap * f.weight / total_weight
            break
        for f in capped:
            alloc[id(f)] = f.demand
            cap -= f.demand
            todo.remove(f)
        cap = max(cap, 0.0)
    return alloc


@dataclass
class _SeedFlow:
    link: "SeedSharedLink"
    name: str
    weight: float = 1.0
    demand: Optional[float] = None
    remaining: float = 0.0
    rate: float = 0.0
    completion: Optional[Event] = None
    bytes_done: float = 0.0
    _active: bool = field(default=False, repr=False)

    @property
    def transmitting(self) -> bool:
        return self._active

    def set_demand(self, demand: Optional[float]) -> None:
        if demand is not None and demand < 0:
            raise ValueError("demand must be >= 0 or None")
        self.link._advance()
        self.demand = demand
        self.link._recompute()


class SeedSharedLink:
    """The pre-PR-10 link: full refill on every event, orphaned wakes."""

    def __init__(self, env: Environment, capacity: float, name: str = "link") -> None:
        self.env = env
        self.name = name
        self.capacity = capacity
        self._capacity_factor = 1.0
        self._flows: List[_SeedFlow] = []
        self._last_update = env.now
        self._wake_version = 0
        self.total_bytes = 0.0

    def open_flow(self, name, weight=1.0, demand=None) -> _SeedFlow:
        flow = _SeedFlow(link=self, name=name, weight=weight, demand=demand)
        self._flows.append(flow)
        return flow

    @property
    def effective_capacity(self) -> float:
        return self.capacity * self._capacity_factor

    def set_capacity_factor(self, factor: float) -> None:
        self._advance()
        self._capacity_factor = factor
        self._recompute()

    def transmit(self, flow: _SeedFlow, nbytes: float) -> Event:
        event = self.env.event()
        if nbytes == 0:
            event.succeed()
            return event
        self._advance()
        flow.remaining = float(nbytes)
        flow.completion = event
        flow._active = True
        self._recompute()
        return event

    def allocation_preview(self, extra_demand: Optional[float] = None) -> float:
        probe = _SeedFlow(link=self, name="_probe", weight=1.0, demand=extra_demand)
        probe._active = True
        probe.remaining = 1.0
        alloc = self._water_fill(self._active_flows() + [probe])
        return alloc.get(id(probe), 0.0)

    def _active_flows(self) -> List[_SeedFlow]:
        return [f for f in self._flows if f._active]

    def _advance(self) -> None:
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._active_flows():
            moved = min(flow.remaining, flow.rate * dt)
            flow.remaining -= moved
            flow.bytes_done += moved
            self.total_bytes += moved

    def _water_fill(self, active: List[_SeedFlow]) -> Dict[int, float]:
        return seed_water_fill(active, self.effective_capacity)

    def _recompute(self) -> None:
        active = self._active_flows()
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
        active = [f for f in active if f.remaining > _COMPLETION_EPS]

        alloc = self._water_fill(active)
        next_done = math.inf
        for flow in active:
            flow.rate = alloc.get(id(flow), 0.0)
            if flow.rate > 0:
                next_done = min(next_done, flow.remaining / flow.rate)

        self._wake_version += 1
        if next_done is not math.inf:
            version = self._wake_version
            wake = self.env.timeout(max(next_done, _MIN_WAKE_DELAY))
            wake.callbacks.append(lambda _ev: self._on_wake(version))

    def _on_wake(self, version: int) -> None:
        if version != self._wake_version:
            return
        self._advance()
        self._recompute()


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class _F:
    """Minimal flow stand-in for the stateless allocators."""

    __slots__ = ("weight", "demand")

    def __init__(self, weight: float, demand: Optional[float]) -> None:
        self.weight = weight
        self.demand = demand


# Dyadic grids: every value is k / 2^m, so sums and subtractions inside
# both allocators are exact and bit-for-bit comparison is meaningful.
dyadic_weight = st.integers(min_value=1, max_value=96).map(lambda k: k / 16.0)
dyadic_demand = st.one_of(
    st.none(), st.integers(min_value=0, max_value=4096).map(lambda k: k * 0.25)
)
dyadic_capacity = st.integers(min_value=1, max_value=8192).map(lambda k: k * 0.5)
dyadic_fleet = st.lists(
    st.tuples(dyadic_weight, dyadic_demand), min_size=1, max_size=50
)

float_weight = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
float_demand = st.one_of(
    st.none(), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
)
float_fleet = st.lists(st.tuples(float_weight, float_demand), min_size=1, max_size=50)


def _new_alloc(flows: List[_F], capacity: float) -> Dict[int, float]:
    env = Environment()
    link = SharedLink(env, capacity=capacity)
    return link._water_fill(flows)


class TestAllocatorParity:
    @given(fleet=dyadic_fleet, capacity=dyadic_capacity)
    @settings(max_examples=300, deadline=None)
    def test_allocations_exact_on_dyadic_fleets(self, fleet, capacity):
        flows = [_F(w, d) for w, d in fleet]
        seed = seed_water_fill(flows, capacity)
        new = _new_alloc(flows, capacity)
        assert set(seed) == set(new)
        for key in seed:
            # Bitwise, not approx: the rewrite must be a pure speedup.
            assert seed[key] == new[key]

    @given(
        fleet=float_fleet,
        capacity=st.floats(min_value=0.1, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_allocations_close_on_arbitrary_floats(self, fleet, capacity):
        flows = [_F(w, d) for w, d in fleet]
        seed = seed_water_fill(flows, capacity)
        new = _new_alloc(flows, capacity)
        assert set(seed) == set(new)
        for key in seed:
            assert new[key] == pytest.approx(seed[key], rel=1e-9, abs=1e-9)

    @given(fleet=dyadic_fleet, capacity=dyadic_capacity)
    @settings(max_examples=200, deadline=None)
    def test_capacity_never_exceeded(self, fleet, capacity):
        flows = [_F(w, d) for w, d in fleet]
        new = _new_alloc(flows, capacity)
        assert sum(new.values()) <= capacity * (1 + 1e-9)

    @given(
        fleet=dyadic_fleet,
        capacity=dyadic_capacity,
        probe=st.one_of(
            st.none(), st.integers(min_value=0, max_value=4096).map(lambda k: k * 0.25)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_preview_exact_on_dyadic_fleets(self, fleet, capacity, probe):
        env_a, env_b = Environment(), Environment()
        seed_link = SeedSharedLink(env_a, capacity=capacity)
        new_link = SharedLink(env_b, capacity=capacity)
        for i, (w, d) in enumerate(fleet):
            sf = seed_link.open_flow(f"f{i}", weight=w, demand=d)
            nf = new_link.open_flow(f"f{i}", weight=w, demand=d)
            seed_link.transmit(sf, 10_000.0)
            new_link.transmit(nf, 10_000.0)
        assert new_link.allocation_preview(probe) == seed_link.allocation_preview(probe)


# ---------------------------------------------------------------------------
# End-to-end timing parity: same fleets driven through both links must
# complete at bitwise-identical simulation times.
# ---------------------------------------------------------------------------

# Driver steps keep demand/weight/capacity dyadic; transfer *sizes* may
# be any float — rates and byte movement then use identical expressions
# with identical operands on both sides.  Dyadic sizes make completions
# land on the driver's delay grid, so wake-ups tie with driver steps.
_size = st.one_of(
    st.integers(min_value=40, max_value=4000).map(lambda k: k * 0.25),
    st.floats(min_value=10.0, max_value=1e6, allow_nan=False),
)
_delay = st.integers(min_value=0, max_value=64).map(lambda k: k / 4.0)
_factor = st.integers(min_value=1, max_value=8).map(lambda k: k / 4.0)

_step = st.one_of(
    st.tuples(st.just("transmit"), st.integers(0, 5), _size, _delay),
    # Same-instant burst: every idle flow transmits at delay 0, so the
    # seed link re-prices once per transmit and the new link once.
    st.tuples(st.just("burst"), st.integers(0, 5), _size, _delay),
    st.tuples(st.just("demand"), st.integers(0, 5), dyadic_demand, _delay),
    st.tuples(st.just("capacity"), st.just(0), _factor, _delay),
)


def _replay(link, flows, steps) -> List[tuple]:
    """Run one driver script against a link; return (idx, time) completions."""
    env = link.env
    completions: List[tuple] = []

    def start(i: int, nbytes: float) -> None:
        flow = flows[i]
        if flow.transmitting:
            return
        ev = link.transmit(flow, nbytes)
        ev.callbacks.append(lambda _e: completions.append((i, env.now)))

    def driver() -> Generator[Event, None, None]:
        for kind, idx, value, delay in steps:
            if delay:
                yield env.timeout(delay)
            if kind == "transmit":
                start(idx % len(flows), value)
            elif kind == "burst":
                for j in range(len(flows)):
                    start((idx + j) % len(flows), value * (j + 1))
            elif kind == "demand":
                flow = flows[idx % len(flows)]
                # Same-value updates and idle-flow updates are no-ops in
                # the new link but advance/recompute in the seed; both
                # are allocation-neutral, so the driver skips them to
                # keep the two event streams byte-comparable.
                if not flow.transmitting or value == flow.demand:
                    continue
                flow.set_demand(value)
            else:
                if value == link._capacity_factor:
                    continue
                link.set_capacity_factor(value)

    env.process(driver(), name="driver")
    env.run()
    return completions


class TestCompletionTimeParity:
    @given(
        fleet=st.lists(
            st.tuples(dyadic_weight, dyadic_demand), min_size=1, max_size=6
        ),
        capacity=dyadic_capacity,
        steps=st.lists(_step, min_size=1, max_size=30),
    )
    # A wake-up tie: the flow's completion and the driver's next step
    # fall at t=0.25.  The wake-up must fire first, as the seed link's
    # (created at the transmit, before the driver's timeout) does.
    @example(
        fleet=[(1.0, None)],
        capacity=40.0,
        steps=[("transmit", 0, 10.0, 0.0), ("transmit", 0, 10.0, 0.25)],
    )
    @settings(max_examples=150, deadline=None)
    def test_completion_times_bitwise_identical(self, fleet, capacity, steps):
        env_seed, env_new = Environment(), Environment()
        seed_link = SeedSharedLink(env_seed, capacity=capacity)
        new_link = SharedLink(env_new, capacity=capacity)
        seed_flows = [
            seed_link.open_flow(f"f{i}", weight=w, demand=d)
            for i, (w, d) in enumerate(fleet)
        ]
        new_flows = [
            new_link.open_flow(f"f{i}", weight=w, demand=d)
            for i, (w, d) in enumerate(fleet)
        ]
        seed_done = _replay(seed_link, seed_flows, steps)
        new_done = _replay(new_link, new_flows, steps)
        assert sorted(seed_done) == sorted(new_done)
        assert new_link.total_bytes == seed_link.total_bytes

    @given(
        fleet=st.lists(
            st.tuples(dyadic_weight, dyadic_demand), min_size=1, max_size=6
        ),
        capacity=dyadic_capacity,
        steps=st.lists(_step, min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_new_link_heap_stays_clean(self, fleet, capacity, steps):
        """Pending events stay O(active flows): no orphaned wake timers."""
        env = Environment()
        link = SharedLink(env, capacity=capacity)
        flows = [
            link.open_flow(f"f{i}", weight=w, demand=d)
            for i, (w, d) in enumerate(fleet)
        ]
        _replay(link, flows, steps)
        # After drain: nothing pending but (at most) one cancelled wake.
        assert env.pending_events == 0
