"""Pluggable fleet allocation policies.

A policy is a pure-ish function from a :class:`FleetView` (everything
the controller knows about the live flows and the shared substrate) to
per-flow :class:`Assignment`\\ s.  Assignments answer the two questions
ROADMAP item 2 poses: which level each flow should run (``level=None``
leaves the flow's own adaptive scheme in charge) and what share of the
shared codec workers it deserves (``weight``).

Three reference policies ship:

* :class:`FairSharePolicy` — the do-no-harm baseline: every flow keeps
  its adaptive scheme and an equal worker share.  The bench_serve
  contention gate pins this one to "never collapses aggregate
  throughput >5% vs uncontrolled".
* :class:`GreedyThroughputPolicy` — evidence-driven specialisation:
  flows whose *measured* wire ratio says "incompressible" are pinned to
  NO compression and handed a lean worker share, freeing CPU for flows
  that demonstrably benefit from compressing.  It only ever acts on
  observed ratios (a flow running at NO shows ratio 1.0 and therefore
  proves nothing — such flows are left adaptive until they probe).
* :class:`HillClimbPolicy` — ADARES-style trial-and-error: perturb one
  flow's worker share per control round, keep the move if aggregate
  goodput improved, revert and try the opposite direction if it
  regressed.  No model of the codecs at all.

Policies must be deterministic given the observation sequence — the
simulator replays them under seeded workloads and asserts who-wins
shape claims as ``[OK]/[FAIL]`` checks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "Assignment",
    "FlowSnapshot",
    "FleetView",
    "AllocationPolicy",
    "FairSharePolicy",
    "GreedyThroughputPolicy",
    "HillClimbPolicy",
    "POLICIES",
    "make_policy",
]


@dataclass(frozen=True)
class Assignment:
    """What the fleet wants one flow to do next control interval.

    ``level=None`` means "leave the flow's own adaptive scheme in
    charge"; an integer pins that level.  ``weight`` scales the flow's
    share of the shared codec workers (1.0 = full/default share; the
    actuator maps it onto its decode/encode window or cpu share).
    """

    level: Optional[int] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class FlowSnapshot:
    """One flow's state as the controller last observed it."""

    flow_id: int
    level: int
    app_rate: float
    app_bytes: float
    #: Last *informative* wire/app ratio (measured at level > 0); None
    #: until the flow has compressed anything.
    observed_ratio: Optional[float]
    age_seconds: float
    weight: float = 1.0


@dataclass(frozen=True)
class FleetView:
    """Everything a policy may look at, once per control interval."""

    now: float
    flows: Tuple[FlowSnapshot, ...]
    n_levels: int

    @property
    def aggregate_rate(self) -> float:
        return sum(f.app_rate for f in self.flows)


class AllocationPolicy(abc.ABC):
    """Map one fleet observation to per-flow assignments."""

    #: Registry/CLI name ("fair-share", ...).
    name: str

    @abc.abstractmethod
    def allocate(self, fleet: FleetView) -> Dict[int, Assignment]:
        """Return an :class:`Assignment` per flow id.

        Flows missing from the dict keep their previous assignment.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class FairSharePolicy(AllocationPolicy):
    """Equal worker shares, adaptive levels — the do-no-harm baseline."""

    name = "fair-share"

    def allocate(self, fleet: FleetView) -> Dict[int, Assignment]:
        return {f.flow_id: Assignment(level=None, weight=1.0) for f in fleet.flows}


class GreedyThroughputPolicy(AllocationPolicy):
    """Starve proven-incompressible flows of CPU, feed the rest.

    Decision evidence is the flow's last measured wire ratio:

    * ``ratio >= incompressible_ratio`` — compression is buying
      (almost) nothing: pin the flow at level 0 and shrink its codec
      share to ``lean_weight`` (it barely needs workers at NO anyway).
    * ``ratio < incompressible_ratio`` — compression pays: full weight,
      level left adaptive so the paper's algorithm picks the depth.
    * no ratio yet — no evidence, no action (full weight, adaptive);
      the flow's own probing will produce evidence within epochs.
    """

    name = "greedy-throughput"

    def __init__(
        self,
        incompressible_ratio: float = 0.9,
        lean_weight: float = 0.25,
    ) -> None:
        if not 0 < incompressible_ratio <= 1.0:
            raise ValueError("incompressible_ratio must be in (0, 1]")
        if lean_weight <= 0:
            raise ValueError("lean_weight must be positive")
        self.incompressible_ratio = incompressible_ratio
        self.lean_weight = lean_weight

    def allocate(self, fleet: FleetView) -> Dict[int, Assignment]:
        out: Dict[int, Assignment] = {}
        for f in fleet.flows:
            if (
                f.observed_ratio is not None
                and f.observed_ratio >= self.incompressible_ratio
            ):
                out[f.flow_id] = Assignment(level=0, weight=self.lean_weight)
            else:
                out[f.flow_id] = Assignment(level=None, weight=1.0)
        return out


@dataclass
class _Move:
    flow_id: int
    direction: float  # multiplicative step applied
    prev_weight: float


class HillClimbPolicy(AllocationPolicy):
    """ADARES-style model-free hill climbing on worker shares.

    Each control round perturbs exactly one flow's weight by ``step``
    (multiplicatively, alternating through the fleet round-robin).  The
    next round compares aggregate goodput against the previous round:
    if it regressed, the move is reverted and the remembered direction
    for that flow flips.  Weights stay inside [min_weight, max_weight].

    Consecutive rejected moves back off exponentially (the same idea
    Algorithm 1 applies to level probes): after the k-th rejection in a
    row the policy sits out ``2^(k-1) - 1`` rounds, capped at
    ``max_backoff``, before trying again; an accepted move resets the
    streak.  Without this, a fleet whose equal split is already optimal
    pays a permanent exploration tax — every round perturbs, regresses
    and reverts, and the regressed interval is wall-clock lost.

    Levels are never pinned — this policy only redistributes CPU and
    lets each flow's scheme adapt to what its share allows, which is
    exactly the ADARES shape (reallocate resources, not decisions).
    """

    name = "hill-climb"

    def __init__(
        self,
        step: float = 1.25,
        min_weight: float = 0.2,
        max_weight: float = 4.0,
        tolerance: float = 0.02,
        max_backoff: int = 16,
    ) -> None:
        if step <= 1.0:
            raise ValueError("step must be > 1.0 (multiplicative)")
        if not 0 < min_weight <= 1.0 <= max_weight:
            raise ValueError("need min_weight <= 1.0 <= max_weight")
        if max_backoff < 1:
            raise ValueError("max_backoff must be >= 1")
        self.step = step
        self.min_weight = min_weight
        self.max_weight = max_weight
        self.tolerance = tolerance
        self.max_backoff = max_backoff
        self._weights: Dict[int, float] = {}
        self._directions: Dict[int, float] = {}
        self._last_rate: Optional[float] = None
        self._last_move: Optional[_Move] = None
        self._cursor = 0
        self._rejects = 0
        self._cooldown = 0

    def _clamp(self, w: float) -> float:
        return min(max(w, self.min_weight), self.max_weight)

    def allocate(self, fleet: FleetView) -> Dict[int, Assignment]:
        live = {f.flow_id for f in fleet.flows}
        # Forget flows that left; seed new arrivals at full share.
        self._weights = {fid: w for fid, w in self._weights.items() if fid in live}
        for f in fleet.flows:
            self._weights.setdefault(f.flow_id, 1.0)
            self._directions.setdefault(f.flow_id, self.step)

        rate = fleet.aggregate_rate
        if self._last_move is not None and self._last_rate is not None:
            move = self._last_move
            if move.flow_id in live and rate < self._last_rate * (1 - self.tolerance):
                # The experiment hurt: undo it and flip that flow's bias,
                # and wait exponentially longer before probing again.
                self._weights[move.flow_id] = move.prev_weight
                self._directions[move.flow_id] = (
                    1.0 / self.step
                    if move.direction > 1.0
                    else self.step
                )
                self._rejects += 1
                self._cooldown = min(2 ** (self._rejects - 1) - 1, self.max_backoff)
            else:
                self._rejects = 0
        self._last_rate = rate
        self._last_move = None

        if self._cooldown > 0:
            self._cooldown -= 1
            return {
                f.flow_id: Assignment(level=None, weight=self._weights[f.flow_id])
                for f in fleet.flows
            }

        # Perturb the next flow in round-robin order (only once the
        # fleet is actually moving data, so the first reading is real).
        order = sorted(live)
        if order and rate > 0:
            fid = order[self._cursor % len(order)]
            self._cursor += 1
            direction = self._directions[fid]
            prev = self._weights[fid]
            nxt = self._clamp(prev * direction)
            if nxt != prev:
                self._weights[fid] = nxt
                self._last_move = _Move(fid, direction, prev)

        return {
            f.flow_id: Assignment(level=None, weight=self._weights[f.flow_id])
            for f in fleet.flows
        }


#: CLI/registry names → constructors.
POLICIES = {
    FairSharePolicy.name: FairSharePolicy,
    GreedyThroughputPolicy.name: GreedyThroughputPolicy,
    HillClimbPolicy.name: HillClimbPolicy,
}


def make_policy(name: str) -> AllocationPolicy:
    """Instantiate a policy by registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r} (have: {', '.join(sorted(POLICIES))})"
        ) from None
