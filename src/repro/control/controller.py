"""The fleet controller: observations in, assignments out.

:class:`FleetController` is the cross-flow brain ROADMAP item 2 asks
for.  Its host feeds it per-flow state by direct calls
(:meth:`flow_opened` / :meth:`observe_flow` / :meth:`flow_closed`);
the serve loop and the simulator's fleet harness drive the identical
controller this one way, so turning telemetry on never changes what it
sees.

Each host-driven :meth:`on_tick` (the serve loop calls it once per
poll pass; the sim calls it from a clocked process) runs the pluggable
:class:`~repro.control.policies.AllocationPolicy` at most once per
``control_interval`` and pushes the resulting assignments through the
``actuator`` callback — ``actuator(flow_id, assignment)`` — which the
host maps onto whatever its substrate supports (level override + decode
window in serve, cpu share in the simulator).

Thread-safety: all flow state is behind one lock, so an admin thread
may read snapshots while the host loop feeds and ticks the controller.
The actuator is invoked *outside* the lock, on the tick caller's
thread.  ``bus`` only receives the :class:`FleetRebalanced` events.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from ..telemetry.events import BUS, EventBus, FleetRebalanced
from .policies import (
    AllocationPolicy,
    Assignment,
    FleetView,
    FlowSnapshot,
    make_policy,
)

__all__ = ["FlowState", "FleetController"]

Actuator = Callable[[int, Assignment], None]


@dataclass
class FlowState:
    """Mutable per-flow record behind the controller lock."""

    flow_id: int
    opened_at: float
    level: int = 0
    app_rate: float = 0.0
    app_bytes: float = 0.0
    #: Last informative compressibility evidence (wire/app measured at
    #: level > 0).  A flow running uncompressed produces ratio 1.0 by
    #: construction, which proves nothing — such samples never land here.
    observed_ratio: Optional[float] = None
    worker_weight: float = 1.0
    last_update: float = 0.0
    assignment: Assignment = Assignment()


class FleetController:
    """Cross-flow resource manager running one allocation policy."""

    def __init__(
        self,
        policy: Union[str, AllocationPolicy],
        *,
        n_levels: int = 4,
        actuator: Optional[Actuator] = None,
        control_interval: float = 1.0,
        bus: Optional[EventBus] = None,
        source: str = "control",
    ) -> None:
        if control_interval <= 0:
            raise ValueError("control_interval must be positive")
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.n_levels = n_levels
        self.actuator = actuator
        self.control_interval = control_interval
        self.bus = bus if bus is not None else BUS
        self.source = source
        self._lock = threading.Lock()
        self._flows: Dict[int, FlowState] = {}
        #: Completed policy passes (telemetry + tests).
        self.rebalances = 0
        self._last_tick: Optional[float] = None

    # -- observation ingestion -----------------------------------------

    def flow_opened(self, flow_id: int, *, now: float) -> None:
        with self._lock:
            self._flows.setdefault(flow_id, FlowState(flow_id, opened_at=now))

    def flow_closed(self, flow_id: int) -> None:
        with self._lock:
            self._flows.pop(flow_id, None)

    def observe_flow(
        self,
        flow_id: int,
        *,
        now: float,
        level: int,
        app_rate: float,
        app_bytes: float = 0.0,
        observed_ratio: Optional[float] = None,
    ) -> None:
        """Ingest one per-flow rate sample (creates the flow if new).

        ``observed_ratio`` is only *kept* when it is informative: a
        measurement taken while the flow compressed (level > 0).  The
        last informative value survives level pins to 0, so a greedy
        policy's own actuation cannot erase the evidence it acted on.
        """
        with self._lock:
            st = self._flows.get(flow_id)
            if st is None:
                st = self._flows[flow_id] = FlowState(flow_id, opened_at=now)
            st.level = level
            st.app_rate = app_rate
            st.app_bytes = app_bytes
            st.last_update = now
            if observed_ratio is not None and level > 0:
                st.observed_ratio = observed_ratio

    # -- introspection --------------------------------------------------

    @property
    def flow_count(self) -> int:
        with self._lock:
            return len(self._flows)

    def fleet_view(self, now: float) -> FleetView:
        """Immutable snapshot of everything the policy may look at."""
        with self._lock:
            flows = tuple(
                FlowSnapshot(
                    flow_id=st.flow_id,
                    level=st.level,
                    app_rate=st.app_rate,
                    app_bytes=st.app_bytes,
                    observed_ratio=st.observed_ratio,
                    age_seconds=max(now - st.opened_at, 0.0),
                    weight=st.worker_weight,
                )
                for st in sorted(self._flows.values(), key=lambda s: s.flow_id)
            )
            return FleetView(now=now, flows=flows, n_levels=self.n_levels)

    def assignment_for(self, flow_id: int) -> Assignment:
        with self._lock:
            st = self._flows.get(flow_id)
            return st.assignment if st is not None else Assignment()

    # -- control --------------------------------------------------------

    def on_tick(self, now: float) -> Optional[Dict[int, Assignment]]:
        """Run the policy if the control interval elapsed.

        Returns the assignments applied this pass, or ``None`` when the
        interval had not elapsed or no flows were live.  Hosts call this
        as often as they like — once per event-loop pass is fine.
        """
        if self._last_tick is not None and now - self._last_tick < self.control_interval:
            return None
        self._last_tick = now
        fleet = self.fleet_view(now)
        if not fleet.flows:
            return None
        assignments = self.policy.allocate(fleet)
        applied: List[tuple] = []
        with self._lock:
            for fid, asg in assignments.items():
                st = self._flows.get(fid)
                if st is None:
                    continue  # raced with a close
                st.assignment = asg
                st.worker_weight = asg.weight
                applied.append((fid, asg))
        if self.actuator is not None:
            for fid, asg in applied:
                self.actuator(fid, asg)
        self.rebalances += 1
        if self.bus.active:
            self.bus.publish(
                FleetRebalanced(
                    ts=now,
                    source=self.source,
                    policy=self.policy.name,
                    flows=len(applied),
                    pinned=sum(1 for _, a in applied if a.level is not None),
                    reweighted=sum(1 for _, a in applied if a.weight != 1.0),
                )
            )
        return dict(applied)
