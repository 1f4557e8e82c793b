"""Contended-fleet simulation: N transfers, one CPU budget, one NIC.

Where :mod:`repro.sim.scenario` reproduces the paper's single-transfer
cells, this module runs a *fleet* of concurrent compressed transfers
that share a fixed CPU budget (``cores``) and one
:class:`~repro.sim.link.SharedLink` — the setting in which per-flow
adaptation is provably not enough (ROADMAP item 2): each flow's
Algorithm 1 instance sees only its own rate, so the fleet-level
questions (who should compress HEAVY, who should stop compressing, who
deserves the CPU) go unanswered.

:class:`SimFleetController` drives the *same*
:class:`~repro.control.FleetController` / policy objects the serve
layer uses, against simulated time:

* each flow's scheme is wrapped so its per-epoch
  :class:`~repro.core.flowview.FlowView` is forwarded to the controller
  (the sim equivalent of the serve layer's ``FlowRates`` events);
* a clocked process calls ``on_tick`` every ``control_interval``;
* the actuator maps assignments onto the simulator's knobs — level
  pins via :class:`~repro.schemes.managed.ManagedScheme` and CPU-share
  reallocation via :attr:`~repro.sim.transfer.TransferSim.cpu_share`
  (``share_i = min(1, cores * w_i / Σ w_j)`` over live flows).

The uncontrolled baseline splits the CPU budget evenly across live
flows — exactly what an OS scheduler gives N equally-demanding codec
processes — so the comparison isolates the value of the *decisions*,
not of the accounting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..control import AllocationPolicy, Assignment, FleetController, make_policy
from ..data.corpus import Compressibility
from ..data.datasource import RepeatingSource
from ..schemes.base import CompressionScheme, EpochObservation
from ..schemes.managed import ManagedScheme
from ..schemes.rate_based import RateBasedScheme
from ..telemetry.events import BUS, FlowRates
from .calibration import LINK_APP_CAPACITY, CodecSimModel
from .engine import Environment
from .link import SharedLink
from .rng import RngStreams
from .transfer import TransferResult, TransferSim
from .workload import SoftmaxArrivalProcess

__all__ = [
    "FleetFlowSpec",
    "FleetArrivalSpec",
    "FleetFlowOutcome",
    "FleetResult",
    "SimFleetController",
    "run_fleet_scenario",
]


@dataclass(frozen=True)
class FleetFlowSpec:
    """One member of the fleet."""

    name: str
    compressibility: Compressibility
    total_bytes: int


@dataclass(frozen=True)
class FleetArrivalSpec:
    """Open-loop arrival schedule for :func:`run_fleet_scenario`.

    Instead of starting every spec'd flow at t=0 (closed batch), flows
    arrive over simulated time following a
    :class:`~repro.sim.workload.SoftmaxArrivalProcess` — the gacs
    softmax-modulated transfer generator (SNIPPETS.md Snippet 2) — with
    the spec list treated as a repeating template cycle.  ``total_flows``
    bounds the run, so the fleet can churn through far more flows than
    are ever concurrently live.
    """

    #: Total flows to spawn before the arrival process stops.
    total_flows: int
    #: Seconds between arrival decisions.
    interval: float = 5.0
    #: Mean of the target live-flow curve.
    mean: float = 8.0
    #: Amplitude of the diurnal modulation (``<= mean``).
    swing: float = 4.0
    #: Period of the modulation, simulated seconds.
    period: float = 600.0
    #: Multiplicative Gaussian noise on the target.
    noise: float = 0.02

    def __post_init__(self) -> None:
        if self.total_flows < 1:
            raise ValueError("total_flows must be >= 1")
        if self.interval <= 0:
            raise ValueError("interval must be positive")


@dataclass(frozen=True)
class FleetFlowOutcome:
    """Per-flow results after the fleet drained."""

    flow_id: int
    name: str
    compressibility: str
    #: Simulated instant the flow finished (not its duration: an
    #: open-loop flow ran from ``started_at`` to here).
    completion_time: float
    app_bytes: float
    mean_app_rate: float
    #: Epochs spent at each level, for shape claims about the policy.
    level_epochs: Dict[int, int]
    #: Arrival time (0.0 for closed-batch runs; set by open-loop arrivals).
    started_at: float = 0.0


@dataclass
class FleetResult:
    """Outcome of one fleet run (one policy arm)."""

    policy: Optional[str]
    flows: List[FleetFlowOutcome] = field(default_factory=list)
    #: Time until the *last* flow finished.
    makespan: float = 0.0
    total_app_bytes: float = 0.0
    rebalances: int = 0
    #: Engine heap pops delivered during the run (throughput telemetry).
    events_processed: int = 0
    #: Real (wall-clock) seconds the run took, for perf-regression eyes.
    wall_seconds: float = 0.0
    #: Flows spawned over the run (== len(flows); explicit for open loop).
    flows_spawned: int = 0
    #: Peak concurrently-live flow count (open-loop runs churn through
    #: far more flows than are ever simultaneously live).
    peak_live: int = 0

    @property
    def events_per_second(self) -> float:
        """Engine throughput over the run's wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds

    @property
    def aggregate_goodput(self) -> float:
        """Fleet-level application bytes/s over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.total_app_bytes / self.makespan

    def completion_percentile(self, pct: float) -> float:
        """Completion-time percentile (nearest-rank) across flows.

        Ranks each flow's duration, ``completion_time - started_at``:
        ``completion_time`` is the finish instant, which for open-loop
        arrivals includes the wait before the flow arrived.  Closed
        batches start every flow at 0, so there the two agree.
        """
        times = sorted(f.completion_time - f.started_at for f in self.flows)
        if not times:
            return 0.0
        rank = max(0, min(len(times) - 1, math.ceil(pct / 100.0 * len(times)) - 1))
        return times[rank]


class _ObservedScheme(ManagedScheme):
    """ManagedScheme that forwards every epoch view to the controller."""

    def __init__(self, inner: CompressionScheme, controller: FleetController) -> None:
        super().__init__(inner)
        self._controller = controller
        self._app_bytes_total = 0.0

    def on_epoch(self, obs: EpochObservation) -> int:
        # The sim's FlowView carries *per-epoch* bytes; the FlowRates
        # event contract is cumulative (what serve publishes), so
        # accumulate before telling anyone.
        self._app_bytes_total += obs.app_bytes
        self._controller.observe_flow(
            obs.flow_id,
            now=obs.now,
            level=obs.level,
            app_rate=obs.app_rate,
            app_bytes=self._app_bytes_total,
            observed_ratio=obs.observed_ratio,
        )
        if BUS.active:
            BUS.publish(
                FlowRates(
                    ts=obs.now,
                    source="sim",
                    flow_id=obs.flow_id,
                    level=obs.level,
                    app_rate=obs.app_rate,
                    app_bytes=self._app_bytes_total,
                    observed_ratio=obs.observed_ratio,
                    worker_weight=obs.worker_weight,
                )
            )
        return super().on_epoch(obs)


class SimFleetController:
    """Clocked process driving a :class:`FleetController` in sim time."""

    def __init__(
        self,
        env: Environment,
        controller: FleetController,
        interval: float,
    ) -> None:
        self.env = env
        self.controller = controller
        self.interval = interval
        self._stopped = False

    def start(self) -> "SimFleetController":
        self.env.process(self._run(), name="fleet-controller")
        return self

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        while not self._stopped:
            yield self.env.timeout(self.interval)
            if self._stopped:
                return
            self.controller.on_tick(self.env.now)


def run_fleet_scenario(
    specs: List[FleetFlowSpec],
    *,
    policy: Union[str, AllocationPolicy, None] = None,
    arrivals: Optional[FleetArrivalSpec] = None,
    cores: float = 2.0,
    seed: int = 0,
    epoch_seconds: float = 2.0,
    control_interval: float = 4.0,
    link_capacity: float = LINK_APP_CAPACITY,
    model: Optional[CodecSimModel] = None,
    compute_jitter: float = 0.02,
) -> FleetResult:
    """Run a fleet of concurrent transfers; return fleet-level results.

    ``policy=None`` is the uncontrolled baseline: every flow runs the
    paper's per-flow Algorithm 1 with an even split of the CPU budget.
    Any policy name / instance enables the fleet controller on top of
    the *same* per-flow schemes.

    ``arrivals=None`` is the closed batch: every spec starts at t=0.
    With a :class:`FleetArrivalSpec`, ``arrivals.total_flows`` flows
    arrive open-loop over simulated time (specs cycled as templates),
    so total churn can far exceed peak concurrency.

    Termination is a completion-counter event — the engine stops the
    moment the last flow finishes (no polling loop); if the event queue
    drains first the engine raises
    :class:`~repro.sim.engine.SimulationError`.
    """
    if not specs:
        raise ValueError("need at least one flow spec")
    if cores <= 0:
        raise ValueError("cores must be positive")
    rngs = RngStreams(seed)
    env = Environment()
    model = model or CodecSimModel()
    previous_clock = env.bind_telemetry(BUS) if BUS.active else None
    total_flows = arrivals.total_flows if arrivals is not None else len(specs)

    try:
        link = SharedLink(env, capacity=link_capacity, name="nic")

        controller: Optional[FleetController] = None
        schemes: Dict[int, CompressionScheme] = {}
        flow_specs: Dict[int, FleetFlowSpec] = {}
        started: Dict[int, float] = {}
        weights: Dict[int, float] = {}
        # Live flows in spawn order (a flow is deleted when it finishes),
        # so weight sums keep the spawn-order summation.
        live: Dict[int, TransferSim] = {}

        def recompute_shares() -> None:
            if not live:
                return
            total = sum(weights[i] for i in live)
            for i, sim in live.items():
                sim.cpu_share = min(1.0, cores * weights[i] / total)

        if policy is not None:
            policy_obj = make_policy(policy) if isinstance(policy, str) else policy

            def actuate(flow_id: int, asg: Assignment) -> None:
                scheme = schemes.get(flow_id)
                if scheme is None:
                    return  # assignment raced a flow that already drained
                if isinstance(scheme, ManagedScheme):
                    scheme.set_override(asg.level)
                weights[flow_id] = asg.weight
                recompute_shares()

            controller = FleetController(
                policy_obj,
                n_levels=model.n_levels,
                actuator=actuate,
                control_interval=control_interval,
                source="sim-control",
            )

        completions: Dict[int, float] = {}
        results: Dict[int, TransferResult] = {}
        done = env.event()
        state = {"finished": 0, "peak": 0, "spawned": 0}

        def run_flow(i: int, sim: TransferSim):
            if controller is not None:
                controller.flow_opened(i, now=env.now)
            result = yield from sim.run()
            results[i] = result
            completions[i] = env.now
            del live[i]
            if controller is not None:
                controller.flow_closed(i)
            # A finished flow returns its CPU share to the pool either way.
            recompute_shares()
            state["finished"] += 1
            if state["finished"] == total_flows:
                done.succeed()

        def spawn_flow(spec: FleetFlowSpec) -> None:
            i = state["spawned"]
            state["spawned"] += 1
            inner = RateBasedScheme(model.n_levels)
            scheme: CompressionScheme = (
                _ObservedScheme(inner, controller) if controller is not None else inner
            )
            schemes[i] = scheme
            flow_specs[i] = spec
            started[i] = env.now
            weights[i] = 1.0
            source = RepeatingSource.from_corpus(spec.compressibility, spec.total_bytes)
            sim = live[i] = TransferSim(
                env,
                link,
                source,
                scheme,
                model,
                rngs.stream(f"flow-{i}"),
                epoch_seconds=epoch_seconds,
                compute_jitter=compute_jitter,
                foreground_weight=1.0,
                flow_id=i,
                flow_name=spec.name,
            )
            state["peak"] = max(state["peak"], len(live))
            env.process(run_flow(i, sim), name=f"{spec.name}#{i}")
            recompute_shares()

        if arrivals is None:
            for spec in specs:
                spawn_flow(spec)
        else:
            arrival_proc = SoftmaxArrivalProcess(
                rngs.stream("arrivals"),
                mean=arrivals.mean,
                swing=arrivals.swing,
                period=arrivals.period,
                noise=arrivals.noise,
            )

            def spawner():
                while state["spawned"] < total_flows:
                    count = arrival_proc.arrivals(env.now, len(live))
                    if count == 0 and not live:
                        # Progress guarantee: never idle with nothing
                        # live and flows still owed.
                        count = 1
                    count = min(count, total_flows - state["spawned"])
                    for _ in range(count):
                        spawn_flow(specs[state["spawned"] % len(specs)])
                    if state["spawned"] >= total_flows:
                        return
                    yield env.timeout(arrivals.interval)

            env.process(spawner(), name="fleet-arrivals")

        ticker = (
            SimFleetController(env, controller, control_interval).start()
            if controller is not None
            else None
        )

        wall_start = time.perf_counter()
        events_before = env.events_processed
        env.run(until=done)
        wall_seconds = time.perf_counter() - wall_start
        if ticker is not None:
            ticker.stop()

        fleet = FleetResult(
            policy=controller.policy.name if controller is not None else None,
            rebalances=controller.rebalances if controller is not None else 0,
            events_processed=env.events_processed - events_before,
            wall_seconds=wall_seconds,
            flows_spawned=state["spawned"],
            peak_live=state["peak"],
        )
        for i in range(state["spawned"]):
            spec = flow_specs[i]
            res = results[i]
            level_epochs: Dict[int, int] = {}
            for ep in res.epochs:
                level_epochs[ep.level] = level_epochs.get(ep.level, 0) + 1
            fleet.flows.append(
                FleetFlowOutcome(
                    flow_id=i,
                    name=spec.name,
                    compressibility=spec.compressibility.name,
                    completion_time=completions[i],
                    app_bytes=res.total_app_bytes,
                    mean_app_rate=res.mean_app_rate,
                    level_epochs=level_epochs,
                    started_at=started[i],
                )
            )
            fleet.total_app_bytes += res.total_app_bytes
        fleet.makespan = max(completions.values())
        return fleet
    finally:
        if previous_clock is not None:
            BUS.clock = previous_clock
