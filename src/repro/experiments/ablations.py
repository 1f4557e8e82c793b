"""Ablation experiments for the design choices DESIGN.md calls out.

None of these has a direct figure in the paper, but each pins down a
claim the paper argues in prose:

* ``ablate-alpha`` — Section III-A/IV-A: small α detects small gains
  but mistakes fluctuation for signal; the paper picked 0.2.
* ``ablate-backoff`` — Section III-A: exponential backoff makes
  unnecessary probing decrease exponentially; without it, a constant
  probe tax is paid forever.
* ``ablate-t`` — Section III-A: the MB-granularity design goal; very
  short epochs measure noise, very long epochs adapt too slowly.
* ``ablate-metrics`` — Section II: feeding a resource-based scheme the
  *displayed* (skewed) metrics instead of honest ones produces
  unreasonable levels and worse completion times.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from ..core.decision import DecisionModel
from ..data.corpus import Compressibility
from ..schemes.base import CompressionScheme, EpochObservation
from ..schemes.resource_based import ResourceBasedScheme, TrainedLevel
from ..sim.calibration import CODEC_MODEL
from ..sim.scenario import (
    ScenarioConfig,
    make_dynamic_factory,
    make_static_factory,
    run_transfer_scenario,
)
from .common import ExperimentResult, scaled_bytes
from .reporting import check, format_table

MB = 1e6


def _run(scheme_factory, cls, total, n_background, seed, epoch_seconds=2.0):
    cfg = ScenarioConfig(
        scheme_factory=scheme_factory,
        compressibility=cls,
        total_bytes=total,
        n_background=n_background,
        epoch_seconds=epoch_seconds,
        seed=seed,
    )
    return run_transfer_scenario(cfg)


# ---------------------------------------------------------------------
# alpha sweep
# ---------------------------------------------------------------------

ALPHAS = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)


def run_alpha(scale: float = 0.1, seed: int = 71, repeats: int = 2) -> ExperimentResult:
    # Short runs are dominated by start-up probing, which is the same
    # for every alpha; keep enough epochs for the dead-band behaviour
    # itself to differentiate the settings.
    total = max(scaled_bytes(scale), 10 * 10**9)
    rows = []
    results: Dict[float, Dict[str, float]] = {}
    for alpha in ALPHAS:
        times_low = [
            _run(make_dynamic_factory(alpha), Compressibility.LOW, total, 2, seed + r).completion_time
            for r in range(repeats)
        ]
        times_high = [
            _run(make_dynamic_factory(alpha), Compressibility.HIGH, total, 0, seed + r).completion_time
            for r in range(repeats)
        ]
        results[alpha] = {
            "low2": statistics.fmean(times_low),
            "high0": statistics.fmean(times_high),
        }
        rows.append(
            [f"{alpha:.2f}", f"{results[alpha]['high0']:.0f}", f"{results[alpha]['low2']:.0f}"]
        )
    rendered = format_table(
        ["alpha", "HIGH/0-conn (s)", "LOW/2-conn (s)"],
        rows,
        title="Completion time vs dead-band width alpha (DYNAMIC)",
    )

    checks: List[str] = []
    failures: List[str] = []
    best_high = min(r["high0"] for r in results.values())
    at_02 = results[0.2]["high0"]
    checks.append(
        check(
            at_02 <= 1.15 * best_high,
            f"alpha=0.2 is near-optimal on the easy cell ({at_02:.0f}s vs best {best_high:.0f}s)",
            failures,
        )
    )
    # Robustness: the extreme alphas must not beat 0.2 by much on the
    # noisy LOW/2-conn cell either.
    at_02_low = results[0.2]["low2"]
    best_low = min(r["low2"] for r in results.values())
    checks.append(
        check(
            at_02_low <= 1.3 * best_low,
            f"alpha=0.2 stays competitive on the noisy cell ({at_02_low:.0f}s vs best {best_low:.0f}s)",
            failures,
        )
    )

    return ExperimentResult(
        experiment_id="ablate-alpha",
        title="Dead-band parameter sweep",
        rendered=rendered,
        checks=checks,
        failures=failures,
        data={str(a): results[a] for a in ALPHAS},
    )


# ---------------------------------------------------------------------
# backoff on/off
# ---------------------------------------------------------------------


class NoBackoffScheme(CompressionScheme):
    """The paper's scheme with the exponential backoff disabled: the
    algorithm probes a neighbour on *every* stable epoch."""

    name = "DYNAMIC-NOBACKOFF"

    def __init__(self, n_levels: int, alpha: float = 0.2) -> None:
        super().__init__(n_levels)
        self.model = DecisionModel(n_levels, alpha=alpha)

    @property
    def current_level(self) -> int:
        return self.model.current_level

    def on_epoch(self, obs: EpochObservation) -> int:
        level = self.model.observe(obs.app_rate)
        # Undo all backoff growth: thresholds stay at 1 forever.
        for lvl in range(self.n_levels):
            self.model.state.bck.punish(lvl)
        return level


def run_backoff(scale: float = 0.1, seed: int = 72, repeats: int = 2) -> ExperimentResult:
    # Backoff's value is the *long-run* probe frequency; keep at least
    # ~50 epochs in the run regardless of scale so the exponential vs
    # constant probing rates are distinguishable.
    total = max(scaled_bytes(scale), 20 * 10**9)

    def count_probes(result) -> int:
        levels = [e.level for e in result.epochs]
        return sum(1 for a, b in zip(levels, levels[1:]) if a != b)

    rows = []
    data = {}
    for name, factory in (
        ("with backoff", make_dynamic_factory()),
        ("no backoff", lambda n: NoBackoffScheme(n)),
    ):
        times, probes = [], []
        for r in range(repeats):
            res = _run(factory, Compressibility.HIGH, total, 0, seed + r)
            times.append(res.completion_time)
            probes.append(count_probes(res))
        data[name] = {
            "time": statistics.fmean(times),
            "probes": statistics.fmean(probes),
        }
        rows.append([name, f"{data[name]['time']:.0f}", f"{data[name]['probes']:.0f}"])
    rendered = format_table(
        ["variant", "completion (s)", "level changes"],
        rows,
        title="Exponential backoff ablation (HIGH, no background)",
    )

    checks: List[str] = []
    failures: List[str] = []
    checks.append(
        check(
            data["no backoff"]["probes"] > 2 * data["with backoff"]["probes"],
            f"backoff cuts probing dramatically "
            f"({data['with backoff']['probes']:.0f} vs {data['no backoff']['probes']:.0f} changes)",
            failures,
        )
    )
    checks.append(
        check(
            data["with backoff"]["time"] <= data["no backoff"]["time"] * 1.02,
            "backoff never hurts completion time",
            failures,
        )
    )

    return ExperimentResult(
        experiment_id="ablate-backoff",
        title="Exponential backoff on/off",
        rendered=rendered,
        checks=checks,
        failures=failures,
        data=data,
    )


# ---------------------------------------------------------------------
# epoch length t
# ---------------------------------------------------------------------

EPOCHS = (0.5, 1.0, 2.0, 4.0, 8.0)


def run_epoch_length(scale: float = 0.1, seed: int = 73, repeats: int = 2) -> ExperimentResult:
    total = scaled_bytes(scale)
    rows = []
    data = {}
    for t in EPOCHS:
        times = [
            _run(
                make_dynamic_factory(), Compressibility.HIGH, total, 1, seed + r, epoch_seconds=t
            ).completion_time
            for r in range(repeats)
        ]
        data[str(t)] = statistics.fmean(times)
        rows.append([f"{t:.1f}", f"{data[str(t)]:.0f}"])
    rendered = format_table(
        ["t (s)", "completion (s)"],
        rows,
        title="Completion time vs decision epoch length t (HIGH, 1 conn)",
    )

    checks: List[str] = []
    failures: List[str] = []
    at_2 = data["2.0"]
    best = min(data.values())
    checks.append(
        check(
            at_2 <= 1.15 * best,
            f"the paper's t=2s is near-optimal ({at_2:.0f}s vs best {best:.0f}s)",
            failures,
        )
    )

    return ExperimentResult(
        experiment_id="ablate-t",
        title="Decision epoch length sweep",
        rendered=rendered,
        checks=checks,
        failures=failures,
        data=data,
    )


# ---------------------------------------------------------------------
# displayed metrics vs honest metrics (resource-based scheme)
# ---------------------------------------------------------------------


def _training_table(cls: Compressibility = Compressibility.HIGH) -> List[TrainedLevel]:
    """Offline training on an unloaded machine — exactly what
    Krintz/Sucu-style schemes calibrate once.  The table is *correct*
    for the given data class: the ablation isolates the metric skew,
    not training-data mismatch."""
    table = [TrainedLevel(comp_speed=float("inf"), ratio=1.0)]
    for name in ("LIGHT", "MEDIUM", "HEAVY"):
        pt = CODEC_MODEL[(name, cls)]
        table.append(TrainedLevel(comp_speed=pt.comp_speed, ratio=pt.ratio))
    return table


def run_metrics(scale: float = 0.1, seed: int = 74, repeats: int = 2) -> ExperimentResult:
    """Two-part experiment.

    Part 1 (deterministic): feed the resource-based decision model the
    exact metric skew Section II measured — a paravirtualized VM
    displaying ~7 % CPU while the host burns a core, and a displayed
    bandwidth riding a collapse artifact — and show it picks an
    unreasonable level, while honest inputs give a sane one and the
    rate-based model is unaffected by construction.

    Part 2 (simulation): robustness under bandwidth fluctuation — the
    local-cloud regime the paper evaluated on (mild jitter) vs
    EC2-grade on/off fluctuation.  On the local cloud the adaptive
    schemes track the best static level; under EC2-grade fluctuation
    *every* decision model degrades, including the paper's — which is
    consistent with the paper's choice to evaluate on its local cloud
    and its own caution about alpha vs fluctuations (Section IV-A).
    """
    from ..sim.fluctuation import MarkovOnOff

    checks: List[str] = []
    failures: List[str] = []

    # -- Part 1: the Section II failure mode, deterministically -------
    training = _training_table(Compressibility.HIGH)

    def decide(cpu_util: float, bandwidth: float) -> int:
        scheme = ResourceBasedScheme(training, smoothing=1.0)
        return scheme.on_epoch(
            EpochObservation(
                now=2.0,
                epoch_seconds=2.0,
                app_rate=80 * MB,
                displayed_cpu_util=cpu_util,
                displayed_bandwidth=bandwidth,
            )
        )

    # Honest inputs: busy-ish CPU, true ~90 MB/s link.
    honest_level = decide(cpu_util=60.0, bandwidth=90 * MB)
    # Skewed inputs: VM displays near-idle CPU (the 15x gap) and the
    # bandwidth estimate has collapsed (fluctuation/caching artifact).
    skewed_level = decide(cpu_util=7.0, bandwidth=2 * MB)

    part1_rows = [
        ["honest (CPU 60%, BW 90 MB/s)", f"level {honest_level}"],
        ["skewed (CPU 7%, BW 2 MB/s)", f"level {skewed_level}"],
    ]
    checks.append(
        check(
            honest_level <= 1,
            f"honest metrics give a reasonable level ({honest_level})",
            failures,
        )
    )
    checks.append(
        check(
            skewed_level == 3,
            f"Section II's skewed metrics push the scheme to HEAVY (got {skewed_level})",
            failures,
        )
    )

    # -- Part 2: fluctuation robustness end to end --------------------
    # Long runs: start-up probing must amortize, so the comparison
    # isolates the steady-state fluctuation effect.
    total = max(scaled_bytes(scale), 20 * 10**9)
    regimes = {
        "local cloud": None,  # the profile's mild GaussianJitter
        "EC2-grade": MarkovOnOff(),
    }
    contenders = {
        "DYNAMIC": make_dynamic_factory(),
        "RESOURCE": lambda n: ResourceBasedScheme(_training_table(Compressibility.HIGH)),
        "LIGHT": make_static_factory(1, "LIGHT"),
        "NO": make_static_factory(0, "NO"),
    }
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for regime, fluct in regimes.items():
        data[regime] = {}
        for name, factory in contenders.items():
            times = []
            for r in range(repeats):
                cfg = ScenarioConfig(
                    scheme_factory=factory,
                    compressibility=Compressibility.HIGH,
                    total_bytes=total,
                    n_background=1,
                    fluctuation=fluct,
                    seed=seed + r,
                )
                times.append(run_transfer_scenario(cfg).completion_time)
            data[regime][name] = statistics.fmean(times)
            rows.append([regime, name, f"{data[regime][name]:.0f}"])

    rendered = format_table(
        ["input", "decision", ""],
        part1_rows,
        title="Part 1: one decision under honest vs skewed displayed metrics",
    ) + "\n\n" + format_table(
        ["fluctuation regime", "scheme", "completion (s)"],
        rows,
        title="Part 2: HIGH data, 1 connection, per fluctuation regime",
    )

    local_best = min(data["local cloud"][s] for s in ("LIGHT", "NO"))
    checks.append(
        check(
            data["local cloud"]["DYNAMIC"] <= 1.25 * local_best,
            "on the paper's local cloud DYNAMIC tracks the best static level "
            f"({data['local cloud']['DYNAMIC']:.0f}s vs {local_best:.0f}s)",
            failures,
        )
    )
    ec2_best = min(data["EC2-grade"][s] for s in ("LIGHT", "NO"))
    checks.append(
        check(
            data["EC2-grade"]["DYNAMIC"] > 1.15 * ec2_best,
            "EC2-grade fluctuation breaks the rate signal the paper's scheme "
            f"relies on (DYNAMIC {data['EC2-grade']['DYNAMIC']:.0f}s vs best "
            f"static {ec2_best:.0f}s) — consistent with the paper evaluating "
            "on its local cloud only",
            failures,
        )
    )

    return ExperimentResult(
        experiment_id="ablate-metrics",
        title="Metric skew and fluctuation sensitivity of decision models",
        rendered=rendered,
        checks=checks,
        failures=failures,
        data={"part1": {"honest": honest_level, "skewed": skewed_level}, "part2": data},
    )
