"""The adaptive controller: epoch clock + decision scheme + trace.

The real I/O paths drive it with wall-clock time:
:class:`~repro.core.stream.AdaptiveBlockWriter` (file, socket and
Nephele channel transfers) and every echo flow of the serve daemon call
:meth:`AdaptiveController.record` as application bytes pass through and
:meth:`AdaptiveController.poll` after each block.  The simulator does
not use this class: :class:`~repro.sim.transfer.TransferSim` keeps its
own simulated epoch clock and calls its scheme's ``on_epoch`` directly.
What both share is the scheme — by default the paper's
:class:`~repro.schemes.rate_based.RateBasedScheme` over
:class:`~repro.core.decision.DecisionModel` — which is what makes the
simulation results statements about the *algorithm* rather than about a
re-implementation of it.

The controller drives any :class:`~repro.schemes.base.CompressionScheme`
through the uniform :class:`~repro.core.flowview.FlowView` /
:class:`~repro.core.flowview.FlowDecision` interface.  To pin the
applied level while the scheme keeps learning open-loop, drive a
:class:`~repro.schemes.managed.ManagedScheme` and set its override, as
the serve daemon's echo flows do.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..telemetry.events import BUS, EpochClosed, LevelSwitched
from .decision import DEFAULT_ALPHA, DEFAULT_EPOCH_SECONDS
from .flowview import FlowView
from .rate import EpochSample, RateMeter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..schemes.base import CompressionScheme

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpochRecord:
    """One controller epoch, for traces (Figures 4–6 style plots)."""

    epoch: int
    start: float
    end: float
    app_bytes: int
    app_rate: float
    level_before: int
    level_after: int
    backoff_snapshot: List[int]

    @property
    def level_changed(self) -> bool:
        return self.level_after != self.level_before


class AdaptiveController:
    """Re-decides the compression level every ``epoch_seconds``.

    Parameters
    ----------
    n_levels:
        Size of the compression-level ladder.
    epoch_seconds:
        The paper's ``t`` (default 2 s).
    alpha:
        The paper's dead-band parameter (default 0.2).  Only used when
        constructing the default scheme.
    initial_level:
        Starting level; the paper starts at 0 (no compression).  Only
        used when constructing the default scheme.
    clock_start:
        Timestamp of the first epoch's start, in whatever clock the
        caller uses (wall seconds or simulated seconds).
    scheme:
        Decision scheme to drive; defaults to the paper's
        ``RateBasedScheme(n_levels, alpha=alpha, initial_level=initial_level)``.
    flow_id:
        Identity stamped into the per-epoch :class:`FlowView` (0 for a
        lone flow; the serve layer passes the real flow id).
    """

    def __init__(
        self,
        n_levels: int,
        epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
        alpha: float = DEFAULT_ALPHA,
        initial_level: int = 0,
        clock_start: float = 0.0,
        scheme: Optional["CompressionScheme"] = None,
        flow_id: int = 0,
    ) -> None:
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        self.epoch_seconds = epoch_seconds
        if scheme is None:
            # Imported lazily: repro.schemes imports repro.core.flowview,
            # so a module-level import here would be a cycle.
            from ..schemes.rate_based import RateBasedScheme

            scheme = RateBasedScheme(
                n_levels, alpha=alpha, initial_level=initial_level
            )
        self.scheme = scheme
        self.flow_id = flow_id
        self.meter = RateMeter(clock_start=clock_start)
        self.trace: List[EpochRecord] = []
        self._epoch_index = 0

    @property
    def current_level(self) -> int:
        return self.scheme.current_level

    @property
    def total_bytes(self) -> int:
        return self.meter.total_bytes

    def record(self, nbytes: int) -> None:
        """Account application bytes handed to the compression module."""
        self.meter.record(nbytes)

    def poll(self, now: float) -> Optional[EpochRecord]:
        """Re-decide if the current epoch has elapsed.

        Returns the closed epoch's record when a decision was made,
        otherwise ``None``.  Callers should invoke this frequently
        (after every block in practice); the controller ignores calls
        inside an open epoch, so over-calling is free.
        """
        if now - self.meter.epoch_start < self.epoch_seconds:
            return None
        return self.force_decision(now)

    def force_decision(self, now: float) -> EpochRecord:
        """Close the epoch at ``now`` unconditionally and re-decide."""
        sample: EpochSample = self.meter.close_epoch(now)
        level_before = self.current_level
        view = FlowView(
            now=sample.end,
            epoch_seconds=max(sample.end - sample.start, 0.0),
            app_rate=sample.rate,
            displayed_cpu_util=0.0,
            displayed_bandwidth=0.0,
            flow_id=self.flow_id,
            level=level_before,
            app_bytes=float(sample.nbytes),
        )
        decision = self.scheme.decide(view)
        record = EpochRecord(
            epoch=self._epoch_index,
            start=sample.start,
            end=sample.end,
            app_bytes=sample.nbytes,
            app_rate=sample.rate,
            level_before=level_before,
            level_after=decision.level_after,
            backoff_snapshot=self.scheme.backoff_snapshot(),
        )
        self.trace.append(record)
        self._epoch_index += 1
        if BUS.active:
            BUS.publish(
                EpochClosed(
                    ts=record.end,
                    source="controller",
                    epoch=record.epoch,
                    start=record.start,
                    end=record.end,
                    app_bytes=record.app_bytes,
                    app_rate=record.app_rate,
                    level=record.level_after,
                )
            )
            if record.level_changed:
                BUS.publish(
                    LevelSwitched(
                        ts=record.end,
                        source="controller",
                        epoch=record.epoch,
                        level_before=record.level_before,
                        level_after=record.level_after,
                    )
                )
        if record.level_changed and logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "epoch %d: rate %.2f MB/s, level %d -> %d (bck=%s)",
                record.epoch,
                record.app_rate / 1e6,
                record.level_before,
                record.level_after,
                record.backoff_snapshot,
            )
        return record

    def level_timeline(self) -> List[tuple[float, int]]:
        """(time, level) change points reconstructed from the trace."""
        timeline: List[tuple[float, int]] = []
        last_level: Optional[int] = None
        for rec in self.trace:
            if rec.level_before != last_level:
                timeline.append((rec.start, rec.level_before))
                last_level = rec.level_before
            if rec.level_changed:
                timeline.append((rec.end, rec.level_after))
                last_level = rec.level_after
        return timeline
