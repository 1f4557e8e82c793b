"""The adaptive controller: epoch clock + decision scheme + trace.

This is the piece both execution environments share.  The real I/O path
(:mod:`repro.io`, :mod:`repro.nephele`) calls :meth:`AdaptiveController.record`
as application bytes pass through and :meth:`AdaptiveController.poll`
with wall-clock time; the simulator (:mod:`repro.sim.transfer`) drives
the very same class with simulated time.  Keeping a single controller
implementation is what makes the simulation results statements about
the *algorithm* rather than about a re-implementation of it.

Since the control-plane refactor the controller no longer owns a bare
:class:`~repro.core.decision.DecisionModel` — it drives any
:class:`~repro.schemes.base.CompressionScheme` through the uniform
:class:`~repro.core.flowview.FlowView` /
:class:`~repro.core.flowview.FlowDecision` interface.  The default
scheme is the paper's rate-based one, constructed with the same
parameters as before, so decisions are byte-for-byte identical to the
pre-refactor path (``model.observe(sample.rate)``).  A fleet controller
may additionally pin the applied level via :meth:`set_level_override`;
the scheme keeps learning open-loop while pinned.
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
        self.n_levels = n_levels
        self.flow_id = flow_id
        self.meter = RateMeter(clock_start=clock_start)
        self.trace: List[EpochRecord] = []
        self._epoch_index = 0
        self._override: Optional[int] = None

    @property
    def current_level(self) -> int:
        if self._override is not None:
            return self._override
        return self.scheme.current_level

    @property
    def level_override(self) -> Optional[int]:
        return self._override

    def set_level_override(self, level: Optional[int]) -> None:
        """Pin the applied level (clamped), or ``None`` to release.

        While pinned the scheme still observes every epoch, so its rate
        estimates and backoff state stay warm for release.
        """
        if level is None:
            self._override = None
        else:
            self._override = min(max(int(level), 0), self.n_levels - 1)

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
        level_after = (
            self._override if self._override is not None else decision.level_after
        )
        record = EpochRecord(
            epoch=self._epoch_index,
            start=sample.start,
            end=sample.end,
            app_bytes=sample.nbytes,
            app_rate=sample.rate,
            level_before=level_before,
            level_after=level_after,
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
