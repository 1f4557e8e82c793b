"""Record and replay observation traces through decision schemes.

Answers the operational question "what would scheme X have decided on
this workload?" without rerunning the workload: epoch observations from
a simulated or real transfer are serialized to JSON-lines, and any
:class:`~repro.schemes.base.CompressionScheme` can be replayed over
them offline.

Replay is *open-loop*: the recorded rates were achieved under the
original scheme's levels, so a replayed scheme sees the environment's
signals but does not get to change them.  That makes replay exact for
analyzing what a scheme *would have seen and chosen* at each recorded
step, and a quick first-order screen before a full (closed-loop)
simulation.

Trace format versions
---------------------

* **v1** — one :class:`EpochObservation` dict per line (the original
  seven fields).  Still loads: missing :class:`FlowView` fleet fields
  fill from their lone-flow defaults.
* **v2** (current) — one record per line with the full ``FlowView``
  under the observation keys, plus an optional ``"decision"``
  sub-object (the :class:`~repro.core.flowview.FlowDecision` the
  original scheme took at that step).  Recording decisions alongside
  views makes postmortem traces self-contained: a replay can be
  checked against what actually happened, not just against another
  replay.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.flowview import FlowDecision
from ..sim.transfer import TransferResult
from .base import CompressionScheme, EpochObservation

#: Format marker written as the first line of every trace file.
HEADER = {"format": "repro-observation-trace", "version": 2}

#: Trace versions :func:`load_trace` accepts.
SUPPORTED_VERSIONS = (1, 2)

_VIEW_FIELDS = frozenset(f.name for f in fields(EpochObservation))


class TraceFormatError(Exception):
    """Raised on malformed trace files."""


def observations_from_result(result: TransferResult) -> List[EpochObservation]:
    """Extract the observation sequence a scheme saw during a transfer."""
    return [
        EpochObservation(
            now=epoch.end,
            epoch_seconds=epoch.end - epoch.start,
            app_rate=epoch.app_rate,
            displayed_cpu_util=epoch.vm_cpu_util,
            displayed_bandwidth=epoch.displayed_bandwidth,
            level=epoch.level,
        )
        for epoch in result.epochs
    ]


def records_from_epochs(
    epochs: Iterable, flow_id: int = 0
) -> Tuple[List[EpochObservation], List[FlowDecision]]:
    """Convert a live controller's epoch trace into replayable records.

    Takes the :class:`~repro.core.controller.EpochRecord` sequence an
    :class:`~repro.core.controller.AdaptiveController` accumulated and
    returns the aligned ``(observations, decisions)`` pair that
    :func:`dump_trace` serializes as a v2 trace.  The serve daemon uses
    this to persist one trace file per flow at close.  Epoch records
    only hold what the controller measured — ``app_rate``, the paper's
    sole trusted signal — so the displayed VM metrics are zero in the
    resulting views.
    """
    observations: List[EpochObservation] = []
    decisions: List[FlowDecision] = []
    for rec in epochs:
        observations.append(
            EpochObservation(
                now=rec.end,
                epoch_seconds=rec.end - rec.start,
                app_rate=rec.app_rate,
                displayed_cpu_util=0.0,
                displayed_bandwidth=0.0,
                flow_id=flow_id,
                level=rec.level_before,
                app_bytes=float(rec.app_bytes),
            )
        )
        decisions.append(
            FlowDecision(
                flow_id=flow_id,
                epoch=rec.epoch,
                level_before=rec.level_before,
                level_after=rec.level_after,
            )
        )
    return observations, decisions


def dump_trace(
    observations: Iterable[EpochObservation],
    fp: IO[str],
    decisions: Optional[Sequence[FlowDecision]] = None,
) -> int:
    """Write observations (and optionally the decisions taken on them)
    as JSON-lines; returns the number of records written.

    When ``decisions`` is given it must align index-for-index with the
    observations; each record then carries a ``"decision"`` sub-object.
    """
    fp.write(json.dumps(HEADER) + "\n")
    count = 0
    for i, obs in enumerate(observations):
        record = asdict(obs)
        if decisions is not None:
            try:
                record["decision"] = asdict(decisions[i])
            except IndexError:
                raise TraceFormatError(
                    f"decision sequence shorter than observations (at index {i})"
                ) from None
        fp.write(json.dumps(record) + "\n")
        count += 1
    return count


def _parse_record(payload: dict) -> Tuple[EpochObservation, Optional[FlowDecision]]:
    decision_payload = payload.pop("decision", None)
    unknown = set(payload) - _VIEW_FIELDS
    if unknown:
        raise TypeError(f"unknown observation fields {sorted(unknown)}")
    obs = EpochObservation(**payload)
    decision = FlowDecision(**decision_payload) if decision_payload else None
    return obs, decision


def load_records(fp: IO[str]) -> Iterator[Tuple[EpochObservation, Optional[FlowDecision]]]:
    """Stream ``(observation, decision-or-None)`` pairs from a trace.

    Accepts both v1 traces (observations only; decision is ``None``)
    and v2 traces (which may carry recorded decisions).
    """
    header_line = fp.readline()
    if not header_line:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad header: {exc}") from exc
    if header.get("format") != HEADER["format"]:
        raise TraceFormatError(f"not an observation trace: {header!r}")
    if header.get("version") not in SUPPORTED_VERSIONS:
        raise TraceFormatError(f"unsupported trace version {header.get('version')}")
    for lineno, line in enumerate(fp, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            yield _parse_record(payload)
        except (json.JSONDecodeError, TypeError) as exc:
            raise TraceFormatError(f"bad record on line {lineno}: {exc}") from exc


def load_trace(fp: IO[str]) -> Iterator[EpochObservation]:
    """Stream observations back from a JSON-lines trace file (v1 or v2)."""
    for obs, _decision in load_records(fp):
        yield obs


def replay(
    observations: Sequence[EpochObservation] | Iterable[EpochObservation],
    scheme: CompressionScheme,
) -> List[int]:
    """Feed a trace through ``scheme``; return its level per epoch."""
    return [scheme.on_epoch(obs) for obs in observations]


def replay_many(
    observations: Sequence[EpochObservation],
    schemes: Sequence[CompressionScheme],
) -> dict[str, List[int]]:
    """Replay the same trace through several schemes (fresh decisions
    each; pass newly constructed scheme instances)."""
    observations = list(observations)
    return {scheme.name: replay(observations, scheme) for scheme in schemes}
