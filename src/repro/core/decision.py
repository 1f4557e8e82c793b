"""Algorithm 1 of the paper: the rate-based compression-level decision.

The model "dynamically adapts the compression level as a response to
changes in the application data rate, i.e. the data rate that is
experienced by the application before compressing the data"
(Section III).  It deliberately ignores CPU utilization and displayed
I/O bandwidth, which Section II shows to be unreliable inside virtual
machines, and it needs no training phase.

:func:`get_next_compression_level` is a line-for-line transcription of
the paper's Algorithm 1 operating on an explicit :class:`DecisionState`.
:class:`DecisionModel` wraps it with the state updates the paper
describes in prose — maintaining ``inc`` "outside of the displayed
algorithm depending on the input parameter ccl and the return value
ncl", shifting ``pdr``, and handling the level-range boundaries the
paper leaves unspecified (we *reflect* probes at the edges; reverts are
clamped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .backoff import BackoffTable

#: Paper defaults (Section IV-A): re-decide every 2 seconds, treat rate
#: changes within ±20 % as fluctuation.
DEFAULT_ALPHA = 0.2
DEFAULT_EPOCH_SECONDS = 2.0


@dataclass
class DecisionState:
    """Mutable state shared across invocations of Algorithm 1.

    Mirrors Table I of the paper:

    ``ccl``   current compression level (initially 0 — no compression)
    ``c``     epochs since the last level change (initially 0)
    ``inc``   whether the previous level change was an increase
              (initially TRUE)
    ``bck``   per-level exponential backoff exponents (initially 0)
    ``pdr``   previous epoch's application data rate (set to ``cdr`` on
              the first call)
    """

    n_levels: int
    ccl: int = 0
    c: int = 0
    inc: bool = True
    bck: BackoffTable = field(default=None)  # type: ignore[assignment]
    pdr: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ValueError("need at least one compression level")
        if not 0 <= self.ccl < self.n_levels:
            raise ValueError(f"ccl {self.ccl} out of range 0..{self.n_levels - 1}")
        if self.bck is None:
            self.bck = BackoffTable(self.n_levels)


def get_next_compression_level(
    cdr: float,
    pdr: float,
    ccl: int,
    state: DecisionState,
    alpha: float = DEFAULT_ALPHA,
) -> int:
    """Algorithm 1: ``GetNextCompressionLevel(cdr, pdr, ccl)``.

    Parameters
    ----------
    cdr:
        Application data rate over the last epoch (at level ``ccl``).
    pdr:
        Application data rate over the epoch before that.
    ccl:
        Currently applied compression level.
    state:
        Carries ``c``, ``inc`` and ``bck`` across calls; mutated in
        place exactly as the paper's pseudo code mutates its variables.
    alpha:
        Dead-band width: ``|cdr - pdr| <= alpha * pdr`` counts as "no
        change" (line 4).

    Returns
    -------
    int
        The *unclamped* next compression level ``ncl``.  May be -1 or
        ``n_levels``; :class:`DecisionModel` applies the boundary
        policy.
    """
    d = cdr - pdr  # line 1
    state.c += 1  # line 2
    ncl = ccl  # line 3
    if abs(d) <= alpha * pdr:  # line 4: no change in application data rate
        if state.c >= state.bck.threshold(ccl):  # line 6: backoff over
            if state.inc:  # lines 7-11: optimistic probe
                ncl += 1
            else:
                ncl -= 1
            state.c = 0  # line 12
    elif d > 0:  # line 15: application data rate has improved
        state.bck.reward(ccl)  # line 16
        state.c = 0  # line 17
    else:  # line 19: application data rate has decreased
        state.bck.punish(ccl)  # line 20
        if state.inc:  # lines 21-25: revert the last change
            ncl -= 1
        else:
            ncl += 1
        state.c = 0  # line 26
    return ncl  # line 28


class DecisionModel:
    """The full decision process: Algorithm 1 plus its surrounding updates.

    Drive it by calling :meth:`observe` once per epoch with the measured
    application data rate; it returns the level to apply for the next
    epoch.

    Boundary policy (not specified by the paper):

    * An optimistic *probe* past either end of the level range is
      reflected — the probe direction flips and the step is taken the
      other way when possible.  This keeps the "occasionally try a
      neighbour" behaviour alive at the edges instead of wedging.
    * A *revert* (reaction to a degradation) past an end is clamped to
      the end.
    """

    def __init__(
        self,
        n_levels: int,
        alpha: float = DEFAULT_ALPHA,
        initial_level: int = 0,
    ) -> None:
        if n_levels < 1:
            raise ValueError("need at least one compression level")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self.state = DecisionState(n_levels=n_levels, ccl=initial_level)

    @property
    def n_levels(self) -> int:
        return self.state.n_levels

    @property
    def current_level(self) -> int:
        return self.state.ccl

    def _apply_boundaries(self, ncl: int, ccl: int, was_probe: bool) -> int:
        n = self.n_levels
        if 0 <= ncl < n:
            return ncl
        if was_probe:
            # Reflect: probe the other direction instead.
            reflected = ccl - (ncl - ccl)
            if 0 <= reflected < n and reflected != ccl:
                return reflected
            return ccl
        return min(max(ncl, 0), n - 1)

    def observe(self, cdr: float) -> int:
        """Feed one epoch's application data rate; get the next level.

        On the first call ``pdr`` is initialised to ``cdr`` (Table I),
        which lands in the "no change" branch and immediately probes
        level 1 — matching the optimistic start-up the paper's Figure 4
        shows.
        """
        if cdr < 0:
            raise ValueError("data rate must be >= 0")
        state = self.state
        if state.pdr is None:
            state.pdr = cdr
        pdr = state.pdr
        ccl = state.ccl

        raw_ncl = get_next_compression_level(cdr, pdr, ccl, state, self.alpha)
        # A probe is the only path that moves the level while |d| is in
        # the dead band; detect it from the branch taken.
        was_probe = abs(cdr - pdr) <= self.alpha * pdr and raw_ncl != ccl
        ncl = self._apply_boundaries(raw_ncl, ccl, was_probe)

        # "Note that inc is usually updated outside of the displayed
        # algorithm depending on the input parameter ccl and the return
        # value ncl." (Section III-A)
        if ncl > ccl:
            state.inc = True
        elif ncl < ccl:
            state.inc = False
        if ncl == ccl and raw_ncl != ccl and was_probe:
            # Reflection collapsed to staying put (single-level table or
            # both neighbours out of range): flip the direction so the
            # next probe tries the other side.
            state.inc = not state.inc

        state.ccl = ncl
        state.pdr = cdr
        return ncl
