"""Tests for Algorithm 1 and the DecisionModel wrapper.

These tests pin down every branch of the paper's pseudo code plus the
prose semantics around it (inc maintenance, pdr shifting, backoff) and
our documented boundary policy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecisionModel, DecisionState, get_next_compression_level
from repro.core.decision import DEFAULT_ALPHA


def fresh_state(n=4, **kw):
    return DecisionState(n_levels=n, **kw)


class TestAlgorithmBranches:
    """Direct pin-down of Algorithm 1's three cases."""

    def test_case1_stable_within_backoff_keeps_level(self):
        state = fresh_state()
        state.bck.reward(0)  # threshold(0) = 2
        ncl = get_next_compression_level(100.0, 100.0, 0, state)
        assert ncl == 0  # c=1 < 2: no probe yet
        assert state.c == 1

    def test_case1_backoff_expired_probes_up_when_inc(self):
        state = fresh_state()
        state.inc = True
        ncl = get_next_compression_level(100.0, 100.0, 1, state)
        assert ncl == 2  # threshold is 2**0 = 1, c reaches 1 -> probe
        assert state.c == 0

    def test_case1_backoff_expired_probes_down_when_not_inc(self):
        state = fresh_state()
        state.inc = False
        ncl = get_next_compression_level(100.0, 100.0, 2, state)
        assert ncl == 1

    def test_case2_improvement_rewards_backoff(self):
        state = fresh_state()
        ncl = get_next_compression_level(200.0, 100.0, 1, state)
        assert ncl == 1  # level kept
        assert state.bck.exponent(1) == 1
        assert state.c == 0

    def test_case3_degradation_reverts_increase(self):
        state = fresh_state()
        state.inc = True
        ncl = get_next_compression_level(50.0, 100.0, 2, state)
        assert ncl == 1  # revert the increase
        assert state.bck.exponent(2) == 0
        assert state.c == 0

    def test_case3_degradation_reverts_decrease(self):
        state = fresh_state()
        state.inc = False
        ncl = get_next_compression_level(50.0, 100.0, 1, state)
        assert ncl == 2  # revert the decrease

    def test_case3_resets_backoff_of_degraded_level(self):
        state = fresh_state()
        for _ in range(3):
            state.bck.reward(1)
        get_next_compression_level(10.0, 100.0, 1, state)
        assert state.bck.exponent(1) == 0

    def test_alpha_deadband_boundaries(self):
        # |d| exactly == alpha * pdr counts as "no change" (<=).
        state = fresh_state()
        ncl = get_next_compression_level(120.0, 100.0, 1, state, alpha=0.2)
        assert ncl == 2  # probe fired (stable branch + expired backoff)
        state = fresh_state()
        ncl = get_next_compression_level(120.1, 100.0, 1, state, alpha=0.2)
        assert ncl == 1  # just outside: improvement branch, keep level

    def test_zero_pdr_improvement(self):
        state = fresh_state()
        ncl = get_next_compression_level(10.0, 0.0, 0, state)
        assert ncl == 0  # improvement: stay, reward
        assert state.bck.exponent(0) == 1

    def test_zero_rate_stable_at_zero(self):
        state = fresh_state()
        ncl = get_next_compression_level(0.0, 0.0, 0, state)
        assert ncl == 1  # |0| <= alpha*0, backoff expired -> probe


class TestDecisionModelWrapper:
    def test_initial_call_probes_immediately(self):
        m = DecisionModel(4)
        # pdr := cdr on first call -> stable branch -> probe up.
        assert m.observe(100.0) == 1
        assert m.state.inc is True

    def test_inc_updated_from_transition(self):
        m = DecisionModel(4)
        m.observe(100.0)  # 0 -> 1 probe, inc=True
        # Degradation at level 1 reverts to 0 and flips inc.
        assert m.observe(10.0) == 0
        assert m.state.inc is False

    def test_pdr_shifts_each_epoch(self):
        m = DecisionModel(4)
        m.observe(100.0)
        assert m.state.pdr == 100.0
        m.observe(150.0)
        assert m.state.pdr == 150.0

    def test_negative_rate_rejected(self):
        m = DecisionModel(4)
        with pytest.raises(ValueError):
            m.observe(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionModel(0)
        with pytest.raises(ValueError):
            DecisionModel(4, alpha=-0.1)
        with pytest.raises(ValueError):
            DecisionState(n_levels=4, ccl=7)


class TestBoundaryPolicy:
    def test_probe_at_top_reflects_down(self):
        m = DecisionModel(4, initial_level=3)
        m.state.inc = True
        lvl = m.observe(100.0)  # first call -> stable -> probe up -> reflect
        assert lvl == 2
        assert m.state.inc is False

    def test_probe_at_bottom_reflects_up(self):
        m = DecisionModel(4, initial_level=0)
        m.state.inc = False
        lvl = m.observe(100.0)
        assert lvl == 1
        assert m.state.inc is True

    def test_revert_clamped_at_bottom(self):
        m = DecisionModel(4, initial_level=0)
        m.state.inc = True
        m.state.pdr = 100.0
        lvl = m.observe(10.0)  # degradation, revert 0 -> -1 clamps to 0
        assert lvl == 0

    def test_revert_clamped_at_top(self):
        m = DecisionModel(4, initial_level=3)
        m.state.inc = False
        m.state.pdr = 100.0
        lvl = m.observe(10.0)  # revert 3 -> 4 clamps to 3
        assert lvl == 3

    def test_single_level_table_never_moves(self):
        m = DecisionModel(1)
        for rate in (100.0, 100.0, 10.0, 200.0, 100.0):
            assert m.observe(rate) == 0

    def test_two_level_table_oscillates_probes(self):
        m = DecisionModel(2)
        levels = [m.observe(100.0) for _ in range(6)]
        # Stable rate, backoff never grows: probe flips between levels.
        assert set(levels) <= {0, 1}
        assert 1 in levels and 0 in levels


class TestConvergenceScenarios:
    """End-to-end behaviour of the model against synthetic rate landscapes."""

    @staticmethod
    def run(model: DecisionModel, rates: dict[int, float], epochs: int) -> list[int]:
        seq = []
        lvl = model.current_level
        for _ in range(epochs):
            lvl = model.observe(rates[lvl])
            seq.append(lvl)
        return seq

    def test_converges_to_best_level(self):
        # Level 1 gives the best application rate (paper Fig. 4 shape).
        rates = {0: 90.0, 1: 200.0, 2: 147.0, 3: 27.0}
        m = DecisionModel(4)
        seq = self.run(m, rates, 100)
        # The dominant level in the long run must be 1.
        assert seq.count(1) > 80
        assert seq[-1] == 1

    def test_probing_becomes_exponentially_rarer(self):
        rates = {0: 90.0, 1: 200.0, 2: 147.0, 3: 27.0}
        m = DecisionModel(4)
        seq = self.run(m, rates, 200)
        departures = [i for i in range(1, len(seq)) if seq[i] != 1 and seq[i - 1] == 1]
        gaps = [b - a for a, b in zip(departures, departures[1:])]
        # Gaps between probes must grow (roughly double).
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] >= 4 * gaps[0]

    def test_wrong_decision_reverted_within_one_epoch(self):
        """'it can always react to degradations ... immediately (i.e.
        after t seconds) and revert the wrong decision' (Section III-A)."""
        rates = {0: 100.0, 1: 100.0, 2: 5.0, 3: 1.0}
        m = DecisionModel(4)
        seq = self.run(m, rates, 100)
        # Whenever level 2 was entered, the very next epoch must leave it.
        for i, lvl in enumerate(seq[:-1]):
            if lvl == 2:
                assert seq[i + 1] != 2

    def test_heavy_wins_when_bandwidth_tiny(self):
        # Very slow link: HEAVY's ratio advantage dominates.
        rates = {0: 1.0, 1: 5.0, 2: 6.0, 3: 10.0}
        m = DecisionModel(4)
        seq = self.run(m, rates, 120)
        assert seq.count(3) > 60
        assert seq[-1] == 3

    def test_no_compression_wins_on_incompressible_fast_link(self):
        rates = {0: 100.0, 1: 74.0, 2: 47.0, 3: 6.0}
        m = DecisionModel(4)
        seq = self.run(m, rates, 100)
        assert seq.count(0) > 60


class TestDecisionProperties:
    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        n_levels=st.integers(min_value=1, max_value=8),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_level_always_valid(self, rates, n_levels, alpha):
        m = DecisionModel(n_levels, alpha=alpha)
        for r in rates:
            lvl = m.observe(r)
            assert 0 <= lvl < n_levels

    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_level_moves_at_most_one_step(self, rates):
        m = DecisionModel(4)
        prev = m.current_level
        for r in rates:
            lvl = m.observe(r)
            assert abs(lvl - prev) <= 1
            prev = lvl

    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_backoff_exponents_nonnegative(self, rates):
        m = DecisionModel(4)
        for r in rates:
            m.observe(r)
            assert all(b >= 0 for b in m.state.bck.snapshot())

    @given(seed_rate=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_constant_rate_grows_no_backoff(self, seed_rate):
        """A perfectly flat rate keeps bck at zero: every epoch's probe
        departs and (on the probed level's first epoch) the dead band
        decides what happens next — but no 'improvement' is ever seen
        at the same level twice in a row with a flat landscape."""
        m = DecisionModel(4)
        for _ in range(50):
            m.observe(seed_rate)
        assert all(b == 0 for b in m.state.bck.snapshot())
