"""Gaussian action sampling and Monte Carlo divisor statistics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import FreqContext, big_omega, scalar_corrected_divisor, scalar_divisor_tail, scalar_nonresonance
from stringnf.core import WeightSpec, weighted_norm
from stringnf.divisors import NonResonanceParams, _tail_scores, certify, enumerate_irr_indices
from stringnf.measure import (
    DivisorTailEstimate,
    MeasureEstimate,
    MeasureSpec,
    SampleBatch,
    divisor_tail,
    estimate_measure,
    sample_actions,
    wilson_interval,
)

SOB1 = WeightSpec("sobolev", s=1.0)
SOB2 = WeightSpec("sobolev", s=2.0)


def through_origin_fit(x, y):
    """Least-squares slope through the origin and the fit's R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope = float(x @ y / (x @ x))
    res = y - slope * x
    tot = y - y.mean()
    return slope, 1.0 - float(res @ res) / float(tot @ tot)


class TestMeasureSpec:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="truncation"):
            MeasureSpec(SOB1, 0, 10, 1)
        with pytest.raises(ValueError, match="sample_count"):
            MeasureSpec(SOB1, 4, 0, 1)
        with pytest.raises(ValueError, match="seed"):
            MeasureSpec(SOB1, 4, 10, -3)
        with pytest.raises(ValueError, match="ball_radius"):
            MeasureSpec(SOB1, 4, 10, 1, ball_radius=0.0)


class TestSampler:
    def test_all_samples_inside_the_ball(self):
        spec = MeasureSpec(SOB2, truncation=6, sample_count=2000, seed=11)
        batch = sample_actions(spec)
        ballw = np.arange(1, 7, dtype=float) ** 2.0
        assert len(batch) == 2000
        assert np.all(batch.actions @ ballw <= spec.ball_radius)
        assert np.all(batch.actions > 0)
        assert np.all((0 <= batch.phases) & (batch.phases < 2 * math.pi))

    def test_gevrey_ball_uses_the_exponential_weight(self):
        w = WeightSpec("gevrey", rho=0.5, theta=0.5)
        spec = MeasureSpec(w, truncation=8, sample_count=500, seed=6)
        batch = sample_actions(spec)
        ballw = np.exp(2 * 0.5 * np.arange(1, 9, dtype=float) ** 0.5)
        assert np.all(batch.actions @ ballw <= 0.5)
        # rejection stays workable for this ensemble
        assert batch.acceptance_rate > 0.01

    def test_unconditioned_mean_of_first_action(self):
        # loose ball, so the exponential marginals are undistorted
        spec = MeasureSpec(SOB2, truncation=8, sample_count=100_000, seed=22, ball_radius=1e9)
        batch = sample_actions(spec)
        mean = batch.actions[:, 0].mean()
        assert abs(mean - 1.0) <= 3.0 / math.sqrt(len(batch))

    def test_weighted_actions_are_unit_exponentials(self):
        # Kolmogorov-Smirnov on m^(2s) I_m, per mode and pooled. The ball is
        # kept non-binding: conditioning on the default radius visibly skews
        # the low-mode marginals (D ~ 0.7 for mode 1), so the distributional
        # statement is about the raw draw.
        spec = MeasureSpec(SOB2, truncation=8, sample_count=100_000, seed=22, ball_radius=1e9)
        batch = sample_actions(spec)
        x = batch.actions * np.arange(1, 9, dtype=float) ** 4.0
        for m in (1, 4, 8):
            assert stats.kstest(x[:, m - 1], "expon").pvalue > 1e-3
        assert stats.kstest(x.ravel(), "expon").pvalue > 1e-3

    def test_determinism_and_prefix_property(self):
        small = sample_actions(MeasureSpec(SOB1, 4, 100, 5))
        again = sample_actions(MeasureSpec(SOB1, 4, 100, 5))
        big = sample_actions(MeasureSpec(SOB1, 4, 5000, 5))
        assert np.array_equal(small.actions, again.actions)
        assert np.array_equal(small.phases, again.phases)
        assert np.array_equal(small.actions, big.actions[:100])
        assert np.array_equal(small.phases, big.phases[:100])
        other = sample_actions(MeasureSpec(SOB1, 4, 100, 6))
        assert not np.array_equal(small.actions, other.actions)

    def test_state_reproduces_actions_and_scaling(self):
        spec = MeasureSpec(SOB1, truncation=5, sample_count=3, seed=9)
        batch = sample_actions(spec)
        z = batch.state(1, eps=0.25)
        for m in range(1, 6):
            assert z.action(m) == pytest.approx(0.0625 * batch.actions[1, m - 1], rel=1e-12)

    def test_hopeless_rejection_is_a_configuration_error(self):
        spec = MeasureSpec(SOB1, truncation=8, sample_count=100, seed=3, ball_radius=1e-9)
        with pytest.raises(ValueError, match="rejection rate"):
            sample_actions(spec)


class TestWilson:
    def test_known_values(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.40383, abs=1e-4)
        assert hi == pytest.approx(0.59617, abs=1e-4)

    def test_degenerate_counts_stay_in_range(self):
        lo, hi = wilson_interval(100, 100)
        assert 0.96 < lo < 1.0 and hi == 1.0
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.04

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    @given(n=st.integers(1, 10_000), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_interval_contains_the_point_estimate(self, n, frac):
        k = round(frac * n)
        lo, hi = wilson_interval(k, n)
        p = k / n
        assert 0.0 <= lo <= p + 1e-15
        assert p - 1e-15 <= hi <= 1.0


class TestEstimateMeasure:
    def test_fraction_one_when_thresholds_vanish(self):
        params = NonResonanceParams(2, 4, 1e-9, WeightSpec("sobolev", s=3.0))
        spec = MeasureSpec(WeightSpec("sobolev", s=3.0), 4, 300, 17)
        est = estimate_measure(params, spec, 1e-8)
        assert est.fraction == 1.0
        assert est.ci_low <= est.fraction <= est.ci_high

    def test_scale_hypothesis_warning(self):
        params = NonResonanceParams(2, 4, 0.1, SOB1)
        spec = MeasureSpec(SOB1, 4, 50, 2)
        with pytest.warns(UserWarning, match="does not apply at this scale"):
            estimate_measure(params, spec, 1.0)
        cap = math.sqrt(2 * 0.1 / (3 * 4**10))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_measure(params, spec, 0.5 * cap)

    def test_record_keys(self):
        params = NonResonanceParams(2, 2, 0.5, SOB1)
        spec = MeasureSpec(SOB1, 2, 100, 8)
        rec = estimate_measure(params, spec, 1e-4).record()
        assert set(rec) == {"gamma", "N", "r", "fraction", "ci_low", "ci_high", "samples", "seed"}
        assert rec["samples"] == 100 and rec["seed"] == 8 and rec["N"] == 2

    def test_determinism(self):
        params = NonResonanceParams(2, 2, 0.9, WeightSpec("sobolev", s=0.0))
        spec = MeasureSpec(WeightSpec("sobolev", s=0.0), 2, 2000, 21)
        a = estimate_measure(params, spec, 0.01)
        b = estimate_measure(params, spec, 0.01)
        assert a == b

    def test_fraction_counts_scalar_certificates(self, monkeypatch):
        # the batched count equals certifying each scaled sample with the
        # scalar oracle; truncation 3 puts a mode beyond the cutoff N = 2
        w = WeightSpec("sobolev", s=0.0)
        spec = MeasureSpec(w, truncation=3, sample_count=3000, seed=5)
        params = NonResonanceParams(2, 2, 0.9, w)
        with monkeypatch.context() as patch:
            # the estimate scores the samples as arrays and builds no state
            patch.setattr(SampleBatch, "state", _no_state)
            est = estimate_measure(params, spec, 0.01)
        batch = sample_actions(spec)
        hits = sum(scalar_nonresonance(batch.state(i, 0.01), params)[0] > 1.0 for i in range(len(batch)))
        assert 0 < hits < len(batch)
        assert est.fraction == hits / len(batch)

    def test_complement_grows_linearly_at_small_cutoff(self):
        # At cutoff 2 only two divisors exist, so the resonant complement is
        # large enough to measure: its fraction should scale roughly linearly
        # with gamma while staying monotone. eps is small enough to keep every
        # threshold in its gamma-linear branch.
        w = WeightSpec("sobolev", s=0.0)
        spec = MeasureSpec(w, truncation=2, sample_count=40_000, seed=21)
        fractions = []
        for g in (0.225, 0.45, 0.9):
            params = NonResonanceParams(2, 2, g, w)
            est = estimate_measure(params, spec, 0.01)
            assert est.ci_low <= est.fraction <= est.ci_high
            fractions.append(est.fraction)
        comp = [1.0 - f for f in fractions]
        assert 0 < comp[0] <= comp[1] <= comp[2] < 0.01
        assert 2.0 <= comp[2] / comp[0] <= 8.0


def _no_state(self, i, eps=1.0):
    raise AssertionError("a sampled state was built")


_ROW_WEIGHTS = st.one_of(
    st.builds(lambda s: WeightSpec("sobolev", s=s), st.sampled_from([0.0, 1.0, 3.0])),
    st.builds(
        lambda rho, theta: WeightSpec("gevrey", rho=rho, theta=theta),
        st.sampled_from([0.1, 0.5, 2.0]),
        st.sampled_from([0.5, 1.0]),
    ),
)


@given(
    weight=_ROW_WEIGHTS,
    M=st.integers(1, 9),
    offset=st.integers(-2, 2),
    log_eps=st.floats(-9.0, 150.0),
    seed=st.integers(0, 2**16),
    gamma=st.sampled_from([1e-3, 0.1, 0.9]),
)
@settings(max_examples=120, deadline=None)
def test_rows_match_states_bit_for_bit(weight, M, offset, log_eps, seed, gamma):
    # the cutoff N lies below, at or above the truncation M
    N = max(1, M + offset)
    eps = 10.0**log_eps
    batch = sample_actions(MeasureSpec(weight, M, 12, seed))
    states = [batch.state(i, eps) for i in range(len(batch))]
    I, norms = batch.rows(eps, N, weight)
    expected_I = np.array([[z.action(a) for a in range(1, N + 1)] for z in states])
    expected_norms = np.array([weighted_norm(z, weight) for z in states])
    assert np.array_equal(I.view(np.int64), expected_I.view(np.int64))
    assert np.array_equal(norms.view(np.int64), expected_norms.view(np.int64))
    params = NonResonanceParams(2, N, gamma, weight)
    assert batch.nonresonant(eps, params).tolist() == [rep.ok for rep in certify(states, params)]
    # overflowing actions are the same error on both paths, with no RuntimeWarning
    huge = [batch.state(i, 1e200) for i in range(len(batch))]
    with pytest.raises(ValueError, match="a state has an action that is not finite"):
        certify(huge, params)
    with pytest.raises(ValueError, match="a state has an action that is not finite"):
        batch.rows(1e200, N, weight)


def test_overflowing_norm_is_the_same_error_on_both_paths():
    # at this eps every action is finite, but the weighted norm of sample 2
    # is not; the batch path used to warn and score it as resonant
    weight = WeightSpec("sobolev", s=3.0)
    batch = sample_actions(MeasureSpec(weight, 8, 50, 1))
    params = NonResonanceParams(2, 8, 0.1, weight)
    eps = 5.6234132519034904e153
    with pytest.raises(ValueError, match="a state has a weighted norm that is not finite"):
        certify([batch.state(2, eps)], params)
    with pytest.raises(ValueError, match="a state has a weighted norm that is not finite"):
        batch.nonresonant(eps, params)


def corrected_rows(v, rows):
    """Leading and corrected divisors of irreducible ``v``, one per row of actions on modes 1..M."""
    leading, corrected, _, _ = _tail_scores(v, NonResonanceParams(2, 1, 0.1, SOB1), np.array(rows), 1.0)
    return leading, corrected


class TestCorrectedDivisor:
    """The corrected divisor as ``divisors._tail_scores`` gives it, one row per state."""

    def test_difference_from_leading_ignores_indexed_actions(self):
        j = ((1, 2), (1, 3))  # momentum 5: modes 2, 3, 5 are excluded
        row = [0.3, 0.11, 0.07, 0.05, 0.02, 0.013]
        bumped = [0.3, 1.7, 0.9, 0.05, 2.2, 0.013]
        leading, corrected = corrected_rows(j, [row, bumped])
        assert corrected[1] - leading[1] == pytest.approx(corrected[0] - leading[0], rel=1e-10)

    def test_difference_responds_to_other_actions(self):
        j = ((1, 2), (1, 3))
        row = [0.3, 0.11, 0.07, 0.05, 0.02, 0.013]
        bumped = [0.3, 0.11, 0.07, 0.5, 0.02, 0.013]
        leading, corrected = corrected_rows(j, [row, bumped])
        assert corrected[1] - leading[1] != pytest.approx(corrected[0] - leading[0], rel=1e-6)

    def test_matches_hand_sum(self):
        ctx = FreqContext({1: 0.4, 2: 0.25, 3: 0.09}, 3)
        j = ((1, 3), (1, 3))  # momentum 6 beyond the cutoff; mode 3 is excluded
        tails = {a: a / 16.0 * sum(ctx.I(d) ** 2 / (d * d - a * a) for d in (1, 2)) for a in (3, 6)}
        leading, corrected = corrected_rows(j, [[0.4, 0.25, 0.09]])
        assert leading[0] == big_omega(j, ctx, 2)
        assert corrected[0] == pytest.approx(big_omega(j, ctx, 2) + 2 * (2 * tails[3] - tails[6]), rel=1e-14)


class TestDivisorTail:
    def test_rejects_integrable_and_reducible_vectors(self):
        params = NonResonanceParams(2, 2, 0.1, SOB1)
        spec = MeasureSpec(SOB1, 4, 10, 1)
        with pytest.raises(ValueError, match="integrable"):
            divisor_tail(((1, 2), (-1, 2)), params, spec, 1.0)
        with pytest.raises(ValueError, match="reducible"):
            divisor_tail(((1, 4), (-1, 4), (1, 3), (1, 2)), params, spec, 1.0)
        with pytest.raises(ValueError, match="conjugate"):
            divisor_tail(((-1, 2),), params, spec, 1.0)

    @pytest.mark.parametrize("eps,cause", [
        # the scaled actions round to zero: every divisor and threshold is 0.0
        (1e-200, "eps = 1e-200 has a square that is zero or subnormal"),
        (1e200, "eps = 1e+200 has a square that is not finite"),
    ])
    def test_rejects_eps_whose_square_is_unusable(self, eps, cause):
        params = NonResonanceParams(2, 4, 0.1, SOB1)
        spec = MeasureSpec(SOB1, 4, 200, 1)
        with pytest.raises(ValueError, match=re.escape(cause)):
            divisor_tail(((1, 3), (1, 1), (-1, 2), (-1, 2)), params, spec, eps)

    def test_determinism_and_record(self):
        params = NonResonanceParams(2, 1, 0.2, SOB2)
        spec = MeasureSpec(SOB1, 5, 500, 20)
        a = divisor_tail(((1, 2), (1, 3)), params, spec, 1.0)
        b = divisor_tail(((1, 2), (1, 3)), params, spec, 1.0)
        assert a == b
        rec = a.record()
        assert rec["j"] == [[1, 2], [1, 3]]
        assert rec["samples"] == 500
        assert 0.0 <= rec["p_leading"] <= 1.0 and 0.0 <= rec["p_corrected"] <= 1.0

    def test_probability_monotone_and_linear_in_gamma(self):
        # Thresholds scale with gamma while the divisor distribution is fixed,
        # so the tail probability must grow monotonically, and in the small-
        # threshold regime like gamma itself (the sampled actions at mode 5
        # give the leading divisor a positive density at zero).
        j = ((1, 2), (1, 3))
        spec = MeasureSpec(SOB1, truncation=5, sample_count=60_000, seed=20)
        gammas = (0.05, 0.1, 0.2)
        ps = []
        for g in gammas:
            params = NonResonanceParams(2, 1, g, SOB2)
            est = divisor_tail(j, params, spec, 1.0)
            ps.append(est.p_leading)
            assert est.p_corrected >= est.p_leading  # larger threshold
        assert 0 < ps[0] <= ps[1] <= ps[2]
        slope, _ = through_origin_fit(gammas, ps)
        for g, p in zip(gammas, ps):
            assert 0.5 <= p / (slope * g) <= 2.0
        assert 1.5 <= ps[1] / ps[0] <= 2.7
        assert 1.5 <= ps[2] / ps[1] <= 2.7


# ---------------------------------------------------------------------------
# the batched divisor tail against the scalar loop

_TAIL_WEIGHTS = st.one_of(
    st.builds(lambda s: WeightSpec("sobolev", s=s), st.sampled_from([0.0, 1.0, 2.5])),
    st.builds(
        lambda rho, theta: WeightSpec("gevrey", rho=rho, theta=theta),
        st.sampled_from([0.1, 0.5, 1.0]),
        st.sampled_from([0.5, 1.0]),
    ),
)


@st.composite
def tail_cases(draw):
    """An irreducible vector, threshold parameters, an ensemble and an amplitude.

    The threshold cutoff ``N`` is at most 3 while the vector's modes and
    momentum reach two past the truncation, and every other case has zero
    momentum.
    """
    M = draw(st.integers(1, 6))
    vectors = enumerate_irr_indices(3, M + 2)
    if draw(st.booleans()):
        vectors = [j for j in vectors if sum(delta * a for delta, a in j) == 0]
    v = draw(st.sampled_from(vectors))
    params = NonResonanceParams(2, draw(st.integers(1, 3)), draw(st.sampled_from([0.05, 0.3, 0.9])),
                                draw(_TAIL_WEIGHTS))
    spec = MeasureSpec(draw(_TAIL_WEIGHTS), M, 200, draw(st.integers(0, 2**16)))
    eps = draw(st.floats(1e-3, 3.0))
    return v, params, spec, eps


@given(tail_cases())
@settings(max_examples=80, deadline=None)
def test_divisor_tail_matches_scalar_loop_bit_for_bit(case):
    v, params, spec, eps = case
    est = divisor_tail(v, params, spec, eps)
    hits2, hits4, thr_leading, thr_corrected = scalar_divisor_tail(v, params, spec, eps)
    n = spec.sample_count
    assert (est.p_leading, est.p_corrected) == (hits2 / n, hits4 / n)
    assert (est.threshold_leading, est.threshold_corrected) == (thr_leading, thr_corrected)
    # every row's divisors, not only the counts, equal the scalar ones
    actions = sample_actions(spec).actions
    leading, corrected, _, _ = _tail_scores(v, params, actions, eps)
    M = spec.truncation
    for i, row in enumerate(actions):
        ctx = FreqContext({m: eps * eps * row[m - 1] for m in range(1, M + 1)}, M)
        assert leading[i] == big_omega(v, ctx, 2)
        assert corrected[i] == scalar_corrected_divisor(v, ctx)
