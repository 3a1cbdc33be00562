"""Gaussian action sampling and Monte Carlo divisor statistics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import scalar_nonresonance
from stringnf.core import WeightSpec, weighted_norm
from stringnf.divisors import NonResonanceParams, certify, divisor_table
from stringnf.measure import (
    MeasureEstimate,
    MeasureSpec,
    SampleBatch,
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


@pytest.mark.parametrize("eps,cause", [
    # -1.0 used to be scored as +1.0, and nan refused as a subnormal square
    (-1.0, "eps must be finite and > 0"),
    (0.0, "eps must be finite and > 0"),
    (math.nan, "eps must be finite and > 0"),
    (math.inf, "eps must be finite and > 0"),
    (1e-200, "eps = 1e-200 has a square that is zero or subnormal"),
    # a large finite eps reaches the overflow report, which drift-sweep gives for eps=[1e200]
    (1e200, "a state has an action that is not finite"),
])
def test_rows_refuses_unusable_eps(eps, cause):
    batch = sample_actions(MeasureSpec(SOB1, 4, 12, 1))
    with pytest.raises(ValueError, match=re.escape(cause)):
        batch.rows(eps, 4, SOB1)
    with pytest.raises(ValueError, match=re.escape(cause)):
        batch.nonresonant(eps, NonResonanceParams(2, 4, 0.1, SOB1))


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


def test_per_divisor_counts_follow_the_gamma_law():
    # Each threshold of the certificate is linear in gamma |z|_w^2 while the
    # divisors' distribution is fixed, so the count of rows under each
    # order-2 threshold grows like gamma itself (the sampled actions at mode 5
    # give the leading divisors a positive density at zero). The order-4
    # thresholds take max(kf, gamma |z|_w^2), and the rows with margin <= 1
    # are the union over every column; both counts rise with gamma.
    table = divisor_table(2, 2, SOB2)
    batch = sample_actions(MeasureSpec(SOB1, truncation=5, sample_count=60_000, seed=20))
    I, norms = batch.rows(1.0, 2, SOB2)
    w2, w4 = table._frequencies(I)
    gammas = (0.05, 0.1, 0.2)
    counts = []
    margins = []
    for g in gammas:
        div, thr = table._scores(w2, w4, g * norms * norms)
        counts.append(np.count_nonzero(div / thr <= 1.0, axis=0).reshape(len(table), 2))
        margins.append(np.count_nonzero(table.margins(I, norms * norms, g).margin <= 1.0))
        assert counts[-1].max() <= margins[-1]
    counts = np.array(counts)  # [gamma, vector, order]
    # the two vectors at (2, 2) are negatives of each other
    assert len(table) == 2 and (counts[:, 0] == counts[:, 1]).all()
    for order2, order4 in counts.transpose(1, 2, 0):
        assert 0 < order2[0]
        assert 1.5 <= order2[1] / order2[0] <= 2.7
        assert 1.5 <= order2[2] / order2[1] <= 2.7
        slope, r2 = through_origin_fit(gammas, order2)
        assert r2 >= 0.99
        for g, p in zip(gammas, order2):
            assert 0.5 <= p / (slope * g) <= 2.0
        assert order4[0] < order4[1] < order4[2]
    assert margins[0] < margins[1] < margins[2]
