"""Frequency corrections, irreducible vectors, and the non-resonance test."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnf.core import ComplexSeq, WeightSpec, canonicalize, delta_sum, weighted_norm
from stringnf.divisors import (
    NonResonanceParams,
    certify,
    divisor_evaluator,
    divisor_table,
    enumerate_irr_indices,
    irr,
    is_nonresonant,
    kappa,
    perturbation_stable,
)

import numpy as np
from helpers import FreqContext, big_omega, omega2, omega4, scalar_nonresonance


def make_ctx(actions, N):
    return FreqContext(actions, N)


def _omega4_exact(a, I, N):
    """The displayed ``omega4`` expression in exact rationals, actions ``I`` on modes 1..N."""
    Ia = I.get(a, Fraction(0))
    cross = sum(
        (Fraction(3, d) + Fraction(d, d * d - a * a)) * I.get(d, Fraction(0))
        for d in range(1, N + 1)
        if d != a
    )
    tail = sum(
        I.get(d, Fraction(0)) ** 2 / Fraction(d * d - a * a)
        for d in range(1, N + 1)
        if d != a
    )
    if a <= N:
        return -Fraction(27, 64 * a) * Ia * Ia - Fraction(1, 8) * Ia * cross + Fraction(a, 16) * tail
    return Fraction(a, 16) * tail


class TestFrequencies:
    def test_omega2_inside_cutoff(self):
        ctx = make_ctx({3: 0.4}, 5)
        assert omega2(3, ctx) == pytest.approx(0.1, abs=0)

    def test_omega2_outside_cutoff_and_zero_mode(self):
        ctx = make_ctx({3: 0.4}, 3)
        assert omega2(4, ctx) == 0.0
        assert omega2(0, ctx) == 0.0

    def test_omega4_self_term_only(self):
        # N=2 with only I_1 = 0.1: cross sums vanish, leaving -27/(64a) I_a^2.
        ctx = make_ctx({1: 0.1}, 2)
        assert omega4(1, ctx) == pytest.approx(-27.0 / 6400.0, rel=1e-15)

    def test_omega4_beyond_cutoff_tail(self):
        ctx = make_ctx({1: 0.2}, 1)
        assert omega4(2, ctx) == pytest.approx(-1.0 / 600.0, rel=1e-14)

    def test_omega4_full_formula_fraction_oracle(self):
        # Recompute the displayed expression with exact rationals.
        I = {1: Fraction(9, 100), 2: Fraction(1, 25), 3: Fraction(1, 50)}
        N = 3
        ctx = make_ctx({k: float(v) for k, v in I.items()}, N)
        for a in range(1, 6):
            want = _omega4_exact(a, I, N)
            assert omega4(a, ctx) == pytest.approx(float(want), rel=1e-13, abs=1e-18)

    def test_context_rejects_bad_actions(self):
        with pytest.raises(ValueError):
            make_ctx({1: -0.5}, 2)
        with pytest.raises(ValueError):
            make_ctx({3: 0.1}, 2)
        with pytest.raises(ValueError):
            make_ctx({0: 0.1}, 2)


class TestIrreducible:
    def test_worked_example(self):
        j = ((1, 5), (1, 2), (1, 3), (1, 4), (-1, 5), (-1, 8), (0, 7))
        assert irr(j, 1) == ((1, 2), (1, 3), (1, 4), (-1, 8))

    def test_full_cancellation(self):
        assert irr(((1, 3), (0, 2)), 3) == ()
        assert irr(((1, 2), (-1, 2), (0, 5)), 0) == ()

    def test_momentum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            irr(((1, 2), (1, 3)), 4)

    def test_partial_pair_cancellation(self):
        # Two (1,2) against one (-1,2): one survives.
        j = ((1, 2), (1, 2), (-1, 2))
        out = irr(j, 2)
        # The leftover (1,2) then matches the momentum and is removed too.
        assert out == ()

    def test_kappa_examples(self):
        assert kappa(((1, 2), (1, 3))) == 2
        assert kappa(((1, 7), (-1, 4))) == 3

    def test_kappa_zero_momentum_uses_min_mode(self):
        assert kappa(((1, 2), (1, 3), (-1, 5))) == 2

    def test_kappa_empty_rejected(self):
        with pytest.raises(ValueError):
            kappa(())

    def test_kappa_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            kappa(((-1, 3),))


class TestBigOmega:
    def test_leading_order_example(self):
        ctx = make_ctx({2: 0.4, 3: 0.2, 5: 0.1}, 5)
        val = big_omega(((1, 2), (1, 3)), ctx, order=2)
        assert val == pytest.approx(0.25, rel=1e-15)

    def test_negative_momentum_rejected(self):
        ctx = make_ctx({1: 0.1}, 2)
        with pytest.raises(ValueError):
            big_omega(((-1, 2), (-1, 1)), ctx, order=2)

    def test_integrable_vectors_vanish_exactly(self):
        ctx = make_ctx({1: 0.17, 2: 0.05, 3: 0.02}, 3)
        for j in [
            ((1, 2), (-1, 2)),
            ((1, 1), (-1, 1), (0, 3), (0, 3)),
            ((1, 3), (0, 2)),
            ((0, 1),),
        ]:
            assert big_omega(j, ctx, order=2) == 0.0
            assert big_omega(j, ctx, order=4) == 0.0

    def test_agrees_with_raw_sum(self):
        rng = np.random.default_rng(7)
        ctx = make_ctx({a: float(x) for a, x in enumerate(rng.uniform(0.01, 0.3, 6), start=1)}, 6)
        for _ in range(1000):
            l = int(rng.integers(1, 6))
            j = []
            for _ in range(l):
                j.append((int(rng.integers(-1, 2)), int(rng.integers(1, 10))))
            j = canonicalize(j)
            d = delta_sum(j)
            if d < 0:
                j = canonicalize([(-dl, a) for dl, a in j])
                d = -d
            for order in (2, 4):
                def w(a):
                    return omega2(a, ctx) if order == 2 else omega2(a, ctx) + omega4(a, ctx)

                raw = 2.0 * (sum(dl * w(a) for dl, a in j) - w(d))
                got = big_omega(j, ctx, order)
                assert got == pytest.approx(raw, abs=1e-15)
                # Reduction invariance, bitwise by construction.
                assert got == big_omega(irr(j, d), ctx, order)

    def test_conjugation_antisymmetry_at_zero_momentum(self):
        ctx = make_ctx({1: 0.11, 2: 0.07, 4: 0.3}, 4)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (int(x) for x in rng.integers(1, 7, 3))
            if a + b == c:
                continue
            j = canonicalize([(1, a), (1, b), (-1, a + b)])
            jc = canonicalize([(-d, m) for d, m in j])
            for order in (2, 4):
                assert big_omega(jc, ctx, order) == -big_omega(j, ctx, order)


class TestEnumeration:
    def test_small_case_brute_force(self):
        got = set(enumerate_irr_indices(2, 2))
        want = set()
        symbols = [(d, a) for a in (1, 2) for d in (-1, 1)]
        for i, s1 in enumerate(symbols):
            for s2 in symbols[i:]:
                combo = canonicalize([s1, s2])
                pos = {a for d, a in combo if d == 1}
                neg = {a for d, a in combo if d == -1}
                delta = sum(d * a for d, a in combo)
                if pos & neg or not (0 <= delta <= 2):
                    continue
                if delta > 0 and delta in pos:
                    continue
                want.add(combo)
        assert got == want
        assert len(got) == 2

    def test_count_r2_N8(self):
        assert len(enumerate_irr_indices(2, 8)) == 44

    def test_r2_N1_empty(self):
        assert enumerate_irr_indices(2, 1) == ()

    def test_all_outputs_are_irreducible_and_in_range(self):
        for j in enumerate_irr_indices(3, 5):
            assert 2 <= len(j) <= 3
            d = delta_sum(j)
            assert 0 <= d <= 5
            assert irr(j, d) == j
            assert all(delta != 0 for delta, _ in j)
            assert all(1 <= a <= 5 for _, a in j)

    def test_cached_identity(self):
        assert enumerate_irr_indices(2, 4) is enumerate_irr_indices(2, 4)

    def test_guard_rejects_huge_requests(self):
        # a refusal is not cached: every call checks again
        for _ in range(2):
            with pytest.raises(ValueError):
                enumerate_irr_indices(6, 40)


def random_seq(rng, M, scale=0.1):
    data = {}
    for a in range(1, M + 1):
        re, im = rng.normal(size=2)
        data[a] = scale * (re + 1j * im) / a**2
    return ComplexSeq(data, truncation=M)


class TestNonResonance:
    def params(self, gamma=1e-3, r=2, N=4, s=3.0):
        return NonResonanceParams(r=r, N=N, gamma=gamma, weight=WeightSpec("sobolev", s=s))

    def test_zero_state_resonant(self):
        rep = is_nonresonant(ComplexSeq({}, truncation=4), self.params())
        assert not rep.ok
        assert rep.reason == "zero norm"

    def test_empty_index_set_is_vacuously_ok(self):
        p = NonResonanceParams(r=2, N=1, gamma=0.5, weight=WeightSpec("sobolev", s=2.0))
        rep = is_nonresonant(ComplexSeq({1: 0.3 + 0j}, truncation=2), p)
        assert rep.ok
        assert rep.witness is None

    def test_margin_matches_brute_force(self):
        rng = np.random.default_rng(11)
        p = self.params()
        z = random_seq(rng, 6)
        rep = is_nonresonant(z, p)
        nz2 = weighted_norm(z, p.weight) ** 2
        ctx = FreqContext.from_seq(z, p.N)
        best = math.inf
        arg = None
        for j in enumerate_irr_indices(p.r, p.N):
            l = len(j)
            kf = float(kappa(j)) ** (-2 * p.weight.s)
            t2 = p.gamma * nz2 * p.N ** (-4 * l - 2) * kf
            t4 = p.gamma * nz2 * p.N ** (-4 * l - 2) * max(kf, p.gamma * nz2)
            for order, thr in ((2, t2), (4, t4)):
                ratio = abs(big_omega(j, ctx, order)) / thr
                if ratio < best:
                    best, arg = ratio, (j, order)
        assert rep.margin == pytest.approx(best, rel=1e-15)
        assert (rep.witness, rep.witness_order) == arg
        assert rep.ok == (best > 1.0)

    def test_gamma_monotone(self):
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(50):
            z = random_seq(rng, 6)
            strong = is_nonresonant(z, self.params(gamma=1e-2))
            weak = is_nonresonant(z, self.params(gamma=1e-4))
            if strong.ok:
                hits += 1
                assert weak.ok
            assert weak.margin >= strong.margin
        assert hits > 0

    def test_order2_subtest_scale_invariant(self):
        # Doubling z multiplies every action by exactly 4 and the weighted norm
        # squared by exactly 4, so order-2 ratios are bitwise unchanged.
        rng = np.random.default_rng(5)
        p = self.params()
        z = random_seq(rng, 6)
        z2 = z.scale(2.0)
        ctx1 = FreqContext.from_seq(z, p.N)
        ctx2 = FreqContext.from_seq(z2, p.N)
        n1 = weighted_norm(z, p.weight) ** 2
        n2 = weighted_norm(z2, p.weight) ** 2
        for j in enumerate_irr_indices(p.r, p.N):
            r1 = abs(big_omega(j, ctx1, 2)) / n1
            r2 = abs(big_omega(j, ctx2, 2)) / n2
            assert r1 == r2

    def test_gevrey_thresholds_used(self):
        rng = np.random.default_rng(31)
        w = WeightSpec("gevrey", rho=0.5, theta=0.5)
        p = NonResonanceParams(r=2, N=4, gamma=1e-3, weight=w)
        z = random_seq(rng, 6)
        rep = is_nonresonant(z, p)
        nz2 = weighted_norm(z, w) ** 2
        ctx = FreqContext.from_seq(z, p.N)
        best = math.inf
        for j in enumerate_irr_indices(2, 4):
            kf = math.exp(-2 * 0.5 * kappa(j) ** 0.5)
            t2 = p.gamma * nz2 * p.N ** (-4 * len(j) - 2) * kf
            t4 = p.gamma * nz2 * p.N ** (-4 * len(j) - 2) * max(kf, p.gamma * nz2)
            best = min(best, abs(big_omega(j, ctx, 2)) / t2, abs(big_omega(j, ctx, 4)) / t4)
        assert rep.margin == pytest.approx(best, rel=1e-15)


class TestPerturbation:
    def test_certified_for_admissible_pairs(self):
        # Cutoff kept small: the admissible action window shrinks like
        # N^(-4r-3) and must stay well above float resolution of the actions.
        rng = np.random.default_rng(77)
        p = NonResonanceParams(r=2, N=2, gamma=1e-2, weight=WeightSpec("sobolev", s=3.0))
        checked = 0
        for _ in range(1000):
            z = random_seq(rng, 6)
            base = is_nonresonant(z, p)
            if not base.ok:
                continue
            nz = weighted_norm(z, p.weight)
            cap = p.gamma**2 * nz * nz / (288.0 * 3 * p.N ** 11)
            data = dict(z.data)
            for a in list(data):
                if a > p.N:
                    continue
                w2 = p.weight.weight_sq(a)
                bump = 0.4 * cap / w2 * rng.uniform(-1, 1)
                Ia = abs(data[a]) ** 2
                if Ia + bump <= 0:
                    continue
                data[a] = data[a] * math.sqrt((Ia + bump) / Ia)
            zp = ComplexSeq(data, truncation=z.truncation)
            rep = perturbation_stable(z, zp, p)
            assert rep.norm_hypothesis and rep.action_hypothesis
            assert rep.action_gap <= rep.action_cap
            assert rep.perturbed.ok, "admissible perturbation left the non-resonant set"
            assert rep.certified
            checked += 1
        assert checked > 100

    def test_hypotheses_reported_false_when_violated(self):
        p = NonResonanceParams(r=2, N=2, gamma=0.5, weight=WeightSpec("sobolev", s=1.0))
        z = ComplexSeq({1: 0.1 + 0j}, truncation=2)
        far = ComplexSeq({1: 1.0 + 0j}, truncation=2)
        rep = perturbation_stable(z, far, p)
        assert not rep.norm_hypothesis or not rep.action_hypothesis


@given(
    st.lists(
        st.tuples(st.sampled_from([-1, 0, 1]), st.integers(min_value=1, max_value=8)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=200, deadline=None)
def test_big_omega_defined_or_domain_error(entries):
    ctx = FreqContext({1: 0.2, 2: 0.1, 3: 0.05}, 3)
    d = sum(delta * a for delta, a in entries)
    if d < 0:
        with pytest.raises(ValueError):
            big_omega(entries, ctx, 2)
    else:
        val = big_omega(entries, ctx, 2)
        assert math.isfinite(val)


# ---------------------------------------------------------------------------
# the divisor evaluator against the scalar oracle

@st.composite
def evaluator_cases(draw):
    """Actions on modes 1..N, some zero and some absent, and irreducible vectors reaching past N."""
    N = draw(st.integers(1, 6))
    s = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))
    actions = {}
    for a in range(1, N + 1):
        kind = draw(st.sampled_from(["absent", "zero", "amplitude"]))
        if kind == "zero":
            actions[a] = 0.0
        elif kind == "amplitude":
            amplitude = 10.0 ** draw(st.floats(-9.0, 0.0)) * float(a) ** -s
            actions[a] = amplitude * amplitude
    entries = st.tuples(st.sampled_from([-1, 1]), st.integers(1, N + 3))
    vectors = []
    for raw in draw(st.lists(st.lists(entries, min_size=1, max_size=5), min_size=1, max_size=8)):
        v = canonicalize(raw)
        if delta_sum(v) < 0:
            v = canonicalize([(-delta, a) for delta, a in v])
        vectors.append(irr(v, delta_sum(v)))
    return actions, N, vectors


def _exact_divisor(v, I, N, order):
    def w(a):
        if a == 0:
            return Fraction(0)
        w2 = I.get(a, Fraction(0)) / 4 if a <= N else Fraction(0)
        return w2 if order == 2 else w2 + _omega4_exact(a, I, N)

    return 2 * (sum(delta * w(a) for delta, a in v) - w(delta_sum(v)))


@given(evaluator_cases())
@settings(max_examples=200, deadline=None)
def test_divisor_evaluator_matches_scalar_oracle(case):
    actions, N, vectors = case
    divisor = divisor_evaluator(actions, N)
    ctx = FreqContext(actions, N)
    exact = divisor_evaluator({a: Fraction(x) for a, x in actions.items()}, N, Fraction(1))
    I = {a: Fraction(x) for a, x in actions.items() if x}
    for v in vectors:
        for order in (2, 4):
            assert divisor(v, order) == big_omega(v, ctx, order)
            assert exact(v, order) == _exact_divisor(v, I, N, order)


# ---------------------------------------------------------------------------
# the batched divisor table against the scalar oracle

_WEIGHTS = st.one_of(
    st.builds(lambda s: WeightSpec("sobolev", s=s), st.sampled_from([0.0, 1.0, 2.5, 3.0])),
    st.builds(
        lambda rho, theta: WeightSpec("gevrey", rho=rho, theta=theta),
        st.sampled_from([0.1, 0.5, 1.0]),
        st.sampled_from([0.5, 1.0]),
    ),
)
_VALUES = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def certification_cases(draw):
    """Parameters and a few states, some with zero modes and modes beyond ``N``."""
    N = draw(st.integers(1, 8))
    params = NonResonanceParams(
        r=draw(st.sampled_from([2, 3])),
        N=N,
        gamma=draw(st.sampled_from([1e-4, 0.02, 0.1, 0.5, 0.9])),
        weight=draw(_WEIGHTS),
    )
    M = N + draw(st.integers(0, 3))
    states = []
    for _ in range(draw(st.integers(1, 5))):
        scale = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.1, 1.0]))
        values = draw(st.lists(_VALUES, min_size=M, max_size=M))
        states.append(ComplexSeq({a: scale * v for a, v in enumerate(values, start=1)}, M))
    return params, states


@given(certification_cases())
@settings(max_examples=120, deadline=None)
def test_table_matches_scalar_oracle_bit_for_bit(case):
    params, states = case
    together = certify(states, params)
    for z, rep in zip(states, together):
        assert (rep.margin, rep.witness, rep.witness_order) == scalar_nonresonance(z, params)
        assert rep.ok == (rep.margin > 1.0)
        # scoring a row inside a batch equals scoring it alone
        assert certify([z], params) == [rep]
        assert is_nonresonant(z, params) == rep


class TestDivisorTable:
    W = WeightSpec("sobolev", s=3.0)

    def test_cached_per_parameters_and_sized_by_enumeration(self):
        table = divisor_table(2, 8, self.W)
        assert table is divisor_table(2, 8, WeightSpec("sobolev", s=3.0))
        assert len(table) == len(enumerate_irr_indices(2, 8)) == 44
        assert divisor_table(2, 8, WeightSpec("sobolev", s=2.0)) is not table

    def test_witness_divisor_over_threshold_is_the_margin(self):
        rng = np.random.default_rng(19)
        p = NonResonanceParams(r=3, N=5, gamma=0.05, weight=self.W)
        for _ in range(20):
            z = random_seq(rng, 7)
            rep = is_nonresonant(z, p)
            assert rep.divisor / rep.threshold == rep.margin
            ctx = FreqContext.from_seq(z, p.N)
            assert rep.divisor == abs(big_omega(rep.witness, ctx, rep.witness_order))

    def test_zero_norm_rows_and_empty_tables(self):
        table = divisor_table(2, 4, self.W)
        I = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, 0.02, 0.0, 0.003]])
        m = table.margins(I, np.array([0.0, 0.5]), 0.1)
        assert m.margin[0] == 0.0 and m.witness[0] == -1 and m.order[0] == 0
        assert math.isnan(m.divisor[0]) and math.isnan(m.threshold[0])
        assert m.witness[1] >= 0 and m.order[1] in (2, 4)
        empty = divisor_table(2, 1, self.W)
        m = empty.margins(np.array([[0.3]]), np.array([0.09]), 0.1)
        assert m.margin[0] == math.inf and m.witness[0] == -1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            divisor_table(2, 4, self.W).margins(np.zeros((2, 3)), np.ones(2), 0.1)

    def test_blocks_of_rows_agree_with_one_block(self, monkeypatch):
        import stringnf.divisors as divisors

        rng = np.random.default_rng(4)
        table = divisor_table(3, 6, self.W)
        I = rng.uniform(0.0, 1e-3, size=(9, 6))
        nz2 = rng.uniform(1e-4, 1e-2, size=9)
        whole = table.margins(I, nz2, 0.1)
        monkeypatch.setattr(divisors, "_BLOCK_FLOATS", 1)
        rowwise = table.margins(I, nz2, 0.1)
        for a, b in zip(whole, rowwise):
            assert np.array_equal(a, b)
