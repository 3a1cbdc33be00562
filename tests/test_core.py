import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnf.core import (
    ComplexSeq,
    WeightSpec,
    canonicalize,
    delta_sum,
    mu_min,
    weighted_norm,
)

from helpers import zeta_product, zeta_value


def seq(data, M=8):
    return ComplexSeq(data, M)


class TestWeightedNorm:
    def test_sobolev_single_mode(self):
        w = WeightSpec(kind="sobolev", s=1.0)
        assert weighted_norm(seq({2: 1.0}), w) == pytest.approx(2.0, abs=0)

    def test_gevrey_single_mode(self):
        w = WeightSpec(kind="gevrey", rho=0.5, theta=1.0)
        assert weighted_norm(seq({1: 1.0}), w) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_empty_sequence(self):
        w = WeightSpec(kind="sobolev", s=2.0)
        assert weighted_norm(seq({}), w) == 0.0

    def test_gevrey_tiny_rho_matches_l2(self):
        # rho -> 0 degenerates to the plain l2 norm
        w = WeightSpec(kind="gevrey", rho=1e-12, theta=0.5)
        z = seq({1: 1 + 2j, 3: -0.5j, 7: 0.25})
        plain = math.sqrt(sum(abs(v) ** 2 for v in z.data.values()))
        assert weighted_norm(z, w) == pytest.approx(plain, rel=1e-9)

    @given(
        c=st.complex_numbers(min_magnitude=0, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        ents=st.dictionaries(
            st.integers(min_value=1, max_value=8),
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            max_size=5,
        ),
    )
    @settings(max_examples=200)
    def test_homogeneity(self, c, ents):
        w = WeightSpec(kind="sobolev", s=1.5)
        z = seq(ents)
        lhs = weighted_norm(z.scale(c), w)
        rhs = abs(c) * weighted_norm(z, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec(kind="sobolev", s=-1.0)
        with pytest.raises(ValueError):
            WeightSpec(kind="gevrey", rho=0.0)
        with pytest.raises(ValueError):
            WeightSpec(kind="gevrey", rho=1.0, theta=1.5)
        with pytest.raises(ValueError):
            WeightSpec(kind="banach")

    @pytest.mark.parametrize("w", [
        WeightSpec(kind="gevrey", rho=2.0),
        WeightSpec(kind="gevrey", rho=0.5, theta=0.5),
        WeightSpec(kind="sobolev", s=40.0),
    ])
    def test_mode_range_check_matches_the_float_range(self, w):
        # the last mode check_modes accepts has a finite w(M)^2 M^2, the next
        # one's overflows, and the weight agrees with its log on the way
        M = 1
        while True:
            assert math.log(w.weight(M)) == pytest.approx(w.log_weight(M), rel=1e-12, abs=1e-300)
            try:
                w.check_modes(M + 1)
            except ValueError as err:
                assert f"overflows at mode {M + 1}" in str(err)
                break
            M += 1
        assert math.isfinite(w.weight_sq(M) * M * M)
        assert math.isinf(w.weight_sq(M + 1) * (M + 1) ** 2)


class TestComplexSeq:
    def test_absent_modes_are_zero(self):
        z = seq({2: 1j})
        assert z[5] == 0j
        assert z[2] == 1j

    def test_zero_entries_dropped(self):
        z = seq({2: 0.0, 3: 1.0})
        assert sorted(z.data) == [3]

    def test_truncation_enforced(self):
        with pytest.raises(ValueError):
            ComplexSeq({9: 1.0}, 8)
        with pytest.raises(ValueError):
            ComplexSeq({0: 1.0}, 8)

    def test_non_finite_values_rejected(self):
        for bad in (math.nan, math.inf, complex(0.0, -math.inf), complex(1.0, math.nan)):
            with pytest.raises(ValueError, match="not finite"):
                ComplexSeq({1: bad}, 2)

    def test_actions(self):
        z = seq({2: 1 + 1j})
        assert z.action(2) == pytest.approx(2.0)
        assert z.action(1) == 0.0


class TestZeta:
    def test_examples(self):
        z = seq({3: 1 + 1j})
        assert zeta_value((1, 3), z) == pytest.approx(2j)
        assert zeta_value((0, 3), z) == pytest.approx(2.0)
        assert zeta_value((-1, 3), z) == pytest.approx(-2j)

    def test_product_empty_is_one(self):
        assert zeta_product((), seq({1: 1.0})) == 1.0

    @given(
        ents=st.dictionaries(
            st.integers(min_value=1, max_value=6),
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
        delta=st.sampled_from([-1, 0, 1]),
        a=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200)
    def test_conjugation_symmetry(self, ents, delta, a):
        z = seq(ents, 6)
        lhs = zeta_value((-delta, a), z)
        rhs = zeta_value((delta, a), z).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestIndexVectors:
    def test_canonical_order(self):
        got = canonicalize(((1, 3), (0, 1), (-1, 3)))
        assert got == ((0, 1), (-1, 3), (1, 3))

    def test_idempotent(self):
        v = canonicalize(((1, 2), (0, 2), (-1, 1), (1, 2)))
        assert canonicalize(v) == v

    @given(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.integers(min_value=1, max_value=9)),
            max_size=6,
        ),
        st.randoms(),
    )
    @settings(max_examples=200)
    def test_permutation_invariant(self, entries, rnd):
        shuffled = list(entries)
        rnd.shuffle(shuffled)
        assert canonicalize(entries) == canonicalize(shuffled)

    def test_delta_sum_and_modes(self):
        v = ((1, 5), (-1, 2), (0, 7))
        assert delta_sum(v) == 3
        assert mu_min(v) == 2

    def test_mu_min_empty_raises(self):
        with pytest.raises(ValueError):
            mu_min(())

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(((2, 3),))
        with pytest.raises(ValueError):
            canonicalize(((1, 0),))
