"""Exact checks of the polynomial vector-field layer.

Reference coefficient tables here are frozen from the worked normal-form
derivation for the string system (cubic generator, resonant cubic/quintic
fields, fourth-order frequency corrections); the engine must reproduce them
literally, coefficient by coefficient, with no tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnf.core import ComplexSeq, canonicalize
from stringnf.nf_engine import (
    ANTI,
    DIAG,
    NFResult,
    ParityError,
    NO_DIVISORS,
    QC,
    RationalVF,
    canonical_from_exponents,
    commutator,
    evaluate_vf,
    key_exponents,
    multiplicity,
    resonant_normal_form,
    solve_homological_z1,
    split_integrable,
    stiffness_taylor_coeff,
    taylor_vf,
    z1_field,
)

from stringnf.nf_engine import poly

from helpers import (
    EC,
    ZPoly,
    bracket_lie_transform,
    dict_product_key,
    oracle_commutator,
    stiffness_response_series,
    tuple_taylor_vf,
)


# ---------------------------------------------------------------------------
# reference fields, written straight from the derived coefficient tables

def chi3_reference(M: int) -> RationalVF:
    """Cubic generator: the solved first-stage homological equation."""
    terms = {}
    for a in range(1, M + 1):
        for b in range(1, M + 1):
            if b == a:
                continue
            terms[(a, ANTI, ((1, b),)) + NO_DIVISORS] = QC(Fraction(1, 8 * (b - a)))
            terms[(a, ANTI, ((-1, b),)) + NO_DIVISORS] = QC(Fraction(1, 8 * (b + a)))
        terms[(a, ANTI, ((-1, a),)) + NO_DIVISORS] = QC(Fraction(1, 16 * a))
    return RationalVF(terms)


def z3_reference(M: int) -> RationalVF:
    """Resonant cubic field: -(i/4) I_a on the diagonal."""
    return RationalVF({(a, DIAG, ((0, a),)) + NO_DIVISORS: QC(0, Fraction(-1, 4)) for a in range(1, M + 1)})


def z5_reference(N: int) -> RationalVF:
    """Integrable quintic: -i omega4_a z_a expanded over action pairs."""
    terms = {}
    for a in range(1, N + 1):
        terms[(a, DIAG, ((0, a), (0, a))) + NO_DIVISORS] = QC(0, Fraction(27, 64 * a))
        for d in range(1, N + 1):
            if d == a:
                continue
            c1 = Fraction(1, 8) * (Fraction(3, d) + Fraction(d, d * d - a * a))
            terms[(a, DIAG, canonicalize([(0, a), (0, d)])) + NO_DIVISORS] = QC(0, c1)
            c2 = Fraction(-a, 16 * (d * d - a * a))
            terms[(a, DIAG, ((0, d), (0, d))) + NO_DIVISORS] = QC(0, c2)
    return RationalVF(terms)


def k5_reference(N: int) -> RationalVF:
    """Resonant non-integrable quintic (momentum equal to the field mode).

    Coefficients are canonical-multiset totals: the two-sided sums over
    ordered index pairs fold the off-diagonal entries together, doubling them
    relative to the diagonal ones.
    """
    terms = {}
    for a in range(1, N + 1):
        for b1 in range(1, N + 1):
            b2 = a - b1
            if b2 < b1 or b2 > N:
                continue
            if b1 == b2:
                c = Fraction(3 * a, 32 * b1 * b1)
            else:
                c = Fraction(3 * a, 16 * b1 * b2)
            terms[(a, ANTI, ((1, b1), (1, b2))) + NO_DIVISORS] = QC(0, c)
        for b in range(1, N + 1):
            c = b - a
            if c < 1 or c > N:
                continue
            key = (a, ANTI, canonicalize([(1, b), (-1, c)])) + NO_DIVISORS
            terms[key] = QC(0, Fraction(3 * a, 16 * b * c))
    return RationalVF(terms)


def p3_reference(M: int) -> RationalVF:
    """Cubic interaction: -(i/4) (sum_b z_b^2 - zbar_b^2) zbar_a, canonicalized."""
    q = QC(0, Fraction(-1, 4))
    terms = {}
    for a in range(1, M + 1):
        for b in range(1, M + 1):
            if b == a:
                terms[(a, DIAG, ((0, a),)) + NO_DIVISORS] = q
                terms[(a, ANTI, ((-1, a),)) + NO_DIVISORS] = -q
            else:
                terms[(a, ANTI, ((1, b),)) + NO_DIVISORS] = q
                terms[(a, ANTI, ((-1, b),)) + NO_DIVISORS] = -q
    return RationalVF(terms)


def to_zpoly_components(vf: RationalVF, M: int) -> dict[int, ZPoly]:
    """z_a-components of a canonical field as dense exact polynomials."""
    out: dict[int, ZPoly] = {}
    for key, c in vf.terms.items():
        a = key[0]
        exp = key_exponents(key)
        al = [0] * M
        be = [0] * M
        for m, (x, y) in exp.items():
            al[m - 1] = x
            be[m - 1] = y
        # in place: adding a one-term ZPoly would copy the component per term
        out.setdefault(a, ZPoly(M))._add_term((tuple(al), tuple(be)), EC(c.re, c.im))
    return {a: p for a, p in out.items() if not p.is_zero()}


def from_zpoly_components(comps: dict[int, ZPoly]) -> RationalVF:
    acc: dict = {}
    for a, poly in comps.items():
        for (al, be), c in poly.terms.items():
            exps = {i + 1: (x, y) for i, (x, y) in enumerate(zip(al, be)) if x or y}
            key = canonical_from_exponents(a, exps) + NO_DIVISORS
            q = QC(c.re, c.im)
            prev = acc.get(key)
            acc[key] = q if prev is None else prev + q
    return RationalVF(acc)


# ---------------------------------------------------------------------------
# funnel

def test_funnel_examples():
    assert canonical_from_exponents(2, {3: (2, 0), 2: (0, 1)}) == (2, ANTI, ((1, 3),))
    assert canonical_from_exponents(2, {2: (1, 0), 3: (1, 1)}) == (2, DIAG, ((0, 3),))
    # zbar_a^3 folds onto the anti side with one conjugate-square entry
    assert canonical_from_exponents(1, {1: (0, 3)}) == (1, ANTI, ((-1, 1),))
    assert canonical_from_exponents(1, {1: (3, 0)}) == (1, DIAG, ((1, 1),))
    # mixed same-mode powers pair into actions first
    assert canonical_from_exponents(1, {1: (3, 2), 2: (2, 2)}) == (
        1,
        DIAG,
        ((0, 1), (0, 1), (0, 2), (0, 2)),
    )


def test_funnel_rejects_bad_parity():
    with pytest.raises(ParityError):
        canonical_from_exponents(1, {1: (2, 0)})
    with pytest.raises(ParityError):
        canonical_from_exponents(1, {1: (1, 0), 2: (1, 0)})
    with pytest.raises(ParityError):
        canonical_from_exponents(1, {1: (0, -1)})
    # a mode below 1 is not a Fourier mode
    with pytest.raises(ValueError, match="positive integer"):
        canonical_from_exponents(1, {1: (1, 0), 0: (2, 0)})


def normalize_key(a: int, kind: str, entries) -> tuple:
    """Send a draft term through the funnel to land on the canonical basis."""
    return canonical_from_exponents(a, key_exponents((a, kind, canonicalize(entries))))


@st.composite
def term_keys(draw):
    a = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([DIAG, ANTI]))
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 4)),
            max_size=3,
        )
    )
    return normalize_key(a, kind, entries)


@given(term_keys())
@settings(max_examples=200, deadline=None)
def test_funnel_roundtrip(key):
    assert canonical_from_exponents(key[0], key_exponents(key)) == key
    # the fold emits its entries already in canonical order
    assert key[2] == canonicalize(key[2])


def monomial_zpoly(exps, M: int) -> ZPoly:
    al = [0] * M
    be = [0] * M
    for m, (x, y) in exps.items():
        al[m - 1], be[m - 1] = x, y
    return ZPoly(M, {(tuple(al), tuple(be)): EC(1)})


# dict_product_key factors: derivatives d/dz_m and d/dzbar_m, the variables, and I_m
FACTORS = [(-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)]


@st.composite
def product_factors(draw, b: int):
    """A derivative or variable at ``b`` (which mends the parity of a product
    with a second ``d/dz_b`` term), actions, and now and then a stray factor
    that breaks the parity."""
    extra = [(b, draw(st.sampled_from(FACTORS[:4])))]
    extra += [(m, (1, 1)) for m in draw(st.lists(st.integers(1, 4), max_size=2))]
    if draw(st.integers(0, 3)) == 0:
        extra.append((draw(st.integers(1, 4)), draw(st.sampled_from(FACTORS))))
    return extra


@given(term_keys(), term_keys(), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_product_key_matches_dense_oracle(xkey, ykey, conj_y, data):
    M = 4
    extra = data.draw(product_factors(ykey[0]))
    a = xkey[0]
    x, y = key_exponents(xkey), key_exponents(ykey)
    prod = monomial_zpoly(x, M) * (monomial_zpoly(y, M).conj() if conj_y else monomial_zpoly(y, M))
    # multiply first, then differentiate: a negative factor lowers the
    # exponent of the whole product
    for m, (da, db) in extra:
        for bar, e in ((False, da), (True, db)):
            if e > 0:
                prod = prod * ZPoly.var(M, m, bar)
    for m, (da, db) in extra:
        for bar, e in ((False, da), (True, db)):
            if e < 0:
                prod = prod.diff(m, bar)
    factors = tuple((m, da, db) for m, (da, db) in extra)
    if prod.is_zero():  # a derivative of a variable that is absent
        with pytest.raises(ParityError):
            dict_product_key(a, x, y, conj_y, factors)
        return
    [(al, be)] = prod.terms
    exps = {m: (al[m - 1], be[m - 1]) for m in range(1, M + 1) if al[m - 1] or be[m - 1]}
    parity_ok = (al[a - 1] - be[a - 1]) % 2 == 1 and all(
        (al[m - 1] - be[m - 1]) % 2 == 0 for m in range(1, M + 1) if m != a
    )
    if not parity_ok:
        with pytest.raises(ParityError):
            dict_product_key(a, x, y, conj_y, factors)
        return
    key = dict_product_key(a, x, y, conj_y, factors)
    assert key == canonical_from_exponents(a, exps)
    assert {m: tuple(e) for m, e in key_exponents(key).items() if any(e)} == exps


def test_multiplicity_counts_orderings():
    assert multiplicity(()) == 1
    assert multiplicity(((1, 2), (1, 2))) == 1
    assert multiplicity(((1, 2), (-1, 2))) == 2
    assert multiplicity(((0, 1), (0, 1), (1, 3))) == 3
    assert multiplicity(((0, 1), (0, 2), (1, 3))) == 6


# ---------------------------------------------------------------------------
# the interaction fields

def test_stiffness_taylor_matches_series_oracle():
    series = stiffness_response_series(4)
    assert [stiffness_taylor_coeff(k) for k in range(4)] == series
    assert series == [Fraction(1), Fraction(-3), Fraction(21, 2), Fraction(-40)]


def test_cubic_interaction_field():
    assert taylor_vf(1, 4) == p3_reference(4)


def test_quintic_interaction_samples():
    vf = taylor_vf(2, 5)
    pref = Fraction(3, 16)
    # z_b^2 z_c^2 zbar_a picks up 1/b + 1/c from the two weighted factors
    key = (4, ANTI, ((1, 2), (1, 3))) + NO_DIVISORS
    assert vf.terms[key] == QC(0, pref * (Fraction(1, 2) + Fraction(1, 3)))
    assert vf.terms[(4, ANTI, ((1, 3), (1, 3))) + NO_DIVISORS] == QC(0, pref * Fraction(1, 3))
    # I_b z_c^2 comes only through the action part of the elastic factor
    key = (4, ANTI, ((0, 2), (1, 3))) + NO_DIVISORS
    assert vf.terms[key] == QC(0, pref * Fraction(2, 2))
    # opposite chirality flips the sign of the 1/b weight
    key = (4, ANTI, canonicalize([(1, 2), (-1, 3)])) + NO_DIVISORS
    assert vf.terms[key] == QC(0, pref * (Fraction(1, 3) - Fraction(1, 2)))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_interaction_fields_match_dense_expansion(l):
    """``taylor_vf(l, M)`` is ``pref * A^(l-1) B * zbar_a d/dz_a + conj``,
    expanded here densely, with the term order of the sorted-tuple build."""
    pref = EC(0, -stiffness_response_series(4)[l - 1] / (4**l * math.factorial(l - 1)))
    for M in range(1, 6):
        A, B = ZPoly(M), ZPoly(M)
        for b in range(1, M + 1):
            z, zbar = ZPoly.var(M, b), ZPoly.var(M, b, bar=True)
            A = A + (z * z + zbar * zbar + (z * zbar).scale(2)).scale(Fraction(1, b))
            B = B + z * z - zbar * zbar
        sym = B
        for _ in range(l - 1):
            sym = sym * A
        dense = {a: (sym * ZPoly.var(M, a, bar=True)).scale(pref) for a in range(1, M + 1)}
        vf = taylor_vf(l, M)
        assert to_zpoly_components(vf, M) == {a: p for a, p in dense.items() if not p.is_zero()}
        assert list(vf.terms.items()) == list(tuple_taylor_vf(l, M).terms.items())


def test_interaction_fields_are_built_once():
    # the normal form and nf-verify's identity checks share one field per
    # (l, M); the normal form's use of it leaves its terms as they were built
    first = taylor_vf(2, 4)
    built = list(first.terms.items())
    resonant_normal_form(2, 4)
    assert taylor_vf(2, 4) is first
    assert list(first.terms.items()) == built == list(taylor_vf.__wrapped__(2, 4).terms.items())


def test_interaction_parity_is_reversible():
    for l in (1, 2, 3):
        assert taylor_vf(l, 3).is_reversible_parity()


def test_interaction_evaluation_matches_formula():
    rng = random.Random(7)
    M = 4
    z = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for a in range(1, M + 1)}
    vals = evaluate_vf(taylor_vf(1, M), ComplexSeq(z, M))
    B = sum(z[b] ** 2 - z[b].conjugate() ** 2 for b in range(1, M + 1))
    for a in range(1, M + 1):
        expect = -0.25j * B * z[a].conjugate()
        assert abs(vals.get(a, 0j) - expect) < 1e-12


# ---------------------------------------------------------------------------
# commutator against the dense-polynomial oracle

def random_poly_vf(rng: random.Random, M: int = 3, nterms: int = 3, coeff=None) -> RationalVF:
    """Random canonical polynomial field; ``coeff(rng)`` draws each coefficient
    (by default small Gaussian integers)."""
    terms = {}
    for _ in range(nterms):
        a = rng.randint(1, M)
        kind = rng.choice([DIAG, ANTI])
        j = [
            (rng.choice([-1, 0, 1]), rng.randint(1, M))
            for _ in range(rng.randint(0, 2))
        ]
        key = normalize_key(a, kind, j) + NO_DIVISORS
        if coeff is None:
            terms[key] = QC(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        else:
            terms[key] = coeff(rng)
    return RationalVF({k: c for k, c in terms.items() if not c.is_zero()})


def test_commutator_matches_oracle_on_random_fields():
    rng = random.Random(20816)
    M = 3
    for _ in range(40):
        x = random_poly_vf(rng, M)
        y = random_poly_vf(rng, M)
        got = commutator(x, y)
        expect = from_zpoly_components(
            oracle_commutator(to_zpoly_components(x, M), to_zpoly_components(y, M), M)
        )
        assert got == expect


def mixed_parity_coeff(rng: random.Random) -> QC:
    """A real, imaginary or mixed coefficient whose parts have non-unit denominators."""

    def part() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    parity = rng.choice(["re", "im", "both"])
    return QC(part() if parity != "im" else 0, part() if parity != "re" else 0)


def test_commutator_matches_oracle_on_fractional_fields():
    # cross-denominator sums and gcd reductions, which integer coefficients never reach
    rng = random.Random(40917)
    M = 3
    for _ in range(40):
        x = random_poly_vf(rng, M, 4, mixed_parity_coeff)
        y = random_poly_vf(rng, M, 4, mixed_parity_coeff)
        got = commutator(x, y)
        expect = from_zpoly_components(
            oracle_commutator(to_zpoly_components(x, M), to_zpoly_components(y, M), M)
        )
        assert got == expect


def test_commutator_antisymmetry_and_bilinearity():
    rng = random.Random(5151)
    x = random_poly_vf(rng, 3)
    y = random_poly_vf(rng, 3)
    z = random_poly_vf(rng, 3)
    assert commutator(x, y) == commutator(y, x).scale(-1)
    assert commutator(x + z, y) == commutator(x, y) + commutator(z, y)


def test_commutator_parity_composition():
    # reversible bracket anti-reversible stays reversible
    rng = random.Random(99)
    for _ in range(20):
        x = random_poly_vf(rng, 3)
        chi = random_poly_vf(rng, 3)
        xr = RationalVF({k: QC(0, c.im) for k, c in x.terms.items()})
        cs = RationalVF({k: QC(c.re, 0) for k, c in chi.terms.items()})
        out = commutator(xr, cs)
        assert out.is_reversible_parity()


def test_commutator_coefficient_bound():
    # the ordered-coefficient bound 6 (l1 + l2 + 1) |X| |chi|
    rng = random.Random(404)
    for _ in range(20):
        x = random_poly_vf(rng, 3)
        chi = random_poly_vf(rng, 3)
        if x.is_zero() or chi.is_zero():
            continue
        l1 = max(len(j) for _, _, j, *_ in x.terms)
        l2 = max(len(j) for _, _, j, *_ in chi.terms)
        lhs = commutator(x, chi).linf_norm()
        assert lhs <= 6 * (l1 + l2 + 1) * x.linf_norm() * chi.linf_norm() + 1e-12


# ---------------------------------------------------------------------------
# the linear homological equation

def test_linear_stage_reproduces_reference_generator():
    M = 5
    chi, res = solve_homological_z1(taylor_vf(1, M))
    assert chi == chi3_reference(M)
    assert res == z3_reference(M)


def test_linear_stage_identity():
    # [Z1, chi] + P = Z holds literally for the solved generator
    M = 4
    p3 = taylor_vf(1, M)
    chi, res = solve_homological_z1(p3)
    assert commutator(z1_field(M), chi) + p3 == res


def test_linear_stage_identity_on_random_input():
    rng = random.Random(3344)
    M = 3
    for _ in range(20):
        k = random_poly_vf(rng, M)
        chi, res = solve_homological_z1(k)
        assert commutator(z1_field(M), chi) + k == res
        # the remainder keeps only momentum-resonant keys
        for a, kind, j, *_ in res.terms:
            d = sum(delta * m for delta, m in j)
            assert d == (0 if kind == DIAG else a)


def test_linear_solve_and_interaction_fields_are_canonical():
    # the solve and taylor_vf skip the normalizing constructor: it would give
    # the same terms in the same order
    def assert_canonical(f):
        assert list(RationalVF(dict(f.terms)).terms.items()) == list(f.terms.items())

    rng = random.Random(2121)
    for _ in range(40):
        k = random_poly_vf(rng, 4, 12, mixed_parity_coeff)
        chi, res = solve_homological_z1(k)
        assert not (chi.is_zero() or res.is_zero())
        # the drawn field, then an all-resonant one and an all-removable one
        for case in (k, res, chi):
            removed, kept = solve_homological_z1(case)
            assert_canonical(removed)
            assert_canonical(kept)
            assert removed.terms.keys() | kept.terms.keys() == case.terms.keys()
        assert solve_homological_z1(res)[0].is_zero() and solve_homological_z1(chi)[1].is_zero()
    for l in range(1, 5):
        for M in range(1, 7):
            assert_canonical(taylor_vf(l, M))


def test_generator_parity_and_norm():
    M = 6
    p3 = taylor_vf(1, M)
    chi, _ = solve_homological_z1(p3)
    assert chi.is_symmetric_parity()
    assert p3.is_reversible_parity()
    # the eigenvalue never drops below 2, so the generator is at most half as large
    assert chi.linf_norm() <= 0.5 * p3.linf_norm() + 1e-15
    assert p3.linf_norm() == 0.25


# ---------------------------------------------------------------------------
# the bracket structure against the resonant cubic field

def test_resonant_cubic_bracket_structure():
    """[Z3, chi] on a single resonant key: diagonal divisor plus coupling.

    The bracket of the action-diagonal cubic field with one anti term of
    momentum a must produce i Omega2 chi - (i/4) z_a DI_a[chi], with Omega2
    built from the quarter-action frequencies. Checked densely and exactly.
    """
    M = 3
    a, b1, b2 = 3, 1, 2  # b1 + b2 = a
    z3 = to_zpoly_components(z3_reference(M), M)
    coeff = EC(Fraction(5), Fraction(-2))
    chi_vf = RationalVF({(a, ANTI, ((1, b1), (1, b2))) + NO_DIVISORS: QC(Fraction(5), Fraction(-2))})
    chi = to_zpoly_components(chi_vf, M)
    got = oracle_commutator(z3, chi, M)

    def action(m):
        return ZPoly.var(M, m) * ZPoly.var(M, m, bar=True)

    # Omega2 = 2 * (omega_b1 + omega_b2 - omega_a), omega_m = I_m / 4
    omega2 = (action(b1) + action(b2) - action(a)).scale(Fraction(1, 2))
    mono = ZPoly.var(M, b1) * ZPoly.var(M, b1) * ZPoly.var(M, b2) * ZPoly.var(M, b2)
    chi_za = mono * ZPoly.var(M, a, bar=True).scale(coeff)
    di_a = ZPoly.var(M, a, bar=True) * chi_za + ZPoly.var(M, a) * chi_za.conj()
    expect_za = (omega2 * chi_za).scale(EC(0, 1)) - (ZPoly.var(M, a) * di_a).scale(
        EC(0, Fraction(1, 4))
    )
    assert got[a] == expect_za
    # no other z-component is touched beyond the coupling's absence elsewhere
    assert set(got) == {a}


# ---------------------------------------------------------------------------
# the full polynomial stage

@pytest.fixture(scope="module")
def nf_small() -> NFResult:
    return resonant_normal_form(2, 5)


def test_normal_form_cubic_output(nf_small):
    assert nf_small.z3 == z3_reference(5)
    assert nf_small.generators[1] == chi3_reference(5)


def test_normal_form_quintic_integrable(nf_small):
    assert nf_small.z5 == z5_reference(5)


def test_normal_form_quintic_resonant(nf_small):
    assert nf_small.k5 == k5_reference(5)


def test_normal_form_grading(nf_small):
    assert nf_small.min_skipped_degree is None or nf_small.min_skipped_degree >= 7
    assert nf_small.z1 == z1_field(5)
    # every retained field is reversible and momentum-resonant
    for vf in (nf_small.z3, nf_small.z5, nf_small.k5):
        assert vf.is_reversible_parity()
    for a, kind, j, *_ in nf_small.k5.terms:
        assert sum(delta * m for delta, m in j) == a and kind == ANTI


def test_normal_form_septic_stage():
    res = resonant_normal_form(3, 3)
    assert res.z3 == z3_reference(3)
    assert res.z5 == z5_reference(3)
    assert res.k5 == k5_reference(3)
    assert res.k7.is_reversible_parity()
    for a, kind, j, *_ in res.k7.terms:
        d = sum(delta * m for delta, m in j)
        assert d == (0 if kind == DIAG else a)
    assert res.min_skipped_degree is None or res.min_skipped_degree >= 9


@pytest.mark.parametrize("r, N", [(2, N) for N in range(1, 9)] + [(3, N) for N in range(1, 6)])
def test_normal_form_matches_bracket_only_transform(r, N):
    # taking [Z1, chi] from the homological equation gives every field and
    # generator the terms, coefficients and order that brackets alone give
    def oracle(fields, chi, chi_order, keep, _linear_bracket):
        return bracket_lie_transform(fields, chi, chi_order, keep)

    def parts(nf):
        fields = [nf.z1, nf.z3, nf.z5, nf.k5, nf.k7, *nf.generators.values()]
        return [list(f.terms.items()) for f in fields], list(nf.generators), nf.min_skipped_degree

    fast = resonant_normal_form(r, N)
    with mock.patch.object(poly, "_lie_transform", oracle):
        slow = resonant_normal_form(r, N)
    assert parts(fast) == parts(slow)


def test_normal_form_rejects_bad_order():
    with pytest.raises(ValueError):
        resonant_normal_form(4, 3)
    with pytest.raises(ValueError):
        resonant_normal_form(2, 0)


# ---------------------------------------------------------------------------
# splitting and norms

def test_split_integrable_partition(nf_small):
    total = nf_small.z5 + nf_small.k5
    z, k = split_integrable(total)
    assert z == nf_small.z5
    assert k == nf_small.k5
    for _, kind, j, *_ in z.terms:
        assert kind == DIAG and all(d == 0 for d, _ in j)


def test_truncate_and_select_order():
    vf = taylor_vf(2, 4)
    cut = vf.truncate(2)
    assert cut.max_mode() <= 2
    assert vf.select_order(2) == vf
    assert vf.select_order(1).is_zero()
