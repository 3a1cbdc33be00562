"""Checks of the divisor-carrying vector-field layer.

The commutator here is verified against a finite-difference directional
derivative of the evaluated fields (Richardson-extrapolated central
differences), against exact-arithmetic evaluation, against forward
differentiation in dual numbers mod a prime, which ignores term order, and
through formal algebra identities that must hold key by key.  The
frequency-derivative tables behind the divisor chain rule are pinned to
numeric gradients of the independent frequency-combination implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stringnf.core import ComplexSeq, canonicalize, delta_sum
from helpers import (
    FreqContext,
    big_omega,
    di_functional,
    closed_form_omega4_hessian,
    dual_action_transport,
    dual_commutator,
    evaluate_exact,
    mod_prime,
    product_key_commutator,
    scalar_validate_class,
    value_bits,
)
from stringnf.divisors import divisor_evaluator, irr, kappa
from stringnf.nf_engine import (
    ANTI,
    DIAG,
    NO_DIVISORS,
    DivisorRefusal,
    QC,
    RationalVF,
    canonical_from_exponents,
    commutator,
    conj_index_vector,
    divisor_zero_form,
    evaluate_mod_p,
    evaluate_vf,
    is_rational_normal_form,
    key_exponents,
    key_order,
    omega4_hessian,
    quintic_rational_solve,
    resonant_normal_form,
    septic_stage_input,
    solve_homological_z3z5,
    validate_class,
    z1_field,
)
from stringnf.nf_engine import rational
from stringnf.nf_engine.rational import _linear_derivative, _quadratic_derivative, action_transport

N = 4


# ---------------------------------------------------------------------------
# fixture fields (handcrafted, canonical, class-valid at cutoff 4)

def _stored(vec):
    w, sign = divisor_zero_form(vec)
    assert w is not None
    return w, sign


def field_h2() -> RationalVF:
    """One anti term over a single quadratic-frequency divisor."""
    w, s = _stored(((1, 1), (1, 2)))
    key = (3, ANTI, ((1, 1), (1, 2)), (w,), (), ())
    return RationalVF({key: QC(0, Fraction(3 * s, 16))})


def field_h4() -> RationalVF:
    """One diag term over a single corrected-frequency divisor."""
    w, s = _stored(((1, 1), (1, 3), (-1, 4)))
    j = canonicalize(((1, 4), (-1, 1), (-1, 3)))
    key = (2, DIAG, j, (), (w,), ())
    return RationalVF({key: QC(0, Fraction(s, 12))})


def field_kk() -> RationalVF:
    """One diag term over a double-weight corrected divisor."""
    w, s = _stored(((1, 2), (1, 2), (-1, 4)))
    j = canonicalize(((1, 1), (1, 1), (-1, 2), (0, 3)))
    key = (1, DIAG, j, (), (), (w,))
    return RationalVF({key: QC(0, Fraction(-s, 10))})


def probe_poly() -> RationalVF:
    """Small polynomial field with nonzero action derivatives."""
    return RationalVF(
        {
            (1, DIAG, ((0, 2),)) + NO_DIVISORS: QC(Fraction(1, 3)),
            (2, ANTI, ((1, 1), (1, 1))) + NO_DIVISORS: QC(0, Fraction(1, 5)),
            (3, DIAG, ((0, 1), (0, 3))) + NO_DIVISORS: QC(0, Fraction(-1, 7)),
        }
    )


def probe_single() -> RationalVF:
    return RationalVF({(1, DIAG, ((0, 2),)) + NO_DIVISORS: QC(Fraction(1, 3))})


def random_state(rng: random.Random, scale: float = 0.5) -> ComplexSeq:
    data = {}
    for a in range(1, N + 1):
        re = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        im = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        data[a] = complex(re, im) * scale / a
    return ComplexSeq(data, N)


# ---------------------------------------------------------------------------
# storage form of divisors

def _omega_any(vec, ctx, order):
    # combination value of an arbitrary-momentum vector
    if delta_sum(vec) < 0:
        return -big_omega(conj_index_vector(vec), ctx, order)
    return big_omega(vec, ctx, order)


def test_zero_form_properties():
    rng = random.Random(7001)
    ctxs = [
        FreqContext({1: 0.04, 2: 0.07, 3: 0.05, 4: 0.03}, N),
        FreqContext({1: 0.11, 2: 0.02, 3: 0.08, 4: 0.06}, N),
    ]
    for _ in range(300):
        vec = canonicalize(
            [
                (rng.choice((-1, 0, 1)), rng.randint(1, N))
                for _ in range(rng.randint(1, 5))
            ]
        )
        w, sign = divisor_zero_form(vec)
        if w is None:
            assert sign == 0
            for ctx in ctxs:
                assert _omega_any(vec, ctx, 2) == 0.0
            continue
        assert sign in (-1, 1)
        assert delta_sum(w) == 0
        assert irr(w, 0) == w
        assert not conj_index_vector(w) < w
        # same stored form regardless of starting representative
        w2, s2 = divisor_zero_form(w)
        assert (w2, s2) == (w, 1)
        for ctx in ctxs:
            for order in (2, 4):
                have = sign * big_omega(w, ctx, order)
                want = _omega_any(vec, ctx, order)
                assert have == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_zero_form_unifies_routes():
    # a momentum-a vector and its explicitly balanced zero-momentum variant
    # must land on the same stored divisor
    direct, s1 = divisor_zero_form(((1, 1), (1, 2)))
    balanced, s2 = divisor_zero_form(canonicalize(((1, 1), (1, 2), (-1, 3))))
    assert direct == balanced
    assert s1 == s2


# ---------------------------------------------------------------------------
# embedding and formal algebra

def test_divisor_free_bracket_matches_poly():
    x = probe_poly()
    y = RationalVF(
        {
            (2, DIAG, ((0, 1),)) + NO_DIVISORS: QC(0, Fraction(1, 2)),
            (4, ANTI, ((1, 1), (1, 3))) + NO_DIVISORS: QC(0, Fraction(2, 9)),
        }
    )
    direct = commutator(x, y)
    lifted = commutator(x, y, N)
    assert direct == lifted


def test_bracket_needs_cutoff_for_corrected_divisors():
    # the Hessian sums of the corrected frequencies run to the cutoff; a
    # quadratic-frequency divisor needs no cutoff. A rotation on the left
    # takes the closed form, which refuses the same fields
    rot = z1_field(N)
    for f in (field_h4(), field_kk()):
        for x, y in ((f, probe_poly()), (probe_poly(), f), (rot, f), (f, rot)):
            with pytest.raises(ValueError, match="cutoff"):
                commutator(x, y)
    assert commutator(field_h2(), probe_poly()) == commutator(field_h2(), probe_poly(), N)
    assert commutator(rot, field_h2()) == commutator(rot, field_h2(), N)


def test_bracket_with_zero_and_self():
    f = field_h4()
    zero = RationalVF()
    assert commutator(f, zero, N).is_zero()
    assert commutator(zero, f, N).is_zero()
    assert commutator(f, f, N).is_zero()


def test_bracket_antisymmetry_formal():
    x, y = field_h2(), field_h4()
    lhs = commutator(x, y, N)
    rhs = commutator(y, x, N).scale(QC(-1))
    assert lhs == rhs


def test_bracket_bilinearity_formal():
    x = field_h2()
    y1, y2 = field_h4(), field_kk()
    joint = commutator(x, y1 + y2, N)
    split = commutator(x, y1, N) + commutator(x, y2, N)
    assert joint == split


# ---------------------------------------------------------------------------
# the packed bracket against the per-product fold

def _entries(N: int, min_size: int, max_size: int):
    entry = st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, N))
    return st.lists(entry, min_size=min_size, max_size=max_size)


# small and large coprime denominators, large primes among them, so that the
# bracket's common denominator is large and its one reduction per term matters
_DENOMINATORS = st.one_of(
    st.integers(1, 6), st.sampled_from([999907, 999953, 999983]), st.integers(1, 10**6)
)
_NUMERATORS = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(10**6), 10**6))


_PARTS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)


def _sections(N: int, divisors: bool):
    """Up to two divisors in storage form on modes 1..N when ``divisors`` is set, else none."""
    if not divisors:
        return st.just(())
    stored = _entries(N, 2, 3).map(lambda v: divisor_zero_form(tuple(v))[0])
    return st.lists(stored, max_size=2).map(lambda ws: tuple(w for w in ws if w and max(m for _, m in w) <= N))


def bracket_fields(N: int, divisors: bool):
    """A few canonical terms on modes 1..N, each section holding up to two
    divisors in storage form on those modes when ``divisors`` is set. Real and
    imaginary parts have small or large denominators, and either may be zero."""
    sections = _sections(N, divisors)
    keys = st.tuples(st.integers(1, N), st.sampled_from([DIAG, ANTI]), _entries(N, 0, 3).map(canonicalize),
                     sections, sections, sections)
    return st.lists(st.tuples(keys, st.builds(QC, _PARTS, _PARTS)), max_size=4).map(lambda t: RationalVF(dict(t)))


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_packed_bracket_matches_per_product_fold(data, divisors):
    n = data.draw(st.integers(1, 5))
    x = data.draw(bracket_fields(n, divisors))
    y = data.draw(bracket_fields(n, divisors))
    fast, oracle = commutator(x, y, n), product_key_commutator(x, y, n)
    # equal values in the same term order
    assert list(fast.terms.items()) == list(oracle.terms.items())
    if not divisors:
        assert list(commutator(x, y).terms.items()) == list(oracle.terms.items())


def test_packed_bracket_matches_per_product_fold_on_the_septic_solve():
    n = 3
    nf = resonant_normal_form(3, n)
    chi = solve_homological_z3z5(septic_stage_input(nf), n)[0]
    # chi carries h2 and kk divisors; differentiating a kk divisor adds an h4 one
    assert any(key[3] for key in chi.terms) and any(key[5] for key in chi.terms)
    head = RationalVF(dict(list(chi.terms.items())[:30]))
    for x, y in ((nf.z3 + nf.z5, chi), (chi, nf.z3), (head, head.scale(QC(0, 1)) + nf.z5)):
        fast, oracle = commutator(x, y, n), product_key_commutator(x, y, n)
        assert list(fast.terms.items()) == list(oracle.terms.items())
    assert any(key[4] for key in fast.terms)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bracket_routes_cancel_exactly(data):
    # [cY, Y] = 0 for a real c: each product of DX[Y] meets its negative in
    # DY[X], and each divisor-part route meets its partner, key by key
    n = data.draw(st.integers(1, 5))
    x = data.draw(bracket_fields(n, True))
    y = data.draw(bracket_fields(n, True))
    cy = y.scale(Fraction(data.draw(st.integers(1, 10**6)), data.draw(_DENOMINATORS)))
    assert commutator(cy, y, n).is_zero()
    assert commutator(y, cy, n).is_zero()
    # the cancelled keys drop out and the others keep the oracle's order
    fast = commutator(x + cy, y, n)
    assert list(fast.terms.items()) == list(product_key_commutator(x + cy, y, n).terms.items())
    assert fast == commutator(x, y, n)
    # subtraction entry by entry, in the order of adding the negative
    assert list((x - y).terms.items()) == list((x + y.scale(QC(-1))).terms.items())
    assert (y - y).is_zero()


@st.composite
def rotations(draw, n: int) -> RationalVF:
    """``z1_field(M)`` for M in n - 1..n + 1, or ``sum_a i mu_a z_a d/dz_a + conj``
    on distinct modes in any order, with integer or rational rates."""
    if draw(st.booleans()):
        return z1_field(n + draw(st.integers(-1, 1)))
    modes = draw(st.lists(st.integers(1, n + 1), unique=True, max_size=n + 1))
    rate = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-(10**6), 10**6), _DENOMINATORS))
    return RationalVF({(a, DIAG, ()) + NO_DIVISORS: QC(0, draw(rate)) for a in modes})


def on_basis(y: RationalVF) -> RationalVF:
    """``y`` with every numerator key folded onto the monomial basis, in first-seen order."""
    terms = {}
    for key, c in y.terms.items():
        key = canonical_from_exponents(key[0], key_exponents(key)) + key[3:]
        terms[key] = terms[key] + c if key in terms else c
    return RationalVF(terms)


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_rotation_bracket_matches_per_product_fold(data, divisors):
    # the closed form gives the general bracket's values in its term order
    n = data.draw(st.integers(1, 5))
    rot = data.draw(rotations(n))
    y = data.draw(bracket_fields(n, divisors))
    rates = rational._rotation_rates(rot)
    assert rates is not None
    for field in (y, on_basis(y)):
        oracle = list(product_key_commutator(rot, field, n).terms.items())
        assert list(commutator(rot, field, n).terms.items()) == oracle
        if not divisors:
            assert list(commutator(rot, field).terms.items()) == oracle
    # a field on the basis never reaches the general bracket; one off it
    # (a diag key with zbar_a^2, or z_m^2 zbar_m^2) always does
    with mock.patch.object(rational, "_directional", side_effect=AssertionError("general bracket")):
        commutator(rot, on_basis(y), n)
    assert (rational._rotation_bracket(*rates, y, n) is None) == (on_basis(y).terms.keys() != y.terms.keys())


def test_rotation_bracket_matches_per_product_fold_on_the_normal_forms():
    # z1 against the generators it solved for, and a wider and a narrower z1
    # against the septic solve's divisor-carrying generator
    nf = resonant_normal_form(3, 3)
    chi = solve_homological_z3z5(septic_stage_input(nf), 3)[0]
    pairs = [(z1_field(3), g) for g in nf.generators.values()]
    pairs += [(z1_field(M), chi) for M in (2, 3, 5)]
    # a signature group keeps the place of its first term, here one whose
    # eigenvalue is zero, ahead of a later group's
    kk = ((-1, 1), (-1, 1), (1, 2))
    pairs.append((z1_field(2), RationalVF({
        (1, DIAG, ((0, 1),)) + NO_DIVISORS: QC(0, 1),
        (1, ANTI, (), (), (), (kk,)): QC(0, 1),
        (1, ANTI, ()) + NO_DIVISORS: QC(0, 1),
    })))
    for rot, y in pairs:
        fast, oracle = commutator(rot, y, 3), product_key_commutator(rot, y, 3)
        assert list(fast.terms.items()) == list(oracle.terms.items())
    # a real coefficient, or an action factor, is no rotation
    for rot in (z1_field(3).scale(QC(1, 1)), z1_field(3) + RationalVF({(1, DIAG, ((0, 2),)) + NO_DIVISORS: QC(0, 1)})):
        assert rational._rotation_rates(rot) is None


def _nonzero(values: dict) -> dict:
    return {a: v for a, v in values.items() if v}


@given(st.data(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_bracket_and_transport_match_dual_numbers(data, divisors):
    # order-blind: the package's fields evaluated mod PRIME at a seeded point
    # against forward differentiation of their inputs there
    n = data.draw(st.integers(1, 5))
    x = data.draw(st.one_of(bracket_fields(n, divisors), rotations(n)))
    y = data.draw(bracket_fields(n, divisors))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    z, zbar = ({m: rng.randrange(rational.PRIME) for m in range(1, n + 3)} for _ in range(2))
    for a, b in ((x, y), (y, x)):
        want = _nonzero(dual_commutator(a, b, z, zbar, n))
        assert _nonzero(evaluate_mod_p(commutator(a, b, n), z, zbar, n)) == want
    coupling = st.tuples(st.integers(1, n), st.integers(1, n + 1), st.integers(0, n), st.builds(QC, _PARTS, _PARTS))
    couplings = data.draw(st.lists(coupling, max_size=4))
    want = _nonzero(dual_action_transport(y, couplings, z, zbar, n))
    assert _nonzero(evaluate_mod_p(action_transport(y, couplings), z, zbar, n)) == want


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fields_built_without_normalizing_are_canonical(data):
    n = data.draw(st.integers(1, 5))
    x = data.draw(bracket_fields(n, True))
    y = data.draw(bracket_fields(n, True))
    rot = data.draw(rotations(n))
    factor = QC(data.draw(st.builds(Fraction, _NUMERATORS, _DENOMINATORS)),
                data.draw(st.builds(Fraction, _NUMERATORS, _DENOMINATORS)))
    total = x + y
    for f in (commutator(x, y, n), commutator(rot, on_basis(y), n), y.scale(factor),
              action_transport(y, [(a, a, 0, QC(0, 1)) for a in dict.fromkeys(key[0] for key in y.terms)]),
              total, x - y, total - y, y + y.scale(factor), y + y.scale(QC(-1))):
        # what the normalizing constructor would make of the terms, in the same order
        assert list(RationalVF(dict(f.terms)).terms.items()) == list(f.terms.items())
    assert y.scale(QC()).is_zero()
    # a sum or difference has the terms and order of the normalizing constructor
    # on the merged terms, cancelled coefficients included
    for a, b, sign in ((x, y, 1), (x, y, -1), (total, y, -1), (y, y.scale(QC(-1)), 1), (y, y, -1)):
        merged = dict(a.terms)
        for key, c in b.terms.items():
            c = c if sign > 0 else -c
            merged[key] = merged[key] + c if key in merged else c
        got = a + b if sign > 0 else a - b
        assert list(got.terms.items()) == list(RationalVF(merged).terms.items())
    # every key of y cancels, at the point it is met
    assert total - y == x
    assert (y - y).is_zero() and (y + y.scale(QC(-1))).is_zero()


def test_fields_are_packed_once():
    x, y = field_h2(), probe_poly()
    first = commutator(x, y)
    with mock.patch.object(rational, "_pack", side_effect=AssertionError("packed again")):
        again = commutator(x, y)
        assert list(again.terms.items()) == list(first.terms.items())
        assert commutator(y, x) == first.scale(QC(-1))


def test_packed_exponent_range_is_checked():
    y = RationalVF({(1, ANTI, ((1, 2),)) + NO_DIVISORS: QC(1)})
    # 63 is the largest exponent a packed field takes in
    at_bound = RationalVF({(2, DIAG, ((0, 1),) * 63) + NO_DIVISORS: QC(1)})
    fast, oracle = commutator(at_bound, y), product_key_commutator(at_bound, y)
    assert not fast.is_zero()
    assert list(fast.terms.items()) == list(oracle.terms.items())
    over = RationalVF({(2, DIAG, ((0, 1),) * 64) + NO_DIVISORS: QC(1)})
    for args in ((over, y), (y, over)):
        with pytest.raises(ValueError, match="packed range"):
            commutator(*args)


# ---------------------------------------------------------------------------
# the finite-difference oracle

def _shifted(z: ComplexSeq, direction, t: float) -> ComplexSeq:
    data = dict(z.data)
    for a, v in direction.items():
        data[a] = data.get(a, 0j) + t * v
    return ComplexSeq(data, z.truncation)


def _directional(field, z, direction, h):
    hi = evaluate_vf(field, _shifted(z, direction, +h))
    lo = evaluate_vf(field, _shifted(z, direction, -h))
    return {a: (hi.get(a, 0j) - lo.get(a, 0j)) / (2 * h) for a in set(hi) | set(lo)}


def _richardson(field, z, direction, h):
    d1 = _directional(field, z, direction, h)
    d2 = _directional(field, z, direction, h / 2)
    d4 = _directional(field, z, direction, h / 4)
    out = {}
    for a in set(d1) | set(d2) | set(d4):
        r1 = (4 * d2.get(a, 0j) - d1.get(a, 0j)) / 3
        r2 = (4 * d4.get(a, 0j) - d2.get(a, 0j)) / 3
        out[a] = (16 * r2 - r1) / 15
    return out


def fd_bracket(x, y, z, h=2e-3):
    """Directional-derivative approximation of [x, y] at a state."""
    yz = evaluate_vf(y, z)
    xz = evaluate_vf(x, z)
    dxy = _richardson(x, z, yz, h)
    dyx = _richardson(y, z, xz, h)
    return {a: dxy.get(a, 0j) - dyx.get(a, 0j) for a in set(dxy) | set(dyx)}


def test_commutator_matches_directional_derivative():
    f1, f2, f3 = field_h2(), field_h4(), field_kk()
    pr = probe_poly()
    pairs = [(f1, f2), (f1, f3), (f2, f3), (f1, pr), (f3, pr)]
    rng = random.Random(7002)
    checked = 0
    for x, y in pairs:
        bracket = commutator(x, y, N)
        for _ in range(10):
            z = random_state(rng)
            want = fd_bracket(x, y, z)
            have = evaluate_vf(bracket, z)
            scale = max(max((abs(v) for v in want.values()), default=0.0), 1e-12)
            for a in set(want) | set(have):
                err = abs(want.get(a, 0j) - have.get(a, 0j))
                assert err <= 1e-9 * scale + 1e-12, (a, err, scale)
            checked += 1
    assert checked == 50


def test_numeric_jacobi_identity():
    x, y, w = field_h2(), probe_single(), field_kk()
    xy = commutator(x, y, N)
    yw = commutator(y, w, N)
    wx = commutator(w, x, N)
    total = (
        commutator(xy, w, N)
        + commutator(yw, x, N)
        + commutator(wx, y, N)
    )
    rng = random.Random(7003)
    for _ in range(5):
        z = random_state(rng)
        vals = evaluate_vf(total, z)
        parts = evaluate_vf(commutator(xy, w, N), z)
        scale = max(max((abs(v) for v in parts.values()), default=0.0), 1e-9)
        for a, v in vals.items():
            assert abs(v) <= 1e-10 * scale, (a, v, scale)


# ---------------------------------------------------------------------------
# structural bookkeeping

def test_order_additivity():
    cases = [
        (field_h2(), field_h4(), 1 + 2),
        (field_h2(), field_kk(), 1 + 2),
        (field_h4(), field_kk(), 2 + 2),
        (field_h2(), probe_single(), 1 + 1),
    ]
    for x, y, want in cases:
        out = commutator(x, y, N)
        assert not out.is_zero()
        assert out.orders() == {want}


def test_parity_rules():
    rev1, rev2 = field_h2(), field_h4()
    sym = probe_single()
    assert rev1.is_reversible_parity() and rev2.is_reversible_parity()
    assert sym.is_symmetric_parity()
    assert commutator(rev1, rev2, N).is_symmetric_parity()
    assert commutator(rev1, sym, N).is_reversible_parity()


def test_divisor_growth_routing():
    pr = probe_single()

    # quadratic-frequency divisor hit: the extra copy joins the same section
    out = commutator(field_h2(), pr, N)
    assert any(len(k[3]) == 2 for k in out.terms)
    assert all(not k[4] and not k[5] for k in out.terms)

    # corrected divisor in the single-weight section: gradient part doubles
    # that section, Hessian part lands in the double-weight one
    out = commutator(field_h4(), pr, N)
    assert any(len(k[4]) == 2 and not k[5] for k in out.terms)
    assert any(len(k[4]) == 1 and len(k[5]) == 1 for k in out.terms)
    assert all(not k[3] for k in out.terms)

    # double-weight divisor whose gradient modes miss the probe: only the
    # Hessian route can fire
    out = commutator(field_kk(), pr, N)
    assert any(len(k[5]) == 2 for k in out.terms)
    assert all(len(k[4]) == 0 for k in out.terms)


def test_control_condition_preserved():
    fields = [field_h2(), field_h4(), field_kk(), probe_poly()]
    for f in fields:
        assert validate_class(f, N) == []
    for x in fields:
        for y in fields:
            out = commutator(x, y, N)
            assert validate_class(out, N) == []


def test_key_order_and_selection():
    f = field_h2() + field_h4()
    assert f.orders() == {1, 2}
    assert RationalVF({k: c for k, c in f.terms.items() if key_order(k) == 1}) == field_h2()
    only_key = next(iter(field_kk().terms))
    assert key_order(only_key) == 2


# ---------------------------------------------------------------------------
# frequency-derivative tables behind the chain rule

def _ctx_with(acts):
    return FreqContext(acts, N)


def test_linear_table_matches_numeric_gradient():
    base = {1: 0.04, 2: 0.07, 3: 0.05, 4: 0.03}
    h = 1e-3
    for vec in (((1, 1), (1, 2)), ((1, 1), (1, 3), (-1, 4)), ((1, 2), (1, 2), (-1, 4))):
        w, _ = _stored(vec)
        table = dict(_linear_derivative(w))
        for d in range(1, N + 1):
            up = dict(base)
            dn = dict(base)
            up[d] += h
            dn[d] -= h
            grad = (
                big_omega(w, _ctx_with(up), 2) - big_omega(w, _ctx_with(dn), 2)
            ) / (2 * h)
            assert grad == pytest.approx(float(table.get(d, 0)), abs=1e-10)


def test_hessian_table_matches_numeric_gradient():
    # the corrected-minus-quadratic combination is exactly quadratic in the
    # actions, so a central difference recovers its gradient exactly
    base = {1: 0.04, 2: 0.07, 3: 0.05, 4: 0.03}
    h = 1e-3
    for vec in (((1, 1), (1, 2)), ((1, 1), (1, 3), (-1, 4)), ((1, 2), (1, 2), (-1, 4))):
        w, _ = _stored(vec)
        hess = {}
        for d, e, c in _quadratic_derivative(w, N):
            hess[(d, e)] = c
        for d in range(1, N + 1):
            up = dict(base)
            dn = dict(base)
            up[d] += h
            dn[d] -= h

            def quart(acts):
                ctx = _ctx_with(acts)
                return big_omega(w, ctx, 4) - big_omega(w, ctx, 2)

            grad = (quart(up) - quart(dn)) / (2 * h)
            want = sum(float(c) * base[e] for (dd, e), c in hess.items() if dd == d)
            assert grad == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_hessian_table_matches_closed_form():
    # the table polarizes omega4 over Fractions; the hand-derived closed form
    # pins every entry exactly, zero entries and ordering included
    for n in range(1, 13):
        for m in range(1, n + 1):
            assert omega4_hessian(m, n) == closed_form_omega4_hessian(m, n)


@st.composite
def raw_exponents(draw):
    """``(a, {mode: (alpha, beta)})`` over modes 1..8 and exponents 0..63, the
    derivative mode present or absent, with the fold's parity rule kept or not."""
    a = draw(st.integers(1, 8))
    modes = draw(st.sets(st.integers(1, 8), max_size=8)) - {a}
    if draw(st.booleans()):
        modes.add(a)
    valid = draw(st.booleans())
    exps = {}
    for m in sorted(modes, key=lambda m: draw(st.integers(0, 8))):
        x, y = draw(st.integers(0, 63)), draw(st.integers(0, 63))
        # odd at the derivative mode, even elsewhere
        if valid and (x - y) % 2 != (m == a):
            y ^= 1
        exps[m] = (x, y)
    return a, exps


@given(raw_exponents())
@settings(max_examples=500, deadline=None)
def test_packed_fold_matches_exponent_fold(case):
    a, exps = case
    packed = sum(rational._factor(m, x, y) for m, (x, y) in exps.items())
    try:
        want = canonical_from_exponents(a, exps)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            rational._fold.__wrapped__(a, packed)
        assert type(got.value) is type(exc)
    else:
        assert rational._fold.__wrapped__(a, packed) == want


def test_fold_memo_is_bounded():
    # folding more distinct monomials than the bound keeps the memo at the
    # bound, and every fold, an evicted one included, gives the plain fold's key
    fold = rational._fold
    bound = fold.cache_info().maxsize
    assert bound == 2**15
    fold.cache_clear()

    def monomial(i):
        # d/dz_1 of z_1 times even powers of z_2..z_5 spelling i in base 32
        exps = {1: (1, 0), **{k + 2: (2 * ((i >> (5 * k)) & 31), 0) for k in range(4)}}
        return sum(rational._factor(m, x, y) for m, (x, y) in exps.items()), exps

    for i in range(bound + 1000):
        p, exps = monomial(i)
        assert fold(1, p) == canonical_from_exponents(1, exps)
    assert fold.cache_info().currsize == bound
    p, exps = monomial(0)  # evicted by now
    assert fold(1, p) == canonical_from_exponents(1, exps)
    assert fold.cache_info().currsize == bound
    fold.cache_clear()


# ---------------------------------------------------------------------------
# evaluation

def _gaussian_point():
    return {
        1: QC(Fraction(2, 5), Fraction(1, 5)),
        2: QC(Fraction(-1, 3), Fraction(1, 4)),
        3: QC(Fraction(1, 7), Fraction(-2, 7)),
        4: QC(Fraction(1, 6), Fraction(1, 8)),
    }


def test_evaluate_exact_matches_float():
    zq = _gaussian_point()
    zf = ComplexSeq({a: v.to_complex() for a, v in zq.items()}, N)
    for f in (field_h2(), field_h4(), field_kk(), commutator(field_h2(), field_h4(), N)):
        exact = evaluate_exact(f, zq, N)
        approx = evaluate_vf(f, zf)
        for a in set(exact) | set(approx):
            want = exact.get(a, QC()).to_complex()
            have = approx.get(a, 0j)
            assert have == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_evaluate_mod_p_is_the_reduction_of_the_exact_values():
    zq = _gaussian_point()
    z = {a: mod_prime(v) for a, v in zq.items()}
    zbar = {a: mod_prime(v.conj()) for a, v in zq.items()}
    nf = resonant_normal_form(2, N)
    s, m = quintic_rational_solve(nf.k5, N)
    for f in (field_h2(), field_h4(), field_kk(), commutator(field_h2(), field_h4(), N), s + m):
        want = {a: mod_prime(v) for a, v in evaluate_exact(f, zq, N).items()}
        assert want and evaluate_mod_p(f, z, zbar, N) == want


def test_evaluate_mod_p_refuses_a_vanishing_divisor():
    f = field_h2()  # over the divisor I_1 + I_2 - I_3, up to its factor
    z, zbar = {1: 3, 2: 5, 3: 7}, {1: 11, 2: 13}
    zbar[3] = (3 * 11 + 5 * 13) * pow(7, -1, rational.PRIME) % rational.PRIME
    with pytest.raises(ZeroDivisionError):
        evaluate_mod_p(f, z, zbar, N)
    zbar[3] += 1
    assert evaluate_mod_p(f, z, zbar, N)[3]


def test_modulus_is_a_prime_with_a_square_root_of_minus_one():
    p, i = rational.PRIME, rational.SQRT_MINUS_ONE
    assert p % 4 == 1 and 2**61 < p < 2**62
    assert i * i % p == p - 1
    # Miller-Rabin with the first twelve prime bases is exact below 3.3e24
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        assert x in (1, p - 1) or any(pow(x, 2**k, p) == p - 1 for k in range(1, r))


def test_divisor_refusal_witness():
    f = field_h2()
    w = next(iter(f.terms))[3][0]
    # actions tuned so I_1 + I_2 - I_3 = 0 makes that divisor vanish
    z = ComplexSeq({1: 0.1, 2: 0.2, 3: complex(0.0, (0.01 + 0.04) ** 0.5)}, N)
    with pytest.raises(DivisorRefusal) as info:
        evaluate_vf(f, z)
    assert info.value.vector == w
    assert info.value.order == 2
    assert abs(info.value.value) < info.value.threshold


def test_refusal_skipped_when_numerator_vanishes():
    f = field_h2()
    # same resonant actions, but mode 1 removed: every numerator dies first
    z = ComplexSeq({2: 0.2, 3: complex(0.0, 0.2)}, N)
    assert evaluate_vf(f, z) == {}


# modes run past every truncation drawn below. The strategies are built once
# and drawn declaratively: drawing fields is most of the property test's time
_MODES = st.integers(1, 6)
_ENTRIES = st.tuples(st.sampled_from((-1, 0, 1)), _MODES)


def _vectors(lo, hi):
    return st.lists(_ENTRIES, min_size=lo, max_size=hi).map(canonicalize)


def _divisor(v, reduce):
    # storage forms, and irreducible vectors of any momentum b >= 0: the
    # vectors divisor_evaluator takes
    if delta_sum(v) < 0:
        v = conj_index_vector(v)
    v = irr(v, delta_sum(v)) if reduce else divisor_zero_form(v)[0]
    return v or ((-1, 1), (1, 2))


_SECTIONS = st.lists(st.builds(_divisor, _vectors(1, 4), st.booleans()), max_size=2).map(lambda s: tuple(sorted(s)))
_COEFFICIENTS = st.builds(lambda re, im, p, q: QC(Fraction(re, p), Fraction(im, q)),
                          st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 7), st.integers(1, 7))


def _fields():
    keys = st.tuples(_MODES, st.sampled_from((DIAG, ANTI)), _vectors(0, 4), _SECTIONS, _SECTIONS, _SECTIONS)
    return st.dictionaries(keys, _COEFFICIENTS, min_size=1, max_size=10).map(RationalVF)


@st.composite
def _dyadic_states(draw):
    # parts k / 16, so that the float state is the Gaussian-rational one
    # exactly; a small pool makes zero prefixes, vanishing numerators and
    # exactly vanishing divisors common
    n = draw(st.integers(3, 5))
    parts = draw(st.sampled_from((st.sampled_from((0, 4, -4, 8, 12)), st.integers(-24, 24))))
    zq = {}
    for a in range(1, n + 1):
        v = QC(Fraction(draw(parts), 16), Fraction(draw(parts), 16))
        if not v.is_zero():
            zq[a] = v
    return zq, n


@given(_fields(), _dyadic_states())
@settings(max_examples=100, deadline=None)
def test_evaluate_vf_matches_exact_values(field, state):
    zq, n = state
    z = ComplexSeq({a: v.to_complex() for a, v in zq.items()}, n)
    try:
        exact = evaluate_exact(field, zq, n)
    except ZeroDivisionError:
        with pytest.raises(DivisorRefusal):
            evaluate_vf(field, z)
        return
    acts = {a: Fraction(v.n * v.n + v.m * v.m, v.d * v.d) for a, v in zq.items()}
    nz2 = sum(acts.values())
    divisor = divisor_evaluator(acts, n, Fraction(1))
    scale: dict = {}
    for key, c in field.terms.items():
        value = evaluate_exact(RationalVF({key: c}), zq, n).get(key[0])
        if value is None:
            continue
        # a needed divisor d comes out of floats with a relative error of
        # about 1e-17 / r, r = |d| / (||z||^2 (1 + ||z||^2)); states where r
        # is under 1e-3 are left out, and with them every divisor that is
        # nonzero but under the refusal threshold
        assume(all(abs(divisor(v, order)) >= nz2 * (1 + nz2) / 1000
                   for order, sec in zip((2, 4, 4), key[3:]) for v in sec))
        scale[key[0]] = scale.get(key[0], 0.0) + abs(value)
    have = evaluate_vf(field, z)
    assert have.keys() == exact.keys() == scale.keys()
    # each component within 1e-12 of the sum of its terms' magnitudes, which
    # is its own magnitude unless its terms cancel
    for a, value in exact.items():
        assert abs(have[a] - value.to_complex()) <= 1e-12 * scale[a]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_skipped_term_with_vanishing_divisor_is_never_divided():
    # mode 1 is zero, so the divisor term's numerator vanishes, and its
    # divisor I_1 + I_2 - I_3 vanishes exactly; the polynomial terms still count
    z = ComplexSeq({2: 0.2, 3: complex(0.0, 0.2)}, N)
    have = evaluate_vf(field_h2() + probe_poly(), z)
    assert value_bits(have) == value_bits(evaluate_vf(probe_poly(), z))
    assert 3 not in have


def test_di_functional_matches_manual():
    rng = random.Random(7005)
    f = field_h4() + field_h2()
    for _ in range(5):
        z = random_state(rng)
        comps = evaluate_vf(f, z)
        for a in range(1, N + 1):
            want = (
                z[a].conjugate() * comps.get(a, 0j)
                + z[a] * comps.get(a, 0j).conjugate()
            )
            have = di_functional(a, f, z)
            assert have == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert abs(have.imag) <= 1e-15


# ---------------------------------------------------------------------------
# normal-form predicate and class validation

def _nf_field() -> RationalVF:
    w, _ = _stored(((1, 1), (1, 2)))
    j = canonicalize(((1, 2), (1, 2), (-1, 1), (-1, 3)))
    jb = conj_index_vector(j)
    c = QC(0, Fraction(2, 7))
    return RationalVF(
        {
            (4, DIAG, j, (w,), (), ()): c,
            (4, DIAG, jb, (w,), (), ()): c,
        }
    )


def test_rational_normal_form_predicate():
    nf = _nf_field()
    assert is_rational_normal_form(nf)

    rng = random.Random(7006)
    for _ in range(10):
        z = random_state(rng)
        for a in range(1, N + 1):
            assert abs(di_functional(a, nf, z)) <= 1e-12

    # anti term, real coefficient, or a missing partner all disqualify
    assert not is_rational_normal_form(field_h2())
    terms = dict(nf.terms)
    key = next(iter(terms))
    broken = dict(terms)
    broken[key] = QC(Fraction(1, 3))
    assert not is_rational_normal_form(RationalVF(broken))
    half = {key: terms[key]}
    assert not is_rational_normal_form(RationalVF(half))
    # integrable action terms are their own partners
    assert is_rational_normal_form(
        RationalVF({(1, DIAG, ((0, 2), (0, 2)), (), (), ()): QC(0, 3)})
    )


def normal_form_fields(N: int):
    """Diagonal terms on modes 1..N with nonzero imaginary coefficients, each
    beside its conjugate-index partner with the same divisors and coefficient."""
    sections = _sections(N, True)
    rates = st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), _DENOMINATORS)
    term = st.tuples(st.integers(1, N), _entries(N, 0, 3).map(canonicalize),
                     st.tuples(sections, sections, sections), rates)

    def build(drawn) -> RationalVF:
        terms = {}
        for a, j, secs, c in drawn:
            for partner in (j, conj_index_vector(j)):
                terms[(a, DIAG, partner) + secs] = QC(0, c)
        return RationalVF(terms)

    return st.lists(term, min_size=1, max_size=4).map(build)


def _derivatives(y: RationalVF) -> dict:
    """The package's ``W_d = dI_d[y]`` per field mode of ``y``, cancelled routes dropped."""
    return rational._action_derivatives(rational._Tables().terms(y)[1])


def assert_preserves_actions(y: RationalVF, n: int) -> None:
    """A normal form has an empty ``W_d`` at every mode, and ``z_d I_e dI_d[y]`` is
    the zero field for every mode ``d`` and every ``e`` in 0..n."""
    assert is_rational_normal_form(y)
    assert not any(_derivatives(y).values())
    for d in range(1, n + 1):
        for e in range(n + 1):
            assert action_transport(y, [(d, d, e, QC(1))]).is_zero(), (d, e)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_normal_forms_preserve_every_action_exactly(data):
    # dI_d = zbar_d Y_d + z_d conj(Y_d) cancels between each term and its
    # partner, whatever divisors they carry, so the exact transport is zero
    n = data.draw(st.integers(1, 5))
    assert_preserves_actions(data.draw(normal_form_fields(n)), n)


def test_resonant_normal_form_preserves_every_action_exactly():
    n = 4
    nf = resonant_normal_form(3, n)
    assert_preserves_actions(nf.z3 + nf.z5, n)
    # real coefficients move the actions, so the check is not vacuous
    moved = (nf.z3 + nf.z5).scale(QC(0, 1))
    assert _derivatives(moved).get(1)
    assert not action_transport(moved, [(1, 1, 0, QC(1))]).is_zero()


def test_validate_class_catches_violations():
    w, _ = _stored(((1, 1), (1, 2)))

    bad_momentum = RationalVF({(2, ANTI, ((1, 1), (1, 2)), (), (), ()): QC(0, 1)})
    assert any("momentum" in m for m in validate_class(bad_momentum, N))

    reducible = canonicalize(((0, 1), (1, 2), (-1, 2)))
    not_irr = RationalVF({(3, ANTI, ((1, 1), (1, 2)), (reducible,), (), ()): QC(0, 1)})
    assert any("irreducible" in m for m in validate_class(not_irr, N))

    flipped = conj_index_vector(w)
    assert flipped != w
    wrong_rep = RationalVF({(3, ANTI, ((1, 1), (1, 2)), (flipped,), (), ()): QC(0, 1)})
    assert any("flip-canonical" in m for m in validate_class(wrong_rep, N))

    big = canonicalize(((1, 1), (1, 1), (-1, 3), (1, 2), (-1, 1)))
    oversize = RationalVF({(3, ANTI, ((1, 1), (1, 2)), (), (big,), ()): QC(0, 1)})
    assert any("size" in m for m in validate_class(oversize, N))

    beyond = RationalVF({(3, ANTI, ((1, 1), (1, 2)), (w,), (), ()): QC(0, 1)})
    assert validate_class(beyond, 2) != []


def test_validate_class_messages_match_per_term_checks():
    # each divisor vector is checked once per cutoff; the messages, their
    # order and their prefixes stay those of checking every term afresh
    w, _ = _stored(((1, 1), (1, 2)))
    w3, _ = _stored(((1, 3), (1, 4)))
    j = ((1, 2), (1, 2))
    reducible = canonicalize(((0, 1), (1, 2), (-1, 2)))
    big = canonicalize(((1, 1), (1, 1), (-1, 3), (1, 2), (-1, 1)))
    fields = [
        RationalVF({(2, ANTI, ((1, 1), (1, 2)), (), (), ()): QC(0, 1)}),
        RationalVF({(3, ANTI, ((1, 1), (1, 2)), (reducible,), (), ()): QC(0, 1)}),
        RationalVF({(3, ANTI, ((1, 1), (1, 2)), (conj_index_vector(w),), (), ()): QC(0, 1)}),
        RationalVF({(3, ANTI, ((1, 1), (1, 2)), (), (big,), ()): QC(0, 1)}),
        RationalVF({(3, ANTI, ((1, 1), (1, 2)), (w,), (), ()): QC(0, 1)}),
        RationalVF({(4, ANTI, j, (w3,), (), ()): QC(0, 1), (4, ANTI, j, (w3, w3), (), ()): QC(0, 1)}),
        RationalVF({(5, DIAG, ((1, 5),), (w, w3), (big,), (reducible,)): QC(1)}),
        field_h2() + field_h4() + field_kk(),
    ]
    for f in fields:
        for n in (2, N, 8):
            assert validate_class(f, n) == scalar_validate_class(f, n)


def test_validate_control_variants():
    N8 = 8
    w, _ = _stored(((1, 3), (1, 4)))
    assert kappa(w) == 3
    j = ((1, 2), (1, 2))

    one = RationalVF({(4, ANTI, j, (w,), (), ()): QC(0, 1)})
    assert validate_class(one, N8) == []

    two = RationalVF({(4, ANTI, j, (w, w), (), ()): QC(0, 1)})
    assert any("control" in m for m in validate_class(two, N8))
