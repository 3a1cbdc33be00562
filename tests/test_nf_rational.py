"""Checks of the divisor-carrying vector-field layer.

The commutator here is verified against a finite-difference directional
derivative of the evaluated fields (Richardson-extrapolated central
differences), against exact-arithmetic evaluation, and through formal
algebra identities that must hold key by key.  The frequency-derivative
tables behind the divisor chain rule are pinned to numeric gradients of the
independent frequency-combination implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stringnf.core import ComplexSeq, WeightSpec, canonicalize, delta_sum
from stringnf.divisors import FreqContext, big_omega, irr, kappa
from stringnf.nf_engine import (
    ANTI,
    DIAG,
    NO_DIVISORS,
    DivisorRefusal,
    QC,
    RationalVF,
    commutator,
    conj_index_vector,
    di_functional,
    divisor_zero_form,
    evaluate_exact,
    evaluate_vf,
    is_rational_normal_form,
    key_order,
    validate_class,
)
from stringnf.nf_engine.rational import _linear_derivative, _quadratic_derivative

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
    # quadratic-frequency divisor needs no cutoff
    for f in (field_h4(), field_kk()):
        with pytest.raises(ValueError, match="cutoff"):
            commutator(f, probe_poly())
        with pytest.raises(ValueError, match="cutoff"):
            commutator(probe_poly(), f)
    assert commutator(field_h2(), probe_poly()) == commutator(field_h2(), probe_poly(), N)


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
    assert f.select_order(1) == field_h2()
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


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_exact_matches_float():
    zq = {
        1: QC(Fraction(2, 5), Fraction(1, 5)),
        2: QC(Fraction(-1, 3), Fraction(1, 4)),
        3: QC(Fraction(1, 7), Fraction(-2, 7)),
        4: QC(Fraction(1, 6), Fraction(1, 8)),
    }
    zf = ComplexSeq({a: v.to_complex() for a, v in zq.items()}, N)
    for f in (field_h2(), field_h4(), field_kk(), commutator(field_h2(), field_h4(), N)):
        exact = evaluate_exact(f, zq, N)
        approx = evaluate_vf(f, zf)
        for a in set(exact) | set(approx):
            want = exact.get(a, QC()).to_complex()
            have = approx.get(a, 0j)
            assert have == pytest.approx(want, rel=1e-12, abs=1e-15)


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


def test_evaluate_passthrough_for_polynomials():
    p = probe_poly()
    z = random_state(random.Random(7004))
    assert evaluate_vf(p, z) == p.evaluate(z)


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
    assert any("size" in m for m in validate_class(oversize, N, weight=None))

    beyond = RationalVF({(3, ANTI, ((1, 1), (1, 2)), (w,), (), ()): QC(0, 1)})
    assert validate_class(beyond, 2) != []


def test_validate_control_variants():
    N8 = 8
    w, _ = _stored(((1, 3), (1, 4)))
    assert kappa(w) == 3
    j = ((1, 2), (1, 2))

    one = RationalVF({(4, ANTI, j, (w,), (), ()): QC(0, 1)})
    assert validate_class(one, N8) == []
    assert any("control" in m for m in validate_class(one, N8, strict_control=True))

    two = RationalVF({(4, ANTI, j, (w, w), (), ()): QC(0, 1)})
    assert any("control" in m for m in validate_class(two, N8))

    gev = WeightSpec(kind="gevrey", rho=0.5, theta=0.5)
    assert validate_class(one, N8, weight=gev) == []
    assert any("control" in m for m in validate_class(two, N8, weight=gev))
