"""Checks of the divisor-stage homological solvers.

Strategy: every generator produced by a solver is re-verified through the
independently tested bracket, by evaluating the full homological identity at
random states.  The coupling fields the solvers construct by hand (the echoes
of dividing at action-dependent rotation rates) are pinned against oracles
built from ``di_functional`` and the frequency Hessian, which share no code
with the construction.  Termination of the quintic cascade is asserted
formally and confirmed numerically.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (
    FreqContext,
    big_omega,
    di_functional,
    dict_product_key,
    scalar_validate_class,
    zeta_product,
)
from stringnf.core import ComplexSeq, canonicalize
from stringnf.nf_engine import (
    ANTI,
    DIAG,
    QC,
    RationalVF,
    UnsolvableKeyError,
    chi3_explicit,
    commutator,
    divisor_zero_form,
    evaluate_vf,
    is_rational_normal_form,
    key_exponents,
    omega4_hessian,
    quintic_rational_solve,
    resonant_normal_form,
    septic_stage_input,
    solve_homological_z1,
    solve_homological_z3z5,
    validate_class,
    z1_field,
)
from stringnf.nf_engine.rational import action_transport
from stringnf.nf_engine.solvers import _action_coupling, _frequency_coupling

from test_nf_poly import (
    chi3_reference,
    k5_reference,
    p3_reference,
    z3_reference,
    z5_reference,
)

NQ = 6  # quintic-stage cutoff
NS = 4  # septic-stage cutoff


def rstate(rng: random.Random, N: int, scale: float = 0.5) -> ComplexSeq:
    data = {}
    for a in range(1, N + 1):
        re = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        im = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        data[a] = complex(re, im) * scale / a
    return ComplexSeq(data, N)


def sup(values) -> float:
    return max((abs(v) for v in values.values()), default=0.0)


def rel_residual(total: RationalVF, reference: RationalVF, states) -> float:
    worst = 0.0
    for z in states:
        r = evaluate_vf(total, z)
        s = evaluate_vf(reference, z)
        worst = max(worst, sup(r) / max(sup(s), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# first-stage generator

def test_chi3_explicit_matches_reference():
    assert chi3_explicit(NQ) == chi3_reference(NQ)


def test_chi3_explicit_agrees_with_generic_solver():
    chi, res = solve_homological_z1(p3_reference(5))
    assert chi == chi3_explicit(5)
    assert res == z3_reference(5)


def test_chi3_identity_exact():
    M = 5
    lhs = commutator(z1_field(M), chi3_explicit(M)) + p3_reference(M) - z3_reference(M)
    assert lhs.is_zero()


# ---------------------------------------------------------------------------
# quintic cascade

@pytest.fixture(scope="module")
def quintic_pair():
    return quintic_rational_solve(k5_reference(NQ), NQ)


def test_quintic_generators_structure(quintic_pair):
    s, m = quintic_pair
    k5 = k5_reference(NQ)
    assert {k[:3] for k in s.terms} == {k[:3] for k in k5.terms}
    assert all(len(k[3]) == 1 and not k[4] and not k[5] for k in s.terms)
    assert all(len(k[3]) == 2 and not k[4] and not k[5] for k in m.terms)
    assert s.orders() == {1} and m.orders() == {1}
    # dividing a reversible field by an imaginary eigenvalue flips the parity
    assert s.is_symmetric_parity() and m.is_symmetric_parity()
    assert validate_class(s, NQ) == []
    assert validate_class(m, NQ) == []


def test_first_generator_matches_direct_division(quintic_pair):
    s, _ = quintic_pair
    k5 = k5_reference(NQ)
    rng = random.Random(5101)
    for _ in range(10):
        z = rstate(rng, NQ)
        ctx = FreqContext.from_seq(z, NQ)
        want: dict[int, complex] = {}
        for (a, kind, j, *_), c in k5.terms.items():
            assert kind == ANTI
            val = 1j * c.to_complex() * zeta_product(j, z) * z[a].conjugate()
            want[a] = want.get(a, 0j) + val / big_omega(j, ctx, 2)
        have = evaluate_vf(s, z)
        scale = max(sup(want), 1e-300)
        for a in set(want) | set(have):
            assert abs(want.get(a, 0j) - have.get(a, 0j)) <= 1e-12 * scale


def test_cascade_terminates(quintic_pair):
    _, m = quintic_pair
    assert _action_coupling(m).is_zero()
    rng = random.Random(5102)
    for _ in range(5):
        z = rstate(rng, NQ)
        scale = max(sup(evaluate_vf(m, z)), 1e-300)
        for a in range(1, NQ + 1):
            assert abs(di_functional(a, m, z)) <= 1e-12 * scale


def test_quintic_identity_numeric(quintic_pair):
    s, m = quintic_pair
    k5 = k5_reference(NQ)
    bracket = commutator(z3_reference(NQ), s + m, NQ)
    rng = random.Random(5103)
    states = [rstate(rng, NQ) for _ in range(20)]
    assert rel_residual(bracket + k5, k5, states) <= 1e-12


def test_quintic_solve_input_guards():
    with pytest.raises(ValueError, match="integrable"):
        quintic_rational_solve(z5_reference(4) + k5_reference(4), 4)
    with pytest.raises(ValueError, match="cutoff"):
        quintic_rational_solve(k5_reference(6), 4)


def _same_terms(x, y) -> bool:
    return list(x.terms.items()) == list(y.terms.items())


@pytest.mark.parametrize("r, n", [(2, n) for n in range(2, 6)] + [(3, n) for n in range(2, 5)])
def test_normal_form_on_fewer_modes_is_a_truncation(r, n):
    # the normal form and quintic solve on modes 1..m are those on 1..n cut
    # to m modes, term order included; nf-verify relies on this
    big = resonant_normal_form(r, n)
    s, m_gen = quintic_rational_solve(big.k5, n)
    for m in range(1, n):
        small = resonant_normal_form(r, m)
        for name in ("z3", "z5", "k5", "k7"):
            assert _same_terms(getattr(big, name).truncate(m), getattr(small, name)), name
        for k, g in small.generators.items():
            assert _same_terms(big.generators[k].truncate(m), g), k
        for f, g in zip((s, m_gen), quintic_rational_solve(small.k5, m)):
            assert _same_terms(f.truncate(m), g)


# ---------------------------------------------------------------------------
# the coupling fields against independent oracles

def test_action_coupling_matches_di_oracle(quintic_pair):
    s, _ = quintic_pair
    echo = _action_coupling(s)
    rng = random.Random(5104)
    for _ in range(8):
        z = rstate(rng, NQ)
        have = evaluate_vf(echo, z)
        want = {
            a: complex(0, -0.25) * z[a] * di_functional(a, s, z)
            for a in range(1, NQ + 1)
        }
        scale = max(sup(want), 1e-300)
        for a in set(want) | set(have):
            assert abs(want.get(a, 0j) - have.get(a, 0j)) <= 1e-12 * scale


def test_frequency_coupling_matches_hessian_oracle(quintic_pair):
    s, _ = quintic_pair
    echo = _frequency_coupling(s, NQ)
    rng = random.Random(5105)
    for _ in range(5):
        z = rstate(rng, NQ)
        have = evaluate_vf(echo, z)
        want: dict[int, complex] = {}
        for a in range(1, NQ + 1):
            tot = 0j
            for d, e, h in omega4_hessian(a, NQ):
                tot += float(h) * z.action(e) * di_functional(d, s, z)
            want[a] = complex(0, -1) * z[a] * tot
        scale = max(sup(want), 1e-300)
        for a in set(want) | set(have):
            assert abs(want.get(a, 0j) - have.get(a, 0j)) <= 1e-11 * scale


def test_rotation_bracket_splits_into_eigenvalue_and_echoes():
    # single-key generators: the bracket against the resonant rotation must
    # equal i*Omega(key)*chi plus the two coupling fields, pointwise
    rot = z3_reference(NQ) + z5_reference(NQ)
    w, _ = divisor_zero_form(((1, 2), (1, 3)))
    cases = [
        (5, ANTI, ((1, 2), (1, 3)), (w,), (), ()),
        (5, ANTI, ((1, 2), (1, 3)), (), (), (w,)),
        (3, DIAG, canonicalize(((1, 2), (-1, 2), (0, 1))), (), (w,), ()),
    ]
    rng = random.Random(5106)
    states = [rstate(rng, NQ) for _ in range(6)]
    for key in cases:
        chi = RationalVF({key: QC(Fraction(1, 3), Fraction(-1, 7))})
        lhs = commutator(rot, chi, NQ)
        echoes = _action_coupling(chi) + _frequency_coupling(chi, NQ)
        a0, kind, j = key[:3]
        eigvec = j if kind == DIAG else canonicalize(j + ((-1, a0),))
        wv, sv = divisor_zero_form(eigvec)
        for z in states:
            ctx = FreqContext.from_seq(z, NQ)
            om = 0.0 if wv is None else sv * big_omega(wv, ctx, 4)
            want = dict(evaluate_vf(echoes, z))
            for a, v in evaluate_vf(chi, z).items():
                want[a] = want.get(a, 0j) + 1j * om * v
            have = evaluate_vf(lhs, z)
            scale = max(sup(have), 1e-300)
            for a in set(want) | set(have):
                assert abs(want.get(a, 0j) - have.get(a, 0j)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# septic stage

@pytest.fixture(scope="module")
def nf3():
    return resonant_normal_form(3, NS)


@pytest.fixture(scope="module")
def septic(nf3):
    return septic_stage_input(nf3)


@pytest.fixture(scope="module")
def septic_solution(septic):
    return solve_homological_z3z5(septic, NS)


@pytest.fixture(scope="module")
def septic_states():
    rng = random.Random(5107)
    return [rstate(rng, NS, scale=0.35) for _ in range(10)]


def _transport_by_fold(acc, field, keys, a, d, extra, fac):
    # fac * z_a * extra * dI_d[Y] for the terms keys of field, one dict fold
    # per product
    for key in keys:
        c, ey = field.terms[key], key_exponents(key)
        for conj, factor, coef in ((False, (d, 0, 1), c), (True, (d, 1, 0), c.conj())):
            k = dict_product_key(a, {a: (1, 0)}, ey, conj, (factor,) + extra) + key[3:]
            prev = acc.get(k)
            acc[k] = fac * coef if prev is None else prev + fac * coef


def test_coupling_fields_match_per_product_fold(quintic_pair, septic_solution):
    head = RationalVF(dict(list(septic_solution[0].terms.items())[:200]))
    for field, n in ((quintic_pair[0], NQ), (head, NS)):
        acc: dict = {}
        for key in field.terms:
            _transport_by_fold(acc, field, [key], key[0], key[0], (), QC(0, Fraction(-1, 4)))
        assert list(_action_coupling(field).terms.items()) == list(RationalVF(acc).terms.items())
        acc = {}
        for a in range(1, n + 1):
            for d, e, h in omega4_hessian(a, n):
                keys = [key for key in field.terms if key[0] == d]
                _transport_by_fold(acc, field, keys, a, d, ((e, 1, 1),), QC(0, -1) * QC(h))
        assert list(_frequency_coupling(field, n).terms.items()) == list(RationalVF(acc).terms.items())


def test_action_transport_matches_per_product_qc_loop(septic_solution):
    # coefficients and coupling factors over coprime denominators, large
    # primes among them, so the common denominator is a product of several
    rng = random.Random(5115)
    dens = (1, 2, 3, 7, 999907, 999953, 999983)

    def big() -> Fraction:
        return Fraction(rng.randint(-(10**6), 10**6), rng.choice(dens))

    head = list(septic_solution[0].terms.items())[:120]
    field = RationalVF({key: c * QC(big(), big()) for key, c in head})
    by_mode: dict = {}
    for key in field.terms:
        by_mode.setdefault(key[0], []).append(key)
    couplings = []
    for _ in range(16):
        d = rng.choice(sorted(by_mode))
        keys = rng.sample(by_mode[d], min(5, len(by_mode[d])))
        couplings.append((rng.randint(1, NS), d, rng.randint(0, NS), QC(big(), big()), keys))
    acc: dict = {}
    for a, d, e, fac, keys in couplings:
        _transport_by_fold(acc, field, keys, a, d, ((e, 1, 1),) if e else (), fac)
    got = action_transport(field, couplings)
    assert not got.is_zero()
    assert list(got.terms.items()) == list(RationalVF(acc).terms.items())
    # a coupling and its negative cancel exactly, route by route
    negated = [(a, d, e, -fac, keys) for a, d, e, fac, keys in couplings]
    assert action_transport(field, couplings + negated).is_zero()


def test_septic_input_structure(septic):
    assert septic.orders() == {3}
    assert all(not k[4] and not k[5] for k in septic.terms)
    assert {len(k[3]) for k in septic.terms} == {0, 1, 2, 3}
    assert validate_class(septic, NS) == []
    assert septic.is_reversible_parity()


def test_septic_input_requires_depth_three():
    with pytest.raises(ValueError, match="depth-three"):
        septic_stage_input(resonant_normal_form(2, NS))


def test_solver_structure(septic, septic_solution):
    chi, z_int, r2, r1 = septic_solution
    assert chi.orders() == {1}
    assert z_int.orders() == {3}
    assert r2.orders() == {3}
    assert r1.orders() == {2}
    # generator: one double-weight divisor added, numerators untouched
    assert all(len(k[5]) == 1 for k in chi.terms)
    # kept part is verbatim a sub-dictionary of the input
    assert all(septic.terms[k] == c for k, c in z_int.terms.items())
    assert is_rational_normal_form(z_int)
    for f in (chi, z_int, r2, r1):
        assert validate_class(f, NS) == []


def test_solver_identity_numeric(septic, septic_solution, septic_states):
    chi, z_int, r2, r1 = septic_solution
    rot = z3_reference(NS) + z5_reference(NS)
    bracket = commutator(rot, chi, NS)
    total = bracket + septic - z_int - r2 - r1
    assert rel_residual(total, septic, septic_states) <= 1e-12


def test_validate_class_matches_per_term_checks_on_septic_fields(septic, septic_solution):
    for f in (septic,) + tuple(septic_solution):
        for n in (NS - 1, NS):
            assert validate_class(f, n) == scalar_validate_class(f, n)


def test_solver_norm_bounds(septic, septic_solution):
    chi, z_int, r2, r1 = septic_solution
    q = septic.linf_norm()
    assert chi.linf_norm() <= q
    assert z_int.linf_norm() <= q
    assert r2.linf_norm() <= 2 * q
    assert r1.linf_norm() <= 0.5 * q


def test_identically_resonant_divisor_refused():
    f = RationalVF({(1, ANTI, ((-1, 1),), (), (), ()): QC(0, 1)})
    with pytest.raises(UnsolvableKeyError):
        solve_homological_z3z5(f, 2)


# ---------------------------------------------------------------------------
# flow of the normal form

def test_normal_form_flow_preserves_actions(septic_solution):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    z_int = septic_solution[1]
    ztilde = (
        z3_reference(NS)
        + z5_reference(NS)
        + z_int
    )
    assert is_rational_normal_form(ztilde)

    z0 = rstate(random.Random(5108), NS, scale=0.35)

    def rhs(_t, y):
        z = ComplexSeq(
            {a: complex(y[2 * a - 2], y[2 * a - 1]) for a in range(1, NS + 1)}, NS
        )
        comps = evaluate_vf(ztilde, z)
        out = []
        for a in range(1, NS + 1):
            v = comps.get(a, 0j)
            out.extend((v.real, v.imag))
        return out

    y0 = []
    for a in range(1, NS + 1):
        y0.extend((z0[a].real, z0[a].imag))
    sol = scipy_integrate.solve_ivp(
        rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-14
    )
    assert sol.success
    yf = sol.y[:, -1]
    for a in range(1, NS + 1):
        before = abs(z0[a]) ** 2
        after = yf[2 * a - 2] ** 2 + yf[2 * a - 1] ** 2
        assert abs(after - before) <= 1e-9
