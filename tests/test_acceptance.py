"""Acceptance gate: the eight headline checks, one test per criterion.

Each test prints one ``criterion N: PASS/FAIL`` line with the measured value
next to its bound (visible with ``pytest -s`` and in failure output).

Criterion 7 is expected to fail and does so deliberately.  At the amplitude
scale where the small-data hypothesis behind the measure law holds, the
sampled non-resonant complement is empty for every admissible gamma in
(0, 1): the observed divisor margins sit three orders of magnitude above the
thresholds, so the through-origin fit the check scores has no signal.  The
test runs the stated scan faithfully, prints the evidence, and fails red
rather than substituting a configuration that would pass.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from helpers import duffing_reference
from stringnf.cli import main as cli_main
from stringnf.core import ComplexSeq, WeightSpec
from stringnf.divisors import NonResonanceParams, is_nonresonant
from stringnf.measure import MeasureSpec, estimate_measure, sample_actions
from stringnf.nf_engine import (
    QC,
    RationalVF,
    chi3_explicit,
    commutator,
    evaluate_vf,
    is_rational_normal_form,
    key_order,
    quintic_rational_solve,
    resonant_normal_form,
    septic_stage_input,
    solve_homological_z3z5,
    taylor_vf,
    validate_class,
    z1_field,
)
from stringnf.simulator import SimConfig, simulate, trajectory_summary
from stringnf.transforms import (
    UVState,
    ZState,
    elastic_energy,
    psi_to_eta,
    uv_to_psi,
    uv_to_z,
    z_to_uv,
)

from test_nf_poly import k5_reference, random_poly_vf, z3_reference, z5_reference


def _sup(values):
    return max((abs(v) for v in values.values()), default=0.0)


def _rel_residual(total, reference, states):
    worst = 0.0
    for z in states:
        worst = max(worst, _sup(evaluate_vf(total, z)) / max(_sup(evaluate_vf(reference, z)), 1e-300))
    return worst


def _ensemble_states(n, modes, gamma, s, seed):
    """Non-resonant states from the weighted action ensemble at unit amplitude."""
    weight = WeightSpec("sobolev", s=s)
    params = NonResonanceParams(2, modes, gamma, weight)
    batch = sample_actions(MeasureSpec(weight, modes, 4 * n, seed))
    states = []
    for i in range(len(batch)):
        z = batch.state(i)
        if is_nonresonant(z, params).ok:
            states.append(z)
            if len(states) == n:
                return states
    raise AssertionError(f"only {len(states)} of {n} requested states were non-resonant")


# ---------------------------------------------------------------------------

def test_criterion_1_quintic_coefficients_exact():
    t0 = time.time()
    nf = resonant_normal_form(2, 8)
    elapsed = time.time() - t0
    ok = nf.k5 == k5_reference(8) and nf.z5 == z5_reference(8)
    verdict = "PASS" if ok and elapsed < 60 else "FAIL"
    print(
        f"criterion 1: {verdict} - quintic coefficient tables at N=8 "
        f"{'match the closed forms exactly' if ok else 'DIFFER from the closed forms'} "
        f"({elapsed:.1f}s, limit 60s)"
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_2_homological_identities():
    n = 6
    nf = resonant_normal_form(2, n)
    z1 = z1_field(n)
    chi3 = chi3_explicit(n)
    p3 = taylor_vf(1, n)
    p5 = taylor_vf(2, n)

    cubic_exact = (commutator(z1, chi3) + p3 - nf.z3).is_zero()
    # quintic-stage input rebuilt independently from the graded conjugation
    h5 = p5 + commutator(p3, chi3) + commutator(commutator(z1, chi3), chi3).scale(Fraction(1, 2))
    quintic_exact = (commutator(z1, nf.generators[2]) + h5 - (nf.z5 + nf.k5)).is_zero()

    s_gen, m_gen = quintic_rational_solve(nf.k5, n)
    states = _ensemble_states(100, n, 1e-3, 3.0, seed=201)
    k5_rat = nf.k5
    cascade_res = _rel_residual(
        commutator(nf.z3, s_gen + m_gen, n) + k5_rat, k5_rat, states
    )

    ns = 4
    nfs = resonant_normal_form(3, ns)
    q = septic_stage_input(nfs)
    chi, z_int, echo_same, echo_down = solve_homological_z3z5(q, ns)
    rot = nfs.z3 + nfs.z5
    solver_states = _ensemble_states(50, ns, 1e-3, 3.0, seed=202)
    solver_res = _rel_residual(
        commutator(rot, chi, ns) + q - z_int - echo_same - echo_down,
        q,
        solver_states,
    )

    ok = cubic_exact and quintic_exact and cascade_res <= 1e-10 and solver_res <= 1e-9
    print(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - cubic/quintic stage identities "
        f"{'exact' if cubic_exact and quintic_exact else 'NOT exact'}; cascade residual "
        f"{cascade_res:.2e} (tol 1e-10, 100 states); solver residual {solver_res:.2e} "
        f"(tol 1e-9, 50 states)"
    )
    assert cubic_exact and quintic_exact
    assert cascade_res <= 1e-10
    assert solver_res <= 1e-9


def test_criterion_3_normal_form_flow_fixes_actions():
    ns = 4
    nfs = resonant_normal_form(3, ns)
    q = septic_stage_input(nfs)
    _, z_int, _, _ = solve_homological_z3z5(q, ns)
    ztilde = nfs.z3 + nfs.z5 + z_int
    assert is_rational_normal_form(ztilde)

    rng = random.Random(301)
    data = {}
    for a in range(1, ns + 1):
        re = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        im = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        data[a] = complex(re, im) * 0.35 / a
    z0 = ComplexSeq(data, ns)

    def rhs(_t, y):
        z = ComplexSeq({a: complex(y[2 * a - 2], y[2 * a - 1]) for a in range(1, ns + 1)}, ns)
        comps = evaluate_vf(ztilde, z)
        out = []
        for a in range(1, ns + 1):
            v = comps.get(a, 0j)
            out.extend((v.real, v.imag))
        return out

    y0 = []
    for a in range(1, ns + 1):
        y0.extend((z0[a].real, z0[a].imag))
    sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    yf = sol.y[:, -1]
    worst = max(
        abs((yf[2 * a - 2] ** 2 + yf[2 * a - 1] ** 2) - abs(z0[a]) ** 2)
        for a in range(1, ns + 1)
    )
    ok = worst <= 1e-9
    print(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - unit-time flow of the rational "
        f"normal form moves actions by at most {worst:.2e} (tol 1e-9)"
    )
    assert ok


def test_criterion_4_transform_chain_roundtrip():
    m = 16
    rng = np.random.default_rng(401)
    modes = range(1, m + 1)
    max_rt = 0.0
    max_ident = 0.0
    for _ in range(1000):
        u = {a: rng.standard_normal() / a**2 for a in modes}
        v = {a: rng.standard_normal() / a for a in modes}
        norm2 = sum(a**3 * x * x for a, x in u.items()) + sum(a * x * x for a, x in v.items())
        if norm2 > 1.0:
            c = 0.999 / math.sqrt(norm2)
            u = {a: c * x for a, x in u.items()}
            v = {a: c * x for a, x in v.items()}
        state = UVState(u, v, m)
        back = z_to_uv(uv_to_z(state))
        for a in modes:
            max_rt = max(
                max_rt,
                abs(back.u.get(a, 0.0) - state.u.get(a, 0.0)),
                abs(back.v.get(a, 0.0) - state.v.get(a, 0.0)),
            )
        psi = uv_to_psi(state)
        x = elastic_energy(psi.seq)
        eta = psi_to_eta(psi)
        max_ident = max(max_ident, abs(eta.elastic - x * math.sqrt(1.0 + 2.0 * x)))
    ok = max_rt <= 1e-12 and max_ident <= 1e-12
    print(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - chain roundtrip error {max_rt:.2e} "
        f"and dilation identity error {max_ident:.2e} over 1000 states (tol 1e-12)"
    )
    assert ok


def test_criterion_5_simulator_oracles():
    # single-mode oscillator over T=100 against a high-order reference
    q0 = 0.25
    cfg = SimConfig(dt=5e-4, T=100.0, scheme="rk4", M=1, record_stride=10**9, record_states=True)
    traj = simulate(UVState({1: q0}, {}, 1), cfg)
    ref = duffing_reference(1, q0, 0.0, [100.0])
    fin = traj.states[-1]
    duffing_err = max(abs(fin.u.get(1, 0.0) - float(ref[0, -1])), abs(fin.v.get(1, 0.0) - float(ref[1, -1])))

    # long-horizon energy conservation of the split scheme
    rng = np.random.default_rng(3)
    u = {a: 0.05 * a**-3.0 * rng.choice([-1.0, 1.0]) for a in range(1, 17)}
    v = {a: 0.05 * a**-2.0 * rng.choice([-1.0, 1.0]) for a in range(1, 17)}
    st = UVState(u, v, 16)
    traj = simulate(st, SimConfig(dt=1e-3, T=1e3, M=16, record_stride=1000))
    energy_rel = float(np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0])

    # velocity reversal returns to the initial state
    cfg = SimConfig(dt=1e-3, T=10.0, M=16, record_stride=10**9, record_states=True)
    fwd = simulate(st, cfg)
    mid = fwd.states[-1]
    back = simulate(UVState(mid.u, {a: -x for a, x in mid.v.items()}, 16), cfg)
    end = back.states[-1]
    rev_err = max(
        max(abs(end.u.get(a, 0.0) - st.u.get(a, 0.0)) for a in range(1, 17)),
        max(abs(-end.v.get(a, 0.0) - st.v.get(a, 0.0)) for a in range(1, 17)),
    )

    ok = duffing_err <= 1e-8 and energy_rel <= 1e-8 and rev_err <= 1e-8
    print(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - oscillator error {duffing_err:.2e} "
        f"over T=100; relative energy drift {energy_rel:.2e} over T=1e3; reversal "
        f"error {rev_err:.2e} (tol 1e-8 each)"
    )
    assert ok


def test_criterion_6_action_drift_scaling(tmp_path):
    t0 = time.time()
    out = tmp_path / "sweep"
    rc = cli_main([
        "drift-sweep", "--out", str(out), "--seed", "0",
        "--set", "eps=[0.2, 0.1, 0.05]", "--set", "M=16", "--set", "N=16",
        "--set", "weight_s=3.0", "--set", "gamma=0.1", "--set", "dt=0.005",
        "--set", "max_tries=32",
    ])
    elapsed = time.time() - t0
    assert rc == 0
    import json

    payload = json.loads((out / "sweep.json").read_text())
    slope = payload["fit"]["slope"]
    norm_ok = all(p["norm_max"] <= 2.0 * p["norm_initial"] for p in payload["points"])
    ok = slope is not None and 2.5 <= slope <= 3.5 and norm_ok and elapsed <= 600.0
    print(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - drift scaling slope {slope:.3f} "
        f"(window [2.5, 3.5]); norms bounded by 2x initial: {norm_ok}; "
        f"{elapsed:.0f}s (limit 600s)"
    )
    assert slope is not None and 2.5 <= slope <= 3.5
    assert norm_ok
    assert elapsed <= 600.0


def test_criterion_7_measure_law_shape():
    grid = [0.02, 0.05, 0.1, 0.2]
    r, n, m, samples = 2, 8, 8, 10_000
    # largest amplitude the small-data hypothesis admits at the tightest gamma,
    # backed off one part in a thousand so the cap holds in floating point
    eps = math.sqrt(0.999 * 2.0 * min(grid) / ((r + 1) * float(n) ** (4 * r + 2)))

    def scan(weight, seed):
        spec = MeasureSpec(weight, m, samples, seed)
        records = []
        for g in grid:
            records.append(estimate_measure(NonResonanceParams(r, n, g, weight), spec, eps).record())
        return records

    # Gevrey branch: the identical scan, end to end
    gevrey = scan(WeightSpec("gevrey", rho=0.5, theta=0.5), seed=702)
    assert len(gevrey) == len(grid)
    assert all(0.0 <= rec["ci_low"] <= rec["fraction"] <= rec["ci_high"] <= 1.0 for rec in gevrey)
    print("criterion 7 (gevrey leg): scan completed end-to-end; complements "
          + str([round(1.0 - rec["fraction"], 6) for rec in gevrey]))

    sobolev = scan(WeightSpec("sobolev", s=3.0), seed=701)
    xs = [rec["gamma"] for rec in sobolev]
    ys = [1.0 - rec["fraction"] for rec in sobolev]
    for rec in sobolev:
        print(
            f"criterion 7 evidence: gamma={rec['gamma']:g} complement={1.0 - rec['fraction']:.6f} "
            f"ci=[{1.0 - rec['ci_high']:.6f}, {1.0 - rec['ci_low']:.6f}] of {rec['samples']} samples"
        )
    sxx = sum(x * x for x in xs)
    lam = sum(x * y for x, y in zip(xs, ys)) / sxx
    ss_tot = sum(y * y for y in ys)
    if ss_tot > 0.0:
        r2 = 1.0 - sum((y - lam * x) ** 2 for x, y in zip(xs, ys)) / ss_tot
    else:
        r2 = 0.0  # complement identically zero: nothing to fit
    print(
        f"criterion 7: FAIL - through-origin fit slope {lam:.3e}, R^2 {r2:.3f} "
        f"(needs >= 0.9); the non-resonant complement is empty at every admissible "
        f"gamma for eps={eps:.2e}, the largest amplitude the small-data hypothesis "
        f"allows, so the linear-in-gamma law has no measurable signal at this scale"
    )
    assert r2 >= 0.9, (
        "measure-law scan has no signal: complement fractions "
        f"{ys} at gammas {xs} (eps={eps:.3e}); divisor margins at this scale sit "
        "orders of magnitude above the thresholds for every gamma in (0, 1)"
    )


def test_criterion_8_structural_invariant_suite():
    cases = 0
    rng = random.Random(801)

    # parity: bracket of a reversible with a symmetric field stays reversible
    for _ in range(2500):
        x = random_poly_vf(rng, 3)
        chi = random_poly_vf(rng, 3)
        xr = RationalVF({k: QC(0, c.im) for k, c in x.terms.items()})
        cs = RationalVF({k: QC(c.re, 0) for k, c in chi.terms.items()})
        assert commutator(xr, cs).is_reversible_parity()
        cases += 1

    # coefficient growth of the bracket
    for _ in range(2500):
        x = random_poly_vf(rng, 3)
        chi = random_poly_vf(rng, 3)
        if x.is_zero() or chi.is_zero():
            cases += 1
            continue
        l1 = max(len(j) for _, _, j, *_ in x.terms)
        l2 = max(len(j) for _, _, j, *_ in chi.terms)
        bound = 6 * (l1 + l2 + 1) * x.linf_norm() * chi.linf_norm()
        assert commutator(x, chi).linf_norm() <= bound + 1e-12
        cases += 1

    # order bookkeeping and control-condition preservation on divisor-carrying
    # fields: keys drawn from genuine solver output so the divisors are real
    np_cut = 3
    nf3 = resonant_normal_form(3, np_cut)
    q3 = septic_stage_input(nf3)
    chi, z_int, echo_same, echo_down = solve_homological_z3z5(q3, np_cut)
    s_gen, m_gen = quintic_rational_solve(nf3.k5, np_cut)
    pool = []
    for f in (chi, z_int, echo_same, echo_down, s_gen, m_gen,
              nf3.z3, nf3.k5):
        pool.extend(f.terms.items())

    def rand_rational():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            key, coeff = pool[rng.randrange(len(pool))]
            scale = QC(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            if not scale.is_zero():
                terms[key] = coeff * scale
        return RationalVF(terms)

    for _ in range(2500):
        f, g = rand_rational(), rand_rational()
        if f.is_zero() or g.is_zero():
            cases += 2
            continue
        out = commutator(f, g, np_cut)
        want = {a + b for a in f.orders() for b in g.orders()}
        # index-count bookkeeping: every produced key sits at the summed order
        assert {key_order(k) for k in out.terms} <= want
        cases += 1
        assert validate_class(f, np_cut) == []
        assert validate_class(g, np_cut) == []
        assert validate_class(out, np_cut) == []
        cases += 1

    print(
        f"criterion 8: PASS - parity, coefficient bound, order bookkeeping, and "
        f"control preservation over {cases} randomized cases, zero violations"
    )
    assert cases == 10_000
