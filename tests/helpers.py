"""Shared test oracles, written independently of the package internals.

Contents:

- a high-accuracy reference integrator for the single-mode (Duffing) reduction,
- exact rational power-series utilities (for the stiffness-response Taylor
  coefficients),
- ``EC``: exact complex numbers over ``fractions.Fraction``,
- ``ZPoly``: dense-exponent exact polynomials in z_1..z_M, zbar_1..zbar_M with
  differentiation, used to realize the vector-field commutator directly from
  its defining formula (independent of the package's canonical-term engine),
- ``dict_product_key``, ``dict_action_derivatives`` and
  ``product_key_commutator``: one product folded from exponent maps merged
  as dicts; the action derivatives ``dI_d[Y] = zbar_d Y_d + z_d conj(Y_d)``
  per mode summed on exponent maps, cancelled entries dropped; and the
  divisor-carrying bracket with every product folded that way, each divisor
  hit multiplied into those derivatives, and signatures merged per term;
  the references for the packed, interned ``nf_engine.rational.commutator``,
  ``action_transport`` and the coupling fields, term order included, sharing
  no packing code with them,
- ``Dual``, ``dual_evaluate``, ``dual_commutator`` and
  ``dual_action_transport``: forward differentiation with ``a + b t`` mod
  ``PRIME``, ``t^2 = 0``, at a point with ``z`` and ``zbar`` independent;
  ``[X, Y] = DX[Y] - DY[X]`` and ``sum fac z_a I_e dI_d[Y]`` from the
  fields' values alone, divisors from ``divisor_evaluator`` over ``Dual``;
  the order-blind oracle of ``commutator``, its chain-rule tables and
  ``action_transport``,
- ``tuple_taylor_vf``: the interaction fields with their symbols multiplied
  on sorted exponent tuples and folded by ``dict_product_key``; the
  reference for the packed ``nf_engine.poly.taylor_vf``, term order
  included,
- ``bracket_lie_transform``: ``exp(ad_chi)`` on a graded field with every
  bracket computed, the linear field's included, returning the grading up to
  ``keep``; the reference for ``nf_engine.poly._lie_transform``, which takes
  that bracket from the homological equation, term order included,
- ``FreqContext``, ``omega2``, ``omega4`` and ``big_omega``: the scalar
  divisor, one vector at one state, reduced to its irreducible part first
  by ``_reduce``; the reference for ``divisors.divisor_evaluator``,
- ``closed_form_omega4_hessian``: the action Hessian of ``omega4`` written
  out by hand from its three sums; the exact reference for
  ``divisors.omega4_hessian``, which polarizes ``omega4`` itself,
- ``scalar_nonresonance``: the non-resonance test as a scalar loop over the
  irreducible vectors, built from ``big_omega``, ``kappa`` and
  ``_kappa_factor``; the reference for the batched ``DivisorTable``,
- ``zeta_value`` and ``zeta_product``: the quadratic blocks of an index
  vector at one state,
- ``evaluate_exact``: a rational field at a Gaussian-rational state in
  exact arithmetic, with ``divisor_evaluator`` over ``Fraction`` as the
  divisor and ``zbar`` the conjugate of ``z``; the oracle for both the float
  per-term loop ``nf_engine.rational.evaluate_vf``, met at dyadic states
  where the float state is the exact one, and
  ``nf_engine.rational.evaluate_mod_p``, met through ``mod_prime``, the
  reduction of a Gaussian rational mod ``PRIME``,
- ``di_functional``: the rate of change of one action along a field at a
  state, from ``evaluate_vf``; the float reference for the solver tests,
  which check that normal forms preserve every action,
- ``scalar_validate_class``: class validation checking every divisor of
  every term afresh, with the product control over all index modes; the
  reference for ``nf_engine.rational.validate_class``, which checks each
  distinct divisor vector once,
- ``_rotate`` and ``_step_strang``: the split step on the real pair
  ``(u, v)``, with a cosine/sine rotation per half step and the fixed point
  seeded at the midpoint stiffness; the reference for the complex-variable
  stepper behind ``simulator.simulate``,
- ``scalar_strang_split``: the complex-variable split step with one
  ``exp`` per rotation, one fresh array per change of frame and a finiteness
  test of every element, its fixed point seeded by the quadratic
  ``c_prev / 3 - 2 c_left + 8/3 c_mid`` through the previous step's start
  stiffness, or by the line ``2 c_mid - c_left`` on the first step and where
  ``dt M sqrt(c_left) > MAX_PHASE_STEP``; the bit-for-bit reference for the
  kernel ``simulator._strang_split``, which reuses a phase factor while the
  stiffness repeats and makes about 2.0 passes a step on the drift-sweep
  benchmark (2.46 with the line alone),
- ``scalar_record`` and ``scalar_simulate``: the energy, actions, weighted
  norm and drift of one recorded sample at a time, each dot product a 1-D
  ``@``, with a blow-up raised at the first record or state that is not
  finite, every state checked; the reference for the block-wise records of
  ``simulator.simulate`` and for the time and message of its blow-ups,
- ``scalar_trajectory_to_csv``: the sample table written one row at a time;
  the reference for the block-wise ``simulator.trajectory_to_csv``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

import numpy as np
from scipy.integrate import solve_ivp

from stringnf.core import ComplexSeq, canonicalize, delta_sum, weighted_norm
from stringnf.divisors import (
    _kappa_factor,
    _omega4_raw,
    divisor_evaluator,
    enumerate_irr_indices,
    irr,
    kappa,
)
from stringnf.nf_engine.rational import (
    ANTI,
    DIAG,
    PRIME,
    QC,
    SQRT_MINUS_ONE,
    RationalVF,
    _linear_derivative,
    _quadratic_derivative,
    canonical_from_exponents,
    commutator,
    conj_index_vector,
    evaluate_vf,
    key_exponents,
)
from stringnf import simulator
from stringnf.simulator import MAX_PHASE_STEP, SimConfig, SimulationBlowup, Trajectory, _slope2
from stringnf.transforms import UVState


# ---------------------------------------------------------------------------
# Duffing reference

def duffing_reference(a: int, q0: float, p0: float, t_eval):
    """Reference solution of q'' + (1 + a^2 q^2) a^2 q = 0 via DOP853."""

    def rhs(_t, y):
        q, p = y
        return [p, -(1.0 + a * a * q * q) * a * a * q]

    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    sol = solve_ivp(
        rhs,
        (0.0, float(t_eval[-1])),
        [q0, p0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        t_eval=t_eval,
        dense_output=False,
    )
    assert sol.success
    return sol.y


# ---------------------------------------------------------------------------
# exact power series over Fraction (coefficient lists, index = power)

def series_mul(A: list[Fraction], B: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, ai in enumerate(A[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(B[: n - i]):
            out[i + j] += ai * bj
    return out


def series_compose(A: list[Fraction], B: list[Fraction], n: int) -> list[Fraction]:
    """A(B(y)) with B(0) = 0."""
    assert B[0] == 0
    out = [Fraction(0)] * n
    out[0] = A[0]
    Bk = [Fraction(0)] * n
    Bk[0] = Fraction(1)
    for k in range(1, min(len(A), n)):
        Bk = series_mul(Bk, B, n)
        if A[k] == 0:
            continue
        for i in range(n):
            out[i] += A[k] * Bk[i]
    return out


def binom_series(alpha: Fraction, n: int) -> list[Fraction]:
    """(1 + t)^alpha as a series in t."""
    out = [Fraction(1)]
    c = Fraction(1)
    for k in range(1, n):
        c = c * (alpha - (k - 1)) / k
        out.append(c)
    return out


def revert_series(G: list[Fraction], n: int) -> list[Fraction]:
    """Compositional inverse of G with G(0)=0, G'(0)=1."""
    assert G[0] == 0 and G[1] == 1
    F = [Fraction(0)] * n
    F[1] = Fraction(1)
    for k in range(2, n):
        # impose [y^k] G(F(y)) = 0
        comp = series_compose(G, F, k + 1)
        F[k] = -comp[k]
    return F


def stiffness_response_series(n: int = 6) -> list[Fraction]:
    """Taylor coefficients of f(y) = (1 + 2 phi(y))^(-3/2), phi inverting x sqrt(1+2x).

    Uses the identity sqrt(1 + 2 phi(y)) = y / phi(y), so f = (phi/y)^3 needs
    only rational series arithmetic. Returns [f(0), f'(0), f''(0)/2!, ...].
    """
    m = n + 2
    # g(x) = x (1+2x)^{1/2}
    root = binom_series(Fraction(1, 2), m)  # (1+t)^{1/2}
    g = [Fraction(0)] * m
    for k, c in enumerate(root):
        if k + 1 < m:
            g[k + 1] = c * 2**k  # t = 2x
    phi = revert_series(g, m)
    # (phi/y) as a series in y
    ratio = phi[1:] + [Fraction(0)]
    cube = series_mul(series_mul(ratio, ratio, m), ratio, m)
    return cube[:n]


# ---------------------------------------------------------------------------
# exact complex numbers

class EC:
    """Complex numbers with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _ec(o)
        return EC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return EC(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-_ec(o))

    def __rsub__(self, o):
        return _ec(o) + (-self)

    def __mul__(self, o):
        o = _ec(o)
        return EC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self):
        return EC(self.re, -self.im)

    def __eq__(self, o):
        o = _ec(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"EC({self.re}, {self.im})"

    def to_complex(self):
        return complex(self.re, self.im)


def _ec(x) -> EC:
    if isinstance(x, EC):
        return x
    return EC(x)


EC_I = EC(0, 1)


# ---------------------------------------------------------------------------
# exact polynomials in z, zbar

class ZPoly:
    """Exact polynomial in z_1..z_M, zbar_1..zbar_M.

    Keys are pairs (alphas, betas): tuples of length M with the exponents of
    z_b and zbar_b. Values are EC. Supports +, *, scalar multiply, d/dz_b,
    d/dzbar_b, conjugation, and numeric evaluation.
    """

    def __init__(self, M: int, terms: Mapping | None = None):
        self.M = M
        self.terms: dict = {}
        if terms:
            for k, c in terms.items():
                c = _ec(c)
                if c:
                    self.terms[k] = c

    @classmethod
    def zero(cls, M):
        return cls(M)

    @classmethod
    def const(cls, M, c):
        z = (0,) * M
        return cls(M, {(z, z): _ec(c)})

    @classmethod
    def var(cls, M, b, bar=False):
        al = [0] * M
        be = [0] * M
        (be if bar else al)[b - 1] = 1
        return cls(M, {(tuple(al), tuple(be)): EC(1)})

    def _add_term(self, key, c):
        cur = self.terms.get(key)
        tot = c + cur if cur is not None else c
        if tot:
            self.terms[key] = tot
        elif cur is not None:
            del self.terms[key]

    def __add__(self, o):
        out = ZPoly(self.M, self.terms)
        for k, c in o.terms.items():
            out._add_term(k, c)
        return out

    def __sub__(self, o):
        return self + o.scale(EC(-1))

    def scale(self, c):
        c = _ec(c)
        if not c:
            return ZPoly(self.M)
        return ZPoly(self.M, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, o):
        out = ZPoly(self.M)
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in o.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                out._add_term(key, c1 * c2)
        return out

    def diff(self, b: int, bar: bool = False):
        out = ZPoly(self.M)
        i = b - 1
        for (al, be), c in self.terms.items():
            e = (be if bar else al)[i]
            if e == 0:
                continue
            al2, be2 = list(al), list(be)
            (be2 if bar else al2)[i] = e - 1
            out._add_term((tuple(al2), tuple(be2)), c * e)
        return out

    def conj(self):
        return ZPoly(self.M, {(be, al): c.conj() for (al, be), c in self.terms.items()})

    def __eq__(self, o):
        return self.M == o.M and self.terms == o.terms

    def is_zero(self):
        return not self.terms

    def eval(self, z: dict[int, complex]) -> complex:
        out = 0j
        for (al, be), c in self.terms.items():
            val = c.to_complex()
            for i, e in enumerate(al):
                if e:
                    val *= z.get(i + 1, 0j) ** e
            for i, e in enumerate(be):
                if e:
                    val *= z.get(i + 1, 0j).conjugate() ** e
            out += val
        return out


def oracle_commutator(X: dict[int, ZPoly], Y: dict[int, ZPoly], M: int) -> dict[int, ZPoly]:
    """[X, Y] = DX[Y] - DY[X] computed directly from component polynomials.

    ``X[a]`` is the z_a-component; zbar-components follow by conjugation
    (conjugate-closed real vector fields). Returns the z_a-components of the
    commutator.
    """

    def directional(A: dict[int, ZPoly], B: dict[int, ZPoly]) -> dict[int, ZPoly]:
        out = {}
        for a, comp in A.items():
            acc = ZPoly(M)
            for b in range(1, M + 1):
                Bb = B.get(b, ZPoly(M))
                d1 = comp.diff(b, bar=False)
                if not d1.is_zero() and not Bb.is_zero():
                    acc = acc + d1 * Bb
                d2 = comp.diff(b, bar=True)
                if not d2.is_zero() and not Bb.is_zero():
                    acc = acc + d2 * Bb.conj()
            if not acc.is_zero():
                out[a] = acc
        return out

    DXY = directional(X, Y)
    DYX = directional(Y, X)
    out = {}
    for a in set(DXY) | set(DYX):
        p = DXY.get(a, ZPoly(M)) - DYX.get(a, ZPoly(M))
        if not p.is_zero():
            out[a] = p
    return out


def dict_product_key(a: int, x, y, conj_y: bool, extra=()):
    """Key of the ``d/dz_a`` monomial ``x * y`` (``x * conj(y)`` with
    ``conj_y``) times the factors ``(m, da, db)`` of ``extra``, with the
    exponent maps merged as dicts: ``product_key`` without the packing."""
    merged = {m: list(e) for m, e in x.items()}
    for m, (p, q) in y.items():
        t = merged.setdefault(m, [0, 0])
        t[0] += q if conj_y else p
        t[1] += p if conj_y else q
    for m, da, db in extra:
        t = merged.setdefault(m, [0, 0])
        t[0] += da
        t[1] += db
    return canonical_from_exponents(a, merged)


def tuple_taylor_vf(l: int, M: int) -> RationalVF:
    """The interaction field ``taylor_vf(l, M)`` with its symbols on sorted
    ``((mode, (alpha, beta)), ...)`` tuples and every term folded by
    ``dict_product_key``; the reference for the packed construction, term
    order included."""

    def mul(p, q):
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                exp = {m: [e[0], e[1]] for m, e in m1}
                for m, e in m2:
                    t = exp.setdefault(m, [0, 0])
                    t[0] += e[0]
                    t[1] += e[1]
                key = tuple(sorted((m, (e[0], e[1])) for m, e in exp.items()))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return {k: v for k, v in out.items() if v != 0}

    sym, A = {}, {}
    for b in range(1, M + 1):
        sym[((b, (2, 0)),)] = Fraction(1)
        sym[((b, (0, 2)),)] = Fraction(-1)
        A[((b, (2, 0)),)] = Fraction(1, b)
        A[((b, (0, 2)),)] = Fraction(1, b)
        A[((b, (1, 1)),)] = Fraction(2, b)
    for _ in range(l - 1):
        sym = mul(sym, A)
    pref = QC(0, -stiffness_response_series(l)[l - 1] / (4**l)) / math.factorial(l - 1)
    acc = {}
    for a in range(1, M + 1):
        for mon, c in sym.items():
            key = dict_product_key(a, dict(mon), {}, False, ((a, 0, 1),)) + ((), (), ())
            prev = acc.get(key)
            acc[key] = pref * c if prev is None else prev + pref * c
    return RationalVF(acc)


def dict_action_derivatives(field: RationalVF) -> dict:
    """``W_d = zbar_d Y_d + z_d conj(Y_d)`` per field mode ``d`` of ``field``, summed on exponent maps.

    Each mode maps to ``[(exponents, sections, coefficient), ...]`` in
    first-seen order, the two routes of each term in turn, with the entries
    whose coefficients cancel dropped; the reference for the packed
    ``nf_engine.rational._action_derivatives``.
    """
    out: dict = {}
    for key, c in field.terms.items():
        d, exp = key[0], key_exponents(key)
        w = out.setdefault(d, {})
        for conj, (da, db), coef in ((False, (0, 1), c), (True, (1, 0), c.conj())):
            merged = {m: [q, p] if conj else [p, q] for m, (p, q) in exp.items()}
            t = merged.setdefault(d, [0, 0])
            t[0] += da
            t[1] += db
            k = (tuple(sorted((m, tuple(e)) for m, e in merged.items() if e != [0, 0])), key[3:])
            w[k] = w[k] + coef if k in w else coef
    return {d: [(dict(e), s, c) for (e, s), c in w.items() if not c.is_zero()] for d, w in out.items()}


def product_key_commutator(x: RationalVF, y: RationalVF, N: Optional[int] = None) -> RationalVF:
    """[X, Y] of divisor-carrying fields, one exponent-map fold per product.

    The same sums in the same order as the package's bracket: per pair of
    divisor signatures the numerator bracket, then the chain rule on each
    divisor of ``x`` along ``y`` and of ``y`` along ``x``, each divisor hit
    multiplied into the other field's ``dict_action_derivatives`` entry by
    entry.
    """

    def merge(d1, d2):
        return tuple(tuple(sorted(s1 + s2)) for s1, s2 in zip(d1, d2))

    def add(acc, key, c):
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c

    def actors(terms):
        out = {}
        for key, c, exp in terms:
            out.setdefault(key[0], []).append((c, exp, key[3:]))
        return out

    def transport(acc, a, xe, w, extra, fac, sections):
        for ew, sw, cw in w:
            add(acc, dict_product_key(a, xe, ew, False, extra) + merge(sections, sw), fac * cw)

    def directional(part, x_by_mode, y_terms, sign):
        for key, cY, expY in y_terms:
            a = key[0]
            for b, (alpha, beta) in expY.items():
                for cX, expX, _ in x_by_mode.get(b, ()):
                    if alpha:
                        add(part, dict_product_key(a, expY, expX, False, ((b, -1, 0),)), cX * cY * (sign * alpha))
                    if beta:
                        add(part, dict_product_key(a, expY, expX, True, ((b, 0, -1),)), cX.conj() * cY * (sign * beta))

    def divisor_part(acc, xt, y, sign):
        wy = dict_action_derivatives(y)
        for key, cx, ex in xt:
            a, _, _, h2, h4, kk = key
            for sec_idx, sec in ((0, h2), (1, h4), (2, kk)):
                for v, count in Counter(sec).items():
                    target = 0 if sec_idx == 0 else 1
                    routed = tuple(s + (v,) if i == target else s for i, s in enumerate((h2, h4, kk)))
                    for d, lam in _linear_derivative(v):
                        if wy.get(d):
                            fac = cx * QC(Fraction(-count * sign) * lam)
                            transport(acc, a, ex, wy[d], (), fac, routed)
                    if sec_idx == 0:
                        continue
                    for d, e, cde in _quadratic_derivative(v, N):
                        if wy.get(d):
                            fac = cx * QC(Fraction(-count * sign) * cde)
                            transport(acc, a, ex, wy[d], ((e, 1, 1),), fac, (h2, h4, kk + (v,)))

    def groups(terms):
        grouped = {}
        for term in terms:
            grouped.setdefault(term[0][3:], []).append(term)
        if N is None and any(sig[1] or sig[2] for sig in grouped):
            raise ValueError("fields with corrected-frequency divisors need the cutoff N")
        return [(sig, t, actors(t)) for sig, t in grouped.items()]

    xt = [(key, c, key_exponents(key)) for key, c in x.terms.items()]
    yt = [(key, c, key_exponents(key)) for key, c in y.terms.items()]
    gx, gy = groups(xt), groups(yt)
    acc = {}
    for sx, tx, mx in gx:
        for sy, ty, my in gy:
            part = {}
            directional(part, my, tx, +1)
            directional(part, mx, ty, -1)
            for k, c in part.items():
                if not c.is_zero():
                    add(acc, k + merge(sx, sy), c)
    divisor_part(acc, xt, y, +1)
    divisor_part(acc, yt, x, -1)
    return RationalVF(acc)


def bracket_lie_transform(fields, chi: RationalVF, chi_order: int, keep: int):
    """``exp(ad_chi)`` on a graded field with every bracket computed.

    Returns the transformed grading; a bracket whose order passes ``keep`` is
    cut without being computed.
    """
    out = {}
    for p, x in fields.items():
        term = x
        k = 0
        order = p
        while not term.is_zero() and order <= keep:
            prev = out.get(order)
            out[order] = term if prev is None else prev + term
            k += 1
            order = p + k * chi_order
            if order > keep:
                break
            term = commutator(term, chi)
            if k > 1:
                term = term.scale(Fraction(1, k))
    return out


# ---------------------------------------------------------------------------
# scalar evaluation and class validation of rational fields

def zeta_value(j: tuple[int, int], z: ComplexSeq) -> complex:
    """Value of the quadratic block selected by ``j = (delta, a)`` at ``z``."""
    delta, a = j
    v = z[a]
    if delta == 1:
        return v * v
    if delta == -1:
        vb = v.conjugate()
        return vb * vb
    return v * v.conjugate()


def zeta_product(jvec: Iterable[tuple[int, int]], z: ComplexSeq) -> complex:
    """Product of the quadratic blocks of an index vector (1 for the empty one)."""
    out: complex = 1.0 + 0j
    for j in jvec:
        out *= zeta_value(j, z)
    return out


def _zeta_exact(j, z: Mapping[int, QC]) -> QC:
    """Product of the quadratic blocks of an index vector at a Gaussian-rational state."""
    out = QC(1)
    for delta, m in j:
        v = z.get(m)
        if v is None:
            return QC()
        if delta == 1:
            out = out * v * v
        elif delta == -1:
            vb = v.conj()
            out = out * vb * vb
        else:
            out = out * v * v.conj()
    return out


def evaluate_exact(q: RationalVF, z: Mapping[int, QC], N: int) -> dict:
    """Exact component values ``d/dz_a`` at a Gaussian-rational state, ``zbar`` its conjugate.

    Terms whose numerator is zero are skipped; a divisor of any other term
    that vanishes exactly raises ``ZeroDivisionError``.
    """
    acts = {m: Fraction(v.n * v.n + v.m * v.m, v.d * v.d) for m, v in z.items() if not v.is_zero()}
    divisor = divisor_evaluator(acts, N, Fraction(1))
    out: dict = {}
    for key, c in q.terms.items():
        a, kind, j, h2, h4, kk = key
        za = z.get(a)
        if za is None or za.is_zero():
            continue
        pref = za if kind == DIAG else za.conj()
        num = c * pref * _zeta_exact(j, z)
        if num.is_zero():
            continue
        den = Fraction(1)
        for order, sec in ((2, h2), (4, h4), (4, kk)):
            for v in sec:
                val = divisor(v, order)
                if val == 0:
                    raise ZeroDivisionError(f"divisor {v} vanishes exactly at this state")
                den *= val
        term = num * QC(1 / den)
        prev = out.get(a)
        out[a] = term if prev is None else prev + term
    return out


def mod_prime(x: QC) -> int:
    """A Gaussian rational mod ``PRIME``, with i mapped to ``SQRT_MINUS_ONE``."""
    return (x.n + SQRT_MINUS_ONE * x.m) * pow(x.d, -1, PRIME) % PRIME


class Dual:
    """``a + b t`` mod ``PRIME`` with ``t^2 = 0``: a value and its derivative along ``t``.

    Ints and Fractions enter as constants, so ``divisor_evaluator`` runs over
    it with ``one=Dual(1)``; dividing by a value part that is zero mod
    ``PRIME`` raises ``ZeroDivisionError``.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = a % PRIME, b % PRIME

    @staticmethod
    def of(x) -> "Dual":
        if isinstance(x, Dual):
            return x
        x = Fraction(x)
        return Dual(x.numerator * pow(x.denominator, -1, PRIME))

    def __add__(self, other) -> "Dual":
        other = Dual.of(other)
        return Dual(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "Dual":
        return Dual(-self.a, -self.b)

    def __sub__(self, other) -> "Dual":
        return self + -Dual.of(other)

    def __mul__(self, other) -> "Dual":
        other = Dual.of(other)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def inverse(self) -> "Dual":
        if not self.a:
            raise ZeroDivisionError("a dual number whose value is zero mod PRIME")
        inv = pow(self.a, -1, PRIME)
        return Dual(inv, -self.b * inv * inv)

    def __truediv__(self, other) -> "Dual":
        return self * Dual.of(other).inverse()

    def __rtruediv__(self, other) -> "Dual":
        return Dual.of(other) * self.inverse()


def dual_evaluate(q: RationalVF, z: Mapping[int, Dual], zbar: Mapping[int, Dual], N: int,
                  i_unit: int = SQRT_MINUS_ONE) -> dict:
    """Component values ``d/dz_a`` of a field at dual ``z`` and ``zbar``, an absent mode zero.

    i maps to ``i_unit``, and the divisors are ``divisor_evaluator``'s over
    ``Dual`` at the actions ``z_b zbar_b``, so the ``t`` parts carry their
    derivatives too. With ``z`` and ``zbar`` swapped and ``i_unit`` the other
    square root of -1, the values are those of the ``d/dzbar_a`` components.
    """
    zero = Dual()
    divisor = divisor_evaluator({m: z[m] * zbar[m] for m in z.keys() & zbar.keys()}, N, Dual(1))
    out: dict = {}
    for (a, kind, j, h2, h4, kk), c in q.terms.items():
        num = (z if kind == DIAG else zbar).get(a, zero) * Dual(c.n + i_unit * c.m) / c.d
        for delta, m in j:
            x, y = z.get(m, zero), zbar.get(m, zero)
            num = num * (x * x if delta == 1 else y * y if delta == -1 else x * y)
        for order, sec in ((2, h2), (4, h4), (4, kk)):
            for v in sec:
                num = num / divisor(v, order)
        out[a] = out.get(a, zero) + num
    return out


def _moved_along(y: RationalVF, z: Mapping[int, int], zbar: Mapping[int, int], N: int):
    """The dual point ``(z + t Y, zbar + t conj(Y))`` with ``Y`` at the point ``(z, zbar)`` mod ``PRIME``."""
    zd, zbd = ({m: Dual(v) for m, v in p.items()} for p in (z, zbar))
    yz = dual_evaluate(y, zd, zbd, N)
    yzbar = dual_evaluate(y, zbd, zd, N, PRIME - SQRT_MINUS_ONE)
    return tuple({m: Dual(p.get(m, 0), t[m].a if m in t else 0) for m in p.keys() | t.keys()}
                 for p, t in ((z, yz), (zbar, yzbar)))


def dual_commutator(x: RationalVF, y: RationalVF, z: Mapping[int, int], zbar: Mapping[int, int], N: int) -> dict:
    """``[X, Y] = DX[Y] - DY[X]`` mod ``PRIME`` at the point ``(z, zbar)``, by forward differentiation.

    ``DX[Y]`` is the ``t`` part of ``X`` at the point moved along ``Y``; the
    order of the terms plays no part.
    """
    dxy = dual_evaluate(x, *_moved_along(y, z, zbar, N), N)
    dyx = dual_evaluate(y, *_moved_along(x, z, zbar, N), N)
    return {a: (dxy.get(a, Dual()) - dyx.get(a, Dual())).b for a in dxy.keys() | dyx.keys()}


def dual_action_transport(y: RationalVF, couplings, z: Mapping[int, int], zbar: Mapping[int, int], N: int) -> dict:
    """``sum fac z_a I_e dI_d[Y]`` mod ``PRIME`` over couplings ``(a, d, e, fac)`` at the point ``(z, zbar)``,
    ``I_0 = 1``, with ``dI_d[Y]`` the ``t`` part of ``I_d`` at the point moved along ``Y``."""
    zd, zbd = _moved_along(y, z, zbar, N)
    out: dict = {}
    for a, d, e, fac in couplings:
        action = z.get(e, 0) * zbar.get(e, 0) if e else 1
        di = (zd.get(d, Dual()) * zbd.get(d, Dual())).b
        out[a] = (out.get(a, 0) + mod_prime(fac) * z.get(a, 0) * action * di) % PRIME
    return out


def di_functional(a: int, chi: RationalVF, z: ComplexSeq) -> complex:
    """Derivative of the action ``I_a`` along a field, evaluated at a state.

    For conjugation-closed fields this is ``2 Re(conj(z_a) X_a)``; it comes
    back as a complex number whose imaginary part is zero up to rounding.
    """
    comps = evaluate_vf(chi, z)
    x = comps.get(a, 0j)
    za = z[a]
    return za.conjugate() * x + za * x.conjugate()


def value_bits(values: dict) -> list:
    """Components of an evaluation in their order, each part as its exact bits."""
    return [(a, v.real.hex(), v.imag.hex()) for a, v in values.items()]


def scalar_validate_class(vf: RationalVF, N: int) -> list:
    """Structural violations of a field, every divisor of every term checked afresh."""
    bad = []
    for key in vf.terms:
        a, kind, j, h2, h4, kk = key
        where = f"term {key}"
        if kind == DIAG:
            if delta_sum(j) != 0:
                bad.append(f"{where}: diag term with momentum {delta_sum(j)}")
        elif kind == ANTI:
            if delta_sum(j) != a:
                bad.append(f"{where}: anti term with momentum {delta_sum(j)} != {a}")
        else:
            bad.append(f"{where}: unknown kind {kind!r}")
            continue
        if not 1 <= a <= N:
            bad.append(f"{where}: field mode {a} outside 1..{N}")
        if any(m > N for _, m in j):
            bad.append(f"{where}: index mode beyond cutoff {N}")
        divs = h2 + h4 + kk
        if not divs:
            continue
        if len(j) < 2:
            bad.append(f"{where}: divisor-carrying term needs at least 2 indices")
        for v in divs:
            if delta_sum(v) != 0:
                bad.append(f"{where}: divisor {v} has momentum {delta_sum(v)}")
            elif irr(v, 0) != v:
                bad.append(f"{where}: divisor {v} is not irreducible")
            if not 2 <= len(v) <= len(j) + 1:
                bad.append(f"{where}: divisor {v} has size {len(v)}, allowed 2..{len(j) + 1}")
            if any(m > N for _, m in v):
                bad.append(f"{where}: divisor {v} has a mode beyond cutoff {N}")
            if conj_index_vector(v) < v:
                bad.append(f"{where}: divisor {v} is not flip-canonical")
        hvec = h2 + h4
        if hvec:
            lhs = 1
            for v in hvec:
                lhs *= kappa(v)
            rhs = 1
            for _, m in j:
                rhs *= m
            if lhs > rhs:
                bad.append(f"{where}: weight-product control fails ({lhs} > {rhs})")
    return bad


# ---------------------------------------------------------------------------
# scalar divisors

@dataclass(frozen=True)
class FreqContext:
    """Nonnegative actions on modes ``1..N``; the source of all divisor values."""

    actions: Mapping[int, float]
    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("cutoff N must be >= 1")
        clean: dict[int, float] = {}
        for a, x in self.actions.items():
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"mode {a!r} is not a positive integer")
            if a > self.N:
                raise ValueError(f"action mode {a} exceeds cutoff N={self.N}")
            x = float(x)
            if x < 0 or not math.isfinite(x):
                raise ValueError(f"action I_{a} = {x!r} must be finite and >= 0")
            if x != 0.0:
                clean[a] = x
        object.__setattr__(self, "actions", clean)

    @classmethod
    def from_seq(cls, z: ComplexSeq, N: int) -> "FreqContext":
        acts = {a: z.action(a) for a in sorted(z.data) if a <= N}
        return cls(acts, N)

    def I(self, a: int) -> float:
        return self.actions.get(a, 0.0)

    @cached_property
    def _omega4_table(self) -> dict[int, float]:
        return {a: _omega4_raw(a, self.actions, self.N) for a in range(1, self.N + 1)}


def omega2(a: int, ctx: FreqContext) -> float:
    """Leading frequency correction ``I_a / 4`` inside the cutoff, else 0."""
    if a < 0:
        raise ValueError("mode must be >= 0")
    if a == 0 or a > ctx.N:
        return 0.0
    return 0.25 * ctx.I(a)


def omega4(a: int, ctx: FreqContext) -> float:
    """Second frequency correction, quadratic in the actions.

    Inside the cutoff it has a self part and two cross sums; beyond the cutoff
    only the tail sum survives. The ``d = a`` term is excluded exactly, never
    regularized.
    """
    if a < 0:
        raise ValueError("mode must be >= 0")
    if a == 0:
        return 0.0
    if a <= ctx.N:
        return ctx._omega4_table[a]
    return _omega4_raw(a, ctx.actions, ctx.N)


def closed_form_omega4_hessian(m: int, N: int) -> tuple[tuple[int, int, Fraction], ...]:
    """Constant action Hessian of ``omega4`` at mode ``m``, differentiated by hand.

    ``omega4(m) = -27/(64 m) I_m^2 - I_m/8 sum_e (3/e + e/(e^2 - m^2)) I_e
    + m/16 sum_e I_e^2/(e^2 - m^2)`` over ``e != m``; entries are ``(d, e,
    value)``, sorted, with both orders of each off-diagonal pair.
    """
    if not 1 <= m <= N:
        raise ValueError(f"mode {m} outside cutoff 1..{N}")
    entries = [(m, m, Fraction(-27, 32 * m))]
    for e in range(1, N + 1):
        if e == m:
            continue
        cross = -(Fraction(3, e) + Fraction(e, e * e - m * m)) / 8
        entries.append((m, e, cross))
        entries.append((e, m, cross))
        entries.append((e, e, Fraction(m, 8 * (e * e - m * m))))
    return tuple(sorted(entries))


def _reduce(jvec: Iterable[tuple[int, int]]) -> tuple[tuple, int, tuple]:
    """Canonical form, momentum and irreducible part; negative momentum is a domain error."""
    v = canonicalize(jvec)
    d = delta_sum(v)
    if d < 0:
        raise ValueError("momentum is negative; conjugate the index vector first")
    return v, d, irr(v, d)


def big_omega(jvec: Iterable[tuple[int, int]], ctx: FreqContext, order: int = 2) -> float:
    """Small divisor of an index vector at the given correction order (2 or 4).

    Computed on the irreducible part, so integrable vectors give exactly 0.0
    and ``big_omega(j) == big_omega(irr(j))`` holds by construction. Negative
    momentum is a domain error; conjugate the vector instead.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    _, _, red = _reduce(jvec)
    if not red:
        return 0.0
    b = delta_sum(red)

    def w(a: int) -> float:
        return omega2(a, ctx) if order == 2 else omega2(a, ctx) + omega4(a, ctx)

    total = sum(delta * w(a) for delta, a in red)
    return 2.0 * (total - w(b))


# ---------------------------------------------------------------------------
# scalar non-resonance test

def scalar_nonresonance(z, params) -> tuple[float, Optional[tuple], Optional[int]]:
    """Worst margin, witness vector and witness order of ``z``, one divisor at a time.

    Walks ``enumerate_irr_indices`` and evaluates both orders of every
    vector with the scalar ``big_omega``; a strictly smaller ratio replaces
    the current minimum, so ties keep the first divisor. The zero state gives
    ``(0.0, None, None)``.
    """
    nrm = weighted_norm(z, params.weight)
    if nrm == 0.0:
        return 0.0, None, None
    nz2 = nrm * nrm
    ctx = FreqContext.from_seq(z, params.N)
    gamma = params.gamma
    best = math.inf
    best_j = None
    best_order = None
    for j in enumerate_irr_indices(params.r, params.N):
        l = len(j)
        kf = _kappa_factor(kappa(j), params.weight)
        base = gamma * nz2 * float(params.N) ** (-4 * l - 2)
        o2 = abs(big_omega(j, ctx, 2))
        o4 = abs(big_omega(j, ctx, 4))
        for order, val, thr in ((2, o2, base * kf), (4, o4, base * max(kf, gamma * nz2))):
            ratio = val / thr
            if ratio < best:
                best = ratio
                best_j = j
                best_order = order
    return best, best_j, best_order


# ---------------------------------------------------------------------------
# Strang steps: on the real pair, and on w one rotation at a time


def _rotate(u: np.ndarray, v: np.ndarray, omega: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    # exact flow of  u' = v,  v' = -omega^2 u  over time h
    th = omega * h
    c = np.cos(th)
    s = np.sin(th)
    return c * u + (s / omega) * v, -omega * s * u + c * v


def _step_strang(
    u: np.ndarray,
    v: np.ndarray,
    dt: float,
    a1: np.ndarray,
    a2: np.ndarray,
    linear_only: bool,
) -> tuple[np.ndarray, np.ndarray]:
    if linear_only:
        return _rotate(u, v, a1, dt)
    c_left = 1.0 + _slope2(u, a2)
    uh, vh = _rotate(u, v, a1 * math.sqrt(c_left), 0.5 * dt)
    # second half freezes the stiffness at the step's end state
    c = 1.0 + _slope2(uh, a2)
    for _ in range(12):
        un, vn = _rotate(uh, vh, a1 * math.sqrt(c), 0.5 * dt)
        c_new = 1.0 + _slope2(un, a2)
        if abs(c_new - c) <= 1e-15 * c:
            c = c_new
            break
        c = c_new
    return _rotate(uh, vh, a1 * math.sqrt(c), 0.5 * dt)


def _stiffness_w(w: np.ndarray) -> float:
    # 1 + S with S = sum_a a^2 u_a^2 = sum_a (Re w_a)^2
    x = w.real
    return 1.0 + float(x @ x)


def _rotate_w(w: np.ndarray, minus_ih_a: np.ndarray, c: float) -> np.ndarray:
    # exact flow over time h at frozen stiffness c, with minus_ih_a = -i h a:
    # w_a -> w_a exp(-i a sqrt(c) h)
    return w * np.exp(minus_ih_a * math.sqrt(c))


def _reframe_w(w: np.ndarray, ratio: float) -> np.ndarray:
    # the same (u, v) in the frame of another stiffness: Im w = v / sqrt(c)
    # is scaled by sqrt(c_old / c_new), with ratio = c_old / c_new
    out = w.copy()
    out.imag *= math.sqrt(ratio)
    return out


def scalar_strang_split(dt: float, a1: np.ndarray, a2: np.ndarray, linear_only: bool):
    """``(start, step, unpack, finite)`` of the split scheme, one call per rotation and change of frame.

    The state is ``(w, c, c_w, c_prev)`` as in ``simulator._strang_split``.
    Every rotation computes its own factor ``exp(-i a sqrt(c) h)``, and
    ``finite`` tests every element of ``w``.
    """
    M = len(a1)
    half = (-0.5j * dt) * a1
    full = (-1j * dt) * a1

    def start(u: np.ndarray, v: np.ndarray):
        w = a1 * u + 1j * v
        return w, 1.0, _stiffness_w(w), None

    def step(state):
        w, c, c_left, c_prev = state
        if linear_only:
            return _rotate_w(w, full, 1.0), 1.0, 1.0, 1.0
        if c_left != c:
            w = _reframe_w(w, c / c_left)
        wh = _rotate_w(w, half, c_left)
        c_mid = _stiffness_w(wh)
        first_step = c_prev is None
        resolved = dt * M * math.sqrt(c_left) <= MAX_PHASE_STEP
        if first_step or not resolved:
            c = max(1.0, 2.0 * c_mid - c_left)  # the line through c_left and c_mid
        else:
            # the quadratic through c_prev, c_left and c_mid at t - dt, t and t + dt/2, taken at t + dt
            c = max(1.0, c_prev / 3.0 - 2.0 * c_left + 8.0 / 3.0 * c_mid)
        for _ in range(12):
            wn = _rotate_w(_reframe_w(wh, c_left / c), half, c)
            c_new = _stiffness_w(wn)
            if c_new == c:
                return wn, c, c, c_left  # the closing rotation would repeat this one
            converged = abs(c_new - c) <= 1e-15 * c
            c = c_new
            if converged:
                break
        wn = _rotate_w(_reframe_w(wh, c_left / c), half, c)
        return wn, c, _stiffness_w(wn), c_left

    def unpack(states: list):
        w = np.array([state[0] for state in states])
        c = np.array([state[1] for state in states])
        return w.real / a1, w.imag * np.sqrt(c)[:, None]

    return start, step, unpack, lambda state: bool(np.isfinite(state[0]).all())


# ---------------------------------------------------------------------------
# per-sample records


def scalar_record(
    t: float, u: np.ndarray, v: np.ndarray, acts0: np.ndarray, a1: np.ndarray, a2: np.ndarray, w2: np.ndarray
) -> tuple[float, np.ndarray, float, float]:
    """Energy, actions, weighted norm and drift of the sample ``(u, v)`` at time ``t``."""
    acts = 0.5 * (a1 * u * u + v * v / a1)
    S = float(a2 @ (u * u))
    H = 0.5 * float(v @ v) + 0.5 * S + 0.25 * S * S
    norm2 = float(w2 @ acts)
    drift = float(np.max(w2 * np.abs(acts - acts0)))
    if not math.isfinite(H + norm2 + drift):
        raise SimulationBlowup(t, f"recorded energy, norm or drift is not finite at t={t:.6g}")
    return H, acts, math.sqrt(norm2), drift


def scalar_simulate(initial: UVState, config: SimConfig) -> Trajectory:
    """``simulator.simulate`` with each sample recorded by ``scalar_record`` as it is stepped to.

    The split steps are ``scalar_strang_split``'s and the rk4 steps the
    package's own; every state is checked, and a non-finite state or record
    raises at once, so the first of them wins.
    """
    M = config.M
    u = np.array([initial.u.get(a, 0.0) for a in range(1, M + 1)])
    v = np.array([initial.v.get(a, 0.0) for a in range(1, M + 1)])
    a1 = np.arange(1, M + 1, dtype=float)
    a2 = a1 * a1
    w2 = np.array([config.weight.weight_sq(a) for a in range(1, M + 1)])
    strang = config.scheme == "strang_split"
    start, step, _, finite = (scalar_strang_split if strang else simulator._rk4)(
        config.dt, a1, a2, config.linear_only
    )
    n_steps = int(round(config.T / config.dt)) if config.T > 0 else 0
    rows, states = [], []

    def record(t: float, u: np.ndarray, v: np.ndarray) -> None:
        rows.append((t, *scalar_record(t, u, v, acts0, a1, a2, w2)))
        states.append(UVState({a: float(x) for a, x in enumerate(u, 1) if x != 0.0},
                              {a: float(x) for a, x in enumerate(v, 1) if x != 0.0}, M))

    with np.errstate(over="ignore", invalid="ignore"):
        acts0 = 0.5 * (a1 * u * u + v * v / a1)
        record(0.0, u, v)
        state = start(u, v)
        for k in range(1, n_steps + 1):
            state = step(state)
            if not finite(state):
                raise SimulationBlowup(k * config.dt)
            if k % config.record_stride == 0 or k == n_steps:
                # strang_split carries (w, c, c_w), rk4 carries (u, v)
                uv = (state[0].real / a1, state[0].imag * math.sqrt(state[1])) if strang else state
                record(k * config.dt, *uv)
    times, energy, actions, norm_w, sup_drift = map(np.array, zip(*rows))
    return Trajectory(times, energy, actions, norm_w, sup_drift, config,
                      states if config.record_states else None)


def scalar_trajectory_to_csv(traj: Trajectory, stream, header_lines=()) -> None:
    """The sample table of ``simulator.trajectory_to_csv``, one ``write`` per row."""
    for line in header_lines:
        stream.write(f"# {line}\n")
    stream.write(",".join(["t", "H", "sup_drift"] + [f"I_{a}" for a in range(1, traj.M + 1)]) + "\n")
    rows = zip(traj.times.tolist(), traj.energy.tolist(), traj.sup_drift.tolist(), traj.actions)
    for t, H, drift, acts in rows:
        stream.write(",".join(map(repr, [t, H, drift, *acts.tolist()])) + "\n")
