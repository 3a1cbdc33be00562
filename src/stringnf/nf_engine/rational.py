"""Exact vector fields on the complex mode variables, with small-divisor denominators.

A field is stored through its ``d/dz_a`` components only; the ``d/dzbar_a``
component is always the complex conjugate, so real (conjugation-closed) fields
need no second copy. Each component is a combination of monomials

    z_a * zeta_j   (kind "diag")      zbar_a * zeta_j   (kind "anti")

where ``zeta_j`` maps an index vector entry ``(1, b)`` to ``z_b^2``, ``(0, b)``
to ``I_b = z_b zbar_b`` and ``(-1, b)`` to ``zbar_b^2``. Every monomial a
commutator or product can produce collapses back onto this basis; the funnel
below performs that reduction from raw exponents. Coefficients are Gaussian
rationals, so chained Lie transforms stay exact.

Past the first resonant stage the normal form divides coefficients by
frequency combinations evaluated at the actions.  A term then carries a
descriptor listing the combinations sitting underneath, stored as index
vectors rather than numbers so the field can be evaluated at any state and
audited structurally.  Descriptors keep three sections:

``h2``
    vectors whose divisor uses the quadratic frequency corrections only;
    each entry lowers the term's order by one.
``h4``
    vectors divided at the fully corrected frequencies, also weight one.
``kk``
    corrected-frequency divisors produced by second derivatives of the
    frequency map; each entry lowers the order by two.

A polynomial field is the case where every section is empty.

Every divisor vector is stored in reduced zero-momentum form: actions
dropped, conjugate pairs cancelled, total momentum balanced by an explicit
entry, and the lexicographically smaller of the vector/conjugate pair kept
(conjugation flips the combination's sign, which moves into the coefficient).
The storage form of a divisor is therefore independent of the route that
produced it, and cancellations between routes happen at the level of keys.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Dict, List, Mapping, Optional, Tuple

from ..core import ComplexSeq, canonicalize, delta_sum, zeta_product
from ..divisors import divisor_evaluator, irr, kappa

__all__ = [
    "ANTI",
    "DIAG",
    "QC",
    "Divisor",
    "DivisorRefusal",
    "NO_DIVISORS",
    "ParityError",
    "RKey",
    "RationalVF",
    "canonical_from_exponents",
    "commutator",
    "conj_index_vector",
    "di_functional",
    "divisor_zero_form",
    "evaluate_exact",
    "evaluate_vf",
    "is_rational_normal_form",
    "key_exponents",
    "key_order",
    "multiplicity",
    "omega4_hessian",
    "product_key",
    "transport",
    "validate_class",
]

DIAG = "diag"
ANTI = "anti"


class QC:
    """Gaussian rational ``(n + i*m) / d`` held as three ints.

    The triple is canonical: ``d > 0`` and ``gcd(n, m, d) == 1``, so zero is
    ``(0, 0, 1)`` and equal values have equal triples. Arithmetic stays in
    ints and restores the form with one gcd; ``re`` and ``im`` give the parts
    as Fractions for the API edge.
    """

    __slots__ = ("n", "m", "d")

    def __init__(self, re=0, im=0):
        x, y = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is already coprime
        d = x.denominator * y.denominator // math.gcd(x.denominator, y.denominator)
        self.n = x.numerator * (d // x.denominator)
        self.m = y.numerator * (d // y.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.n, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.m, self.d)

    def __add__(self, other: "QC") -> "QC":
        d, e = self.d, other.d
        return _reduced(self.n * e + other.n * d, self.m * e + other.m * d, d * e)

    def __sub__(self, other: "QC") -> "QC":
        return self + -other

    def __neg__(self) -> "QC":
        return _qc(-self.n, -self.m, self.d)

    def __mul__(self, other):
        n, m = self.n, self.m
        if isinstance(other, QC):
            p, r = other.n, other.m
            return _reduced(n * p - m * r, n * r + m * p, self.d * other.d)
        if type(other) is int:
            return _reduced(n * other, m * other, self.d)
        other = Fraction(other)
        return _reduced(n * other.numerator, m * other.numerator, self.d * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        n, m = self.n, self.m
        if isinstance(other, QC):
            p, r = other.n, other.m
            den = p * p + r * r
            if den == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            e = other.d
            return _reduced((n * p + m * r) * e, (m * p - n * r) * e, self.d * den)
        other = Fraction(other)
        p, q = other.numerator, other.denominator
        if p == 0:
            raise ZeroDivisionError("division of a Gaussian rational by zero")
        if p < 0:
            p, q = -p, -q
        return _reduced(n * q, m * q, self.d * p)

    def conj(self) -> "QC":
        return _qc(self.n, -self.m, self.d)

    def times_i(self) -> "QC":
        return _qc(-self.m, self.n, self.d)

    def is_zero(self) -> bool:
        return not self.n and not self.m

    def to_complex(self) -> complex:
        # int true division is correctly rounded, so these equal float(re), float(im)
        d = self.d
        return complex(self.n / d) + 1j * complex(self.m / d)

    def __abs__(self) -> float:
        d = self.d
        return math.hypot(self.n / d, self.m / d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QC)
            and self.n == other.n
            and self.m == other.m
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.n, self.m, self.d))

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


_new = object.__new__


def _qc(n: int, m: int, d: int) -> QC:
    """A QC from a triple already in canonical form, skipping ``__init__``."""
    q = _new(QC)
    q.n = n
    q.m = m
    q.d = d
    return q


def _reduced(n: int, m: int, d: int) -> QC:
    """A QC from a triple with ``d > 0``, divided through by its gcd."""
    g = math.gcd(n, m, d)
    if g != 1:
        return _qc(n // g, m // g, d // g)
    return _qc(n, m, d)


class ParityError(ValueError):
    """Raised when raw exponents cannot be folded onto the monomial basis."""


IndexVector = Tuple[Tuple[int, int], ...]
TermKey = Tuple[int, str, IndexVector]  # the numerator monomial of a term
Divisor = IndexVector
Section = Tuple[Divisor, ...]
RKey = Tuple[int, str, IndexVector, Section, Section, Section]

# divisor sections of a polynomial term
NO_DIVISORS: Tuple[Section, Section, Section] = ((), (), ())


def canonical_from_exponents(a: int, exps: Mapping[int, Tuple[int, int]]) -> TermKey:
    """Fold raw exponents ``{mode: (alpha, beta)}`` of a ``d/dz_a`` component
    monomial onto the basis; the inverse of :func:`key_exponents`.

    Exponent differences must be even away from mode ``a`` and odd at it; the
    surplus at ``a`` supplies the prefix (its sign picks diag versus anti), and
    at every mode the matched part becomes actions with the leftover going to
    squares. This also performs the boundary bookkeeping: for example
    ``zbar_a^3`` folds to an anti term with index entry ``(-1, a)``.
    """
    alpha, beta = exps.get(a, (0, 0))
    if (alpha - beta) % 2 == 0:
        raise ParityError(f"exponent difference at derivative mode {a} must be odd")
    kind = DIAG if alpha > beta else ANTI
    entries = []
    # modes in increasing order, and at each mode actions, then conjugate
    # squares, then squares: the canonical order of an index vector
    for m, (x, y) in sorted(exps.items()):
        if m < 1:
            raise ValueError(f"mode must be a positive integer, got {m!r}")
        if m == a:
            if kind == DIAG:
                x -= 1
            else:
                y -= 1
        if x < 0 or y < 0:
            raise ParityError(f"negative exponent at mode {m}")
        p = min(x, y)
        x -= p
        y -= p
        if x % 2 or y % 2:
            raise ParityError(f"exponent difference at mode {m} must be even")
        entries += [(0, m)] * p + [(-1, m)] * (y // 2) + [(1, m)] * (x // 2)
    return (a, kind, tuple(entries))


def key_exponents(key: TermKey) -> Dict[int, list]:
    """Raw exponents ``{mode: [alpha, beta]}`` of a term, prefix included.

    Divisor sections, if the key has them, do not enter the numerator.
    """
    a, kind, j = key[0], key[1], key[2]
    exp: Dict[int, list] = {a: [1, 0] if kind == DIAG else [0, 1]}
    for delta, m in j:
        e = exp.setdefault(m, [0, 0])
        if delta == 1:
            e[0] += 2
        elif delta == -1:
            e[1] += 2
        else:
            e[0] += 1
            e[1] += 1
    return exp


def product_key(
    a: int,
    x: Mapping[int, Tuple[int, int]],
    y: Mapping[int, Tuple[int, int]],
    conj_y: bool,
    extra: Tuple[Tuple[int, int, int], ...] = (),
) -> TermKey:
    """Key of the ``d/dz_a`` monomial ``x * y`` (``x * conj(y)`` with
    ``conj_y``) times the factors ``z_m^da zbar_m^db`` of ``extra``.

    ``x`` and ``y`` are exponent maps as :func:`key_exponents` returns them.
    A negative factor lowers the exponent of the whole product, which is the
    monomial part of a derivative; the caller supplies its coefficient.
    """
    merged = {m: [e[0], e[1]] for m, e in x.items()}
    for m, (p, q) in y.items():
        if conj_y:
            p, q = q, p
        t = merged.get(m)
        if t is None:
            merged[m] = [p, q]
        else:
            t[0] += p
            t[1] += q
    for m, da, db in extra:
        t = merged.setdefault(m, [0, 0])
        t[0] += da
        t[1] += db
    return canonical_from_exponents(a, merged)


def multiplicity(j: IndexVector) -> int:
    """Number of distinct orderings of the index vector."""
    counts: Dict[Tuple[int, int], int] = {}
    for entry in j:
        counts[entry] = counts.get(entry, 0) + 1
    out = math.factorial(len(j))
    for c in counts.values():
        out //= math.factorial(c)
    return out


_F0 = Fraction(0)
_F1 = Fraction(1)


class DivisorRefusal(ArithmeticError):
    """A divisor needed at a state is too small to trust.

    Carries the offending index vector as a witness together with the
    correction order it was evaluated at, its value, and the threshold that
    it failed.
    """

    def __init__(self, vector: Divisor, order: int, value: float, threshold: float):
        self.vector = vector
        self.order = order
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"divisor {vector} at correction order {order} evaluates to "
            f"{value:.6e}, inside the refusal threshold {threshold:.6e}"
        )


def conj_index_vector(jvec: IndexVector) -> IndexVector:
    """Canonical conjugate of an index vector (all deltas flipped)."""
    return canonicalize(tuple((-delta, m) for delta, m in jvec))


def divisor_zero_form(vector: IndexVector) -> Tuple[Optional[Divisor], int]:
    """Canonical storage form ``(w, sign)`` of a divisor index vector.

    The frequency combination of a vector only depends on its irreducible
    part, and conjugating the vector flips the combination's sign.  The
    storage form is the irreducible zero-momentum reduction (momentum
    balanced by an explicit entry), flipped to the lexicographically smaller
    of itself and its conjugate.  The returned ``sign`` satisfies

        combination(input) == sign * combination(stored form).

    Vectors whose combination vanishes identically reduce to the empty
    vector; those come back as ``(None, 0)``.
    """
    v = canonicalize(vector)
    sign = 1
    d = delta_sum(v)
    if d < 0:
        v = conj_index_vector(v)
        d = -d
        sign = -1
    red = irr(v, d)
    rem = delta_sum(red)
    while rem != 0:
        extra = (-1, rem) if rem > 0 else (1, -rem)
        red = irr(canonicalize(red + (extra,)), 0)
        rem = delta_sum(red)
    if not red:
        return None, 0
    flip = conj_index_vector(red)
    if flip < red:
        return flip, -sign
    return red, sign


def _normalize_rkey(key: RKey) -> RKey:
    a, kind, j, h2, h4, kk = key
    return (a, kind, j, tuple(sorted(h2)), tuple(sorted(h4)), tuple(sorted(kk)))


def key_order(key: RKey) -> int:
    """Order bookkeeping: indices minus single-weight minus twice the
    double-weight divisors."""
    return len(key[2]) - len(key[3]) - len(key[4]) - 2 * len(key[5])




class RationalVF:
    """Conjugation-closed vector field with exact coefficients.

    Terms map ``(a, kind, jvec, h2, h4, kk)`` to an exact coefficient; the
    stored component is the single-sided monomial divided by the product of
    the divisor values, and a polynomial field has every section empty.
    Zero coefficients are dropped and divisor sections are kept sorted, so
    equal fields compare equal as dictionaries.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[RKey, QC]] = None):
        clean: Dict[RKey, QC] = {}
        if terms:
            for key, c in terms.items():
                if c.is_zero():
                    continue
                # only sorting sections can make two distinct keys equal
                if key[3] or key[4] or key[5]:
                    key = _normalize_rkey(key)
                    prev = clean.get(key)
                    if prev is not None:
                        c = prev + c
                        if c.is_zero():
                            del clean[key]
                            continue
                clean[key] = c
        self.terms = clean

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "RationalVF") -> "RationalVF":
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
        return RationalVF(out)

    def __sub__(self, other: "RationalVF") -> "RationalVF":
        return self + other.scale(QC(-1))

    def scale(self, factor) -> "RationalVF":
        if not isinstance(factor, QC):
            factor = QC(factor)
        return RationalVF({key: c * factor for key, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalVF) and self.terms == other.terms

    # -- structure -------------------------------------------------------

    def orders(self) -> set:
        return {key_order(key) for key in self.terms}

    def select_order(self, l: int) -> "RationalVF":
        return RationalVF({k: c for k, c in self.terms.items() if key_order(k) == l})

    def truncate(self, N: int) -> "RationalVF":
        """Keep terms whose field, index and divisor modes all lie within N."""
        out = {}
        for key, c in self.terms.items():
            a, _, j, h2, h4, kk = key
            if a <= N and all(m <= N for v in (j,) + h2 + h4 + kk for _, m in v):
                out[key] = c
        return RationalVF(out)

    def max_mode(self) -> int:
        best = 0
        for a, _, j, h2, h4, kk in self.terms:
            best = max(best, a, max((m for _, m in j), default=0))
            for v in h2 + h4 + kk:
                best = max(best, max(m for _, m in v))
        return best

    def linf_norm(self) -> float:
        """Largest per-ordering coefficient magnitude, divisors ignored.

        Stored coefficients are totals over each canonical index multiset, so
        the per-ordering value divides by the number of orderings.
        """
        best = 0.0
        for key, c in self.terms.items():
            best = max(best, abs(c) / multiplicity(key[2]))
        return best

    def is_reversible_parity(self) -> bool:
        return all(not c.n for c in self.terms.values())

    def is_symmetric_parity(self) -> bool:
        return all(not c.m for c in self.terms.values())

    def evaluate(self, z: ComplexSeq) -> Dict[int, complex]:
        return evaluate_vf(self, z)

    def __repr__(self) -> str:
        return f"RationalVF({len(self.terms)} terms, orders {sorted(self.orders())})"


# ---------------------------------------------------------------------------
# class membership

def validate_class(
    vf: RationalVF,
    N: int,
    weight=None,
    strict_control: bool = False,
) -> List[str]:
    """Check the structural constraints of the divisor-carrying class.

    Returns a list of human-readable violations (empty means the field is a
    member).  Checks per term: momentum matches the kind, field and index
    modes inside the cutoff, at least two indices once divisors appear, each
    divisor vector in reduced flip-canonical form with at most one entry more
    than the index vector, and the divisor-weight control condition over the
    single-weight sections.  ``strict_control`` drops the largest index mode
    from the right-hand side, the stronger variant the last solver stage
    needs on its inputs.  A Gevrey ``weight`` swaps the product condition for
    the corresponding sum condition with exponent ``theta``.
    """
    bad: List[str] = []
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
            modes = sorted((m for _, m in j), reverse=True)
            rhs_modes = modes[1:] if strict_control else modes
            if weight is not None and weight.kind == "gevrey":
                lhs_s = sum(kappa(v) ** weight.theta for v in hvec)
                rhs_s = sum(m ** weight.theta for m in rhs_modes)
                if lhs_s > rhs_s + 1e-9:
                    bad.append(
                        f"{where}: weight-sum control fails ({lhs_s:.6f} > {rhs_s:.6f})"
                    )
            else:
                lhs = 1
                for v in hvec:
                    lhs *= kappa(v)
                rhs = 1
                for m in rhs_modes:
                    rhs *= m
                if lhs > rhs:
                    bad.append(f"{where}: weight-product control fails ({lhs} > {rhs})")
    return bad


# ---------------------------------------------------------------------------
# evaluation

def evaluate_vf(q: RationalVF, z: ComplexSeq) -> Dict[int, complex]:
    """Component values ``d/dz_a`` of a field at a state.

    Divisors are evaluated at the state's actions, cut off at its
    truncation, by :func:`~stringnf.divisors.divisor_evaluator`, built on the
    first divisor needed, so divisor-free fields never build one.  Any
    divisor actually needed (terms whose numerator vanishes at the state are
    skipped) whose magnitude falls below ``1e-12 * ||z||^2``, floored at
    1e-300, aborts with :class:`DivisorRefusal` naming the vector.
    """
    divisor = None
    out: Dict[int, complex] = {}
    for key, c in q.terms.items():
        a, kind, j, h2, h4, kk = key
        za = z[a]
        pref = za if kind == DIAG else za.conjugate()
        if pref == 0:
            continue
        num = c.to_complex() * pref * zeta_product(j, z)
        if num == 0:
            continue
        denom = 1.0
        if h2 or h4 or kk:
            if divisor is None:
                threshold = max(1e-12 * z.norm2_unweighted(), 1e-300)
                if not math.isfinite(threshold):
                    raise ValueError("the squared norm of the state is not finite")
                divisor = divisor_evaluator(z.actions(), z.truncation)
            for order, sec in ((2, h2), (4, h4), (4, kk)):
                for v in sec:
                    val = divisor(v, order)
                    if abs(val) < threshold:
                        raise DivisorRefusal(v, order, val, threshold)
                    denom *= val
        out[a] = out.get(a, 0j) + num / denom
    return out


def _zeta_exact(j: IndexVector, z: Mapping[int, QC]) -> QC:
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


def evaluate_exact(q: RationalVF, z: Mapping[int, QC], N: int) -> Dict[int, QC]:
    """Exact-arithmetic component values at a Gaussian-rational state.

    Companion to :func:`evaluate_vf` for cross-checks; divisors that vanish
    exactly raise ``ZeroDivisionError`` instead of going through the float
    refusal path.
    """
    acts = {m: Fraction(v.n * v.n + v.m * v.m, v.d * v.d) for m, v in z.items() if not v.is_zero()}
    divisor = divisor_evaluator(acts, N, _F1)
    out: Dict[int, QC] = {}
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


def di_functional(a: int, chi: RationalVF, z: ComplexSeq) -> complex:
    """Derivative of the action ``I_a`` along a field, evaluated at a state.

    For conjugation-closed fields this is ``2 Re(conj(z_a) X_a)``; it comes
    back as a complex number whose imaginary part is zero up to rounding.
    """
    comps = evaluate_vf(chi, z)
    x = comps.get(a, 0j)
    za = z[a]
    return za.conjugate() * x + za * x.conjugate()


def is_rational_normal_form(q: RationalVF) -> bool:
    """Whether a field is an action-preserving reversible normal form.

    Requires every term diagonal with a purely imaginary coefficient and,
    for each term, the conjugate-index partner (same divisors) present with
    an equal coefficient.  Such fields move only the angles, so their flow
    fixes every action.
    """
    for key, c in q.terms.items():
        a, kind, j = key[:3]
        if kind != DIAG or c.n:
            return False
        partner = (a, DIAG, conj_index_vector(j)) + key[3:]
        if q.terms.get(partner) != c:
            return False
    return True


# ---------------------------------------------------------------------------
# commutator

def _merge_sections(d1: Tuple[Section, Section, Section], d2: Tuple[Section, Section, Section]):
    return tuple(tuple(sorted(s1 + s2)) for s1, s2 in zip(d1, d2))


def _accumulate(acc: Dict, key, c: QC) -> None:
    prev = acc.get(key)
    acc[key] = c if prev is None else prev + c


def _actors(terms) -> Dict[int, list]:
    """``(key, c, exponents)`` triples grouped by field mode as
    ``(c, exponents, divisor sections)`` actors."""
    out: Dict[int, list] = {}
    for key, c, exp in terms:
        out.setdefault(key[0], []).append((c, exp, key[3:]))
    return out


def transport(acc: Dict, a: int, x, actors, d: int, extra, fac: QC, sections) -> None:
    """Add ``fac * x * extra * dI_d[Y]`` to the ``d/dz_a`` terms in ``acc``.

    ``dI_d[Y] = zbar_d Y_d + z_d conj(Y_d)`` is the derivative of the action
    ``I_d`` along ``Y``, whose ``d/dz_d`` terms are ``actors``; ``x`` is an
    exponent map and ``extra`` a tuple of :func:`product_key` factors.  Each
    product carries ``sections`` merged with its actor's divisor sections.
    """
    for c, ey, dy in actors:
        secs = _merge_sections(sections, dy)
        _accumulate(acc, product_key(a, x, ey, False, ((d, 0, 1),) + extra) + secs, fac * c)
        _accumulate(acc, product_key(a, x, ey, True, ((d, 1, 0),) + extra) + secs, fac * c.conj())


def _directional(acc: Dict[TermKey, QC], x_by_mode, y_terms, sign: int) -> None:
    # sign * sum_b [ X^{z_b} d/dz_b + conj(X^{z_b}) d/dzbar_b ] Y^{z_a}
    for key, cY, expY in y_terms:
        a = key[0]
        for b, (alpha, beta) in expY.items():
            for cX, expX, _ in x_by_mode.get(b, ()):
                if alpha:
                    prod = product_key(a, expY, expX, False, ((b, -1, 0),))
                    _accumulate(acc, prod, cX * cY * (sign * alpha))
                if beta:
                    # conjugate actor: swap its exponents, conjugate its coefficient
                    prod = product_key(a, expY, expX, True, ((b, 0, -1),))
                    _accumulate(acc, prod, cX.conj() * cY * (sign * beta))


@cache
def _linear_derivative(v: Divisor) -> Tuple[Tuple[int, Fraction], ...]:
    """Action gradient of the quadratic-frequency combination of ``v``."""
    grad: Dict[int, Fraction] = {}
    for delta, m in v:
        if delta:
            grad[m] = grad.get(m, _F0) + Fraction(delta, 2)
    return tuple(sorted((m, g) for m, g in grad.items() if g))


@cache
def omega4_hessian(m: int, N: int) -> Tuple[Tuple[int, int, Fraction], ...]:
    """Constant action Hessian of the quartic frequency correction at mode m.

    The correction is exactly quadratic in the actions, so second derivatives
    are numbers; entries come back as ``(d, e, value)`` with both orders of
    each off-diagonal pair present.
    """
    if not 1 <= m <= N:
        raise ValueError(f"mode {m} outside cutoff 1..{N}")
    entries: List[Tuple[int, int, Fraction]] = [(m, m, Fraction(-27, 32 * m))]
    for e in range(1, N + 1):
        if e == m:
            continue
        cross = -(Fraction(3, e) + Fraction(e, e * e - m * m)) / 8
        entries.append((m, e, cross))
        entries.append((e, m, cross))
        entries.append((e, e, Fraction(m, 8 * (e * e - m * m))))
    return tuple(sorted(entries))


@cache
def _quadratic_derivative(v: Divisor, N: int) -> Tuple[Tuple[int, int, Fraction], ...]:
    """Action Hessian of the corrected-minus-quadratic combination of ``v``."""
    hess: Dict[Tuple[int, int], Fraction] = {}
    for delta, m in v:
        if not delta:
            continue
        f = Fraction(2 * delta)
        for d, e, val in omega4_hessian(m, N):
            hess[(d, e)] = hess.get((d, e), _F0) + f * val
    return tuple(sorted((d, e, c) for (d, e), c in hess.items() if c))


def _divisor_part(acc: Dict[RKey, QC], xt, yt, sign: int, N: Optional[int]) -> None:
    # derivative of x's divisors along y; the extra divisor copy goes to h2
    # when a quadratic-frequency divisor was hit, to h4 for the gradient part
    # of a corrected one, and to kk for its Hessian part (which also brings
    # an action factor into the numerator)
    divided = [(key, cx, ex) for key, cx, ex in xt if key[3] or key[4] or key[5]]
    if not divided:
        return
    ymode = _actors(yt)
    if not ymode:
        return
    for key, cx, ex in divided:
        a, kind, j, h2, h4, kk = key
        for sec_idx, sec in ((0, h2), (1, h4), (2, kk)):
            for v, count in Counter(sec).items():
                target = 0 if sec_idx == 0 else 1
                routed = tuple(
                    s + (v,) if i == target else s for i, s in enumerate((h2, h4, kk))
                )
                for d, lam in _linear_derivative(v):
                    actors = ymode.get(d)
                    if not actors:
                        continue
                    fac = cx * QC(Fraction(-count * sign) * lam)
                    transport(acc, a, ex, actors, d, (), fac, routed)
                if sec_idx == 0:
                    continue
                routed_q = (h2, h4, kk + (v,))
                for d, e, cde in _quadratic_derivative(v, N):
                    actors = ymode.get(d)
                    if not actors:
                        continue
                    fac = cx * QC(Fraction(-count * sign) * cde)
                    transport(acc, a, ex, actors, d, ((e, 1, 1),), fac, routed_q)


def _signature_groups(terms, N: Optional[int]):
    """Terms grouped by divisor signature, each group with its by-mode index."""
    grouped: Dict[Tuple[Section, Section, Section], list] = {}
    for term in terms:
        grouped.setdefault(term[0][3:], []).append(term)
    if N is None and any(sig[1] or sig[2] for sig in grouped):
        raise ValueError("fields with corrected-frequency divisors need the cutoff N")
    return [(sig, t, _actors(t)) for sig, t in grouped.items()]


def commutator(x: RationalVF, y: RationalVF, N: Optional[int] = None) -> RationalVF:
    """Bracket ``[X, Y] = DX[Y] - DY[X]`` on conjugation-closed fields.

    ``DX[Y]`` is the Jacobian of ``X`` applied to the vector ``Y``, so the
    first term differentiates the components of ``X`` along ``Y``.  Divisors
    are constants under numerator differentiation, so the numerator part is
    the polynomial bracket per pair of divisor signatures, signatures
    concatenated.  The divisor part differentiates each divisor along the
    other field by the chain rule, and the result picks up one extra copy of
    the hit divisor.  The cutoff ``N`` bounds the Hessian sums of the
    corrected frequencies; it is required when either field carries ``h4``
    or ``kk`` divisors and unused otherwise.
    """
    xt = [(key, c, key_exponents(key)) for key, c in x.terms.items()]
    yt = [(key, c, key_exponents(key)) for key, c in y.terms.items()]
    gx = _signature_groups(xt, N)
    gy = _signature_groups(yt, N)
    acc: Dict[RKey, QC] = {}
    for sx, tx, mx in gx:
        for sy, ty, my in gy:
            part: Dict[TermKey, QC] = {}
            _directional(part, my, tx, +1)
            _directional(part, mx, ty, -1)
            sections = _merge_sections(sx, sy)
            for k, c in part.items():
                if not c.is_zero():
                    _accumulate(acc, k + sections, c)
    _divisor_part(acc, xt, yt, +1, N)
    _divisor_part(acc, yt, xt, -1, N)
    return RationalVF(acc)
