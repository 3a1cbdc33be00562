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

A polynomial field is the case where every section is empty. A field is
evaluated term by term, at a float state by :func:`evaluate_vf` and exactly
modulo a prime by :func:`evaluate_mod_p`; both take their divisors from
:func:`~stringnf.divisors.divisor_evaluator`.

Every divisor vector is stored in reduced zero-momentum form: actions
dropped, conjugate pairs cancelled, total momentum balanced by an explicit
entry, and the lexicographically smaller of the vector/conjugate pair kept
(conjugation flips the combination's sign, which moves into the coefficient).
The storage form of a divisor is therefore independent of the route that
produced it, and cancellations between routes happen at the level of keys.

A field packs each term's exponents once into one int, a fixed-width field per
(mode, z or zbar): a product of monomials is a sum of ints, and a conjugate
swaps the two fields of each mode. The bracket is fraction-free: coefficients
enter as Gaussian integers over their field's lcm denominator, and int pairs
over one common denominator accumulate on ``(mode, packed, signature id)``,
with the divisor signatures of the call interned as small ints. Each distinct
key with a nonzero total is folded onto the basis and its coefficient reduced
once, in first-seen order; most keys of a deep bracket cancel exactly. A
rotation on the left, such as the linear field, has every monomial as an
eigenvector, so its bracket scales each term in closed form, with the same
terms in the same order.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import ComplexSeq, canonicalize, delta_sum
from ..divisors import OMEGA2_RATE, divisor_evaluator, irr, kappa, omega4_hessian

__all__ = [
    "ANTI",
    "DIAG",
    "QC",
    "Divisor",
    "DivisorRefusal",
    "NO_DIVISORS",
    "PRIME",
    "ParityError",
    "RKey",
    "RationalVF",
    "SQRT_MINUS_ONE",
    "action_transport",
    "canonical_from_exponents",
    "commutator",
    "conj_index_vector",
    "divisor_zero_form",
    "evaluate_mod_p",
    "evaluate_vf",
    "is_rational_normal_form",
    "key_exponents",
    "key_order",
    "multiplicity",
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
        other = other if isinstance(other, Fraction) else Fraction(other)
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
        other = other if isinstance(other, (int, Fraction)) else Fraction(other)
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
    return _canonical_key(a, *exps.get(a, (0, 0)), [(m, x, y) for m, (x, y) in sorted(exps.items())])


def _canonical_key(a: int, alpha: int, beta: int, exps: Sequence[Tuple[int, int, int]]) -> TermKey:
    """The fold of :func:`canonical_from_exponents`: the exponents at ``a``, then all by increasing mode."""
    if (alpha - beta) % 2 == 0:
        raise ParityError(f"exponent difference at derivative mode {a} must be odd")
    kind = DIAG if alpha > beta else ANTI
    entries = []
    # modes in increasing order, and at each mode actions, then conjugate
    # squares, then squares: the canonical order of an index vector
    for m, x, y in exps:
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
        if p:
            entries += [(0, m)] * p
        if y:
            entries += [(-1, m)] * (y // 2)
        elif x:
            entries += [(1, m)] * (x // 2)
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


# A packed monomial holds the exponents of a monomial in one int, one
# _WIDTH-bit field per (mode, z or zbar): z_m at bit _WIDTH * (2m - 2) and
# zbar_m in the field above it. A product is a sum of packed ints, and the
# conjugate swaps the two fields of each mode. Packed inputs stay at or below
# _MAX_EXP, so two of them plus two unit factors never carry between fields.
_WIDTH = 8
_MASK = (1 << _WIDTH) - 1
_MAX_EXP = (1 << (_WIDTH - 2)) - 1


def _factor(m: int, da: int, db: int) -> int:
    """Packed ``z_m^da zbar_m^db``."""
    if m < 1:
        raise ValueError(f"mode must be a positive integer, got {m!r}")
    return (da + (db << _WIDTH)) << (2 * _WIDTH * (m - 1))


def _pack(exps: Sequence[Tuple[int, int, int]]) -> Tuple[int, int]:
    """Packed monomial of ``(mode, alpha, beta)`` exponents, and packed conjugate."""
    p = q = 0
    for m, x, y in exps:
        if not (0 <= x <= _MAX_EXP and 0 <= y <= _MAX_EXP):
            raise ValueError(f"exponents {x, y} at mode {m} outside the packed range 0..{_MAX_EXP}")
        p += _factor(m, x, y)
        q += _factor(m, y, x)
    return p, q


# the default nf-verify folds about 23,000 keys, under the bound; a process
# that folds far more keeps only the latest
@lru_cache(maxsize=2**15)
def _fold(a: int, p: int) -> TermKey:
    """Key of the ``d/dz_a`` monomial with packed exponents ``p``.

    Memoised up to a bound, so each distinct monomial of a computation folds
    once and equal keys share one tuple across fields.
    """
    exps = []
    at = 2 * _WIDTH * (a - 1)
    alpha, beta = (p >> at) & _MASK, (p >> (at + _WIDTH)) & _MASK
    m = 1
    while p:
        x, y = p & _MASK, (p >> _WIDTH) & _MASK
        if x or y:
            exps.append((m, x, y))
        p >>= 2 * _WIDTH
        m += 1
    return _canonical_key(a, alpha, beta, exps)


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

    __slots__ = ("terms", "_rows")

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
        self._rows: Optional[Tuple[int, list]] = None

    @classmethod
    def _canonical(cls, terms: Dict[RKey, QC]) -> "RationalVF":
        """A field that takes ``terms`` as they are, for callers whose keys are
        distinct with sorted sections and whose coefficients are nonzero."""
        vf = _new(cls)
        vf.terms = terms
        vf._rows = None
        return vf

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "RationalVF") -> "RationalVF":
        return self._merged(other.terms.items())

    def __sub__(self, other: "RationalVF") -> "RationalVF":
        return self._merged((key, -c) for key, c in other.terms.items())

    def _merged(self, items) -> "RationalVF":
        # both sides are canonical, so a coefficient cancels only on a shared key: drop it there
        out = dict(self.terms)
        for key, c in items:
            prev = out.get(key)
            if prev is not None and (c := prev + c).is_zero():
                del out[key]
            else:
                out[key] = c
        return RationalVF._canonical(out)

    def scale(self, factor) -> "RationalVF":
        if not isinstance(factor, QC):
            factor = QC(factor)
        if factor.is_zero():
            return RationalVF()
        # a nonzero product of nonzero Gaussian rationals, on the same keys
        return RationalVF._canonical({key: c * factor for key, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalVF) and self.terms == other.terms

    # -- structure -------------------------------------------------------

    def orders(self) -> set:
        return {key_order(key) for key in self.terms}

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

    def _packed(self) -> Tuple[int, list]:
        """The lcm ``D`` of the coefficient denominators, and per term ``(n, m, packed, packed conjugate,
        sections, exponents, key)``: coefficient ``(n + i m) / D``, exponents ``(mode, alpha, beta)``."""
        if self._rows is None:
            D = math.lcm(*(c.d for c in self.terms.values()))
            rows = []
            for key, c in self.terms.items():
                exps = tuple((m, x, y) for m, (x, y) in key_exponents(key).items())
                rows.append((c.n * (D // c.d), c.m * (D // c.d)) + _pack(exps) + (key[3:], exps, key))
            self._rows = (D, rows)
        return self._rows

    def __repr__(self) -> str:
        return f"RationalVF({len(self.terms)} terms, orders {sorted(self.orders())})"


# ---------------------------------------------------------------------------
# class membership

@cache
def _divisor_faults(v: Divisor, N: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """What is wrong with a stored divisor vector at cutoff ``N``, term aside.

    Two groups of reasons, the first reported before the term's size check
    and the second after it.
    """
    head, tail = [], []
    if delta_sum(v) != 0:
        head.append(f"divisor {v} has momentum {delta_sum(v)}")
    elif irr(v, 0) != v:
        head.append(f"divisor {v} is not irreducible")
    if any(m > N for _, m in v):
        tail.append(f"divisor {v} has a mode beyond cutoff {N}")
    if conj_index_vector(v) < v:
        tail.append(f"divisor {v} is not flip-canonical")
    return tuple(head), tuple(tail)


_kappa = cache(kappa)


def validate_class(vf: RationalVF, N: int) -> List[str]:
    """Check the structural constraints of the divisor-carrying class.

    Returns a list of human-readable violations (empty means the field is a
    member).  Checks per term: momentum matches the kind, field and index
    modes inside the cutoff, at least two indices once divisors appear, each
    divisor vector in reduced flip-canonical form with at most one entry more
    than the index vector, and the divisor-weight control condition over the
    single-weight sections: the product of their ``kappa`` is at most the
    product of the index modes.  Each distinct divisor vector is checked once
    per cutoff.
    """
    bad: List[str] = []
    for key in vf.terms:
        a, kind, j, h2, h4, kk = key
        why: List[str] = []
        if kind == DIAG:
            if delta_sum(j) != 0:
                why.append(f"diag term with momentum {delta_sum(j)}")
        elif kind == ANTI:
            if delta_sum(j) != a:
                why.append(f"anti term with momentum {delta_sum(j)} != {a}")
        else:
            bad.append(f"term {key}: unknown kind {kind!r}")
            continue
        if not 1 <= a <= N:
            why.append(f"field mode {a} outside 1..{N}")
        if any(m > N for _, m in j):
            why.append(f"index mode beyond cutoff {N}")
        divs = h2 + h4 + kk
        if divs:
            if len(j) < 2:
                why.append("divisor-carrying term needs at least 2 indices")
            for v in divs:
                head, tail = _divisor_faults(v, N)
                why += head
                if not 2 <= len(v) <= len(j) + 1:
                    why.append(f"divisor {v} has size {len(v)}, allowed 2..{len(j) + 1}")
                why += tail
            hvec = h2 + h4
            if hvec:
                lhs = math.prod(_kappa(v) for v in hvec)
                rhs = math.prod(m for _, m in j)
                if lhs > rhs:
                    why.append(f"weight-product control fails ({lhs} > {rhs})")
        if why:
            where = f"term {key}"
            bad += [f"{where}: {m}" for m in why]
    return bad


# ---------------------------------------------------------------------------
# evaluation

def evaluate_vf(q: RationalVF, z: ComplexSeq) -> Dict[int, complex]:
    """Component values ``d/dz_a`` of a field at a state, term by term in Python complex numbers.

    Divisors are :func:`~stringnf.divisors.divisor_evaluator`'s at the
    state's actions, cut off at its truncation. A term whose prefix or
    numerator is zero is skipped. A divisor of any other term whose
    magnitude falls below ``1e-12 * ||z||^2``, floored at 1e-300, aborts
    with :class:`DivisorRefusal` naming the vector; a state whose squared
    norm is not finite raises ``ValueError`` there instead.
    """
    # the quadratic blocks z_m^2, z_m zbar_m and zbar_m^2 of the index entries (1, m), (0, m) and (-1, m)
    block: Dict[Tuple[int, int], complex] = {}
    for m, v in z.data.items():
        vb = v.conjugate()
        block[(1, m)], block[(0, m)], block[(-1, m)] = v * v, v * vb, vb * vb
    dens: Dict[Tuple[Section, Section, Section], float] = {NO_DIVISORS: 1.0}  # divisor product per signature
    divisor = None
    out: Dict[int, complex] = {}
    for key, c in q.terms.items():
        a, kind, j = key[0], key[1], key[2]
        za = z[a]
        pref = za if kind == DIAG else za.conjugate()
        if pref == 0:
            continue
        zeta = 1.0 + 0j
        for entry in j:
            zeta *= block.get(entry, 0j)
        num = c.to_complex() * pref * zeta
        if num == 0:
            continue
        sig = key[3:]
        den = dens.get(sig)
        if den is None:
            if divisor is None:
                threshold = max(1e-12 * z.norm2_unweighted(), 1e-300)
                if not math.isfinite(threshold):
                    raise ValueError("the squared norm of the state is not finite")
                divisor = divisor_evaluator({m: z.action(m) for m in z.data}, z.truncation)
            den = 1.0
            for order, sec in zip((2, 4, 4), sig):
                for v in sec:
                    val = divisor(v, order)
                    if abs(val) < threshold:
                        raise DivisorRefusal(v, order, val, threshold)
                    den *= val
            dens[sig] = den
        out[a] = out.get(a, 0j) + num / den
    return out


# ---------------------------------------------------------------------------
# exact evaluation mod p

# a prime = 1 (mod 4) near 2^62, and a square root of -1 modulo it that stands
# for i; a Gaussian rational whose denominator PRIME does not divide reduces mod PRIME
PRIME = 2**62 - 87
SQRT_MINUS_ONE = pow(5, (PRIME - 1) // 4, PRIME)  # 5 is a quadratic non-residue


def evaluate_mod_p(q: RationalVF, z: Mapping[int, int], zbar: Mapping[int, int], N: int) -> Dict[int, int]:
    """Component values ``d/dz_a`` of a field mod :data:`PRIME`, at independent ``z`` and ``zbar``.

    i maps to :data:`SQRT_MINUS_ONE`, and an absent mode is zero. Numerators
    are ints mod PRIME over one table of quadratic blocks. A divisor is
    :func:`~stringnf.divisors.divisor_evaluator`'s over ``Fraction`` at the
    actions ``z_b zbar_b``, reduced mod PRIME, which its small denominators
    allow; each divisor product is inverted once. A term whose numerator is
    zero mod PRIME is skipped, and a vanishing divisor of another raises
    ``ZeroDivisionError``.
    """
    divisor = divisor_evaluator({m: Fraction(x * zbar.get(m, 0) % PRIME) for m, x in z.items()}, N, _F1)
    # the quadratic blocks z_m^2, z_m zbar_m and zbar_m^2 of the index entries (1, m), (0, m) and (-1, m)
    block: Dict[Tuple[int, int], int] = {}
    for m in z.keys() | zbar.keys():
        x, y = z.get(m, 0), zbar.get(m, 0)
        block[(1, m)], block[(0, m)], block[(-1, m)] = x * x % PRIME, x * y % PRIME, y * y % PRIME
    inverses: Dict[object, int] = {}  # of each coefficient denominator and each signature's divisor product
    out: Dict[int, int] = {}
    for key, c in q.terms.items():
        a, kind, j, h2, h4, kk = key
        num = (z if kind == DIAG else zbar).get(a, 0) * (c.n + SQRT_MINUS_ONE * c.m)
        for entry in j:
            num *= block.get(entry, 0)
        num %= PRIME
        if not num:
            continue
        sig = key[3:]
        inv_sig = inverses.get(sig)
        if inv_sig is None:
            den = _F1 * math.prod(divisor(v, order) for order, sec in ((2, h2), (4, h4), (4, kk)) for v in sec)
            if not den.numerator % PRIME:
                raise ZeroDivisionError(f"a divisor of {sig} vanishes mod PRIME at this point")
            inv_sig = inverses[sig] = den.denominator * pow(den.numerator, -1, PRIME) % PRIME
        inv_d = inverses.get(c.d)
        if inv_d is None:
            inv_d = inverses[c.d] = pow(c.d, -1, PRIME)
        out[a] = (out.get(a, 0) + num * inv_d * inv_sig) % PRIME
    return out


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

class _Tables:
    """Tables of one bracket: divisor signatures interned as small ints, their
    merges cached per id pair, and :meth:`field`, which drops each int pair
    ``(re, im)`` that cancelled to zero and reduces the others once, in order."""

    def __init__(self):
        self.ids: Dict[Tuple[Section, Section, Section], int] = {}
        self.sigs: List[Tuple[Section, Section, Section]] = []
        self.merged: Dict[int, Dict[int, int]] = {}

    def sig(self, sections: Tuple[Section, Section, Section]) -> int:
        i = self.ids.get(sections)
        if i is None:
            i = self.ids[sections] = len(self.sigs)
            self.sigs.append(sections)
        return i

    def merge(self, i: int, j: int) -> int:
        k = self.merged.setdefault(i, {}).get(j)
        if k is None:
            k = self.merged[i][j] = self.sig(
                tuple(tuple(sorted(s + t)) for s, t in zip(self.sigs[i], self.sigs[j]))
            )
        return k

    def terms(self, vf: RationalVF) -> Tuple[int, list]:
        """The field's denominator ``D`` and ``(a, actor, exponents, key)`` per term, the actor
        ``(n, m, packed, packed conjugate, signature id)`` with coefficient ``(n + i m) / D``."""
        D, rows = vf._packed()
        return D, [(key[0], (n, m, p, q, self.sig(s)), exps, key) for n, m, p, q, s, exps, key in rows]

    def field(self, acc: Dict[Tuple[int, int, int], tuple], G: int) -> RationalVF:
        # every signature in acc comes out of merge, so its sections are sorted
        return RationalVF._canonical({_fold(a, p) + self.sigs[i]: _reduced(n, m, G)
                                      for (a, p, i), (n, m) in acc.items() if n or m})


def _actors(terms) -> Dict[int, list]:
    """Actors of :meth:`_Tables.terms` grouped by field mode."""
    out: Dict[int, list] = {}
    for a, actor, _, _ in terms:
        out.setdefault(a, []).append(actor)
    return out


def _transport(tables: _Tables, acc, a: int, x: int, actors, d: int, extra: int, fn: int, fm: int, sid: int):
    """Add ``(fn + i fm) * x * extra * dI_d[Y]`` to the ``d/dz_a`` numerators in ``acc``.

    ``dI_d[Y] = zbar_d Y_d + z_d conj(Y_d)`` is the derivative of the action
    ``I_d`` along ``Y``, whose ``d/dz_d`` terms are ``actors``; ``x`` and
    ``extra`` are packed monomials. Each product carries the signature ``sid``
    merged with its actor's.
    """
    x_zbar = x + extra + _factor(d, 0, 1)
    x_z = x + extra + _factor(d, 1, 0)
    merged = tables.merged.setdefault(sid, {})
    for n, m, p, q, s in actors:
        k = merged[s] if s in merged else tables.merge(sid, s)
        key, re, im = (a, x_zbar + p, k), fn * n - fm * m, fn * m + fm * n
        acc[key] = (re, im) if (v := acc.get(key)) is None else (v[0] + re, v[1] + im)
        key, re, im = (a, x_z + q, k), fn * n + fm * m, fm * n - fn * m
        acc[key] = (re, im) if (v := acc.get(key)) is None else (v[0] + re, v[1] + im)


def action_transport(field: RationalVF, couplings) -> RationalVF:
    """The field ``sum fac * z_a * I_e * dI_d[Y]`` over ``couplings``.

    Each coupling ``(a, d, e, fac, keys)`` adds that product to the
    ``d/dz_a`` component, with ``Y`` the terms ``keys`` of ``field`` (all of
    field mode ``d``) and no action factor when ``e`` is 0. The products keep
    the divisors of ``Y`` and come out in first-seen order.
    """
    tables = _Tables()
    D, terms = tables.terms(field)
    actors = {key: actor for _, actor, _, key in terms}
    # every product over D * L, L the lcm of the factors' denominators
    L = math.lcm(*(fac.d for _, _, _, fac, _ in couplings))
    acc: Dict[Tuple[int, int, int], tuple] = {}
    for a, d, e, fac, keys in couplings:
        extra = _factor(e, 1, 1) if e else 0
        f = L // fac.d
        _transport(tables, acc, a, _factor(a, 1, 0), [actors[key] for key in keys], d, extra,
                   fac.n * f, fac.m * f, tables.sig(NO_DIVISORS))
    return tables.field(acc, D * L)


def _directional(part: Dict[Tuple[int, int], tuple], x_by_mode, y_terms, sign: int) -> None:
    # sign * sum_b [ X^{z_b} d/dz_b + conj(X^{z_b}) d/dzbar_b ] Y^{z_a} on numerators;
    # the derivative lowers a positive exponent of Y, so it never borrows
    for a, (yn, ym, py, _, _), expY, _ in y_terms:
        for b, alpha, beta in expY:
            actors = x_by_mode.get(b)
            if not actors:
                continue
            unit = 1 << 2 * _WIDTH * (b - 1)  # packed z_b
            an, am, pa = yn * sign * alpha, ym * sign * alpha, py - unit
            bn, bm, pb = yn * sign * beta, ym * sign * beta, py - (unit << _WIDTH)
            for xn, xm, px, qx, _ in actors:
                if alpha:
                    k, re, im = (a, pa + px), xn * an - xm * am, xn * am + xm * an
                    part[k] = (re, im) if (v := part.get(k)) is None else (v[0] + re, v[1] + im)
                if beta:
                    # conjugate actor: swap its exponents, conjugate its coefficient
                    k, re, im = (a, pb + qx), xn * bn + xm * bm, xn * bm - xm * bn
                    part[k] = (re, im) if (v := part.get(k)) is None else (v[0] + re, v[1] + im)


@cache
def _linear_derivative(v: Divisor) -> Tuple[Tuple[int, Fraction], ...]:
    """Action gradient of the quadratic-frequency combination of ``v``."""
    grad: Dict[int, Fraction] = {}
    for delta, m in v:
        if delta:
            grad[m] = grad.get(m, _F0) + 2 * delta * OMEGA2_RATE
    return tuple(sorted((m, g) for m, g in grad.items() if g))


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


def _divisor_part(tables: _Tables, acc: Dict, xt, ymode, sign: int, N: Optional[int], L: int) -> None:
    # derivative of x's divisors along y; the extra divisor copy goes to h2
    # when a quadratic-frequency divisor was hit, to h4 for the gradient part
    # of a corrected one, and to kk for its Hessian part (which also brings
    # an action factor into the numerator); a factor lam enters as lam * L
    for a, (xn, xm, px, _, _), _, (*_, h2, h4, kk) in xt:
        if not (h2 or h4 or kk):
            continue
        for sec_idx, sec in ((0, h2), (1, h4), (2, kk)):
            for v, count in Counter(sec).items():
                routed = (h2 + (v,), h4, kk) if sec_idx == 0 else (h2, h4 + (v,), kk)
                hits = [(d, 0, lam, routed) for d, lam in _linear_derivative(v)]
                if sec_idx:
                    hits += [(d, _factor(e, 1, 1), h, (h2, h4, kk + (v,)))
                             for d, e, h in _quadratic_derivative(v, N)]
                for d, extra, lam, sections in hits:
                    actors = ymode.get(d)
                    if actors:
                        f = -count * sign * lam.numerator * (L // lam.denominator)
                        _transport(tables, acc, a, px, actors, d, extra, xn * f, xm * f, tables.sig(sections))


def _derivative_lcm(sigs, N: Optional[int]) -> int:
    """The lcm of the denominators of the frequency derivatives of the divisors in ``sigs``."""
    lams = [lam for h2, h4, kk in sigs for v in h2 + h4 + kk for _, lam in _linear_derivative(v)]
    lams += [h for _, h4, kk in sigs for v in h4 + kk for _, _, h in _quadratic_derivative(v, N)]
    return math.lcm(*{lam.denominator for lam in lams})


def _signature_groups(terms):
    """Terms grouped by signature id, each group with its by-mode actors."""
    grouped: Dict[int, list] = {}
    for term in terms:
        grouped.setdefault(term[1][4], []).append(term)
    return [(i, t, _actors(t)) for i, t in grouped.items()]


def _check_cutoff(N: Optional[int], sigs) -> None:
    if N is None and any(sig[1] or sig[2] for sig in sigs):
        raise ValueError("fields with corrected-frequency divisors need the cutoff N")


_ROTATION_TAIL = (DIAG, ()) + NO_DIVISORS


def _rotation_rates(x: RationalVF) -> Optional[Tuple[int, Dict[int, int]]]:
    """``(D, {a: D mu_a})`` when ``x`` is a rotation ``sum_a i mu_a z_a d/dz_a + conj``, else None."""
    if not all(key[1:] == _ROTATION_TAIL and not c.n for key, c in x.terms.items()):
        return None
    D = math.lcm(*(c.d for c in x.terms.values()))
    return D, {key[0]: c.m * (D // c.d) for key, c in x.terms.items()}


# the square that a prefix z_a (zbar_a) cannot meet at its own mode on the basis
_OTHER_SQUARE = {DIAG: -1, ANTI: 1}


def _basis_index(j: IndexVector) -> bool:
    """Whether an index vector is in canonical order with no mode holding both ``z^2`` and ``zbar^2``."""
    return j == canonicalize(j) and {m for d, m in j if d == 1}.isdisjoint(m for d, m in j if d == -1)


def _rotation_bracket(D: int, rates: Dict[int, int], y: RationalVF, N: Optional[int]) -> Optional[RationalVF]:
    """``[Z, Y]`` for the rotation ``Z`` of rates ``mu_a = rates[a] / D``, in closed form.

    A term of ``Y`` on ``d/dz_a`` with exponents ``alpha, beta`` is an
    eigenvector of ``ad_Z`` with eigenvalue ``i (mu_a - mu . (alpha - beta))``.
    ``Z`` moves no action, so the divisors ride along. The eigenvalue is read
    off the key, with no packing: the prefix ``z_a`` (``zbar_a``) gives
    ``+mu_a`` (``-mu_a``) and an index entry ``(delta, m)`` gives
    ``2 delta mu_m``. Terms come out in the general bracket's first-seen
    order: by signature, then by the field modes of ``Z`` in its term order,
    then the modes ``Z`` lacks, in ``Y``'s order within each. None when a key
    of ``Y`` is off the monomial basis, which only the general bracket folds.
    """
    _check_cutoff(N, (key[3:] for key in y.terms))
    sigs: Dict[Tuple[Section, Section, Section], int] = {}
    rank = {a: r for r, a in enumerate(rates)}
    last = len(rank)
    index_part: Dict[IndexVector, Optional[int]] = {}
    out = []
    for key, c in y.terms.items():
        a, kind, j = key[0], key[1], key[2]
        if j not in index_part:
            index_part[j] = 2 * sum(delta * rates.get(m, 0) for delta, m in j) if _basis_index(j) else None
        w = index_part[j]
        # on the basis, the prefix's mode holds no square of the other variable
        other = _OTHER_SQUARE.get(kind)
        if w is None or other is None or a < 1 or (other, a) in j:
            return None
        # a signature's group takes its place at its first term, dropped or not
        group = sigs.setdefault(key[3:], len(sigs))
        mu_a = rates.get(a, 0)
        e = mu_a - (w + mu_a if kind == DIAG else w - mu_a)
        if e:
            out.append((group, rank.get(a, last), key, _reduced(-e * c.m, e * c.n, c.d * D)))
    out.sort(key=lambda t: t[:2])
    return RationalVF._canonical({key: c for _, _, key, c in out})


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
    or ``kk`` divisors and unused otherwise.  When ``X`` is a rotation
    ``sum_a i mu_a z_a d/dz_a + conj``, the bracket scales each term of ``Y``
    by its eigenvalue, in the same terms and order.
    """
    rotation = _rotation_rates(x)
    if rotation is not None and (out := _rotation_bracket(*rotation, y, N)) is not None:
        return out
    tables = _Tables()
    dx, xt = tables.terms(x)
    dy, yt = tables.terms(y)
    _check_cutoff(N, tables.sigs)
    gy = _signature_groups(yt)
    # every product over G = dx * dy * L
    L = _derivative_lcm(tables.sigs, N)
    acc: Dict[Tuple[int, int, int], tuple] = {}
    for sx, tx, mx in _signature_groups(xt):
        for sy, ty, my in gy:
            part: Dict[Tuple[int, int], tuple] = {}
            _directional(part, my, tx, +1)
            _directional(part, mx, ty, -1)
            sid = tables.merge(sx, sy)
            for (a, p), (re, im) in part.items():
                if re or im:
                    k, re, im = (a, p, sid), re * L, im * L
                    acc[k] = (re, im) if (v := acc.get(k)) is None else (v[0] + re, v[1] + im)
    _divisor_part(tables, acc, xt, _actors(yt), +1, N, L)
    _divisor_part(tables, acc, yt, _actors(xt), -1, N, L)
    return tables.field(acc, dx * dy * L)
