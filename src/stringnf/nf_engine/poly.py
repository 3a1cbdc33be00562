"""Polynomial stages of the normal form: interaction fields and Lie transforms.

The string's interaction is expanded into homogeneous fields of degree
``2l+1`` on the modes ``1..N``. The linear-nonresonant terms are removed
order by order with generators solved against the linear rotation, by
exact Lie transforms; all fields here are polynomial, that is, divisor-free
:class:`~.rational.RationalVF` fields, so equalities between the produced
fields are literal.

Each stage solves ``[Z1, chi] + K = Z``, so the bracket of the linear field
with the generator is ``Z - K``, which is ``-K`` on the removed keys in ``K``'s
order, and is not computed again. Only stage 1 brackets it once more, and
there ``K`` is ordered by field mode, the rotation bracket's order, so every
field has the terms and the term order that brackets alone give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from ..core import delta_sum
from .rational import DIAG, NO_DIVISORS, QC, RationalVF, RKey, _factor, _fold, commutator

__all__ = [
    "taylor_vf",
    "stiffness_taylor_coeff",
    "z1_field",
    "solve_homological_z1",
    "split_integrable",
    "NFResult",
    "resonant_normal_form",
]

_R0 = Fraction(0)
_R1 = Fraction(1)


# ---------------------------------------------------------------------------
# the stiffness-response Taylor fields

# Taylor coefficients of (1 + 2*phi(y))^(-3/2) at y = 0, where phi inverts
# y = x*sqrt(1 + 2x). Equivalently (phi(y)/y)^3.
_STIFFNESS_TAYLOR = (Fraction(1), Fraction(-3), Fraction(21, 2), Fraction(-40))


def stiffness_taylor_coeff(k: int) -> Fraction:
    return _STIFFNESS_TAYLOR[k]


def _symbols(M: int) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
    """The chiral ``B = sum_b z_b^2 - zbar_b^2`` and the elastic
    ``A = sum_b (z_b^2 + zbar_b^2 + 2 I_b) / b``, keyed by packed monomials."""
    B: Dict[int, Fraction] = {}
    A: Dict[int, Fraction] = {}
    for b in range(1, M + 1):
        B[_factor(b, 2, 0)] = _R1
        B[_factor(b, 0, 2)] = -_R1
        A[_factor(b, 2, 0)] = Fraction(1, b)
        A[_factor(b, 0, 2)] = Fraction(1, b)
        A[_factor(b, 1, 1)] = Fraction(2, b)
    return B, A


@functools.lru_cache(maxsize=32)
def taylor_vf(l: int, M: int) -> RationalVF:
    """Degree ``2l+1`` interaction field of the string on modes ``1..M``.

    Built as the scalar symbol ``A^(l-1) B`` (A the weighted elastic
    combination, B the chiral one) attached to ``zbar_a d/dz_a + conj`` with
    the order-dependent prefactor from the stiffness response. Each ``(l, M)``
    is built once and shared; fields are immutable by convention.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if l - 1 >= len(_STIFFNESS_TAYLOR):
        raise ValueError("interaction fields are tabulated through l = 4 only")
    pref = QC(0, -stiffness_taylor_coeff(l - 1) / (4**l)) / math.factorial(l - 1)
    sym, A = _symbols(M)
    for _ in range(l - 1):
        prod: Dict[int, Fraction] = {}
        for p, c in sym.items():
            for q, d in A.items():
                prod[p + q] = prod.get(p + q, _R0) + c * d
        # dropping cancelled monomials before the next product keeps their
        # keys out of the first-seen order
        sym = {p: c for p, c in prod.items() if c}
    # each monomial of the symbol times zbar_a: a distinct key per (a, p), none zero
    return RationalVF._canonical({
        _fold(a, p + _factor(a, 0, 1)) + NO_DIVISORS: pref * c
        for a in range(1, M + 1)
        for p, c in sym.items()
    })


def z1_field(M: int) -> RationalVF:
    """Linear rotation field ``-i a z_a d/dz_a`` plus conjugate."""
    return RationalVF({(a, DIAG, ()) + NO_DIVISORS: QC(0, -a) for a in range(1, M + 1)})


# ---------------------------------------------------------------------------
# homological equation for the linear field

def solve_homological_z1(k: RationalVF) -> Tuple[RationalVF, RationalVF]:
    """Split ``K`` into a removable part and the linear-resonant remainder.

    Returns ``(chi, Z)`` with ``[Z1, chi] + K = Z``: diag terms with momentum
    zero and anti terms with momentum equal to the field mode stay in ``Z``;
    every other term divides by its integer eigenvalue.
    """
    chi: Dict[RKey, QC] = {}
    res: Dict[RKey, QC] = {}
    for key, c in k.terms.items():
        a, kind, j = key[0], key[1], key[2]
        d = delta_sum(j)
        m = 2 * d if kind == DIAG else 2 * (d - a)
        if m == 0:
            res[key] = c
        else:
            chi[key] = c.times_i() / m
    return RationalVF._canonical(chi), RationalVF._canonical(res)  # K's keys, none zero


def split_integrable(vf: RationalVF) -> Tuple[RationalVF, RationalVF]:
    """Separate action-only diag terms from everything else."""
    good = {}
    rest = {}
    for key, c in vf.terms.items():
        action_only = key[1] == DIAG and all(delta == 0 for delta, _ in key[2])
        (good if action_only else rest)[key] = c
    return RationalVF(good), RationalVF(rest)


# ---------------------------------------------------------------------------
# graded Lie transforms and the resonant normal form

def _lie_transform(fields: Dict[int, RationalVF], chi: RationalVF, chi_order: int, keep: int,
                   linear_bracket: RationalVF):
    """Apply ``exp(ad_chi)`` to a graded field, tracking the discarded orders.

    ``linear_bracket`` is ``[fields[0], chi]``, known from the homological
    equation; it stands in for the first bracket of grade 0. Returns the
    transformed grading and the smallest discarded order (or None when
    nothing was cut).
    """
    out: Dict[int, RationalVF] = {}
    skipped: Optional[int] = None
    for p, term in fields.items():
        k = 0
        while not term.is_zero():
            order = p + k * chi_order
            if order > keep:
                # conservatively count the cut even if the product would vanish
                skipped = order if skipped is None else min(skipped, order)
                break
            prev = out.get(order)
            out[order] = term if prev is None else prev + term
            k += 1
            # a bracket past keep is counted above without being computed
            if order + chi_order <= keep:
                term = linear_bracket if p == 0 and k == 1 else commutator(term, chi)
                if k > 1:
                    term = term.scale(Fraction(1, k))
    return out, skipped


@dataclass
class NFResult:
    """Outcome of the polynomial normal form stages."""

    r: int
    N: int
    z1: RationalVF
    z3: RationalVF
    z5: RationalVF  # integrable quintic part
    k5: RationalVF  # resonant nonintegrable quintic part
    k7: RationalVF  # resonant septic remainder (r >= 3, else empty)
    generators: Dict[int, RationalVF] = field(default_factory=dict)
    min_skipped_degree: Optional[int] = None

    @property
    def resonant_quintic(self) -> RationalVF:
        return self.z5 + self.k5


def resonant_normal_form(r: int, N: int) -> NFResult:
    """Run the order-by-order polynomial normal form on modes ``1..N``.

    Linear-nonresonant terms are removed through order ``r`` (quintic for
    ``r = 2``, septic for ``r = 3``); the returned pieces are the integrable
    fields, the resonant remainders, and the generators used. All arithmetic
    is exact, so equalities between the produced fields are literal. The
    linear field's bracket with each generator is ``Z - K`` from its stage's
    solve, with the terms and order of the computed bracket (module docstring).
    """
    if r not in (2, 3):
        raise ValueError("supported orders are r = 2 and r = 3")
    if N < 1:
        raise ValueError("N must be >= 1")
    keep = 2 if r == 2 else 3  # highest retained grade: quintic, then septic
    fields: Dict[int, RationalVF] = {0: z1_field(N)}
    for l in range(1, keep + 1):
        fields[l] = taylor_vf(l, N)
    generators: Dict[int, RationalVF] = {}
    min_skipped: Optional[int] = None
    for stage in range(1, keep + 1):
        k = fields.get(stage, RationalVF())
        chi, z = solve_homological_z1(k)
        generators[stage] = chi
        if chi.is_zero():
            continue
        fields, skipped = _lie_transform(fields, chi, stage, keep, z - k)
        if skipped is not None:
            deg = 2 * skipped + 1
            if min_skipped is None or deg < min_skipped:
                min_skipped = deg
    if min_skipped is not None and min_skipped < 2 * r + 3:
        raise AssertionError(
            f"discarded a degree-{min_skipped} field; the scheme requires >= {2 * r + 3}"
        )
    z3 = fields.get(1, RationalVF())
    z5, k5 = split_integrable(fields.get(2, RationalVF()))
    k7 = fields.get(3, RationalVF()) if r >= 3 else RationalVF()
    return NFResult(
        r=r,
        N=N,
        z1=fields[0],
        z3=z3,
        z5=z5,
        k5=k5,
        k7=k7,
        generators=generators,
        min_skipped_degree=min_skipped,
    )
