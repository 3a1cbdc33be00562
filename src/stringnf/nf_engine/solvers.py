"""Homological-equation solvers past the first resonant stage.

The first stage removes linear-nonresonant terms by dividing at the constant
frequencies.  What survives is resonant there but still mostly removable: the
surviving quintic splits off an integrable part, and the rest can be divided
at the action-dependent frequency corrections, which is where the divisor
descriptors of :mod:`.rational` come from.

Dividing at action-dependent rotation rates leaves echoes: the bracket of a
rotation field with action-dependent rates against any generator produces,
besides the eigenvalue term the division cancels, coupling terms built from
the derivative of the rates along the generator's action transport.  The
solvers here construct those coupling fields explicitly and hand them back,
so each round either terminates outright (the quintic cascade, whose second
step provably has no echo) or lowers/keeps the order for the next round.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from ..core import delta_sum
from ..divisors import OMEGA2_RATE, irr, omega4_hessian
from .poly import NFResult
from .rational import (
    ANTI,
    NO_DIVISORS,
    QC,
    RKey,
    RationalVF,
    action_transport,
    commutator,
    divisor_zero_form,
    validate_class,
)

__all__ = [
    "UnsolvableKeyError",
    "chi3_explicit",
    "quintic_rational_solve",
    "septic_stage_input",
    "solve_homological_z3z5",
]


class UnsolvableKeyError(ValueError):
    """A term's leading divisor vanishes identically, so it cannot be divided."""

    def __init__(self, key):
        self.key = key
        super().__init__(
            f"term {key} reduces to an identically resonant divisor; "
            "it belongs in the normal form, not in a division"
        )


def chi3_explicit(N: int) -> RationalVF:
    """Closed-form first-stage generator on modes ``1..N``.

    Written straight from the solved coefficients: the mode-coupling entries
    scale with the inverse frequency offsets ``1/(8(b - a))`` and
    ``1/(8(b + a))``, the self-coupling one with ``1/(16a)``.  Equal to what
    the generic first-stage division produces, and kept as an explicit table
    so the two can be checked against each other.
    """
    terms: Dict[RKey, QC] = {}
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if b != a:
                terms[(a, ANTI, ((1, b),)) + NO_DIVISORS] = QC(Fraction(1, 8 * (b - a)))
                terms[(a, ANTI, ((-1, b),)) + NO_DIVISORS] = QC(Fraction(1, 8 * (b + a)))
        terms[(a, ANTI, ((-1, a),)) + NO_DIVISORS] = QC(Fraction(1, 16 * a))
    return RationalVF(terms)


# ---------------------------------------------------------------------------
# building blocks

def _split_resonant(field: RationalVF) -> Tuple[RationalVF, RationalVF]:
    """Separate terms with an empty irreducible part from divisible ones.

    The former have identically vanishing divisors at every correction order;
    they stay in the normal form verbatim and must never be divided.
    """
    keep: Dict[RKey, QC] = {}
    rest: Dict[RKey, QC] = {}
    for key, c in field.terms.items():
        j = key[2]
        if irr(j, delta_sum(j)) == ():
            keep[key] = c
        else:
            rest[key] = c
    return RationalVF(keep), RationalVF(rest)


def _divide_keys(field: RationalVF, section: str) -> RationalVF:
    """Generator ``i * coeff / divisor(jvec)`` per term.

    The divisor index vector is the term's own index vector in storage form;
    it lands in the quadratic-frequency section (``"h2"``) or the
    double-weight corrected section (``"kk"``) depending on which rotation
    field the caller solves against.
    """
    slot = {"h2": 3, "kk": 5}[section]
    out: Dict[RKey, QC] = {}
    for key, c in field.terms.items():
        w, sign = divisor_zero_form(key[2])
        if w is None:
            raise UnsolvableKeyError(key)
        secs = list(key[3:])
        secs[slot - 3] = secs[slot - 3] + (w,)
        out[key[:3] + tuple(secs)] = c.times_i() * QC(sign)
    return RationalVF(out)


def _action_coupling(field: RationalVF) -> RationalVF:
    """The field ``-(i/4) sum_a z_a (action derivative along the input)``.

    This is the echo of dividing at the cubic rotation: its rates are the
    actions times ``OMEGA2_RATE``, so the rate derivative contracts the
    input's action transport with a single leading factor.
    """
    pref = QC(0, -OMEGA2_RATE)
    return action_transport(field, [(key[0], key[0], 0, pref, [key]) for key in field.terms])


def _frequency_coupling(field: RationalVF, N: int) -> RationalVF:
    """The field ``-i sum_a z_a <grad omega4_a, action transport>``.

    Echo of dividing at the corrected rotation: the quartic correction's
    action gradient is linear in the actions with the constant Hessian of
    :func:`omega4_hessian`, so each contraction brings one action factor and
    one transport factor into the numerator.
    """
    neg_i = QC(0, -1)
    by_mode: Dict[int, list] = {}
    for key in field.terms:
        by_mode.setdefault(key[0], []).append(key)
    couplings = [
        (a, d, e, neg_i * QC(h), by_mode[d])
        for a in range(1, N + 1)
        for d, e, h in omega4_hessian(a, N)
        if d in by_mode
    ]
    return action_transport(field, couplings)


# ---------------------------------------------------------------------------
# the solvers

def quintic_rational_solve(k5_nonint: RationalVF, N: int) -> Tuple[RationalVF, RationalVF]:
    """Two-step divisor solution of the resonant non-integrable quintic.

    The first generator divides every term at the cubic rotation, leaving
    the action-coupling echo; the second divides that echo again.  The echo
    of the second step cancels identically, key by key, because its terms
    pair up across the conjugate routes that the zero-momentum divisor
    storage maps to the same descriptor; this termination is asserted, not
    assumed.  Returns the pair ``(S, M)`` of generators, so that the bracket
    against the cubic rotation kills the input exactly.
    """
    integrable, rest = _split_resonant(k5_nonint)
    if not integrable.is_zero():
        raise ValueError(
            "input contains integrable terms; pass only the non-integrable part"
        )
    if k5_nonint.max_mode() > N:
        raise ValueError(f"input has modes beyond the cutoff {N}")
    s = _divide_keys(rest, "h2")
    echo = _action_coupling(s)
    m = _divide_keys(echo, "h2")
    tail = _action_coupling(m)
    if not tail.is_zero():
        raise AssertionError("second-step echo failed to cancel identically")
    return s, m


def solve_homological_z3z5(
    q: RationalVF,
    N: int,
    *,
    leading_only: bool = False,
    weight=None,
) -> Tuple[RationalVF, RationalVF, RationalVF, RationalVF]:
    """One round of division at the resonant rotation fields.

    Returns ``(chi, z_int, echo_same, echo_down)``: the generator, the
    verbatim-kept integrable part, the echo at the input's order, and the
    echo one order below.  The input identity is

        [rotation, chi] + q = z_int + echo_same + echo_down

    with the rotation being the cubic plus corrected quintic field by
    default.  ``leading_only`` divides at the cubic rotation alone: the
    generator's divisor joins the quadratic-frequency section, there is no
    order-dropping echo, and the inputs must carry pure quadratic-frequency
    descriptors and satisfy the stronger divisor-weight control condition
    (checked, violations raise).
    """
    z_int, rest = _split_resonant(q)
    if leading_only:
        for key in rest.terms:
            if key[4] or key[5]:
                raise ValueError(
                    f"term {key} carries corrected-frequency divisors; "
                    "the leading-only round accepts pure quadratic descriptors"
                )
        bad = validate_class(rest, N, weight=weight, strict_control=True)
        if bad:
            raise ValueError(
                "inputs fail the stronger control condition:\n" + "\n".join(bad)
            )
        chi = _divide_keys(rest, "h2")
        return chi, z_int, _action_coupling(chi), RationalVF()
    chi = _divide_keys(rest, "kk")
    echo_down = _action_coupling(chi)
    echo_same = _frequency_coupling(chi, N)
    return chi, z_int, echo_same, echo_down


def septic_stage_input(nf: NFResult) -> RationalVF:
    """Order-three input of the last solver round, from a computed normal form.

    Half the bracket of the resonant quintic against the quintic-stage
    generators, plus the resonant septic remainder.  Requires a depth-three
    run (the septic remainder is empty otherwise).
    """
    if nf.r < 3 or nf.k7.is_zero():
        raise ValueError("need a depth-three normal form with a septic remainder")
    N = nf.N
    s, m = quintic_rational_solve(nf.k5, N)
    bracket = commutator(nf.resonant_quintic, s + m, N).scale(QC(Fraction(1, 2)))
    return bracket + nf.k7
