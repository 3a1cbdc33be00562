"""Action-modulated frequencies, irreducible index vectors, and non-resonance.

The linearized frequencies acquire action-dependent corrections once the cubic
and quintic normal form steps are done: the leading correction is
``omega2(a) = I_a / 4`` and the next one, ``omega4``, is quadratic in the
actions. Combinations

    Omega(j) = 2 ( sum_k delta_k omega(a_k) - omega(Delta_j) )

over an index vector ``j`` are the small divisors; non-resonant states keep
them above explicit weighted thresholds. Everything here is a plain function
of the action vector, no symbolic machinery involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Optional

from .core import ComplexSeq, WeightSpec, canonicalize, delta_sum, mu_min

__all__ = [
    "FreqContext",
    "NonResonanceParams",
    "NonResonanceReport",
    "PerturbationReport",
    "omega2",
    "omega4",
    "big_omega",
    "irr",
    "kappa",
    "enumerate_irr_indices",
    "is_nonresonant",
    "perturbation_stable",
]


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
        acts = {a: z.action(a) for a in z.modes() if a <= N}
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


def _omega4_raw(a: int, actions: Mapping, N: int, one=1.0):
    """The quartic correction over the number type of ``one`` (float or Fraction).

    ``actions`` maps modes to actions, with absent modes at zero.  Floats give
    the divisor values; Fractions give the exact oracle of
    ``nf_engine.rational.evaluate_exact``.  Integer constants enter through
    ``one``, so the float operations are the same whichever type is used.
    """
    zero = one * 0
    Ia = actions.get(a, zero)
    a_f = one * a
    cross = zero
    tail = zero
    for d in range(1, N + 1):
        if d == a:
            continue
        Id = actions.get(d)
        if not Id:
            continue
        d_f = one * d
        denom = d_f * d_f - a_f * a_f
        cross += (3 / d_f + d_f / denom) * Id
        tail += Id * Id / denom
    if a <= N:
        return -27 / (64 * a_f) * Ia * Ia - Ia / 8 * cross + a_f / 16 * tail
    return a_f / 16 * tail


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


def irr(jvec: Iterable[tuple[int, int]], delta_target: int) -> tuple[tuple[int, int], ...]:
    """Irreducible part of an index vector relative to its momentum.

    Drops action entries (delta = 0), cancels conjugate pairs ``(1,b),(-1,b)``
    maximally, and removes a single ``(1, delta_target)`` entry when the
    momentum is positive and such an entry remains. The stated momentum must
    match the actual one.
    """
    v = canonicalize(jvec)
    d = delta_sum(v)
    if d != delta_target:
        raise ValueError(f"index vector has momentum {d}, caller stated {delta_target}")
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for delta, a in v:
        if delta == 1:
            pos[a] = pos.get(a, 0) + 1
        elif delta == -1:
            neg[a] = neg.get(a, 0) + 1
    for a in list(pos):
        k = min(pos[a], neg.get(a, 0))
        if k:
            pos[a] -= k
            neg[a] -= k
    if d > 0 and pos.get(d, 0) > 0:
        pos[d] -= 1
    out = []
    for a, k in pos.items():
        out.extend([(1, a)] * k)
    for a, k in neg.items():
        if k:
            out.extend([(-1, a)] * k)
    return canonicalize(out)


def kappa(jvec: Iterable[tuple[int, int]]) -> int:
    """Divisor weight: smallest mode, capped by the momentum when positive."""
    v = tuple(jvec)
    if not v:
        raise ValueError("kappa of an empty index vector is undefined")
    d = delta_sum(v)
    if d < 0:
        raise ValueError("kappa requires momentum >= 0 (conjugate the vector first)")
    m = mu_min(v)
    return m if d == 0 else min(m, d)


def big_omega(jvec: Iterable[tuple[int, int]], ctx: FreqContext, order: int = 2) -> float:
    """Small divisor of an index vector at the given correction order (2 or 4).

    Computed on the irreducible part, so integrable vectors give exactly 0.0
    and ``big_omega(j) == big_omega(irr(j))`` holds by construction. Negative
    momentum is a domain error; conjugate the vector instead.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    v = canonicalize(jvec)
    d = delta_sum(v)
    if d < 0:
        raise ValueError("momentum is negative; conjugate the index vector first")
    red = irr(v, d)
    if not red:
        return 0.0
    b = delta_sum(red)

    def w(a: int) -> float:
        return omega2(a, ctx) if order == 2 else omega2(a, ctx) + omega4(a, ctx)

    total = sum(delta * w(a) for delta, a in red)
    return 2.0 * (total - w(b))


# ---------------------------------------------------------------------------
# enumeration of irreducible vectors

_ENUM_CACHE: dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], ...]] = {}
_ENUM_GUARD = 10**7


def enumerate_irr_indices(r: int, N: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All irreducible index vectors with ``2 <= #j <= r``, modes and momentum in 1..N.

    Vectors come out canonical and duplicate-free; results are cached per
    ``(r, N)``. Raises if the enumeration would materialize more than 1e7
    vectors.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    key = (r, N)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    bound = sum(math.comb(2 * N + l - 1, l) for l in range(2, r + 1))
    if bound > _ENUM_GUARD:
        raise ValueError(f"enumeration would scan {bound} candidate vectors (limit {_ENUM_GUARD})")
    symbols = [(delta, a) for a in range(1, N + 1) for delta in (-1, 1)]
    out: list[tuple[tuple[int, int], ...]] = []
    for l in range(2, r + 1):
        for combo in combinations_with_replacement(symbols, l):
            pos = {a for delta, a in combo if delta == 1}
            neg = {a for delta, a in combo if delta == -1}
            if pos & neg:
                continue
            d = sum(delta * a for delta, a in combo)
            if d < 0 or d > N:
                continue
            if d > 0 and d in pos:
                continue
            out.append(canonicalize(combo))
    result = tuple(sorted(set(out)))
    _ENUM_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# non-resonance test

@dataclass(frozen=True)
class NonResonanceParams:
    r: int
    N: int
    gamma: float
    weight: WeightSpec

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError("r must be >= 2")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")


@dataclass(frozen=True)
class NonResonanceReport:
    ok: bool
    margin: float  # min over tested divisors of |Omega| / threshold
    witness: Optional[tuple[tuple[int, int], ...]]  # index vector at the minimum
    witness_order: Optional[int]  # 2 or 4
    norm_w: float
    reason: str = ""


def _kappa_factor(k: int, w: WeightSpec) -> float:
    if w.kind == "sobolev":
        return float(k) ** (-2.0 * w.s)
    return math.exp(-2.0 * w.rho * float(k) ** w.theta)


def is_nonresonant(z: ComplexSeq, params: NonResonanceParams) -> NonResonanceReport:
    """Test all irreducible divisors of ``z`` against their thresholds.

    The leading-order divisor must clear ``gamma |z|_w^2 N^(-4l-2) kf`` and the
    next-order one the same with ``kf`` replaced by ``max(kf, gamma |z|_w^2)``,
    where ``kf`` is ``kappa^(-2s)`` for Sobolev weights and
    ``exp(-2 rho kappa^theta)`` for Gevrey weights. Returns the worst margin
    and the index vector attaining it. The zero sequence is never non-resonant.
    With no divisor at the cutoff every nonzero state passes vacuously: the
    margin is infinite, there is no witness, and ``reason`` says so.
    """
    from .core import weighted_norm

    nrm = weighted_norm(z, params.weight)
    if nrm == 0.0:
        return NonResonanceReport(False, 0.0, None, None, 0.0, reason="zero norm")
    nz2 = nrm * nrm
    ctx = FreqContext.from_seq(z, params.N)
    gamma = params.gamma
    best = math.inf
    best_j: Optional[tuple[tuple[int, int], ...]] = None
    best_order: Optional[int] = None
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
    ok = best > 1.0
    reason = "no divisors at this cutoff" if best_j is None else ""
    return NonResonanceReport(ok, best, best_j, best_order, nrm, reason)


@dataclass(frozen=True)
class PerturbationReport:
    norm_hypothesis: bool
    action_hypothesis: bool
    action_gap: float  # measured sup_a w(a)^2 |I'_a - I_a|
    action_cap: float  # allowed bound for that sup
    base: NonResonanceReport  # z at gamma
    perturbed: NonResonanceReport  # z' at gamma / 2

    @property
    def certified(self) -> bool:
        return self.norm_hypothesis and self.action_hypothesis and self.perturbed.ok


def perturbation_stable(z: ComplexSeq, zprime: ComplexSeq, params: NonResonanceParams) -> PerturbationReport:
    """Check the stability hypotheses and the perturbed state at half the margin.

    A state within four times the norm and with weighted action changes below
    ``gamma^2 |z|_w^2 / (288 (r+1) N^(4r+3))`` stays non-resonant at
    ``gamma / 2`` whenever ``z`` was non-resonant at ``gamma``.
    """
    from .core import weighted_norm

    nz = weighted_norm(z, params.weight)
    npz = weighted_norm(zprime, params.weight)
    gap = 0.0
    for a in range(1, params.N + 1):
        w2 = params.weight.weight_sq(a)
        gap = max(gap, w2 * abs(zprime.action(a) - z.action(a)))
    cap = params.gamma**2 * nz * nz / (288.0 * (params.r + 1) * float(params.N) ** (4 * params.r + 3))
    half = NonResonanceParams(params.r, params.N, params.gamma / 2.0, params.weight)
    return PerturbationReport(
        norm_hypothesis=npz <= 4.0 * nz,
        action_hypothesis=gap <= cap,
        action_gap=gap,
        action_cap=cap,
        base=is_nonresonant(z, params),
        perturbed=is_nonresonant(zprime, half),
    )
