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
from functools import cache
from itertools import combinations_with_replacement
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import ComplexSeq, WeightSpec, canonicalize, delta_sum, mu_min, weighted_norm

__all__ = [
    "DivisorTable",
    "Margins",
    "NonResonanceParams",
    "NonResonanceReport",
    "PerturbationReport",
    "divisor_evaluator",
    "irr",
    "kappa",
    "enumerate_irr_indices",
    "divisor_table",
    "certify",
    "is_nonresonant",
    "perturbation_stable",
]


def _omega4_raw(a: int, actions: Mapping, N: int, one=1.0):
    """The quartic correction over the number type of ``one`` (float or Fraction).

    ``actions`` maps modes to actions, with absent modes at zero.  Floats and
    Fractions give the values of :func:`divisor_evaluator`; float arrays (one
    action column per mode) give a whole batch of states at once for
    :class:`DivisorTable`.
    Integer constants enter through ``one``, so the float operations are the
    same whichever type is used.  A zero action adds a signed zero to each
    sum, which leaves the sum unchanged, so a column that is zero in some rows
    gives those rows the same bits as leaving the mode out.
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
        if Id is None:
            continue
        d_f = one * d
        denom = d_f * d_f - a_f * a_f
        cross += (3 / d_f + d_f / denom) * Id
        tail += Id * Id / denom
    if a <= N:
        return -27 / (64 * a_f) * Ia * Ia - Ia / 8 * cross + a_f / 16 * tail
    return a_f / 16 * tail


def divisor_evaluator(actions: Mapping, N: int, one=1.0) -> Callable[[Sequence[tuple[int, int]], int], Any]:
    """``divisor(v, order)``: the small divisor ``2 (sum_k delta_k w(a_k) - w(b))`` of ``v``, momentum ``b``.

    At order 2, ``w(a)`` is ``I_a / 4`` for ``1 <= a <= N`` and 0 otherwise;
    order 4 adds :func:`_omega4_raw`. Numbers are of the type of ``one``
    (float or Fraction). ``v`` is not reduced: pass it irreducible with ``b
    >= 0``, as a rational field stores it or as :func:`_reduce` returns it.
    Values are cached per evaluator, and over floats a zero action gives the
    same bits as an absent one.
    """
    zero = one * 0
    freqs: dict = {}
    values: dict = {}

    def w(a: int, order: int):
        f = freqs.get((a, order))
        if f is None:
            if order == 2:
                f = actions.get(a, zero) / 4 if 1 <= a <= N else zero
            else:
                f = w(a, 2) + _omega4_raw(a, actions, N, one) if a else zero
            freqs[(a, order)] = f
        return f

    def divisor(v: Sequence[tuple[int, int]], order: int):
        val = values.get((v, order))
        if val is None:
            total = sum(delta * w(a, order) for delta, a in v)
            val = values[(v, order)] = 2 * (total - w(delta_sum(v), order))
        return val

    return divisor


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


def _reduce(jvec: Iterable[tuple[int, int]]) -> tuple[tuple, int, tuple]:
    """Canonical form, momentum and irreducible part; negative momentum is a domain error."""
    v = canonicalize(jvec)
    d = delta_sum(v)
    if d < 0:
        raise ValueError("momentum is negative; conjugate the index vector first")
    return v, d, irr(v, d)


def _tail_correction(red: Sequence[tuple[int, int]], b: int, actions: Mapping, N: int):
    """Divisor correction of ``red`` (momentum ``b``) from ``omega4`` tails over the other modes.

    Over floats or action columns, as :func:`_omega4_raw`; with the excluded
    modes absent, its self and cross terms add only signed zeros.
    """
    excluded = {a for _, a in red} | {b}
    kept = {a: x for a, x in actions.items() if a not in excluded}

    def tail(a: int):
        return _omega4_raw(a, kept, N) if a else 0.0

    return sum(delta * tail(a) for delta, a in red) - tail(b)


# ---------------------------------------------------------------------------
# enumeration of irreducible vectors

_ENUM_GUARD = 10**7


@cache
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
    return tuple(sorted(set(out)))


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
        self.weight.check_modes(self.N)


@dataclass(frozen=True)
class NonResonanceReport:
    ok: bool
    margin: float  # min over tested divisors of |Omega| / threshold
    witness: Optional[tuple[tuple[int, int], ...]]  # index vector at the minimum
    witness_order: Optional[int]  # 2 or 4
    norm_w: float
    reason: str = ""
    divisor: Optional[float] = None  # |Omega| of the witness at its order
    threshold: Optional[float] = None  # the threshold the witness was held to


def _kappa_factor(k: int, w: WeightSpec) -> float:
    if w.kind == "sobolev":
        return float(k) ** (-2.0 * w.s)
    return math.exp(-2.0 * w.rho * float(k) ** w.theta)


class Margins(NamedTuple):
    """Per-row result of :meth:`DivisorTable.margins`."""

    margin: np.ndarray  # min over divisors of |Omega| / threshold
    witness: np.ndarray  # index into DivisorTable.vectors, -1 when there is none
    order: np.ndarray  # 2 or 4, 0 when there is no witness
    divisor: np.ndarray  # |Omega| of the witness, nan when there is none
    threshold: np.ndarray  # its threshold, nan when there is no witness


def _thresholds(gnz2, length_factor, kappa_factor):
    """Leading- and next-order thresholds ``gnz2 lf kf`` and ``gnz2 lf max(kf, gnz2)``.

    ``gnz2`` is ``gamma |z|_w^2``, ``lf = N^(-4l-2)`` for a vector of length
    ``l``, and ``kf`` is ``kappa^(-2s)`` (Sobolev) or ``exp(-2 rho
    kappa^theta)`` (Gevrey).
    """
    base = gnz2 * length_factor
    return base * kappa_factor, base * np.maximum(kappa_factor, gnz2)


def _columns(I: np.ndarray, width: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """``omega2`` of rows of actions ``I[B, M]`` (zero at column 0 and past ``M``), and each mode's column."""
    B, M = I.shape
    w = np.zeros((B, width))
    w[:, 1 : M + 1] = 0.25 * I
    return w, {a: I[:, a - 1] for a in range(1, M + 1)}


# floats gathered per block of rows (about 64 KiB), so that the divisor
# temporaries stay small whatever the number of rows and the size of (r, N)
_BLOCK_FLOATS = 1 << 13


class DivisorTable:
    """Irreducible index vectors and their threshold factors at cutoff ``N``, compiled once.

    For each vector the table holds its entry modes and signs in canonical
    order (padded with mode 0 and sign 0 up to the longest vector), its
    momentum ``b``, its length factor ``N^(-4l-2)`` and its kappa factor.
    :meth:`margins` scores a batch of states with array operations that
    repeat, element by element and in the same order, the float operations
    of :func:`divisor_evaluator` and the thresholds, so each row gets the
    margin, witness and order that scoring it alone in scalar floats gives,
    bit for bit.
    :func:`divisor_table` builds the table of :func:`enumerate_irr_indices`
    once and caches it. A table built without a weight has no thresholds and
    serves divisor values only, of any vectors with momentum ``b >= 0``.
    """

    def __init__(
        self, vectors: Sequence[tuple[tuple[int, int], ...]], N: int, weight: Optional[WeightSpec] = None
    ) -> None:
        self.N = N
        self.vectors = tuple(vectors)
        V = len(self.vectors)
        width = max((len(j) for j in self.vectors), default=1)
        self._modes = np.zeros((V, width), dtype=np.intp)
        self._signs = np.zeros((V, width))
        for i, j in enumerate(self.vectors):
            for k, (delta, a) in enumerate(j):
                self._modes[i, k] = a
                self._signs[i, k] = delta
        self._momentum = np.array([delta_sum(j) for j in self.vectors], dtype=np.intp)
        if (self._momentum < 0).any():
            raise ValueError("a divisor vector has negative momentum; conjugate it first")
        arrays = [self._modes, self._signs, self._momentum]
        if weight is not None:
            self._length_factor = np.array([float(N) ** (-4 * len(j) - 2) for j in self.vectors])
            self._kappa_factor = np.array([_kappa_factor(kappa(j), weight) for j in self.vectors])
            arrays += [self._length_factor, self._kappa_factor]
        # one cached table serves every caller
        for arr in arrays:
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.vectors)

    def _divisors(self, w: np.ndarray) -> np.ndarray:
        """Signed divisors ``2 (sum_k delta_k w[a_k] - w[b])``, one column per vector."""
        # w[:, a] is the frequency of mode a, and w[:, 0] = 0 serves both the
        # padding and zero momentum; entries are added in canonical order
        g = w[:, self._modes]
        total = g[:, :, 0] * self._signs[:, 0]
        for k in range(1, self._modes.shape[1]):
            total = total + g[:, :, k] * self._signs[:, k]
        return 2.0 * (total - w[:, self._momentum])

    def _frequencies(self, I: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both orders of frequency corrections, column ``a`` for mode ``a`` and column 0 zero.

        Columns run to the table's largest mode or momentum when that passes
        the cutoff ``N = I.shape[1]``; past it, as in :func:`divisor_evaluator`,
        order 2 is zero and order 4 keeps the tail of :func:`_omega4_raw`.
        """
        N = I.shape[1]
        top = max(N, int(self._modes.max(initial=0)), int(self._momentum.max(initial=0)))
        w2, columns = _columns(I, top + 1)
        w4 = w2.copy()
        for a in range(1, top + 1):
            w4[:, a] += _omega4_raw(a, columns, N)
        return w2, w4

    def _scores(self, w2: np.ndarray, w4: np.ndarray, gnz2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Divisors and thresholds, columns ordered (vector 0, order 2), (vector 0, order 4), ..."""
        B = w2.shape[0]
        div = np.empty((B, len(self), 2))
        thr = np.empty((B, len(self), 2))
        div[:, :, 0] = np.abs(self._divisors(w2))
        div[:, :, 1] = np.abs(self._divisors(w4))
        thr[:, :, 0], thr[:, :, 1] = _thresholds(gnz2[:, None], self._length_factor, self._kappa_factor)
        return div.reshape(B, -1), thr.reshape(B, -1)

    def margins(self, I: np.ndarray, nz2: np.ndarray, gamma: float) -> Margins:
        """Worst divisor margin of each row of actions ``I[B, N]`` with squared norm ``nz2[B]``.

        Both orders of every divisor are held to the thresholds of
        :func:`_thresholds` at ``gamma nz2``. Ties go to the first divisor in
        the order (vector 0, order 2), (vector 0, order 4), (vector 1, order
        2), ...; a ratio that is not a number never attains the minimum. A
        row without a finite ratio (no divisor at this cutoff) has an
        infinite margin and no witness; a row with ``nz2 == 0`` has margin 0
        and no witness.
        """
        I = np.asarray(I, dtype=float)
        nz2 = np.asarray(nz2, dtype=float)
        B = I.shape[0]
        if I.shape != (B, self.N) or nz2.shape != (B,):
            raise ValueError(f"expected actions of shape (B, {self.N}) and squared norms of shape (B,)")
        margin = np.full(B, math.inf)
        pick = np.zeros(B, dtype=np.intp)
        divisor = np.full(B, math.nan)
        threshold = np.full(B, math.nan)
        # overflowing or vanishing thresholds give inf and nan ratios, which
        # the comparison below handles as the scalar test does
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w2, w4 = self._frequencies(I)
            gnz2 = gamma * nz2
            rows = max(1, _BLOCK_FLOATS // max(1, self._modes.size))
            for lo in range(0, B if len(self) else 0, rows):
                hi = min(B, lo + rows)
                div, thr = self._scores(w2[lo:hi], w4[lo:hi], gnz2[lo:hi])
                ratios = div / thr
                ratios[np.isnan(ratios)] = math.inf
                at = np.arange(hi - lo)
                p = np.argmin(ratios, axis=1)
                pick[lo:hi] = p
                margin[lo:hi] = ratios[at, p]
                divisor[lo:hi] = div[at, p]
                threshold[lo:hi] = thr[at, p]
        missing = (margin == math.inf) | (nz2 == 0.0)
        margin[nz2 == 0.0] = 0.0
        witness = pick // 2
        order = 2 + 2 * (pick % 2)
        witness[missing] = -1
        order[missing] = 0
        divisor[missing] = math.nan
        threshold[missing] = math.nan
        return Margins(margin, witness, order, divisor, threshold)


@cache
def divisor_table(r: int, N: int, weight: WeightSpec) -> DivisorTable:
    """The :class:`DivisorTable` of the irreducible vectors at ``(r, N)``, built on first use."""
    return DivisorTable(enumerate_irr_indices(r, N), N, weight)


def _tail_scores(v: tuple, params: NonResonanceParams, actions: np.ndarray, eps: float) -> tuple:
    """Both divisors of irreducible ``v`` per row of ``eps^2 actions[B, M]``, and their thresholds.

    Frequencies are cut off at ``M``, thresholds at ``params.N`` and ``gamma
    eps^2``, the leading one halved. Rows repeat the scalar float operations.
    """
    table = DivisorTable((v,), params.N, params.weight)
    M = actions.shape[1]
    b = int(table._momentum[0])
    with np.errstate(over="ignore", invalid="ignore"):
        I = eps * eps * actions
        if not np.isfinite(I).all():
            raise ValueError(f"eps = {eps!r} scales a sampled action out of the finite range")
        w2, columns = _columns(I, max(M, b, int(table._modes.max())) + 1)
        leading = table._divisors(w2)[:, 0]
        corrected = leading + 2.0 * _tail_correction(v, b, columns, M)
    thr2, thr4 = _thresholds(params.gamma * eps * eps, table._length_factor[0], table._kappa_factor[0])
    return leading, corrected, 0.5 * float(thr2), float(thr4)


def certify(states: Sequence[ComplexSeq], params: NonResonanceParams) -> list[NonResonanceReport]:
    """:func:`is_nonresonant` of every state, scored together as one batch.

    A state's row holds its actions on modes ``1..N`` and its weighted norm,
    which runs over all of its modes, including those beyond ``N``. Sampled
    states are scored without being built by
    :meth:`~stringnf.measure.SampleBatch.nonresonant`.
    """
    table = divisor_table(params.r, params.N, params.weight)
    I = np.array([[z.action(a) for a in range(1, params.N + 1)] for z in states]).reshape(-1, params.N)
    if not np.isfinite(I).all():
        raise ValueError("a state has an action that is not finite")
    norms = np.array([weighted_norm(z, params.weight) for z in states], dtype=float)
    m = table.margins(I, norms * norms, params.gamma)
    reports = []
    for i, nrm in enumerate(norms.tolist()):
        if nrm == 0.0:
            reports.append(NonResonanceReport(False, 0.0, None, None, 0.0, reason="zero norm"))
            continue
        margin = float(m.margin[i])
        k = int(m.witness[i])
        if k < 0:
            reason = "" if len(table) else "no divisors at this cutoff"
            reports.append(NonResonanceReport(margin > 1.0, margin, None, None, nrm, reason))
        else:
            reports.append(
                NonResonanceReport(
                    margin > 1.0, margin, table.vectors[k], int(m.order[i]), nrm,
                    divisor=float(m.divisor[i]), threshold=float(m.threshold[i]),
                )
            )
    return reports


def is_nonresonant(z: ComplexSeq, params: NonResonanceParams) -> NonResonanceReport:
    """Test all irreducible divisors of ``z`` against their thresholds.

    The thresholds are those of :func:`_thresholds`. Returns the
    worst margin, the index vector attaining it, and that divisor with its
    threshold. The zero sequence is never non-resonant. With no divisor at
    the cutoff every nonzero state passes vacuously: the margin is infinite,
    there is no witness, and ``reason`` says so.
    """
    return certify([z], params)[0]


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
