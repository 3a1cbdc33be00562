"""Action-modulated frequencies, irreducible index vectors, and non-resonance.

The linearized frequencies acquire action-dependent corrections once the cubic
and quintic normal form steps are done: the leading correction is
``omega2(a) = OMEGA2_RATE I_a``, rate 1/4, and the next one, ``omega4``, is
quadratic in the actions; the exact algebra takes both from here. Combinations

    Omega(j) = 2 ( sum_k delta_k omega(a_k) - omega(Delta_j) )

over an index vector ``j`` are the small divisors; non-resonant states keep
them above explicit weighted thresholds. :func:`divisor_evaluator` is the one
place that forms them: the exact algebra calls it over ``Fraction`` and mod p,
and :class:`DivisorTable` over float arrays of actions, one row per state.
Only :class:`DivisorTable` and :func:`certify` need numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    "OMEGA2_RATE",
    "divisor_evaluator",
    "omega4_hessian",
    "irr",
    "kappa",
    "enumerate_irr_indices",
    "divisor_table",
    "certify",
    "is_nonresonant",
]

OMEGA2_RATE = Fraction(1, 4)


def _omega4_raw(a: int, actions: Mapping, N: int, one=1.0):
    """The quartic correction over the number type of ``one`` (float or Fraction).

    ``actions`` maps modes to actions, with absent modes at zero.  It serves
    :func:`divisor_evaluator` over every number type that takes, float arrays
    of one action column per mode included, and over Fractions at unit
    actions it gives the entries of :func:`omega4_hessian`.
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


@cache
def omega4_hessian(m: int, N: int) -> tuple[tuple[int, int, Fraction], ...]:
    """Exact action Hessian of ``omega4`` at mode ``m``, as ``(d, e, value)`` entries.

    ``omega4`` is exactly quadratic in the actions, so :func:`_omega4_raw`
    over Fractions at unit actions gives it by polarization: ``H_dd = 2
    omega4(e_d)``, ``H_de = omega4(e_d + e_e) - omega4(e_d) - omega4(e_e)``.
    Entries are sorted and nonzero, with both orders of each off-diagonal pair.
    """
    if not 1 <= m <= N:
        raise ValueError(f"mode {m} outside cutoff 1..{N}")
    one = Fraction(1)

    def at(*modes: int) -> Fraction:
        return _omega4_raw(m, dict.fromkeys(modes, one), N, one)

    unit = {d: at(d) for d in range(1, N + 1)}
    hess = ((d, e, 2 * unit[d] if d == e else at(d, e) - unit[d] - unit[e]) for d in unit for e in unit)
    return tuple(x for x in hess if x[2])


def divisor_evaluator(actions: Mapping, N: int, one=1.0) -> Callable[[Sequence[tuple[int, int]], int], Any]:
    """``divisor(v, order)``: the small divisor ``2 (sum_k delta_k w(a_k) - w(b))`` of ``v``, momentum ``b``.

    At order 2, ``w(a)`` is ``OMEGA2_RATE I_a`` for ``1 <= a <= N`` and 0 otherwise;
    order 4 adds :func:`_omega4_raw`. Numbers are of the type of ``one``
    (float or Fraction); over floats the actions may be arrays, one entry per
    state, as :class:`DivisorTable` passes them, and each divisor is then the
    array of the scalar values. ``v`` is not reduced: pass it irreducible
    with ``b >= 0``, as a rational field stores it or as :func:`irr` returns it.
    Each action enters as ``one * action``, so int actions over ``Fraction``
    stay exact, and over floats the values are those of the actions as
    given. Values are cached per evaluator, and over floats a zero action
    gives the same bits as an absent one.
    """
    actions = {a: one * x for a, x in actions.items()}
    zero = one * 0
    freqs: dict = {}
    values: dict = {}

    def w(a: int, order: int):
        f = freqs.get((a, order))
        if f is None:
            if order == 2:
                f = actions.get(a, zero) * (one * OMEGA2_RATE) if 1 <= a <= N else zero
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


# ---------------------------------------------------------------------------
# enumeration of irreducible vectors

_ENUM_GUARD = 10**7


def _check_enumeration(r: int, N: int) -> None:
    """Raise unless ``r >= 2``, ``N >= 1`` and enumerating scans at most ``_ENUM_GUARD`` candidates.

    The ``C(2N + l - 1, l)`` candidates of each length ``l`` are counted up to
    the guard only, so even a huge ``r`` is refused at once.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    scanned = 0
    for l in range(2, r + 1):
        scanned += math.comb(2 * N + l - 1, l)
        if scanned > _ENUM_GUARD:
            raise ValueError(f"enumeration at (r, N) = ({r}, {N}) would scan more than {_ENUM_GUARD} "
                             "candidate vectors")


@cache
def enumerate_irr_indices(r: int, N: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All irreducible index vectors with ``2 <= #j <= r``, modes and momentum in 1..N.

    Vectors come out canonical and duplicate-free; results are cached per
    ``(r, N)``. Raises if the enumeration would materialize more than 1e7
    vectors.
    """
    _check_enumeration(r, N)
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
        _check_enumeration(self.r, self.N)
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
    """Per-row result of :meth:`DivisorTable.margins` at one gamma."""

    margin: np.ndarray  # min over divisors of |Omega| / threshold
    witness: np.ndarray  # index into DivisorTable.vectors, -1 when there is none
    order: np.ndarray  # 2 or 4, 0 when there is no witness
    divisor: np.ndarray  # |Omega| of the witness, nan when there is none
    threshold: np.ndarray  # its threshold, nan when there is no witness


# divisor entries evaluated per block of rows (4 MiB of floats): few enough
# that each temporary of a block stays small, and enough that the Python loop
# over the vectors runs once per block, not once per row
_BLOCK_FLOATS = 1 << 19


class DivisorTable:
    """Irreducible index vectors at cutoff ``N`` with their length and kappa factors, built once.

    :meth:`divisors` evaluates every vector at both orders on rows of actions
    through :func:`divisor_evaluator`, and :meth:`margins` holds those columns
    to :meth:`thresholds`. The array operations repeat the scalar float ones
    element by element, so each row gets the margin, witness and order that
    scoring it alone in scalar floats gives, bit for bit.
    :func:`divisor_table` builds the table of :func:`enumerate_irr_indices`
    once and caches it; every mode and momentum of its vectors lies in 1..N.
    """

    def __init__(self, vectors: Sequence[tuple[tuple[int, int], ...]], N: int, weight: WeightSpec) -> None:
        self.N = N
        self.vectors = tuple(vectors)
        if any(delta_sum(j) < 0 for j in self.vectors):
            raise ValueError("a divisor vector has negative momentum; conjugate it first")
        self._length_factor = np.array([float(N) ** (-4 * len(j) - 2) for j in self.vectors])
        self._kappa_factor = np.array([_kappa_factor(kappa(j), weight) for j in self.vectors])
        # one cached table serves every caller
        for arr in (self._length_factor, self._kappa_factor):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.vectors)

    def divisors(self, I: np.ndarray) -> np.ndarray:
        """``|Omega|`` of rows of actions ``I[B, N]``, columns (vector 0, order 2), (vector 0, order 4), ...

        An action too large for its divisor gives an entry that is inf or nan.
        The evaluator caches a second copy of every column and lives only for
        the call, which :meth:`margins` makes once per block of rows.
        """
        I = np.asarray(I, dtype=float)
        B = I.shape[0]
        if I.shape != (B, self.N):
            raise ValueError(f"expected actions of shape (B, {self.N})")
        div = np.empty((B, len(self), 2))
        with np.errstate(over="ignore", invalid="ignore"):
            divisor = divisor_evaluator({a: I[:, a - 1] for a in range(1, self.N + 1)}, self.N)
            for i, v in enumerate(self.vectors):
                div[:, i, 0] = divisor(v, 2)
                div[:, i, 1] = divisor(v, 4)
        return np.abs(div, out=div).reshape(B, -1)

    def thresholds(self, nz2: np.ndarray, gamma: float) -> np.ndarray:
        """The threshold of each column of :meth:`divisors` for rows of squared norms ``nz2[B]``.

        With ``g = gamma nz2``, a vector of length ``l`` is held to ``g
        N^(-4l-2) kf`` at order 2 and ``g N^(-4l-2) max(kf, g)`` at order 4;
        ``kf`` is ``kappa^(-2s)`` (Sobolev) or ``exp(-2 rho kappa^theta)``.
        """
        g = (gamma * nz2)[:, None]
        base = g * self._length_factor
        thr = np.empty((len(g), len(self), 2))
        thr[:, :, 0] = base * self._kappa_factor
        thr[:, :, 1] = base * np.maximum(self._kappa_factor, g)
        return thr.reshape(len(g), -1)

    def margins(self, I: np.ndarray, nz2: np.ndarray, gammas: Sequence[float]) -> list[Margins]:
        """Worst margin of each row of actions ``I[B, N]`` with squared norm ``nz2[B]``, one per gamma.

        Every column of :meth:`divisors` is held to its threshold of
        :meth:`thresholds`. Ties go to the first column; a ratio that is not a
        number never attains the minimum. A row without a finite ratio (no
        divisor at this cutoff) has an infinite margin and no witness; a row
        with ``nz2 == 0`` has margin 0 and no witness. Rows are taken in
        blocks of at most ``_BLOCK_FLOATS`` divisor entries, and each block's
        divisors are evaluated once and held to every gamma, so memory stays
        bounded by the block whatever the number of rows and gammas.
        """
        I = np.asarray(I, dtype=float)
        nz2 = np.asarray(nz2, dtype=float)
        B = I.shape[0]
        if I.shape != (B, self.N) or nz2.shape != (B,):
            raise ValueError(f"expected actions of shape (B, {self.N}) and squared norms of shape (B,)")
        G = len(gammas)
        margin = np.full((G, B), math.inf)
        pick = np.zeros((G, B), dtype=np.intp)
        divisor = np.full((G, B), math.nan)
        threshold = np.full((G, B), math.nan)
        # overflowing or vanishing thresholds give inf and nan ratios, which
        # the comparison below handles as the scalar test does
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rows = max(1, _BLOCK_FLOATS // max(1, 2 * len(self)))
            for lo in range(0, B if len(self) else 0, rows):
                hi = min(B, lo + rows)
                div = self.divisors(I[lo:hi])
                at = np.arange(hi - lo)
                for k, gamma in enumerate(gammas):
                    thr = self.thresholds(nz2[lo:hi], gamma)
                    ratios = div / thr
                    ratios[np.isnan(ratios)] = math.inf
                    p = np.argmin(ratios, axis=1)
                    pick[k, lo:hi] = p
                    margin[k, lo:hi] = ratios[at, p]
                    divisor[k, lo:hi] = div[at, p]
                    threshold[k, lo:hi] = thr[at, p]
        missing = (margin == math.inf) | (nz2 == 0.0)
        margin[:, nz2 == 0.0] = 0.0
        witness = pick // 2
        order = 2 + 2 * (pick % 2)
        witness[missing] = -1
        order[missing] = 0
        divisor[missing] = math.nan
        threshold[missing] = math.nan
        return [Margins(*m) for m in zip(margin, witness, order, divisor, threshold)]


@cache
def divisor_table(r: int, N: int, weight: WeightSpec) -> DivisorTable:
    """The :class:`DivisorTable` of the irreducible vectors at ``(r, N)``, built on first use."""
    return DivisorTable(enumerate_irr_indices(r, N), N, weight)


def _check_rows(I: np.ndarray, norms: np.ndarray) -> None:
    """Raise unless every action and every weighted norm of a batch of states is finite."""
    if not np.isfinite(I).all():
        raise ValueError("a state has an action that is not finite")
    if not np.isfinite(norms).all():
        raise ValueError("a state has a weighted norm that is not finite")


def certify(states: Sequence[ComplexSeq], params: NonResonanceParams) -> list[NonResonanceReport]:
    """:func:`is_nonresonant` of every state, scored together as one batch.

    A state's row holds its actions on modes ``1..N`` and its weighted norm,
    which runs over all of its modes, including those beyond ``N``. Sampled
    states are scored without being built by
    :meth:`~stringnf.measure.SampleBatch.nonresonant`.
    """
    table = divisor_table(params.r, params.N, params.weight)
    I = np.array([[z.action(a) for a in range(1, params.N + 1)] for z in states]).reshape(-1, params.N)
    norms = np.array([weighted_norm(z, params.weight) for z in states], dtype=float)
    _check_rows(I, norms)
    m = table.margins(I, norms * norms, [params.gamma])[0]
    reports = []
    for i, nrm in enumerate(norms.tolist()):
        margin = float(m.margin[i])
        k = int(m.witness[i])
        if k < 0:  # margins gives a zero-norm row margin 0 and no witness
            reason = "zero norm" if nrm == 0.0 else "" if len(table) else "no divisors at this cutoff"
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

    The thresholds are those of :meth:`DivisorTable.thresholds`. Returns the
    worst margin, the index vector attaining it, and that divisor with its
    threshold. The zero sequence is never non-resonant. With no divisor at
    the cutoff every nonzero state passes vacuously: the margin is infinite,
    there is no witness, and ``reason`` says so.
    """
    return certify([z], params)[0]
