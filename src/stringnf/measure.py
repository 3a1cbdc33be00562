"""Monte Carlo estimation of the non-resonant measure.

Initial data is drawn from a Gaussian ensemble written in action-angle form:
the actions are independent exponentials whose rates make each weighted
coordinate unit scale (rate ``m**(2s)`` for Sobolev weights, rate
``exp(2 rho m**theta) * m**2`` for Gevrey weights), the angles are uniform,
and the draw is conditioned by rejection on a weighted action ball
(``sum_m m**(2s-2) I_m <= radius`` and ``sum_m exp(2 rho m**theta) I_m <=
radius`` respectively). On top of the sampler sits one estimator: the
fraction of sampled states that pass the non-resonance test of
:class:`~stringnf.divisors.DivisorTable` after scaling, with a Wilson score
interval.

Sampling is chunked, and every chunk is generated from its own generator
keyed by ``(seed, chunk index)``, so results are reproducible per seed,
independent of evaluation order, and a shorter run is a prefix of a longer
one with the same seed.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import ComplexSeq, WeightSpec
from .divisors import NonResonanceParams, _check_rows, divisor_table

__all__ = [
    "MeasureEstimate",
    "MeasureSpec",
    "SampleBatch",
    "default_eps",
    "eps_squared_cap",
    "estimate_measure",
    "sample_actions",
    "wilson_interval",
]

_CHUNK = 4096
# attempts consumed before the rejection-rate guard may fire
_GUARD_FLOOR = 32768

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MeasureSpec:
    """Sampling half of a Monte Carlo run: ensemble, size, and seed.

    ``truncation`` is the largest excited mode. ``ball_radius`` bounds the
    weighted action sum used by the rejection step; the default matches the
    normalization of the ensemble's density.
    """

    weight: WeightSpec
    truncation: int
    sample_count: int
    seed: int
    ball_radius: float = 0.5

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not (math.isfinite(self.ball_radius) and self.ball_radius > 0):
            raise ValueError("ball_radius must be finite and > 0")
        self.weight.check_modes(self.truncation)


def _ball_coefficients(w: WeightSpec, modes: np.ndarray) -> np.ndarray:
    if w.kind == "sobolev":
        return modes ** (2.0 * w.s - 2.0)
    return np.exp(2.0 * w.log_weight(modes))


@dataclass(frozen=True)
class SampleBatch:
    """Accepted draws: row ``i``, column ``m-1`` holds ``I_m`` (or a phase)."""

    actions: np.ndarray
    phases: np.ndarray
    spec: MeasureSpec
    attempts: int
    # mask of the samples that pass, per (eps, divisor table, gamma) scored
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.actions.shape[0]

    def _amplitudes(self, eps: float, which=slice(None)) -> np.ndarray:
        """Complex coordinates ``(eps sqrt(I_m)) exp(i phase_m)`` of the selected samples."""
        return (eps * np.sqrt(self.actions[which])) * np.exp(1j * self.phases[which])

    def state(self, i: int, eps: float = 1.0) -> ComplexSeq:
        """Complex state of sample ``i`` scaled by ``eps``."""
        return ComplexSeq(dict(enumerate(self._amplitudes(eps, i).tolist(), start=1)), self.spec.truncation)

    def rows(self, eps: float, N: int, weight: WeightSpec) -> tuple[np.ndarray, np.ndarray]:
        """Actions ``I[B, N]`` and weighted norms ``[B]`` of every ``state(i, eps)``, bit for bit.

        Row ``i`` holds ``state(i, eps).action(a)`` for ``a = 1..N`` (zero past
        the truncation) and ``weighted_norm(state(i, eps), weight)``, which runs
        over every sampled mode, including those beyond ``N``; no state is
        built. An action or a weighted norm that overflows raises
        ``ValueError``, as in :func:`~stringnf.divisors.certify`, and so does
        an ``eps`` that is not finite and > 0, or whose square is zero or
        subnormal: the scaled actions would round to zero or lose their
        precision, and the verdict would follow the rounding, not the state.
        """
        _check_eps_floor(eps)
        z = self._amplitudes(eps)
        B, M = z.shape
        w2 = np.array([weight.weight_sq(a) for a in range(1, M + 1)])
        with np.errstate(over="ignore", invalid="ignore"):
            acts = z.real * z.real + z.imag * z.imag
            # a state leaves out its zero modes, and so does its norm
            terms = np.where(z != 0, w2 * acts, 0.0)
            # a running sum adds in mode order, as weighted_norm does
            norms = np.sqrt(np.cumsum(terms, axis=1)[:, -1])
        _check_rows(acts, norms)
        I = np.zeros((B, N))
        I[:, : min(M, N)] = acts[:, :N]
        return I, norms

    def nonresonant(self, eps: float, params: NonResonanceParams, gammas: Sequence[float] = ()) -> np.ndarray:
        """Mask of the samples whose ``state(i, eps)`` :func:`~stringnf.divisors.certify` passes.

        ``gammas`` are the other gammas of a scan at ``params``' ``r``, ``N``
        and weight. Those not scored yet are scored with ``params`` by one
        :meth:`DivisorTable.margins <stringnf.divisors.DivisorTable.margins>`
        call, which evaluates each block of divisors once for all of them, and
        every mask is kept for later calls.
        """
        table = divisor_table(params.r, params.N, params.weight)
        todo = [g for g in dict.fromkeys([params.gamma, *gammas]) if (eps, table, g) not in self._masks]
        if todo:
            I, norms = self.rows(eps, params.N, params.weight)
            for g, m in zip(todo, table.margins(I, norms * norms, todo)):
                mask = self._masks[(eps, table, g)] = m.margin > 1.0
                mask.flags.writeable = False  # every later call shares it
        return self._masks[(eps, table, params.gamma)]


def sample_actions(spec: MeasureSpec) -> SampleBatch:
    """Draw ``spec.sample_count`` action/phase rows from the weighted ensemble.

    Rejection keeps only rows inside the ball; a rejection rate above 0.999
    (measured after a warm-up of attempts) is treated as a configuration
    error rather than looping forever.
    """
    M = spec.truncation
    modes = np.arange(1, M + 1, dtype=float)
    ball = _ball_coefficients(spec.weight, modes)
    rates = ball * modes**2
    acts: list[np.ndarray] = []
    phas: list[np.ndarray] = []
    accepted = 0
    attempts = 0
    chunk = 0
    while accepted < spec.sample_count:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(chunk,)))
        rows = rng.exponential(1.0, size=(_CHUNK, M)) / rates
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(_CHUNK, M))
        keep = rows @ ball <= spec.ball_radius
        acts.append(rows[keep])
        phas.append(angles[keep])
        accepted += int(keep.sum())
        attempts += _CHUNK
        chunk += 1
        if attempts >= _GUARD_FLOOR and accepted < attempts * 1e-3:
            rej = 1.0 - accepted / attempts
            raise ValueError(
                f"ball-constraint rejection rate {rej:.6f} exceeds 0.999 "
                f"(radius {spec.ball_radius}, truncation {M}); the sampling spec is unusable"
            )
    actions = np.concatenate(acts)[: spec.sample_count]
    phases = np.concatenate(phas)[: spec.sample_count]
    return SampleBatch(actions, phases, spec, attempts)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # the score interval always contains the point estimate; keep that exact
    # under rounding
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


@dataclass(frozen=True)
class MeasureEstimate:
    """Fraction of sampled states that are non-resonant after scaling."""

    fraction: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    gamma: float
    N: int
    r: int
    eps: float

    def record(self) -> dict:
        return {
            "gamma": self.gamma,
            "N": self.N,
            "r": self.r,
            "fraction": self.fraction,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "samples": self.samples,
            "seed": self.seed,
        }


def eps_squared_cap(gamma: float, r: int, N: int) -> float:
    """Largest ``eps**2`` of the small-data hypothesis, ``2 gamma / ((r+1) N^(4r+2))``."""
    return 2.0 * gamma / ((r + 1) * float(N) ** (4 * r + 2))


def default_eps(gamma: float, r: int, N: int) -> float:
    """The square root of :func:`eps_squared_cap`, stepped down until it squares under the cap."""
    cap = eps_squared_cap(gamma, r, N)
    eps = math.sqrt(cap)
    while eps * eps > cap:
        eps = math.nextafter(eps, 0.0)
    return eps


def _check_eps_floor(eps: float) -> None:
    """Refuse an ``eps`` that is not finite and > 0, or whose square is zero or subnormal."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and > 0")
    if not eps * eps >= np.finfo(float).tiny:
        raise ValueError(f"eps = {eps!r} has a square that is zero or subnormal")


def estimate_measure(
    params: NonResonanceParams, spec: MeasureSpec | SampleBatch, eps: float, gammas: Sequence[float] = ()
) -> MeasureEstimate:
    """Monte Carlo fraction of samples ``z`` with ``eps * z`` non-resonant.

    ``spec`` is drawn by :func:`sample_actions`, or is a batch already drawn,
    so that a scan over gamma scores one draw. The scaled samples are scored
    as one batch by :meth:`SampleBatch.nonresonant`, which gives each the
    verdict of :func:`~stringnf.divisors.is_nonresonant` without building
    its state. ``gammas`` are the other gammas of such a scan: the batch
    scores them with ``params`` and keeps their masks, so the scan evaluates
    the divisors once.
    The fraction comes with a Wilson 95% interval. When ``eps`` violates
    ``eps**2 <= 2 gamma / ((r+1) N**(4r+2))`` the estimate is still computed,
    but the lower bound ``1 - lambda gamma`` on the true fraction is not
    guaranteed at that scale, so a warning is issued.
    """
    _check_eps_floor(eps)
    # SampleBatch.rows lets a square that overflows through, so that its
    # callers report the actions that overflow with it
    if not math.isfinite(eps * eps):
        raise ValueError(f"eps = {eps!r} has a square that is not finite")
    cap = eps_squared_cap(params.gamma, params.r, params.N)
    if eps * eps > cap:
        warnings.warn(
            f"eps^2 = {eps * eps:.3e} exceeds 2 gamma / ((r+1) N^(4r+2)) = {cap:.3e}; "
            "the non-resonant fraction bound does not apply at this scale",
            stacklevel=2,
        )
    batch = spec if isinstance(spec, SampleBatch) else sample_actions(spec)
    hits = int(np.count_nonzero(batch.nonresonant(eps, params, gammas)))
    lo, hi = wilson_interval(hits, len(batch))
    return MeasureEstimate(
        fraction=hits / len(batch),
        ci_low=lo,
        ci_high=hi,
        samples=len(batch),
        seed=batch.spec.seed,
        gamma=params.gamma,
        N=params.N,
        r=params.r,
        eps=eps,
    )
