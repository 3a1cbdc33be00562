"""Weighted sequence spaces and monomial index bookkeeping.

Everything downstream (coordinate transforms, small divisors, normal forms)
works with sparse complex sequences indexed by positive Fourier modes and with
monomial indices ``(delta, a)`` where ``delta`` selects one of the three
quadratic building blocks

    delta = +1  ->  z_a**2,     delta = 0  ->  I_a = |z_a|**2,
    delta = -1  ->  conj(z_a)**2.

Index vectors are tuples of such pairs kept in a fixed canonical order so that
two vectors describing the same monomial compare equal.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "WeightSpec",
    "ComplexSeq",
    "weighted_norm",
    "canonicalize",
    "delta_sum",
    "mu_min",
]

# log of the largest finite float
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class WeightSpec:
    """Weight family for sequence norms.

    ``sobolev`` weights are ``w(a) = a**s``; ``gevrey`` weights are
    ``w(a) = exp(rho * a**theta)`` with ``theta = 1`` the analytic case.

    Parameters
    ----------
    kind : {"sobolev", "gevrey"}
    s : float
        Sobolev exponent, ``s >= 0``. Ignored for Gevrey weights.
    rho : float
        Gevrey radius, ``rho > 0``. Ignored for Sobolev weights.
    theta : float
        Gevrey index in ``(0, 1]``. Ignored for Sobolev weights.
    """

    kind: str = "sobolev"
    s: float = 0.0
    rho: float = 0.0
    theta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("sobolev", "gevrey"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "sobolev":
            if self.s < 0:
                raise ValueError("sobolev exponent s must be >= 0")
        else:
            if self.rho <= 0:
                raise ValueError("gevrey radius rho must be > 0")
            if not 0 < self.theta <= 1:
                raise ValueError("gevrey index theta must lie in (0, 1]")

    def log_weight(self, a):
        """``log w(a)`` of a mode; Gevrey weights also take an array of modes."""
        if self.kind == "sobolev":
            return self.s * math.log(a)
        return self.rho * a**self.theta

    def check_modes(self, M: int) -> None:
        """Raise ``ValueError`` unless ``w(M)^2 M^2`` is a finite float.

        Every mode up to ``M`` then has a finite squared weight and a finite
        sampling rate ``w(m)^2 m^2``, since both grow with the mode.
        """
        if 2.0 * (self.log_weight(M) + math.log(M)) >= _LOG_MAX:
            raise ValueError(
                f"the {self.kind} weight overflows at mode {M}: w(M)^2 M^2 is not a finite float; "
                "lower the truncation or the weight"
            )

    def weight(self, a: int) -> float:
        if a < 1:
            raise ValueError("modes are positive integers")
        if self.kind == "sobolev":
            return float(a) ** self.s
        return math.exp(self.log_weight(float(a)))

    def weight_sq(self, a: int) -> float:
        w = self.weight(a)
        return w * w


def _clean_seq(data: Mapping[int, complex], truncation: int) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for a, v in data.items():
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"mode index {a!r} is not a positive integer")
        if a > truncation:
            raise ValueError(f"mode {a} exceeds truncation {truncation}")
        v = complex(v)
        if not cmath.isfinite(v):
            raise ValueError(f"value {v!r} at mode {a} is not finite")
        if v != 0:  # absent modes are exactly zero
            out[a] = v
    return out


@dataclass(frozen=True)
class ComplexSeq:
    """Sparse complex sequence supported on modes ``1..truncation``."""

    data: Mapping[int, complex]
    truncation: int

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        object.__setattr__(self, "data", _clean_seq(self.data, self.truncation))

    def __getitem__(self, a: int) -> complex:
        return self.data.get(a, 0j)

    def modes(self) -> list[int]:
        return sorted(self.data)

    def conj(self) -> "ComplexSeq":
        return ComplexSeq({a: v.conjugate() for a, v in self.data.items()}, self.truncation)

    def scale(self, c: complex) -> "ComplexSeq":
        return ComplexSeq({a: c * v for a, v in self.data.items()}, self.truncation)

    def action(self, a: int) -> float:
        v = self[a]
        return (v * v.conjugate()).real

    def actions(self) -> dict[int, float]:
        return {a: self.action(a) for a in self.data}

    def norm2_unweighted(self) -> float:
        return sum((v * v.conjugate()).real for v in self.data.values())


def weighted_norm(seq: ComplexSeq, w: WeightSpec) -> float:
    """Weighted l2 norm ``sqrt(sum_a w(a)^2 |z_a|^2)``. Empty sequences give 0."""
    total = 0.0
    for a, v in seq.data.items():
        total += w.weight_sq(a) * (v * v.conjugate()).real
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# monomial indices

# a monomial index is a pair (delta, a) with delta in {+1, 0, -1} and a >= 1;
# an index vector is a tuple of such pairs.

_DELTA_RANK = {0: 0, -1: 1, 1: 2}


def _check_index(j: tuple[int, int]) -> None:
    delta, a = j
    if delta not in (-1, 0, 1):
        raise ValueError(f"delta must be -1, 0 or +1, got {delta!r}")
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"mode must be a positive integer, got {a!r}")


def canonicalize(jvec: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sort an index vector into canonical order.

    Order is lexicographic by ``(a, delta)`` with deltas ranked
    ``0 < -1 < +1``. Idempotent, and invariant under permutations of the
    input. Entries are validated.
    """
    items = list(jvec)
    for j in items:
        _check_index(j)
    return tuple(sorted(items, key=lambda j: (j[1], _DELTA_RANK[j[0]])))


def delta_sum(jvec: Iterable[tuple[int, int]]) -> int:
    """Momentum ``Delta_j = sum_k delta_k * a_k`` of an index vector."""
    return sum(delta * a for delta, a in jvec)


def mu_min(jvec: Iterable[tuple[int, int]]) -> int:
    """Smallest mode appearing in the vector."""
    modes = [a for _, a in jvec]
    if not modes:
        raise ValueError("mu_min of an empty index vector is undefined")
    return min(modes)
