"""Coordinate chain between real string variables and complex normal-form variables.

The chain is

    (u, v)  ->  psi  ->  eta  ->  z

where ``psi_a = (a^{1/2} u_a + i a^{-1/2} v_a) / sqrt(2)`` packages displacement
and velocity into one complex amplitude per mode, ``eta`` is a real linear
mixing of ``psi`` and ``conj(psi)`` whose coefficients depend on the elastic
energy only, and ``z_a = a * eta_a`` is a plain diagonal rescaling. Every step
is exactly invertible and commutes with complex conjugation; the inverse of the
psi -> eta step recovers the elastic energy through a scalar root find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .core import ComplexSeq

__all__ = [
    "UVState",
    "PsiState",
    "EtaState",
    "ZState",
    "uv_to_psi",
    "psi_to_uv",
    "elastic_energy",
    "mixing_rho",
    "elastic_from_dilated",
    "psi_to_eta",
    "eta_to_psi",
    "eta_to_z",
    "z_to_eta",
    "time_dilation",
    "uv_to_z",
    "z_to_uv",
]


def _clean_real(data: Mapping[int, float], truncation: int) -> dict[int, float]:
    out: dict[int, float] = {}
    for a, x in data.items():
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"mode index {a!r} is not a positive integer")
        if a > truncation:
            raise ValueError(f"mode {a} exceeds truncation {truncation}")
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"mode {a} has non-finite value {x!r}")
        if x != 0.0:
            out[a] = x
    return out


@dataclass(frozen=True)
class UVState:
    """Real displacement/velocity Fourier coefficients on modes ``1..truncation``."""

    u: Mapping[int, float]
    v: Mapping[int, float]
    truncation: int

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        object.__setattr__(self, "u", _clean_real(self.u, self.truncation))
        object.__setattr__(self, "v", _clean_real(self.v, self.truncation))


@dataclass(frozen=True)
class PsiState:
    seq: ComplexSeq


@dataclass(frozen=True)
class EtaState:
    """Mixed amplitudes together with their (cached) elastic energy."""

    seq: ComplexSeq
    elastic: float


@dataclass(frozen=True)
class ZState:
    seq: ComplexSeq


_SQRT2 = math.sqrt(2.0)


def uv_to_psi(state: UVState) -> PsiState:
    """Package ``(u, v)`` into complex amplitudes.

    ``psi_a = (sqrt(a) u_a + i v_a / sqrt(a)) / sqrt(2)``, so the mode action
    ``|psi_a|^2`` equals ``(a u_a^2 + v_a^2 / a) / 2``.
    """
    data: dict[int, complex] = {}
    for a in set(state.u) | set(state.v):
        ra = math.sqrt(float(a))
        data[a] = complex(ra * state.u.get(a, 0.0), state.v.get(a, 0.0) / ra) / _SQRT2
    return PsiState(ComplexSeq(data, state.truncation))


def psi_to_uv(state: PsiState) -> UVState:
    u: dict[int, float] = {}
    v: dict[int, float] = {}
    for a, p in state.seq.data.items():
        ra = math.sqrt(float(a))
        u[a] = _SQRT2 * p.real / ra
        v[a] = _SQRT2 * p.imag * ra
    return UVState(u, v, state.seq.truncation)


def elastic_energy(seq: ComplexSeq) -> float:
    """Quadratic form ``(1/4) sum_b b |w_b + conj(w_b)|^2``.

    Evaluated on psi it equals half the squared slope norm of the
    displacement, ``(1/2) sum_b b^2 u_b^2``; the same expression evaluated on
    eta is the dilated counterpart used by the time reparameterization.
    """
    total = 0.0
    for b, w in seq.data.items():
        re = w.real
        total += float(b) * re * re
    return total


def mixing_rho(x: float) -> float:
    """Mixing coefficient ``x / (1 + x + sqrt(1 + 2x))`` in [0, 1); past x ~ 1e33 it rounds to 1."""
    if x < 0:
        raise ValueError("elastic energy must be >= 0")
    rho = x / (1.0 + x + math.sqrt(1.0 + 2.0 * x))
    if not rho < 1.0:
        raise ValueError(f"elastic energy {x!r} is too large: the mixing coefficient rounds to 1")
    return rho


def elastic_from_dilated(y: float) -> float:
    """Invert ``y = x * sqrt(1 + 2x)`` for ``x >= 0``.

    Newton iteration on ``g(x) = x^2 (1 + 2x) - y^2`` from the starting guess
    ``x0 = y / sqrt(1 + 2y)`` with a bisection safeguard; converges to
    relative 1e-13. Negative or non-finite ``y`` is a domain error.
    """
    if y < 0:
        raise ValueError("dilated elastic energy must be >= 0")
    if not math.isfinite(y):
        raise ValueError(f"dilated elastic energy {y!r} is not finite")
    if y == 0.0:
        return 0.0
    y2 = y * y
    lo, hi = 0.0, y  # x <= y since sqrt(1+2x) >= 1
    x = y / math.sqrt(1.0 + 2.0 * y)
    for _ in range(200):
        g = x * x * (1.0 + 2.0 * x) - y2
        if g > 0:
            hi = x
        else:
            lo = x
        dg = 2.0 * x * (1.0 + 3.0 * x)
        step_ok = dg > 0
        if step_ok:
            xn = x - g / dg
            if not (lo < xn < hi or (g == 0.0)):
                xn = 0.5 * (lo + hi)  # Newton left the bracket
        else:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-15 * max(1.0, abs(xn)):
            return xn
        x = xn
    return x


def psi_to_eta(state: PsiState) -> EtaState:
    """Mix psi with its conjugate; the coefficients depend on the elastic energy only."""
    q = elastic_energy(state.seq)
    rho = mixing_rho(q)
    scale = 1.0 / math.sqrt(1.0 - rho * rho)
    data = {a: scale * (p + rho * p.conjugate()) for a, p in state.seq.data.items()}
    seq = ComplexSeq(data, state.seq.truncation)
    return EtaState(seq, elastic_energy(seq))


def eta_to_psi(state: EtaState) -> PsiState:
    """Invert the mixing.

    The elastic energy of eta equals ``q * sqrt(1 + 2q)`` with ``q`` the
    elastic energy of psi, so a scalar root find recovers ``q`` and with it the
    mixing coefficient; the 2x2 linear mix then inverts exactly.
    """
    q = elastic_from_dilated(state.elastic)
    rho = mixing_rho(q)
    scale = 1.0 / math.sqrt(1.0 - rho * rho)
    data = {a: scale * (e - rho * e.conjugate()) for a, e in state.seq.data.items()}
    return PsiState(ComplexSeq(data, state.seq.truncation))


def eta_to_z(state: EtaState) -> ZState:
    data = {a: float(a) * e for a, e in state.seq.data.items()}
    return ZState(ComplexSeq(data, state.seq.truncation))


def z_to_eta(state: ZState) -> EtaState:
    data = {a: w / float(a) for a, w in state.seq.data.items()}
    seq = ComplexSeq(data, state.seq.truncation)
    return EtaState(seq, elastic_energy(seq))


def time_dilation(state: EtaState) -> float:
    """Speed factor ``sqrt(1 + 2q)`` of the reparameterized time; always >= 1."""
    q = elastic_from_dilated(state.elastic)
    tau = math.sqrt(1.0 + 2.0 * q)
    assert tau >= 1.0
    return tau


def uv_to_z(state: UVState) -> ZState:
    return eta_to_z(psi_to_eta(uv_to_psi(state)))


def z_to_uv(state: ZState) -> UVState:
    return psi_to_uv(eta_to_psi(z_to_eta(state)))
