"""Spectral Galerkin time integration of the quasilinear string.

The truncated system for real mode pairs ``(u_a, v_a)``, ``1 <= a <= M``, is

    du_a/dt = v_a,
    dv_a/dt = -(1 + S(u)) a^2 u_a,      S(u) = sum_b b^2 u_b^2,

a bank of oscillators coupled solely through the scalar stiffness ``1 + S``.
Two steppers are provided. ``strang_split`` composes two half steps of the
exactly solvable frozen-stiffness rotation: the first half freezes the
stiffness at the step's initial state, the second freezes it at the final
state (resolved by a short fixed-point iteration), which makes the step
symmetric and time reversible. ``rk4`` is the classical fourth-order scheme.

Between steps the split scheme carries one complex variable per mode,
``w_a = a u_a + i v_a / sqrt(c)``, where ``c`` is the stiffness of the frame
it was last rotated in. Then ``S = sum_a (Re w_a)^2``, a rotation at frozen
stiffness ``c`` over time ``h`` is the product ``w_a exp(-i a sqrt(c) h)``,
and a change of frame from ``c`` to ``c'`` scales ``Im w`` by
``sqrt(c / c')``. The fixed point for the end stiffness is seeded by
extrapolating the stiffness linearly over the step, ``2 c_mid - c_left``
(at least 1), and a rotation whose stiffness reproduces itself exactly is
the step's result. ``(u, v)`` is rebuilt only where a sample is recorded.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import WeightSpec
from .transforms import UVState

__all__ = [
    "MAX_STEPS",
    "SimConfig",
    "Trajectory",
    "SimulationBlowup",
    "energy",
    "actions",
    "simulate",
    "trajectory_to_csv",
    "trajectory_summary",
]


# the most steps one run may ask for, round(T / dt); several hours of stepping
MAX_STEPS = 10**9


class SimulationBlowup(RuntimeError):
    """Raised when the state stops being finite; carries the simulation time."""

    def __init__(self, time: float, message: str = "") -> None:
        self.time = time
        super().__init__(message or f"state became non-finite at t={time:.6g}")


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    ``dt`` must resolve the fastest linear mode; the guard ``dt <= 0.1 / M``
    is enforced unless ``allow_large_dt`` is set. ``record_stride`` thins the
    stored samples. ``linear_only`` freezes the stiffness at 1 (debugging aid:
    the split scheme then conserves every action to rounding). A run may ask
    for at most ``MAX_STEPS`` steps, ``round(T / dt)``.
    """

    dt: float
    T: float
    scheme: str = "strang_split"
    M: int = 16
    record_stride: int = 1
    weight: WeightSpec = field(default_factory=WeightSpec)
    record_states: bool = False
    linear_only: bool = False
    allow_large_dt: bool = False

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (self.T >= 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be finite and >= 0, got {self.T!r}")
        # round(T / dt) > MAX_STEPS, without rounding an infinite quotient
        if self.T / self.dt > MAX_STEPS + 0.5:
            raise ValueError(
                f"T / dt = {self.T / self.dt:.12g} steps is more than the cap of {MAX_STEPS}; "
                "lower T or raise dt"
            )
        if self.scheme not in ("strang_split", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        self.weight.check_modes(self.M)
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not self.allow_large_dt and self.dt > 0.1 / self.M:
            raise ValueError(
                f"dt={self.dt} too large for M={self.M} (need dt <= {0.1 / self.M:.3g}; "
                "set allow_large_dt to override)"
            )


@dataclass
class Trajectory:
    """Recorded samples of one run. Arrays share the leading sample axis."""

    times: np.ndarray
    energy: np.ndarray
    actions: np.ndarray  # shape (n_samples, M), column a-1 holds I_a
    norm_w: np.ndarray  # weighted norm of the mode amplitudes psi
    sup_drift: np.ndarray  # sup_a w(a)^2 |I_a(t) - I_a(0)|
    config: SimConfig
    states: Optional[list[UVState]] = None

    @property
    def M(self) -> int:
        return self.actions.shape[1]


def _to_arrays(state: UVState, M: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.zeros(M)
    v = np.zeros(M)
    for packed, values in ((u, state.u), (v, state.v)):
        for a, x in values.items():
            if a > M:
                raise ValueError(f"initial data has mode {a} beyond truncation {M}")
            packed[a - 1] = x
    return u, v


def _to_state(u: np.ndarray, v: np.ndarray) -> UVState:
    M = len(u)
    return UVState(
        {a + 1: float(u[a]) for a in range(M) if u[a] != 0.0},
        {a + 1: float(v[a]) for a in range(M) if v[a] != 0.0},
        M,
    )


@np.errstate(over="ignore", invalid="ignore")
def energy(state: UVState) -> float:
    """Conserved energy ``(1/2)|v|^2 + (1/2) S + (1/4) S^2`` with ``S = sum b^2 u_b^2``."""
    u, v = _to_arrays(state, state.truncation)
    a1 = np.arange(1, state.truncation + 1, dtype=float)
    return _energy(u, v, a1 * a1)


@np.errstate(over="ignore", invalid="ignore")
def actions(state: UVState) -> dict[int, float]:
    """Mode actions ``I_a = |psi_a|^2 = (a u_a^2 + v_a^2 / a) / 2`` for all modes up to M."""
    u, v = _to_arrays(state, state.truncation)
    acts = _actions(u, v, np.arange(1, state.truncation + 1, dtype=float))
    return {a: float(x) for a, x in enumerate(acts, start=1)}


# ---------------------------------------------------------------------------
# packed arrays: u[a-1] and v[a-1] hold mode a


def _slope2(u: np.ndarray, a2: np.ndarray) -> float:
    return float(a2 @ (u * u))


def _energy(u: np.ndarray, v: np.ndarray, a2: np.ndarray) -> float:
    S = _slope2(u, a2)
    return 0.5 * float(v @ v) + 0.5 * S + 0.25 * S * S


def _actions(u: np.ndarray, v: np.ndarray, a1: np.ndarray) -> np.ndarray:
    return 0.5 * (a1 * u * u + v * v / a1)


def _stiffness(w: np.ndarray) -> float:
    # 1 + S with S = sum_a a^2 u_a^2 = sum_a (Re w_a)^2
    x = w.real
    return 1.0 + float(x @ x)


def _rotate(w: np.ndarray, minus_ih_a: np.ndarray, c: float) -> np.ndarray:
    # exact flow over time h at frozen stiffness c, with minus_ih_a = -i h a:
    # w_a -> w_a exp(-i a sqrt(c) h)
    return w * np.exp(minus_ih_a * math.sqrt(c))


def _reframe(w: np.ndarray, ratio: float) -> np.ndarray:
    # the same (u, v) in the frame of another stiffness: Im w = v / sqrt(c)
    # is scaled by sqrt(c_old / c_new), with ratio = c_old / c_new
    out = w.copy()
    out.imag *= math.sqrt(ratio)
    return out


# A scheme is what ``simulate`` drives: ``(start, step, unpack, finite)``.
# ``start(u, v)`` makes the scheme's state, ``step`` advances it by dt,
# ``unpack`` gives ``(u, v)`` back and ``finite`` checks it; the loop never
# looks inside the state.
_Scheme = tuple[Callable, Callable, Callable, Callable]


def _strang_split(dt: float, a1: np.ndarray, a2: np.ndarray, linear_only: bool) -> _Scheme:
    # state (w, c, c_w): w = a u + i v / sqrt(c) in the frame of stiffness c,
    # and c_w = 1 + S of w itself (equal to c when the fixed point closed exactly)
    half = (-0.5j * dt) * a1
    full = (-1j * dt) * a1

    def start(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float, float]:
        w = a1 * u + 1j * v
        return w, 1.0, _stiffness(w)

    def step(state: tuple[np.ndarray, float, float]) -> tuple[np.ndarray, float, float]:
        w, c, c_left = state
        if linear_only:
            return _rotate(w, full, 1.0), 1.0, 1.0
        if c_left != c:
            w = _reframe(w, c / c_left)
        wh = _rotate(w, half, c_left)
        # second half freezes the stiffness at the step's end state; the
        # stiffness moves about as much over each half, so extrapolate the
        # seed (clamped, since c >= 1 and the line can cross it for large data)
        c_mid = _stiffness(wh)
        c = max(1.0, 2.0 * c_mid - c_left)
        for _ in range(12):
            wn = _rotate(_reframe(wh, c_left / c), half, c)
            c_new = _stiffness(wn)
            if c_new == c:
                return wn, c, c  # the closing rotation would repeat this one
            converged = abs(c_new - c) <= 1e-15 * c
            c = c_new
            if converged:
                break
        wn = _rotate(_reframe(wh, c_left / c), half, c)
        return wn, c, _stiffness(wn)

    def unpack(state: tuple[np.ndarray, float, float]) -> tuple[np.ndarray, np.ndarray]:
        w, c, _ = state
        return w.real / a1, w.imag * math.sqrt(c)

    return start, step, unpack, lambda state: bool(np.isfinite(state[0]).all())


def _rk4(dt: float, a1: np.ndarray, a2: np.ndarray, linear_only: bool) -> _Scheme:
    # state (u, v)
    def f(uu: np.ndarray, vv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        stiff = 1.0 if linear_only else 1.0 + _slope2(uu, a2)
        return vv, -stiff * a2 * uu

    def step(state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        u, v = state
        k1u, k1v = f(u, v)
        k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = f(u + dt * k3u, v + dt * k3v)
        un = u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        vn = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        return un, vn

    def finite(state: tuple[np.ndarray, np.ndarray]) -> bool:
        u, v = state
        return bool(np.all(np.isfinite(u)) and np.all(np.isfinite(v)))

    return (lambda u, v: (u, v)), step, (lambda state: state), finite


def simulate(initial: UVState, config: SimConfig) -> Trajectory:
    """Integrate from ``initial`` over ``[0, T]`` and record samples.

    ``T`` is rounded to a whole number of steps. ``T = 0`` records the single
    initial sample. A non-finite state aborts with :class:`SimulationBlowup`
    stamped with the simulation time, as does a recorded energy, norm or
    drift that overflows, the initial record included.
    """
    M = config.M
    u, v = _to_arrays(initial, M)
    a1 = np.arange(1, M + 1, dtype=float)
    a2 = a1 * a1
    w2 = np.array([config.weight.weight_sq(a) for a in range(1, M + 1)])
    scheme = _strang_split if config.scheme == "strang_split" else _rk4
    start, step, unpack, finite = scheme(config.dt, a1, a2, config.linear_only)

    n_steps = int(round(config.T / config.dt)) if config.T > 0 else 0
    # one list per field of Trajectory, in its order
    times, energies, acts_list, norms, drifts = [], [], [], [], []
    states: Optional[list[UVState]] = [] if config.record_states else None

    def record(t: float, u: np.ndarray, v: np.ndarray) -> None:
        acts = _actions(u, v, a1)
        H = _energy(u, v, a2)
        norm2 = float(w2 @ acts)
        drift = float(np.max(w2 * np.abs(acts - acts0)))
        # a finite state can still overflow what is recorded; all three are
        # sums of nonnegative terms, so one sum checks them
        if not math.isfinite(H + norm2 + drift):
            raise SimulationBlowup(t, f"recorded energy, norm or drift is not finite at t={t:.6g}")
        times.append(t)
        energies.append(H)
        acts_list.append(acts)
        norms.append(math.sqrt(norm2))
        drifts.append(drift)
        if states is not None:
            states.append(_to_state(u, v))

    with np.errstate(over="ignore", invalid="ignore"):
        acts0 = _actions(u, v, a1)
        record(0.0, u, v)
        state = start(u, v)
        for k in range(1, n_steps + 1):
            state = step(state)
            if not finite(state):
                raise SimulationBlowup(k * config.dt)
            if k % config.record_stride == 0 or k == n_steps:
                record(k * config.dt, *unpack(state))

    return Trajectory(*(np.array(x) for x in (times, energies, acts_list, norms, drifts)), config, states)


# ---------------------------------------------------------------------------
# trajectory export

def trajectory_to_csv(traj: Trajectory, stream: io.TextIOBase, header_lines: Sequence[str] = ()) -> None:
    """Write the sample table as CSV.

    Layout: optional ``#``-prefixed header lines, then a column-name row
    ``t,H,sup_drift,I_1,...,I_M``, then one row per sample with full float
    precision (``repr`` round-trip).
    """
    for line in header_lines:
        stream.write(f"# {line}\n")
    cols = ["t", "H", "sup_drift"] + [f"I_{a}" for a in range(1, traj.M + 1)]
    stream.write(",".join(cols) + "\n")
    rows = zip(traj.times.tolist(), traj.energy.tolist(), traj.sup_drift.tolist(), traj.actions)
    for t, H, drift, acts in rows:
        stream.write(",".join(map(repr, [t, H, drift, *acts.tolist()])) + "\n")


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-ready summary: endpoints, extremes, and drift statistics."""
    H0 = float(traj.energy[0])
    rel_dH = float(np.max(np.abs(traj.energy - H0)) / max(abs(H0), 1e-300))
    return {
        "samples": int(len(traj.times)),
        "t_final": float(traj.times[-1]),
        "energy_initial": H0,
        "energy_final": float(traj.energy[-1]),
        "energy_rel_drift_max": rel_dH,
        "sup_action_drift_max": float(np.max(traj.sup_drift)),
        "sup_action_drift_final": float(traj.sup_drift[-1]),
        "norm_initial": float(traj.norm_w[0]),
        "norm_final": float(traj.norm_w[-1]),
        "norm_max": float(np.max(traj.norm_w)),
        "actions_initial": {str(a + 1): float(x) for a, x in enumerate(traj.actions[0])},
        "actions_final": {str(a + 1): float(x) for a, x in enumerate(traj.actions[-1])},
    }

