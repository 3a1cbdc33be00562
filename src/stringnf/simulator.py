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
``sqrt(c / c')``. The fixed point for the end stiffness is seeded by the
quadratic through the previous step's start stiffness ``c_prev``, this
step's start ``c_left`` and its midpoint ``c_mid``,
``c_prev / 3 - 2 c_left + 8/3 c_mid`` (at least 1); the state carries
``c_prev``, so a retaken step replays the same seed. The first step, and a
step whose fastest mode turns more than ``MAX_PHASE_STEP`` at stiffness
``c_left``, take the line ``2 c_mid - c_left`` instead. A pass writes only
into arrays allocated once per run, and a rotation whose stiffness
reproduces itself exactly is the step's result, its factor serving the next
step's first half. The drift-sweep benchmark's 26,250 steps at seed 0 make
53,167 passes, 2.03 a step (2.46 with the line alone). ``(u, v)`` is
rebuilt only where a sample is recorded, ``RECORD_BLOCK`` recorded steps at
a time, bit for bit. The state is checked finite every ``RECORD_BLOCK``
steps and at the end, so every derived record is of a finite state; no step
makes a non-finite state finite, so a failed check retakes the steps from
the last good state and derives only the records before the first
non-finite one.
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
    "simulate",
    "trajectory_to_csv",
    "trajectory_summary",
]


# the most steps one run may ask for, round(T / dt); several hours of stepping
MAX_STEPS = 10**9
# recorded steps whose records are derived together, and CSV rows written together
RECORD_BLOCK = 1024
# the most phase, dt M sqrt(c), the fastest mode may turn in one step at stiffness c
MAX_PHASE_STEP = 0.1


class SimulationBlowup(RuntimeError):
    """Raised when the state stops being finite; carries the simulation time."""

    def __init__(self, time: float, message: str = "") -> None:
        self.time = time
        super().__init__(message or f"state became non-finite at t={time:.6g}")


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    ``dt`` must resolve the fastest linear mode; the guard
    ``dt <= MAX_PHASE_STEP / M`` is enforced unless ``allow_large_dt`` is
    set. ``record_stride`` thins the stored samples. ``linear_only`` freezes
    the stiffness at 1 (debugging aid: the split scheme then conserves every
    action to rounding). A run may ask for at most ``MAX_STEPS`` steps,
    ``round(T / dt)``.
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
        if not self.allow_large_dt and self.dt > MAX_PHASE_STEP / self.M:
            raise ValueError(
                f"dt={self.dt} too large for M={self.M} (need dt <= {MAX_PHASE_STEP / self.M:.3g}; "
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


# ---------------------------------------------------------------------------
# packed arrays: u[..., a-1] and v[..., a-1] hold mode a, one sample per row


def _dot(x: np.ndarray, y: np.ndarray):
    # x @ y row by row. A stack of (1, M) @ (M, 1) products runs the kernel of
    # the 1-D x @ y on every row, bit for bit; X @ y (gemv) sums in another order
    return x @ y if x.ndim == y.ndim == 1 else np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _slope2(u: np.ndarray, a2: np.ndarray):
    return _dot(a2, u * u)


def _energy(u: np.ndarray, v: np.ndarray, a2: np.ndarray):
    S = _slope2(u, a2)
    return 0.5 * _dot(v, v) + 0.5 * S + 0.25 * S * S


def _actions(u: np.ndarray, v: np.ndarray, a1: np.ndarray) -> np.ndarray:
    return 0.5 * (a1 * u * u + v * v / a1)


def _stiffness(w: np.ndarray) -> float:
    # 1 + S with S = sum_a a^2 u_a^2 = sum_a (Re w_a)^2; x.dot(x) has the bits of x @ x
    x = w.real
    return 1.0 + float(x.dot(x))


# A scheme is what ``simulate`` drives: ``(start, step, unpack, finite)``.
# ``start(u, v)`` makes the scheme's state, ``step`` advances it by dt,
# ``unpack`` gives the ``(u, v)`` of a list of states, one row each, and
# ``finite`` checks one; the loop never looks inside a state. A step never
# changes the state it is given, so recorded states are kept as they are.
_Scheme = tuple[Callable, Callable, Callable, Callable]
# the split scheme's state (w, c, c_w, c_prev), described in _strang_split
_SplitState = tuple[np.ndarray, float, float, Optional[float]]


def _strang_split(dt: float, a1: np.ndarray, a2: np.ndarray, linear_only: bool) -> _Scheme:
    # state (w, c, c_w, c_prev): w = a u + i v / sqrt(c) in the frame of stiffness c,
    # c_w = 1 + S of w itself (equal to c when the fixed point closed exactly),
    # and c_prev that of the state one step earlier (None at the start)
    M = len(a1)
    half = (-0.5j * dt) * a1
    linear = np.exp((-1j * dt) * a1) if linear_only else None  # the full step at stiffness 1
    # X[0] is wh reframed to the stiffness c of a pass and X[1] the argument half * sqrt(c),
    # real part +0.0; one product of flat rows writes both imaginary rows, [Im wh, Im half]
    # times S, whose halves hold the two scale factors (a broadcast column costs more)
    X, S = np.zeros((2, M), dtype=complex), np.empty(2 * M)
    Y = np.concatenate([np.zeros_like(a1), half.imag])
    wh, arg, X_im, Y_wh, S_wh, S_arg = X[0], X[1], X.reshape(-1).imag, Y[:M], S[:M], S[M:]
    wh_re, wh_im = wh.real, wh.imag
    # a pass writes its factor into F and its rotation into W; the step returns a copy of W,
    # since records keep states, and F serves the next step's first half
    F, W = np.empty(M, dtype=complex), np.empty(M, dtype=complex)
    W_re = W.real
    mul, exp, sqrt = np.multiply, np.exp, math.sqrt
    dtM = dt * M
    memo = [math.nan, None]  # the last c and its factor

    def phase(c: float) -> np.ndarray:
        # exp(-i a sqrt(c) dt / 2): the half step at frozen stiffness c
        if c != memo[0]:
            mul(Y[M:], sqrt(c), arg.imag)
            memo[:] = c, exp(arg)
        return memo[1]

    def start(u: np.ndarray, v: np.ndarray) -> _SplitState:
        w = a1 * u + 1j * v
        return w, 1.0, _stiffness(w), None

    def step(state: _SplitState) -> _SplitState:
        w, c, c_left, c_prev = state
        if linear_only:
            return w * linear, 1.0, 1.0, 1.0
        if c_left != c:  # the same (u, v) in the frame of c_left
            w = w.copy()
            w.imag *= sqrt(c / c_left)
        mul(w, phase(c_left), wh)
        Y_wh[...] = wh_im
        # second half freezes the stiffness at the step's end state; extrapolate
        # the seed from c_prev, c_left and c_mid, a quadratic at t - dt, t and
        # t + dt/2, or the line through the last two where there is no history
        # or the fastest mode is not resolved (clamped: c >= 1, and the
        # extrapolation can cross it for large data)
        c_mid = 1.0 + float(wh_re.dot(wh_re))  # _stiffness(wh)
        if c_prev is None or dtM * sqrt(c_left) > MAX_PHASE_STEP:
            c = max(1.0, 2.0 * c_mid - c_left)
        else:
            c = max(1.0, c_prev / 3.0 - 2.0 * c_left + 8.0 / 3.0 * c_mid)
        closing = False  # the last iteration converged: this rotation is the result
        for i in range(13):
            S_wh.fill(sqrt(c_left / c))
            S_arg.fill(sqrt(c))
            mul(Y, S, X_im)
            f = exp(arg, F)
            mul(wh, f, W)  # not in place: that rounds otherwise at M = 1
            c_new = 1.0 + float(W_re.dot(W_re))  # _stiffness(W)
            if closing or c_new == c or i == 12:
                break
            closing = abs(c_new - c) <= 1e-15 * c
            c = c_new
        memo[:] = c, f
        return W.copy(), c, c_new, c_left

    def unpack(states: list) -> tuple[np.ndarray, np.ndarray]:
        w, c = map(np.array, list(zip(*states))[:2])
        return w.real / a1, w.imag * np.sqrt(c)[:, None]

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

    return ((lambda u, v: (u, v)), step, (lambda states: tuple(map(np.array, zip(*states)))),
            lambda s: bool(np.isfinite(s[0]).all() and np.isfinite(s[1]).all()))


def simulate(initial: UVState, config: SimConfig) -> Trajectory:
    """Integrate from ``initial`` over ``[0, T]`` and record samples.

    ``T`` is rounded to a whole number of steps. ``T = 0`` records the single
    initial sample. A non-finite state aborts with :class:`SimulationBlowup`
    stamped with the simulation time, as does a recorded energy, norm or
    drift that overflows, the initial record included; the earliest wins.
    """
    M = config.M
    u, v = _to_arrays(initial, M)
    a1 = np.arange(1, M + 1, dtype=float)
    a2 = a1 * a1
    w2 = np.array([config.weight.weight_sq(a) for a in range(1, M + 1)])
    scheme = _strang_split if config.scheme == "strang_split" else _rk4
    start, step, unpack, finite = scheme(config.dt, a1, a2, config.linear_only)

    n_steps = int(round(config.T / config.dt)) if config.T > 0 else 0
    blocks: list[tuple] = []  # per block of records, the fields of Trajectory in its order
    states: Optional[list[UVState]] = [] if config.record_states else None

    def record(t: list[float], u: np.ndarray, v: np.ndarray) -> None:
        acts = _actions(u, v, a1)
        H = _energy(u, v, a2)
        norm2 = _dot(w2, acts)
        drift = np.max(w2 * np.abs(acts - acts0), axis=-1)
        # a finite state can still overflow what is recorded; all three are
        # sums of nonnegative terms, so one sum checks them
        bad = np.flatnonzero(~np.isfinite(H + norm2 + drift))
        if bad.size:
            raise SimulationBlowup(t[bad[0]], f"recorded energy, norm or drift is not finite at t={t[bad[0]]:.6g}")
        blocks.append((t, H, acts, np.sqrt(norm2), drift))
        if states is not None:
            states.extend(map(_to_state, u, v))

    with np.errstate(over="ignore", invalid="ignore"):
        acts0 = _actions(u, v, a1)
        record([0.0], u[None], v[None])
        state = start(u, v)
        good = 0, state  # the last step checked finite, and its state
        times, block = [], []  # the recorded steps not yet derived
        for k in range(1, n_steps + 1):
            state = step(state)
            if k % RECORD_BLOCK == 0 or k == n_steps:  # where a block of records can flush
                if not finite(state):
                    # no step makes a non-finite state finite again, so the
                    # first one comes after the good one: retake the steps
                    k, state = good
                    while finite(state):
                        k, state = k + 1, step(state)
                    if n_ok := sum(t < k * config.dt for t in times):  # an overflow before it wins
                        record(times[:n_ok], *unpack(block[:n_ok]))
                    raise SimulationBlowup(k * config.dt)
                good = k, state
            if k % config.record_stride == 0 or k == n_steps:
                times.append(k * config.dt)
                block.append(state)
                if len(block) == RECORD_BLOCK or k == n_steps:
                    record(times, *unpack(block))
                    times, block = [], []

    return Trajectory(*map(np.concatenate, zip(*blocks)), config, states)


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
    columns = (traj.times, traj.energy, traj.sup_drift, traj.actions)
    for i in range(0, len(traj.times), RECORD_BLOCK):
        rows = np.column_stack([x[i : i + RECORD_BLOCK] for x in columns]).tolist()
        stream.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


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

