"""Command line front end for simulations, sweeps, scans, and verification.

Every subcommand reads at most one plain-text configuration file plus
``--set`` overrides, validates the merged result against the subcommand's
schema before any computation starts, and returns its exit code and files.
Only ``main`` writes them, once the subcommand has returned, and it embeds
the resolved configuration, the seed, and the package version in each JSON
file; a run that exits 2, 3 or 4 writes nothing.  Reruns with the same
inputs produce byte-identical outputs.

Config file format: one ``key = value`` assignment per line, ``#`` comments
and blank lines ignored.  Values are parsed as JSON; a value that is not
valid JSON is taken as a literal string, so ``scheme = rk4`` and
``scheme = "rk4"`` mean the same thing.  Lists and maps use JSON syntax,
e.g. ``eps = [0.2, 0.1, 0.05]`` or ``initial_u = {"1": 0.3}``.

Exit codes: 0 success, 2 configuration error (a config file that is not
UTF-8, an ``--out`` path through an existing file and an output file that
cannot be written included), 3 numerical abort (state left the finite
range, energy drift past its own size, or a small divisor refused), 4
sampling failure (no admissible initial data found), 5 verification failure
(a missing or unreadable golden table).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from . import __version__
from .core import ComplexSeq, WeightSpec
from .divisors import NonResonanceParams, is_nonresonant, kappa
from .measure import MeasureSpec, default_eps, estimate_measure, sample_actions
from .nf_engine import (
    DivisorRefusal,
    RationalVF,
    chi3_explicit,
    commutator,
    dump_field,
    evaluate_vf,
    field_to_json,
    quintic_rational_solve,
    resonant_normal_form,
    septic_stage_input,
    solve_homological_z3z5,
    taylor_vf,
    z1_field,
)
from .simulator import (
    SimConfig,
    SimulationBlowup,
    simulate,
    trajectory_summary,
    trajectory_to_csv,
)
from .transforms import (
    UVState,
    ZState,
    elastic_energy,
    psi_to_eta,
    uv_to_psi,
    uv_to_z,
    z_to_uv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SAMPLING = 4
EXIT_VERIFY = 5
ENERGY_DRIFT_LIMIT = 1.0  # a relative energy drift past this is a broken run, not dynamics


class ConfigError(ValueError):
    """A configuration file, override, or derived object failed validation."""


class SamplingFailure(RuntimeError):
    """No admissible sample was found within the configured budget."""


# a file's content: a JSON payload, which main stamps with the provenance
# block, or a writer that streams the file's own text format into it
Output = Union[Dict[str, Any], Callable[[TextIO], None]]
Outputs = Tuple[int, Dict[str, Output]]


@contextmanager
def _config_errors(prefix: str = "") -> Iterator[None]:
    """Report a ``ValueError`` raised while building from the config as a config error."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


# ---------------------------------------------------------------------------
# configuration schemas

def _is_real(v: Any) -> bool:
    """A finite int or float; JSON reads ``1e400`` as inf and ``NaN`` as nan."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _kind(accept: Callable[[Any], bool], what: str, convert: Callable[[Any], Any] = lambda v: v):
    """A checker that rejects a value ``accept`` refuses, naming ``what`` it expected."""

    def coerce(key: str, v: Any) -> Any:
        if not accept(v):
            raise ConfigError(f"{key}: expected {what}, got {v!r}")
        return convert(v)

    return coerce


def _at_least(coerce_kind: Callable[[str, Any], Any], low: int, what: str) -> Callable[[str, Any], Any]:
    def coerce(key: str, v: Any) -> Any:
        x = coerce_kind(key, v)
        if x < low:
            raise ConfigError(f"{key}: expected {what} >= {low}, got {x}")
        return x

    return coerce


def _num_list(accept: Callable[[Any], bool], what: str) -> Callable[[str, Any], List[float]]:
    return _kind(lambda v: isinstance(v, list) and bool(v) and all(accept(x) for x in v),
                 f"a non-empty list of {what}", lambda v: [float(x) for x in v])


def _mode_map(what: str, value_of: Callable[[str, Any, Any], Any]) -> Callable[[str, Any], Dict[int, Any]]:
    """A checker of a map from mode index to ``value_of(key, mode, value)``."""

    def coerce(key: str, v: Any) -> Dict[int, Any]:
        if not isinstance(v, dict):
            raise ConfigError(f"{key}: expected a mode/{what} map, got {v!r}")
        out: Dict[int, Any] = {}
        for k, x in v.items():
            x = value_of(key, k, x)  # the value is checked before its mode
            try:
                mode = int(k)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: mode index {k!r} is not an integer") from None
            if mode < 1:
                raise ConfigError(f"{key}: mode index {mode} must be >= 1")
            out[mode] = x
        return out

    return coerce


def _real_value(key: str, k: Any, x: Any) -> float:
    if not _is_real(x):
        raise ConfigError(f"{key}: value for mode {k!r} must be a number")
    return float(x)


def _pair_value(key: str, k: Any, x: Any) -> Tuple[float, float]:
    # a float that is not finite is reported through its action below
    if not (isinstance(x, list) and len(x) == 2 and all(isinstance(c, float) or _is_real(c) for c in x)):
        raise ConfigError(f"{key}: value for mode {k!r} must be a [re, im] pair")
    re, im = float(x[0]), float(x[1])
    if not math.isfinite(re * re + im * im):
        raise ConfigError(f"{key}: the action re^2 + im^2 of mode {k!r} is not finite")
    return re, im


_INT = _kind(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_NUM = _kind(_is_real, "a number", float)

_COERCE: Dict[str, Callable[[str, Any], Any]] = {
    "int": _INT,
    "nat": _at_least(_INT, 0, "an integer"),  # seeds, and settings where 0 selects a default
    "count": _at_least(_INT, 1, "an integer"),  # sizes and sample counts
    "modes": _at_least(_INT, 2, "an integer"),  # mode cutoffs whose checks need two modes
    "num": _NUM,
    "nonneg": _at_least(_NUM, 0, "a number"),  # amplitudes and horizons where 0 selects a default
    "bool": _kind(lambda v: isinstance(v, bool), "true or false"),
    "str": _kind(lambda v: isinstance(v, str), "a string"),
    "num_list": _num_list(_is_real, "numbers"),
    "pos_list": _num_list(lambda x: _is_real(x) and x > 0, "positive numbers"),
    "mode_map": _mode_map("value", _real_value),
    "pair_map": _mode_map("[re, im]", _pair_value),
}

_WEIGHT_SCHEMA = {
    "weight_kind": ("str", "sobolev"),
    "weight_s": ("num", 1.0),
    "weight_rho": ("num", 0.5),
    "weight_theta": ("num", 1.0),
}

SCHEMAS: Dict[str, Dict[str, Tuple[str, Any]]] = {
    "simulate": {
        "M": ("count", 16),
        "dt": ("num", 1e-3),
        "T": ("num", 10.0),
        "scheme": ("str", "strang_split"),
        "record_stride": ("count", 1),
        "linear_only": ("bool", False),
        "allow_large_dt": ("bool", False),
        "initial_u": ("mode_map", {}),
        "initial_v": ("mode_map", {}),
        "seed": ("nat", 0),
        **_WEIGHT_SCHEMA,
    },
    "drift-sweep": {
        "eps": ("pos_list", [0.2, 0.1, 0.05]),
        "M": ("count", 16),
        "N": ("count", 16),
        "r": ("int", 2),
        "gamma": ("num", 0.1),
        "dt": ("num", 5e-3),
        "T": ("nonneg", 0.0),  # 0 selects T = eps^-2 per point
        "scheme": ("str", "strang_split"),
        "record_stride": ("nat", 0),  # 0 selects roughly 512 records
        "max_tries": ("count", 64),
        "ball_radius": ("num", 0.5),
        "seed": ("nat", 0),
        **_WEIGHT_SCHEMA,
    },
    "measure": {
        "gamma_grid": ("num_list", [0.02, 0.05, 0.1, 0.2]),
        "r": ("int", 2),
        "N": ("count", 8),
        "truncation": ("nat", 0),  # 0 selects N
        "samples": ("count", 1000),
        "eps": ("nonneg", 0.0),  # 0 selects the largest amplitude the small-data hypothesis allows
        "ball_radius": ("num", 0.5),
        "seed": ("nat", 0),
        **_WEIGHT_SCHEMA,
    },
    "resonance": {
        "state": ("pair_map", {}),
        "truncation": ("nat", 0),  # 0 selects max(N, highest excited mode)
        "r": ("int", 2),
        "N": ("count", 8),
        "gamma": ("num", 0.1),
        "seed": ("nat", 0),
        **_WEIGHT_SCHEMA,
    },
    "nf-verify": {
        "N": ("count", 8),
        # at one mode the non-integrable quintic is the zero field, so its
        # cascade check would compare a zero residual with a zero reference
        "quintic_N": ("modes", 6),
        "quintic_samples": ("count", 50),
        "quintic_gamma": ("num", 1e-3),
        "quintic_s": ("num", 3.0),
        # at one mode the septic input is integrable, so the generator and
        # both echoes are empty and the solver identity holds vacuously
        "solver_N": ("modes", 4),
        "solver_samples": ("count", 50),
        "tol_quintic": ("num", 1e-10),
        "tol_solver": ("num", 1e-9),
        "golden_dir": ("str", ""),
        "seed": ("nat", 0),
    },
    "roundtrip": {
        "samples": ("count", 1000),
        "M": ("count", 8),
        "scale": ("num", 0.3),
        "tol": ("num", 1e-12),
        "identity_tol": ("num", 1e-12),
        "seed": ("nat", 0),
    },
}


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return raw  # bare string


def parse_config_text(text: str, source: str) -> Dict[str, Any]:
    """Parse ``key = value`` lines; values are JSON with a bare-string fallback."""
    out: Dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        out[key] = _parse_value(raw)
    return out


def resolve_config(
    command: str,
    config_path: Optional[str],
    overrides: Sequence[str],
    seed_flag: Optional[int],
) -> Dict[str, Any]:
    """Merge defaults, config file, and overrides; validate against the schema."""
    schema = SCHEMAS[command]
    cfg: Dict[str, Any] = {k: default for k, (_, default) in schema.items()}
    merged: Dict[str, Any] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not UTF-8: {exc}") from None
        merged.update(parse_config_text(text, config_path))
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        merged[key.strip()] = _parse_value(raw)
    for key, value in merged.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        cfg[key] = value
    if seed_flag is not None:
        cfg["seed"] = seed_flag
    for key, value in cfg.items():
        cfg[key] = _COERCE[schema[key][0]](key, value)
    return cfg


# ---------------------------------------------------------------------------
# shared helpers

def _weight_from(cfg: Dict[str, Any]) -> WeightSpec:
    with _config_errors():
        return WeightSpec(
            kind=cfg["weight_kind"],
            s=cfg["weight_s"],
            rho=cfg["weight_rho"],
            theta=cfg["weight_theta"],
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _resolved(command: str, cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Provenance block embedded in every output file."""
    return {
        "version": __version__,
        "command": command,
        "config": {k: _jsonable(cfg[k]) for k in sorted(cfg)},
    }


def _header_lines(command: str, cfg: Dict[str, Any]) -> List[str]:
    lines = [f"stringnf {__version__}", f"command = {command}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {json.dumps(_jsonable(cfg[key]), sort_keys=True)}")
    return lines


def _point_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=base, spawn_key=(index,)).generate_state(1)[0])


def _sup(values: Dict[int, complex]) -> float:
    return max((abs(v) for v in values.values()), default=0.0)


# ---------------------------------------------------------------------------
# simulate

def _uv_from_maps(
    u_map: Dict[int, float], v_map: Dict[int, float], truncation: int
) -> UVState:
    for name, m in (("initial_u", u_map), ("initial_v", v_map)):
        for mode in m:
            if mode > truncation:
                raise ConfigError(f"{name}: mode {mode} exceeds truncation {truncation}")
    return UVState(u_map, v_map, truncation)


def _refuse_energy_drift(summary: Dict[str, Any], dt: float) -> None:
    drift = summary["energy_rel_drift_max"]
    if drift > ENERGY_DRIFT_LIMIT:
        raise SimulationBlowup(summary["t_final"], f"relative energy drift {drift:.3e} exceeds "
                               f"{ENERGY_DRIFT_LIMIT:g} by t={summary['t_final']:.6g} at dt={dt:g}")


def cmd_simulate(cfg: Dict[str, Any]) -> Outputs:
    """Integrate the string equation and write a trajectory table."""
    weight = _weight_from(cfg)
    initial = _uv_from_maps(cfg["initial_u"], cfg["initial_v"], cfg["M"])
    with _config_errors():
        sim = SimConfig(
            dt=cfg["dt"],
            T=cfg["T"],
            scheme=cfg["scheme"],
            M=cfg["M"],
            record_stride=cfg["record_stride"],
            weight=weight,
            linear_only=cfg["linear_only"],
            allow_large_dt=cfg["allow_large_dt"],
        )
    traj = simulate(initial, sim)
    summary = trajectory_summary(traj)
    _refuse_energy_drift(summary, sim.dt)
    print(
        f"simulate: {summary['samples']} samples to t={summary['t_final']:.6g}, "
        f"max relative energy drift {summary['energy_rel_drift_max']:.3e}"
    )
    return EXIT_OK, {
        "trajectory.csv": functools.partial(trajectory_to_csv, traj, header_lines=_header_lines("simulate", cfg)),
        "summary.json": {"summary": summary},
    }


# ---------------------------------------------------------------------------
# drift sweep

def _slope_fit(points: Sequence[Tuple[float, float]]) -> Dict[str, Any]:
    """Least-squares slope of log(drift) against log(eps), with standard error."""
    usable = [(math.log(e), math.log(d)) for e, d in points if d > 0.0]
    fit: Dict[str, Any] = {"points_used": len(usable), "slope": None, "stderr": None}
    if len(usable) < 2:
        return fit
    xs = np.array([p[0] for p in usable])
    ys = np.array([p[1] for p in usable])
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    if sxx == 0.0:
        return fit
    slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / sxx)
    fit["slope"] = slope
    if len(usable) > 2:
        resid = ys - (ys.mean() + slope * (xs - xs.mean()))
        fit["stderr"] = float(math.sqrt(float(np.sum(resid**2)) / (len(usable) - 2) / sxx))
    return fit


def cmd_drift_sweep(cfg: Dict[str, Any]) -> Outputs:
    """Action drift against amplitude with a log-log slope fit."""
    weight = _weight_from(cfg)
    with _config_errors():
        params = NonResonanceParams(cfg["r"], cfg["N"], cfg["gamma"], weight)

    def point(index: int) -> Dict[str, Any]:
        eps = cfg["eps"][index]
        seed_i = _point_seed(cfg["seed"], index)
        # besides bad settings, too large an eps overflows the actions or
        # makes the mixing of the coordinate change singular
        with _config_errors(f"eps={eps:g}: "):
            spec = MeasureSpec(weight, cfg["M"], cfg["max_tries"], seed_i, cfg["ball_radius"])
            batch = sample_actions(spec)
            # samples are scored as arrays; only the one kept becomes a state
            ok = batch.nonresonant(eps, params)
            if not ok.any():
                raise SamplingFailure(
                    f"eps={eps:g}: none of {len(batch)} sampled states was non-resonant "
                    f"at gamma={cfg['gamma']:g} (raise max_tries or lower gamma)"
                )
            k = int(ok.argmax())  # the first non-resonant sample
            initial = z_to_uv(ZState(batch.state(k, eps)))
            # finite, since batch.nonresonant refuses an eps whose square is subnormal
            horizon = cfg["T"] if cfg["T"] > 0.0 else eps**-2
            sim = SimConfig(dt=cfg["dt"], T=horizon, scheme=cfg["scheme"], M=cfg["M"], weight=weight)
            # about 512 records, once SimConfig has checked dt and bounded T / dt
            sim = replace(sim, record_stride=cfg["record_stride"] or max(1, int(horizon / sim.dt / 512)))
        traj = simulate(initial, sim)
        s = trajectory_summary(traj)
        _refuse_energy_drift(s, sim.dt)
        return {
            "eps": eps,
            "T": horizon,
            "point_seed": seed_i,
            "tries": k + 1,
            "drift": s["sup_action_drift_max"],
            "drift_final": s["sup_action_drift_final"],
            "norm_initial": s["norm_initial"],
            "norm_max": s["norm_max"],
            "energy_rel_drift_max": s["energy_rel_drift_max"],
            "samples": s["samples"],
        }

    points = [point(i) for i in range(len(cfg["eps"]))]
    fit = _slope_fit([(p["eps"], p["drift"]) for p in points])
    files: Dict[str, Output] = {f"sweep_point_{i}.json": {"point": p} for i, p in enumerate(points)}
    files["sweep.json"] = {"points": points, "fit": fit}
    for p in points:
        print(f"eps={p['eps']:g}: T={p['T']:g} sup weighted action drift {p['drift']:.6e}")
    if fit["slope"] is None:
        print("drift-sweep: slope not defined (need >= 2 points with positive drift at distinct eps)")
    else:
        se = "n/a" if fit["stderr"] is None else f"{fit['stderr']:.3g}"
        print(f"drift-sweep: slope {fit['slope']:.4g} (stderr {se}) from {fit['points_used']} points")
    return EXIT_OK, files


# ---------------------------------------------------------------------------
# measure scan

def cmd_measure(cfg: Dict[str, Any]) -> Outputs:
    """Monte Carlo non-resonant fraction over a gamma grid."""
    weight = _weight_from(cfg)
    grid = cfg["gamma_grid"]
    with _config_errors():
        params = [NonResonanceParams(cfg["r"], cfg["N"], g, weight) for g in grid]
        # 0 selects the largest amplitude for which the sparsity hypothesis holds on the whole grid
        eps = cfg["eps"] or default_eps(min(grid), cfg["r"], cfg["N"])
        spec = MeasureSpec(weight, cfg["truncation"] or cfg["N"], cfg["samples"], cfg["seed"], cfg["ball_radius"])
        batch = sample_actions(spec)  # one draw scored at every gamma
        records = [estimate_measure(p, batch, eps).record() for p in params]
    for rec in records:
        print(
            f"gamma={rec['gamma']:g}: fraction {rec['fraction']:.6f} "
            f"ci [{rec['ci_low']:.6f}, {rec['ci_high']:.6f}] ({rec['samples']} samples)"
        )
    return EXIT_OK, {"measure.json": {"eps_resolved": eps, "records": records}}


# ---------------------------------------------------------------------------
# resonance report

def cmd_resonance(cfg: Dict[str, Any]) -> Outputs:
    """Non-resonance report for a single state."""
    weight = _weight_from(cfg)
    state = cfg["state"]
    truncation = cfg["truncation"] or max([cfg["N"], *state.keys()])
    with _config_errors("state: "):
        z = ComplexSeq({m: complex(re, im) for m, (re, im) in state.items()}, truncation)
    with _config_errors():
        # the weighted norm runs over every mode of the state
        weight.check_modes(truncation)
        params = NonResonanceParams(cfg["r"], cfg["N"], cfg["gamma"], weight)
        rep = is_nonresonant(z, params)
    witness: Optional[Dict[str, Any]] = None
    if rep.witness is not None:
        witness = {
            "index_vector": [list(pair) for pair in rep.witness],
            "divisor_order": rep.witness_order,
            "divisor": rep.divisor,
            "threshold": rep.threshold,
            "smallest_mode": kappa(rep.witness),
        }
    payload = {
        "in_set": rep.ok,
        "margin": rep.margin if math.isfinite(rep.margin) else None,
        "norm": rep.norm_w,
        "reason": rep.reason,
        "worst_witness": witness,
    }
    why = rep.reason or f"margin {rep.margin:.4g}"
    if rep.ok:
        print(f"resonance: state is non-resonant ({why})")
    else:
        print(f"resonance: state is not in the non-resonant set ({why})")
    return EXIT_OK, {"resonance.json": payload}


# ---------------------------------------------------------------------------
# normal form verification

def _ensemble_states(n: int, params: NonResonanceParams, spec: MeasureSpec) -> List[ComplexSeq]:
    """The first ``n`` non-resonant states drawn from the weighted action ensemble."""
    batch = sample_actions(spec)
    kept = np.flatnonzero(batch.nonresonant(1.0, params))
    if len(kept) >= n:
        return [batch.state(i) for i in kept[:n]]
    raise SamplingFailure(
        f"only {len(kept)} of the requested {n} states were non-resonant "
        f"at gamma={params.gamma:g}"
    )


def _plain_states(n: int, modes: int, seed: int, scale: float = 0.35) -> List[ComplexSeq]:
    rng = random.Random(seed)
    states = []
    for _ in range(n):
        data = {}
        for a in range(1, modes + 1):
            re = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
            im = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
            data[a] = complex(re, im) * scale / a
        states.append(ComplexSeq(data, modes))
    return states


def _rel_residual(total: RationalVF, reference: RationalVF, states: Sequence[ComplexSeq]) -> float:
    worst = 0.0
    for t, r in zip(evaluate_vf(total, states), evaluate_vf(reference, states)):
        worst = max(worst, _sup(t) / max(_sup(r), 1e-300))
    return worst


_GOLDEN_NAMES = ("k3", "k5", "z5", "chi3", "s", "m")


def cmd_nf_verify(cfg: Dict[str, Any]) -> Outputs:
    """Verify the normal form identities and write coefficient tables."""
    checks: List[Dict[str, Any]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "pass": bool(ok), "detail": detail})
        suffix = f"  ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}")

    n, nq = cfg["N"], cfg["quintic_N"]
    with _config_errors("quintic ensemble: "):
        weight_q = WeightSpec("sobolev", s=cfg["quintic_s"])
        params_q = NonResonanceParams(2, nq, cfg["quintic_gamma"], weight_q)
        spec_q = MeasureSpec(weight_q, nq, max(4 * cfg["quintic_samples"], 64), cfg["seed"])
    nf = resonant_normal_form(2, n)
    chi3 = chi3_explicit(n)
    z1 = z1_field(n)
    p3 = taylor_vf(1, n)

    z1_chi3 = commutator(z1, chi3)
    resid3 = z1_chi3 + p3 - nf.z3
    record("cubic homological identity", resid3.is_zero(), "exact polynomial arithmetic")
    record("cubic generator closed form", nf.generators[1] == chi3)

    # quintic-stage input reconstructed independently through the graded
    # conjugation of the interaction by the cubic generator, brackets only
    p5 = taylor_vf(2, n)
    h5 = p5 + commutator(p3, chi3) + commutator(z1_chi3, chi3).scale(Fraction(1, 2))
    resid5 = commutator(z1, nf.generators[2]) + h5 - (nf.z5 + nf.k5)
    record("quintic homological identity", resid5.is_zero(), "exact polynomial arithmetic")

    # quintic cascade: bracket against the cubic rotation kills the resonant
    # non-integrable part, checked numerically at ensemble states
    s8, m8 = quintic_rational_solve(nf.k5, n)
    if nq <= n:
        # the normal form and its solve on fewer modes are these, truncated
        z3q, k5q, s_gen, m_gen = (f.truncate(nq) for f in (nf.z3, nf.k5, s8, m8))
    else:
        nfq = resonant_normal_form(2, nq)
        z3q, k5q = nfq.z3, nfq.k5
        s_gen, m_gen = quintic_rational_solve(k5q, nq)
    states_q = _ensemble_states(cfg["quintic_samples"], params_q, spec_q)
    total_q = commutator(z3q, s_gen + m_gen, nq) + k5q
    rq = _rel_residual(total_q, k5q, states_q)
    record(
        "quintic cascade identity",
        rq <= cfg["tol_quintic"],
        f"max relative residual {rq:.3e} over {len(states_q)} states, tol {cfg['tol_quintic']:g}",
    )

    # full rotation solver: [Z3 + Z5, chi] + Q = Z + R2 + R1
    ns = cfg["solver_N"]
    nfs = resonant_normal_form(3, ns)
    q = septic_stage_input(nfs)
    chi, z_int, echo_same, echo_down = solve_homological_z3z5(q, ns)
    total_s = commutator(nfs.z3 + nfs.z5, chi, ns) + q - z_int - echo_same - echo_down
    states_s = _plain_states(cfg["solver_samples"], ns, cfg["seed"] + 1)
    rs = _rel_residual(total_s, q, states_s)
    record(
        "rotation solver identity",
        rs <= cfg["tol_solver"],
        f"max relative residual {rs:.3e} over {len(states_s)} states, tol {cfg['tol_solver']:g}",
    )

    # one document per table serves both the golden comparison and the file
    docs = {name: field_to_json(f) for name, f in zip(_GOLDEN_NAMES, (nf.z3, nf.k5, nf.z5, chi3, s8, m8))}
    if cfg["golden_dir"]:
        golden = Path(cfg["golden_dir"])
        for name in _GOLDEN_NAMES:
            path = golden / f"{name}.json"
            if not path.is_file():
                record(f"golden table {name}", False, f"missing {path}")
                continue
            try:
                stored = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                record(f"golden table {name}", False, f"unreadable {path}: {exc}")
                continue
            record(f"golden table {name}", docs[name] == stored, "exact coefficient match")

    ok = all(c["pass"] for c in checks)
    files: Dict[str, Output] = {f"{name}.json": functools.partial(dump_field, doc) for name, doc in docs.items()}
    files["verify.json"] = {"checks": checks, "pass": ok}
    if not ok:
        failed = ", ".join(c["name"] for c in checks if not c["pass"])
        print(f"nf-verify: FAILED ({failed})", file=sys.stderr)
        return EXIT_VERIFY, files
    print(f"nf-verify: all {len(checks)} checks passed")
    return EXIT_OK, files


# ---------------------------------------------------------------------------
# coordinate roundtrip

def cmd_roundtrip(cfg: Dict[str, Any]) -> Outputs:
    """Coordinate chain inversion and time dilation identity check."""
    rng = np.random.default_rng(cfg["seed"])
    modes = range(1, cfg["M"] + 1)
    scale = cfg["scale"]
    max_rt = 0.0
    max_ident = 0.0
    for _ in range(cfg["samples"]):
        # too large a scale overflows the state or makes the mixing of the
        # coordinate change singular
        with _config_errors(f"scale={scale:g}: "):
            state = UVState(
                {a: scale * rng.standard_normal() / a**2 for a in modes},
                {a: scale * rng.standard_normal() / a for a in modes},
                cfg["M"],
            )
            back = z_to_uv(uv_to_z(state))
            psi = uv_to_psi(state)
            eta = psi_to_eta(psi)
        for a in modes:
            max_rt = max(
                max_rt,
                abs(back.u.get(a, 0.0) - state.u.get(a, 0.0)),
                abs(back.v.get(a, 0.0) - state.v.get(a, 0.0)),
            )
        x = elastic_energy(psi.seq)
        max_ident = max(max_ident, abs(eta.elastic - x * math.sqrt(1.0 + 2.0 * x)))
    ok = max_rt <= cfg["tol"] and max_ident <= cfg["identity_tol"]
    payload = {
        "max_roundtrip_error": max_rt,
        "max_dilation_identity_error": max_ident,
        "pass": ok,
    }
    status = "PASS" if ok else "FAIL"
    print(
        f"roundtrip: {status} over {cfg['samples']} states "
        f"(max roundtrip error {max_rt:.3e}, max dilation identity error {max_ident:.3e})"
    )
    return EXIT_OK if ok else EXIT_VERIFY, {"roundtrip.json": payload}


# ---------------------------------------------------------------------------
# entry point

_COMMANDS: Dict[str, Callable[[Dict[str, Any]], Outputs]] = {
    "simulate": cmd_simulate,
    "drift-sweep": cmd_drift_sweep,
    "measure": cmd_measure,
    "resonance": cmd_resonance,
    "nf-verify": cmd_nf_verify,
    "roundtrip": cmd_roundtrip,
}

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringnf",
        description="Resonant normal form toolkit for the nonlocal string equation.",
    )
    parser.add_argument("--version", action="version", version=f"stringnf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", metavar="FILE", help="key = value configuration file")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override one config key (JSON value); repeatable",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args.config, args.overrides, args.seed)
        out = Path(args.out)
        # the nearest existing ancestor must be a directory, or mkdir fails late
        for p in (out, *out.parents):
            if p.exists():
                if not p.is_dir():
                    raise ConfigError(f"--out: {p} exists and is not a directory")
                break
        code, files = _COMMANDS[args.command](cfg)
        # the CLI's one writer, reached only by a command that returned
        path = out
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                path = out / name
                if callable(content):
                    with open(path, "w") as fh:
                        content(fh)
                else:
                    payload = {**_resolved(args.command, cfg), **content}
                    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {path}: {exc.strerror or exc}") from None
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationBlowup, DivisorRefusal) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SamplingFailure as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return EXIT_SAMPLING


if __name__ == "__main__":
    sys.exit(main())
