"""Benchmark of the stringnf command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is one pinned CLI
invocation (see ``WORKLOADS``), repeated for ``--seconds`` seconds, every
repetition in a fresh interpreter, because a user pays the cold module
caches on every call. The program is imported from ``src/`` of the checkout;
there is nothing to build.

Every call's outputs are checked (``check_*``); a call that exits non-zero or
fails a check counts in ``failed``.

The speed of a shared host drifts by 20% and more over minutes, which would
swamp the differences the benchmark is meant to show. So every interpreter
the benchmark starts is bracketed by a fixed calibration loop run in this
process (``calibrate``), and times are given in reference seconds: the
measured time multiplied by ``REF_CAL_S`` over the mean of the two
calibration times, i.e. seconds on a machine on which the loop takes
``REF_CAL_S``. The raw seconds are printed beside them (``raw.*``).

With ``--trace 0`` the end-to-end metrics are medians over the calls of the
run:

- ``wall_ref_s``: time of ``stringnf.cli.main(argv)`` after import;
- ``setup_s``: spawn of the interpreter to ``import stringnf.cli`` done,
  over import-only probes and the calls themselves, in reference seconds;
- ``cpu_ref_s``: user plus system CPU time of ``main``;
- ``peak_rss_mib``: the process's ``ru_maxrss``;
- ``work_per_ref_s``: units of work per reference second of ``main``. The
  unit is per workload: certificates (samples x gammas) for
  ``measure_scan``, integrator steps for ``drift_sweep`` and
  ``simulate_record``, and verification checks for ``nf_verify``.

With ``--trace 1`` traced and untraced calls alternate; the per-layer
metrics (see ``tracer.py``) are medians over the traced calls, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, each call, and each metric's quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = json.loads((HERE / "reference.json").read_text())

# stop starting calls after this long, so a run ends well inside 180 s
DEADLINE_S = 150.0
SETUP_PROBES = 3
# typical time of one ``calibrate()`` on the machine the benchmark was
# written on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6)
REF_CAL_S = 0.17

# Calls are sized so that a run of 25 s holds several of them and its median
# is not moved by a few seconds of a busy host: criterion-7 measure settings
# with 250 samples per gamma, the criterion-6 drift law at twice its
# amplitudes (T = eps^-2, 26,250 steps), and 10,000 recorded steps take one
# to two seconds each. nf-verify keeps N=8, which its golden tables need, and
# runs the rotation solver at 2 modes instead of 4 (4 s instead of 25 s).
MEASURE_SAMPLES = 250
DRIFT_EPS = (0.4, 0.2, 0.1)
SIM_T = 10.0
NF_SOLVER_N = 2

# criterion-6 window for the drift slope; the window is established for the
# seed-0 sweep only (a single random state per amplitude), see check_drift
SLOPE_WINDOW = (2.5, 3.5)
DRIFT_ENERGY_BOUND = 1e-6
SIM_ENERGY_BOUND = 1e-7
SIM_ACTION_RTOL = 1e-8

GOLDEN = ("k3", "k5", "z5", "chi3", "s", "m")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _canonical_sha(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: CLI arguments and output checks. A check returns the units of
# work the call completed and informational notes, or raises CheckFailed.

def check_measure(out: Path, seed: int) -> Tuple[int, Dict[str, Any]]:
    doc = json.loads((out / "measure.json").read_text())
    records = doc["records"]
    for rec in records:
        hits = rec["fraction"] * rec["samples"]
        _require(abs(hits - round(hits)) <= 1e-9 * rec["samples"],
                 f"gamma={rec['gamma']}: hit count {hits} is not an integer")
    expected = [dict(rec, seed=seed) for rec in REFERENCE["measure_scan"]["records"]]
    _require(records == expected, "measure records differ from the stored reference")
    return sum(rec["samples"] for rec in records), {}


def check_drift(out: Path, seed: int) -> Tuple[int, Dict[str, Any]]:
    doc = json.loads((out / "sweep.json").read_text())
    points = doc["points"]
    dt = doc["config"]["dt"]
    _require([p["eps"] for p in points] == list(DRIFT_EPS), f"sweep points are not eps = {DRIFT_EPS}")
    for p in points:
        eps = p["eps"]
        _require(math.isclose(p["T"], eps**-2, rel_tol=1e-12), f"eps={eps}: T={p['T']} is not eps^-2")
        _require(math.isfinite(p["drift"]) and p["drift"] > 0.0, f"eps={eps}: drift {p['drift']}")
        _require(p["norm_max"] <= 2.0 * p["norm_initial"], f"eps={eps}: norm_max > 2 norm_initial")
        _require(p["energy_rel_drift_max"] <= DRIFT_ENERGY_BOUND,
                 f"eps={eps}: relative energy drift {p['energy_rel_drift_max']:.3e}")
    slope = doc["fit"]["slope"]
    _require(isinstance(slope, float) and math.isfinite(slope), f"slope {slope!r} is not defined")
    in_window = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
    # The slope comes from one random state per amplitude, so the window of
    # criterion 6 holds for its pinned seed 0 and not for most other seeds
    # (a known weakness of the one-sample fit). It gates seed 0 only.
    if seed == 0:
        _require(in_window, f"slope {slope:.4g} outside {SLOPE_WINDOW} at seed 0")
    steps = sum(int(round(p["T"] / dt)) for p in points)
    return steps, {"slope": slope, "slope_in_window": in_window}


def check_simulate(out: Path, seed: int) -> Tuple[int, Dict[str, Any]]:
    ref = REFERENCE["simulate_record"]
    doc = json.loads((out / "summary.json").read_text())
    summary = doc["summary"]
    _require(summary["samples"] == ref["rows"], f"{summary['samples']} samples, expected {ref['rows']}")
    _require(summary["t_final"] == ref["t_final"], f"t_final {summary['t_final']}, expected {ref['t_final']}")
    _require(summary["energy_rel_drift_max"] <= SIM_ENERGY_BOUND,
             f"relative energy drift {summary['energy_rel_drift_max']:.3e}")
    scale = sum(ref["actions_final"].values())
    for mode, value in ref["actions_final"].items():
        got = summary["actions_final"][mode]
        _require(abs(got - value) <= SIM_ACTION_RTOL * scale, f"final I_{mode} = {got!r}, reference {value!r}")
    body = hashlib.sha256()
    rows = -1  # the column-name row
    with open(out / "trajectory.csv", "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                body.update(line)
                rows += 1
    _require(rows == ref["rows"], f"trajectory.csv has {rows} rows, expected {ref['rows']}")
    steps = int(round(summary["t_final"] / doc["config"]["dt"]))
    return steps, {"csv_byte_identical": body.hexdigest() == ref["csv_body_sha256"]}


def check_nf_verify(out: Path, seed: int) -> Tuple[int, Dict[str, Any]]:
    ref = REFERENCE["nf_verify"]
    doc = json.loads((out / "verify.json").read_text())
    checks = doc["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    _require(doc["pass"] and not failed, f"failed checks: {failed}")
    names = {c["name"] for c in checks}
    _require(all(f"golden table {n}" in names for n in GOLDEN), "golden tables were not compared")
    identical = True
    for name in GOLDEN:
        raw = (out / f"{name}.json").read_bytes()
        _require(_canonical_sha(json.loads(raw)) == ref["table_sha256"][name],
                 f"table {name} differs from the golden table")
        identical = identical and hashlib.sha256(raw).hexdigest() == ref["file_sha256"][name]
    return len(checks), {"tables_byte_identical": identical}


def _measure_args(seed: int) -> List[str]:
    return ["measure", "--set", "r=2", "--set", "N=8", "--set", "gamma_grid=[0.02,0.05,0.1,0.2]",
            "--set", "weight_s=3.0", "--set", f"samples={MEASURE_SAMPLES}", "--seed", str(seed)]


def _drift_args(seed: int) -> List[str]:
    return ["drift-sweep", "--set", f"eps={json.dumps(list(DRIFT_EPS))}", "--set", "M=16", "--set", "N=16",
            "--set", "weight_s=3.0", "--set", "gamma=0.1", "--set", "dt=0.005",
            "--set", "max_tries=32", "--seed", str(seed)]


def _simulate_args(seed: int) -> List[str]:
    return ["simulate", "--set", 'initial_u={"1":0.1,"2":-0.05}', "--set", f"T={SIM_T:g}",
            "--set", "dt=0.001", "--set", "record_stride=1", "--seed", str(seed)]


def _nf_verify_args(seed: int) -> List[str]:
    return ["nf-verify", "--set", "golden_dir=tests/golden", "--set", f"solver_N={NF_SOLVER_N}",
            "--seed", str(seed)]


Workload = Tuple[Callable[[int], List[str]], Callable[[Path, int], Tuple[int, Dict[str, Any]]]]
WORKLOADS: Dict[str, Workload] = {
    "measure_scan": (_measure_args, check_measure),
    "drift_sweep": (_drift_args, check_drift),
    "simulate_record": (_simulate_args, check_simulate),
    "nf_verify": (_nf_verify_args, check_nf_verify),
}


# ---------------------------------------------------------------------------
# running calls

def calibrate() -> float:
    """Time a fixed mix of the work stringnf does: interpreted float
    arithmetic, numpy calls on small arrays, dict-keyed integer sums and
    dict-keyed Fraction sums."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400_000):
        acc += (i % 7) * 0.5
    a = np.arange(16.0)
    for _ in range(20_000):
        a = np.cos(a) * 0.5 + a[::-1]
    table: Dict[Any, Any] = {}
    for i in range(100_000):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i * (i & 15)
    for i in range(3_000):
        k = ((i * 7919) % 101, i % 5)
        table[k] = table.get(k, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 11 + 1)
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        # time imports from cached byte code, as an installed package has; the
        # untimed first probe writes the cache, inside the checkout
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.count = 0
        self.numpy: Optional[str] = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def _spawn(self, args: List[str], tag: str) -> Tuple[Optional[Dict[str, Any]], float, str]:
        """Run the worker between two calibrations; returns its result (None on
        failure) with ``scale``, the factor to reference seconds, its raw
        set-up time and the failure reason."""
        self.count += 1
        result = self.dir / f"{tag}{self.count}.json"
        log = self.dir / f"{tag}{self.count}.log"
        cmd = [sys.executable, str(HERE / "worker.py"), args[0], str(result), *args[1:]]
        cal_before = calibrate()
        with open(log, "wb") as fh:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.remaining() + 25.0))
            except subprocess.TimeoutExpired:
                return None, math.nan, f"timed out, killed ({log.name})"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        cal = (cal_before + calibrate()) / 2.0
        if not result.is_file():
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            return None, math.nan, f"worker exit {proc.returncode}: {' | '.join(tail)}"
        data = json.loads(result.read_text())
        module = Path(data["module"]).resolve()
        if ROOT / "src" not in module.parents:
            raise SystemExit(f"stringnf was imported from {module}, not from {ROOT / 'src'}")
        data.update(cal_s=cal, scale=REF_CAL_S / cal)
        return data, data["t_ready"] - t_spawn, ""

    def probe(self) -> Tuple[float, float]:
        """Raw set-up time and its factor to reference seconds."""
        data, setup, err = self._spawn(["probe"], "probe")
        if data is None:
            raise SystemExit(f"import of stringnf.cli failed: {err}")
        return setup, data["scale"]

    def call(self, trace: bool) -> Dict[str, Any]:
        """One CLI call; returns its measurements, or ``failed`` with a reason."""
        args_for, check = WORKLOADS[self.workload]
        out = self.dir / f"out{self.count + 1}"
        cli = args_for(self.seed) + ["--out", str(out.relative_to(ROOT))]
        data, setup, err = self._spawn(["run", *(["--trace"] if trace else []), "--", *cli], "call")
        if data is None:
            return {"failed": err, "trace": trace}
        self.numpy = data["numpy"]
        data.update(setup_s=setup, trace=trace, failed="", info={})
        if data["rc"] != 0:
            data["failed"] = f"exit code {data['rc']}" + (f": {data['error'].strip().splitlines()[-1]}" if data["error"] else "")
        else:
            try:
                work, data["info"] = check(out, self.seed)
                data["work_per_ref_s"] = work / (data["wall_s"] * data["scale"])
            except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
                data["failed"] = f"output check: {type(exc).__name__}: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        return data


# ---------------------------------------------------------------------------
# reporting

def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> Dict[str, Any]:
    src = ROOT / "src"
    lines = sum(len(p.read_text(errors="replace").splitlines()) for p in src.rglob("*.py"))
    try:
        # never look for a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_lines": lines,  # informational, not a gated metric
    }


def declared_metrics(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarise(calls: List[Dict[str, Any]], setups: List[Tuple[float, float]], trace: bool) -> Dict[str, float]:
    """Print each metric's median, quartiles and sample count; return the medians."""
    ok = [c for c in calls if not c["failed"]]
    plain = [c for c in ok if not c["trace"]]
    traced = [c for c in ok if c["trace"]]
    setups = setups + [(c["setup_s"], c["scale"]) for c in calls if "setup_s" in c]
    series: Dict[str, List[float]] = {
        "wall_ref_s": [c["wall_s"] * c["scale"] for c in plain],
        "setup_s": [setup * scale for setup, scale in setups],
        "cpu_ref_s": [c["cpu_s"] * c["scale"] for c in plain],
        "peak_rss_mib": [c["peak_rss_mib"] for c in plain],
        "work_per_ref_s": [c["work_per_ref_s"] for c in plain],
        "raw.wall_s": [c["wall_s"] for c in plain],
        "raw.setup_s": [setup for setup, _ in setups],
        "raw.cpu_s": [c["cpu_s"] for c in plain],
        "raw.calibration_s": [c["cal_s"] for c in calls if "cal_s" in c],
    }
    if trace:
        for name in sorted({k for c in traced for k in c["layers"]}):
            series[name] = [c["layers"][name] for c in traced]
        series["cli.warnings"] = [float(len(c["warnings"])) for c in traced]
        series["trace.wall_s"] = [c["wall_s"] for c in traced]
    medians: Dict[str, float] = {}
    print(f"{'metric':48s} {'median':>14s} {'q1':>14s} {'q3':>14s}   n")
    for name, values in series.items():
        if values:
            q1, medians[name], q3 = _quartiles(values)
            print(f"{name:48s} {medians[name]:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3d}")
    if "trace.wall_s" in medians and "raw.wall_s" in medians:
        overhead = medians["trace.overhead_s"] = medians["trace.wall_s"] - medians["raw.wall_s"]
        unaccounted = medians["trace.wall_s"] - medians["trace.self_sum_s"]
        print(f"trace.overhead_s {overhead:.6f} s: traced minus untraced median wall time; "
              f"{medians['trace.span_cost_s']:.6f} s estimated from the span count and the cost of one span")
        print(f"span self times sum to the traced wall time within {unaccounted:.6f} s")
        print("divisors.divisors_evaluated is computed as calls x 2 x len(enumerate_irr_indices(r, N))")
        print(f"bindings replaced per traced function: {json.dumps(traced[0]['bindings'], sort_keys=True)}; "
              f"not found in the program: {traced[0]['missing']}")
    return medians


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it is passed to the CLI as its seed)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    trace = bool(args.trace)
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    needed = [ROOT / "src" / "stringnf" / "cli.py"]
    if args.workload == "nf_verify":
        needed += [ROOT / "tests" / "golden" / f"{n}.json" for n in GOLDEN]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a stringnf source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = declared_metrics(trace)

    runner = Runner(args.workload, args.seed)
    try:
        runner.probe()  # writes the byte code cache; not timed
        setups = [runner.probe() for _ in range(SETUP_PROBES)]
        calls: List[Dict[str, Any]] = []
        begin = time.monotonic()
        while True:
            for traced in ((False, True) if trace else (False,)):
                calls.append(runner.call(traced))
                c = calls[-1]
                status = f"FAILED ({c['failed']})" if c["failed"] else "ok"
                detail = "" if "wall_s" not in c else (
                    f" wall {c['wall_s']:.4f} s, cpu {c['cpu_s']:.4f} s, rss {c['peak_rss_mib']:.1f} MiB, "
                    f"setup {c['setup_s']:.4f} s, calibration {c['cal_s']:.4f} s, warnings {len(c['warnings'])} {c['info']}")
                print(f"call {len(calls)}{' traced' if traced else ''}: {status}{detail}")
            if time.monotonic() - begin >= args.seconds or runner.remaining() <= 0:
                break
        env = dict(environment(), numpy=runner.numpy, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, calls=len(calls))
        print(json.dumps({"environment": env}, sort_keys=True))
        medians = summarise(calls, setups, trace)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    failed = sum(1 for c in calls if c["failed"])
    metrics = {name: {"value": medians.get(name, math.nan), "unit": unit} for name, unit in declared.items()}
    absent = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if absent and not failed:
        raise SystemExit(f"declared metrics not measured: {absent}")
    for name in absent:
        metrics[name]["value"] = None  # the calls that would measure it failed
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
