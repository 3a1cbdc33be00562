"""Write a ``BENCH_<pr>.json`` snapshot: a parent and a change, side by side.

    python tools/bench_snapshot.py --parent DIR --change DIR --pr N --note TEXT \\
        [--pairs nf_verify=10,measure_scan=5,drift_sweep=3,simulate_record=3] \\
        [--extra FILE] [--out PATH]

``--parent`` and ``--change`` are two source checkouts, each a plain copy of
one commit (``git archive`` into its own directory, say). Nothing is built;
every run imports the program from the ``src/`` of its checkout.

The snapshot holds:

- ``environment``: ``nproc`` and the Python, numpy and platform strings.
- ``src_lines``: per side, the lines of each ``.py`` file under ``src/`` and
  their total.
- ``perfbench``: for each workload, ``perfbench/run.py --workload W --seed P
  --seconds S --trace 0`` in both checkouts for P = 1..pairs, with S the
  ``run_seconds`` of the change's ``BENCHMARK.json``. Pair P uses seed P on
  both sides, and the side that runs first alternates from pair to pair. Per
  end-to-end metric of ``BENCHMARK.json`` it records each run's median,
  their quartiles per side, and how many pairs the change wins.
- ``traced``: the same for one pair of ``--trace 1`` runs of ``nf_verify``,
  keeping the ``nf_engine.*`` per-layer medians, which show where the exact
  algebra's time goes.
- ``layers``: raw seconds in fresh interpreters, three rounds with the sides
  alternating, each next to the generation-2 collections that fell inside
  its timed region (every layer script calls ``gc.collect()`` before that
  region), of layers no perfbench workload times by itself: the bracket
  ``commutator(z3 + z5, chi, 4)`` at (r, N) = (3, 4); the interaction fields
  ``taylor_vf`` at (l, M) = (2, 8) and (3, 6); the polynomial normal form
  ``resonant_normal_form`` at (r, N) = (2, 8), (3, 5) and (3, 6); the
  bracket ``commutator(z1_field(8), chi2)`` of the linear field against the
  quintic-stage generator of ``resonant_normal_form(2, 8)``, on a fresh copy
  of it and a second time on the same field; the seconds an in-process
  ``nf-verify`` at perfbench's ``solver_N`` 2 spends in brackets whose left
  field is a rotation, and its seconds in all; the
  non-resonance certificate ``divisors.certify`` of B = 1 and of B = 250
  seeded states of 8 modes at (r, N) = (2, 8), seconds per call once the
  divisor table is built; the scoring of a fresh batch at the shapes of
  two workloads, seconds per batch once the divisor table is built:
  ``drift_sweep``'s (r, N) = (2, 16), 32 rows of 16 modes and one gamma,
  and ``measure_scan``'s (2, 8), 250 rows of 8 modes and four gammas, scored
  as ``measure`` scores them (``SampleBatch.nonresonant`` of the first
  gamma with the others as ``gammas`` where the tree takes them, else once
  per gamma); one step of
  ``simulate`` at M = 1,
  Strang split and rk4, as seconds per step over 20,000 steps without
  records; the same at M = 16, Strang split, on criterion 5's state with
  ``record_stride`` 10^9, which records the end only, together with the
  ``np.exp`` calls per step, counted as the tests count them, over 2,000
  steps on that state and on the amplitude-0.1 state of ``default_rng(5)`` at
  dt 5e-3; ``simulate`` on that
  state, ``record_stride`` 1 over 10,000 steps, as seconds per recorded
  sample, and ``trajectory_to_csv`` of that trajectory into a
  ``StringIO``, as seconds per row; and the default ``nf-verify``
  (``solver_N`` 4), its exact identity checks included, as a subprocess,
  interpreter start included.
- ``peak_rss``: seconds and peak resident memory (``ru_maxrss``) of three
  whole runs in fresh interpreters, three rounds with the sides alternating:
  criterion 7's Sobolev scan (four gammas, each on its own draw of 10,000
  samples at (r, N) = (2, 8)) and an in-process ``measure --set r=3 --set
  N=16`` at 1,000 and at 10,000 samples, which shows whether memory grows
  with the number of samples.
- ``passes``: per side, the ``drift_sweep`` and ``simulate_record``
  workloads' argv at seed 0, run once in process with ``np.exp`` wrapped:
  the split step's fixed-point passes, its first-half factors and the steps
  that the workload's check counts.
- ``slowest_tests``: the call phase of three slow tier-1 tests, as
  ``pytest --durations`` reports it, once per side with the side that runs
  first alternating from test to test.

``--extra`` names a JSON file whose top-level keys are copied into the
snapshot as they are, for results measured by other means (the tier-1 run,
exactness checks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SIDES = ("parent", "change")
DEFAULT_PAIRS = "nf_verify=10,measure_scan=5,drift_sweep=3,simulate_record=3"
TRACE_PREFIX = "nf_engine."
TRACED_PAIRS = 1
LAYER_ROUNDS = 3

# the slowest test of the tier-1 suite by `pytest --durations`, the split
# step against the Duffing reference, and criterion 2, where the float
# evaluation of rational fields takes its time (2 cores, Python 3.11.7):
# 13.8 s, 1.2 s and 2.5 s of a 66 s run
SLOWEST_TESTS = (
    "tests/test_acceptance.py::test_criterion_5_simulator_oracles",
    "tests/test_simulator.py::TestSingleMode::test_matches_duffing_reference_t10[strang_split-0.0001]",
    "tests/test_acceptance.py::test_criterion_2_homological_identities",
)

# prepended to every layer script: start() collects the cyclic garbage and
# zeroes gen2, the count of generation-2 collections that a gc.callbacks hook
# keeps, so a timed region starts with no garbage of the setup's and reports
# the full collections that fell inside it
GC_PRELUDE = """
import gc
import time
gen2 = 0
def _count(phase, info):
    global gen2
    gen2 += phase == "stop" and info["generation"] == 2
gc.callbacks.append(_count)
def start():
    global gen2
    gc.collect()
    gen2 = 0
    return time.perf_counter()
"""

BRACKET_34 = """
from stringnf.nf_engine import commutator, resonant_normal_form
from stringnf.nf_engine.solvers import septic_stage_input, solve_homological_z3z5
nfs = resonant_normal_form(3, 4)
chi = solve_homological_z3z5(septic_stage_input(nfs), 4)[0]
x = nfs.z3 + nfs.z5
t = start()
out = commutator(x, chi, 4)
print(time.perf_counter() - t, len(out.terms))
print(gen2)
"""

# the linear field against the quintic-stage generator, as a fresh field (as
# nf-verify's quintic identity check brackets it; resonant_normal_form takes
# this bracket from its homological equation) and again on the same field
ROTATION_28 = """
from stringnf.nf_engine import RationalVF, commutator, resonant_normal_form, z1_field
z1 = z1_field(8)
chi2 = RationalVF(dict(resonant_normal_form(2, 8).generators[2].terms))
times = []
for _ in range(2):
    t = start()
    out = commutator(z1, chi2)
    times.append((time.perf_counter() - t, gen2))
print(times[{which}][0], len(out.terms))
print(times[{which}][1])
"""

# in-process nf-verify at perfbench's solver_N 2: its seconds in brackets whose
# left field is a rotation, with the collections inside them, and in all
NF_VERIFY_ROTATION = """
import contextlib, io, tempfile
from stringnf import cli
from stringnf.nf_engine import QC, poly, rational
spent = [0.0, 0]
def timed(x, y, N=None, bracket=rational.commutator):
    rotation = all(k[1:] == (rational.DIAG, (), (), (), ()) and not c.n for k, c in x.terms.items())
    t, before = time.perf_counter(), gen2
    out = bracket(x, y, N)
    spent[0] += (time.perf_counter() - t) * rotation
    spent[1] += (gen2 - before) * rotation
    return out
rational.commutator = poly.commutator = cli.commutator = timed
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    t = start()
    cli.main(["nf-verify", "--set", "golden_dir=tests/golden", "--set", "solver_N=2", "--out", out])
    total = (time.perf_counter() - t, gen2)
print({timed}[0])
print({timed}[1])
"""

TIMED_CALL = """
from stringnf.nf_engine import resonant_normal_form, taylor_vf
t = start()
{call}
print(time.perf_counter() - t)
print(gen2)
"""

# one fresh interpreter per call, so the fold memo starts empty each time
CALLS = {
    "taylor_vf_28": "taylor_vf(2, 8)",
    "taylor_vf_36": "taylor_vf(3, 6)",
    "normal_form_28": "resonant_normal_form(2, 8)",
    "normal_form_35": "resonant_normal_form(3, 5)",
    "normal_form_36": "resonant_normal_form(3, 6)",
}

# B states of 8 modes from random.Random(1), the same on both sides
CERTIFY = """
import random
from stringnf.core import ComplexSeq, WeightSpec
from stringnf.divisors import NonResonanceParams, certify
rng = random.Random(1)
states = []
for _ in range({B}):
    data = {{}}
    for a in range(1, 9):
        re = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        im = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
        data[a] = complex(re, im) * 0.35 / a
    states.append(ComplexSeq(data, 8))
params = NonResonanceParams(2, 8, 0.02, WeightSpec("sobolev", s=3.0))
certify(states, params)  # builds the cached divisor table
t = start()
for _ in range({reps}):
    certify(states, params)
print((time.perf_counter() - t) / {reps})
print(gen2)
"""

# every gamma scored on each of {reps} fresh batches, the grid together where
# the tree scores it so
NONRESONANT = """
import inspect
from stringnf.core import WeightSpec
from stringnf.divisors import NonResonanceParams
from stringnf.measure import MeasureSpec, SampleBatch, default_eps, sample_actions
weight = WeightSpec("sobolev", s=3.0)
params = [NonResonanceParams({r}, {N}, g, weight) for g in {gammas}]
batches = [sample_actions(MeasureSpec(weight, {N}, {rows}, seed)) for seed in range({reps} + 1)]
batches[0].nonresonant({eps}, params[0])  # builds the cached divisor table
together = "gammas" in inspect.signature(SampleBatch.nonresonant).parameters
t = start()
for batch in batches[1:]:
    if together:
        batch.nonresonant({eps}, params[0], {gammas})
    else:
        for p in params:
            batch.nonresonant({eps}, p)
print((time.perf_counter() - t) / {reps})
print(gen2)
"""

STEP = """
from stringnf.simulator import SimConfig, simulate
from stringnf.transforms import UVState
cfg = SimConfig(dt=5e-4, T=10.0, scheme="{scheme}", M=1, record_stride=10**9)
t = start()
simulate(UVState({{1: 0.25}}, {{}}, 1), cfg)
print((time.perf_counter() - t) / round(cfg.T / cfg.dt))
print(gen2)
"""

# np.exp calls by the name of the calling function: the split kernel calls it
# from ``step`` once per fixed-point pass, and from ``phase`` once per first
# half step whose factor is not the last step's
EXP_COUNTER = """
import collections
import sys
import numpy as np
np_exp, exp_calls = np.exp, collections.Counter()
def counting_exp(x, *args, **kwargs):
    exp_calls[sys._getframe(1).f_code.co_name] += 1
    return np_exp(x, *args, **kwargs)
"""

# criterion 5's 16-mode state, recorded only at the end; then the phase factors
# (np.exp calls, as the tests count them) per step over 2,000 steps on that
# state and on the amplitude-0.1 state of the seed test
SPARSE = EXP_COUNTER + """
import json
from stringnf.simulator import SimConfig, simulate
from stringnf.transforms import UVState
def state(amp, seed):
    rng = np.random.default_rng(seed)
    u = {a: amp * a**-3.0 * rng.choice([-1.0, 1.0]) for a in range(1, 17)}
    v = {a: amp * a**-2.0 * rng.choice([-1.0, 1.0]) for a in range(1, 17)}
    return UVState(u, v, 16)
cfg = SimConfig(dt=1e-3, T=20.0, M=16, record_stride=10**9)
t = start()
simulate(state(0.05, 3), cfg)
print((time.perf_counter() - t) / round(cfg.T / cfg.dt))
factors = {}
for name, amp, seed, dt in (("criterion_5", 0.05, 3, 1e-3), ("amplitude_0.1", 0.1, 5, 5e-3)):
    exp_calls.clear()
    np.exp = counting_exp
    simulate(state(amp, seed), SimConfig(dt=dt, T=2000 * dt, M=16, record_stride=10**9))
    np.exp = np_exp
    factors[name] = sum(exp_calls.values()) / 2000
print(json.dumps(factors))
print(gen2)
"""

# criterion 5's 16-mode state, recorded on every step
RECORDED = """
import io
import numpy as np
from stringnf.simulator import SimConfig, simulate, trajectory_to_csv
from stringnf.transforms import UVState
rng = np.random.default_rng(3)
u = {{a: 0.05 * a**-3.0 * rng.choice([-1.0, 1.0]) for a in range(1, 17)}}
v = {{a: 0.05 * a**-2.0 * rng.choice([-1.0, 1.0]) for a in range(1, 17)}}
cfg = SimConfig(dt=1e-3, T=10.0, M=16, record_stride=1)
t = start()
traj = simulate(UVState(u, v, 16), cfg)
per_sample = ((time.perf_counter() - t) / len(traj.times), gen2)
t = start()
trajectory_to_csv(traj, io.StringIO())
per_row = ((time.perf_counter() - t) / len(traj.times), gen2)
print({timed}[0])
print({timed}[1])
"""

# one perfbench workload at seed 0, in process from the checkout's root: the
# split kernel's fixed-point passes and first-half factors, and the steps that
# the workload's own check counts
PASSES = EXP_COUNTER + """
import contextlib, io, json, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
from run import WORKLOADS
from stringnf import cli
args, check = WORKLOADS["{workload}"]
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    np.exp = counting_exp
    cli.main(args(0) + ["--out", out])
    np.exp = np_exp
    steps = check(Path(out), 0)[0]
print(json.dumps({{"steps": steps, "passes": exp_calls["step"], "first_half_factors": exp_calls["phase"],
                  "passes_per_step": round(exp_calls["step"] / steps, 4)}}))
"""
PASS_WORKLOADS = ("drift_sweep", "simulate_record")

# whole runs, timed, with the peak resident memory of their interpreter
RSS_RUNS = {
    "criterion_7_scan": """
import math
from stringnf.core import WeightSpec
from stringnf.divisors import NonResonanceParams
from stringnf.measure import MeasureSpec, estimate_measure
grid, r, n = [0.02, 0.05, 0.1, 0.2], 2, 8
eps = math.sqrt(0.999 * 2.0 * min(grid) / ((r + 1) * float(n) ** (4 * r + 2)))
weight = WeightSpec("sobolev", s=3.0)
t = time.perf_counter()
for g in grid:
    estimate_measure(NonResonanceParams(r, n, g, weight), MeasureSpec(weight, 8, 10_000, 701), eps)
""",
    **{f"measure_r3_N16_{samples}": f"""
import contextlib, io, tempfile
from stringnf import cli
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    t = time.perf_counter()
    cli.main(["measure", "--set", "r=3", "--set", "N=16", "--set", "samples={samples}", "--out", out])
""" for samples in (1000, 10_000)},
}
RSS_REPORT = """
import resource
print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

LAYER_SCRIPTS = {kind: GC_PRELUDE + script for kind, script in {
    "bracket_34": BRACKET_34,
    **{kind: TIMED_CALL.format(call=call) for kind, call in CALLS.items()},
    "rotation_28": ROTATION_28.format(which=0),
    "rotation_28_again": ROTATION_28.format(which=1),
    "nf_verify_rotation": NF_VERIFY_ROTATION.format(timed="spent"),
    "nf_verify_in_process": NF_VERIFY_ROTATION.format(timed="total"),
    "certify_1": CERTIFY.format(B=1, reps=2000),
    "certify_250": CERTIFY.format(B=250, reps=20),
    "nonresonant_216": NONRESONANT.format(r=2, N=16, rows=32, gammas=[0.1], eps=0.2, reps=50),
    "nonresonant_28": NONRESONANT.format(r=2, N=8, rows=250, gammas=[0.02, 0.05, 0.1, 0.2],
                                         eps="default_eps(0.02, 2, 8)", reps=50),
    "strang_step_1": STEP.format(scheme="strang_split"),
    "rk4_step_1": STEP.format(scheme="rk4"),
    "strang_step_16": SPARSE,
    "record_16": RECORDED.format(timed="per_sample"),
    "csv_16": RECORDED.format(timed="per_row"),
}.items()}


def src_lines(tree: Path) -> Dict[str, Any]:
    """The line count of each ``.py`` file under ``src/``, by its path there, and their total."""
    src = tree / "src"
    files = {p.relative_to(src).as_posix(): len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))}
    return {"total": sum(files.values()), "files": files}


def quartiles(values: List[float]) -> Dict[str, float]:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return dict(zip(("q1", "median", "q3"), (round(v, 4) for v in q)))


def perfbench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """The summary line of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def paired_runs(trees: Dict[str, Path], workload: str, pairs: int, seconds: float, trace: int):
    """Per side, the summary of each run, pair P at seed P, first side alternating."""
    runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    first: List[str] = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(perfbench_run(trees[side], workload, pair, seconds, trace))
            print(f"{workload} pair {pair} {side} done", file=sys.stderr, flush=True)
    return runs, first


def compare(runs: Dict[str, List[Dict[str, Any]]], name: str, better: str) -> Dict[str, Any]:
    per_run = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    out: Dict[str, Any] = {side: quartiles(per_run[side]) for side in SIDES}
    base = out["parent"]["median"]
    out["relative_change"] = round((out["change"]["median"] - base) / base, 4) if base else None
    sign = 1 if better == "lower" else -1
    out["change_better_pairs"] = sum(
        1 for p, c in zip(per_run["parent"], per_run["change"]) if sign * (c - p) < 0
    )
    out["per_run_medians"] = {side: [round(v, 4) for v in per_run[side]] for side in SIDES}
    return out


def perfbench_section(trees, benchmark, pairs: Dict[str, int], seconds: float) -> Dict[str, Any]:
    workloads: Dict[str, Any] = {}
    for workload, n in pairs.items():
        runs, first = paired_runs(trees, workload, n, seconds, 0)
        metrics = {}
        for m in benchmark["end_to_end"]:
            metrics[m["name"]] = {"better": m["better"], "bound": m["bound"],
                                  **compare(runs, m["name"], m["better"])}
        workloads[workload] = {
            "pairs": n,
            "first_side": first,
            "calls": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "metrics": metrics,
        }
    return {
        "command": f"python3 perfbench/run.py --workload W --seed P --seconds {seconds:g} --trace 0",
        "method": "parent and change each run from their own checkout; pair P uses seed P on both "
                  "sides, and the side that runs first alternates (first_side). Per run, run.py "
                  "reports the median over its calls; q1/median/q3 are taken over those per-run "
                  "medians. change_better_pairs counts pairs in which the change's run median is "
                  "better than the parent's.",
        "workloads": workloads,
    }


def traced_section(trees, seconds: float) -> Dict[str, Any]:
    runs, first = paired_runs(trees, "nf_verify", TRACED_PAIRS, seconds, 1)
    names = sorted(n for n in runs["parent"][0]["metrics"] if n.startswith(TRACE_PREFIX))
    return {
        "command": f"python3 perfbench/run.py --workload nf_verify --seed P --seconds {seconds:g} --trace 1",
        "first_side": first,
        "metrics": {n: {side: [r["metrics"][n]["value"] for r in runs[side]] for side in SIDES}
                    for n in names},
    }


def timed_layer(tree: Path, kind: str) -> Tuple[float, Optional[int], Optional[Dict[str, Any]]]:
    """Seconds of one layer in ``tree``, the generation-2 collections inside its timed region, and its counts.

    A layer script prints its seconds first and the collections on its last
    line; a line between them holds a JSON object of counts. The collections
    are ``None`` for the ``nf-verify`` subprocess, timed from outside.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if kind in LAYER_SCRIPTS:
        proc = subprocess.run([sys.executable, "-c", LAYER_SCRIPTS[kind]], env=env, capture_output=True,
                              text=True, check=True)
        lines = proc.stdout.splitlines()
        counts = json.loads(lines[1]) if len(lines) == 3 else None
        return float(lines[0].split()[0]), int(lines[-1]), counts
    with tempfile.TemporaryDirectory() as out:
        t = time.perf_counter()
        subprocess.run([sys.executable, "-m", "stringnf.cli", "nf-verify", "--set",
                        "golden_dir=tests/golden", "--out", out], cwd=tree, env=env,
                       capture_output=True, check=True)
        return time.perf_counter() - t, None, None


def layers_section(trees) -> Dict[str, Any]:
    names = {
        "bracket_34": "commutator(z3 + z5, chi, 4) at (r, N) = (3, 4)",
        **CALLS,
        "rotation_28": "commutator(z1_field(8), chi2) on a fresh copy of the quintic-stage generator at "
                       "(r, N) = (2, 8), 2,840 terms",
        "rotation_28_again": "the same bracket a second time on the same field",
        "nf_verify_rotation": "seconds of brackets with a rotation on the left in an in-process "
                              "nf-verify --set golden_dir=tests/golden --set solver_N=2",
        "nf_verify_in_process": "that in-process nf-verify, all of it",
        "certify_1": "divisors.certify of 1 state of 8 modes from random.Random(1) at (r, N) = (2, 8), "
                     "seconds per call",
        "certify_250": "divisors.certify of 250 such states at (r, N) = (2, 8), seconds per call",
        "nonresonant_216": "SampleBatch.nonresonant of a fresh batch of 32 rows of 16 modes at (r, N) = "
                           "(2, 16), eps 0.2 and gamma 0.1 (drift_sweep's shape), seconds per batch over 50",
        "nonresonant_28": "a fresh batch of 250 rows of 8 modes at (r, N) = (2, 8), default eps, scored at "
                          "gammas 0.02, 0.05, 0.1, 0.2 (measure_scan's shape) by one SampleBatch.nonresonant "
                          "call given the grid as gammas, or one call per gamma where the tree takes no "
                          "gammas, seconds per batch over 50",
        "strang_step_1": "simulate, strang_split at M = 1, seconds per step over 20,000 steps",
        "rk4_step_1": "simulate, rk4 at M = 1, seconds per step over 20,000 steps",
        "strang_step_16": "simulate, strang_split at M = 16 on criterion 5's state, record_stride 10**9, "
                          "seconds per step over 20,000 steps; counts: np.exp calls per step over 2,000 "
                          "steps on that state (dt 1e-3) and on the amplitude-0.1 state of default_rng(5) "
                          "(dt 5e-3)",
        "record_16": "simulate, strang_split at M = 16, record_stride 1, seconds per recorded sample "
                     "over 10,000 steps",
        "csv_16": "trajectory_to_csv of that trajectory into a StringIO, seconds per row",
        "nf_verify_default": "stringnf nf-verify --set golden_dir=tests/golden (solver_N 4), subprocess",
    }
    timings = {label: {side: [] for side in SIDES} | {"gen2_collections": {side: [] for side in SIDES}}
               for label in names.values()}
    for kind, label in names.items():
        for rnd in range(LAYER_ROUNDS):
            for side in (SIDES if rnd % 2 == 0 else SIDES[::-1]):
                seconds, collections, counts = timed_layer(trees[side], kind)
                timings[label][side].append(float(f"{seconds:.4g}"))
                timings[label]["gen2_collections"][side].append(collections)
                if counts is not None:  # deterministic: the same in every round
                    timings[label].setdefault("counts", {})[side] = counts
    return {
        "method": f"raw seconds (time.perf_counter, not calibrated), one fresh interpreter per side "
                  f"and round, {LAYER_ROUNDS} rounds alternating which side runs first. Each layer "
                  f"script calls gc.collect() before its timed region, and gen2_collections counts "
                  f"the generation-2 collections inside that region (a gc.callbacks hook; null for "
                  f"the nf-verify subprocess, timed from outside).",
        "timings_s": timings,
    }


def peak_rss_section(trees) -> Dict[str, Any]:
    runs = {kind: {side: {"seconds": [], "peak_rss_mib": []} for side in SIDES} for kind in RSS_RUNS}
    for kind, script in RSS_RUNS.items():
        for rnd in range(LAYER_ROUNDS):
            for side in (SIDES if rnd % 2 == 0 else SIDES[::-1]):
                env = dict(os.environ, PYTHONPATH=str(trees[side] / "src"))
                proc = subprocess.run([sys.executable, "-c", "import time" + script + RSS_REPORT], cwd=trees[side],
                                      env=env, capture_output=True, text=True, check=True)
                seconds, rss = (float(x) for x in proc.stdout.split())
                runs[kind][side]["seconds"].append(float(f"{seconds:.4g}"))
                runs[kind][side]["peak_rss_mib"].append(round(rss, 1))
    return {
        "method": f"one fresh interpreter per side and round, {LAYER_ROUNDS} rounds alternating which side "
                  f"runs first; seconds (time.perf_counter, not calibrated) of the run after its imports, "
                  f"and the interpreter's peak resident memory (ru_maxrss) at its end.",
        "runs": runs,
    }


def passes_section(trees) -> Dict[str, Any]:
    env = {side: dict(os.environ, PYTHONPATH=str(trees[side] / "src")) for side in SIDES}
    counts = {
        workload: {side: json.loads(subprocess.run(
            [sys.executable, "-c", PASSES.format(workload=workload)], cwd=trees[side], env=env[side],
            capture_output=True, text=True, check=True).stdout)
            for side in SIDES}
        for workload in PASS_WORKLOADS
    }
    return {
        "method": "the perfbench workload's argv at seed 0, run in process with np.exp wrapped: passes are "
                  "the calls from the split kernel's step function, one per fixed-point pass, and "
                  "first_half_factors those from its phase cache; steps is the work unit of the "
                  "workload's own check.",
        "counts": counts,
    }


def timed_test(tree: Path, nodeid: str) -> float:
    """Seconds of the call phase of one test, run alone in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=1",
                           "--durations-min=0", nodeid], cwd=tree, env=env, capture_output=True, text=True)
    for line in proc.stdout.splitlines() if proc.returncode == 0 else ():
        m = re.match(r"([0-9.]+)s call\s+(\S+)$", line.strip())
        if m and m.group(2) == nodeid:
            return float(m.group(1))
    raise RuntimeError(f"{nodeid} failed or gave no call duration in {tree}:\n{proc.stdout}{proc.stderr}")


def slowest_tests_section(trees) -> Dict[str, Any]:
    timings = {}
    for i, nodeid in enumerate(SLOWEST_TESTS):
        timings[nodeid] = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            timings[nodeid][side] = float(f"{timed_test(trees[side], nodeid):.4g}")
    return {
        "method": "raw seconds of the call phase (pytest --durations), each test run alone, once per "
                  "side, alternating which side runs first.",
        "timings_s": timings,
    }


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--note", required=True, help="one line naming the change")
    parser.add_argument("--pairs", default=DEFAULT_PAIRS, help="workload=pairs, comma separated")
    parser.add_argument("--extra", type=Path, help="JSON object whose keys are copied in")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in the change checkout")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = {w: int(n) for w, n in (item.split("=") for item in args.pairs.split(","))}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    snapshot: Dict[str, Any] = {
        "change": args.note,
        "environment": environment(),
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "perfbench": perfbench_section(trees, benchmark, pairs, seconds),
        "traced": traced_section(trees, seconds),
        "layers": layers_section(trees),
        "peak_rss": peak_rss_section(trees),
        "passes": passes_section(trees),
        "slowest_tests": slowest_tests_section(trees),
    }
    if args.extra:
        snapshot.update(json.loads(args.extra.read_text()))
    out = args.out or trees["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
