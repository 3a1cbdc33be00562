"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each stringnf layer from outside the
package: every name bound to a wrapped function, in any loaded ``stringnf``
module's globals or in a module-level dict such as the CLI's command table,
is replaced by the wrapper, so ``from .divisors import is_nonresonant`` in
the CLI and the measure module is traced as well as the defining module.

A span records its name, start, end and parent span. A layer's self time is
its span durations minus the time covered by its direct child spans. Spans
are kept in memory and summarised once the traced call returns.

Hot scalar kernels (``big_omega``, the ``QC`` arithmetic, ``omega4``) are not
wrapped: they run millions of times per run, and a per-call wrapper would
distort the trace. Their work is counted arithmetically instead
(``divisors.divisors_evaluated``).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# per-call facts: (args, kwargs, result) -> anything cheap to record
Fact = Callable[[tuple, dict, Any], Any]


def _terms(field: Any) -> int:
    return len(getattr(field, "terms", ()))


def _nf_terms(nf: Any) -> int:
    parts = [getattr(nf, name, None) for name in ("z1", "z3", "z5", "k5", "k7")]
    parts += list(getattr(nf, "generators", {}).values())
    return sum(_terms(p) for p in parts if p is not None)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _sim_steps(args: tuple, kwargs: dict, result: Any) -> Tuple[int, int]:
    cfg = _arg(args, kwargs, 1, "config")
    steps = int(round(cfg.T / cfg.dt)) if cfg.T > 0 else 0
    return steps, len(result.times)


def _stream_name(args: tuple, kwargs: dict, result: Any) -> Tuple[int, Optional[str]]:
    traj = _arg(args, kwargs, 0, "traj")
    name = getattr(_arg(args, kwargs, 1, "stream"), "name", None)
    return len(traj.times), name if isinstance(name, str) else None


# (module, function, span name, fact recorder). A function missing from the
# program is skipped and reported, so the benchmark keeps running when a
# later change removes or renames one.
LAYERS: List[Tuple[str, str, str, Optional[Fact]]] = [
    ("stringnf.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("stringnf.cli", "cmd_drift_sweep", "cli.cmd_drift_sweep", None),
    ("stringnf.cli", "cmd_measure", "cli.cmd_measure", None),
    ("stringnf.cli", "cmd_nf_verify", "cli.cmd_nf_verify", None),
    ("stringnf.divisors", "is_nonresonant", "divisors.is_nonresonant",
     lambda a, k, r: (bool(r.ok), _arg(a, k, 1, "params").r, _arg(a, k, 1, "params").N)),
    ("stringnf.divisors", "enumerate_irr_indices", "divisors.enumerate_irr_indices",
     lambda a, k, r: ((_arg(a, k, 0, "r"), _arg(a, k, 1, "N")), len(r))),
    ("stringnf.measure", "sample_actions", "measure.sample_actions",
     lambda a, k, r: (int(r.attempts), len(r))),
    ("stringnf.measure", "estimate_measure", "measure.estimate_measure", None),
    ("stringnf.simulator", "simulate", "simulator.simulate", _sim_steps),
    ("stringnf.simulator", "trajectory_to_csv", "simulator.trajectory_to_csv", _stream_name),
    ("stringnf.simulator", "trajectory_summary", "simulator.trajectory_summary", None),
    ("stringnf.transforms", "uv_to_z", "transforms.uv_to_z", None),
    ("stringnf.transforms", "z_to_uv", "transforms.z_to_uv", None),
    ("stringnf.nf_engine.poly", "resonant_normal_form", "nf_engine.poly.resonant_normal_form",
     lambda a, k, r: _nf_terms(r)),
    ("stringnf.nf_engine.poly", "commutator", "nf_engine.poly.commutator",
     lambda a, k, r: _terms(r)),
    ("stringnf.nf_engine.rational", "rational_commutator", "nf_engine.rational.rational_commutator",
     lambda a, k, r: _terms(r)),
    ("stringnf.nf_engine.rational", "evaluate_vf", "nf_engine.rational.evaluate_vf", None),
    ("stringnf.nf_engine.solvers", "quintic_rational_solve", "nf_engine.solvers.quintic_rational_solve", None),
    ("stringnf.nf_engine.solvers", "solve_homological_z3z5", "nf_engine.solvers.solve_homological_z3z5", None),
    ("stringnf.nf_engine.solvers", "septic_stage_input", "nf_engine.solvers.septic_stage_input", None),
    ("stringnf.nf_engine.serialize", "dump_field", "nf_engine.serialize.dump_field",
     lambda a, k, r: str(_arg(a, k, 1, "path"))),
    # the document itself is kept and measured after the run, off the clock
    ("stringnf.nf_engine.serialize", "field_to_json", "nf_engine.serialize.field_to_json",
     lambda a, k, r: r),
]


def _per_span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, against calling the function bare."""
    bare = lambda: None  # noqa: E731
    wrapped = Tracer().wrap("probe", bare, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        bare()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "fact", "error")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.fact: Any = None
        self.error: Optional[str] = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.originals: Dict[str, Callable] = {}
        self.bindings: Dict[str, int] = {}
        self.missing: List[str] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def wrap(self, name: str, fn: Callable, fact: Optional[Fact]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                span.error = type(exc).__name__
                raise
            tracer.close(span)
            if fact is not None:
                span.fact = fact(args, kwargs, result)
            return result

        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Replace every binding of each layer function with its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "stringnf" or n.startswith("stringnf.")]
        for modname, attr, name, fact in layers:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            self.originals[name] = orig
            wrapper = self.wrap(name, orig, fact)
            count = 0
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is orig:
                        namespace[key] = wrapper
                        count += 1
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                value[dkey] = wrapper
                                count += 1
            self.bindings[name] = count

    # -- summary -----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics, named ``<layer>.<function>.<stat>``."""
        by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def spans(name: str) -> List[Span]:
            return by_name.get(name, [])

        def busy(name: str) -> float:
            # outermost spans only, so recursion is not counted twice
            total = 0.0
            for s in spans(name):
                p = s.parent
                while p is not None and p.name != name:
                    p = p.parent
                if p is None:
                    total += s.duration
            return total

        def self_s(name: str) -> float:
            return sum(s.duration - s.child_s for s in spans(name))

        def pct_us(name: str, q: float) -> float:
            d = sorted(s.duration for s in spans(name))
            if not d:
                return 0.0
            return 1e6 * d[max(0, math.ceil(q * len(d)) - 1)]  # nearest rank

        def facts(name: str) -> List[Any]:
            return [s.fact for s in spans(name) if s.fact is not None]

        m: Dict[str, float] = {}

        def basic(name: str, *stats: str) -> None:
            for stat in stats:
                if stat == "calls":
                    m[f"{name}.calls"] = len(spans(name))
                elif stat == "busy_s":
                    m[f"{name}.busy_s"] = busy(name)
                elif stat == "self_s":
                    m[f"{name}.self_s"] = self_s(name)

        name = "divisors.is_nonresonant"
        basic(name, "calls", "busy_s", "self_s")
        m[f"{name}.us_p50"] = pct_us(name, 0.50)
        m[f"{name}.us_p99"] = pct_us(name, 0.99)
        nr = facts(name)
        m[f"{name}.certified_ratio"] = sum(ok for ok, _, _ in nr) / len(nr) if nr else 0.0
        enum = self.originals.get("divisors.enumerate_irr_indices")
        vectors: Dict[Tuple[int, int], int] = {}
        for _, r, n in nr:
            if (r, n) not in vectors and enum is not None:
                vectors[(r, n)] = len(enum(r, n))
        # computed, not observed: two divisor orders per irreducible vector
        m["divisors.divisors_evaluated"] = sum(2 * vectors.get((r, n), 0) for _, r, n in nr)

        name = "divisors.enumerate_irr_indices"
        basic(name, "calls", "busy_s")
        m[f"{name}.vectors"] = sum(dict(facts(name)).values())

        name = "measure.sample_actions"
        basic(name, "calls", "busy_s")
        attempts = sum(a for a, _ in facts(name))
        accepted = sum(b for _, b in facts(name))
        m[f"{name}.attempts"] = attempts
        m[f"{name}.accepted"] = accepted
        m[f"{name}.acceptance_ratio"] = accepted / attempts if attempts else 0.0
        basic("measure.estimate_measure", "calls", "self_s")

        name = "simulator.simulate"
        basic(name, "calls", "busy_s")
        steps = sum(s for s, _ in facts(name))
        m[f"{name}.steps"] = steps
        m[f"{name}.records"] = sum(r for _, r in facts(name))
        m[f"{name}.us_per_step"] = 1e6 * m[f"{name}.busy_s"] / steps if steps else 0.0
        name = "simulator.trajectory_to_csv"
        basic(name, "busy_s")
        m[f"{name}.rows"] = sum(rows for rows, _ in facts(name))
        m[f"{name}.bytes"] = sum(os.path.getsize(p) for _, p in facts(name) if p and os.path.isfile(p))
        basic("simulator.trajectory_summary", "busy_s")

        for fn in ("uv_to_z", "z_to_uv"):
            basic(f"transforms.{fn}", "calls", "busy_s")

        for name in ("nf_engine.poly.resonant_normal_form", "nf_engine.poly.commutator",
                     "nf_engine.rational.rational_commutator"):
            basic(name, "calls", "busy_s", "self_s")
            m[f"{name}.terms_out"] = sum(facts(name))

        name = "nf_engine.rational.evaluate_vf"
        basic(name, "calls", "busy_s")
        m[f"{name}.us_p50"] = pct_us(name, 0.50)
        m[f"{name}.us_p99"] = pct_us(name, 0.99)
        m[f"{name}.refusals"] = sum(1 for s in spans(name) if s.error == "DivisorRefusal")

        for fn in ("quintic_rational_solve", "solve_homological_z3z5", "septic_stage_input"):
            basic(f"nf_engine.solvers.{fn}", "calls", "busy_s")
        name = "nf_engine.serialize.dump_field"
        basic(name, "calls", "busy_s")
        m[f"{name}.bytes"] = sum(os.path.getsize(p) for p in facts(name) if os.path.isfile(p))
        name = "nf_engine.serialize.field_to_json"
        basic(name, "calls", "busy_s")
        m[f"{name}.bytes"] = sum(len(json.dumps(doc)) for doc in facts(name))

        for cmd in ("simulate", "drift_sweep", "measure", "nf_verify"):
            basic(f"cli.cmd_{cmd}", "self_s")
        basic("cli.main", "self_s")
        m["trace.self_sum_s"] = sum(s.duration - s.child_s for s in self.spans)
        m["trace.spans"] = len(self.spans)
        m["trace.span_cost_s"] = len(self.spans) * _per_span_cost()
        return {k: float(v) for k, v in m.items()}
