"""One benchmark call in a fresh interpreter.

    python3 perfbench/worker.py probe RESULT.json
    python3 perfbench/worker.py run RESULT.json [--trace] -- CLI-ARGS...

The package is imported before anything else, so the parent can time set-up
as the span from spawning this process to ``T_READY`` (both read from the
system-wide monotonic clock). ``run`` then times ``stringnf.cli.main`` on the
given arguments, with the layer tracer installed when ``--trace`` is given,
and writes the measurements to RESULT.json. Users pay the cold module caches
on every CLI call, so nothing is warmed up first.
"""

import sys
import time

import stringnf.cli

T_READY = time.monotonic()


def _run(cli_argv, trace):
    import resource
    import traceback
    import warnings

    import numpy

    tracer = None
    cli_main = stringnf.cli.main
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli_main, None)
    error = None
    # keep the default filters, so the count is what a user of the CLI sees
    with warnings.catch_warnings(record=True) as caught:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            rc = cli_main(cli_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported to the parent as a failed call
            rc = 1
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mib": ru1.ru_maxrss / 1024.0,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["bindings"] = tracer.bindings
        out["missing"] = tracer.missing
    return out


def main(argv):
    import json

    mode, result_path = argv[0], argv[1]
    out = {"t_ready": T_READY, "module": stringnf.cli.__file__}
    if mode == "run":
        rest = argv[2:]
        split = rest.index("--")
        out.update(_run(rest[split + 1:], "--trace" in rest[:split]))
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
