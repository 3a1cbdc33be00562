"""The bytes of every command, against a committed manifest.

``golden/manifest.json`` holds, for each case below, the exit code and the
sha256 of stdout, of stderr and of every file the command wrote. The cases
are:

- each of the six commands run to success at a small config;
- the four argv lists of the benchmark (``perfbench/run.py``) at seed 1,
  named after its workloads and copied here literally, so that an edit of
  the benchmark cannot move this test;
- the default ``nf-verify`` (against the committed golden tables),
  ``resonance`` and ``roundtrip``, named ``default-<command>``;
- ``simulate`` read from a config file, with a ``--set`` that overrides one
  of the file's values;
- one case per failure exit code: 2 (a config error, a ``drift-sweep``
  whose second point is unusable, so that the first point's file must not be
  written either, and a ``drift-sweep`` at ``dt = 0``), 3 (a blow-up of
  ``simulate``, with rk4 and with the split scheme, and a split run whose
  energy drifts past its own size), 4 (a sampling failure) and 5 (a missing
  golden table).

Commands run in-process through ``main(argv)`` from a scratch working
directory that holds a ``tests/golden`` link to the committed tables, with
relative paths, so no path of the machine enters the bytes. A change that
must keep every output byte for byte therefore needs no run of the parent:
this test is the parent-against-change check.

The kernel's bits depend on numpy (see ``TestKernelPremises``), so the
manifest records the Python and numpy versions it was written under, and a
run under others fails with a message that names both. A change that moves
bytes on purpose rewrites the manifest in the same commit:

    PYTHONPATH=src python tests/test_manifest.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from stringnf.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

NF_SMALL = ("--set", "N=3", "--set", "quintic_N=3", "--set", "solver_N=2")

CASES = {
    "simulate": ("simulate", "--set", 'initial_u={"1": 0.1, "2": 0.05}', "--set", 'initial_v={"1": 0.02}',
                 "--set", "M=4", "--set", "T=0.5", "--set", "dt=0.01", "--set", "record_stride=5"),
    "drift-sweep": ("drift-sweep", "--set", "eps=[0.3, 0.2]", "--set", "M=4", "--set", "N=4",
                    "--set", "T=1.0", "--set", "dt=0.01", "--set", "weight_s=3.0"),
    "measure": ("measure", "--set", "gamma_grid=[0.45, 0.9]", "--set", "N=2", "--set", "samples=20000",
                "--set", "eps=0.01", "--set", "weight_s=0.0"),
    "resonance": ("resonance", "--set", 'state={"1": [0.1, 0.05], "2": [0.02, 0.0]}', "--set", "N=4"),
    "nf-verify": ("nf-verify", *NF_SMALL),
    "roundtrip": ("roundtrip", "--set", "samples=50", "--set", "M=4"),
    "measure_scan": ("measure", "--set", "r=2", "--set", "N=8", "--set", "gamma_grid=[0.02,0.05,0.1,0.2]",
                     "--set", "weight_s=3.0", "--set", "samples=250", "--seed", "1"),
    "drift_sweep": ("drift-sweep", "--set", "eps=[0.4, 0.2, 0.1]", "--set", "M=16", "--set", "N=16",
                    "--set", "weight_s=3.0", "--set", "gamma=0.1", "--set", "dt=0.005", "--set", "max_tries=32",
                    "--seed", "1"),
    "simulate_record": ("simulate", "--set", 'initial_u={"1":0.1,"2":-0.05}', "--set", "T=10",
                        "--set", "dt=0.001", "--set", "record_stride=1", "--seed", "1"),
    "nf_verify": ("nf-verify", "--set", "golden_dir=tests/golden", "--set", "solver_N=2", "--seed", "1"),
    "default-nf-verify": ("nf-verify", "--set", "golden_dir=tests/golden"),
    "default-resonance": ("resonance",),
    "default-roundtrip": ("roundtrip",),
    "simulate-config": ("simulate", "--config", "tests/golden/simulate.cfg", "--set", "dt=0.01"),
    "exit-2-config": ("measure", "--set", "N=0"),
    "exit-2-sweep-point": ("drift-sweep", "--set", "eps=[0.3, 1e50]", "--set", "M=4", "--set", "N=4",
                           "--set", "T=0.01"),
    "exit-2-sweep-dt": ("drift-sweep", "--set", "eps=[0.3]", "--set", "M=4", "--set", "N=4", "--set", "T=0.01",
                        "--set", "dt=0"),
    "exit-3-rk4": ("simulate", "--set", 'initial_u={"1": 1e8}', "--set", "scheme=rk4",
                   "--set", "T=1.0", "--set", "M=4", "--set", "dt=0.02"),
    "exit-3-split": ("simulate", "--set", 'initial_u={"1": 1e100}', "--set", "T=1.0", "--set", "M=2"),
    "exit-3-energy": ("simulate", "--set", 'initial_u={"1": 1e3}', "--set", "M=4", "--set", "T=1",
                      "--set", "dt=0.01"),
    "exit-4-sampling": ("drift-sweep", "--seed", "222", "--set", "eps=[1.0]", "--set", "M=2", "--set", "N=2",
                        "--set", "gamma=0.9", "--set", "weight_s=0.0", "--set", "ball_radius=8.0",
                        "--set", "max_tries=1", "--set", "T=1.0", "--set", "dt=0.01"),
    "exit-5-golden": ("nf-verify", "--set", "golden_dir=no_golden", *NF_SMALL),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, where: Path) -> dict:
    """Exit code and sha256 of stdout, stderr and each output file of ``main(argv)`` run in ``where``."""
    (where / "tests").mkdir()
    (where / "tests" / "golden").symlink_to(GOLDEN.resolve(), target_is_directory=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(where), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", "out"])
    out = where / "out"
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit_code": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
        "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in files},
    }


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def pinned() -> dict:
    """The manifest's cases; a run under other versions than the manifest's fails here."""
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != _versions():
        pytest.fail(f"{MANIFEST.name} was written under Python {manifest['versions']['python']} and numpy "
                    f"{manifest['versions']['numpy']}, but this run has Python {platform.python_version()} "
                    f"and numpy {np.__version__}; check the outputs by hand and rewrite the manifest")
    return manifest["cases"]


def test_manifest_pins_every_case():
    cases = pinned()
    assert list(cases) == list(CASES)
    assert {c["exit_code"] for c in cases.values()} == {0, 2, 3, 4, 5}


@pytest.mark.parametrize("case", list(CASES))
def test_command_bytes_match_manifest(case, tmp_path):
    expected = pinned()[case]
    assert run_case(CASES[case], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    cases = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = run_case(argv, Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": _versions(), "cases": cases}, indent=2) + "\n")
    print(f"wrote {MANIFEST} ({len(cases)} cases)", file=sys.stderr)
