"""End-to-end checks of the command line front end.

Commands run in-process through ``main(argv)``; outputs land in pytest tmp
directories.  The reproducibility contract (same config, same bytes) is
checked on actual file contents, and every documented exit code is driven
at least once.
"""

import filecmp
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import duffing_reference
from stringnf import cli, measure
from stringnf.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SAMPLING,
    EXIT_VERIFY,
    SCHEMAS,
    ConfigError,
    main,
    parse_config_text,
    resolve_config,
)
from stringnf.measure import SampleBatch
from stringnf.nf_engine import QC, RationalVF

GOLDEN_DIR = Path(__file__).parent / "golden"


def read_json(path):
    return json.loads(Path(path).read_text())


def run(*args):
    return main(list(args))


def count_states(monkeypatch):
    """Record the sample index of every state a ``SampleBatch`` builds."""
    built = []
    state = SampleBatch.state

    def counting(self, i, eps=1.0):
        built.append(int(i))
        return state(self, i, eps)

    monkeypatch.setattr(SampleBatch, "state", counting)
    return built


# ---------------------------------------------------------------------------
# configuration handling

class TestConfigResolution:
    def test_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "\n"
            "M = 8\n"
            "scheme = rk4\n"
            "T = 1.5\n"
        )
        cfg = resolve_config("simulate", str(cfg_file), ["T=2.5", "dt=0.002"], None)
        assert cfg["M"] == 8
        assert cfg["scheme"] == "rk4"
        assert cfg["T"] == 2.5  # --set wins over the file
        assert cfg["dt"] == 0.002

    def test_seed_flag_wins(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 7\n")
        assert resolve_config("measure", str(cfg_file), [], None)["seed"] == 7
        assert resolve_config("measure", str(cfg_file), [], 11)["seed"] == 11

    def test_values_parse_as_json_with_string_fallback(self):
        parsed = parse_config_text('eps = [0.2, 0.1]\nscheme = strang_split\nflag = true\n', "t")
        assert parsed == {"eps": [0.2, 0.1], "scheme": "strang_split", "flag": True}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n", "t")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config("simulate", None, ["bogus=3"], None)

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            resolve_config("simulate", None, ["dt=true"], None)
        with pytest.raises(ConfigError, match="expected an integer"):
            resolve_config("simulate", None, ["M=2.5"], None)
        with pytest.raises(ConfigError, match="non-empty list"):
            resolve_config("drift-sweep", None, ["eps=[]"], None)
        with pytest.raises(ConfigError, match="mode index"):
            resolve_config("simulate", None, ['initial_u={"0": 1.0}'], None)
        with pytest.raises(ConfigError, match="re, im"):
            resolve_config("resonance", None, ['state={"1": [1.0]}'], None)

    @pytest.mark.parametrize("setting", [
        "T=1e400", "T=Infinity", "dt=NaN", "T=NaN", "weight_s=NaN", pytest.param("T=1" + "0" * 400, id="T=10**400"),
        'initial_u={"1": NaN}',
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, setting):
        out = tmp_path / "o"
        assert run("simulate", "--out", str(out), "--set", setting) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        assert run("simulate", "--config", "/nonexistent.cfg") == EXIT_CONFIG
        assert "config file not found" in capsys.readouterr().err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"T = 1\n# \x80\n")
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "not UTF-8" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_through_an_existing_file(self, tmp_path, capsys, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / sub if sub else blocker
        assert run("roundtrip", "--out", str(out), "--set", "samples=2") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "not a directory" in err
        assert blocker.read_text() == ""

    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys):
        # a directory stands where the output file goes
        (tmp_path / "o" / "measure.json").mkdir(parents=True)
        rc = run("measure", "--out", str(tmp_path / "o"), "--set", "samples=5", "--set", "N=2")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --out: cannot write {tmp_path / 'o' / 'measure.json'}: Is a directory\n")

    def test_unwritable_later_file_writes_none(self, tmp_path, capsys):
        # the table is written first, the summary's place is taken
        out = tmp_path / "o"
        (out / "summary.json").mkdir(parents=True)
        rc = run("simulate", "--out", str(out), "--set", "M=2", "--set", "T=0.01", "--set", "dt=0.001")
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        # the success line is printed only once the files are written
        assert captured.out == ""
        assert captured.err == f"config error: --out: cannot write {out / 'summary.json'}: Is a directory\n"
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert not any((out / "summary.json").iterdir())

    def test_failed_verification_unwritten_prints_only_the_write_error(self, tmp_path, capsys):
        # nf-verify's check lines and its FAILED line wait for the write too
        out = tmp_path / "o"
        (out / "verify.json").mkdir(parents=True)
        rc = run("nf-verify", "--out", str(out), "--set", f"golden_dir={tmp_path / 'none'}",
                 "--set", "N=3", "--set", "quintic_N=3", "--set", "solver_N=2")
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --out: cannot write {out / 'verify.json'}: Is a directory\n"

    def test_writer_failing_midway_leaves_no_out(self, tmp_path, capsys, monkeypatch):
        def failing(fh):
            fh.write("partial")
            raise OSError(28, "No space left on device")

        def command(cfg):
            return cli.Outputs(EXIT_OK, {"first.json": {"x": 1}, "second.csv": failing, "third.json": {"y": 2}})

        monkeypatch.setitem(cli._COMMANDS, "roundtrip", command)
        out = tmp_path / "fresh" / "o"
        assert run("roundtrip", "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --out: cannot write {out / 'second.csv'}: No space left on device\n")
        assert list(tmp_path.iterdir()) == []

    def test_validation_happens_before_computation(self, tmp_path, capsys):
        # dt violates the stiffness guard; nothing is written
        out = tmp_path / "o"
        rc = run("simulate", "--out", str(out), "--set", "dt=0.05", "--set", "M=16")
        assert rc == EXIT_CONFIG
        assert "allow_large_dt" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# integer settings, driven by the schemas so that new keys are covered

INT_KEYS = [
    (command, key)
    for command, schema in SCHEMAS.items()
    for key, (_, default) in schema.items()
    if type(default) is int
]

# Integer keys where 0 is a valid value.  The number keys drift-sweep T and
# measure eps also select a default at 0; they are not integers.
ZERO_ALLOWED = {
    ("drift-sweep", "record_stride"): "0 selects roughly 512 records per point",
    ("measure", "truncation"): "0 selects N",
    ("resonance", "truncation"): "0 selects max(N, highest excited mode)",
    **{(command, "seed"): "0 is a seed" for command in SCHEMAS},
}


@pytest.mark.parametrize("command,key", INT_KEYS, ids=[f"{c}-{k}" for c, k in INT_KEYS])
def test_negative_integer_is_config_error(tmp_path, capsys, command, key):
    out = tmp_path / "o"
    assert run(command, "--out", str(out), "--set", f"{key}=-1") == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


ZERO_REJECTED = [case for case in INT_KEYS if case not in ZERO_ALLOWED]


@pytest.mark.parametrize("command,key", ZERO_REJECTED, ids=[f"{c}-{k}" for c, k in ZERO_REJECTED])
def test_zero_size_or_count_is_config_error(tmp_path, capsys, command, key):
    out = tmp_path / "o"
    assert run(command, "--out", str(out), "--set", f"{key}=0") == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_negative_seed_flag_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert run(command, "--out", str(out), "--seed", "-1") == EXIT_CONFIG
    assert "config error: seed" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate

class TestSimulateCommand:
    def test_zero_data_gives_zero_table(self, tmp_path):
        out = tmp_path / "zero"
        rc = run("simulate", "--out", str(out), "--set", "T=0.5", "--set", "M=4",
                 "--set", "dt=0.02")
        assert rc == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        headers = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln.startswith("# stringnf ") for ln in headers)
        assert any("command = simulate" in ln for ln in headers)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "t,H,sup_drift," + ",".join(f"I_{a}" for a in range(1, 5))
        for row in body[1:]:
            fields = row.split(",")
            assert all(float(x) == 0.0 for x in fields[1:])
        summary = read_json(out / "summary.json")
        assert summary["command"] == "simulate"
        assert summary["config"]["M"] == 4
        assert summary["config"]["T"] == 0.5
        assert summary["summary"]["energy_initial"] == 0.0
        assert summary["summary"]["sup_action_drift_max"] == 0.0

    def test_single_mode_matches_oscillator_oracle(self, tmp_path):
        out = tmp_path / "duffing"
        rc = run("simulate", "--out", str(out), "--set", 'initial_u={"1": 0.4}',
                 "--set", "M=4", "--set", "dt=0.00025", "--set", "T=2.0",
                 "--set", "record_stride=80")
        assert rc == EXIT_OK
        summary = read_json(out / "summary.json")["summary"]
        y = duffing_reference(1, 0.4, 0.0, [2.0])
        oracle = 0.5 * (y[0][-1] ** 2 + y[1][-1] ** 2)
        assert summary["actions_final"]["1"] == pytest.approx(oracle, abs=1e-9)
        assert summary["energy_rel_drift_max"] < 1e-8

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run("simulate", "--out", str(out), "--set", 'initial_u={"2": 0.1}',
                     "--set", "T=0.4", "--set", "M=4", "--set", "dt=0.01")
            assert rc == EXIT_OK
            outs.append(out)
        for fname in ("trajectory.csv", "summary.json"):
            assert filecmp.cmp(outs[0] / fname, outs[1] / fname, shallow=False)

    def test_blowup_exits_with_numerical_abort(self, tmp_path, capsys):
        rc = run("simulate", "--out", str(tmp_path / "o"), "--set", 'initial_u={"1": 1e8}',
                 "--set", "scheme=rk4", "--set", "T=1.0", "--set", "M=4", "--set", "dt=0.02")
        assert rc == EXIT_NUMERICAL
        assert "numerical abort" in capsys.readouterr().err

    def test_energy_blowup_mid_run_is_numerical_abort(self, tmp_path, capsys):
        # the split scheme stays finite at this amplitude, but the energy
        # drifts by about 1e113 times its own size
        out = tmp_path / "o"
        rc = run("simulate", "--out", str(out), "--set", 'initial_u={"1": 1e3}',
                 "--set", "M=4", "--set", "T=1", "--set", "dt=0.01")
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: relative energy drift ") and "at dt=0.01" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", ["1e100", "1e200"])
    def test_overflowing_initial_record_is_numerical_abort(self, tmp_path, capsys, amplitude):
        # the initial energy overflows before any step: at 1e100 the float
        # power raises, at 1e200 the numpy products overflow to inf
        out = tmp_path / "o"
        rc = run("simulate", "--out", str(out), "--set", f'initial_u={{"1": {amplitude}}}',
                 "--set", "T=0")
        assert rc == EXIT_NUMERICAL
        assert "numerical abort" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# drift sweep

class TestDriftSweepCommand:
    def sweep_args(self, out, *extra):
        return ("drift-sweep", "--out", str(out),
                "--set", "eps=[0.3, 0.2, 0.1]", "--set", "M=8", "--set", "N=8",
                "--set", "T=2.0", "--set", "dt=0.01", "--set", "weight_s=3.0",
                *extra)

    def test_points_and_fit(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(*self.sweep_args(out)) == EXIT_OK
        merged = read_json(out / "sweep.json")
        assert [p["eps"] for p in merged["points"]] == [0.3, 0.2, 0.1]
        assert all(p["drift"] >= 0.0 for p in merged["points"])
        assert all(p["tries"] >= 1 for p in merged["points"])
        assert merged["fit"]["points_used"] == 3
        assert merged["fit"]["slope"] is not None
        # each point's file holds its entry of the merged table
        for i, point in enumerate(merged["points"]):
            assert read_json(out / f"sweep_point_{i}.json")["point"] == point

    # one point, or positive drifts all at one eps: either way no slope
    @pytest.mark.parametrize("eps,used", [("[0.3]", 1), ("[0.3, 0.3]", 2)])
    def test_undefined_slope_names_both_causes(self, tmp_path, capsys, eps, used):
        out = tmp_path / "sweep"
        assert run("drift-sweep", "--out", str(out), "--set", f"eps={eps}", "--set", "T=1",
                   "--set", "M=4", "--set", "N=4") == EXIT_OK
        merged = read_json(out / "sweep.json")
        assert all(p["drift"] > 0.0 for p in merged["points"])
        assert merged["fit"] == {"points_used": used, "slope": None, "stderr": None}
        assert capsys.readouterr().out.splitlines()[-1] == (
            "drift-sweep: slope not defined (need >= 2 points with positive drift at distinct eps)")

    def test_only_the_kept_sample_becomes_a_state(self, tmp_path, monkeypatch):
        built = count_states(monkeypatch)
        out = tmp_path / "sweep"
        assert run(*self.sweep_args(out)) == EXIT_OK
        assert built == [p["tries"] - 1 for p in read_json(out / "sweep.json")["points"]]

    def test_thread_count_does_not_change_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*self.sweep_args(a)) == EXIT_OK
        assert run(*self.sweep_args(b)) == EXIT_OK
        assert filecmp.cmp(a / "sweep.json", b / "sweep.json", shallow=False)

    @pytest.mark.parametrize("eps", ["[0.1, -0.2]", "[0]"])
    def test_non_positive_eps_rejected_when_read(self, eps):
        with pytest.raises(ConfigError, match="eps: expected a non-empty list of positive numbers"):
            resolve_config("drift-sweep", None, [f"eps={eps}"], None)

    def test_insufficient_nonresonant_samples(self, tmp_path, capsys):
        # first draw of this seed is resonant at these params; budget of one
        out = tmp_path / "o"
        rc = run("drift-sweep", "--out", str(out), "--seed", "222",
                 "--set", "eps=[1.0]", "--set", "M=2", "--set", "N=2",
                 "--set", "gamma=0.9", "--set", "weight_s=0.0",
                 "--set", "ball_radius=8.0", "--set", "max_tries=1",
                 "--set", "T=1.0", "--set", "dt=0.01")
        assert rc == EXIT_SAMPLING
        assert "sampling failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("setting,cause", [
        ("eps=[1e50]", "elastic energy"),  # the coordinate change's mixing rounds to singular
        ("eps=[0.3,1e50]", "elastic energy"),  # a later point fails: the earlier one is not written
        ("eps=[1e200]", "action"),  # the sampled actions overflow before certification
        ("ball_radius=1e-9", "rejection rate"),  # the sampler rejects every draw
        # an eps whose square is zero or subnormal would score every state alike; it is refused
        # before the default horizon T = eps^-2, which it alone could overflow
        ("eps=[1e-160] T=0", "subnormal"),
        ("eps=[1e-200]", "subnormal"),
        ("eps=[1e-100] T=0", "steps"),  # T = eps^-2 is finite but asks for 2e202 steps
        ("eps=[0.4] T=-5", "T: expected a number >= 0"),  # only 0 selects the default horizon
        # the simulation config checks dt and T / dt before the record stride divides by them
        ("dt=0", "dt must be finite and > 0"),
        ("dt=-0.0", "dt must be finite and > 0"),
        ("dt=1e-320", "steps"),
        ("T=1e308", "steps"),
    ])
    def test_unusable_point_is_config_error(self, tmp_path, capsys, setting, cause):
        out = tmp_path / "o"
        overrides = [arg for item in ("M=4", "N=4", "T=0.01", *setting.split()) for arg in ("--set", item)]
        rc = run("drift-sweep", "--out", str(out), *overrides)
        assert rc == EXIT_CONFIG
        assert cause in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# measure scan

class TestMeasureCommand:
    def test_grid_scan_monotone(self, tmp_path):
        out = tmp_path / "m"
        rc = run("measure", "--out", str(out), "--set", "gamma_grid=[0.05, 0.1, 0.2]",
                 "--set", "N=4", "--set", "samples=300", "--set", "weight_s=2.0")
        assert rc == EXIT_OK
        payload = read_json(out / "measure.json")
        assert payload["eps_resolved"] > 0.0
        fracs = [rec["fraction"] for rec in payload["records"]]
        assert [rec["gamma"] for rec in payload["records"]] == [0.05, 0.1, 0.2]
        # same sample set at every gamma, thresholds grow with gamma
        assert fracs == sorted(fracs, reverse=True)
        for rec in payload["records"]:
            assert rec["ci_low"] <= rec["fraction"] <= rec["ci_high"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("measure", "--set", "gamma_grid=[0.1]", "--set", "N=4",
                "--set", "samples=200", "--set", "weight_s=2.0")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", str(a)) == EXIT_OK
        assert run(*args, "--out", str(b)) == EXIT_OK
        assert filecmp.cmp(a / "measure.json", b / "measure.json", shallow=False)

    @pytest.mark.filterwarnings("error")
    def test_default_eps_satisfies_its_own_cap(self, tmp_path):
        # the default amplitude is the square root of the small-data cap; a
        # rounded-up root would square over the cap and warn against itself
        out = tmp_path / "m"
        rc = run("measure", "--out", str(out), "--set", "samples=5")
        assert rc == EXIT_OK
        assert read_json(out / "measure.json")["eps_resolved"] > 0.0

    @pytest.mark.parametrize("setting,cause", [
        ("eps=-0.5", "eps: expected a number >= 0"),  # only 0 selects the default amplitude
        # eps^2 = inf is refused up front, not after the small-data warning and the scaled actions
        ("eps=1e200", "eps = 1e+200 has a square that is not finite"),
        # eps^2 = 0 would score every sample resonant, as a zero state
        ("eps=1e-200", "eps = 1e-200 has a square that is zero or subnormal"),
    ])
    def test_unusable_amplitude_is_config_error(self, tmp_path, capsys, setting, cause):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("measure", "--out", str(out), "--set", "samples=10", "--set", setting)
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ") and cause in lines[0]
        assert not caught
        assert not out.exists()

    def test_scan_draws_and_builds_rows_once(self, tmp_path, monkeypatch):
        draws, rows = [], []
        draw, build = measure.sample_actions, SampleBatch.rows

        def counting_draw(spec):
            draws.append(spec)
            return draw(spec)

        def counting_rows(self, *args):
            rows.append(args)
            return build(self, *args)

        monkeypatch.setattr(cli, "sample_actions", counting_draw)
        monkeypatch.setattr(measure, "sample_actions", counting_draw)
        monkeypatch.setattr(SampleBatch, "rows", counting_rows)
        # an eps over the small-data cap, which still warns once per gamma
        with pytest.warns(UserWarning, match="exceeds") as caught:
            rc = run("measure", "--out", str(tmp_path / "m"), "--set", "N=2", "--set", "eps=0.3",
                     "--set", "gamma_grid=[0.02, 0.05, 0.1, 0.2]", "--set", "samples=50")
        assert rc == EXIT_OK
        assert len(draws) == 1 and len(rows) == 1
        assert len([w for w in caught if "exceeds" in str(w.message)]) == 4

    def test_overflowing_gevrey_weight_is_config_error(self, tmp_path, capsys):
        # exp(2 rho M) passes the float range at M = 400; RuntimeWarnings fail the test
        out = tmp_path / "o"
        rc = run("measure", "--out", str(out), "--set", "weight_kind=gevrey", "--set", "weight_rho=2",
                 "--set", "truncation=400", "--set", "samples=5")
        assert rc == EXIT_CONFIG
        assert "gevrey weight overflows at mode 400" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", [None, "1e-3"])
    def test_enumeration_guard_is_config_error(self, tmp_path, capsys, eps):
        # at r = 300 the small-data cap 8^1202 overflows; the guard refuses first
        out = tmp_path / "o"
        extra = ("--set", f"eps={eps}") if eps else ()
        rc = run("measure", "--out", str(out), "--set", "r=300", "--set", "samples=5", *extra)
        assert rc == EXIT_CONFIG
        assert "would scan more than 10000000 candidate vectors" in capsys.readouterr().err
        assert not out.exists()

    def test_impossible_conditioning_is_config_error(self, tmp_path, capsys):
        rc = run("measure", "--out", str(tmp_path / "o"), "--set", "gamma_grid=[0.1]",
                 "--set", "N=4", "--set", "samples=10", "--set", "ball_radius=1e-9")
        assert rc == EXIT_CONFIG
        assert "rejection rate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# resonance report

class TestResonanceCommand:
    def test_zero_state_not_in_set(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = run("resonance", "--out", str(out), "--set", "N=4")
        assert rc == EXIT_OK
        assert "zero norm" in capsys.readouterr().out
        payload = read_json(out / "resonance.json")
        assert payload["in_set"] is False
        assert payload["reason"] == "zero norm"
        assert payload["margin"] == 0.0
        assert payload["worst_witness"] is None

    def test_excited_state_report_is_consistent(self, tmp_path):
        out = tmp_path / "r"
        rc = run("resonance", "--out", str(out),
                 "--set", 'state={"1": [0.3, 0.1], "2": [0.1, -0.2], "3": [0.05, 0.0]}',
                 "--set", "N=4", "--set", "gamma=0.5", "--set", "weight_s=1.0")
        assert rc == EXIT_OK
        payload = read_json(out / "resonance.json")
        assert payload["in_set"] is True
        witness = payload["worst_witness"]
        # the reported margin is exactly the worst divisor over its threshold
        assert witness["divisor"] / witness["threshold"] == pytest.approx(
            payload["margin"], rel=1e-9
        )
        assert witness["divisor_order"] in (2, 4)

    def test_vacuous_certificate_is_strict_json(self, tmp_path, capsys):
        # no irreducible divisor exists at N=1, so the state passes vacuously
        out = tmp_path / "v"
        rc = run("resonance", "--out", str(out),
                 "--set", 'state={"1": [0.2, 0.0]}', "--set", "N=1")
        assert rc == EXIT_OK
        assert "no divisors at this cutoff" in capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads((out / "resonance.json").read_text(), parse_constant=reject)
        assert payload["in_set"] is True
        assert payload["margin"] is None
        assert payload["reason"] == "no divisors at this cutoff"
        assert payload["worst_witness"] is None

    @pytest.mark.parametrize("value", ["[1e200, 0.0]", "[0.0, 1e400]"])
    def test_overflowing_action_is_config_error(self, tmp_path, capsys, value):
        override = f'state={{"1": {value}}}'
        with pytest.raises(ConfigError, match="action"):
            resolve_config("resonance", None, [override], None)
        out = tmp_path / "o"
        assert run("resonance", "--out", str(out), "--set", override) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_gevrey_weight_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run("resonance", "--out", str(out), "--set", "weight_kind=gevrey", "--set", "weight_rho=2",
                 "--set", 'state={"400": [0.1, 0]}')
        assert rc == EXIT_CONFIG
        assert "gevrey weight overflows at mode 400" in capsys.readouterr().err
        assert not out.exists()

    def test_enumeration_guard_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run("resonance", "--out", str(out), "--set", "r=100", "--set", 'state={"1": [0.1, 0]}')
        assert rc == EXIT_CONFIG
        assert "enumeration at (r, N) = (100, 8) would scan more than" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weighted_norm_is_config_error(self, tmp_path, capsys):
        # the action 1e306 is finite, but 8^6 times it is not
        out = tmp_path / "o"
        rc = run("resonance", "--out", str(out), "--set", "weight_s=3", "--set", 'state={"8": [1e153, 0]}')
        assert rc == EXIT_CONFIG
        assert "weighted norm that is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_past_truncation_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run("resonance", "--out", str(out), "--set", "truncation=8", "--set", 'state={"9": [0.1, 0]}')
        assert rc == EXIT_CONFIG
        assert "config error: state: mode 9 exceeds truncation 8" in capsys.readouterr().err
        assert not out.exists()

    def test_gevrey_weight_runs(self, tmp_path):
        out = tmp_path / "g"
        rc = run("resonance", "--out", str(out),
                 "--set", 'state={"1": [0.2, 0.0], "2": [0.0, 0.1]}',
                 "--set", "N=4", "--set", "weight_kind=gevrey",
                 "--set", "weight_rho=0.5", "--set", "weight_theta=0.5")
        assert rc == EXIT_OK
        payload = read_json(out / "resonance.json")
        assert payload["worst_witness"]["threshold"] > 0.0


# ---------------------------------------------------------------------------
# normal form verification

def low_key(field, accept=lambda key: True):
    """The first key of a field within modes 1 and 2 that ``accept`` takes."""
    return next(k for k in field.terms if RationalVF({k: field.terms[k]}).max_mode() <= 2 and accept(k))


# mutants of the solvers' results, each of which breaks its identity

def s_coefficient_moved(s, m):
    return s + RationalVF({low_key(s): QC(0, Fraction(1, 10**6))}), m


def m_divisor_copy_dropped(s, m):
    key = low_key(m, lambda k: len(k[3]) == 2)
    c = m.terms[key]
    return s, m - RationalVF({key: c}) + RationalVF({key[:3] + (key[3][1:],) + key[4:]: c})


def m_negated(s, m):
    return s, m.scale(-1)


def echo_down_dropped(chi, z, echo_same, echo_down):
    return chi, z, echo_same, RationalVF()


class TestNfVerifyCommand:
    SMALL = ("--set", "quintic_N=5", "--set", "solver_N=3")

    def test_full_verification_with_goldens(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = run("nf-verify", "--out", str(out),
                 "--set", f"golden_dir={GOLDEN_DIR}", *self.SMALL)
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "FAIL" not in text
        payload = read_json(out / "verify.json")
        assert payload["pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "cubic homological identity" in names
        assert "quintic homological identity" in names
        assert "quintic cascade identity" in names
        assert "rotation solver identity" in names
        # freshly written coefficient tables agree with the stored ones to the byte
        for name in ("k3", "k5", "z5", "chi3", "s", "m"):
            assert filecmp.cmp(out / f"{name}.json", GOLDEN_DIR / f"{name}.json",
                               shallow=False)

    @pytest.mark.parametrize("n, built", [
        ("6", [(2, 6), (3, 3)]),  # quintic_N 5 <= N: the N-mode results are truncated
        ("4", [(2, 4), (2, 5), (3, 3)]),  # quintic_N 5 > N needs its own normal form
    ])
    def test_each_normal_form_is_built_once(self, tmp_path, monkeypatch, n, built):
        calls, solves = [], []
        normal_form, solve = cli.resonant_normal_form, cli.quintic_rational_solve

        def counting_normal_form(r, N):
            calls.append((r, N))
            return normal_form(r, N)

        def counting_solve(k5, N):
            solves.append(N)
            return solve(k5, N)

        monkeypatch.setattr(cli, "resonant_normal_form", counting_normal_form)
        monkeypatch.setattr(cli, "quintic_rational_solve", counting_solve)
        assert run("nf-verify", "--out", str(tmp_path / "v"), "--set", f"N={n}", *self.SMALL) == EXIT_OK
        assert calls == built
        assert solves == [int(n)] + ([5] if int(n) < 5 else [])

    @pytest.mark.parametrize("solver, mutant, check", [
        ("quintic_rational_solve", s_coefficient_moved, "quintic cascade identity"),
        ("quintic_rational_solve", m_divisor_copy_dropped, "quintic cascade identity"),
        ("quintic_rational_solve", m_negated, "quintic cascade identity"),
        ("solve_homological_z3z5", echo_down_dropped, "rotation solver identity"),
    ], ids=["s-coefficient", "m-divisor-copy", "minus-m", "no-echo-down"])
    def test_exact_check_catches_mutant(self, tmp_path, capsys, monkeypatch, solver, mutant, check):
        solve = getattr(cli, solver)
        monkeypatch.setattr(cli, solver, lambda *args: mutant(*solve(*args)))
        out = tmp_path / "v"
        assert run("nf-verify", "--out", str(out), *self.SMALL) == EXIT_VERIFY
        assert f"FAIL  {check}  (exact: nonzero at a point mod p)" in capsys.readouterr().out
        assert [c["name"] for c in read_json(out / "verify.json")["checks"] if not c["pass"]] == [check]

    def test_point_where_a_divisor_vanishes_is_skipped(self, tmp_path, capsys, monkeypatch):
        evaluate, points = cli.evaluate_mod_p, []

        def vanishing_first(field, z, zbar, N):
            points.append(z)
            if len(points) == 1:
                raise ZeroDivisionError("a divisor vanishes mod PRIME at this point")
            return evaluate(field, z, zbar, N)

        monkeypatch.setattr(cli, "evaluate_mod_p", vanishing_first)
        assert run("nf-verify", "--out", str(tmp_path / "v"), *self.SMALL) == EXIT_OK
        assert "PASS  quintic cascade identity  (exact: zero at 2 points mod p)" in capsys.readouterr().out
        assert len(points) == 5 and len({tuple(z.values()) for z in points}) == 5

    def test_divisor_vanishing_at_every_draw_fails(self, tmp_path, capsys, monkeypatch):
        def vanishing(field, z, zbar, N):
            raise ZeroDivisionError("a divisor vanishes mod PRIME at this point")

        monkeypatch.setattr(cli, "evaluate_mod_p", vanishing)
        assert run("nf-verify", "--out", str(tmp_path / "v"), *self.SMALL) == EXIT_VERIFY
        text = capsys.readouterr().out
        for check in ("quintic cascade identity", "rotation solver identity"):
            assert f"FAIL  {check}  (exact: a divisor vanished mod p at 8 of 8 points)" in text

    def test_missing_golden_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run("nf-verify", "--out", str(tmp_path / "v"),
                 "--set", f"golden_dir={empty}", "--set", "N=4", *self.SMALL)
        assert rc == EXIT_VERIFY
        assert "FAIL  golden table k3" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [b"{not json", b"\x80{}"])
    def test_unreadable_golden_table_fails(self, tmp_path, capsys, content):
        golden = tmp_path / "golden"
        golden.mkdir()
        for name in ("k3", "k5", "z5", "chi3", "s", "m"):
            (golden / f"{name}.json").write_bytes((GOLDEN_DIR / f"{name}.json").read_bytes())
        (golden / "k3.json").write_bytes(content)
        out = tmp_path / "v"
        rc = run("nf-verify", "--out", str(out), "--set", f"golden_dir={golden}", *self.SMALL)
        assert rc == EXIT_VERIFY
        assert "FAIL  golden table k3  (unreadable" in capsys.readouterr().out
        payload = read_json(out / "verify.json")
        assert payload["pass"] is False
        failed = [c["name"] for c in payload["checks"] if not c["pass"]]
        assert failed == ["golden table k3"]

    def test_single_mode_quintic_rejected_before_algebra(self, tmp_path, capsys, monkeypatch):
        # at one mode k5 is the zero field and the cascade check would pass vacuously
        def no_algebra(*args):
            raise AssertionError("the normal form ran before the settings were checked")

        monkeypatch.setattr(cli, "resonant_normal_form", no_algebra)
        out = tmp_path / "v"
        assert run("nf-verify", "--out", str(out), "--set", "quintic_N=1") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "quintic_N" in err
        assert not out.exists()

    def test_single_mode_solver_rejected_before_algebra(self, tmp_path, capsys, monkeypatch):
        # at one mode the septic input is integrable: the generator and both
        # echoes are empty, so the rotation solver identity would pass vacuously
        def no_algebra(*args):
            raise AssertionError("the normal form ran before the settings were checked")

        monkeypatch.setattr(cli, "resonant_normal_form", no_algebra)
        out = tmp_path / "v"
        assert run("nf-verify", "--out", str(out), "--set", "solver_N=1") == EXIT_CONFIG
        assert "config error: solver_N: expected an integer >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# coordinate roundtrip

class TestRoundtripCommand:
    def test_chain_inverts(self, tmp_path, capsys):
        out = tmp_path / "rt"
        rc = run("roundtrip", "--out", str(out), "--set", "samples=200")
        assert rc == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        payload = read_json(out / "roundtrip.json")
        assert payload["pass"] is True
        assert payload["max_roundtrip_error"] <= 1e-12
        assert payload["max_dilation_identity_error"] <= 1e-12

    def test_unreachable_tolerance_fails(self, tmp_path, capsys):
        rc = run("roundtrip", "--out", str(tmp_path / "rt"), "--set", "samples=50",
                 "--set", "tol=1e-30")
        assert rc == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_overflowing_scale_is_config_error(self, tmp_path, capsys):
        # the sampled elastic energy overflows, so the mixing of the
        # coordinate change rounds to singular
        out = tmp_path / "rt"
        rc = run("roundtrip", "--out", str(out), "--set", "scale=1e200", "--set", "samples=2")
        assert rc == EXIT_CONFIG
        assert "config error: scale=1e+200" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# entry point surface

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stringnf" in capsys.readouterr().out
