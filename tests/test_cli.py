"""Command-line interface: output contracts, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wsabsorb import cli, log10_coefficients, spectral
from wsabsorb.cli import main
from wsabsorb.spectral import SpectralFamily, critical_points
from wsabsorb.specfun import TAU_INT
from wsabsorb.units import PotentialSpec, Variant

SCAN_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "rows"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["energy_internal", "log10_Rl", "log10_Rr",
                             "log10_T", "log10_absdetS", "flags"],
                "properties": {
                    "energy_internal": {"type": "number"},
                    "log10_Rl": {"type": ["number", "string"]},
                    "log10_Rr": {"type": ["number", "string"]},
                    "log10_T": {"type": ["number", "string"]},
                    "log10_absdetS": {"type": ["number", "string"]},
                    "flags": {"type": "string"},
                },
            },
        },
    },
}


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text()


def _usage_error(capsys, argv):
    """The stderr of a main() call that argparse ends with exit code 1."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    return capsys.readouterr().err


class TestScan:
    def test_row_count_and_grid_contract(self, tmp_path):
        code, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8",
                         "--emin", "0.5", "--emax", "1.5", "--points", "11")
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 12  # header + rows
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.5
        assert float(last[0]) == 1.5

    def test_two_point_scan_returns_endpoints(self, tmp_path):
        code, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8",
                         "--emin", "0.3", "--emax", "0.9", "--points", "2")
        assert code == 0
        rows = text.strip().split("\n")[1:]
        assert len(rows) == 2
        assert [float(r.split(",")[0]) for r in rows] == [0.3, 0.9]

    def test_forward_dips_at_absorption_points(self, tmp_path):
        # spacing 0.0025 puts all three vanishing energies on the grid
        code, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8",
                         "--emin", "0.05", "--emax", "6.0", "--points", "2381")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        for target in (0.6225, 2.04, 3.8625):
            near = [r for r in rows if abs(float(r[0]) - target) < 0.01]
            assert any(float(r[2]) < -8.0 for r in near)  # log10 R_l
            assert any(float(r[4]) < -8.0 for r in near)  # log10 T

    def test_exact_critical_rows_get_tokens_and_flags(self, tmp_path):
        code, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8",
                         "--variant", "time-reversed",
                         "--emin", "0.6225", "--emax", "2.04", "--points", "2")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        for row in rows:
            assert row[2] == "inf"  # R'_l diverges at both singular energies
            assert "SS" in row[6]

    def test_flags_at_critical_rows(self, tmp_path):
        # v0 = 2, rho = 2: E = 0.25 carries 2 a2 = 1 and 2 a3 = 3 at once, so
        # the a2 + a3 = 2 point there is excluded; M = 4, 5 land on 3.0625, 5.29
        args = ("scan", "--v0", "2", "--rho", "2", "--emin", "0.05",
                "--emax", "8", "--points", "3181")
        expected = {
            "forward": {
                "0.25": "CC_L|CC_R|CPA|DEGENERATE", "1": "CC_R|CPA",
                "2": "CC_L|CPA", "2.25": "CC_R|CPA", "3.0625": "SS",
                "4": "CC_R|CPA", "4.25": "CC_L|CPA", "5.29": "SS",
                "6.25": "CC_R|CPA", "7": "CC_L|CPA",
            },
            "time-reversed": {
                "0.25": "DEGENERATE|SS", "1": "SS", "2": "SS", "2.25": "SS",
                "3.0625": "CPA", "4": "SS", "4.25": "SS", "5.29": "CPA",
                "6.25": "SS", "7": "SS",
            },
        }
        for variant, flags in expected.items():
            code, text = run(tmp_path, *args, "--variant", variant)
            assert code == 0
            rows = [line.split(",") for line in text.strip().split("\n")[1:]]
            assert {r[0]: r[6] for r in rows if r[6]} == flags

    def test_determinism(self, tmp_path):
        args = ("scan", "--v0", "2", "--rho", "2", "--emin", "0.4",
                "--emax", "3.1", "--points", "37")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second

    def test_json_schema(self, tmp_path):
        code, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8",
                         "--emin", "0.5", "--emax", "1.5", "--points", "5",
                         "--format", "json")
        assert code == 0
        doc = json.loads(text)
        jsonschema.validate(doc, SCAN_SCHEMA)
        assert len(doc["rows"]) == 5

    def test_window_validation_error(self, tmp_path):
        code = main(["scan", "--v0", "1.2", "--rho", "1.8",
                     "--emin", "2.0", "--emax", "1.0"])
        assert code == 1

    def test_missing_spec_error(self, tmp_path):
        code = main(["scan", "--emin", "0.5", "--emax", "1.5"])
        assert code == 1


class TestSpectrum:
    def test_families_table(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--v0", "2", "--rho", "2",
                         "--families", "cpa-time-reversed", "--max-count", "3")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert [int(r[1]) for r in rows] == [3, 4, 5]
        assert float(rows[0][3]) == pytest.approx(37.0377, abs=1e-3)

    def test_empty_family_set(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--v0", "2", "--rho", "2",
                         "--families", "none")
        assert code == 0
        assert text.strip().split("\n") == [
            "family,index,energy_internal,energy_ev,degenerate"
        ]

    def test_rprime_zeros_honour_max_count(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--v0", "50", "--rho", "1",
                         "--families", "rprime-zeros", "--max-count", "2")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert [(r[0], int(r[1])) for r in rows] == [
            ("rprime_left_zero", 1), ("rprime_left_zero", 2)]

    def test_negative_max_count_rejected(self, tmp_path):
        assert main(["spectrum", "--v0", "2", "--rho", "2", "--max-count", "-3"]) == 1
        config = tmp_path / "neg.cfg"
        config.write_text("v0 = 2\nrho = 2\nmax_count = -1\n")
        assert main(["spectrum", "--config", str(config)]) == 1

    def test_degenerate_column(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--v0", "2", "--rho", "2",
                         "--families", "rprime-zeros")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert rows[0][4] == "true"


class TestRanges:
    def test_narrow_absorption_range(self, tmp_path):
        code, text = run(tmp_path, "ranges", "--v0", "1", "--rho", "0.0006",
                         "--criterion", "cc-left", "--emin", "3.0010",
                         "--emax", "3.0030", "--threshold", "1e-6",
                         "--grid", "256")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert rows
        hits = [r for r in rows
                if float(r[3]) < 81.6954 and float(r[4]) > 81.6791]
        assert hits

    def test_unattainable_threshold_gives_empty_table(self, tmp_path):
        code, text = run(tmp_path, "ranges", "--v0", "1.2", "--rho", "1.8",
                         "--criterion", "cc-left", "--emin", "0.3",
                         "--emax", "4.2", "--threshold", "1e-300",
                         "--grid", "128")
        assert code == 0
        assert len(text.strip().split("\n")) == 1  # header only


class TestTable1AndVerify:
    def test_table1_passes(self, tmp_path):
        code, text = run(tmp_path, "table1", "--grid", "512")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert all(r[-1] == "PASS" for r in rows)
        assert len(rows) == 16

    def test_table1_rejects_small_grid(self, tmp_path):
        assert main(["table1", "--grid", "0"]) == 1

    def test_verify_passes_and_is_seed_stable(self, tmp_path):
        code, text = run(tmp_path, "verify")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert all(r[-1] == "PASS" for r in rows)
        code2, text2 = run(tmp_path, "verify", "--seed", "7")
        assert code2 == 0

    def test_verify_exits_2_on_a_failing_suite(self, tmp_path, monkeypatch):
        # stand-ins as in test_verify_rows_follow_the_suite_table, the first
        # one twice over its tolerance
        stand_ins = [(name, lambda rng, tol=tol: rng.uniform() * tol, tol) for name, _, tol in cli.SUITES]
        name, _, tol = stand_ins[0]
        stand_ins[0] = (name, lambda rng: 2.0 * tol, tol)
        monkeypatch.setattr(cli, "SUITES", tuple(stand_ins))
        code, text = run(tmp_path, "verify")
        assert code == 2
        status = [line.split(",")[-1] for line in text.strip().split("\n")[1:]]
        assert status == ["FAIL"] + ["PASS"] * (len(stand_ins) - 1)

    def test_table1_exits_2_on_a_moved_point(self, tmp_path, monkeypatch):
        # no range rows, so no scan runs
        row, label, v0, rho, family, index, ref = cli._TABLE1_POINTS[0]
        moved = ((row, label, v0, rho, family, index, 1.1 * ref), *cli._TABLE1_POINTS[1:])
        monkeypatch.setattr(cli, "_TABLE1_POINTS", moved)
        monkeypatch.setattr(cli, "_table1_ranges", lambda: [])
        code, text = run(tmp_path, "table1")
        assert code == 2
        status = [line.split(",")[-1] for line in text.strip().split("\n")[1:]]
        assert status == ["FAIL"] + ["PASS"] * (len(moved) - 1)

    def test_table1_exits_2_on_a_moved_range(self, tmp_path, monkeypatch):
        # cc_range_narrow alone, its published interval moved 1 eV up, past its
        # window (81.60..81.75 eV), so no range found can overlap it
        (label, spec, criterion, window, threshold, plo, phi, unit), *_ = cli._table1_ranges()
        moved = (label, spec, criterion, window, threshold, plo + 1.0, phi + 1.0, unit)
        monkeypatch.setattr(cli, "_TABLE1_POINTS", ())
        monkeypatch.setattr(cli, "_table1_ranges", lambda: [moved])
        code, text = run(tmp_path, "table1", "--grid", "128")
        assert code == 2
        assert [line.split(",")[-2:] for line in text.strip().split("\n")[1:]] == [["disjoint", "FAIL"]]


class TestPotential:
    def test_profile_columns(self, tmp_path):
        code, text = run(tmp_path, "potential", "--v0", "1.2", "--rho", "1.8",
                         "--x", "2", "--zmin", "-8", "--zmax", "8",
                         "--points", "5")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "zeta,re_V_x2,im_V_x2"
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == pytest.approx(-1.2, abs=1e-4)
        assert float(rows[-1][1]) == pytest.approx(0.0, abs=1e-4)
        assert abs(float(rows[0][2])) < 1e-4 and abs(float(rows[-1][2])) < 1e-4

    def test_midpoint_value(self, tmp_path):
        code, text = run(tmp_path, "potential", "--v0", "1.2", "--rho", "1.8",
                         "--x", "0", "--zmin", "-1", "--zmax", "1",
                         "--points", "3")
        assert code == 0
        middle = text.strip().split("\n")[2].split(",")
        assert float(middle[0]) == 0.0
        assert float(middle[1]) == pytest.approx(-0.6)
        assert float(middle[2]) == pytest.approx(0.0, abs=1e-12)


class TestConfig:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("v0 = 1.2\nrho = 1.8\npoints = 3  # comment\n")
        code, text = run(tmp_path, "scan", "--config", str(cfg),
                         "--emin", "0.5", "--emax", "1.5")
        assert code == 0
        assert len(text.strip().split("\n")) == 4
        code, text = run(tmp_path, "scan", "--config", str(cfg),
                         "--emin", "0.5", "--emax", "1.5", "--points", "2")
        assert len(text.strip().split("\n")) == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("velocity = 3\nconfig = other.cfg\n")
        code = main(["scan", "--config", str(cfg), "--emin", "1", "--emax", "2"])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['config', 'velocity']\n"

    def test_config_format_applies(self, tmp_path, capsys):
        cfg = tmp_path / "json.cfg"
        cfg.write_text("v0 = 1.2\nrho = 1.8\nformat = json\n")
        code, text = run(tmp_path, "scan", "--config", str(cfg),
                         "--emin", "0.5", "--emax", "1.5", "--points", "3")
        assert code == 0
        assert len(json.loads(text)["rows"]) == 3
        code, text = run(tmp_path, "scan", "--config", str(cfg), "--format", "csv",
                         "--emin", "0.5", "--emax", "1.5", "--points", "3")
        assert text.startswith("energy_internal,")
        cfg.write_text("v0 = 1.2\nrho = 1.8\nformat = xml\n")
        window = ["--emin", "0.5", "--emax", "1.5"]
        assert _usage_error(capsys, ["scan", "--config", str(cfg), *window]) == _usage_error(
            capsys, ["scan", "--v0", "1.2", "--rho", "1.8", "--format", "xml", *window])


# -- flags and config lines are one path ------------------------------------------


# per command, two values of every option it takes but --config: the config
# gives the first, and a flag after it gives the second.  The --out paths are
# relative to the test's own directory
_OUT = {"out": ("first.out", "second.out")}
_KEY_VALUES = {
    "scan": {"v0": ("1.2", "2"), "rho": ("1.8", "2"), "mass": ("1.5", "1"),
             "variant": ("time-reversed", "forward"), "emin": ("0.5", "0.3"),
             "emax": ("2.5", "2"), "points": ("9", "4"), "units": ("mev", "internal"),
             "format": ("json", "csv"), **_OUT},
    "spectrum": {"v0": ("2", "1.2"), "rho": ("2", "1.8"), "mass": ("1.5", "1"),
                 "families": ("cc-left,ss-right", "rprime-zeros"), "max_count": ("3", "2"),
                 "units": ("internal", "mev"), "format": ("json", "csv"), **_OUT},
    "ranges": {"v0": ("15", "14"), "rho": ("0.001", "0.0012"), "mass": ("1", "1.1"),
               "emin": ("14.9990", "14.9995"), "emax": ("15.0035", "15.003"),
               "criterion": ("cc-left", "cpa"), "threshold": ("1e-6", "1e-5"),
               "grid": ("128", "256"), "units": ("mev", "internal"), "format": ("json", "csv"),
               **_OUT},
    "table1": {"grid": ("128", "100"), "format": ("json", "csv"), **_OUT},
    "verify": {"seed": ("7", "8"), "format": ("json", "csv"), **_OUT},
    "potential": {"v0": ("1.2", "2"), "rho": ("1.8", "2"),
                  "variant": ("time-reversed", "forward"), "x": ("2", "-1.5"),
                  "zmin": ("-3", "-2"), "zmax": ("3", "2"), "points": ("5", "3"),
                  "format": ("json", "csv"), **_OUT},
}
# an option that a repeated flag adds to, not replaces
_REPEATABLE = {"x"}


def _outcome(capsys, argv):
    """(exit code, stdout, stderr, the --out files by name and text) of one
    main() call in the working directory, whose files it removes."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    written = {path.name: path.read_text() for path in sorted(pathlib.Path().glob("*.out"))}
    for name in written:
        pathlib.Path(name).unlink()
    return (code, *capsys.readouterr(), written)


def _flags(values):
    return [token for key, value in values.items()
            for token in (f"--{key.replace('_', '-')}", value)]


@pytest.fixture
def stand_in_suites(monkeypatch):
    # verify's parsing is under test here; tests/test_invariants.py runs the real suites
    monkeypatch.setattr(cli, "SUITES", tuple((name, lambda rng: 0.0, tol)
                                              for name, _, tol in cli.SUITES))


@pytest.mark.parametrize("command", _KEY_VALUES)
def test_config_equals_flags(tmp_path, monkeypatch, capsys, stand_in_suites, command):
    monkeypatch.chdir(tmp_path)
    values = _KEY_VALUES[command]
    taken = vars(cli.build_parser().parse_args([command])).keys() - {"command", "func", "config"}
    assert set(values) == taken
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{key} = {first}\n" for key, (first, _) in values.items()))
    firsts = {key: first for key, (first, _) in values.items()}
    from_flags = _outcome(capsys, [command, *_flags(firsts)])
    assert from_flags[0] == 0 and from_flags[3]["first.out"]
    assert _outcome(capsys, [command, "--config", str(config)]) == from_flags
    for key, (_, second) in values.items():
        overridden = _outcome(capsys, [command, "--config", str(config), *_flags({key: second})])
        # a flag wins over the config's line, and a repeated one adds to it
        want = [*_flags(firsts), *_flags({key: second})] if key in _REPEATABLE else (
            _flags({**firsts, key: second}))
        assert overridden == _outcome(capsys, [command, *want]), key
        assert overridden[0] == 0 and overridden != from_flags, key  # the value was read


@pytest.mark.parametrize("line, later", [("points = 2.5", "points = 3"),
                                         ("v0 = abc", "v0 = 1.2")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_config_value_refused_under_an_override(tmp_path, capsys, line, later,
                                                          source):
    # a later flag, or a later line of the same key, overrides the value
    key, value = (part.strip() for part in line.split("="))
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n" + (later + "\n" if source == "config" else ""))
    override = [f"--{key}", later.split("=")[1].strip()] if source == "flag" else []
    call = ["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.5", "--emax", "1.5"]
    # refused exactly as the flag with the config's value is
    assert (_usage_error(capsys, call + ["--config", str(config), *override])
            == _usage_error(capsys, call + [f"--{key}", value]))


class TestRangesThreshold:
    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_1(self, tmp_path, capsys, threshold):
        code = main(["ranges", "--v0", "1", "--rho", "0.0006", "--criterion", "cc-left",
                     "--emin", "3.0010", "--emax", "3.0030", "--grid", "128",
                     "--threshold", threshold, "--out", str(tmp_path / "out.txt")])
        assert code == 1
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", ["scan", "ranges"])
def test_infinite_window_exits_1(capsys, command):
    argv = [command, "--v0", "1", "--rho", "0.0006", "--emin", "1", "--emax", "inf"]
    if command == "ranges":
        argv += ["--criterion", "cc-left", "--grid", "128"]
    assert main(argv) == 1
    # both commands read the one window rule of wsabsorb.units, and no warning
    assert capsys.readouterr().err == "error: invalid window (1.0, inf): need finite 0 < emin < emax\n"


def _fresh_interpreter(probe: str) -> subprocess.CompletedProcess:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter: scipy.integrate is the oracle's, loaded on first use
    probe = ("import sys, wsabsorb.cli; "
             "print('scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)")
    assert _fresh_interpreter(probe).stdout.split() == ["False", "False"]


def test_cli_and_oracle_load_no_scipy_module():
    probe = (
        "import sys, wsabsorb.cli\n"
        "from wsabsorb.oracle import hermitian_oracle_amplitudes, oracle_amplitudes, "
        "oracle_g_factors\n"
        "from wsabsorb.units import PotentialSpec, Variant\n"
        "oracle_g_factors(PotentialSpec(1.2, 1.8, 1.0), 1.0)\n"
        "oracle_amplitudes(PotentialSpec(1.2, 1.8, 1.0, variant=Variant.TIME_REVERSED), 1.37)\n"
        "hermitian_oracle_amplitudes(1.0, 1.0, 1.0, 1.0)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert _fresh_interpreter(probe).stdout.strip() == "[]"


NO_SCIPY_RUNS = (
    "scan --v0 1.2 --rho 1.8 --emin 0.05 --emax 6 --points 2381",
    "ranges --v0 1 --rho 0.0006 --criterion cc-left --emin 3.0010 --emax 3.0030 --threshold 1e-6",
    "table1",
    "verify --seed 7",
)


def test_commands_run_with_scipy_refused():
    # a meta-path finder that refuses every scipy import, installed before wsabsorb loads
    probe = (
        "import contextlib, io, json, sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "from wsabsorb.cli import main\n"
        "runs = []\n"
        f"for argv in {list(NO_SCIPY_RUNS)!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv.split())\n"
        "    runs.append([code, buf.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    refused = json.loads(_fresh_interpreter(probe).stdout)
    for argv, (code, out) in zip(NO_SCIPY_RUNS, refused):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv.split()) == 0
        assert code == 0 and out == buf.getvalue(), argv


# -- input validation --------------------------------------------------------------


class TestPotentialInputs:
    @pytest.mark.parametrize("flag", ["--x", "--zmin", "--zmax"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_named(self, tmp_path, capsys, flag, value):
        argv = ["potential", "--v0", "1.2", "--rho", "1.8", "--points", "5",
                "--out", str(tmp_path / "out.txt"), f"{flag}={value}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err and "NaN" not in err
        assert not (tmp_path / "out.txt").exists()


def test_empty_families_rejected(tmp_path, capsys):
    argv = ["spectrum", "--v0", "2", "--rho", "2", "--families", "",
            "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    assert "family" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_rejected(tmp_path, capsys, source):
    argv = ["verify", "--out", str(tmp_path / "out.txt")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        config = tmp_path / "seed.cfg"
        config.write_text("seed = -1\n")
        argv += ["--config", str(config)]
    assert main(argv) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [["table1"], ["verify"], ["potential", "--v0", "1.2", "--rho", "1.8"]],
                         ids=["table1", "verify", "potential"])
def test_units_rejected_where_no_energy_is_shown(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--units", "mev", "--out", str(out)])
    assert stop.value.code == 1
    assert "unrecognized arguments: --units mev" in capsys.readouterr().err
    assert not out.exists()


# -- one parser per process --------------------------------------------------------


def test_main_builds_at_most_one_parser(tmp_path, monkeypatch):
    built = []
    original = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._shared_parser.cache_clear()  # so the first call below builds it
    for points in ("2", "3", "4"):
        code, _ = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8",
                      "--emin", "0.5", "--emax", "1.5", "--points", points)
        assert code == 0
    assert len(built) == 7  # one parser and its six subcommand parsers
    built.clear()
    assert cli.build_parser() is not cli.build_parser()  # a fresh one per call
    assert len(built) == 14


def _fresh_processes(argvs, cwd):
    """(exit code, stdout, stderr) of ``python -m wsabsorb.cli`` per argv,
    each in its own interpreter, run side by side."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    procs = [subprocess.Popen([sys.executable, "-m", "wsabsorb.cli", *argv], env=env, cwd=cwd,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in argvs]
    outputs = [proc.communicate() for proc in procs]
    return [(proc.returncode, *output) for proc, output in zip(procs, outputs)]


def test_reused_parser_matches_fresh_process(tmp_path, capfdbinary):
    config = tmp_path / "spec.cfg"
    config.write_text("v0 = 2\nrho = 2\nmass = 1.5\nvariant = time-reversed\npoints = 7\n")
    out = tmp_path / "out.csv"
    scan = ["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.5", "--emax", "2.5",
            "--points", "9"]
    # the config call comes first, so nothing it sets may reach the later calls
    sequence = [
        ["scan", "--config", str(config), "--emin", "0.05", "--emax", "8"],
        scan + ["--format", "json"],
        scan + ["--units", "mev"],
        scan + ["--out", str(out)],
        ["scan", "--v0", "1.2", "--points", "many"],  # usage error, exit 1
        ["spectrum", "--v0", "2", "--rho", "2", "--max-count", "3"],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stdout, stderr = capfdbinary.readouterr()
        in_process.append((code, stdout, stderr, out.read_bytes() if out.exists() else b""))
        out.unlink(missing_ok=True)
    assert [entry[0] for entry in in_process] == [0, 0, 0, 0, 1, 0]
    fresh = _fresh_processes(sequence, tmp_path)  # only the --out run writes out.csv
    for argv, (code, stdout, stderr, written), expected in zip(sequence, in_process, fresh):
        assert (code, stdout, stderr) == expected, argv
    assert in_process[3][3] == out.read_bytes() and in_process[3][1] == b""


def test_concurrent_main_calls_match_sequential(tmp_path):
    variants = [
        ["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.05", "--emax", "6",
         "--points", "600"],
        ["scan", "--v0", "2", "--rho", "2", "--emin", "0.05", "--emax", "8",
         "--points", "900", "--variant", "time-reversed", "--format", "json"],
        ["spectrum", "--v0", "2", "--rho", "2", "--units", "mev"],
        ["potential", "--v0", "1.2", "--rho", "1.8", "--x", "2", "--points", "400"],
    ]
    sequential = []
    for i, argv in enumerate(variants):
        path = tmp_path / f"seq{i}.txt"
        assert main(argv + ["--out", str(path)]) == 0
        sequential.append(path.read_bytes())

    start = threading.Barrier(len(variants))
    codes = [None] * len(variants)

    def call(i):
        start.wait()
        codes[i] = main(variants[i] + ["--out", str(tmp_path / f"par{i}.txt")])

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(variants))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-parse included
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0] * len(variants)
    assert [(tmp_path / f"par{i}.txt").read_bytes()
            for i in range(len(variants))] == sequential


# -- scan rows built from arrays -----------------------------------------------------


# the (family, flag) pairs of the scan, one family per flag: CC_LEFT and
# CPA_FORWARD_A3 name one table row, which the scan reads once
_PER_FAMILY_FLAGS = {
    Variant.FORWARD: ((SpectralFamily.CC_LEFT, "CC_L"), (SpectralFamily.CPA_FORWARD_A3, "CPA"),
                      (SpectralFamily.CC_RIGHT, "CC_R"), (SpectralFamily.CPA_FORWARD_A2, "CPA"),
                      (SpectralFamily.CPA_TIME_REVERSED, "SS")),
    Variant.TIME_REVERSED: ((SpectralFamily.SS_LEFT, "SS"), (SpectralFamily.SS_RIGHT, "SS"),
                            (SpectralFamily.CPA_TIME_REVERSED, "CPA")),
}


def _enumerated_annotations(spec, emin, emax):
    """(flag, energy, |du/dE|, N, degenerate) of every enumerated point of
    the window, u = N being its row's condition, with da2/dE = m / (rho k1)
    and da3/dE = m / (rho k2)."""
    return [(flag, p.energy, _du_de(spec, family, p.energy), p.index + spectral._TABLE[family].offset,
             p.degenerate)
            for family, flag in _PER_FAMILY_FLAGS[spec.variant]
            for p in critical_points(spec, family, window=(emin, emax))]


def _du_de(spec, family, energy):
    row = spectral._TABLE[family]
    k1 = math.sqrt(spec.mass * energy)
    k2 = math.sqrt(spec.mass * (energy + spec.v0))
    return abs(row.c2 / k1 + row.c3 / k2) * spec.mass / spec.rho


def _flag_tolerance(spec, family, energy):
    """The energy over which the point's condition moves by TAU_INT."""
    return TAU_INT / _du_de(spec, family, energy)


def _per_row_flags(energy, annotations):
    """The enumeration route's flags of one row, as (required, allowed).

    A point's flag is required where its condition holds at the row's energy
    by more than rounding, |u - N| <= TAU_INT - band, with |u - N| taken as
    |du/dE| |E - E_N|, and allowed up to TAU_INT + band.  The band, 8 eps
    max(N, 1), covers the rounding of the float u that ``snap`` reads and of
    the enumerated E_N: a row inside it may go either way."""
    required, allowed = set(), set()
    for flag, at, du_de, n, degenerate in annotations:
        distance, band = du_de * abs(energy - at), 8 * np.finfo(float).eps * max(n, 1)
        names = {flag, "DEGENERATE"} if degenerate else {flag}
        if distance <= TAU_INT - band:
            required |= names
        if distance <= TAU_INT + band:
            allowed |= names
    return required, allowed


def _rows_off_the_rule(grid, column, annotations):
    """(index, energy, flags) of every row whose flags are not between the
    required and the allowed ones."""
    wrong = []
    for i, (energy, flags) in enumerate(zip(grid.tolist(), column)):
        required, allowed = _per_row_flags(energy, annotations)
        if not required <= set(flags.split("|")) - {""} <= allowed:
            wrong.append((i, energy, flags))
    return wrong


def _scan_flags_column(tmp_path, spec, emin, emax, points):
    code, text = run(tmp_path, "scan", "--v0", repr(spec.v0), "--rho", repr(spec.rho),
                     "--mass", repr(spec.mass), "--variant", spec.variant.value,
                     "--emin", repr(emin), "--emax", repr(emax), "--points", str(points))
    assert code == 0
    return [line.rsplit(",", 1)[1] for line in text.split("\n")[1:-1]]


def _assert_flags_follow_per_row_rule(tmp_path, spec, emin, emax, points):
    grid = np.linspace(emin, emax, points)
    try:
        log10_coefficients(spec, grid)
    except ArithmeticError:
        # the kernel's det-S cross-check raises here (ROADMAP item 1), so
        # the scan has no rows to flag and must end in an error line
        out, err = tmp_path / "raised.txt", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["scan", "--v0", repr(spec.v0), "--rho", repr(spec.rho),
                         "--mass", repr(spec.mass), "--variant", spec.variant.value,
                         "--emin", repr(emin), "--emax", repr(emax),
                         "--points", str(points), "--out", str(out)])
        assert code == 1
        assert err.getvalue().startswith("error: det S")
        assert not out.exists()
        return
    annotations = _enumerated_annotations(spec, emin, emax)
    column = _scan_flags_column(tmp_path, spec, emin, emax, points)
    assert len(column) == points
    assert _rows_off_the_rule(grid, column, annotations) == []


def _landing_window(spec, family, lo, hi):
    """Window ends moved onto the first and last enumerated energies of
    ``family`` in [lo, hi], where it has two."""
    critical = [p.energy for p in critical_points(spec, family, window=(lo, hi))
                if p.energy > 0.0]
    return (critical[0], critical[-1]) if len(critical) >= 2 else (lo, hi)


@given(
    v0=st.floats(0.3, 8.0),
    rho=st.floats(0.3, 3.0),
    mass=st.floats(0.5, 2.0),
    variant=st.sampled_from(list(Variant)),
    family=st.sampled_from([SpectralFamily.CC_LEFT, SpectralFamily.CC_RIGHT,
                            SpectralFamily.SS_LEFT, SpectralFamily.SS_RIGHT,
                            SpectralFamily.CPA_TIME_REVERSED]),
    lo=st.floats(0.05, 10.0),
    span=st.floats(0.01, 3.0),
    points=st.integers(2, 400),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scan_flags_equal_per_row_rule(tmp_path, v0, rho, mass, variant, family, lo,
                                        span, points):
    spec = PotentialSpec(v0=v0, rho=rho, mass=mass, variant=variant)
    emin, emax = _landing_window(spec, family, lo, lo * (1.0 + span))
    _assert_flags_follow_per_row_rule(tmp_path, spec, emin, emax, points)


@given(
    low=st.integers(1, 12),
    gap=st.integers(1, 12),
    rho=st.floats(0.3, 3.0),
    mass=st.floats(0.5, 2.0),
    variant=st.sampled_from(list(Variant)),
    half_width=st.floats(1e-6, 0.2),
    points=st.integers(2, 301),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# row 153 of 301, E = 0.06250000124999999, has u - N = +1.000e-9 in floats,
# which snap leaves unflagged, while |du/dE| |E - E_N| reads 0.99999999392e-9
@example(low=1, gap=9, rho=1.0, mass=1.0, variant=Variant.FORWARD, half_width=1e-06,
         points=300)
def test_scan_flags_at_degenerate_points(tmp_path, low, gap, rho, mass, variant,
                                          half_width, points):
    # 2 a2 = low and 2 a3 = low + gap at one energy: a degenerate point,
    # centred in an odd-point window so a grid row lands on it
    scale = rho ** 2 / (16.0 * mass)
    spec = PotentialSpec(v0=scale * ((low + gap) ** 2 - low ** 2), rho=rho, mass=mass,
                         variant=variant)
    energy = scale * low ** 2
    emin, emax = energy * (1.0 - half_width), energy * (1.0 + half_width)
    points += 1 - points % 2
    _assert_flags_follow_per_row_rule(tmp_path, spec, emin, emax, points)


def test_degenerate_strategy_reaches_degenerate_rows(tmp_path):
    spec = PotentialSpec(v0=2.0, rho=2.0, mass=1.0)
    flags = _scan_flags_column(tmp_path, spec, 0.25 * (1 - 1e-3), 0.25 * (1 + 1e-3), 3)
    assert flags[1] == "CC_L|CC_R|CPA|DEGENERATE"


README_SCAN = ["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.05", "--emax", "6",
               "--points", "2381"]


def test_scan_does_not_enumerate_its_window(tmp_path, monkeypatch):
    # the README window spans more than 6 indices of CC_RIGHT (2 a2 from
    # 0.50 to 5.44), which a window enumeration refuses under that cap
    want = run(tmp_path, *README_SCAN)
    monkeypatch.setattr("wsabsorb.spectral._MAX_WINDOW_INDICES", 6)
    assert run(tmp_path, *README_SCAN) == want
    with pytest.raises(ValueError, match="more than 6"):
        critical_points(PotentialSpec(1.2, 1.8), SpectralFamily.CC_RIGHT, window=(0.05, 6.0))


# the flag each family's points carry, per variant
_LANDING_FLAGS = {
    Variant.FORWARD: {SpectralFamily.CC_LEFT: "CC_L", SpectralFamily.CC_RIGHT: "CC_R",
                      SpectralFamily.CPA_TIME_REVERSED: "SS"},
    Variant.TIME_REVERSED: {SpectralFamily.CC_LEFT: "SS", SpectralFamily.CC_RIGHT: "SS",
                            SpectralFamily.CPA_TIME_REVERSED: "CPA"},
}


@pytest.mark.parametrize("n", [10**4, 10**6, 2 * 10**6])
@pytest.mark.parametrize("family", list(_LANDING_FLAGS[Variant.FORWARD]))
@pytest.mark.parametrize("variant", list(Variant))
def test_landing_rows_flagged_far_up_the_spectrum(tmp_path, variant, family, n):
    # the N-th and (N+1)-th energies as the two rows of a scan at the paper's
    # narrow rho; near N = 2e6 the rounding of u, eps * u, is within a
    # factor of about 2 of TAU_INT
    spec = PotentialSpec(v0=1.0, rho=0.0006, variant=variant)
    energy = spectral._TABLE[family].energy
    grid = np.array([energy(spec, n), energy(spec, n + 1)])
    if family is SpectralFamily.CPA_TIME_REVERSED:
        # the kernel's det-S check refuses some of these energies at this rho
        # (ROADMAP item 11), so these are the flags the scan's rows would take
        flags = cli._scan_flags(spec, grid)
    else:
        flags = _scan_flags_column(tmp_path, spec, *grid.tolist(), 2)
    assert all(_LANDING_FLAGS[variant][family] in row.split("|") for row in flags)


def test_scan_row_at_2a2_equal_1_is_cc_right_alone(tmp_path):
    # 2 a2 = 1 at E = 0.2025: det S = G2/G3 vanishes there by the closed form,
    # but CPA_FORWARD_A2 starts at 2 a2 = 2, so the row flags CC_R alone and
    # cpa-forward lists no point there
    code, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.2024",
                     "--emax", "0.2026", "--points", "3", "--units", "internal")
    assert code == 0
    row = text.splitlines()[2].split(",")
    assert (float(row[0]), row[5], row[6]) == (0.2025, "-inf", "CC_R")
    code, text = run(tmp_path, "spectrum", "--v0", "1.2", "--rho", "1.8", "--families",
                     "cpa-forward", "--max-count", "3", "--units", "internal")
    assert code == 0
    energies = [float(line.split(",")[2]) for line in text.splitlines()[1:]]
    assert len(energies) == 6 and 0.2025 not in energies and min(energies) > 0.2025


def _flag_cases():
    """(id, spec, ascending grid) cases for the flags of chosen grids."""
    spec = PotentialSpec(1.2, 1.8)
    degenerate = PotentialSpec(2.0, 2.0, 1.0)
    narrow = PotentialSpec(1.0, 0.0006)

    def at(spec, family, count):
        energy = critical_points(spec, family, count=count)[-1].energy
        return energy, _flag_tolerance(spec, family, energy)

    right, right_tol = at(spec, SpectralFamily.CC_RIGHT, 3)
    next_right, next_tol = at(spec, SpectralFamily.CC_RIGHT, 4)
    left, left_tol = at(spec, SpectralFamily.CC_LEFT, 3)
    steps = (-2.0, -1.001, -0.999, -0.5, 0.0, 0.5, 0.999, 1.001, 2.0)
    far = [p.energy for p in critical_points(narrow, SpectralFamily.CC_RIGHT, count=10**5 + 3)[-4:]]
    return [
        ("tolerance-over-many-steps", spec,
         np.linspace(right - 3.0 * right_tol, right + 3.0 * right_tol, 101)),
        ("rows-inside-and-outside-the-tolerance", spec,
         np.array([left + k * left_tol for k in steps])),
        ("repeated-grid-values", spec, np.linspace(right, math.nextafter(right, math.inf), 5)),
        # points just beyond both ends, each within its tolerance of the end row
        ("beyond-the-grid-ends", spec,
         np.linspace(right + 0.5 * right_tol, next_right - 0.5 * next_tol, 11)),
        ("no-points-near-the-rows", spec, np.linspace(1.0, 2.0, 7)),
        # 2 a2 = 1 at E = 0.2025, the first CC_RIGHT point but below CPA_FORWARD_A2's
        ("two-point-grid", spec,
         np.array([0.2025, at(spec, SpectralFamily.CPA_TIME_REVERSED, 8)[0]])),
        ("degenerate-row", degenerate, np.linspace(0.25 * (1 - 1e-3), 0.25 * (1 + 1e-3), 3)),
        ("time-reversed-degenerate-row", replace(degenerate, variant=Variant.TIME_REVERSED),
         np.linspace(0.25 * (1 - 1e-3), 0.25 * (1 + 1e-3), 3)),
        ("far-up-the-spectrum", narrow, np.array(far)),
    ]


@pytest.mark.parametrize("spec, grid",
                         [pytest.param(spec, grid, id=name) for name, spec, grid in _flag_cases()])
def test_scan_flags_equal_brute_force_rule(spec, grid):
    # the window's enumeration holds a point at or beyond each end, which
    # flags the end row within its tolerance
    annotations = _enumerated_annotations(spec, grid[0], grid[-1])
    column = cli._scan_flags(spec, grid)
    assert len(column) == len(grid)
    assert _rows_off_the_rule(grid, column, annotations) == []


def test_flag_cases_reach_what_they_name():
    cases = {name: (spec, grid, cli._scan_flags(spec, grid)) for name, spec, grid in _flag_cases()}
    assert sum(map(bool, cases["tolerance-over-many-steps"][2])) > 30
    assert [bool(f) for f in cases["rows-inside-and-outside-the-tolerance"][2]] == [
        False, False, True, True, True, True, True, False, False]
    spec, grid, flags = cases["repeated-grid-values"]
    assert len(np.unique(grid)) < 5 and all(flags)
    spec, grid, flags = cases["beyond-the-grid-ends"]
    # 2 a2 = 3 and 4 there, so CPA_FORWARD_A2 flags both rows too
    assert flags[0] == flags[-1] == "CC_R|CPA"
    assert not any(grid[0] <= p.energy <= grid[-1]
                   for p in critical_points(spec, SpectralFamily.CC_RIGHT, window=(grid[0], grid[-1])))
    assert not any(cases["no-points-near-the-rows"][2])
    assert cases["two-point-grid"][2] == ["CC_R", "SS"]
    assert cases["degenerate-row"][2][1] == "CC_L|CC_R|CPA|DEGENERATE"
    assert cases["time-reversed-degenerate-row"][2][1] == "DEGENERATE|SS"
    assert all("CC_R" in f.split("|") for f in cases["far-up-the-spectrum"][2])


def test_log10_tokens_clip_at_300_decades_and_refuse_nan(tmp_path, monkeypatch, capsys):
    def fake_log10(spec, energies):
        out = np.empty((4, len(energies)))
        out[:] = [[300.0], [-300.0], [299.99], [-299.99]]
        return out

    monkeypatch.setattr(cli, "log10_coefficients", fake_log10)
    code, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8",
                     "--emin", "0.5", "--emax", "1.5", "--points", "2")
    assert code == 0
    for line in text.split("\n")[1:-1]:
        assert line.split(",")[2:6] == ["inf", "-inf", "299.99", "-299.99"]

    def nan_log10(spec, energies):
        out = fake_log10(spec, energies)
        out[3, -1] = np.nan
        return out

    monkeypatch.setattr(cli, "log10_coefficients", nan_log10)
    out = tmp_path / "nan.txt"
    assert main(["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.5",
                 "--emax", "1.5", "--points", "2", "--out", str(out)]) == 1
    assert "refusing to emit NaN" in capsys.readouterr().err
    assert not out.exists()


def _per_token_csv(names, columns):
    """The per-token CSV the block formatter must reproduce byte for byte:
    a float to 12 significant digits, any other value its str()."""
    cells = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    rows = (["{:.12g}".format(v) if isinstance(v, float) else str(v) for v in row]
            for row in zip(*cells))
    return "".join(",".join(tokens) + "\n" for tokens in [names, *rows])


def _csv_against_per_token(tmp_path, monkeypatch, argv):
    """Run a CSV command, check its text is the per-token CSV of the columns
    it formatted, and return the text and those columns."""
    seen, block_csv = [], cli._csv

    def spy(names, columns):
        seen.append((names, [column.copy() if isinstance(column, np.ndarray) else list(column)
                             for column in columns]))
        return block_csv(names, columns)

    monkeypatch.setattr(cli, "_csv", spy)
    code, text = run(tmp_path, *argv)
    assert code == 0 and len(seen) == 1
    # as lines: pytest's diff of two unequal texts of thousands of lines
    # takes minutes
    assert text.splitlines(True) == _per_token_csv(*seen[0]).splitlines(True)
    return text, seen[0][1]


@pytest.mark.parametrize("argv", [
    pytest.param(("--v0", "1.2", "--rho", "1.8", "--emin", "0.05", "--emax", "6",
                  "--points", "2381"), id="readme"),
    # a landing window: R'_l diverges at both ends, so both end rows print inf,
    # and its 5671 rows span a block seam
    pytest.param(("--v0", "1.2", "--rho", "1.8", "--variant", "time-reversed",
                  "--emin", "0.6225", "--emax", "2.04", "--points", "5671"), id="landing-inf"),
    pytest.param(("--v0", "2", "--rho", "2", "--emin", "0.05", "--emax", "8",
                  "--points", str(cli._CSV_BLOCK_ROWS + 1)), id="block-plus-one"),
])
def test_scan_csv_blocks_equal_per_token_formatting(tmp_path, monkeypatch, argv):
    text, _ = _csv_against_per_token(tmp_path, monkeypatch, ("scan", *argv))
    lines = text.split("\n")
    assert len(lines) == int(argv[-1]) + 2  # header, rows, and the final newline's ""
    if "time-reversed" in argv:
        assert lines[1].split(",")[2] == lines[-2].split(",")[2] == "inf"


def test_scan_csv_blocks_equal_per_token_formatting_at_the_clip(tmp_path, monkeypatch):
    def fake_log10(spec, energies):
        # each row cycles through values either side of the +-300-decade clip
        cells = [300.0, -300.0, 299.99999999999994, -299.99999999999994, 1e300, -1e300,
                 299.999999999995, -0.0]
        return np.resize(np.array(cells), (4, len(energies)))

    monkeypatch.setattr(cli, "log10_coefficients", fake_log10)
    text, _ = _csv_against_per_token(tmp_path, monkeypatch, (
        "scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.5", "--emax", "1.5", "--points", "9"))
    tokens = {token for line in text.split("\n")[1:-1] for token in line.split(",")[2:6]}
    assert {"inf", "-inf", "300", "-300", "-0"} <= tokens


@pytest.mark.parametrize("rows", [1, 2, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1,
                                  2 * cli._CSV_BLOCK_ROWS + 3])
def test_scan_csv_special_floats_equal_per_token_formatting(rows):
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
               1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf,
               9.99999999999951, -9.99999999999951, 0.999999999999951, 99999999999.95,
               999999999999.5, 1e16, 123456789012.5, 0.1, 1.0 / 3.0, 2.5e-5]
    rng = np.random.default_rng(rows)
    values = rng.choice(special, size=(6, rows))
    # every other row: magnitudes across the whole exponent range
    shape = (6, (rows + 1) // 2)
    values[:, ::2] = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-320.0, 308.0, shape)
    flags = rng.choice(["", "CC_L", "CC_R|CPA", "CC_L|CC_R|CPA|DEGENERATE", "SS"], rows).tolist()
    names = ["energy_internal", "energy_ev", "log10_Rl", "log10_Rr", "log10_T",
             "log10_absdetS", "flags"]
    columns = [*values, flags]
    assert ("".join(cli._csv(names, columns)).splitlines(True)
            == _per_token_csv(names, columns).splitlines(True))


def test_dense_scan_holds_its_text_once(tmp_path):
    # 20 000 rows are about 2 MB of CSV text; joining the blocks into one
    # string and flushing through (4, n) temporaries held 5.4 MB at the peak
    argv = ["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.05", "--emax", "6",
            "--points", "20000", "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 0  # the warm-up builds the parser and the kernel's tables
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


_VERIFY_STAND_INS = tuple((name, lambda rng, tol=tol: tol / 3.0, tol) for name, _, tol in cli.SUITES)


@pytest.mark.parametrize("argv, empty", [
    pytest.param(("spectrum", "--v0", "1.2", "--rho", "1.8", "--max-count", "4", "--units", "mev"),
                 False, id="spectrum"),
    pytest.param(("spectrum", "--v0", "2", "--rho", "2", "--families", "none"), True,
                 id="spectrum-empty"),
    pytest.param(("ranges", "--v0", "15", "--rho", "0.001", "--criterion", "cpa", "--emin",
                  "14.9990", "--emax", "15.0035", "--grid", "256", "--units", "internal"),
                 False, id="ranges"),
    # no grid point of this window beats the threshold
    pytest.param(("ranges", "--v0", "1.2", "--rho", "1.8", "--criterion", "cpa", "--emin", "0.5",
                  "--emax", "0.6", "--grid", "256"), True, id="ranges-empty"),
    pytest.param(("table1",), False, id="table1"),
    pytest.param(("verify",), False, id="verify"),
    pytest.param(("potential", "--v0", "1.2", "--rho", "1.8", "--x", "2", "--x", "-0.5",
                  "--points", "9"), False, id="potential"),
])
def test_every_command_csv_equals_per_token_formatting(tmp_path, monkeypatch, argv, empty):
    # verify's stand-in checks pass with deviations of 12 and more digits;
    # tests/test_invariants.py runs the real ones
    monkeypatch.setattr(cli, "SUITES", _VERIFY_STAND_INS)
    text, columns = _csv_against_per_token(tmp_path, monkeypatch, argv)
    assert len(text.splitlines()) == 1 + len(columns[0]) and (len(columns[0]) == 0) == empty
    if argv[0] == "table1":  # columns that hold floats and text
        assert any({float, str} <= set(map(type, column)) for column in columns)


# -- error lines instead of tracebacks or defaults ------------------------------------


def test_det_s_failure_exits_1_with_error_line(tmp_path, capsys):
    # a degenerate point (2 a2 = 1, 2 a3 = 3) where the det-S cross-check fails
    out = tmp_path / "out.txt"
    assert main(["scan", "--v0", "0.5", "--rho", "1", "--emin", "0.0624999375",
                 "--emax", "0.0625000625", "--points", "33", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: det S cross-check failed at E=")
    assert "Traceback" not in err
    assert not out.exists()


def test_runaway_scan_window_exits_1(tmp_path, capsys, no_points):
    out = tmp_path / "out.txt"
    assert main(["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.05", "--emax", "1e300",
                 "--points", "50", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_unresolvable_energy_exits_1(tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "1e25", "--emax", "1.0000001e25",
                 "--points", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: det S cannot be checked at E=1e+25: log-Gamma rounding 2.854e+00 exceeds 1e-06\n")
    assert not out.exists()


def test_runaway_window_error_names_family_and_window(capsys, no_points):
    assert main(["ranges", "--v0", "1.2", "--rho", "1.8", "--emin", "0.05",
                 "--emax", "1e300", "--criterion", "cpa"]) == 1
    assert capsys.readouterr().err == (
        "error: ss_left window (0.05, 1e+300) spans 2.22e+150 indices, more than 1000000\n")


def test_runaway_spectrum_count_exits_1(capsys, no_points):
    assert main(["spectrum", "--v0", "1", "--rho", "1", "--max-count", "1000000000"]) == 1
    assert capsys.readouterr() == ("", "error: cc_left count 1000000000 is more than 1000000\n")


@pytest.mark.parametrize("families, count", [(None, 1000000), ("cpa-forward", 500001),
                                             ("cc-left,ss-right", 600000)])
def test_spectrum_total_count_capped(capsys, no_points, families, count):
    # the cap is on points over all families: "all" expands to eight of them
    argv = ["spectrum", "--v0", "1", "--rho", "1", "--max-count", str(count)]
    n = 8 if families is None else 2
    assert main(argv + (["--families", families] if families else [])) == 1
    assert capsys.readouterr() == ("", f"error: --max-count {count} over {n} families asks "
                                       f"for {count * n} points, more than 1000000\n")


def test_spectrum_total_count_boundary(tmp_path, capsys, monkeypatch):
    # with the cap at 6, two families of 3 points pass and two of 4 do not
    monkeypatch.setattr("wsabsorb.spectral._MAX_WINDOW_INDICES", 6)
    argv = ["spectrum", "--v0", "1", "--rho", "1", "--families", "cpa-forward", "--max-count"]
    out = tmp_path / "out.csv"
    assert main(argv + ["3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 3
    assert main(argv + ["4"]) == 1
    assert capsys.readouterr().err.startswith("error: --max-count 4 over 2 families")


def test_empty_variant_flag_rejected(tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(["scan", "--v0", "2", "--rho", "2", "--emin", "0.2", "--emax", "0.3",
                 "--points", "3", "--variant", "", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown variant ''\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["variant", "units", "format"])
def test_empty_config_value_rejected(tmp_path, capsys, key):
    config = tmp_path / "empty.cfg"
    config.write_text(f"v0 = 2\nrho = 2\n{key} =\n")
    out = tmp_path / "out.txt"
    argv = ["scan", "--emin", "0.2", "--emax", "0.3", "--points", "3", "--out", str(out)]
    if key == "variant":  # --variant has no choices: _spec_from_args refuses the value
        assert main(argv + ["--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: unknown variant ''\n"
    else:  # refused by the option's choices, as the flag would be
        assert _usage_error(capsys, argv + ["--config", str(config)]) == _usage_error(
            capsys, argv + ["--v0", "2", "--rho", "2", f"--{key}", ""])
    assert not out.exists()


@pytest.mark.parametrize("argv, text", [
    (["verify", "--seed", "7"], "grid = 5\nunits = bogus\n"),
    (["table1"], "units = mev\n"),
    (["scan", "--v0", "2", "--rho", "2", "--emin", "0.2", "--emax", "0.3"], "seed = 3\n"),
], ids=["verify", "table1", "scan"])
def test_config_key_the_command_does_not_take_rejected(tmp_path, capsys, argv, text):
    config = tmp_path / "foreign.cfg"
    config.write_text(text)
    out = tmp_path / "out.txt"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 1
    keys = sorted(line.split("=")[0].strip() for line in text.splitlines())
    assert capsys.readouterr().err == f"error: config keys {keys} are not options of {argv[0]}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.05", "--emax", "6", "--points", "9"],
    ["spectrum", "--v0", "2", "--rho", "2", "--max-count", "2"],
    ["ranges", "--v0", "1", "--rho", "0.0006", "--emin", "3.0010", "--emax", "3.0030",
     "--grid", "128"],
    ["table1"],
    ["verify"],
    ["potential", "--v0", "1.2", "--rho", "1.8", "--points", "5"],
], ids=lambda argv: argv[0])
def test_json_document_mirrors_csv(tmp_path, monkeypatch, argv):
    # the document's shape does not depend on what the checks find, so verify
    # runs stand-in checks here; tests/test_invariants.py runs the real ones
    monkeypatch.setattr(cli, "SUITES", tuple((name, lambda rng: 0.0, tol)
                                              for name, _, tol in cli.SUITES))
    _, csv_text = run(tmp_path, *argv)
    _, json_text = run(tmp_path, *argv, "--format", "json")
    header, *lines = csv_text.splitlines()
    doc = json.loads(json_text)
    assert list(doc) == ["command", "params", "rows"]
    assert doc["command"] == argv[0]
    assert isinstance(doc["params"], dict)
    assert len(doc["rows"]) == len(lines) > 0
    for row in doc["rows"]:
        assert list(row) == header.split(",")
        assert all(isinstance(value, (int, float, str)) for value in row.values())


def test_json_cells_take_their_type_from_the_value(tmp_path, monkeypatch):
    # a float stays a float where its token reads as an integer, an int
    # stays an int, and the ranges interior_zeros cell is always text
    _, text = run(tmp_path, "scan", "--v0", "1.2", "--rho", "1.8", "--emin", "1",
                  "--emax", "6", "--points", "6", "--format", "json")
    rows = json.loads(text)["rows"]
    assert [row["energy_internal"] for row in rows] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert all(type(row["energy_internal"]) is float for row in rows)

    monkeypatch.setattr(cli, "SUITES", tuple((name, lambda rng: 0.0, 0.0)
                                              for name, _, _ in cli.SUITES))
    _, text = run(tmp_path, "verify", "--format", "json")
    for row in json.loads(text)["rows"]:
        assert type(row["max_deviation"]) is float and type(row["tolerance"]) is float

    _, text = run(tmp_path, "spectrum", "--v0", "2", "--rho", "2", "--max-count", "2",
                  "--format", "json")
    assert all(type(row["index"]) is int for row in json.loads(text)["rows"])

    _, csv_text = run(tmp_path, "ranges", "--v0", "15", "--rho", "0.001", "--criterion", "cpa",
                      "--emin", "14.9990", "--emax", "15.0035", "--grid", "256")
    _, text = run(tmp_path, "ranges", "--v0", "15", "--rho", "0.001", "--criterion", "cpa",
                  "--emin", "14.9990", "--emax", "15.0035", "--grid", "256", "--format", "json")
    zeros = [row["interior_zeros"] for row in json.loads(text)["rows"]]
    assert zeros == [line.split(",")[-1] for line in csv_text.splitlines()[1:]]
    assert "" in zeros and any(zeros)


# -- inputs that no output reads, and inputs that would lose output -------------------


_SMALL_CALLS = {
    "scan": ["scan", "--v0", "1.2", "--rho", "1.8", "--emin", "0.5", "--emax", "1.5",
             "--points", "3"],
    "spectrum": ["spectrum", "--v0", "2", "--rho", "2", "--max-count", "2"],
    "ranges": ["ranges", "--v0", "1", "--rho", "0.0006", "--emin", "3.0010",
               "--emax", "3.0030", "--grid", "128"],
    "potential": ["potential", "--v0", "1.2", "--rho", "1.8", "--points", "5"],
}


@pytest.mark.parametrize("command, flag", [
    ("scan", "--zeta 5"), ("spectrum", "--zeta 5"), ("ranges", "--zeta 5"),
    ("potential", "--zeta 5"), ("spectrum", "--variant time-reversed"),
    ("ranges", "--variant time-reversed"), ("potential", "--mass 7"),
])
def test_flag_no_output_reads_is_a_usage_error(tmp_path, capsys, command, flag):
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as stop:
        main(_SMALL_CALLS[command] + flag.split() + ["--out", str(out)])
    assert stop.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()
    assert main(_SMALL_CALLS[command] + ["--out", str(out)]) == 0


@pytest.mark.parametrize("command, line, message", [
    ("scan", "zeta = 1", "unknown config keys: ['zeta']"),
    ("potential", "zeta = 1", "unknown config keys: ['zeta']"),
    ("spectrum", "variant = forward", "config keys ['variant'] are not options of spectrum"),
    ("ranges", "variant = forward", "config keys ['variant'] are not options of ranges"),
    ("potential", "mass = 1", "config keys ['mass'] are not options of potential"),
])
def test_config_key_no_output_reads_is_rejected(tmp_path, capsys, command, line, message):
    config = tmp_path / "unread.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "out.txt"
    assert main(_SMALL_CALLS[command] + ["--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("first, second, tag", [
    ("1.0000001", "1.0000002", "1"), ("2", "2.0", "2"), ("-0.5", "-0.5", "m0p5"),
])
def test_potential_offsets_sharing_columns_rejected(tmp_path, capsys, first, second, tag):
    # each profile needs its own columns, or the JSON rows keep only one
    out = tmp_path / "out.txt"
    argv = _SMALL_CALLS["potential"] + ["--x", first, "--x", "3", "--x", second]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: --x {float(first)} and --x {float(second)} "
                                       f"share the columns re_V_x{tag}, im_V_x{tag}\n")
    assert not out.exists()


def test_potential_offset_must_be_a_float(tmp_path, capsys):
    # the value was converted by hand, and its error named no option
    out = tmp_path / "out.txt"
    err = _usage_error(capsys, _SMALL_CALLS["potential"] + ["--x", "abc", "--out", str(out)])
    assert err.startswith("usage: ")
    assert err.endswith("error: argument --x: invalid float value: 'abc'\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--x", "-1e-3"), ("--zmin", "-1e1"), ("--x", "-2.5E+0"),
                                   ("--x", "-.5e1")])
def test_negative_flag_value_in_exponent_notation(capsys, flags):
    # argparse's own negative-number pattern has no exponent, so "--x -1e-3"
    # once ended in "argument --x: expected one argument"
    flag, value = flags
    assert main(_SMALL_CALLS["potential"] + [flag, value]) == 0
    spaced = capsys.readouterr()
    assert main(_SMALL_CALLS["potential"] + [f"{flag}={value}"]) == 0
    assert capsys.readouterr() == spaced
    assert spaced.err == ""


@pytest.mark.parametrize("families", ["cc-left,cc-left", "cc-left,ss-right,cc-left"])
def test_repeated_family_rejected(tmp_path, capsys, families):
    out = tmp_path / "out.txt"
    argv = _SMALL_CALLS["spectrum"] + ["--families", families, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: family 'cc-left' given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("command, name", [
    ("scan", "log10_coefficients"), ("ranges", "scan_ranges"), ("potential", "potential_profile"),
])
@pytest.mark.parametrize("text, line", [
    ("Unable to allocate 8.94 GiB for an array with shape (12, 50000000) and data type "
     "complex128", "error: Unable to allocate 8.94 GiB for an array with shape "
                   "(12, 50000000) and data type complex128\n"),
    ("", "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_grid_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch, command, name,
                                           text, line):
    # what numpy raises where a --points or --grid array cannot be allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError(text)
    monkeypatch.setattr(cli, name, out_of_memory)
    out = tmp_path / "out.txt"
    assert main(_SMALL_CALLS[command] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert not out.exists()
