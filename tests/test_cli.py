"""Command-line interface: output contracts, determinism, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from wsabsorb.cli import main

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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("velocity = 3\n")
        code = main(["scan", "--config", str(cfg), "--emin", "1", "--emax", "2"])
        assert code == 1

    def test_config_format_applies(self, tmp_path):
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
        assert main(["scan", "--config", str(cfg), "--emin", "0.5", "--emax", "1.5"]) == 1


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
    captured = capsys.readouterr()
    assert "invalid window" in captured.err and "Warning" not in captured.err


def test_cli_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter: scipy.integrate is the oracle's, loaded on first use
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, wsabsorb.cli; "
             "print('scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["False", "True"]
