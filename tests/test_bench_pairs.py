"""``scripts/bench_pairs.py`` refuses checkouts whose paths differ in length,
and reports per metric whether the claim rule holds and the bound is kept."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def test_paths_of_unequal_length_are_refused_before_any_run(tmp_path):
    # each side's bench/run.py would leave a file behind if it ran
    sides = []
    for name in ("a", "bb"):
        bench = tmp_path / name / "bench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text("import pathlib\npathlib.Path('ran').write_text('')\n")
        sides.append(str(tmp_path / name))
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), *sides, "--workload", "scan", "--seeds", "1",
         "--seconds", "1", "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert "differ in length" in proc.stderr
    assert not list(tmp_path.rglob("ran")) and not (tmp_path / "out.json").exists()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    return {side: [{"metrics": {"op_p50_s": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


_PARENT = [4.0, 4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7, 4.8, 4.9]  # median 4.45, IQR 0.45


@pytest.mark.parametrize("change, holds", [
    ([v - 0.5 for v in _PARENT], True),  # 10 of 10 won, gain 0.5 > IQR 0.45
    ([v - 0.4 for v in _PARENT], False),  # 10 of 10 won, gain 0.4 within the IQR
    ([v - 0.5 for v in _PARENT[:9]] + [4.9], True),  # 9 won, 1 tied
    ([v - 0.5 for v in _PARENT[:8]] + [4.8, 4.9], False),  # 8 won, 2 tied
    ([v - 0.5 for v in _PARENT[:8]] + [4.9, 5.0], False),  # 8 won, 2 lost
])
def test_claim_rule(change, holds):
    m = _bench_pairs().compare(_runs(_PARENT, change), "op_p50_s", "lower", 0.25)
    assert m["claim_holds"] is holds
    assert m["within_bound"] is True


def test_claim_rule_needs_ten_pairs():
    m = _bench_pairs().compare(_runs(_PARENT[:9], [v - 1.0 for v in _PARENT[:9]]),
                               "op_p50_s", "lower", 0.25)
    assert m["change_better_pairs"] == 9 and m["claim_holds"] is False


def test_claim_rule_for_a_higher_better_metric():
    compare = _bench_pairs().compare
    assert compare(_runs(_PARENT, [v + 0.5 for v in _PARENT]), "op_p50_s", "higher", 0.25)[
        "claim_holds"] is True
    assert compare(_runs(_PARENT, [v - 0.5 for v in _PARENT]), "op_p50_s", "higher", 0.25)[
        "claim_holds"] is False


@pytest.mark.parametrize("better, factor, within", [
    ("lower", 1.24, True), ("lower", 1.26, False), ("lower", 0.5, True),
    ("higher", 0.76, True), ("higher", 0.74, False), ("higher", 2.0, True),
])
def test_within_bound(better, factor, within):
    # the bound is a fraction of the parent median, 4.45 here
    m = _bench_pairs().compare(_runs(_PARENT, [v * factor for v in _PARENT]), "op_p50_s",
                               better, 0.25)
    assert m["within_bound"] is within
