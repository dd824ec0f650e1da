"""``scripts/bench_pairs.py`` refuses checkouts whose paths differ in length,
reports per metric whether the claim rule holds and the bound is kept, and
warns of pairs whose sides' workload stats differ."""

import importlib.util
import json
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


def test_a_warning_per_pair_whose_workload_stats_differ():
    stats = {"parent": [{"redrawn_windows": 0}, {"redrawn_windows": 1}, {}, {"a": 1.0}],
             "change": [{"redrawn_windows": 0}, {"redrawn_windows": 0}, {}, {"a": 2.0}]}
    runs = {side: [{"workload_stats": s} for s in stats[side]] for side in stats}
    lines = _bench_pairs().stats_warnings("ranges", [5, 6, 7, 8], runs)
    assert lines == [
        "warning: ranges seed 6: workload stats differ, parent {'redrawn_windows': 1} against "
        "change {'redrawn_windows': 0}, so the sides timed different mixes of ops",
        "warning: ranges seed 8: workload stats differ, parent {'a': 1.0} against "
        "change {'a': 2.0}, so the sides timed different mixes of ops",
    ]


_FAKE_RUN = '''import json, pathlib, sys
workload, seed = sys.argv[sys.argv.index("--workload") + 1], sys.argv[sys.argv.index("--seed") + 1]
results = pathlib.Path("bench/results")
results.mkdir(exist_ok=True)
stats = json.loads(pathlib.Path("stats.json").read_text())[seed]
(results / f"{workload}-seed{seed}-trace0.json").write_text(
    json.dumps({"extra": {"workload_stats": stats}}))
names = json.loads(pathlib.Path("names.json").read_text())
print(json.dumps({"attempted": 4, "failed": 0,
                  "metrics": {name: {"value": 1.0, "unit": ""} for name in names}}))
'''


def test_each_run_keeps_its_result_files_workload_stats(tmp_path):
    # two stand-in checkouts whose bench/run.py writes a result file with the
    # given stats and prints a result line; no benchmark runs
    benchmark = json.loads((_SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"]]
    sides = {"a": {"1": {"redrawn_windows": 0}, "2": {"redrawn_windows": 2}},
             "b": {"1": {"redrawn_windows": 0}, "2": {"redrawn_windows": 0}}}
    for name, stats in sides.items():
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(_FAKE_RUN)
        (tmp_path / name / "stats.json").write_text(json.dumps(stats))
        (tmp_path / name / "names.json").write_text(json.dumps(names))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), str(tmp_path / "a"), str(tmp_path / "b"), "--workload",
         "ranges", "--seeds", "1-2", "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["workloads"]["ranges"]["workload_stats"] == {
        "parent": [{"redrawn_windows": 0}, {"redrawn_windows": 2}],
        "change": [{"redrawn_windows": 0}, {"redrawn_windows": 0}]}
    warnings = [line for line in proc.stdout.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: ranges seed 2: workload stats differ, parent "
                        "{'redrawn_windows': 2} against change {'redrawn_windows': 0}, so the "
                        "sides timed different mixes of ops"]
