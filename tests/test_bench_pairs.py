"""``scripts/bench_pairs.py`` refuses checkouts whose paths differ in length,
reports per metric whether the claim rule holds and the bound is kept, warns
of pairs whose sides' workload stats differ, records each side's op times
per label and the oracle's worst deviation per run, and keeps the workloads
done before a run that fails."""

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
if pathlib.Path(f"fail-{workload}").exists():
    sys.exit("timed out")
results = pathlib.Path("bench/results")
results.mkdir(exist_ok=True)
stats = json.loads(pathlib.Path("stats.json").read_text())[seed]
extra = json.loads(pathlib.Path("extra.json").read_text())[seed]
(results / f"{workload}-seed{seed}-trace0.json").write_text(
    json.dumps({"extra": {"workload_stats": stats, **extra}}))
names = json.loads(pathlib.Path("names.json").read_text())
print(json.dumps({"attempted": 4, "failed": 0,
                  "metrics": {name: {"value": 1.0, "unit": ""} for name in names}}))
'''


def _fake_checkouts(tmp_path, sides):
    """Stand-in checkouts named by ``sides``, each mapping seed to (workload
    stats, further ``extra`` fields): their bench/run.py writes a result file
    with those and prints a result line; no benchmark runs."""
    benchmark = json.loads((_SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"]]
    for name, seeds in sides.items():
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(_FAKE_RUN)
        (tmp_path / name / "stats.json").write_text(json.dumps({k: v[0] for k, v in seeds.items()}))
        (tmp_path / name / "extra.json").write_text(json.dumps({k: v[1] for k, v in seeds.items()}))
        (tmp_path / name / "names.json").write_text(json.dumps(names))


def _pairs_run(tmp_path, workloads, seeds):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), str(tmp_path / "a"), str(tmp_path / "b"),
         *[arg for w in workloads for arg in ("--workload", w)], "--seeds", seeds,
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, check=False)
    return proc, json.loads(out.read_text())


def _pairs(tmp_path, workload, seeds):
    proc, doc = _pairs_run(tmp_path, (workload,), seeds)
    assert proc.returncode == 0, proc.stderr
    return doc["workloads"][workload], proc.stdout


def test_each_run_keeps_its_result_files_workload_stats(tmp_path):
    times = {"op_seconds": {"r:0": [0.001]}}
    _fake_checkouts(tmp_path, {"a": {"1": ({"redrawn_windows": 0}, times),
                                     "2": ({"redrawn_windows": 2}, times)},
                               "b": {"1": ({"redrawn_windows": 0}, times),
                                     "2": ({"redrawn_windows": 0}, times)}})
    result, stdout = _pairs(tmp_path, "ranges", "1-2")
    assert result["workload_stats"] == {
        "parent": [{"redrawn_windows": 0}, {"redrawn_windows": 2}],
        "change": [{"redrawn_windows": 0}, {"redrawn_windows": 0}]}
    warnings = [line for line in stdout.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: ranges seed 2: workload stats differ, parent "
                        "{'redrawn_windows': 2} against change {'redrawn_windows': 0}, so the "
                        "sides timed different mixes of ops"]
    assert "oracle_max_rel_dev" not in result  # no run reports one


def test_each_side_keeps_its_op_times_and_oracle_deviations(tmp_path):
    # per label the median over runs of each run's median as-timed seconds, and
    # each run's oracle_max_rel_dev in pair order
    _fake_checkouts(tmp_path, {
        "a": {"1": ({}, {"op_seconds": {"o:0": [1.0, 3.0, 2.0], "o:1": [5.0]},
                         "oracle_max_rel_dev": 1e-12}),
              "2": ({}, {"op_seconds": {"o:0": [4.0]}, "oracle_max_rel_dev": 3e-12}),
              "3": ({}, {"op_seconds": {"o:0": [9.0], "o:1": [7.0]},
                         "oracle_max_rel_dev": 2e-12})},
        "b": {"1": ({}, {"op_seconds": {"o:0": [0.5]}, "oracle_max_rel_dev": 4e-12}),
              "2": ({}, {"op_seconds": {"o:0": [0.25, 0.75]}, "oracle_max_rel_dev": 5e-12}),
              "3": ({}, {"op_seconds": {"o:0": [0.1]}, "oracle_max_rel_dev": 6e-12})}})
    result, stdout = _pairs(tmp_path, "oracle", "1-3")
    assert result["op_seconds"] == {"parent": {"o:0": 4.0, "o:1": 6.0},
                                    "change": {"o:0": 0.5}}
    assert result["oracle_max_rel_dev"] == {"parent": [1e-12, 3e-12, 2e-12],
                                            "change": [4e-12, 5e-12, 6e-12]}
    assert "oracle oracle_max_rel_dev: parent max 3e-12, change max 6e-12" in stdout.splitlines()


def test_a_failed_run_keeps_the_workloads_done_before_it(tmp_path):
    # the change side's runs of the second workload fail: the file holds the
    # first workload and the error, and the script exits 1
    times = {"op_seconds": {"o:0": [0.001]}}
    _fake_checkouts(tmp_path, {side: {"1": ({}, times), "2": ({}, times)} for side in "ab"})
    (tmp_path / "b" / "fail-ranges").write_text("")
    proc, doc = _pairs_run(tmp_path, ("scan", "ranges", "oracle"), "1-2")
    assert proc.returncode == 1
    assert list(doc["workloads"]) == ["scan"] and doc["workloads"]["scan"]["pairs"] == 2
    assert doc["error"].startswith(f"{tmp_path / 'b'}: ranges seed 1 exited 1")
    assert "timed out" in doc["error"]
    assert proc.stderr == f"error: {doc['error']}\n"


def test_every_workload_is_written_when_every_run_succeeds(tmp_path):
    times = {"op_seconds": {"o:0": [0.001]}}
    _fake_checkouts(tmp_path, {side: {"1": ({}, times)} for side in "ab"})
    proc, doc = _pairs_run(tmp_path, ("scan", "ranges"), "1")
    assert proc.returncode == 0, proc.stderr
    assert list(doc["workloads"]) == ["scan", "ranges"] and "error" not in doc
