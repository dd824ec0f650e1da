"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload at tiny size (``--seconds 1``), untraced and traced,
   and checks that every metric BENCHMARK.json names is emitted, with its
   unit, and nothing else.
2. Corrupts one value of the recorded scan reference and checks that the
   scan workload then reports fail_ratio > 0.
3. Puts a NaN into a scan output column and into each side of an oracle
   comparison, and checks that each check rejects it.
4. Copies only BENCHMARK.json and bench/ into an empty directory and checks
   that the benchmark exits non-zero there without printing a result.

Not named test_*.py on purpose: the repository's pytest run does not pick it
up.  Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")   # for the set-up probe

import workloads  # noqa: E402
import worker  # noqa: E402


def _bench_command(seed, workload, trace, cwd=ROOT):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _bench_command(7, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{[k for k in want if k in got and got[k] != want[k]]}")
            print(f"ok  {where}: {len(got)} metrics, {result['attempted']} ops")
    return problems


def check_corrupted_reference() -> list[str]:
    import wsabsorb.cli  # noqa: F401

    reference = workloads.load_scan_reference()
    clean = worker.measure(workloads.scan_workload(3, reference), 0.0, 1)["extra"]["fail_ratio"]
    bad = copy.deepcopy(reference)
    readme = next(e for e in bad["ops"] if e["class"] == "readme")
    fields = readme["rows"][0].split(",")
    fields[0] = repr(float(fields[0]) + 1e-3)
    readme["rows"][0] = ",".join(fields)
    corrupted = worker.measure(workloads.scan_workload(3, bad), 0.0, 1)["extra"]["fail_ratio"]
    print(f"ok  corrupted reference: fail_ratio {clean} clean, {corrupted} corrupted")
    if clean != 0.0 or not corrupted > 0.0:
        return [f"fail_ratio {clean} with the recorded reference, {corrupted} with a corrupted one"]
    return []


class _NaNValue:
    """Stands in for a closed-form SingularValue that came out NaN."""

    def to_complex(self):
        return complex(float("nan"), float("nan"))


def check_nan_rejected() -> list[str]:
    import wsabsorb.cli  # noqa: F401

    problems = []
    entry = next(e for e in workloads.load_scan_reference()["ops"] if e["class"] == "seeded")
    out = workloads.run_cli(entry["argv"])
    lines = out.text.splitlines()
    fields = lines[1].split(",")
    fields[2] = "nan"
    lines[1] = ",".join(fields)
    nan_out = workloads.CliOutput(out.code, "\n".join(lines) + "\n")
    if workloads.check_scan(out, entry["rows"]) is not None:
        problems.append("scan: the recorded output fails its own check")
    if workloads.check_scan(nan_out, entry["rows"]) is None:
        problems.append("scan: a NaN log10 column passes")

    op = workloads.oracle_workload(3).cycle[0]
    res = op.run()
    nan = complex(float("nan"), float("nan"))
    bad_sides = {
        "oracle G-factor": dataclasses.replace(res, g_oracle=(nan,) + tuple(res.g_oracle[1:])),
        "closed-form G-factor": dataclasses.replace(
            res, g_closed=(_NaNValue(),) + tuple(res.g_closed[1:])),
    }
    if op.check(res) is not None:
        problems.append("oracle: the real comparison fails its own check")
    for side, bad in bad_sides.items():
        if op.check(bad) is None:
            problems.append(f"oracle: a NaN {side} passes the gate")
    print(f"ok  NaN outputs: {len(problems)} accepted")
    return problems


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = _bench_command(1, "scan", 0, cwd=bare)
    printed = proc.stdout.strip().splitlines()
    print(f"ok  bare directory: exit {proc.returncode}")
    if proc.returncode == 0 or (printed and printed[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, output {printed[-1:]}"]
    return []


def main() -> int:
    problems = (check_corrupted_reference() + check_nan_rejected() + check_bare_directory()
                + check_metrics())
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
