"""Run the benchmark on two checkouts in alternating pairs and summarise them.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload scan \\
        --seeds 21-30 --out BENCH_17.json [--workload ranges ...] [--seconds S]

Each directory is a whole checkout (its own ``bench/`` and ``src/``); make
both the same way, for example with ``git archive``, and never pass the
working checkout: ``bench/run.py`` rewrites ``bench/results/``.  The two
resolved paths must have the same length, or the script exits 2 before any
run: two copies of one commit whose directory names differed in length
measured 11-12 % apart in ``ops_per_s`` (CHANGES.md), a shift of the order
of the benchmark's bounds.  For every workload and seed, ``bench/run.py
--workload W --seed N --seconds S --trace 0`` runs once on each side, the
parent first in even-numbered pairs and the change first in odd-numbered
ones, and the last line of its standard output is read as the run's result.
``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``.

The output file holds, per workload and per end-to-end metric of this
checkout's ``BENCHMARK.json``: each side's median and quartiles (the
inclusive method, as ``numpy.percentile``), the pairs the change won and
tied, and every run in pair order; whether the claim rule holds
(``claim_holds``: at least 10 pairs, the change better in at least 9 of
every 10, ties counting for neither, and the change median better than the
parent's by more than the parent's quartile spread); whether the change
median is within the metric's ``bound`` of the parent's (``within_bound``:
worse by at most that fraction of the parent median); per side the
attempted and failed ops; per side the workload stats of every run, in pair
order (``extra.workload_stats`` of the run's
``bench/results/<workload>-seed<N>-trace0.json``); per side and op label the
median over that side's runs of each run's median as-timed op time
(``extra.op_seconds``), which shows the ops that moved; per side each run's
``extra.oracle_max_rel_dev``, in pair order, where every run reports it;
and the sha256 of each side's ``src/wsabsorb`` sources.  The file is
written again after each workload, so a run that fails (a timeout on a
loaded machine, say) keeps the workloads done before it: the script then
writes those with the failure as ``error`` and exits 1.  One line per metric
goes to standard output, one with each side's worst oracle deviation where
the runs report it, and one warning line per pair whose two sides' workload
stats differ: those sides timed different mixes of ops (a ``ranges`` window
redrawn on one side only, say).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def src_digest(checkout: pathlib.Path) -> str:
    """sha256 over the relative paths and bytes of the checkout's sources."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted((src / "wsabsorb").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its last stdout line, parsed, with
    from its result file the workload stats as ``workload_stats``, each op
    label's median as-timed seconds as ``op_seconds`` and the oracle's worst
    deviation as ``oracle_max_rel_dev`` (None where the run has none)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    record = checkout / "bench" / "results" / f"{workload}-seed{seed}-trace0.json"
    extra = json.loads(record.read_text(encoding="utf-8"))["extra"]
    result["workload_stats"] = extra["workload_stats"]
    result["op_seconds"] = {label: statistics.median(times)
                            for label, times in extra["op_seconds"].items()}
    result["oracle_max_rel_dev"] = extra.get("oracle_max_rel_dev")
    return result


def stats_warnings(workload: str, seeds: list[int], runs: dict) -> list[str]:
    """One line per pair whose two sides' workload stats differ; ``runs``
    maps each side to its results in pair order."""
    return [f"warning: {workload} seed {seed}: workload stats differ, parent {p} against "
            f"change {c}, so the sides timed different mixes of ops"
            for seed, p, c in zip(seeds, *([run["workload_stats"] for run in runs[side]]
                                            for side in SIDES))
            if p != c]


def op_medians(runs: list[dict]) -> dict:
    """Per op label, the median of its ``op_seconds`` over the runs that
    timed it."""
    labels = sorted({label for run in runs for label in run["op_seconds"]})
    return {label: statistics.median(run["op_seconds"][label] for run in runs
                                     if label in run["op_seconds"])
            for label in labels}


def summary(values: list[float]) -> dict:
    # before Python 3.13, quantiles() refuses a single run
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "iqr": q3 - q1, "q1": q1, "q3": q3}


def compare(runs: dict, name: str, better: str, bound: float) -> dict:
    """One metric's medians, quartiles, pair count, claim rule and bound;
    ``runs`` maps each side to its results in pair order."""
    values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
    sides = {side: summary(values[side]) for side in SIDES}
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    won = sum(d > 0 for d in diffs)
    gain = sign * (sides["change"]["median"] - sides["parent"]["median"])
    return {
        **sides,
        "better": better,
        "change_better_pairs": won,
        "tied_pairs": sum(d == 0 for d in diffs),
        "claim_holds": len(diffs) >= 10 and 10 * won >= 9 * len(diffs)
                       and gain > sides["parent"]["iqr"],
        "within_bound": -gain <= bound * abs(sides["parent"]["median"]),
        **{f"{side}_runs": values[side] for side in SIDES},
    }


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(dirs["parent"])) != len(str(dirs["change"])):
        parser.error(f"the paths {dirs['parent']} and {dirs['change']} differ in length; "
                     "copy both checkouts to paths of equal length")
    for side, checkout in dirs.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{side} {checkout} has no bench/run.py")

    doc = {
        "what": f"bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0 "
                "on each side in alternating pairs (the parent first in even-numbered pairs); "
                "quartiles by the inclusive method; change_better_pairs counts the pairs "
                "the change won; claim_holds: at least 10 pairs, at least 9 of every 10 won "
                "(ties count for neither) and the median gain above the parent's IQR; "
                "within_bound: the change median worse than the parent's by at most the "
                "metric's BENCHMARK.json bound, as a fraction of the parent median; "
                "*_runs list every run in pair order; op_seconds: per op label, the median "
                "over a side's runs of each run's median as-timed seconds; "
                "oracle_max_rel_dev: each run's, in pair order.",
        "sides": {side: {"dir": checkout.name, "src_sha256": src_digest(checkout)}
                  for side, checkout in dirs.items()},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
        "workloads": {},
    }
    rules = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}

    def write() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    try:
        for workload in args.workload:
            runs = {side: [] for side in SIDES}
            for k, seed in enumerate(args.seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(dirs[side], workload, seed, args.seconds))
            metrics = {name: compare(runs, name, better, bound)
                       for name, (better, bound) in rules.items()}
            doc["workloads"][workload] = {
                "pairs": len(args.seeds), "seeds": args.seeds, "metrics": metrics,
                **{key: {side: sum(run[key] for run in runs[side]) for side in SIDES}
                   for key in ("attempted", "failed")},
                "workload_stats": {side: [run["workload_stats"] for run in runs[side]]
                                   for side in SIDES},
                "op_seconds": {side: op_medians(runs[side]) for side in SIDES},
            }
            devs = {side: [run["oracle_max_rel_dev"] for run in runs[side]] for side in SIDES}
            if None not in devs["parent"] + devs["change"]:
                doc["workloads"][workload]["oracle_max_rel_dev"] = devs
                print(f"{workload} oracle_max_rel_dev: parent max {max(devs['parent']):.3g}, "
                      f"change max {max(devs['change']):.3g}", flush=True)
            for name, m in metrics.items():
                print(f"{workload} {name}: parent {m['parent']['median']:.6g} "
                      f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}], change "
                      f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
                      f"{m['change']['q3']:.6g}], change better in "
                      f"{m['change_better_pairs']} of {len(args.seeds)} pairs, claim rule "
                      f"{'holds' if m['claim_holds'] else 'fails'}, "
                      f"{'within' if m['within_bound'] else 'outside'} bound", flush=True)
            for line in stats_warnings(workload, args.seeds, runs):
                print(line, flush=True)
            write()
    except (RuntimeError, ValueError, KeyError) as exc:
        doc["error"] = str(exc)
        write()
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
