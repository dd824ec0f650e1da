"""The wsabsorb benchmark: one command for every workload and metric.

    python3 bench/run.py --workload scan|ranges|oracle --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, nothing is installed.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer ones; see
bench/README.md.  Human-readable lines go first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A result file with the environment goes to bench/results/.

Every child process runs with one BLAS/OpenMP thread, so no more threads
run than there are cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

WORKLOADS = ("scan", "ranges", "oracle")
IMPORT_REPEATS = 3
DEADLINE_S = 170.0      # the whole run must end well within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run(args, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped if past the deadline)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:3]))
    try:
        return subprocess.run(args, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(args)}") from exc


def parse_importtime(stderr: str) -> dict:
    """import.* seconds from ``python -X importtime -c 'import wsabsorb.cli'``."""
    total = integrate = own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        head, cumulative, name = line.split("|", 2)
        try:
            self_us = int(head.rsplit(":", 1)[1])
            cum_us = int(cumulative)
        except ValueError:
            continue  # the column header
        module = name.strip()
        if module.startswith("wsabsorb"):
            own += self_us
            if name[1:2] != " ":  # top level: pulled in by the -c import
                total += cum_us
        if module == "scipy.integrate" and not integrate:
            integrate = cum_us
    return {"import.total_s": total / 1e6, "import.scipy_integrate_s": integrate / 1e6,
            "import.wsabsorb_own_s": own / 1e6}


def measure_imports(deadline: float) -> dict:
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import wsabsorb.cli"], deadline)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr}")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "wsabsorb"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="wsabsorb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "wsabsorb", "__init__.py")):
        sys.stderr.write(f"error: no wsabsorb sources under {SRC}; run from a checkout\n")
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        layer_metrics = {}
        if args.trace:
            layer_metrics = {k: (v, "s") for k, v in measure_imports(deadline).items()}
        proc = _run([sys.executable, os.path.join(BENCH, "worker.py"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--spans", os.path.join(RESULTS, f"spans-{args.workload}.json.gz")],
                    deadline)
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        worker = json.loads(proc.stdout.strip().splitlines()[-1])
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if not worker["versions"]["wsabsorb_path"].startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported {worker['versions']['wsabsorb_path']}, not {SRC}\n")
        return 1

    metrics = {k: (v["value"], v["unit"]) for k, v in worker["metrics"].items()}
    metrics.update(layer_metrics)
    correct = worker["failed"] == 0

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": {**environment(args.seed), **worker["versions"]},
        "correct": correct, "attempted": worker["attempted"], "failed": worker["failed"],
        "failures": worker["failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": worker["extra"],
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for note in worker["failures"]:
        print(f"FAILED {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    extra = worker["extra"]
    print(f"{'fail_ratio':36s} {extra['fail_ratio']:>16.6g} ratio")
    if "tail_percentile" in extra:
        print(f"op_tail_s is p{extra['tail_percentile']:g} of {extra['samples']} "
              f"passed ops ({extra['tail_samples_beyond']} beyond it)")
        cal = extra["calibration"]
        print(f"times are reference seconds: as timed x {cal['nominal_s']:g} s / the "
              f"calibration around them (run median {cal['median_s']:.6g} s, "
              f"{cal['samples']} samples); as timed:")
        for name, value in extra["as_timed"].items():
            print(f"  {name:34s} {value:>16.6g}")
    if "oracle_max_rel_dev" in extra:
        print(f"{'oracle_max_rel_dev':36s} {extra['oracle_max_rel_dev']:>16.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
