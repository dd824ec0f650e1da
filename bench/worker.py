"""One measured workload process; started by run.py, prints one JSON line.

    python3 bench/worker.py --workload scan --seed 1 --seconds 20 --trace 0

Untraced: a closed loop with one client runs operations back to back, for
as many whole cycles as take about ``--seconds`` at the workload's nominal
cycle time; each call into wsabsorb is timed, its output checked
afterwards.  Between operations, evenly spread, the loop waits for a set-up
probe (setup_probe.py) in a fresh interpreter.  Calibration samples taken
between operations turn every time into reference seconds (see
Calibration).

Traced: a fixed list of operations (so counts repeat exactly for a seed)
runs once under the tracer and once untraced; the ratio of their program
times is the tracing overhead.  The spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from tracer import Tracer

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
WARMUP_OPS = 2
MAX_FAILURE_NOTES = 5
SETUP_PROBES = 8
SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
# Calibration: a fixed stdlib-only kernel, timed between operations, gauges
# how much load from outside the process slows this CPU at each moment.
CALIBRATION_SHARE = 0.04        # share of the run spent on calibration samples
CALIBRATION_WINDOW_S = 0.25     # samples this close to an interval gauge it
CALIBRATION_NOMINAL_S = 3.0e-3  # one sample on the reference VM with no other load
PROBE_CALIBRATION = 2           # samples just before and just after each set-up probe


def _calibration_kernel() -> complex:
    """Fixed work shaped like the program's inner loop: lgamma, complex exp
    and complex division in interpreted Python.  Uses nothing of wsabsorb,
    so a change to the program leaves it alone."""
    total = 0j
    for i in range(1, 8000):
        x = 0.5 + i * 5e-4
        total += cmath.exp(complex(math.lgamma(x), x)) * (x * x + 1.0) / (x + 2j)
    return total


class Calibration:
    """Calibration samples with their start times.  ``owe`` keeps their
    share of the run at CALIBRATION_SHARE; ``scale`` turns seconds measured
    over an interval into reference seconds: the seconds times
    CALIBRATION_NOMINAL_S over the mean sample within CALIBRATION_WINDOW_S
    of the interval."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.debt = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()    # the program's heap must not show in the kernel's time
        try:
            t0 = time.perf_counter()
            _calibration_kernel()
            self.seconds.append(time.perf_counter() - t0)
            self.at.append(t0)
        finally:
            if enabled:
                gc.enable()

    def owe(self, elapsed: float) -> None:
        self.debt += CALIBRATION_SHARE * elapsed
        while self.debt > 0:
            self.sample()
            self.debt -= self.seconds[-1]

    def scale(self, seconds: float, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CALIBRATION_WINDOW_S)
        local = self.seconds[max(0, lo - 1):hi + 1]   # at least one on each side
        return seconds * CALIBRATION_NOMINAL_S / statistics.fmean(local)


def _execute(op, record):
    """Time op.run, then check its output; returns (seconds, output, error)."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # any raise, det-S ArithmeticError included, fails the op
        elapsed = time.perf_counter() - t0
        record(op, f"{type(exc).__name__}: {exc}", exc)
        return elapsed, None, True
    elapsed = time.perf_counter() - t0
    error = op.check(out)
    if error is not None:
        record(op, error, None)
    return elapsed, out, error is not None


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.contour_errors = 0
        self.notes: list[str] = []

    def record(self, op, error, exc):
        self.failed += 1
        if exc is not None and type(exc).__name__ == "ContourError":
            self.contour_errors += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{op.label}: {error}")


def tail(latencies):
    """(percentile, value, samples beyond it): the highest ladder percentile
    with at least MIN_BEYOND samples above it."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            break
    return p, float(np.percentile(latencies, p)), int(round(n * (1.0 - p / 100.0)))


def setup_probe(workload: str) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run([sys.executable, SETUP_PROBE, workload],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"setup probe failed ({proc.returncode}):\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def cycles_for(work, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` at the nominal cycle time.
    A fixed count, rather than a clock, ends the run, so that every run of
    a workload has the same samples and the same tail percentile."""
    return max(1, math.ceil(seconds / work.cycle_s))


def measure(work, seconds: float, probes: int = SETUP_PROBES) -> dict:
    """Run ``cycles_for(work, seconds)`` cycles, with ``probes`` set-up
    probes spread evenly over the operations.  Every execution and every
    probe is scaled to reference seconds by the calibration around it."""
    outcome = Outcome()
    for op in work.cycle[:WARMUP_OPS]:
        op.run()
    cal = Calibration()
    cal.sample()
    times: dict[str, list[float]] = {}   # passed latencies per operation, as timed
    seen: list[float] = []               # passed latencies in the order they ran, as timed
    spans: list[tuple[float, float]] = []
    setups: list[float] = []
    setup_spans: list[tuple[float, float]] = []
    cycles = cycles_for(work, seconds)
    total = cycles * len(work.cycle)
    probe_at = [k * total // probes for k in range(probes)]
    for n, op in enumerate(work.cycle * cycles):
        while len(setups) < probes and probe_at[len(setups)] <= n:
            for _ in range(PROBE_CALIBRATION):
                cal.sample()
            t0 = time.perf_counter()
            setups.append(setup_probe(work.name))
            setup_spans.append((t0, time.perf_counter()))
            for _ in range(PROBE_CALIBRATION):
                cal.sample()
        t0 = time.perf_counter()
        elapsed, _, failed = _execute(op, outcome.record)
        outcome.attempted += 1
        if not failed:
            times.setdefault(op.label, []).append(elapsed)
            seen.append(elapsed)
            spans.append((t0, t0 + elapsed))
        cal.owe(elapsed)
    cal.sample()
    if not seen:
        raise SystemExit("no operation passed")
    scaled = [cal.scale(t, *span) for t, span in zip(seen, spans)]
    scaled_setups = [cal.scale(t, *span) for t, span in zip(setups, setup_spans)]
    p, tail_value, beyond = tail(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_value, "s"),
        "pass_ratio": (len(seen) / outcome.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "fail_ratio": outcome.failed / outcome.attempted,
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "samples": len(seen),
        "operations": len(times),
        "cycles": cycles,
        "as_timed": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(seen) / sum(seen),
            "op_p50_s": statistics.median(seen),
            "op_tail_s": tail(seen)[1],
        },
        "calibration": {
            "nominal_s": CALIBRATION_NOMINAL_S,
            "median_s": statistics.median(cal.seconds),
            "min_s": min(cal.seconds),
            "samples": len(cal.seconds),
        },
        "setup_probe_seconds": setups,
        "program_seconds": sum(seen),
        "op_seconds": times,
    }
    if "max_rel_dev" in work.stats:
        extra["oracle_max_rel_dev"] = work.stats["max_rel_dev"]
    extra["workload_stats"] = dict(work.stats)
    return {"outcome": outcome, "metrics": metrics, "extra": extra}


def _ratio(num, den):
    return num / den if den else 0.0


def measure_traced(work, spans_path: str | None) -> dict:
    outcome = Outcome()
    for op in work.cycle[:WARMUP_OPS]:
        op.run()
    tracer = Tracer()
    ops = work.cycle * workloads.TRACE_CYCLES
    bytes_out = 0
    traced_busy = plain_busy = 0.0
    # each op runs traced and untraced back to back, alternating which goes
    # first, so that load from outside the process hits both sides alike
    for i, op in enumerate(ops):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                with tracer, tracer.span("bench.op"):
                    elapsed, out, _ = _execute(op, outcome.record)
                traced_busy += elapsed
                if isinstance(out, workloads.CliOutput):
                    bytes_out += len(out.text.encode("utf-8"))
            else:
                elapsed, _, _ = _execute(op, outcome.record)
                plain_busy += elapsed
            outcome.attempted += 1
    if spans_path:
        tracer.write(spans_path)

    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(*names):
        return sum(totals.get(n, [0, 0.0, 0.0])[2] for n in names)

    amp_calls = calls("amplitudes.amplitudes")
    metrics = {
        "specfun.log_gamma.calls": (calls("specfun.log_gamma"), "count"),
        "specfun.log_gamma.self_s": (self_s("specfun.log_gamma"), "s"),
        "amplitudes.g_factors.calls": (calls("amplitudes.g_factors"), "count"),
        "amplitudes.g_factors.self_s": (self_s("amplitudes.g_factors"), "s"),
        "amplitudes.amplitudes.calls": (amp_calls, "count"),
        "amplitudes.amplitudes.self_s": (self_s("amplitudes.amplitudes"), "s"),
        "amplitudes.amplitudes.us_per_call": (
            _ratio(inclusive("amplitudes.amplitudes") * 1e6, amp_calls), "us"),
        "amplitudes.channel_params.self_s": (self_s("amplitudes.channel_params"), "s"),
        "amplitudes.singular_ratio": (_ratio(counts["amplitudes.singular"], amp_calls), "ratio"),
        "units.validate.calls": (calls("units.validate"), "count"),
        "units.validate.self_s": (self_s("units.validate"), "s"),
        "spectral.scan_ranges.calls": (calls("spectral.scan_ranges"), "count"),
        "spectral.scan_ranges.self_s": (self_s("spectral.scan_ranges", "spectral.bisect"), "s"),
        "spectral.ranges_found": (counts["spectral.ranges_found"], "count"),
        "spectral.evals_per_range": (
            _ratio(counts["spectral.evals"], counts["spectral.ranges_found"]), "count"),
        "spectral.bisect_share": (
            _ratio(counts["spectral.bisect_evals"], counts["spectral.evals"]), "ratio"),
        "spectral.enumerators.calls": (calls("spectral.enumerators"), "count"),
        "spectral.enumerators.self_s": (self_s("spectral.enumerators"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "oracle.integrate_contour.calls": (calls("oracle.integrate_core"), "count"),
        "oracle.integrate_contour.self_s": (
            self_s("oracle.integrate_contour", "oracle.integrate_core"), "s"),
        "oracle.oracle_g_factors.self_s": (self_s("oracle.oracle_g_factors"), "s"),
        "oracle.steps_per_contour": (
            _ratio(counts["oracle.steps"], calls("oracle.integrate_core")), "steps"),
        "specfun.hyp2f1.calls": (calls("specfun.hyp2f1"), "count"),
        "specfun.hyp2f1.self_s": (self_s("specfun.hyp2f1"), "s"),
        "oracle.domain_accept_ratio": (
            _ratio(work.stats.get("domain_accepted", 0), work.stats.get("domain_checks", 0)),
            "ratio"),
        "oracle.contour_errors": (outcome.contour_errors, "count"),
        "oracle.max_rel_dev": (work.stats.get("max_rel_dev", 0.0), "ratio"),
        "trace.overhead_ratio": (_ratio(traced_busy, plain_busy) - 1.0, "ratio"),
    }
    extra = {
        "fail_ratio": outcome.failed / outcome.attempted,
        "traced_ops": len(ops),
        "traced_program_seconds": traced_busy,
        "untraced_program_seconds": plain_busy,
        "spans": len(tracer.names),
        "workload_stats": dict(work.stats),
        "self_s_by_span": {k: v[2] for k, v in sorted(totals.items())},
        "inclusive_us_per_call_by_span": {k: v[1] * 1e6 / v[0] for k, v in sorted(totals.items())},
    }
    return {"outcome": outcome, "metrics": metrics, "extra": extra}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="gzip JSON file for the spans")
    args = parser.parse_args()

    import scipy

    import wsabsorb.cli  # noqa: F401  (loads every submodule before tracing)

    work = workloads.build(args.workload, args.seed)
    if args.trace:
        result = measure_traced(work, args.spans)
    else:
        result = measure(work, args.seconds)
    outcome = result["outcome"]
    print(json.dumps({
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "extra": result["extra"],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "wsabsorb": sys.modules["wsabsorb"].__version__,
                     "wsabsorb_path": sys.modules["wsabsorb"].__file__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
