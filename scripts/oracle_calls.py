"""Count the series passes and integrations of the benchmark's ``oracle`` ops.

    python scripts/oracle_calls.py --seeds 1-5

For each seed, the ops of one ``oracle`` cycle are built by
``bench/workloads.py`` (read only) and each runs once.  One line per seed
gives the series passes of the contour oracle (``_gauss_sums`` calls) and
the rows they sum, and its integrations (``_integrate_core`` calls) and the
mesh points they take, counted by wrappers in ``wsabsorb.oracle``'s
namespace; a last line gives the totals.  The counts repeat exactly, where
``oracle`` timings cannot resolve a change of one Hermitian fit's route.  The
program is imported from the ``src/`` of the checkout this script sits in.

``scripts/oracle_calls.txt`` holds the counts of seeds 1-5 as committed; a
change in them is an edit of that file:

    python scripts/oracle_calls.py --seeds 1-5 | diff scripts/oracle_calls.txt -
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from bench_pairs import seed_range

ROOT = pathlib.Path(__file__).resolve().parent.parent


def line(counts: dict) -> str:
    (passes, rows), (integrations, points) = counts["series"], counts["integrations"]
    return (f"series {passes} passes {rows} rows, "
            f"integrations {integrations} calls {points} mesh points")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from wsabsorb import oracle
    import workloads

    cycles = {seed: workloads.oracle_workload(seed).cycle for seed in args.seeds}
    counts = {}  # per kind, [calls, rows or mesh points]
    gauss_sums, integrate_core = oracle._gauss_sums, oracle._integrate_core

    def series(abc, arg, *rest):
        counts["series"][0] += 1
        counts["series"][1] += arg.shape[0]
        return gauss_sums(abc, arg, *rest)

    def integration(*args):
        result = integrate_core(*args)
        counts["integrations"][0] += 1
        counts["integrations"][1] += result[2]
        return result

    oracle._gauss_sums, oracle._integrate_core = series, integration
    totals = {"series": [0, 0], "integrations": [0, 0]}
    for seed, ops in cycles.items():
        counts.update((kind, [0, 0]) for kind in totals)
        for op in ops:
            op.run()
        for kind, (calls, size) in counts.items():
            totals[kind][0] += calls
            totals[kind][1] += size
        print(f"seed {seed}: {len(ops)} ops, {line(counts)}")
    print(f"total: {len(args.seeds)} seeds, {line(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
