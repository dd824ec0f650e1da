"""Count the kernel calls and energies of the benchmark's ``ranges`` ops.

    python scripts/range_calls.py --seeds 1-10

For each seed, the ops of one ``ranges`` cycle are built by
``bench/workloads.py`` (read only) and each runs once.  One line per seed
gives the kernel calls and the energies they evaluate in ``scan_ranges``'
grid stage (through ``_row_bounds`` and ``log10_coefficients``) and in its
bisection (through ``_log10_refusals``), counted by wrappers in
``wsabsorb.spectral``'s namespace; a last line gives the totals.  The counts
repeat exactly, where ``ranges`` timings cannot resolve a change in the
bisection, which is about a sixth of an op.  The program is imported from
the ``src/`` of the checkout this script sits in.

``scripts/range_calls.txt`` holds the counts of seeds 1-10 as committed; a
change in them is an edit of that file:

    python scripts/range_calls.py --seeds 1-10 | diff scripts/range_calls.txt -
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from bench_pairs import seed_range

ROOT = pathlib.Path(__file__).resolve().parent.parent
STAGES = {"_row_bounds": "grid", "log10_coefficients": "grid", "_log10_refusals": "bisection"}


def line(counts: dict) -> str:
    return ", ".join(f"{stage} {calls} calls {energies} energies"
                     for stage, (calls, energies) in counts.items())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from wsabsorb import spectral
    import workloads

    # building a cycle runs its seeded ops once, to redraw a window that raises
    cycles = {seed: workloads.ranges_workload(seed).cycle for seed in args.seeds}
    counts = {}  # per stage, [calls, energies]

    def counted(stage, kernel):
        def wrapped(tr_spec, *args):  # the energies come last
            counts[stage][0] += 1
            counts[stage][1] += args[-1].size
            return kernel(tr_spec, *args)
        return wrapped

    for name, stage in STAGES.items():
        setattr(spectral, name, counted(stage, getattr(spectral, name)))
    totals = {stage: [0, 0] for stage in STAGES.values()}
    for seed, ops in cycles.items():
        counts.update((stage, [0, 0]) for stage in totals)
        for op in ops:
            op.run()
        for stage, (calls, energies) in counts.items():
            totals[stage][0] += calls
            totals[stage][1] += energies
        print(f"seed {seed}: {len(ops)} ops, {line(counts)}")
    print(f"total: {len(args.seeds)} seeds, {line(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
