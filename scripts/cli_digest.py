"""Print a digest of a fixed set of wsabsorb CLI invocations, one line each.

Each line holds the argv, the sha256 of what the call wrote to stdout and to
stderr, and its exit code, tab-separated.  The calls run in-process through
``wsabsorb.cli.main``, imported from the ``src/`` of the checkout this
script sits in, so comparing two checkouts is a ``diff`` of their outputs:

    python scripts/cli_digest.py > a.txt      # in one checkout
    python scripts/cli_digest.py > b.txt      # in the other
    diff a.txt b.txt

The set: the 47 scans recorded in ``bench/reference/scan.json.gz`` (read
only), the README commands in CSV and JSON, ``table1``, ``verify`` at seeds
20260810 and 7, two ``spectrum`` cases and one ``potential`` case beyond the
README's, two scans that end in a det-S error (a degenerate point at
E = 0.0625, and a window up to E = 1e14), the writer's edge cases (the
empty outputs of ``spectrum --families none`` and of a ``ranges`` window
that certifies nothing, in CSV and JSON; ``scan``, ``ranges`` and
``spectrum`` with ``--units internal``; ``potential`` with three ``--x``),
1000-point scans at the paper's narrow rho 0.0006 over E = 0.05..50 in both
variants, whose windows hold tens of thousands of flag points, two ``ranges``
windows that end in a det-S error (one refused in the grid stage, one in
the bisection, where the error names the energy that bisecting the crossings
one after another reads), and ``<command> --help`` for all six commands, so
a usage change shows too.
The help text is formatted at 80 columns whatever the terminal.

``scripts/cli_digest.txt`` holds the digest as committed; a byte change of
any of these outputs is an edit of that file:

    python scripts/cli_digest.py | diff scripts/cli_digest.txt -
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

README = (
    "scan --v0 1.2 --rho 1.8 --emin 0.05 --emax 6 --points 2381",
    "spectrum --v0 2 --rho 2 --families cpa-time-reversed --max-count 5",
    "ranges --v0 1 --rho 0.0006 --criterion cc-left --emin 3.0010 --emax 3.0030 --threshold 1e-6",
    "table1",
    "verify --seed 20260810",
    "potential --v0 1.2 --rho 1.8 --x 2 --x 4 --zmin -4 --zmax 4",
)
EXTRA = (
    "verify --seed 7",
    "spectrum --v0 1.2 --rho 1.8 --max-count 4 --units mev",
    "spectrum --v0 15 --rho 0.001 --families cc-left,ss-right,rprime-zeros --max-count 3",
    "potential --v0 2 --rho 0.5 --x -1.5 --zmin -2 --zmax 3 --points 7",
    "scan --v0 0.5 --rho 1 --emin 0.0624999375 --emax 0.0625000625 --points 33",
    "scan --v0 1.2 --rho 1.8 --emin 0.05 --emax 1e14 --points 50",
    "spectrum --v0 2 --rho 2 --families none",
    "spectrum --v0 2 --rho 2 --families none --format json",
    "ranges --v0 1.2 --rho 1.8 --criterion cpa --emin 0.5 --emax 0.6 --grid 256",
    "ranges --v0 1.2 --rho 1.8 --criterion cpa --emin 0.5 --emax 0.6 --grid 256 --format json",
    "scan --v0 1.2 --rho 1.8 --emin 0.05 --emax 6 --points 40 --units internal",
    "ranges --v0 1 --rho 0.0006 --emin 3.0010 --emax 3.0030 --grid 256 --units internal",
    "spectrum --v0 2 --rho 2 --max-count 3 --units internal",
    "potential --v0 1.2 --rho 1.8 --x 0 --x -2.5 --x 1e-3 --points 9",
    "scan --v0 1 --rho 0.0006 --emin 0.05 --emax 50 --points 1000",
    "scan --v0 1 --rho 0.0006 --emin 0.05 --emax 50 --points 1000 --variant time-reversed",
    "ranges --v0 2.9918303100607826 --rho 0.0031742263359435313 --criterion cpa"
    " --emin 2.533582260940835 --emax 3.040298713 --units internal",
    "ranges --v0 34.82446890288701 --rho 0.18833926610267235 --criterion cpa"
    " --emin 1.3856124670348917 --emax 1.4986784443449388 --threshold 0.03074863798154165"
    " --grid 1024 --units internal",
)
COMMANDS = ("scan", "spectrum", "ranges", "table1", "verify", "potential")


def invocations() -> list[list[str]]:
    """The argv lists, in the order they are run."""
    with gzip.open(ROOT / "bench" / "reference" / "scan.json.gz", "rt", encoding="utf-8") as handle:
        recorded = [list(op["argv"]) for op in json.load(handle)["ops"]]
    readme = [shlex.split(line) for line in README]
    return recorded + readme + [argv + ["--format", "json"] for argv in readme] + [
        shlex.split(line) for line in EXTRA] + [[command, "--help"] for command in COMMANDS]


def digest(main, argv: list[str]) -> str:
    """One output line for one call of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help and argparse usage errors
            code = exc.code
    sha = [hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err)]
    return "\t".join([shlex.join(argv), *sha, str(code)])


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to this width
    sys.path.insert(0, str(ROOT / "src"))
    from wsabsorb.cli import main as cli_main

    for argv in invocations():
        print(digest(cli_main, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
