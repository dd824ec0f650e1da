"""Record the scan workload's operation pool and its reference output.

    python3 bench/record_reference.py

Writes bench/reference/scan.json.gz: for every pooled ``wsabsorb scan``
invocation, its argv and the log10 columns and flags of each output row,
exactly as printed.  The pool is drawn once from a fixed seed; a benchmark
run's ``--seed`` picks its cycle from this pool.  The reference was recorded
from the program at the commit that added the benchmark.  Re-recording makes
the new output the reference, so do it only for a change whose output
difference has been explained.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20261017


def _argv(v0, rho, variant, emin, emax, points):
    return ["scan", "--v0", repr(v0), "--rho", repr(rho), "--variant", variant,
            "--emin", repr(emin), "--emax", repr(emax), "--points", str(points)]


def _landing_energies(v0: float, rho: float, count: int = 8) -> list[float]:
    """The first ``count`` energies of each CC family (the forward partners
    of the spectral singularities), as the program enumerates them."""
    import wsabsorb.spectral as spectral
    from wsabsorb.units import PotentialSpec

    spec = PotentialSpec(v0, rho, 1.0)
    return sorted(p.energy for family in (spectral.cc_left_energies, spectral.cc_right_energies)
                  for p in family(spec, count))


def pool() -> list[dict]:
    rng = np.random.default_rng(POOL_SEED)
    variants = ("forward", "time-reversed")
    entries = [{"id": "readme", "class": "readme",
                "argv": ["scan", "--v0", "1.2", "--rho", "1.8", "--variant", "forward",
                         "--emin", "0.05", "--emax", "6", "--points", "2381"]}]
    # tiny rho: single Gamma factors of ~1e4 argument leave float range
    for variant in variants:
        entries.append({"id": f"deep-{variant}", "class": "deep",
                        "argv": _argv(1.0, 0.0006, variant, 3.0008, 3.0032, 80)})
    for i in range(32):
        v0, rho = rng.uniform(0.5, 8.0), rng.uniform(0.5, 3.0)
        emin = rng.uniform(0.05, 1.0)
        emax = emin + rng.uniform(2.0, 8.0)
        entries.append({"id": f"seeded-{i}", "class": "seeded",
                        "argv": _argv(v0, rho, variants[i % 2], emin, emax, 80)})
    # both window ends exactly on enumerated CC/SS energies: the pole path runs
    for i in range(12):
        v0, rho = rng.uniform(0.5, 8.0), rng.uniform(0.5, 3.0)
        energies = _landing_energies(v0, rho)
        lo = int(rng.integers(0, 5))
        hi = lo + int(rng.integers(2, 5))
        entries.append({"id": f"landing-{i}", "class": "landing",
                        "argv": _argv(v0, rho, variants[i % 2], energies[lo], energies[hi], 41)})
    return entries


def main() -> int:
    entries = pool()
    for entry in entries:
        out = workloads.run_cli(entry["argv"])
        if out.code != 0:
            sys.stderr.write(f"{entry['id']}: exit code {out.code}\n")
            return 1
        lines = out.text.splitlines()
        assert lines[0] == workloads.SCAN_HEADER, lines[0]
        entry["rows"] = [",".join(line.split(",")[2:]) for line in lines[1:]]
    os.makedirs(os.path.dirname(workloads.SCAN_REFERENCE), exist_ok=True)
    with gzip.GzipFile(workloads.SCAN_REFERENCE, "wb", mtime=0) as raw:
        raw.write(json.dumps({"pool_seed": POOL_SEED, "ops": entries},
                             separators=(",", ":")).encode("utf-8"))
    print(f"wrote {len(entries)} operations to {workloads.SCAN_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
