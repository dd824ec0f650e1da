"""Workload definitions: seeded inputs, the timed call into wsabsorb, and
the correctness check of its output.

An operation is one call into the public API (``cli.main``,
``scan_ranges`` or one oracle-vs-closed-form energy).  Its ``run`` is what
gets timed; its ``check`` runs afterwards, untimed, and returns ``None`` or
the reason the output is wrong.  Program functions are looked up through
their modules at call time, so the tracer's wrappers are seen.

Every workload is a seeded cycle of operations that a run repeats a fixed
number of times, so each run holds the same mix and every operation has as
many repeats as there were cycles.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SCAN_REFERENCE = os.path.join(BENCH_DIR, "reference", "scan.json.gz")

LOG10_TOLERANCE = 1e-9         # relative, on log10 columns, floor 1 decade
ORACLE_GATE = 1e-6             # acceptance gate on oracle deviations
HERMITIAN_FLOOR = 1e-12        # smallest Hermitian |r| a draw may have
RANGES_GRID = 1024             # grid points per bracket, as `wsabsorb table1` uses
RANGES_SEEDED = 5              # seeded CPA windows per ranges cycle: 10 ops, so that
                               # the p75 of 5 cycles is the middle README repeat
ORACLE_CYCLE = 48              # oracle draws per cycle
TRACE_CYCLES = 2               # cycles the traced run goes through
# Seconds per cycle that turn --seconds into a cycle count (a count, not a
# clock).  A 20 s run holds 23 scan cycles, 5 ranges cycles (so that its tail
# has five README repeats to lie among) and 8 oracle cycles.
CYCLE_SECONDS = {"scan": 0.9, "ranges": 4.0, "oracle": 2.5}

WORKLOADS = ("scan", "ranges", "oracle")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Workload:
    """A seeded cycle of operations.  A run repeats whole cycles; the traced
    run goes once through TRACE_CYCLES of them."""

    name: str
    cycle: list[Op]
    stats: dict = field(default_factory=dict)

    @property
    def cycle_s(self) -> float:
        return CYCLE_SECONDS[self.name]


def _mods():
    import wsabsorb.cli  # noqa: F401  (imports every submodule)

    return sys.modules


# -- scan -------------------------------------------------------------------------

SCAN_HEADER = ("energy_internal,energy_ev,log10_Rl,log10_Rr,log10_T,"
               "log10_absdetS,flags")


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str


def run_cli(argv) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _mods()["wsabsorb.cli"].main(list(argv))
    return CliOutput(code, buf.getvalue())


def load_scan_reference(path: str = SCAN_REFERENCE) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def _log10_mismatch(got: str, want: str) -> bool:
    """True unless both are the same infinity or finite and close; a NaN
    never matches."""
    if got in ("inf", "-inf") or want in ("inf", "-inf"):
        return got != want
    a, b = float(got), float(want)
    return not abs(a - b) <= LOG10_TOLERANCE * max(1.0, abs(b))


def check_scan(output: CliOutput, rows: list[str]) -> "str | None":
    if output.code != 0:
        return f"exit code {output.code}"
    lines = output.text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return "unexpected header"
    if len(lines) - 1 != len(rows):
        return f"{len(lines) - 1} rows, reference has {len(rows)}"
    for i, (line, ref) in enumerate(zip(lines[1:], rows)):
        got = line.split(",")
        want = ref.split(",")
        if len(got) != 7:
            return f"row {i}: {len(got)} fields"
        if got[6] != want[4]:
            return f"row {i}: flags {got[6]!r} != {want[4]!r}"
        for col, g, w in zip(("Rl", "Rr", "T", "absdetS"), got[2:6], want[:4]):
            if _log10_mismatch(g, w):
                return f"row {i}: log10_{col} {g} != {w}"
    return None


def scan_cycle(seed: int, reference: dict) -> list[Op]:
    """README scan, 8 seeded specs, the deep well twice, 4 landing windows.

    The seed picks the specs and landing windows from the recorded pool and
    shuffles the cycle.  Each class keeps a fixed count, so the latency
    percentiles sit inside one class: p95 inside the README scans (1 in 15)
    and the median inside the seeded 80-point scans.
    """
    rng = np.random.default_rng(seed)
    pool = {}
    for entry in reference["ops"]:
        pool.setdefault(entry["class"], []).append(entry)
    chosen = list(pool["readme"]) + list(pool["deep"])
    for cls, per_variant in (("seeded", 4), ("landing", 2)):
        for variant in ("forward", "time-reversed"):
            members = [e for e in pool[cls] if e["argv"][e["argv"].index("--variant") + 1] == variant]
            picks = rng.choice(len(members), size=per_variant, replace=False)
            chosen += [members[i] for i in sorted(picks)]
    order = rng.permutation(len(chosen))
    ops = []
    for i in order:
        entry = chosen[i]
        ops.append(Op(
            label=f"scan:{entry['id']}",
            run=lambda argv=tuple(entry["argv"]): run_cli(argv),
            check=lambda out, rows=entry["rows"]: check_scan(out, rows),
        ))
    return ops


def scan_workload(seed: int, reference: dict | None = None) -> Workload:
    cycle = scan_cycle(seed, reference or load_scan_reference())
    return Workload("scan", cycle)


# -- ranges -----------------------------------------------------------------------

README_RANGES = ("readme", 1.0, 0.0006, "cc_left", (3.0010, 3.0030), 1e-6)


def _singularities(v0: float, rho: float, above: float, count: int) -> list[float]:
    """The first ``count`` spectral singularities >= ``above`` of both
    families, as the program enumerates them."""
    spectral = _mods()["wsabsorb.spectral"]
    spec = _mods()["wsabsorb.units"].PotentialSpec(v0, rho, 1.0)
    max_count = count + math.ceil(4.0 * math.sqrt(above + v0) / rho)
    energies = [p.energy for side in spectral.Side
                for p in spectral.ss_energies(spec, side, max_count)]
    return sorted(e for e in energies if e >= above)[:count]


def _bracket_check(found, published=None, unit=None) -> "str | None":
    for r in found:
        lo_ss, hi_ss = r.bracketing_ss
        if not lo_ss.energy <= r.lo <= r.hi <= hi_ss.energy:
            return (f"range [{r.lo!r}, {r.hi!r}] outside its singularities "
                    f"[{lo_ss.energy!r}, {hi_ss.energy!r}]")
    if published is not None:
        plo, phi = published
        convert = _mods()["wsabsorb.units"].convert_energy
        if not any(convert(r.lo, to_units=unit) < phi and convert(r.hi, to_units=unit) > plo
                   for r in found):
            return f"no range overlaps the published interval [{plo}, {phi}]"
    return None


def _ranges_op(label, spec, criterion, window, threshold, published=None, unit=None) -> Op:
    def run():
        spectral = _mods()["wsabsorb.spectral"]
        return spectral.scan_ranges(spec, criterion, window, threshold, RANGES_GRID)

    return Op(f"ranges:{label}", run, lambda found: _bracket_check(found, published, unit))


def ranges_cycle(seed: int, stats: dict) -> list[Op]:
    """The four scenarios of ``wsabsorb table1`` (CC and CPA at the paper's
    tiny rho), the README case and RANGES_SEEDED seeded CPA windows of two
    brackets each at moderate rho, all on the table's grid.  The seeded
    |det S'| crosses the 1e-3 threshold inside the brackets, so passing
    runs end inside a bracket and bisection runs; the table scenarios pass
    on every grid point and never bisect.

    Seeded CC windows are left out: at moderate rho a CC run ends only at
    the spike next to a singularity, about 1e-10 relative away from it,
    and there ``amplitudes`` raises the det-S ArithmeticError on about 2 %
    of windows.  The same error hits a few CPA windows at some grid point;
    each seeded window is run once here, untimed, and drawn again if it
    raises, and ``stats`` counts the redraws (see README.md, known
    defects)."""
    rng = np.random.default_rng(seed)
    mods = _mods()
    spectral, units = mods["wsabsorb.spectral"], mods["wsabsorb.units"]
    ops = [_ranges_op(label, spec, crit, window, thr, (plo, phi), unit)
           for label, spec, crit, window, thr, plo, phi, unit in mods["wsabsorb.cli"]._table1_ranges()]
    label, v0, rho, crit, window, thr = README_RANGES
    ops.append(_ranges_op(label, units.PotentialSpec(v0, rho, 1.0),
                          spectral.RangeCriterion(crit), window, thr))
    seeded = 0
    while seeded < RANGES_SEEDED:
        v0, rho = rng.uniform(1.5, 3.0), rng.uniform(0.25, 0.4)
        ss = _singularities(v0, rho, rng.uniform(1.0, 2.5), 3)
        op = _ranges_op(f"cpa{seeded}", units.PotentialSpec(v0, rho, 1.0),
                        spectral.RangeCriterion.CPA_RANGE, (ss[0], ss[2]), 1e-3)
        try:
            op.run()
        except ArithmeticError:
            stats["redrawn_windows"] += 1
            continue
        ops.append(op)
        seeded += 1
    return [ops[i] for i in rng.permutation(len(ops))]


def ranges_workload(seed: int) -> Workload:
    stats = {"redrawn_windows": 0}
    return Workload("ranges", ranges_cycle(seed, stats), stats)


# -- oracle -----------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    g_closed: tuple
    g_oracle: tuple
    tr_closed: object
    tr_oracle: object
    herm_closed: object
    herm_oracle: object


_AMP_FIELDS = ("rl", "rr", "tl", "det_s")


def oracle_deviation(res: OracleResult) -> float:
    """Worst deviation of the oracle from the closed form over the three
    pairs: relative for the complexified potential, and on the unit scale of
    the unitary S matrix (|r|, |t| <= 1) for the Hermitian one, whose
    reflection can lie many decades below its transmission."""
    devs = []
    for closed, num in zip(res.g_closed, res.g_oracle):
        a = closed.to_complex()
        devs.append(abs(a - num) / abs(a))
    for (closed, num), floor in (((res.tr_closed, res.tr_oracle), 0.0),
                                 ((res.herm_closed, res.herm_oracle), 1.0)):
        for f in _AMP_FIELDS:
            a = getattr(closed, f).to_complex()
            devs.append(abs(a - getattr(num, f).to_complex()) / max(abs(a), floor))
    # a NaN on either side is infinitely wrong, not ignored by max()
    return max(devs) if all(math.isfinite(d) for d in devs) else math.inf


def _hermitian_resolvable(v0: float, delta: float, energy: float) -> bool:
    """Both Hermitian reflection amplitudes at least HERMITIAN_FLOOR.  The
    oracle resolves them to about 1e-13 on the unit scale; much further down
    its reflection rounds to an exact zero and ``hermitian_oracle_amplitudes``
    raises ValueError (see README.md, known defects)."""
    amps = sys.modules["wsabsorb.amplitudes"].hermitian_amplitudes(v0, delta, 1.0, energy)
    return min(amps.rl.magnitude, amps.rr.magnitude) >= HERMITIAN_FLOOR


def _oracle_op(i: int, v0: float, rho: float, energy: float, stats: dict) -> Op:
    def run():
        mods = _mods()
        amp, ora = mods["wsabsorb.amplitudes"], mods["wsabsorb.oracle"]
        units = mods["wsabsorb.units"]
        spec = units.PotentialSpec(v0, rho, 1.0)
        tr = replace(spec, variant=units.Variant.TIME_REVERSED)
        g_oracle = ora.oracle_g_factors(spec, energy)
        gf = amp.g_factors(amp.channel_params(spec, energy))
        return OracleResult(
            (gf.g1, gf.g2, gf.g3, gf.g4), g_oracle,
            amp.amplitudes(tr, energy), ora.oracle_amplitudes(tr, energy),
            amp.hermitian_amplitudes(v0, rho, 1.0, energy),
            ora.hermitian_oracle_amplitudes(v0, rho, 1.0, energy),
        )

    def check(res):
        dev = oracle_deviation(res)
        stats["max_rel_dev"] = max(stats.get("max_rel_dev", 0.0), dev)
        if not dev <= ORACLE_GATE:
            return f"deviation {dev:.3e} above the {ORACLE_GATE:g} gate"
        return None

    return Op(f"oracle:{i}", run, check)


def oracle_workload(seed: int) -> Workload:
    """A cycle of ORACLE_CYCLE draws v0 in [0.5, 5], rho in [0.5, 3],
    E in [0.1, 10], kept when ``oracle_domain_ok`` accepts them (about half
    are) and the Hermitian partner (delta = rho) reflects at least
    HERMITIAN_FLOOR (about 9 in 10 of those do).  ``stats`` counts the
    domain checks."""
    rng = np.random.default_rng(seed)
    mods = _mods()
    stats = {"domain_checks": 0, "domain_accepted": 0}
    ops = []
    while len(ops) < ORACLE_CYCLE:
        v0, rho, energy = rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), rng.uniform(0.1, 10.0)
        spec = mods["wsabsorb.units"].PotentialSpec(v0, rho, 1.0)
        stats["domain_checks"] += 1
        if not mods["wsabsorb.oracle"].oracle_domain_ok(spec, energy):
            continue
        stats["domain_accepted"] += 1
        if _hermitian_resolvable(v0, rho, energy):
            ops.append(_oracle_op(len(ops), v0, rho, energy, stats))
    return Workload("oracle", ops, stats)


def build(name: str, seed: int) -> Workload:
    if name == "scan":
        return scan_workload(seed)
    if name == "ranges":
        return ranges_workload(seed)
    if name == "oracle":
        return oracle_workload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
