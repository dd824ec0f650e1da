"""Command-line front end: scans, spectral tables, range certification,
reference-table reproduction, and the invariant verification suite.

Output is CSV by default (12 significant digits, ``inf``/``-inf`` tokens
for singular rows) or JSON mirroring the same fields; identical
invocations produce byte-identical output.  Every command hands its output
to one writer, :func:`_emit`, as columns and a params dict; the writer reads
the command's name from the parsed arguments, so a command is named once,
by its subparser.  Every CSV document is formatted by one function,
:func:`_csv`.  Table 1's published rows are data: the point rows
``_TABLE1_POINTS`` and the range rows ``_table1_ranges``.  Exit codes: 0 success,
1 validation error (a flag or ``--config`` value that argparse refuses
included), failed det-S cross-check or a grid too large for memory,
2 acceptance mismatch (table1/verify).

A ``--config`` file's ``key = value`` lines are read by the same parser as
the flags, as ``--key=value`` tokens placed before the command line's own,
so a flag wins and a config value is converted, checked and refused just as
the flag would be.

In-process calls of :func:`main` share one parser per process, built on
the first call and never changed by parsing, so repeated calls (from
threads too) do not pay for argparse again; :func:`build_parser` returns a
fresh parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import spectral
from .amplitudes import log10_coefficients, potential_profile
from .invariants import SUITES
from .spectral import (
    RangeCriterion,
    SpectralFamily,
    critical_points,
    scan_ranges,
)
from .units import (
    EnergyUnit,
    PotentialSpec,
    Variant,
    _check_finite,
    _check_window,
    convert_energy,
)

# the --units choices: each display unit's column suffix and its factor from
# internal energies (the internal unit's is 1, so energy * factor is
# convert_energy's value)
_DISPLAY_UNITS = {unit.value: (suffix, convert_energy(1.0, EnergyUnit.INTERNAL, unit))
                  for unit, suffix in ((EnergyUnit.INTERNAL, "display_internal"),
                                       (EnergyUnit.ELECTRON_VOLT, "ev"),
                                       (EnergyUnit.MEGA_ELECTRON_VOLT, "mev"))}

# a negative number, exponent notation included: argparse's own pattern
# leaves out "-1e-3", so "--x -1e-3" read it as a flag missing its value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1 and which takes
    a negative number in exponent notation as a flag's value.  Subparsers
    are made of the same class, so they take it too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _fmt(x: float) -> str:
    if math.isnan(x):
        raise ValueError("refusing to emit NaN")
    return f"{x:.12g}"


def _cell(value):
    """The JSON cell of an output value: a float is the number its CSV token
    shows (``inf``/``-inf`` stay strings), an int an int, text text."""
    if isinstance(value, float):
        token = _fmt(value)
        return token if math.isinf(value) else float(token)
    return value


# rows per formatting call of a CSV document: a large scan holds the boxed
# floats of one block at a time, never of the whole grid
_CSV_BLOCK_ROWS = 4096


def _csv(names, columns) -> list[str]:
    """CSV text as a list of blocks: the header line, then the lines of
    each block of rows of the columns.

    A float array's tokens are ``%.12g``, the bytes of :func:`_fmt`; a
    list's floats go through :func:`_fmt` and its other values through
    ``str()``.  Neither a float array nor a list of only str and int cells
    (one C-level type pass finds those) takes per-cell work in Python.
    Each block of rows is one ``%`` call, and the blocks are never joined,
    so a large scan holds its text once."""
    if np.isnan([c for c in columns if isinstance(c, np.ndarray)]).any():
        raise ValueError("refusing to emit NaN")
    columns = [c if isinstance(c, np.ndarray) or {str, int}.issuperset(map(type, c))
               else [_fmt(v) if isinstance(v, float) else v for v in c] for c in columns]
    line = ",".join("%.12g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    parts = [",".join(names) + "\n"]
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, len(columns[0]))
        block = np.empty((stop - start, len(columns)), dtype=object)
        for j, column in enumerate(columns):
            block[:, j] = column[start:stop]
        parts.append(line * len(block) % tuple(block.ravel().tolist()))
    return parts


def _emit(args, names, columns, params):
    """Write a command's output, one column per name, as CSV or JSON, to
    ``--out`` or stdout.

    Each column is a float array or a list (or tuple) of values, formatted
    as :func:`_csv` says, whose blocks are written as they are.  A JSON
    document names the command as parsed (``args.command``, the
    subcommand's name) and its ``params``; a JSON row zips the columns'
    values, and each cell takes its type from the value, not the token
    (:func:`_cell`).  The document is formatted whole before ``--out`` is
    opened, so a refused document (a NaN) writes nothing."""
    if args.format == "json":
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        doc = {
            "command": args.command,
            "params": params,
            "rows": [{n: _cell(v) for n, v in zip(names, row)} for row in zip(*cells)],
        }
        parts = [json.dumps(doc, indent=2), "\n"]
    else:
        parts = _csv(names, columns)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _exit_code(rows) -> int:
    """A table's exit code from its rows' last (status) column: 2 if any
    row reads FAIL, else 0."""
    return 2 if any(row[-1] == "FAIL" for row in rows) else 0


def _options(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Each command's options by their keys (``max_count`` for
    ``--max-count``), less ``--config`` and ``--help``."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in sub._actions if a.option_strings} - {"config", "help"}
            for name, sub in commands.choices.items()}


def _config_tokens(parser: argparse.ArgumentParser, args) -> list[str]:
    """One ``--key=value`` token per line of the ``--config`` file, whose
    keys must be options of the command."""
    loaded = []
    with open(args.config, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {raw!r} is not 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            loaded.append((key.replace("-", "_"), value))
    keys, options = {key for key, _ in loaded}, _options(parser)
    unknown = keys - set().union(*options.values())
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    foreign = sorted(keys - options[args.command])
    if foreign:
        raise ValueError(f"config keys {foreign} are not options of {args.command}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in loaded]


def _spec_from_args(args) -> PotentialSpec:
    if args.v0 is None or args.rho is None:
        raise ValueError("both --v0 and --rho are required (flag or config)")
    # --mass and --variant exist only where an output reads them
    given = getattr(args, "variant", "forward")
    variant = {v.value: v for v in Variant}.get(given.replace("-", "_"))
    if variant is None:
        raise ValueError(f"unknown variant {given!r}")
    return PotentialSpec(args.v0, args.rho, getattr(args, "mass", 1.0), variant)


# -- flag annotation -----------------------------------------------------------


# Scan flags per variant, with the family whose points carry them.  The
# a2 + a3 = M points are bidirectional absorbers of the time-reversed
# potential and spectral singularities of the forward one.  CC_LEFT's row,
# 2 a3 = n, is also CPA_FORWARD_A3's, so it is read once for both flags;
# CPA_FORWARD_A2 is 2 a2 = n + 1, offset from CC_RIGHT's row.
_SCAN_FLAGS = {
    Variant.FORWARD: (
        (SpectralFamily.CC_LEFT, ("CC_L", "CPA")),
        (SpectralFamily.CC_RIGHT, ("CC_R",)),
        (SpectralFamily.CPA_FORWARD_A2, ("CPA",)),
        (SpectralFamily.CPA_TIME_REVERSED, ("SS",)),
    ),
    Variant.TIME_REVERSED: (
        (SpectralFamily.SS_LEFT, ("SS",)),
        (SpectralFamily.SS_RIGHT, ("SS",)),
        (SpectralFamily.CPA_TIME_REVERSED, ("CPA",)),
    ),
}


def _scan_flags(spec: PotentialSpec, grid: np.ndarray) -> list[str]:
    """'|'-joined flags per grid energy: a family's flags where ``snap`` puts
    the energy on one of its points, with DEGENERATE where that point is."""
    hits: dict[int, set[str]] = {}
    for family, flags in _SCAN_FLAGS[spec.variant]:
        for i, point in spectral._grid_points(spec, family, grid).items():
            hits.setdefault(i, set()).update((*flags, "DEGENERATE") if point.degenerate else flags)
    found = [""] * len(grid)
    for i, names in hits.items():
        found[i] = "|".join(sorted(names))
    return found


# -- subcommands ----------------------------------------------------------------


def cmd_scan(args) -> int:
    spec = _spec_from_args(args)
    suffix, factor = _DISPLAY_UNITS[args.units]
    emin, emax, points = args.emin, args.emax, args.points
    if emin is None or emax is None:
        raise ValueError("--emin and --emax are required")
    _check_window((emin, emax))
    if points < 2:
        raise ValueError("--points must be at least 2")
    grid = np.linspace(emin, emax, points)
    logs = log10_coefficients(spec, grid)
    # log10 magnitudes flush to +-inf beyond 300 decades, in place
    np.copysign(np.inf, logs, out=logs, where=np.abs(logs) >= 300.0)
    flags = _scan_flags(spec, grid)
    _emit(args, ["energy_internal", "energy_" + suffix, "log10_Rl", "log10_Rr",
                 "log10_T", "log10_absdetS", "flags"],
          [grid, grid * factor, *logs, flags],
          {"v0": spec.v0, "rho": spec.rho, "mass": spec.mass, "variant": spec.variant.value,
           "emin": emin, "emax": emax, "points": points, "units": args.units})
    return 0


_FAMILY_CHOICES = {
    "cc-left": (SpectralFamily.CC_LEFT,),
    "cc-right": (SpectralFamily.CC_RIGHT,),
    "ss-left": (SpectralFamily.SS_LEFT,),
    "ss-right": (SpectralFamily.SS_RIGHT,),
    "cpa-forward": (SpectralFamily.CPA_FORWARD_A2, SpectralFamily.CPA_FORWARD_A3),
    "cpa-time-reversed": (SpectralFamily.CPA_TIME_REVERSED,),
    "rprime-zeros": (SpectralFamily.RPRIME_LEFT_ZERO,),
}


def cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    suffix, factor = _DISPLAY_UNITS[args.units]
    max_count, raw = args.max_count, args.families
    if max_count < 0:
        raise ValueError("max_count must be non-negative")
    if raw == "all":
        tokens = list(_FAMILY_CHOICES)
    elif raw == "none":
        tokens = []
    else:
        tokens = [token.strip() for token in raw.split(",")]
        for i, token in enumerate(tokens):
            if token not in _FAMILY_CHOICES:
                raise ValueError(f"unknown family {token!r}")
            if token in tokens[:i]:
                raise ValueError(f"family {token!r} given twice")
    families = [family for token in tokens for family in _FAMILY_CHOICES[token]]
    total, cap = max_count * len(families), spectral._MAX_WINDOW_INDICES
    # a count above the cap is refused by critical_points, naming the family
    if max_count <= cap < total:
        raise ValueError(f"--max-count {max_count} over {len(families)} families asks for "
                         f"{total} points, more than {cap}")
    points = sorted((p for family in families for p in critical_points(spec, family, count=max_count)),
                    key=lambda p: (p.kind.value, p.index))
    energies = np.array([p.energy for p in points], dtype=float)
    _emit(args, ["family", "index", "energy_internal", "energy_" + suffix, "degenerate"],
          [[p.kind.value for p in points], [p.index for p in points], energies,
           energies * factor, [str(p.degenerate).lower() for p in points]],
          {"v0": spec.v0, "rho": spec.rho, "mass": spec.mass,
           "families": [token.replace("-", "_") for token in tokens],
           "max_count": max_count, "units": args.units})
    return 0


def cmd_ranges(args) -> int:
    spec = _spec_from_args(args)
    suffix, factor = _DISPLAY_UNITS[args.units]
    criterion = RangeCriterion(args.criterion.replace("-", "_"))
    if args.emin is None or args.emax is None:
        raise ValueError("--emin and --emax are required")
    found = scan_ranges(spec, criterion, (args.emin, args.emax), args.threshold, args.grid)
    lo, hi = (np.array([getattr(r, end) for r in found], dtype=float) for end in ("lo", "hi"))
    columns = [[r.criterion.value for r in found], lo, hi, lo * factor, hi * factor,
               np.array([r.threshold for r in found], dtype=float)]
    for side in (0, 1):
        ss = [r.bracketing_ss[side] for r in found]
        columns += [[p.kind.value for p in ss], [p.index for p in ss],
                    np.array([p.energy for p in ss], dtype=float)]
    columns.append([";".join(_fmt(p.energy) for p in r.interior_zeros) for r in found])
    _emit(args, ["criterion", "lo_internal", "hi_internal", "lo_" + suffix, "hi_" + suffix,
                 "threshold", "ss_lo_family", "ss_lo_index", "ss_lo_internal",
                 "ss_hi_family", "ss_hi_index", "ss_hi_internal", "interior_zeros"], columns,
          {"v0": spec.v0, "rho": spec.rho, "mass": spec.mass, "criterion": criterion.value,
           "emin": args.emin, "emax": args.emax, "threshold": args.threshold,
           "grid": args.grid, "units": args.units})
    return 0


# -- reference table -------------------------------------------------------------


# Table 1's published point rows: (row, the paper's label, v0, rho, family,
# index, published eV), each at mass 1
_TABLE1_POINTS = (
    ("cc_left", "E_3^l", 1.2, 1.8, SpectralFamily.CC_LEFT, 3, 16.94),
    ("cc_left", "E_4^l", 1.2, 1.8, SpectralFamily.CC_LEFT, 4, 55.50),
    ("cc_left", "E_5^l", 1.2, 1.8, SpectralFamily.CC_LEFT, 5, 105.07),
    ("cc_right", "E_1^r", 1.2, 1.8, SpectralFamily.CC_RIGHT, 1, 5.51),
    ("cc_right", "E_2^r", 1.2, 1.8, SpectralFamily.CC_RIGHT, 2, 22.04),
    ("cc_right", "E_3^r", 1.2, 1.8, SpectralFamily.CC_RIGHT, 3, 49.58),
    ("cpa_forward", "E_n1=1", 2.0, 2.0, SpectralFamily.CPA_FORWARD_A2, 1, 27.2),
    ("cpa_forward", "E_n2=4", 2.0, 2.0, SpectralFamily.CPA_FORWARD_A3, 4, 54.4),
    ("cpa_forward", "E_n1=2", 2.0, 2.0, SpectralFamily.CPA_FORWARD_A2, 2, 61.2),
    ("cpa_time_reversed", "E*_M=3", 2.0, 2.0, SpectralFamily.CPA_TIME_REVERSED, 3, 37.03),
    ("cpa_time_reversed", "E*_M=4", 2.0, 2.0, SpectralFamily.CPA_TIME_REVERSED, 4, 83.32),
    ("cpa_time_reversed", "E*_M=5", 2.0, 2.0, SpectralFamily.CPA_TIME_REVERSED, 5, 143.92),
)


def _table1_ranges():
    """(label, spec, criterion, window_internal, threshold, published_lo, published_hi, unit)"""
    ev = EnergyUnit.ELECTRON_VOLT
    mev = EnergyUnit.MEGA_ELECTRON_VOLT
    def internal(x, unit):
        return convert_energy(x, unit, EnergyUnit.INTERNAL)
    return [
        ("cc_range_narrow", PotentialSpec(1.0, 0.0006, 1.0), RangeCriterion.CC_LEFT_RANGE,
         (internal(81.60, ev), internal(81.75, ev)), 1e-6, 81.6791, 81.6954, ev),
        ("cc_range_wide", PotentialSpec(5.5e6, 60.0, 1.0), RangeCriterion.CC_LEFT_RANGE,
         (internal(1.30, mev), internal(3.17, mev)), 1e-3, 1.37, 1.83, mev),
        ("cpa_range_narrow", PotentialSpec(15.0, 0.001, 1.0), RangeCriterion.CPA_RANGE,
         (internal(408.05, ev), internal(408.30, ev)), 1e-6, 408.096, 408.258, ev),
        ("cpa_range_wide", PotentialSpec(5.5e6, 60.0, 1.0), RangeCriterion.CPA_RANGE,
         (internal(0.054, mev), internal(0.098, mev)), 1e-6, 0.055, 0.097, mev),
    ]


def cmd_table1(args) -> int:
    names = ["row", "quantity", "params", "computed", "published", "unit",
             "rel_dev", "status"]
    rows = []
    for row, label, v0, rho, family, index, ref in _TABLE1_POINTS:
        # the first `index` points hold point `index`: their indices are distinct and >= 1
        point = next(p for p in critical_points(PotentialSpec(v0, rho, 1.0), family, count=index)
                     if p.index == index)
        computed = convert_energy(point.energy, to_units=EnergyUnit.ELECTRON_VOLT)
        dev = abs(computed - ref) / ref
        rows.append([row, label, f"v0={v0:g} rho={rho:g} m=1", computed, ref, "eV", dev,
                     "PASS" if dev <= 0.005 else "FAIL"])
    for label, spec, criterion, window, threshold, plo, phi, unit in _table1_ranges():
        found = scan_ranges(spec, criterion, window, threshold, grid_points=args.grid)
        overlap = any(
            convert_energy(r.lo, to_units=unit) < phi
            and convert_energy(r.hi, to_units=unit) > plo
            for r in found
        )
        span = "none" if not found else (
            f"{convert_energy(found[0].lo, to_units=unit):.6g}.."
            f"{convert_energy(found[-1].hi, to_units=unit):.6g}"
        )
        rows.append([label, f"overlap[{plo:g}, {phi:g}]",
                     f"v0={spec.v0:g} rho={spec.rho:g} m={spec.mass:g}",
                     span, f"{plo:g}..{phi:g}",
                     {EnergyUnit.ELECTRON_VOLT: "eV",
                      EnergyUnit.MEGA_ELECTRON_VOLT: "MeV"}[unit],
                     "overlap" if overlap else "disjoint",
                     "PASS" if overlap else "FAIL"])
    _emit(args, names, list(zip(*rows)), {"grid": args.grid})
    return _exit_code(rows)


# -- verification suite -----------------------------------------------------------


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    names = ["suite", "max_deviation", "tolerance", "status"]
    rows = []
    for name, check, tol in SUITES:
        worst = check(np.random.default_rng(args.seed))
        rows.append([name, float(worst), float(tol), "PASS" if worst <= tol else "FAIL"])
    _emit(args, names, list(zip(*rows)), {"seed": args.seed})
    return _exit_code(rows)


def cmd_potential(args) -> int:
    spec = _spec_from_args(args)
    xs = args.x or [2.0, 4.0]
    zmin, zmax, points = args.zmin, args.zmax, args.points
    for name, value in [("--x", x) for x in xs] + [("--zmin", zmin), ("--zmax", zmax)]:
        _check_finite(name, value)
    if points < 2 or zmax <= zmin:
        raise ValueError("need points >= 2 and zmax > zmin")
    # each profile needs columns of its own, or a JSON row keeps only one
    tags = [f"{x:g}".replace("-", "m").replace(".", "p") for x in xs]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"--x {xs[tags.index(tag)]} and --x {xs[i]} share the "
                             f"columns re_V_x{tag}, im_V_x{tag}")
    zeta = np.linspace(zmin, zmax, points)
    profiles = [potential_profile(spec, x, zeta) for x in xs]
    _emit(args, ["zeta", *(f"{part}_V_x{tag}" for tag in tags for part in ("re", "im"))],
          [zeta, *(part for profile in profiles for part in (profile.real, profile.imag))],
          {"v0": spec.v0, "rho": spec.rho, "x": xs, "zmin": zmin, "zmax": zmax, "points": points})
    return 0


# -- wiring -----------------------------------------------------------------------


def _add_common(sub, spec_flags=(), window_flags=False, units_flag=True):
    """The options several commands share.  ``spec_flags`` names the
    potential's parameters (of v0, rho, mass and variant) that the
    command's output reads; each gets its flag."""
    sub.add_argument("--config", help="key = value file supplying defaults")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="write output to PATH instead of stdout")
    if units_flag:
        sub.add_argument("--units", choices=tuple(_DISPLAY_UNITS), default="ev")
    for name in spec_flags:
        if name == "variant":
            sub.add_argument("--variant", default="forward", help="forward or time-reversed")
        else:
            sub.add_argument(f"--{name}", type=float, default=1.0 if name == "mass" else None)
    if window_flags:
        sub.add_argument("--emin", type=float, default=None)
        sub.add_argument("--emax", type=float, default=None)


def build_parser() -> _Parser:
    """A fresh parser for every wsabsorb subcommand."""
    parser = _Parser(prog="wsabsorb",
                     description="Scattering analysis of the gain/loss-symmetric "
                                 "complexified Wood-Saxon potential.")
    subs = parser.add_subparsers(dest="command", required=True)

    scan = subs.add_parser("scan", help="amplitude scan over an energy window")
    _add_common(scan, ("v0", "rho", "mass", "variant"), window_flags=True)
    scan.add_argument("--points", type=int, default=1000)
    scan.set_defaults(func=cmd_scan)

    spectrum = subs.add_parser("spectrum", help="closed-form critical energies")
    _add_common(spectrum, ("v0", "rho", "mass"))
    spectrum.add_argument("--families", default="all",
                          help="comma list of " + ",".join(_FAMILY_CHOICES)
                               + ", or all/none")
    spectrum.add_argument("--max-count", dest="max_count", type=int,
                          default=spectral.DEFAULT_MAX_COUNT)
    spectrum.set_defaults(func=cmd_spectrum)

    ranges = subs.add_parser("ranges", help="certified absorption ranges")
    _add_common(ranges, ("v0", "rho", "mass"), window_flags=True)
    ranges.add_argument("--criterion", choices=tuple(c.value.replace("_", "-") for c in RangeCriterion),
                        default="cc-left")
    ranges.add_argument("--threshold", type=float, default=spectral.DEFAULT_THRESHOLD)
    ranges.add_argument("--grid", type=int, default=spectral.DEFAULT_GRID_POINTS)
    ranges.set_defaults(func=cmd_ranges)

    table1 = subs.add_parser("table1", help="reproduce the published reference table")
    _add_common(table1, units_flag=False)
    table1.add_argument("--grid", type=int, default=1024)
    table1.set_defaults(func=cmd_table1)

    verify = subs.add_parser("verify", help="run the cross-module invariant suites")
    _add_common(verify, units_flag=False)
    verify.add_argument("--seed", type=int, default=20260810)
    verify.set_defaults(func=cmd_verify)

    potential = subs.add_parser("potential", help="sample the complex potential")
    _add_common(potential, ("v0", "rho", "variant"), units_flag=False)
    potential.add_argument("--x", type=float, action="append", default=None,
                           help="real offset; repeatable")
    potential.add_argument("--zmin", type=float, default=-4.0)
    potential.add_argument("--zmax", type=float, default=4.0)
    potential.add_argument("--points", type=int, default=200)
    potential.set_defaults(func=cmd_potential)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The process's one parser for main(); parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the command, the config's tokens, then the flags, which so win
            args = parser.parse_args([argv[0], *_config_tokens(parser, args), *argv[1:]])
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        # a MemoryError is a grid too large to allocate; a bare one has no text
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
