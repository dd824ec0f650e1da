"""Closed-form critical energies and threshold-certified absorption ranges.

Every critical feature is one integer condition ``u(E) = c2*a2 + c3*a3 = N``
on the channel parameters ``a2 = 2 sqrt(m E)/rho``, ``a3 = 2 sqrt(m (E+v0))/rho``,
with a closed-form inverse energy (``p_N`` is ``p_intermediate``, and ``u(0)``
is the row's own ``u`` at zero energy).  Four conditions cover all eight
families:

====================  ===========  ==================================  ==========
condition             u(E)         inverse energy                      valid N
====================  ===========  ==================================  ==========
``2 a3 = N``          rising       ``N^2 rho^2/(16 m) - v0``           N > u(0)
``2 a2 = N``          rising       ``N^2 rho^2/(16 m)``                N >= 1
``a2 + a3 = M``       rising       ``q^2/(v0 + 2 q)``, ``q = p_M``     M > u(0)
``a3 - a2 = n``       falling      ``p^2/(v0 + 2 p)``, ``p = p_n``     1 <= n < u(0)
====================  ===========  ==================================  ==========

CC_LEFT, SS_LEFT and CPA_FORWARD_A3 sit on the first row; CC_RIGHT, SS_RIGHT
and CPA_FORWARD_A2 (index ``N - 1``) on the second; CPA_TIME_REVERSED on the
third; the zeros of the time-reversed left reflection (RPRIME_LEFT_ZERO) on
the fourth.  ``_TABLE`` holds these rows and ``critical_points`` enumerates
any of them.  A point is degenerate when the channel parameter its row does
not fix also puts 2*a2 or 2*a3 within the snap tolerance of a positive
integer: 2*a2 on the ``2 a3`` row, 2*a3 on the ``2 a2`` row, either one on
the sum and difference rows (there 2*a2 + 2*a3 or 2*a3 - 2*a2 is an integer,
so one implies the other).  CPA_TIME_REVERSED excludes such points, because
a numerator residue cancels the intended zero of det S there, and every
other family flags them.  An index within the snap tolerance of u(0)
is the E = 0 threshold and is skipped.  The energy-space snap tolerance of
a point is the integer tolerance divided by ``|du/dE|``.

Range scanning certifies the smallness of the relevant coefficients on a
grid between consecutive singularities, one kernel call per bracket, and
refines the threshold crossings by bisection.  The crossings of all
brackets bisect in lockstep, one kernel call per step, each with its own
stop rule, so every endpoint is the one a crossing bisected alone reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .amplitudes import log10_coefficients
from .specfun import TAU_INT
from .units import PotentialSpec, Variant, validate

__all__ = [
    "SpectralFamily",
    "Side",
    "RangeCriterion",
    "SpectralPoint",
    "AbsorptionRange",
    "critical_points",
    "snap_tolerance",
    "cc_left_energies",
    "cc_right_energies",
    "ss_energies",
    "rprime_left_zeros",
    "cpa_energies_forward",
    "cpa_energies_time_reversed",
    "p_intermediate",
    "q_intermediate",
    "scan_ranges",
]

DEFAULT_MAX_COUNT = 10
DEFAULT_GRID_POINTS = 4096
DEFAULT_THRESHOLD = 1e-6
# the most indices critical_points enumerates for one window
_MAX_WINDOW_INDICES = 10**6


class SpectralFamily(Enum):
    CC_LEFT = "cc_left"
    CC_RIGHT = "cc_right"
    SS_LEFT = "ss_left"
    SS_RIGHT = "ss_right"
    CPA_FORWARD_A2 = "cpa_forward_a2"
    CPA_FORWARD_A3 = "cpa_forward_a3"
    CPA_TIME_REVERSED = "cpa_time_reversed"
    RPRIME_LEFT_ZERO = "rprime_left_zero"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class RangeCriterion(Enum):
    CC_LEFT_RANGE = "cc_left"
    CPA_RANGE = "cpa"


@dataclass(frozen=True)
class SpectralPoint:
    kind: SpectralFamily
    index: int
    energy: float
    degenerate: bool = False


@dataclass(frozen=True)
class AbsorptionRange:
    lo: float
    hi: float
    criterion: RangeCriterion
    threshold: float
    bracketing_ss: tuple[SpectralPoint, SpectralPoint]
    interior_zeros: tuple[SpectralPoint, ...]


# -- the condition table -------------------------------------------------------


def p_intermediate(spec: PotentialSpec, n: int) -> float:
    """Intermediate scalar of the conditions a2 + a3 = n and a3 - a2 = n.

    Satisfies v0 + 2 p_n = n^2 rho^2 / (4 m); both conditions then hold at
    E = p_n^2 / (v0 + 2 p_n), the sum for p_n > 0 and the difference for
    p_n < 0.
    """
    return n * n * spec.rho * spec.rho / (8.0 * spec.mass) - spec.v0 / 2.0


q_intermediate = p_intermediate


def _well_energy(spec: PotentialSpec, n: int) -> float:
    return spec.rho * spec.rho / (16.0 * spec.mass) * n * n


def _channel_energy(spec: PotentialSpec, n: int) -> float:
    p = p_intermediate(spec, n)
    return p * p / (spec.v0 + 2.0 * p)


def _a2_a3(spec: PotentialSpec, energy: float) -> tuple[float, float]:
    return (
        2.0 * math.sqrt(spec.mass * energy) / spec.rho,
        2.0 * math.sqrt(spec.mass * (energy + spec.v0)) / spec.rho,
    )


class _Row(NamedTuple):
    """c2*a2 + c3*a3 = N at energy(spec, N); the family index is N - offset."""

    c2: int
    c3: int
    energy: Callable[[PotentialSpec, int], float]
    offset: int = 0
    exclude_degenerate: bool = False

    def u(self, spec: PotentialSpec, energy: float) -> float:
        a2, a3 = _a2_a3(spec, energy)
        return self.c2 * a2 + self.c3 * a3


def _left_energy(spec: PotentialSpec, n: int) -> float:
    return _well_energy(spec, n) - spec.v0


_TABLE = {
    SpectralFamily.CC_LEFT: _Row(0, 2, _left_energy),
    SpectralFamily.SS_LEFT: _Row(0, 2, _left_energy),
    SpectralFamily.CPA_FORWARD_A3: _Row(0, 2, _left_energy),
    SpectralFamily.CC_RIGHT: _Row(2, 0, _well_energy),
    SpectralFamily.SS_RIGHT: _Row(2, 0, _well_energy),
    SpectralFamily.CPA_FORWARD_A2: _Row(2, 0, _well_energy, offset=1),
    SpectralFamily.CPA_TIME_REVERSED: _Row(1, 1, _channel_energy, exclude_degenerate=True),
    SpectralFamily.RPRIME_LEFT_ZERO: _Row(-1, 1, _channel_energy),
}


def _near_positive_integer(x: float) -> bool:
    n = round(x)
    return n >= 1 and abs(x - n) <= TAU_INT


def critical_points(
    spec: PotentialSpec,
    family: SpectralFamily,
    window: tuple[float, float] | None = None,
    count: int | None = None,
) -> list[SpectralPoint]:
    """Points of one family, in ascending index.

    With a window, the points whose N lies between floor(u) and ceil(u) + 1
    of the window ends, so the list covers the window with one point at or
    beyond each end where the family has one; a window spanning more than
    10**6 indices raises ``ValueError`` before any point is enumerated.
    With a count, at most the first ``count`` points.  With neither, every
    point, which only the finite RPRIME_LEFT_ZERO family has.  A window end
    that is not finite and non-negative raises ``ValueError``; the ends may
    come in either order.
    """
    validate(spec)
    row = _TABLE[family]
    u0 = row.u(spec, 0.0)
    first, stop = 1 + row.offset, math.inf
    # da2/dE > da3/dE because k1 < k2, so u falls only where a2 enters negatively
    if row.c2 >= 0:
        first = max(first, math.floor(u0 + TAU_INT) + 1)
    else:
        stop = math.ceil(u0 - TAU_INT)
    if window is not None:
        if not all(math.isfinite(e) and e >= 0.0 for e in window):
            raise ValueError(f"{family.value} window {window} needs finite non-negative ends")
        u_lo, u_hi = sorted(row.u(spec, e) for e in window)
        first = max(first, math.floor(u_lo))
        stop = min(stop, math.ceil(u_hi) + 2)
        if stop - first > _MAX_WINDOW_INDICES:
            raise ValueError(f"{family.value} window {window} spans {stop - first:.3g} "
                             f"indices, more than {_MAX_WINDOW_INDICES}")
    elif count is None and stop == math.inf:
        raise ValueError(f"{family.value} has no last point: give a window or a count")
    points: list[SpectralPoint] = []
    n = first
    while n < stop and (count is None or len(points) < count):
        energy = row.energy(spec, n)
        if energy > 0.0:
            # 2*a_i with c_i = 2 is N by construction; only the other one is tested
            degenerate = any(
                _near_positive_integer(2.0 * a)
                for a, c in zip(_a2_a3(spec, energy), (row.c2, row.c3))
                if c != 2
            )
            if not (row.exclude_degenerate and degenerate):
                points.append(SpectralPoint(family, n - row.offset, energy, degenerate))
        n += 1
    return points


def snap_tolerance(spec: PotentialSpec, family: SpectralFamily, energy: float) -> float:
    """Energy distance over which the family's condition moves by TAU_INT:
    TAU_INT / |du/dE|, with da2/dE = m / (rho k1) and da3/dE = m / (rho k2).
    An energy that is not finite and positive raises ``ValueError``."""
    if not (math.isfinite(energy) and energy > 0.0):
        raise ValueError(f"{family.value} snap tolerance needs a finite positive energy, "
                         f"got {energy!r}")
    row = _TABLE[family]
    k1 = math.sqrt(spec.mass * energy)
    k2 = math.sqrt(spec.mass * (energy + spec.v0))
    du_de = (row.c2 / k1 + row.c3 / k2) * spec.mass / spec.rho
    return TAU_INT / abs(du_de)


# -- public enumerators ----------------------------------------------------------


def cc_left_energies(
    spec: PotentialSpec, max_count: int = DEFAULT_MAX_COUNT
) -> list[SpectralPoint]:
    """Energies where left-incident reflection and transmission both vanish:
    2*a3 = n, flagged degenerate where 2*a2 is also an integer."""
    return critical_points(spec, SpectralFamily.CC_LEFT, count=max_count)


def cc_right_energies(
    spec: PotentialSpec, max_count: int = DEFAULT_MAX_COUNT
) -> list[SpectralPoint]:
    """Energies where right-incident reflection and transmission vanish:
    2*a2 = n', independent of the depth."""
    return critical_points(spec, SpectralFamily.CC_RIGHT, count=max_count)


def ss_energies(
    spec: PotentialSpec, side: Side, max_count: int = DEFAULT_MAX_COUNT
) -> list[SpectralPoint]:
    """Spectral singularities of the time-reversed potential.

    These coincide energy-by-energy with the forward critical-coupling
    sets: the left family diverges in R'_l where the forward left
    coefficients vanish, and likewise on the right.
    """
    family = SpectralFamily.SS_LEFT if side is Side.LEFT else SpectralFamily.SS_RIGHT
    return critical_points(spec, family, count=max_count)


def rprime_left_zeros(spec: PotentialSpec) -> list[SpectralPoint]:
    """Exact zeros of the time-reversed left reflection: a2 - a3 = -n.

    k2 - k1 decreases from sqrt(m v0) to 0, so solvable n satisfy
    1 <= n < (2/rho) sqrt(m v0); the list is complete and may be empty.
    """
    return critical_points(spec, SpectralFamily.RPRIME_LEFT_ZERO)


def cpa_energies_forward(
    spec: PotentialSpec, max_count: int = DEFAULT_MAX_COUNT
) -> list[SpectralPoint]:
    """Bidirectional perfect-absorption energies of the forward potential.

    Two interleaved families from the two numerator poles: 2*a2 = n1 + 1
    and 2*a3 = n2, with up to max_count points per family, merged in
    ascending energy.  det S vanishes at each except at flagged degenerate
    coincidences, where the residues cancel.
    """
    points = [
        p
        for family in (SpectralFamily.CPA_FORWARD_A2, SpectralFamily.CPA_FORWARD_A3)
        for p in critical_points(spec, family, count=max_count)
    ]
    return sorted(points, key=lambda p: (p.energy, p.kind.value))


def cpa_energies_time_reversed(
    spec: PotentialSpec, max_count: int = DEFAULT_MAX_COUNT
) -> list[SpectralPoint]:
    """Bidirectional perfect-absorption energies of the time-reversed
    potential: a2 + a3 = M, with degenerate M excluded."""
    return critical_points(spec, SpectralFamily.CPA_TIME_REVERSED, count=max_count)


# -- range certification ------------------------------------------------------


# _ss_in_window, _interior_points and _bisect_crossing are looked up by name
# by the benchmark's span tracer (bench/tracer.py).
def _ss_in_window(
    spec: PotentialSpec, families: tuple[SpectralFamily, ...], emin: float, emax: float
) -> list[SpectralPoint]:
    """Enumerated singularities covering [emin, emax], one beyond each side."""
    points = [p for f in families for p in critical_points(spec, f, window=(emin, emax))]
    points.sort(key=lambda p: p.energy)
    return points


def _log10_certified(tr_spec: PotentialSpec, criterion: RangeCriterion, energies) -> np.ndarray:
    """log10 of the certified quantity, max(R'_l, T') or |det S'|, per energy."""
    rl, _, t, det = log10_coefficients(tr_spec, energies)
    return np.maximum(rl, t) if criterion is RangeCriterion.CC_LEFT_RANGE else det


def _bisect_crossing(
    tr_spec: PotentialSpec,
    criterion: RangeCriterion,
    log10_cap: float,
    e_fail: np.ndarray,
    e_pass: np.ndarray,
) -> np.ndarray:
    """Refine threshold crossings between failing and passing energies.

    The crossings bisect in lockstep: each step is one kernel call over the
    midpoints of the crossings still open.  Each crossing stops on its own,
    once its bracket is within 1e-10 relative of its midpoint or after 200
    steps, so every refined energy is the one a crossing bisected alone
    would reach.  Returns the refined passing energies.
    """
    e_fail = np.array(e_fail, dtype=float)
    e_pass = np.array(e_pass, dtype=float)
    active = np.ones(e_pass.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (e_fail + e_pass)
        active &= np.abs(e_pass - e_fail) > 1e-10 * mid
        if not active.any():
            break
        i = np.flatnonzero(active)
        passing = _log10_certified(tr_spec, criterion, mid[i]) < log10_cap
        e_pass[i[passing]] = mid[i[passing]]
        e_fail[i[~passing]] = mid[i[~passing]]
    return e_pass


def scan_ranges(
    spec: PotentialSpec,
    criterion: RangeCriterion,
    window: tuple[float, float],
    threshold: float = DEFAULT_THRESHOLD,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[AbsorptionRange]:
    """Certify absorption ranges between consecutive spectral singularities.

    The certified quantities live on the time-reversed potential:
    max(R'_l, T') for unidirectional ranges, |det S'| for bidirectional
    ones (whose brackets interleave both singularity families, so the
    right-reflection singular points are excluded by construction).  Each
    bracket overlapping the window is sampled on a uniform grid, one kernel
    call per bracket; maximal sub-threshold runs are reported, with every
    endpoint that a failing grid point bounds refined by bisection.  The
    crossings of all brackets bisect in lockstep, one kernel call per step.
    An empty result means no sample beat the threshold.
    """
    validate(spec)
    emin, emax = window
    if not (emin > 0.0 and emax > emin and math.isfinite(emax)):
        raise ValueError(f"invalid window {window!r}: need finite 0 < emin < emax")
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")

    tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
    if criterion is RangeCriterion.CC_LEFT_RANGE:
        families = (SpectralFamily.SS_LEFT,)
    else:
        families = (SpectralFamily.SS_LEFT, SpectralFamily.SS_RIGHT)

    singularities = _ss_in_window(spec, families, emin, emax)
    log10_cap = math.log10(threshold)
    brackets: list[tuple[SpectralPoint, SpectralPoint]] = []
    ends = []  # lo and hi of every sub-threshold run
    beyond = []  # the failing grid point next to each end, or NaN

    for ss_lo, ss_hi in zip(singularities, singularities[1:]):
        lo = max(ss_lo.energy * (1.0 + 1e-12), emin)
        hi = min(ss_hi.energy * (1.0 - 1e-12), emax)
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, grid_points)
        passing = _log10_certified(tr_spec, criterion, grid) < log10_cap
        edges = np.diff(passing.astype(np.int8), prepend=0, append=0)
        for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1):
            brackets.append((ss_lo, ss_hi))
            ends += [grid[i], grid[j]]
            beyond += [grid[i - 1] if i > 0 else math.nan,
                       grid[j + 1] if j + 1 < grid_points else math.nan]

    ends, beyond = np.array(ends), np.array(beyond)
    crossing = ~np.isnan(beyond)
    ends[crossing] = _bisect_crossing(tr_spec, criterion, log10_cap, beyond[crossing], ends[crossing])
    return [
        AbsorptionRange(
            lo=lo_e,
            hi=hi_e,
            criterion=criterion,
            threshold=threshold,
            bracketing_ss=pair,
            interior_zeros=tuple(_interior_points(spec, criterion, lo_e, hi_e)),
        )
        for pair, lo_e, hi_e in zip(brackets, ends[0::2].tolist(), ends[1::2].tolist())
    ]


def _interior_points(
    spec: PotentialSpec, criterion: RangeCriterion, lo: float, hi: float
) -> list[SpectralPoint]:
    """Discrete exact-absorption points inside a certified range."""
    family = (
        SpectralFamily.RPRIME_LEFT_ZERO
        if criterion is RangeCriterion.CC_LEFT_RANGE
        else SpectralFamily.CPA_TIME_REVERSED
    )
    return [p for p in critical_points(spec, family, window=(lo, hi)) if lo <= p.energy <= hi]
