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

Each condition also says what happens at its points, in its signature: the
pole orders of (r_l, -r_r, t, det S) there, forward and time-reversed, a
positive order a zero and a negative one a pole.  No table states them:
``_Row.signatures`` counts the poles of the kernel's Gamma arguments on the
row's line, and ``amplitudes._g_orders`` turns them into orders, as it
turns the kernel's snapped poles.  The count gives:

===============  ================  ===============  ================================
condition        forward           time-reversed    families
===============  ================  ===============  ================================
``2 a3 = N``     (1, 0, 1, 1)      (-1, 0, 0, -1)   CC_LEFT, CPA_FORWARD_A3, SS_LEFT
``2 a2 = N``     (0, 1, 1, 1)      (0, -1, 0, -1)   CC_RIGHT, CPA_FORWARD_A2, SS_RIGHT
``a2 + a3 = M``  (-2, -2, -2, -2)  (0, 0, 0, 2)     CPA_TIME_REVERSED
``a3 - a2 = n``  (0, 2, 0, 0)      (2, 0, 0, 0)     RPRIME_LEFT_ZERO
===============  ================  ===============  ================================

So the forward r_l, t and det S vanish where 2 a3 is an integer (critical
coupling from the left and forward CPA) and the time-reversed r_l and det S
diverge (left spectral singularities); the right side is the same at 2 a2
(CPA_FORWARD_A2 takes index ``N - 1`` from N = 2); at a2 + a3 = M the
time-reversed det S vanishes and every forward amplitude diverges; at
a3 - a2 = n the time-reversed r_l vanishes.  ``_TABLE`` maps each family
to its row: c2, c3, the inverse energy, the index offset and whether the
row excludes degenerate points.  ``critical_points`` enumerates any of
them, and ``integer_distance`` measures how far a pair (a2, a3) sits from
the nearest of the conditions, which are the directions of the Gamma
arguments up to sign (``_CONDITIONS``).
u reads a2 and the gap a3 - a2 as the kernel does, ``u = (c2 + c3) a2 +
c3 gap`` (``amplitudes._channel_terms``), so on the ``2 a3``, sum and
difference rows u is, bit for bit, the magnitude of a Gamma argument whose
pole the kernel snaps.  Every integer decision reads the one rule
``specfun.snap``.  A point is degenerate when the channel parameter its
row does not fix also snaps 2*a2 or 2*a3 (the u of its own row) to a
positive integer: 2*a2 on the ``2 a3`` row, 2*a3 on the ``2 a2`` row,
either one on the sum and difference rows (there 2*a2 + 2*a3 or
2*a3 - 2*a2 is an integer, so one implies the other).  A second Gamma pole
then enters, and the point does not show its row's signature.
CPA_TIME_REVERSED excludes such points, because a numerator residue cancels
the intended zero of det S there, and every other family flags them.
When u(0) snaps to an integer N, N is the E = 0 threshold and is skipped.
``verify``'s ``family_signatures`` row checks both statements against the
kernel's orders on its snapped arguments; since the signatures and the
kernel read one Gamma table, a test pins the published signatures, not
that row.

Range scanning certifies the smallness of the relevant coefficients on a
grid between consecutive singularities (``_CRITERIA`` says, per criterion,
which coefficients, between which singularities, and which exact-absorption
points lie inside), and refines the threshold crossings by bisection,
each with its own stop rule, so every endpoint is the one a crossing
bisected alone reaches.  One kernel call evaluates every 32nd
sample of all the brackets' grids, and in the same pass psi at their Gamma
arguments; a bound on the slope between two of them, from psi(z) dz/dE
summed over the arguments, puts each certified row between two envelopes
on the cell between them (``amplitudes._row_bounds``, which states every
error term of those envelopes).  Where the envelopes' extremes over a cell's
inner samples clear the threshold, the cell is decided without evaluating
them, with the outcome that evaluating them gives, and a second call
evaluates the rest.  The grid samples around a crossing predict where it lies, and one
kernel call evaluates, for every crossing at once, the midpoints of the
bisection path toward that prediction and the tree of ``_LOOKAHEAD`` steps
rooted ``_LOOKAHEAD`` steps before that path's end, so most scans resolve
every crossing in one call, and every call resolves at least one step of
each.  The bisection reads the kernel's det-S refusals by energy: a refused
energy that no step reads does not matter, and a scan whose steps read one
raises at the energy where bisecting the crossings one after another would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .amplitudes import (_G_ARGS, _amplitude_logs, _channel_terms, _det_s_error, _g_orders,
                         _log10_refusals, _row_bounds, log10_coefficients)
from .specfun import snap
from .units import (PotentialSpec, Variant, _check_member, _check_number, _check_positive,
                    _check_window)

__all__ = [
    "SpectralFamily",
    "Side",
    "RangeCriterion",
    "SpectralPoint",
    "AbsorptionRange",
    "critical_points",
    "cc_left_energies",
    "cc_right_energies",
    "ss_energies",
    "rprime_left_zeros",
    "cpa_energies_forward",
    "cpa_energies_time_reversed",
    "p_intermediate",
    "integer_distance",
    "scan_ranges",
]

DEFAULT_MAX_COUNT = 10
DEFAULT_GRID_POINTS = 4096
DEFAULT_THRESHOLD = 1e-6
# the most indices critical_points walks, in any mode
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
    p_n < 0.  An n that is not an ``int`` (a bool is not one) raises
    ``ValueError``.
    """
    _check_number("n", n, (int,))
    return _p_intermediate(spec, n)


def _p_intermediate(spec: PotentialSpec, n: int) -> float:
    return n * n * spec.rho * spec.rho / (8.0 * spec.mass) - spec.v0 / 2.0


def _well_energy(spec: PotentialSpec, n: int) -> float:
    return spec.rho * spec.rho / (16.0 * spec.mass) * n * n


def _channel_energy(spec: PotentialSpec, n: int) -> float:
    """p_n^2 / (v0 + 2 p_n), with v0 + 2 p_n taken as n^2 rho^2 / (4 m): the
    sum cancels where p_n is near -v0/2, at the first a3 - a2 = n points of
    a narrow rho, and the product does not."""
    p = _p_intermediate(spec, n)
    return p * p / (n * n * spec.rho * spec.rho / (4.0 * spec.mass))


class _Row(NamedTuple):
    """c2*a2 + c3*a3 = N at energy(spec, N); the family index is N - offset."""

    c2: int
    c3: int
    energy: Callable[[PotentialSpec, int], float]
    offset: int = 0
    exclude_degenerate: bool = False

    def u(self, spec: PotentialSpec, energy):
        _, _, a2, gap = _channel_terms(spec, energy)
        return (self.c2 + self.c3) * a2 + self.c3 * gap

    @property
    def signatures(self) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
        """The pole orders of (r_l, -r_r, t, det S) at the row's
        non-degenerate points, forward and time-reversed, counted from the
        kernel's Gamma arguments: with a2 and a3 carrying the variant sign s,
        the argument d2*a2 + d3*a3 + d0 is d0 - N <= 0, a pole, on the line
        c2*a2 + c3*a3 = N (N >= 1) exactly when (d2, d3) = -s*(c2, c3)."""
        order = _g_orders(np.array([[(d2, d3) == (-s * self.c2, -s * self.c3) for s in (1, -1)]
                                    for d2, d3, _ in _G_ARGS]))
        return tuple(map(tuple, _amplitude_logs(order, np.zeros(order.shape))[0].T.tolist()))


def _left_energy(spec: PotentialSpec, n: int) -> float:
    return _well_energy(spec, n) - spec.v0


_LEFT = _Row(0, 2, _left_energy)
_RIGHT = _Row(2, 0, _well_energy)
_TABLE = {
    SpectralFamily.CC_LEFT: _LEFT,
    SpectralFamily.SS_LEFT: _LEFT,
    SpectralFamily.CPA_FORWARD_A3: _LEFT,
    SpectralFamily.CC_RIGHT: _RIGHT,
    SpectralFamily.SS_RIGHT: _RIGHT,
    # the pole count gives the forward det S order +1 at every N >= 1 of the
    # 2 a2 row, 2 a2 = 1 (CC_RIGHT's first point) included, so offset 1 is only
    # the paper's label: its published row E_{n1=1} = 27.2 eV (v0 2, rho 2) is
    # 2 a2 = 2.  Whether its n1 starts at 0 waits for its text (ROADMAP item 17)
    SpectralFamily.CPA_FORWARD_A2: _RIGHT._replace(offset=1),
    SpectralFamily.CPA_TIME_REVERSED: _Row(1, 1, _channel_energy, exclude_degenerate=True),
    SpectralFamily.RPRIME_LEFT_ZERO: _Row(-1, 1, _channel_energy),
}


# the distinct conditions (c2, c3): the directions of the Gamma arguments'
# pole lines, up to sign
_CONDITIONS = sorted({max((c2, c3), (-c2, -c3)) for c2, c3, _ in _G_ARGS})


def integer_distance(a2: float, a3: float) -> float:
    """Distance from an integer of the nearest condition c2*a2 + c3*a3 of the
    table: the nearest of 2*a2, 2*a3, a2 + a3 and a3 - a2."""
    return min(abs(x - round(x)) for x in (c2 * a2 + c3 * a3 for c2, c3 in _CONDITIONS))


def critical_points(
    spec: PotentialSpec,
    family: SpectralFamily,
    window: tuple[float, float] | None = None,
    count: int | None = None,
) -> list[SpectralPoint]:
    """Points of one family, in ascending index.

    No mode walks more than 10**6 indices.  With a window, the points whose
    N lies between floor(u) and ceil(u) + 1 of the window ends, so the list
    covers the window with one point at or beyond each end where the family
    has one; a window spanning more than 10**6 indices raises
    ``ValueError`` before any point is enumerated.  With a count, at most
    the first ``count`` points; a count that is not a non-negative ``int``
    (a bool is not one) or is above 10**6 raises ``ValueError`` the same
    way, and so does, after the walk, a family that goes on past its first
    10**6 indices yet has fewer than ``count`` points in them (points at
    E <= 0 and excluded degenerate ones are skipped).  With neither, every
    point, which only the finite RPRIME_LEFT_ZERO family has; one spanning
    more than 10**6 indices raises ``ValueError`` before any point is
    enumerated.  A window end
    that is not an ``int`` or ``float`` (a bool is neither) or is not
    finite and non-negative raises ``ValueError``; the ends may come in
    either order, and a family that is not a ``SpectralFamily`` raises
    ``ValueError``.
    """
    _check_member("family", family, SpectralFamily)
    row = _TABLE[family]
    if count is not None:
        _check_number(f"{family.value} count", count, (int,))
        if count < 0:
            raise ValueError(f"{family.value} count must be non-negative, got {count}")
        if count > _MAX_WINDOW_INDICES:
            raise ValueError(f"{family.value} count {count} is more than {_MAX_WINDOW_INDICES}")
    first, stop = _index_range(spec, row)
    if window is not None:
        for end in window:
            _check_number("window end", end)
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
    elif count is None and stop - first > _MAX_WINDOW_INDICES:
        raise ValueError(f"{family.value} spans {stop - first:.3g} indices, more than "
                         f"{_MAX_WINDOW_INDICES}")
    cut = stop - first > _MAX_WINDOW_INDICES  # only a count's walk gets here cut
    ns = range(first, first + _MAX_WINDOW_INDICES if cut else stop)
    points = list(itertools.islice(_points(spec, family, ns), count))
    if cut and len(points) < count:
        raise ValueError(f"{family.value} has {len(points)} of {count} points in its first "
                         f"{_MAX_WINDOW_INDICES} indices")
    return points


def _index_range(spec: PotentialSpec, row: _Row) -> tuple[int, float]:
    """The row's valid N as ``first <= N < stop``, ``stop`` possibly inf."""
    u0 = row.u(spec, 0.0)
    n0, at_threshold = snap(u0)
    u0 = n0 if at_threshold else u0  # an integer u0 is the E = 0 threshold itself
    first, stop = 1 + row.offset, math.inf
    # da2/dE > da3/dE because k1 < k2, so u falls only where a2 enters negatively
    if row.c2 >= 0:
        first = max(first, math.floor(u0) + 1)
    else:
        stop = math.ceil(u0)
    return first, stop


def _points(spec: PotentialSpec, family: SpectralFamily, ns):
    """The family's points at the integers ``ns``, each in the row's valid
    range (:func:`_index_range`), in their order, lazily.

    An N whose energy is not positive has no point; a degenerate N has a
    flagged one, or none on a row that excludes degenerate points.
    """
    row = _TABLE[family]
    for n in ns:
        energy = row.energy(spec, n)
        if energy > 0.0:
            # 2*a_i with c_i = 2 is N by construction; only the other one is tested,
            # as the u of its own row: 2*a2, or 2*a3
            others = [r.u(spec, energy) for r, c in ((_RIGHT, row.c2), (_LEFT, row.c3)) if c != 2]
            degenerate = any(hit and m >= 1 for m, hit in map(snap, others))
            if not (row.exclude_degenerate and degenerate):
                yield SpectralPoint(family, n - row.offset, energy, degenerate)


def _grid_points(
    spec: PotentialSpec, family: SpectralFamily, energies: np.ndarray
) -> dict[int, SpectralPoint]:
    """The family's points that ``snap`` puts on an energy array, by position:
    where u(E) snaps to an integer N that has a point, that point."""
    row = _TABLE[family]
    first, stop = _index_range(spec, row)
    n, hit = snap(row.u(spec, energies))
    at = np.flatnonzero(hit & (first <= n) & (n < stop))
    ns = [int(m) for m in n[at].tolist()]
    points = {p.index + row.offset: p for p in _points(spec, family, set(ns))}
    return {i: points[m] for i, m in zip(at.tolist(), ns) if m in points}


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
    _check_member("side", side, Side)
    family = SpectralFamily.SS_LEFT if side is Side.LEFT else SpectralFamily.SS_RIGHT
    return critical_points(spec, family, count=max_count)


def rprime_left_zeros(spec: PotentialSpec) -> list[SpectralPoint]:
    """Exact zeros of the time-reversed left reflection: a2 - a3 = -n.

    k2 - k1 decreases from sqrt(m v0) to 0, so solvable n satisfy
    1 <= n < (2/rho) sqrt(m v0); the list is complete and may be empty.  A
    family of more than 10**6 zeros raises ``ValueError``.
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


class _Criterion(NamedTuple):
    """What a range criterion certifies: the largest of the ``rows`` of
    log10_coefficients on the time-reversed potential stays below the
    threshold between consecutive points of the ``singularities`` families,
    with the ``interior`` family's points inside."""

    rows: list[int]
    singularities: tuple[SpectralFamily, ...]
    interior: SpectralFamily


# max(R'_l, T') between left singularities, with the r'_l zeros inside, and
# |det S'| between interleaved left and right ones, with the time-reversed CPA
# points inside
_CRITERIA = {
    RangeCriterion.CC_LEFT_RANGE: _Criterion([0, 2], (SpectralFamily.SS_LEFT,),
                                             SpectralFamily.RPRIME_LEFT_ZERO),
    RangeCriterion.CPA_RANGE: _Criterion([3], (SpectralFamily.SS_LEFT, SpectralFamily.SS_RIGHT),
                                         SpectralFamily.CPA_TIME_REVERSED),
}


def _log10_certified(tr_spec: PotentialSpec, criterion: RangeCriterion, energies) -> np.ndarray:
    """log10 of the certified quantity, max(R'_l, T') or |det S'|, per energy."""
    return log10_coefficients(tr_spec, energies)[_CRITERIA[criterion].rows].max(axis=0)


# the grid stage evaluates every _STRIDE-th sample of each grid and its last
# one, and decides the samples between them from a bound on the slope
_STRIDE = 32
# the brackets' grids go through the grid stage in groups of at most this many
# samples (or one bracket), so that its memory does not grow with their count
_GROUP_SAMPLES = 2**16


def _envelopes(tr_spec: PotentialSpec, rows: list[int], grids: np.ndarray):
    """Lines that bound the certified rows of :func:`log10_coefficients` on
    every cell of the grids (one a row), from one kernel call at the cells'
    ends, every ``_STRIDE``-th sample and the last one
    (:func:`~wsabsorb.amplitudes._row_bounds`).

    Returns the ends' indices, the rows' values there (rows, brackets,
    ends), whether each cell's bounds hold (brackets, cells), and each
    cell's lo, hi and delta (rows, brackets, cells).
    """
    n = grids.shape[1]
    ends = np.append(np.arange(0, n - 1, _STRIDE), n - 1)
    return (ends, *_row_bounds(tr_spec, rows, grids[:, ends]))


def _cell_outcomes(grids, ends, q, lo, hi, delta, log10_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Whether every inner sample of each cell passes, and whether every one
    fails, as (brackets, cells) arrays, by the lines of :func:`_envelopes`
    (lower(E) and upper(E) of :func:`~wsabsorb.amplitudes._row_bounds`).

    upper(E) is concave and lower(E) convex, so on the span [s, t] of a
    cell's inner samples each takes its largest and its smallest value at
    s, at t, or where its two lines cross.  The cell passes where every
    row's largest upper value is below log10_cap by delta and no row's
    lower value rises above log10_cap + delta, and fails where some row's
    smallest lower value is above log10_cap by delta and some row's upper
    value stays at or above log10_cap - delta.  A cell without inner
    samples decides none.
    """
    q_a, q_b = q[..., :-1], q[..., 1:]
    e_a, e_b, s, t = (grids[:, i] for i in (ends[:-1], ends[1:], ends[:-1] + 1, ends[1:] - 1))

    def upper(x):
        return np.minimum(q_a + hi * (x - e_a), q_b - lo * (e_b - x))

    def lower(x):
        return np.maximum(q_a + lo * (x - e_a), q_b - hi * (e_b - x))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the lines' crossings; parallel lines give NaN, which fmax and fmin skip
        x_upper = np.clip(e_a + (q_b - q_a - lo * (e_b - e_a)) / (hi - lo), s, t)
        x_lower = np.clip(e_a + (hi * (e_b - e_a) - (q_b - q_a)) / (hi - lo), s, t)
        upper_s, upper_t, lower_s, lower_t = upper(s), upper(t), lower(s), lower(t)
        upper_max = np.fmax(np.maximum(upper_s, upper_t), upper(x_upper))
        lower_min = np.fmin(np.minimum(lower_s, lower_t), lower(x_lower))
        below, above = log10_cap - delta, log10_cap + delta
        passes = (upper_max < below).all(axis=0) & ~(np.maximum(lower_s, lower_t) > above).any(axis=0)
        fails = (lower_min > above).any(axis=0) & ~(np.minimum(upper_s, upper_t) < below).all(axis=0)
    return passes, fails


def _grid_stage(
    tr_spec: PotentialSpec, criterion: RangeCriterion, log10_cap: float, grids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log10 of the certified quantity on every bracket's grid (one a row),
    NaN where it is decided without evaluation, and which samples pass.

    The first kernel call evaluates the cells' ends (:func:`_envelopes`).
    A cell whose bounds hold is certified where its envelopes' extremes
    over its inner samples decide them all alike (:func:`_cell_outcomes`),
    and its inner samples take its outcome.  A second call evaluates every
    inner sample of the other cells, and a third the samples that a
    crossing reads (its four around it, :func:`_predicted_crossing`) where
    neither call did.
    """
    ends, q, holds, lo, hi, delta = _envelopes(tr_spec, _CRITERIA[criterion].rows, grids)
    passes, fails = _cell_outcomes(grids, ends, q, lo, hi, delta, log10_cap)
    cell = np.minimum(np.arange(grids.shape[1]) // _STRIDE, len(ends) - 2)
    certified, decided = (holds & (passes | fails))[:, cell], passes[:, cell]

    log10 = np.full(grids.shape, np.nan)
    evaluated = np.zeros(grids.shape, dtype=bool)
    log10[:, ends], evaluated[:, ends] = q.max(axis=0), True

    def evaluate(wanted):
        wanted &= ~evaluated
        if wanted.any():
            log10[wanted] = _log10_certified(tr_spec, criterion, grids[wanted])
            evaluated[wanted] = True

    evaluate(~certified)
    passing = np.where(evaluated, log10 < log10_cap, decided)
    # the four samples around each crossing, which _predicted_crossing reads
    row, i = np.nonzero(passing[:, 1:] != passing[:, :-1])
    read = np.zeros(grids.shape, dtype=bool)
    read[row[:, None], np.clip(i - 1, 0, grids.shape[1] - 4)[:, None] + np.arange(4)] = True
    evaluate(read)
    return log10, np.where(evaluated, log10 < log10_cap, decided)


# the bisection's cap on the steps of one crossing
_MAX_STEPS = 200

# the depth of the tree of bisection midpoints that a kernel call evaluates per
# open crossing, 2**_LOOKAHEAD - 1 energies rooted _LOOKAHEAD steps before the
# end of the path toward its prediction (at its bracket without one), so that a
# miss in the path's last _LOOKAHEAD steps still resolves in the same call
_LOOKAHEAD = 4


def _inverse_interpolation(ys: list[float], xs: list[float], y: float) -> float | None:
    """x at y of the polynomial x(y) through the points (ys, xs), as in
    Brent's root finder, or None where the ys are not distinct and finite."""
    x = 0.0
    for i, (yi, xi) in enumerate(zip(ys, xs)):
        for j, yj in enumerate(ys):
            if j != i:
                if yi == yj:
                    return None
                xi *= (y - yj) / (yi - yj)
        x += xi
    return x if math.isfinite(x) else None


def _predicted_crossing(
    grid: np.ndarray, log10: np.ndarray, fail: int, step: int, log10_cap: float
) -> float | None:
    """Where log10 crosses log10_cap between the failing sample ``fail`` and
    the passing one ``fail + step``, from the samples around them, or None.

    Next to a pole (a failing sample at +inf) the fit is log10 = A -
    k log10|E - E_pole| through the two samples beyond it, else E as the
    cubic in log10 through the four samples around the cell."""
    if log10[fail] == math.inf:
        near, far = fail + step, fail + 2 * step
        if not 0 <= far < len(grid):
            return None
        pole, e_near, e_far = grid[[fail, near, far]].tolist()
        distance = [math.log10(abs(e - pole)) for e in (e_near, e_far)]
        x = _inverse_interpolation(log10[[near, far]].tolist(), distance, log10_cap)
        if x is None or x >= distance[0]:  # not between the pole and the passing sample
            return None
        return pole + math.copysign(10.0 ** x, e_near - pole)
    first = min(max(min(fail, fail + step) - 1, 0), len(grid) - 4)
    return _inverse_interpolation(log10[first:first + 4].tolist(), grid[first:first + 4].tolist(),
                                  log10_cap)


def _midpoint(e_fail: float, e_pass: float) -> float | None:
    """The next bisection step's midpoint, or None once the bracket is within
    1e-10 relative of it: the stop rule."""
    mid = 0.5 * (e_fail + e_pass)
    return mid if abs(e_pass - e_fail) > 1e-10 * mid else None


def _midpoints(e_fail: float, e_pass: float, depth: int) -> list[float]:
    """Midpoints of the open brackets that the next ``depth`` bisection steps
    from (e_fail, e_pass) can reach, the first step's first."""
    mids, level = [], [(e_fail, e_pass)]
    for _ in range(depth):
        below = []
        for lo, hi in level:
            if (mid := _midpoint(lo, hi)) is not None:
                mids.append(mid)
                below += [(lo, mid), (mid, hi)]
        level = below
    return mids


def _bisect_crossing(
    tr_spec: PotentialSpec,
    criterion: RangeCriterion,
    log10_cap: float,
    crossings: list[tuple[float, float, float, float, float | None]],
) -> list[float]:
    """Refine threshold crossings between failing and passing energies.

    Each crossing is (e_fail, its log10, e_pass, its log10, a predicted
    crossing energy or None).  Each stops on its own once its bracket is
    within 1e-10 relative of its midpoint or after _MAX_STEPS steps, and each step
    reads the kernel at the midpoint ``0.5 * (e_fail + e_pass)``, so every
    refined energy is the one a crossing bisected alone reaches.

    One kernel call serves every open crossing, and every energy in it gets
    the bits it would get alone.  Per crossing it holds two sets: the
    midpoints of the whole path of steps toward the prediction, and those
    that _LOOKAHEAD steps can reach for either outcome from the path's
    bracket _LOOKAHEAD steps before its end, which without a prediction is
    the crossing's bracket.  The steps then read their outcomes by energy.
    So a call resolves at least one step of every open crossing, and
    _LOOKAHEAD or all it has left where the crossing has no prediction or
    its prediction holds until the path's last _LOOKAHEAD steps; a miss
    earlier on the path is its last step in that call.  A crossing whose
    next midpoint was not evaluated predicts again, by the secant through
    its bracket's ends, for the next call.  The kernel does not raise here:
    it returns its det-S refusals by energy
    (:func:`~wsabsorb.amplitudes._log10_refusals`).  A crossing stops at a
    refused midpoint, and once the first crossing not yet resolved is one
    that stopped, that midpoint's ``ArithmeticError`` is raised
    (:func:`~wsabsorb.amplitudes._det_s_error`).  So the error names the
    energy that bisecting the crossings one after another reads, whatever
    the lookahead and the predictions.  Returns the refined passing
    energies.
    """
    # per crossing: e_fail, its log10, e_pass, its log10, prediction, steps taken
    state = [[*crossing, 0] for crossing in crossings]

    def next_mid(s):
        return _midpoint(s[0], s[2]) if s[5] < _MAX_STEPS else None

    refused = {}  # the last call's refusals, by energy
    while unresolved := [s for s in state if next_mid(s) is not None]:
        # bisected one after another, the crossings raise at the first unresolved one's refusal
        if (first := next_mid(unresolved[0])) in refused:
            raise _det_s_error(*refused[first])
        wanted = {}  # the call's energies, in order, once each
        for s in unresolved:
            e_fail, e_pass, c = s[0], s[2], s[4]
            path = [(e_fail, e_pass)]  # the brackets that the steps toward c reach
            while (c is not None and len(path) + s[5] <= _MAX_STEPS
                   and (mid := _midpoint(e_fail, e_pass)) is not None):
                # c on the failing side of the midpoint: it passes, unless the prediction misses
                if (c < mid) == (e_fail < mid):
                    e_pass = mid
                else:
                    e_fail = mid
                wanted[mid] = None
                path.append((e_fail, e_pass))
            # a miss in the path's last _LOOKAHEAD steps still resolves in this call; with no
            # prediction this is the whole tree of the next _LOOKAHEAD steps
            wanted.update(dict.fromkeys(_midpoints(*path[max(len(path) - 1 - _LOOKAHEAD, 0)],
                                                   _LOOKAHEAD)))
        rows, refused = _log10_refusals(tr_spec, np.array(list(wanted)))
        values = dict(zip(wanted, rows[_CRITERIA[criterion].rows].max(axis=0).tolist()))
        for s in unresolved:  # a crossing stops at a refused midpoint, and asks for it again
            while (mid := next_mid(s)) in values and mid not in refused:
                if values[mid] < log10_cap:
                    s[2:4] = mid, values[mid]
                else:
                    s[0:2] = mid, values[mid]
                s[5] += 1
            s[4] = _inverse_interpolation([s[1], s[3]], [s[0], s[2]], log10_cap)
    return [s[2] for s in state]


def _brackets(
    spec: PotentialSpec, criterion: RangeCriterion, emin: float, emax: float
) -> list[tuple[tuple[SpectralPoint, SpectralPoint], float, float]]:
    """Each pair of consecutive singularities whose bracket overlaps the
    window, with the ends of its grid."""
    singularities = _ss_in_window(spec, _CRITERIA[criterion].singularities, emin, emax)
    found = []
    for ss_lo, ss_hi in zip(singularities, singularities[1:]):
        lo = max(ss_lo.energy * (1.0 + 1e-12), emin)
        hi = min(ss_hi.energy * (1.0 - 1e-12), emax)
        if hi > lo:
            found.append(((ss_lo, ss_hi), lo, hi))
    return found


def scan_ranges(
    spec: PotentialSpec,
    criterion: RangeCriterion,
    window: tuple[float, float],
    threshold: float = DEFAULT_THRESHOLD,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[AbsorptionRange]:
    """Certify absorption ranges between consecutive spectral singularities.

    ``spec`` is the forward potential, and a spec of another variant raises
    ``ValueError`` naming it.  The certified quantities live on its
    time-reversed partner: max(R'_l, T') for unidirectional ranges,
    |det S'| for bidirectional ones (whose brackets interleave both
    singularity families, so the right-reflection singular points are
    excluded by construction).  Each
    bracket overlapping the window is sampled on a uniform grid.  One kernel
    call evaluates every 32nd sample and the last one of all the grids, a
    bound on the slope between two of them decides most cells in between
    whole, from the bound's extremes over the cell, and one or two more
    calls evaluate the rest (:func:`_grid_stage`), so each sample has the
    outcome that evaluating it gives; brackets go through in groups of up
    to 2**16 samples, each group's grids built and its runs found in one
    array operation.  The det-S check of
    :func:`~wsabsorb.amplitudes.log10_coefficients` runs where the kernel
    evaluates, so a call that raises names the first refused energy among
    those, and a window whose only refused samples are decided returns its
    ranges.  Maximal sub-threshold runs are reported, with every
    endpoint that a failing grid point bounds refined by bisection.  The
    samples around each such crossing predict it: the energy as a cubic in
    log10 through the four samples around its cell (inverse interpolation,
    as in Brent's root finder), or next to a pole (a failing sample at +inf)
    the fit log10 = A - k log10|E - E_pole| through the two samples beyond
    it.  The crossings of all brackets then bisect together, in one
    kernel call where the predictions hold.  A call resolves at least one
    step of every open crossing, and ``_LOOKAHEAD`` or all it has left
    where the crossing has no prediction or its prediction holds until the
    last ``_LOOKAHEAD`` steps of the path toward it
    (:func:`_bisect_crossing`).  A refused energy that no step reads does
    not matter; one that a step reads raises, and the error names the
    energy that bisecting the crossings one after another would refuse
    first.
    An empty result means no sample beat the threshold.  A criterion that
    is not a ``RangeCriterion``, a window end or a threshold that is not an
    ``int`` or ``float``, a threshold that is not finite and positive, or a
    ``grid_points`` that is not an ``int`` (a bool is neither) raises
    ``ValueError``.
    """
    _check_member("criterion", criterion, RangeCriterion)
    if spec.variant is not Variant.FORWARD:
        raise ValueError(f"scan_ranges takes a forward spec, got variant {spec.variant.value}")
    _check_window(window)
    emin, emax = window
    _check_positive("threshold", threshold)
    _check_number("grid_points", grid_points, (int,))
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")

    tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
    log10_cap = math.log10(threshold)
    brackets: list[tuple[SpectralPoint, SpectralPoint]] = []
    ends: list[float] = []  # lo and hi of every sub-threshold run
    at: list[int] = []  # the ends that a failing grid point bounds
    crossings = []  # their _bisect_crossing brackets

    found = _brackets(spec, criterion, emin, emax)
    group = max(1, _GROUP_SAMPLES // grid_points)
    for first in range(0, len(found), group):
        pairs, los, his = zip(*found[first:first + group])
        grids = np.linspace(los, his, grid_points, axis=1)
        log10, passing = _grid_stage(tr_spec, criterion, log10_cap, grids)
        edges = np.diff(passing.astype(np.int8), prepend=0, append=0, axis=1)
        (row, start), stop = np.nonzero(edges == 1), np.nonzero(edges == -1)[1]
        for b, i, j in zip(row.tolist(), start.tolist(), stop.tolist()):
            grid, values = grids[b], log10[b]
            brackets.append(pairs[b])
            for end, fail in ((i, i - 1), (j - 1, j)):
                if 0 <= fail < grid_points:
                    at.append(len(ends))
                    crossings.append((grid[fail].item(), values[fail].item(), grid[end].item(),
                                      values[end].item(),
                                      _predicted_crossing(grid, values, fail, end - fail, log10_cap)))
                ends.append(grid[end].item())

    for k, e in zip(at, _bisect_crossing(tr_spec, criterion, log10_cap, crossings)):
        ends[k] = e
    return [AbsorptionRange(lo=lo, hi=hi, criterion=criterion, threshold=threshold, bracketing_ss=pair,
                            interior_zeros=tuple(_interior_points(spec, criterion, lo, hi)))
            for pair, lo, hi in zip(brackets, ends[0::2], ends[1::2])]


def _interior_points(
    spec: PotentialSpec, criterion: RangeCriterion, lo: float, hi: float
) -> list[SpectralPoint]:
    """Discrete exact-absorption points inside a certified range."""
    points = critical_points(spec, _CRITERIA[criterion].interior, window=(lo, hi))
    return [p for p in points if lo <= p.energy <= hi]
