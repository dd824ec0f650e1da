"""Critical-energy enumeration, spacing laws, and range certification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wsabsorb import spectral
from wsabsorb.amplitudes import amplitudes, det_s, log10_coefficients
from wsabsorb.cli import _table1_ranges
from wsabsorb.spectral import (
    RangeCriterion,
    Side,
    SpectralFamily,
    cc_left_energies,
    cc_right_energies,
    cpa_energies_forward,
    cpa_energies_time_reversed,
    critical_points,
    p_intermediate,
    q_intermediate,
    rprime_left_zeros,
    scan_ranges,
    snap_tolerance,
    ss_energies,
)
from wsabsorb.units import EnergyUnit, PotentialSpec, Variant, convert_energy

EV = EnergyUnit.ELECTRON_VOLT
SPEC_A = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
SPEC_B = PotentialSpec(v0=2.0, rho=2.0, mass=1.0)
NARROW = PotentialSpec(v0=1.0, rho=0.0006, mass=1.0)


class TestCcLeft:
    def test_reference_energies(self):
        points = cc_left_energies(SPEC_A, 3)
        assert [p.index for p in points] == [3, 4, 5]
        assert [p.energy for p in points] == pytest.approx([0.6225, 2.04, 3.8625], rel=1e-12)
        displays = [convert_energy(p.energy, to_units=EV) for p in points]
        for got, ref in zip(displays, (16.94, 55.50, 105.07)):
            assert abs(got - ref) / ref < 1e-3

    def test_spacing(self):
        points = cc_left_energies(SPEC_A, 2)
        assert points[1].energy - points[0].energy == pytest.approx(
            1.8 ** 2 * 7 / 16, rel=1e-12
        )

    def test_vanishing_depth_limit(self):
        points = cc_left_energies(PotentialSpec(v0=1e-12, rho=4.0, mass=1.0), 1)
        assert points[0].index == 1
        assert points[0].energy == pytest.approx(1.0, abs=1e-9)

    def test_threshold_index_skipped(self):
        # 2 a3 = 10 holds at E = 0 here, which is the threshold, not a point
        points = cc_left_energies(PotentialSpec(v0=1.0, rho=0.4, mass=1.0), 1)
        assert points[0].index == 11

    def test_back_substitution(self):
        for p in cc_left_energies(SPEC_A, 8):
            two_a3 = 4.0 * math.sqrt(p.energy + 1.2) / 1.8
            assert abs(two_a3 - p.index) < 1e-10


class TestCcRight:
    def test_reference_energies(self):
        points = cc_right_energies(SPEC_A, 3)
        assert [p.energy for p in points] == pytest.approx([0.2025, 0.81, 1.8225], rel=1e-12)
        displays = [convert_energy(p.energy, to_units=EV) for p in points]
        for got, ref in zip(displays, (5.51, 22.04, 49.58)):
            assert abs(got - ref) / ref < 1e-3

    def test_spacing_matches_left_law(self):
        points = cc_right_energies(SPEC_A, 2)
        spacing = points[1].energy - points[0].energy
        assert spacing == pytest.approx(3 * 1.8 ** 2 / 16, rel=1e-12)

    def test_depth_independent(self):
        a = cc_right_energies(PotentialSpec(v0=0.5, rho=4.0, mass=1.0), 1)
        b = cc_right_energies(PotentialSpec(v0=7.0, rho=4.0, mass=1.0), 1)
        assert a[0].energy == b[0].energy == pytest.approx(1.0, rel=1e-14)


class TestSpectralSingularities:
    def test_matches_forward_absorption_set(self):
        left = ss_energies(SPEC_A, Side.LEFT, 6)
        forward = cc_left_energies(SPEC_A, 6)
        assert [(p.index, p.energy) for p in left] == [(p.index, p.energy) for p in forward]
        assert all(p.kind is SpectralFamily.SS_LEFT for p in left)

    def test_narrow_spec_bracket(self):
        points = ss_energies(NARROW, Side.LEFT, 20000)
        spacing_ref = 0.0006 ** 2 * (2 * 13336 + 1) / 16
        below = max((p for p in points if p.energy < 3.0017), key=lambda p: p.energy)
        above = min((p for p in points if p.energy > below.energy), key=lambda p: p.energy)
        assert above.energy - below.energy == pytest.approx(spacing_ref, rel=1e-9)
        assert above.energy - below.energy == pytest.approx(6.0e-4, rel=1e-2)
        lo_ev = convert_energy(below.energy, to_units=EV)
        hi_ev = convert_energy(above.energy, to_units=EV)
        assert lo_ev < 81.68 < hi_ev
        assert abs(hi_ev - lo_ev - 0.0163) < 3e-4

    def test_wide_spec_first_singularity(self):
        points = ss_energies(PotentialSpec(v0=5.5e6, rho=60.0, mass=1.0), Side.LEFT, 2)
        assert points[0].index == 157
        assert points[0].energy == pytest.approx(46025.0, rel=1e-12)
        mev = convert_energy(points[0].energy, to_units=EnergyUnit.MEGA_ELECTRON_VOLT)
        assert mev == pytest.approx(1.2524, abs=2e-3)

    def test_right_side(self):
        right = ss_energies(SPEC_A, Side.RIGHT, 4)
        expected = cc_right_energies(SPEC_A, 4)
        assert [p.energy for p in right] == [p.energy for p in expected]
        for a, b in zip(right, right[1:]):
            assert b.energy - a.energy == pytest.approx(
                1.8 ** 2 * (2 * a.index + 1) / 16, rel=1e-12
            )


class TestReflectionZeros:
    def test_single_zero_spec(self):
        points = rprime_left_zeros(SPEC_B)
        assert len(points) == 1
        point = points[0]
        assert point.index == 1
        assert p_intermediate(SPEC_B, 1) == pytest.approx(-0.5, rel=1e-14)
        assert point.energy == pytest.approx(0.25, rel=1e-14)
        assert point.degenerate  # 2 a2 = 1 and 2 a3 = 3 coincide here

    def test_zero_classification(self):
        tr = replace(SPEC_B, variant=Variant.TIME_REVERSED)
        amps = amplitudes(tr, 0.25)
        assert amps.rl.is_zero

    def test_unsolvable_when_shallow(self):
        assert rprime_left_zeros(PotentialSpec(v0=0.5, rho=2.0, mass=1.0)) == []

    def test_corrected_spacing_law(self):
        spec = PotentialSpec(v0=50.0, rho=1.0, mass=1.0)
        points = rprime_left_zeros(spec)
        assert len(points) == 14  # n < 2 sqrt(50)
        for a, b in zip(points, points[1:]):
            n = a.index
            ref = (2 * n + 1) * (1.0 / 16.0 - 50.0 ** 2 / (n ** 2 * (n + 1) ** 2))
            assert (b.energy - a.energy) == pytest.approx(ref, rel=1e-9)

    def test_intermediate_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            spec = PotentialSpec(v0=rng.uniform(0.5, 40), rho=rng.uniform(0.3, 3), mass=rng.uniform(0.5, 2))
            for n in range(1, 6):
                p = p_intermediate(spec, n)
                assert spec.v0 + 2 * p == pytest.approx(
                    n ** 2 * spec.rho ** 2 / (4 * spec.mass), rel=1e-12
                )
                q = q_intermediate(spec, n)
                assert spec.v0 + 2 * q == pytest.approx(
                    n ** 2 * spec.rho ** 2 / (4 * spec.mass), rel=1e-12
                )


class TestCpaForward:
    def test_reference_energies(self):
        points = {(p.kind, p.index): p for p in cpa_energies_forward(SPEC_B, 6)}
        assert points[(SpectralFamily.CPA_FORWARD_A2, 1)].energy == pytest.approx(1.0)
        assert points[(SpectralFamily.CPA_FORWARD_A2, 2)].energy == pytest.approx(2.25)
        assert points[(SpectralFamily.CPA_FORWARD_A3, 4)].energy == pytest.approx(2.0)
        evs = [convert_energy(points[k].energy, to_units=EV) for k in
               ((SpectralFamily.CPA_FORWARD_A2, 1), (SpectralFamily.CPA_FORWARD_A3, 4),
                (SpectralFamily.CPA_FORWARD_A2, 2))]
        for got, ref in zip(evs, (27.2, 54.4, 61.2)):
            assert abs(got - ref) / ref < 1e-3

    def test_det_s_classification(self):
        assert det_s(SPEC_B, 1.0).is_zero
        assert det_s(replace(SPEC_B, variant=Variant.TIME_REVERSED), 1.0).is_pole

    def test_degenerate_coincidence_flagged(self):
        points = {(p.kind, p.index): p for p in cpa_energies_forward(SPEC_B, 6)}
        degenerate = points[(SpectralFamily.CPA_FORWARD_A3, 3)]
        assert degenerate.energy == pytest.approx(0.25)
        assert degenerate.degenerate
        # residue cancellation defeats the absorption condition there
        assert det_s(SPEC_B, 0.25).is_finite

    def test_sorted_and_interleaved(self):
        energies = [p.energy for p in cpa_energies_forward(SPEC_B, 8)]
        assert energies == sorted(energies)
        kinds = {p.kind for p in cpa_energies_forward(SPEC_B, 8)}
        assert kinds == {SpectralFamily.CPA_FORWARD_A2, SpectralFamily.CPA_FORWARD_A3}


class TestCpaTimeReversed:
    def test_reference_energies(self):
        points = {p.index: p for p in cpa_energies_time_reversed(SPEC_B, 5)}
        assert points[3].energy == pytest.approx(12.25 / 9, rel=1e-13)
        assert points[4].energy == pytest.approx(3.0625, rel=1e-13)
        assert points[5].energy == pytest.approx(5.29, rel=1e-13)
        for idx, ref in ((3, 37.03), (4, 83.32), (5, 143.92)):
            got = convert_energy(points[idx].energy, to_units=EV)
            assert abs(got - ref) / ref < 1e-3

    def test_degenerate_m_excluded(self):
        indices = [p.index for p in cpa_energies_time_reversed(SPEC_B, 5)]
        assert 2 not in indices
        assert indices == [3, 4, 5, 6, 7]

    def test_excluded_point_does_not_absorb(self):
        # at the excluded index the transmission stays at sqrt(1/3)
        tr = replace(SPEC_B, variant=Variant.TIME_REVERSED)
        amps = amplitudes(tr, 0.25)
        assert amps.tl.is_finite
        assert amps.tl.magnitude == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-9)
        assert amps.det_s.is_finite

    def test_det_s_classification(self):
        tr = replace(SPEC_B, variant=Variant.TIME_REVERSED)
        for p in cpa_energies_time_reversed(SPEC_B, 3):
            assert det_s(tr, p.energy).is_zero
            assert det_s(SPEC_B, p.energy).is_pole  # lasing partner


class TestCriticalPoints:
    # v0 = 12.5, rho = 1 has 2 a2 = 5 and 2 a3 = 15 together at E = 1.5625
    @pytest.mark.parametrize("spec", [PotentialSpec(12.5, 1.0, 1.0), PotentialSpec(50.0, 1.0, 1.0)])
    @pytest.mark.parametrize("family", list(SpectralFamily))
    def test_window_mode_matches_count_mode(self, spec, family):
        counted = critical_points(spec, family, count=40)
        energies = sorted(p.energy for p in counted)
        for lo, hi in ((energies[0], energies[-1]),
                       (0.5 * (energies[0] + energies[1]), 0.5 * (energies[-2] + energies[-1])),
                       (energies[2] * (1 + 1e-9), energies[2] * (1 + 1e-6))):
            windowed = critical_points(spec, family, window=(lo, hi))
            inside = [p for p in counted if lo <= p.energy <= hi]
            assert [p for p in windowed if lo <= p.energy <= hi] == inside
            if family in (SpectralFamily.SS_LEFT, SpectralFamily.SS_RIGHT):
                assert windowed[0].energy <= lo and windowed[-1].energy >= hi

    @pytest.mark.parametrize("family", [SpectralFamily.CC_LEFT, SpectralFamily.SS_LEFT,
                                        SpectralFamily.CPA_FORWARD_A3])
    def test_degenerate_flag_at_large_2a3(self, family):
        # 2 a3 = 12970174 and 2 a2 = 10096098; the recomputed 2 a3 rounds
        # about 2e-9 away from its integer, so only 2 a2 may decide the flag
        spec = PotentialSpec(v0=276225911.5194667, rho=0.01, mass=1.5)
        energy = spec.rho ** 2 / (16 * spec.mass) * 12970174 ** 2 - spec.v0
        points = critical_points(spec, family, window=(energy, energy))
        flags = {p.index: p.degenerate for p in points}
        assert flags.pop(12970174) is True
        assert flags and not any(flags.values())

    def test_infinite_family_needs_window_or_count(self):
        with pytest.raises(ValueError):
            critical_points(SPEC_A, SpectralFamily.CC_LEFT)


class TestScanRanges:
    def test_narrow_absorption_range(self):
        window = (3.0010, 3.0030)
        ranges = scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, window,
                             threshold=1e-6, grid_points=512)
        assert len(ranges) >= 1
        target = [r for r in ranges
                  if convert_energy(r.lo, to_units=EV) < 81.6954
                  and convert_energy(r.hi, to_units=EV) > 81.6791]
        assert target
        r = target[0]
        assert r.bracketing_ss[0].energy < r.lo < r.hi < r.bracketing_ss[1].energy

    def test_threshold_monotonicity(self):
        window = (3.0010, 3.0030)
        wide = scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, window, 1e-4, 256)
        tight = scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, window, 1e-8, 256)
        assert len(wide) == len(tight)
        for a, b in zip(tight, wide):
            assert a.lo >= b.lo - 1e-15 and a.hi <= b.hi + 1e-15

    def test_unattainable_threshold(self):
        ranges = scan_ranges(SPEC_A, RangeCriterion.CC_LEFT_RANGE, (0.1, 5.0),
                             threshold=1e-300, grid_points=128)
        assert ranges == []

    def test_linear_growth_of_bracket_widths(self):
        # widths of consecutive certified ranges grow linearly in the index
        first = ss_energies(NARROW, Side.LEFT, 1)[0]
        lo = first.energy * 1.000001
        n0 = first.index
        scale = NARROW.rho ** 2 / 16.0
        hi = scale * (n0 + 21) ** 2 - NARROW.v0
        ranges = scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (lo, hi),
                             threshold=1e-6, grid_points=128)
        widths = np.array([r.hi - r.lo for r in ranges[:20]])
        assert widths.size == 20
        idx = np.arange(widths.size)
        coeffs = np.polyfit(idx, widths, 1)
        residual = widths - np.polyval(coeffs, idx)
        r_squared = 1.0 - residual.var() / widths.var()
        assert r_squared > 0.999

    def test_cpa_ranges_interleave_both_families(self):
        spec = PotentialSpec(v0=15.0, rho=0.001, mass=1.0)
        window = (14.9990, 15.0035)
        ranges = scan_ranges(spec, RangeCriterion.CPA_RANGE, window,
                             threshold=1e-6, grid_points=256)
        assert ranges
        kinds = {p.kind for r in ranges for p in r.bracketing_ss}
        assert SpectralFamily.SS_RIGHT in kinds
        for r in ranges:
            assert r.bracketing_ss[0].energy < r.lo < r.hi < r.bracketing_ss[1].energy

    def test_interior_zeros_reported(self):
        spec = PotentialSpec(v0=15.0, rho=0.001, mass=1.0)
        ranges = scan_ranges(spec, RangeCriterion.CPA_RANGE, (14.9990, 15.0035),
                             threshold=1e-6, grid_points=256)
        zeros = [p for r in ranges for p in r.interior_zeros]
        assert zeros
        for p in zeros:
            assert p.kind is SpectralFamily.CPA_TIME_REVERSED
            assert det_s(replace(spec, variant=Variant.TIME_REVERSED), p.energy).is_zero

    def test_window_validation(self):
        with pytest.raises(ValueError):
            scan_ranges(SPEC_A, RangeCriterion.CC_LEFT_RANGE, (2.0, 1.0), 1e-6, 128)
        with pytest.raises(ValueError):
            scan_ranges(SPEC_A, RangeCriterion.CC_LEFT_RANGE, (1.0, 2.0), 1e-6, 50)
        with pytest.raises(ValueError):
            scan_ranges(SPEC_A, RangeCriterion.CC_LEFT_RANGE, (1.0, 2.0), -1.0, 128)

    @pytest.mark.parametrize("window", [(1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)])
    def test_window_must_be_finite(self, window):
        with pytest.raises(ValueError, match="invalid window"):
            scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, window, grid_points=128)



def sequential_ranges(spec, criterion, window, threshold, grid_points):
    """Reference scan: the bracket-by-bracket loop that bisects one crossing
    at a time, one kernel call per step.  Returns the (lo, hi) of every range
    and the step count of every bisection."""
    tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
    families = ((SpectralFamily.SS_LEFT,) if criterion is RangeCriterion.CC_LEFT_RANGE
                else (SpectralFamily.SS_LEFT, SpectralFamily.SS_RIGHT))
    emin, emax = window
    singularities = sorted((p for f in families for p in critical_points(spec, f, window=window)),
                           key=lambda p: p.energy)
    log10_cap = math.log10(threshold)
    steps = []

    def certified(energies):
        rl, _, t, det = log10_coefficients(tr_spec, energies)
        return np.maximum(rl, t) if criterion is RangeCriterion.CC_LEFT_RANGE else det

    def bisect(e_fail, e_pass):
        for n in range(200):
            mid = 0.5 * (e_fail + e_pass)
            if abs(e_pass - e_fail) <= 1e-10 * mid:
                break
            if certified([mid])[0] < log10_cap:
                e_pass = mid
            else:
                e_fail = mid
        else:
            n = 200
        steps.append(n)
        return e_pass

    found = []
    for ss_lo, ss_hi in zip(singularities, singularities[1:]):
        lo = max(ss_lo.energy * (1.0 + 1e-12), emin)
        hi = min(ss_hi.energy * (1.0 - 1e-12), emax)
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, grid_points)
        passing = certified(grid) < log10_cap
        i = 0
        while i < grid_points:
            if not passing[i]:
                i += 1
                continue
            j = i
            while j + 1 < grid_points and passing[j + 1]:
                j += 1
            lo_e = bisect(grid[i - 1], grid[i]) if i > 0 else grid[i]
            hi_e = bisect(grid[j + 1], grid[j]) if j + 1 < grid_points else grid[j]
            found.append((float(lo_e), float(hi_e)))
            i = j + 1
    return found, steps


def two_bracket_windows(seed, count):
    """Seeded CPA windows from one spectral singularity to the next but one,
    at moderate rho, where |det S'| crosses 1e-3 inside the brackets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        spec = PotentialSpec(rng.uniform(1.5, 3.0), rng.uniform(0.25, 0.4), 1.0)
        above = rng.uniform(1.0, 2.5)
        max_count = 3 + math.ceil(4.0 * math.sqrt(above + spec.v0) / spec.rho)
        ss = sorted(p.energy for side in Side for p in ss_energies(spec, side, max_count)
                    if p.energy >= above)
        yield spec, (ss[0], ss[2])


def range_scenarios():
    """The table scenarios, the README case and seeded two-bracket CPA windows."""
    table = [pytest.param(spec, crit, window, thr, False, id=label)
             for label, spec, crit, window, thr, *_ in _table1_ranges()]
    readme = pytest.param(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030), 1e-6, False,
                          id="readme")
    seeded = [pytest.param(spec, RangeCriterion.CPA_RANGE, window, 1e-3, True, id=f"seeded{i}")
              for i, (spec, window) in enumerate(two_bracket_windows(2631, 8))]
    return table + [readme] + seeded


class TestLockstepBisection:
    GRID = 1024

    @pytest.mark.parametrize("spec, criterion, window, threshold, bisects", range_scenarios())
    def test_equals_sequential_bisection(self, spec, criterion, window, threshold, bisects):
        try:
            want, steps = sequential_ranges(spec, criterion, window, threshold, self.GRID)
        except ArithmeticError:  # raised at the same energies either way
            with pytest.raises(ArithmeticError, match="det S"):
                scan_ranges(spec, criterion, window, threshold, self.GRID)
            return
        got = scan_ranges(spec, criterion, window, threshold, self.GRID)
        assert [(r.lo, r.hi) for r in got] == want
        if bisects:
            assert steps, "a seeded window that never bisects tests nothing here"

    def test_one_kernel_call_per_step(self, monkeypatch):
        spec, window = next(two_bracket_windows(2631, 1))
        want, steps = sequential_ranges(spec, RangeCriterion.CPA_RANGE, window, 1e-3, self.GRID)
        assert len(steps) >= 2 and min(steps) > 0
        sizes = []

        def counting(tr_spec, energies):
            sizes.append(len(energies))
            return log10_coefficients(tr_spec, energies)

        monkeypatch.setattr(spectral, "log10_coefficients", counting)
        got = scan_ranges(spec, RangeCriterion.CPA_RANGE, window, 1e-3, self.GRID)
        assert [(r.lo, r.hi) for r in got] == want
        brackets = sizes.count(self.GRID)
        assert brackets == 2
        assert len(sizes) <= brackets + max(steps)


class TestBadEnergies:
    @pytest.mark.parametrize("window", [(1.0, math.inf), (math.nan, 2.0), (1.0, math.nan),
                                        (-1.0, 2.0)])
    def test_window_end_named(self, window):
        with pytest.raises(ValueError, match=rf"cc_left window \({window[0]}, {window[1]}\)"):
            critical_points(SPEC_A, SpectralFamily.CC_LEFT, window=window)

    def test_reversed_window_is_sorted(self):
        for family in SpectralFamily:
            assert (critical_points(SPEC_A, family, window=(4.0, 1.0))
                    == critical_points(SPEC_A, family, window=(1.0, 4.0)))

    @pytest.mark.parametrize("energy", [0.0, -1.0, math.nan, math.inf])
    def test_snap_tolerance_needs_positive_energy(self, energy):
        with pytest.raises(ValueError, match=rf"cc_right .*{energy}"):
            snap_tolerance(SPEC_A, SpectralFamily.CC_RIGHT, energy)


class TestThresholdValidation:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030),
                        threshold=threshold, grid_points=128)



class TestRunawayWindow:
    # RPRIME_LEFT_ZERO has finitely many points, so no window runs away
    @pytest.mark.parametrize("family", [f for f in SpectralFamily
                                        if f is not SpectralFamily.RPRIME_LEFT_ZERO])
    def test_refused_before_enumerating(self, no_points, family):
        with pytest.raises(ValueError, match=rf"{family.value} window \(0\.05, 1e\+300\)"):
            critical_points(SPEC_A, family, window=(0.05, 1e300))

    def test_scan_ranges_inherits_the_bound(self, no_points):
        with pytest.raises(ValueError, match="ss_left window"):
            scan_ranges(SPEC_A, RangeCriterion.CC_LEFT_RANGE, (0.05, 1e300))

    def test_large_window_below_the_bound_enumerates(self):
        # 2 a3 runs from 2.5 to about 5e4 here: far more indices than any
        # shipped window, still below the bound
        points = critical_points(SPEC_A, SpectralFamily.CC_LEFT, window=(0.05, 5e8))
        assert len(points) > 40_000
