"""Critical-energy enumeration, spacing laws, and range certification."""

import importlib
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsabsorb import cli, spectral
from wsabsorb.amplitudes import _G_ARGS, amplitudes, det_s, log10_coefficients
from wsabsorb.cli import _table1_ranges
from wsabsorb.specfun import snap
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
    rprime_left_zeros,
    scan_ranges,
    ss_energies,
)
from wsabsorb.units import EnergyUnit, PotentialSpec, Variant, convert_energy

_AMPLITUDES = importlib.import_module("wsabsorb.amplitudes")

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

    @pytest.mark.parametrize("side", ["left", "right", None, SpectralFamily.SS_LEFT])
    def test_side_that_is_not_a_side_rejected(self, side):
        # every side but Side.LEFT would otherwise be read as the right side
        with pytest.raises(ValueError, match="side must be a Side"):
            ss_energies(SPEC_A, side, 4)


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

    @pytest.mark.parametrize("v0, rho, count", [(15.0, 0.001, 3), (1.0, 0.0006, 4)])
    def test_narrow_rho_energies_match_mpmath(self, v0, rho, count):
        # the first points have p_n near -v0/2, where v0 + 2 p_n cancels; each
        # energy is p_n^2 / (v0 + 2 p_n) at 60 digits on the same floats
        points = critical_points(PotentialSpec(v0, rho), SpectralFamily.RPRIME_LEFT_ZERO, count=count)
        assert [p.index for p in points] == list(range(1, count + 1))
        with mp.workdps(60):
            for point in points:
                p = mp.mpf(point.index) ** 2 * mp.mpf(rho) ** 2 / 8 - mp.mpf(v0) / 2
                want = p * p / (mp.mpf(v0) + 2 * p)
                assert abs(point.energy - want) <= 4e-16 * want, point.index

    def test_narrow_rho_degenerate_points(self):
        # D = 4 m v0 / rho^2 = 6e7 at v0 15, rho 0.001, so 2 a2 = D/n - n is an integer
        # at every n that divides 6e7: n = 1 and 2 are degenerate
        points = rprime_left_zeros(PotentialSpec(15.0, 0.001))
        assert points[0].degenerate and points[1].degenerate

    def test_intermediate_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            spec = PotentialSpec(v0=rng.uniform(0.5, 40), rho=rng.uniform(0.3, 3), mass=rng.uniform(0.5, 2))
            for n in range(1, 6):
                p = p_intermediate(spec, n)
                assert spec.v0 + 2 * p == pytest.approx(
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

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP items 1 and 25: 2 a2 snaps 9.2e-12 from an integer")
    def test_time_reversed_cpa_points_near_an_integer_2a2(self):
        # exactly, 2 a2 = M - D/M with D/M about 9.2e-12 at M = 1, so M = 1, 2
        # and 3 are non-degenerate points; the snap puts 2 a2 on its integer and
        # excludes all three
        spec = PotentialSpec(1.23e-6, 242.5, 0.110)
        window = (0.999 * spectral._channel_energy(spec, 1), 1.001 * spectral._channel_energy(spec, 3))
        points = critical_points(spec, SpectralFamily.CPA_TIME_REVERSED, window=window)
        assert [(p.index, p.degenerate) for p in points] == [(1, False), (2, False), (3, False)]

    @pytest.mark.parametrize("count", [-1, -3, 2.5, 3.0, True, False, np.int64(3), "3"])
    def test_bad_count_rejected(self, count, no_points):
        # a bad count is refused, naming the family, before any point is
        # built: not read as no points, nor rounded
        for family in SpectralFamily:
            with pytest.raises(ValueError, match=f"{family.value} count must be"):
                critical_points(SPEC_A, family, count=count)
        with pytest.raises(ValueError, match="cc_left count must be"):
            cc_left_energies(SPEC_A, count)
        with pytest.raises(ValueError, match="cpa_forward_a2 count must be"):
            cpa_energies_forward(SPEC_A, count)

    @pytest.mark.parametrize("count, text", [(-1, "non-negative, got -1"), (2.5, "an int, got 2.5")])
    def test_bad_count_text(self, count, text):
        with pytest.raises(ValueError, match=f"^cc_left count must be {text}$"):
            critical_points(SPEC_A, SpectralFamily.CC_LEFT, count=count)


def _implied_flags(signature):
    """The scan flags a signature of (r_l, -r_r, t, det S) pole orders names:
    CC_L where r_l and t vanish, CC_R where r_r and t vanish, CPA where
    det S vanishes, SS where it has a pole."""
    rl, rr, t, det = signature
    return {flag for flag, holds in (("CC_L", rl > 0 and t > 0), ("CC_R", rr > 0 and t > 0),
                                     ("CPA", det > 0), ("SS", det < 0)) if holds}


def test_scan_flags_and_gamma_poles_say_what_the_table_says():
    # per variant and condition, the flags of its families in the scan
    # table, unioned, are the flags its signature implies
    signatures = {(row.c2, row.c3): row.signatures for row in spectral._TABLE.values()}
    assert len(signatures) == 4
    for v, variant in enumerate(Variant):
        flagged = {condition: set() for condition in signatures}
        for family, flags in cli._SCAN_FLAGS[variant]:
            row = spectral._TABLE[family]
            flagged[row.c2, row.c3].update(flags)
        assert flagged == {c: _implied_flags(sig[v]) for c, sig in signatures.items()}
    # Gamma(c2 a2 + c3 a3 + c0) has its poles on lines c2 a2 + c3 a3 = N, and
    # each of the kernel's arguments reaches them for a2, a3 of one sign
    # (0 < a2 < a3 forward, both negated time-reversed); the table's four
    # conditions are those lines, up to the sign of (c2, c3)
    channels = [(s * a2, s * (a2 + gap)) for a2 in (0.1, 1.0, 30.0) for gap in (0.01, 5.0)
                for s in (1.0, -1.0)]
    for c2, c3, c0 in _G_ARGS:
        assert any(c2 * a2 + c3 * a3 + c0 < 0 for a2, a3 in channels)
    assert {max((c2, c3), (-c2, -c3)) for c2, c3, _ in _G_ARGS} == (
        {max((c2, c3), (-c2, -c3)) for c2, c3 in signatures})


# README's condition table: the (forward, time-reversed) pole orders of
# (r_l, -r_r, t, det S) on each condition c2*a2 + c3*a3 = N
PUBLISHED_SIGNATURES = {
    (0, 2): ((1, 0, 1, 1), (-1, 0, 0, -1)),
    (2, 0): ((0, 1, 1, 1), (0, -1, 0, -1)),
    (1, 1): ((-2, -2, -2, -2), (0, 0, 0, 2)),
    (-1, 1): ((0, 2, 0, 0), (2, 0, 0, 0)),
}


def test_signatures_counted_from_the_gamma_arguments_are_the_published_table():
    rows = spectral._TABLE.values()
    assert {(row.c2, row.c3) for row in rows} == set(PUBLISHED_SIGNATURES)
    for row in rows:
        assert row.signatures == PUBLISHED_SIGNATURES[row.c2, row.c3]


def test_kernel_orders_at_degenerate_points_are_the_exact_pole_count():
    # at a degenerate point 2 a2 = n2 and 2 a3 = n3 are both integers, so the
    # variant-signed Gamma argument d2 a2 + d3 a3 + d0 is exactly
    # s (d2 n2 + d3 n3) / 2 + d0, a pole where that is an integer <= 0; the
    # kernel's orders on its snapped arguments must be that mask's, through
    # the same pole-to-order step.  The specs put 2 a2 and 2 a3 on integers
    # at one energy, as verify's family_signatures row does on every second one
    rng = np.random.default_rng(41)
    seen = 0
    for _ in range(40):
        mass, rho = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.5)
        n2, step = rng.integers(1, 6), rng.integers(1, 5)
        spec = PotentialSpec(step * (2 * n2 + step) * rho * rho / (16.0 * mass), rho, mass)
        energies = [p.energy for family in SpectralFamily
                    for p in critical_points(spec, family, count=6) if p.degenerate]
        if not energies:
            continue
        _, _, a2, gap = _AMPLITUDES._channel_terms(spec, np.array(energies))
        (n2s, hit2), (n3s, hit3) = snap(2.0 * a2), snap(2.0 * (a2 + gap))
        assert hit2.all() and hit3.all()
        for s, variant in ((1, Variant.FORWARD), (-1, Variant.TIME_REVERSED)):
            twice = [s * (d2 * n2s + d3 * n3s) + 2 * d0 for d2, d3, d0 in _G_ARGS]
            pole = np.array([(t % 2 == 0) & (t <= 0) for t in twice])
            order = _AMPLITUDES._g_orders(pole)
            counted = _AMPLITUDES._amplitude_logs(order, np.zeros(order.shape))[0]
            kernel = _AMPLITUDES._amplitude_orders(replace(spec, variant=variant), energies)
            assert list(map(tuple, counted.T.tolist())) == kernel
            seen += len(energies)
    assert seen > 200


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

    @pytest.mark.xfail(strict=True, raises=ArithmeticError,
                       reason="ROADMAP item 1: a bracket-end sample snaps 2 a3 to a pole")
    def test_bracket_end_next_to_a_singularity_is_certified(self):
        # the last sample of a bracket sits 7.5e-10 below 2 a3 = 3056, which the
        # kernel snaps to the singularity itself; there the det-S check refuses
        # it ("rel diff 8.964e-07"), where mpmath gives log10|det S'| = -64.11
        spec = PotentialSpec(2.9918303100607826, 0.0031742263359435313)
        ranges = scan_ranges(spec, RangeCriterion.CPA_RANGE, (2.533582260940835, 3.040298713))
        assert any(r.lo <= 2.8893229670051994 <= r.hi for r in ranges)

    def test_refuses_a_time_reversed_spec(self):
        # the spec is the forward potential, whose time-reversed partner the
        # ranges are certified on; another variant is refused, not replaced
        spec = PotentialSpec(1.2, 1.8, 1.0, Variant.TIME_REVERSED)
        with pytest.raises(ValueError) as refused:
            scan_ranges(spec, RangeCriterion.CPA_RANGE, (0.5, 0.6), grid_points=256)
        assert str(refused.value) == "scan_ranges takes a forward spec, got variant time_reversed"



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


# CPA windows at mass 1 whose bisection steps read det-S refused energies on
# two crossings: the error names the one that the sequential reference reads
REFUSED_BISECTIONS = [
    pytest.param(PotentialSpec(34.82446890288701, 0.18833926610267235, 1.0), RangeCriterion.CPA_RANGE,
                 (1.3856124670348917, 1.4986784443449388), 0.03074863798154165, True,
                 id="refused_bisection0"),
    pytest.param(PotentialSpec(45.79413540484319, 0.5268116398037207, 1.0), RangeCriterion.CPA_RANGE,
                 (0.8499371679875983, 1.1101220153307407), 0.00038017663013441896, True,
                 id="refused_bisection1"),
]


def watch_kernel_calls(monkeypatch, record):
    """Call ``record`` with the energies of every kernel call that
    scan_ranges makes, as a flat array: the grid stage's first through
    _row_bounds, which gives the values with the lines that bound them
    (its energies, the cells' ends, are a (brackets, ends) array and come
    last), the rest of the grid stage's through log10_coefficients, and the
    bisection's through _log10_refusals."""
    def watching(kernel):
        def watched(tr_spec, *args):
            record(np.ravel(args[-1]))
            return kernel(tr_spec, *args)
        return watched

    for name in ("log10_coefficients", "_row_bounds", "_log10_refusals"):
        monkeypatch.setattr(spectral, name, watching(getattr(spectral, name)))


def kernel_calls(monkeypatch, spec, criterion, window, threshold, grid_points):
    """The (lo, hi) of every range scan_ranges finds, and the energy counts
    of the kernel calls of its grid stage and of its bisection, which begins
    where scan_ranges enters _bisect_crossing."""
    calls, entered = [], []
    bisect = spectral._bisect_crossing

    def entering(*args):
        entered.append(len(calls))
        return bisect(*args)

    watch_kernel_calls(monkeypatch, lambda energies: calls.append(len(energies)))
    monkeypatch.setattr(spectral, "_bisect_crossing", entering)
    found = scan_ranges(spec, criterion, window, threshold, grid_points)
    assert len(entered) == 1
    return [(r.lo, r.hi) for r in found], calls[:entered[0]], calls[entered[0]:]


class TestLockstepBisection:
    GRID = 1024

    @pytest.mark.parametrize("spec, criterion, window, threshold, bisects",
                             range_scenarios() + REFUSED_BISECTIONS)
    def test_equals_sequential_bisection(self, spec, criterion, window, threshold, bisects):
        try:
            want, steps = sequential_ranges(spec, criterion, window, threshold, self.GRID)
        except ArithmeticError as exc:  # raised at the same energy either way
            with pytest.raises(ArithmeticError) as raised:
                scan_ranges(spec, criterion, window, threshold, self.GRID)
            assert str(raised.value) == str(exc)
            return
        got = scan_ranges(spec, criterion, window, threshold, self.GRID)
        assert [(r.lo, r.hi) for r in got] == want
        if bisects:
            assert steps, "a seeded window that never bisects tests nothing here"

    @pytest.mark.parametrize("spec, criterion, window, threshold, bisects",
                             range_scenarios() + REFUSED_BISECTIONS)
    def test_three_grid_calls_then_one_call_per_step(self, monkeypatch, spec, criterion, window,
                                                     threshold, bisects):
        # whatever the bracket count, the grid stage makes at most three kernel
        # calls, and the bisection at least one where a crossing steps, and no
        # more than its longest crossing's steps
        try:
            want, steps = sequential_ranges(spec, criterion, window, threshold, self.GRID)
        except ArithmeticError:
            return  # test_equals_sequential_bisection checks that both raise
        got, grid_calls, bisection_calls = kernel_calls(monkeypatch, spec, criterion, window,
                                                        threshold, self.GRID)
        assert got == want
        assert len(grid_calls) <= 3
        assert bool(bisection_calls) == (max(steps, default=0) > 0)
        assert len(bisection_calls) <= max(steps, default=0)

    def test_no_crossing_makes_no_call_after_the_grid_stage(self, monkeypatch):
        spec, window = next(two_bracket_windows(2631, 1))
        got, grid_calls, bisection_calls = kernel_calls(monkeypatch, spec, RangeCriterion.CPA_RANGE,
                                                        window, 1e-200, self.GRID)
        assert got == [] and bisection_calls == []
        assert 1 <= len(grid_calls) <= 3

    @pytest.mark.parametrize("spec, criterion, window, threshold, bisects",
                             range_scenarios() + REFUSED_BISECTIONS)
    def test_one_g_logs_pass_per_kernel_call(self, monkeypatch, spec, criterion, window, threshold,
                                             bisects):
        # every kernel call, the grid stage's first with its slope terms
        # included, runs _g_logs once: inside its det-S check, and nowhere else
        calls, checked, g_logs = [], [], []
        det_s_checks, g_logs_pass = _AMPLITUDES._det_s_checks, _AMPLITUDES._g_logs
        watch_kernel_calls(monkeypatch, calls.append)
        monkeypatch.setattr(_AMPLITUDES, "_det_s_checks", lambda ch: checked.append(1) or det_s_checks(ch))
        monkeypatch.setattr(_AMPLITUDES, "_g_logs", lambda ch: g_logs.append(1) or g_logs_pass(ch))
        try:
            scan_ranges(spec, criterion, window, threshold, self.GRID)
        except ArithmeticError:
            pass  # the raising call counts too
        assert len(calls) >= 1
        assert len(g_logs) == len(checked) == len(calls)

    @pytest.mark.parametrize("reached", [False, True], ids=["lookahead-only", "reached"])
    def test_a_refusal_raises_only_where_a_step_reads_it(self, monkeypatch, reached):
        # the kernel refuses one energy of the first bisection call: one that no
        # step reads, which leaves the ranges as they are, or one that a step
        # reads, which raises and names it
        spec, window = next(two_bracket_windows(2631, 1))
        refusals, calls = spectral._log10_refusals, []

        def scan(refused=None):  # the bisection's calls go through _log10_refusals alone
            def watched(tr_spec, energies):
                calls.append(energies.tolist())
                rows, found = refusals(tr_spec, energies)
                if refused in calls[-1]:  # a cross-check failure, as _det_s_checks records it
                    found[refused] = (refused, 0.0, 1.0, 0.0, 0, 0)
                return rows, found

            monkeypatch.setattr(spectral, "_log10_refusals", watched)
            return [(r.lo, r.hi) for r in scan_ranges(spec, RangeCriterion.CPA_RANGE, window, 1e-3,
                                                      self.GRID)]

        want, first_call = scan(), calls[0]
        # without predictions and with one step per call, every energy is a step's
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_predicted_crossing", lambda *args: None)
            patch.setattr(spectral, "_LOOKAHEAD", 1)
            assert scan() == want
        stepped = {e for c in calls for e in c}
        bad = next(e for e in first_call if (e in stepped) == reached)
        if reached:
            with pytest.raises(ArithmeticError, match=re.escape(f"E={bad!r}")):
                scan(bad)
        else:
            assert scan(bad) == want


def sample_bounds(grids, ends, q, lo, hi, delta):
    """Each sample's cell, and each certified row's lower and upper bound
    and delta at every sample (rows, brackets, samples), from the per-cell
    lines of _envelopes: the bounds that the per-sample rule compared."""
    cell = np.minimum(np.searchsorted(ends, np.arange(grids.shape[1]), side="right") - 1,
                      len(ends) - 2)
    e = grids[:, ends]
    past, before = grids - e[:, cell], e[:, cell + 1] - grids
    q_a, q_b, lo, hi = (x[..., cell] for x in (q[..., :-1], q[..., 1:], lo, hi))
    with np.errstate(invalid="ignore", over="ignore"):
        lower = np.maximum(q_a + lo * past, q_b - hi * before)
        upper = np.minimum(q_a + hi * past, q_b - lo * before)
    return cell, lower, upper, delta[..., cell]


def per_sample_outcomes(grids, ends, q, lo, hi, delta, log10_cap):
    """The rule that spectral._cell_outcomes replaced, kept as its
    reference: per cell (brackets, cells), whether every inner sample
    passes, and whether every one fails.  A sample passes where every row's
    upper bound is below log10_cap by delta and no row's lower bound is
    above it by delta, and fails where some row's lower bound is above and
    not every upper bound below."""
    _, lower, upper, delta = sample_bounds(grids, ends, q, lo, hi, delta)
    above = (lower > log10_cap + delta).any(axis=0)
    below = (upper < log10_cap - delta).all(axis=0)
    passes, fails = below & ~above, above & ~below

    def inner(marked):  # per cell, how many of its inner samples are marked
        count = np.cumsum(marked, axis=1)
        return count[:, ends[1:] - 1] - count[:, ends[:-1]]

    width = np.diff(ends) - 1
    return inner(passes) == width, inner(fails) == width


class TestGridStage:
    GRID = 1024

    @staticmethod
    def grids(spec, criterion, window, grid_points):
        return np.array([np.linspace(lo, hi, grid_points)
                         for _, lo, hi in spectral._brackets(spec, criterion, *window)])

    def stage(self, spec, criterion, window, log10_cap, grid_points):
        """The brackets' grids, the grid stage's log10 (NaN where it decides a
        sample without evaluating it) and its outcomes."""
        tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
        grids = self.grids(spec, criterion, window, grid_points)
        return grids, *spectral._grid_stage(tr_spec, criterion, log10_cap, grids)

    @pytest.mark.parametrize("spec, criterion, window, threshold, bisects", range_scenarios())
    def test_decided_samples_lie_on_their_side(self, spec, criterion, window, threshold, bisects):
        # at the scenario's threshold, and at thresholds among the full grid's
        # values, where cells next to the crossings are decided by small margins
        tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
        grids = self.grids(spec, criterion, window, self.GRID)
        try:
            full = spectral._log10_certified(tr_spec, criterion, grids.ravel()).reshape(grids.shape)
        except ArithmeticError:
            return  # test_equals_sequential_bisection checks that both raise
        values = full[np.isfinite(full)]
        for cap in [math.log10(threshold), *np.quantile(values, [0.1, 0.5, 0.9]).tolist()]:
            _, log10, passing = self.stage(spec, criterion, window, cap, self.GRID)
            decided = np.isnan(log10)
            assert np.array_equal(full[decided] < cap, passing[decided])
            assert np.array_equal(full[~decided], log10[~decided])
            if cap == math.log10(threshold):
                assert decided.mean() > 0.5

    @pytest.mark.parametrize("spec, criterion, window, threshold, bisects", range_scenarios() + [
        # a bracket at small energy, where T's sqrt(k1/k2) term is of its Gamma terms' size
        pytest.param(PotentialSpec(0.5, 3.0), RangeCriterion.CC_LEFT_RANGE, (0.07, 1.7), 1e-3, False,
                     id="small_energy")])
    def test_values_lie_within_their_bounds(self, spec, criterion, window, threshold, bisects):
        # on every cell whose bounds hold, each certified row's full-grid
        # value lies between its lower and upper bound, up to delta
        tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
        grids = self.grids(spec, criterion, window, self.GRID)
        rows = spectral._CRITERIA[criterion].rows
        try:
            full = np.array([log10_coefficients(tr_spec, grid)[rows] for grid in grids])
        except ArithmeticError:
            return  # test_equals_sequential_bisection checks that both raise
        ends, q, holds, lo, hi, delta = spectral._envelopes(tr_spec, rows, grids)
        cell, lower, upper, delta = sample_bounds(grids, ends, q, lo, hi, delta)
        inside = holds[:, cell]
        assert inside.mean() > 0.5
        full = full.transpose(1, 0, 2)[:, inside]
        assert (lower[:, inside] - delta[:, inside] <= full).all()
        assert (full <= upper[:, inside] + delta[:, inside]).all()

    @pytest.mark.parametrize("spec, criterion, window, threshold, bisects", range_scenarios())
    def test_cells_certify_only_what_their_samples_would(self, spec, criterion, window, threshold,
                                                         bisects):
        # every cell whose bounds hold that the per-cell rule certifies, the
        # per-sample rule certifies with the same outcome, at the scenario's
        # threshold and at thresholds among the full grid's values
        tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
        grids = self.grids(spec, criterion, window, self.GRID)
        try:
            full = spectral._log10_certified(tr_spec, criterion, grids.ravel())
        except ArithmeticError:
            return  # test_equals_sequential_bisection checks that both raise
        ends, q, holds, lo, hi, delta = spectral._envelopes(
            tr_spec, spectral._CRITERIA[criterion].rows, grids)
        ruled = holds & (np.diff(ends) > 1)  # a cell without inner samples decides none
        for cap in [math.log10(threshold), *np.quantile(full[np.isfinite(full)], [0.1, 0.5, 0.9])]:
            passes, fails = spectral._cell_outcomes(grids, ends, q, lo, hi, delta, cap)
            want_passes, want_fails = per_sample_outcomes(grids, ends, q, lo, hi, delta, cap)
            assert want_passes[passes & ruled].all() and want_fails[fails & ruled].all()
            assert not (passes & fails).any()

    @given(st.lists(st.tuples(*[st.floats(-20.0, 20.0)] * 2, st.floats(-40.0, 40.0),
                              st.floats(0.0, 40.0), st.floats(0.0, 1e-3)), min_size=1, max_size=2),
           st.floats(1e-3, 1e3), st.floats(1e-6, 1.0), st.integers(3, 70), st.floats(-30.0, 30.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_cells_certify_only_what_their_samples_would_on_any_lines(self, rows, e_a, width, n,
                                                                      cap):
        # one cell of n samples and one or two rows of lines: values q_a and
        # q_b at its ends, slopes lo <= hi (drawn as rises over the cell) and
        # delta, consistent with its values or not
        q_a, q_b, rise_lo, spread, delta = (np.array(x)[:, None, None] for x in zip(*rows))
        grids = np.linspace(e_a, e_a * (1.0 + width), n)[None]
        length = grids[0, -1] - grids[0, 0]
        lo, hi = rise_lo / length, (rise_lo + spread) / length
        ends, q = np.array([0, n - 1]), np.concatenate([q_a, q_b], axis=2)
        passes, fails = spectral._cell_outcomes(grids, ends, q, lo, hi, delta, cap)
        want_passes, want_fails = per_sample_outcomes(grids, ends, q, lo, hi, delta, cap)
        assert want_passes[passes].all() and want_fails[fails].all()

    def test_most_samples_are_decided(self):
        # the grid stage of the table scenarios, the README case and the seeded
        # windows evaluates at most 15 % of their grid samples
        evaluated = samples = 0
        for param in range_scenarios():
            spec, criterion, window, threshold, _ = param.values
            try:
                with pytest.MonkeyPatch.context() as patch:
                    _, grid_calls, _ = kernel_calls(patch, spec, criterion, window, threshold,
                                                    self.GRID)
            except ArithmeticError:
                continue
            evaluated += sum(grid_calls)
            samples += self.GRID * len(spectral._brackets(spec, criterion, *window))
        assert evaluated <= 0.15 * samples

    @given(st.floats(-2.0, 3.0), st.floats(-3.0, 1.0), st.floats(-2.0, 3.0), st.floats(-9.0, -2.0),
           st.sampled_from(RangeCriterion))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_equals_the_full_grid(self, log_v0, log_rho, log_e, log_threshold, criterion):
        # windows (E, 1.2 E) of the moderate domain, cut where 2 a2 has risen by
        # 3, so that a draw holds a few brackets
        spec, threshold = PotentialSpec(10.0 ** log_v0, 10.0 ** log_rho), 10.0 ** log_threshold
        e = 10.0 ** log_e
        window = (e, min(1.2 * e, ((math.sqrt(e) + 0.75 * spec.rho) ** 2)))
        try:
            want, _ = sequential_ranges(spec, criterion, window, threshold, 256)
        except ArithmeticError as exc:
            refused = float(re.search(r"E=(\S+):", str(exc)).group(1))
            try:
                scan_ranges(spec, criterion, window, threshold, 256)
            except ArithmeticError:
                return
            # it returns only where the grid stage decided the refused sample
            grids, log10, _ = self.stage(spec, criterion, window, math.log10(threshold), 256)
            assert np.isnan(log10[grids == refused]).all() and (grids == refused).any()
            return
        assert [(r.lo, r.hi) for r in scan_ranges(spec, criterion, window, threshold, 256)] == want


def predicted_path_scenarios():
    """cpa_range_wide, whose crossings lie next to the bracket ends' poles,
    and the seeded two-bracket CPA windows."""
    wide = [pytest.param(spec, crit, window, thr, id=label)
            for label, spec, crit, window, thr, *_ in _table1_ranges() if label == "cpa_range_wide"]
    return wide + [pytest.param(spec, RangeCriterion.CPA_RANGE, window, 1e-3, id=f"seeded{i}")
                   for i, (spec, window) in enumerate(two_bracket_windows(2631, 8))]


class TestPredictedPaths:
    GRID = 1024

    def bisection_calls(self, monkeypatch, spec, criterion, window, threshold):
        """The (lo, hi) of every range scan_ranges finds, and the number of
        kernel calls its bisection makes."""
        found, _, bisection_calls = kernel_calls(monkeypatch, spec, criterion, window, threshold,
                                                 self.GRID)
        return found, len(bisection_calls)

    @pytest.mark.parametrize("spec, criterion, window, threshold", predicted_path_scenarios())
    def test_at_most_two_bisection_calls(self, monkeypatch, spec, criterion, window, threshold):
        # one kernel call per _LOOKAHEAD steps would take 4 to 6 here
        try:
            want, steps = sequential_ranges(spec, criterion, window, threshold, self.GRID)
        except ArithmeticError:  # the grid raises, so nothing bisects
            with pytest.raises(ArithmeticError, match="det S"):
                self.bisection_calls(monkeypatch, spec, criterion, window, threshold)
            return
        got, calls = self.bisection_calls(monkeypatch, spec, criterion, window, threshold)
        assert got == want
        assert math.ceil(max(steps) / spectral._LOOKAHEAD) >= 4
        assert 1 <= calls <= 2

    @pytest.mark.parametrize("spec, criterion, window, threshold", predicted_path_scenarios())
    def test_without_a_prediction(self, monkeypatch, spec, criterion, window, threshold):
        # the lookahead tree alone still resolves _LOOKAHEAD steps per call
        monkeypatch.setattr(spectral, "_predicted_crossing", lambda *args: None)
        try:
            want, steps = sequential_ranges(spec, criterion, window, threshold, self.GRID)
        except ArithmeticError:
            return  # the grid raises: test_at_most_two_bisection_calls checks it
        got, calls = self.bisection_calls(monkeypatch, spec, criterion, window, threshold)
        assert got == want
        assert calls <= math.ceil(max(steps) / spectral._LOOKAHEAD)

    @pytest.mark.parametrize("spec, criterion, window, threshold", predicted_path_scenarios()
                             + [pytest.param(*p.values[:4], id=p.id) for p in REFUSED_BISECTIONS])
    def test_each_energy_is_on_a_predicted_path_or_its_tail_tree(self, monkeypatch, spec, criterion,
                                                                 window, threshold):
        # per open crossing, a bisection call evaluates the midpoints of the steps toward
        # its prediction and the _LOOKAHEAD steps' tree rooted _LOOKAHEAD steps before
        # that path's end (at the bracket, without a prediction); the crossings are
        # followed here call by call, each step reading the kernel at its midpoint
        calls, entered, lookahead = [], [], spectral._LOOKAHEAD
        refusals, bisect = spectral._log10_refusals, spectral._bisect_crossing
        watch_kernel_calls(monkeypatch, calls.append)
        monkeypatch.setattr(spectral, "_bisect_crossing",
                            lambda *args: entered.append((len(calls), args[3])) or bisect(*args))
        try:
            scan_ranges(spec, criterion, window, threshold, self.GRID)
        except ArithmeticError:
            pass  # the energies of the call that reads the refusal are checked too
        if not entered:
            return  # the grid stage raises, so nothing bisects
        (first, crossings), = entered
        tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
        # per crossing: e_fail, its log10, e_pass, its log10, prediction, steps taken
        state = [[*crossing, 0] for crossing in crossings]
        for energies in calls[first:]:
            allowed = set()
            for e_fail, _, e_pass, _, c, steps in state:
                path = [(e_fail, e_pass)]
                while (c is not None and steps + len(path) <= 200
                       and (mid := spectral._midpoint(*path[-1])) is not None):
                    allowed.add(mid)
                    lo, hi = path[-1]
                    path.append((lo, mid) if (c < mid) == (lo < mid) else (mid, hi))
                allowed.update(spectral._midpoints(*path[max(len(path) - 1 - lookahead, 0)], lookahead))
            assert set(energies.tolist()) <= allowed
            rows, refused = refusals(tr_spec, energies)
            values = dict(zip(energies.tolist(),
                              rows[spectral._CRITERIA[criterion].rows].max(axis=0).tolist()))
            for s in state:
                while (s[5] < 200 and (mid := spectral._midpoint(s[0], s[2])) in values
                       and mid not in refused):
                    s[slice(2, 4) if values[mid] < math.log10(threshold) else slice(0, 2)] = (
                        mid, values[mid])
                    s[5] += 1
                s[4] = spectral._inverse_interpolation([s[1], s[3]], [s[0], s[2]],
                                                       math.log10(threshold))

    @pytest.mark.parametrize("ascending", [True, False])
    def test_predictions_are_exact_on_their_models(self, ascending):
        # E a cubic in log10, which inverse interpolation through four
        # samples reproduces, and log10 = A - k log10|E - E_pole| next to a
        # pole (a failing sample at +inf) at the grid's first end
        cap, crossing = -3.0, 1.4321
        ys = [-6.1 + 0.5 * k for k in range(13)]  # passing below -3, failing above
        grid = [crossing + 0.1 * (y - cap) + 0.01 * (y - cap) ** 3 for y in ys]
        distances = [1e-4, 2e-4, 4e-4]
        pole = [2.0] + [2.0 + d for d in distances]
        pole_ys = [math.inf] + [-10.0 - 1.5 * math.log10(d) for d in distances]
        pole_crossing = 2.0 + 10.0 ** (-7.0 / 1.5)
        fail, step = 7, -1
        if not ascending:
            grid, ys, fail, step = grid[::-1], ys[::-1], len(ys) - 1 - fail, 1
            pole, pole_crossing = [4.0 - e for e in pole], 4.0 - pole_crossing
        assert ys[fail] >= cap > ys[fail + step]
        predicted = spectral._predicted_crossing(np.array(grid), np.array(ys), fail, step, cap)
        assert predicted == pytest.approx(crossing, abs=1e-13)
        predicted = spectral._predicted_crossing(np.array(pole), np.array(pole_ys), 0, 1, cap)
        assert predicted == pytest.approx(pole_crossing, abs=1e-13)


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


class TestThresholdValidation:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030),
                        threshold=threshold, grid_points=128)

    # True ran, and every range it found stored threshold=True
    @pytest.mark.parametrize("threshold", [True, np.int64(1), np.float32(1e-6), "1e-6"])
    def test_threshold_must_be_int_or_float(self, threshold):
        with pytest.raises(ValueError, match="threshold must be an int or float, got "):
            scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030),
                        threshold=threshold, grid_points=128)
        assert (scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030),
                            threshold=np.float64(1e-6), grid_points=128)
                == scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030),
                               threshold=1e-6, grid_points=128))


class TestArgumentTypes:
    # a criterion given by its value used to run the CPA criterion under the
    # label "cc_left"
    @pytest.mark.parametrize("criterion", ["cc_left", "cpa", None, SpectralFamily.CC_LEFT])
    def test_criterion_must_be_a_range_criterion(self, criterion):
        with pytest.raises(ValueError, match="criterion must be a RangeCriterion"):
            scan_ranges(NARROW, criterion, (3.0010, 3.0030), grid_points=128)

    @pytest.mark.parametrize("family", ["cc_left", None, RangeCriterion.CC_LEFT_RANGE])
    @pytest.mark.parametrize("call", [
        lambda family: critical_points(SPEC_A, family, count=3),
    ], ids=["critical_points"])
    def test_family_must_be_a_spectral_family(self, call, family):
        with pytest.raises(ValueError, match="family must be a SpectralFamily"):
            call(family)

    # (True, 2.0) read the bool as E = 1 and returned 2122 points
    @pytest.mark.parametrize("window", [(True, 2.0), (1.0, np.float32(2.0)), ("1.0", 2.0),
                                        (1.0, False)])
    def test_critical_points_window_ends_must_be_int_or_float(self, window):
        with pytest.raises(ValueError, match="window end must be an int or float, got "):
            critical_points(NARROW, SpectralFamily.CC_LEFT, window=window)
        assert (critical_points(NARROW, SpectralFamily.CC_LEFT, window=(np.float64(1.0), 2))
                == critical_points(NARROW, SpectralFamily.CC_LEFT, window=(1.0, 2.0)))

    @pytest.mark.parametrize("window", [(True, 1.0001), (3.0010, np.float32(3.003)),
                                        (3.0010, "3.0030"), (np.bool_(True), 3.0030)])
    def test_scan_ranges_window_ends_must_be_int_or_float(self, window):
        with pytest.raises(ValueError, match="window end must be an int or float, got "):
            scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, window, grid_points=128)
        assert (scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE,
                            (np.float64(3.0010), np.float64(3.0030)), grid_points=128)
                == scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030),
                               grid_points=128))

    @pytest.mark.parametrize("grid_points", [128.0, True, "128"])
    def test_grid_points_must_be_an_int(self, grid_points):
        with pytest.raises(ValueError, match="grid_points must be an int"):
            scan_ranges(NARROW, RangeCriterion.CC_LEFT_RANGE, (3.0010, 3.0030),
                        grid_points=grid_points)


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


# every M from 5 to about 1.4e7 is degenerate under the 1e-9 snap here, and
# CPA_TIME_REVERSED excludes degenerate points, so the family's first 10**6
# indices hold 4 points
SHALLOW = PotentialSpec(1e-9, 1.0)
# every CC_LEFT energy underflows to -v0 here, and a point at E <= 0 is skipped
UNDERFLOWING = PotentialSpec(1.2, 1e-300)


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's sources, cut after 60 s."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)


def _fail_past(monkeypatch, family: SpectralFamily, limit: int) -> None:
    """Fail at once, instead of walking on, once the family's row computes
    more than ``limit`` energies."""
    row = spectral._TABLE[family]
    calls = itertools.count(1)

    def energy(spec, n):
        if next(calls) > limit:
            raise AssertionError(f"the walk passed {limit} indices")
        return row.energy(spec, n)
    monkeypatch.setitem(spectral._TABLE, family, row._replace(energy=energy))


class TestBoundedWalk:
    # no mode of critical_points walks more than _MAX_WINDOW_INDICES indices

    @pytest.mark.parametrize("call, family, message", [
        (lambda: cpa_energies_time_reversed(SHALLOW, 6), SpectralFamily.CPA_TIME_REVERSED,
         "cpa_time_reversed has 4 of 6"),
        (lambda: critical_points(UNDERFLOWING, SpectralFamily.CC_LEFT, count=2),
         SpectralFamily.CC_LEFT, "cc_left has 0 of 2"),
    ], ids=["degenerate_points_excluded", "energies_underflow"])
    def test_count_walk_is_refused_at_the_cap(self, monkeypatch, call, family, message):
        monkeypatch.setattr("wsabsorb.spectral._MAX_WINDOW_INDICES", 8)
        _fail_past(monkeypatch, family, 100)
        with pytest.raises(ValueError, match=f"^{message} points in its first 8 indices$"):
            call()

    def test_count_met_or_family_ended_within_the_cap_returns(self, monkeypatch):
        monkeypatch.setattr("wsabsorb.spectral._MAX_WINDOW_INDICES", 8)
        assert [p.index for p in cpa_energies_time_reversed(SHALLOW, 4)] == [1, 2, 3, 4]
        assert len(cc_left_energies(SPEC_A, 8)) == 8
        # 2 sqrt(5) = 4.47: the four zeros n = 1..4, fewer than the count asks
        zeros = critical_points(PotentialSpec(5.0, 1.0), SpectralFamily.RPRIME_LEFT_ZERO, count=6)
        assert [p.index for p in zeros] == [1, 2, 3, 4]

    def test_rprime_family_past_the_cap_is_refused_before_enumerating(self, monkeypatch, no_points):
        monkeypatch.setattr("wsabsorb.spectral._MAX_WINDOW_INDICES", 3)
        with pytest.raises(ValueError, match="^rprime_left_zero spans 4 indices, more than 3$"):
            rprime_left_zeros(PotentialSpec(5.0, 1.0))

    def test_rprime_family_at_the_cap_is_complete(self, monkeypatch):
        monkeypatch.setattr("wsabsorb.spectral._MAX_WINDOW_INDICES", 4)
        assert [p.index for p in rprime_left_zeros(PotentialSpec(5.0, 1.0))] == [1, 2, 3, 4]

    def test_cli_reproducer_ends_in_one_error_line(self):
        # under the real cap, in a fresh interpreter: an unbounded walk fails
        # the timeout instead of hanging the suite
        done = _fresh("-m", "wsabsorb.cli", "spectrum", "--v0", "1e-9", "--rho", "1",
                      "--families", "cpa-time-reversed", "--max-count", "10")
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: cpa_time_reversed has 4 of 10 points in its first 1000000 indices\n")

    def test_underflow_reproducer_raises(self):
        done = _fresh("-c", "from wsabsorb.spectral import SpectralFamily, critical_points\n"
                            "from wsabsorb.units import PotentialSpec\n"
                            "critical_points(PotentialSpec(1.2, 1e-300), SpectralFamily.CC_LEFT, "
                            "count=2)\n")
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == (
            "ValueError: cc_left has 0 of 2 points in its first 1000000 indices")
