"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line with its measured figures (run with ``pytest -s`` to see them inline).

Tolerances are pinned here, not configurable: 0.1% on the published
discrete energies, 1e-9 on the connection identity, 1e-10 on Hermitian
unitarity, 1e-6 on oracle equivalence, 1e-12/1e-9 on the spacing laws,
and overlap (not equality) on the threshold-dependent absorption ranges.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from wsabsorb.amplitudes import (
    ChannelParams,
    amplitudes,
    channel_params,
    det_s,
    g_factors,
    hermitian_amplitudes,
)
from wsabsorb.oracle import oracle_amplitudes, oracle_domain_ok
from wsabsorb.specfun import SingularValue
from wsabsorb.spectral import (
    RangeCriterion,
    Side,
    SpectralFamily,
    cc_left_energies,
    cc_right_energies,
    cpa_energies_forward,
    cpa_energies_time_reversed,
    rprime_left_zeros,
    scan_ranges,
    ss_energies,
)
from wsabsorb.units import EnergyUnit, PotentialSpec, Variant, convert_energy

EV = EnergyUnit.ELECTRON_VOLT
MEV = EnergyUnit.MEGA_ELECTRON_VOLT


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over {budget_seconds}s"


def to_ev(energy):
    return convert_energy(energy, to_units=EV)


def test_criterion_1_reference_table_energies():
    with criterion(1, "reference discrete energies", 5.0):
        spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
        left = [to_ev(p.energy) for p in cc_left_energies(spec, 3)]
        for got, stated, published in zip(left, (16.94, 55.51, 105.11),
                                      (16.94, 55.50, 105.07)):
            assert abs(got - stated) / stated < 1e-3
            assert abs(got - published) / published < 1e-3
        right = [to_ev(p.energy) for p in cc_right_energies(spec, 3)]
        for got, stated, published in zip(right, (5.51, 22.04, 49.59),
                                      (5.51, 22.04, 49.58)):
            assert abs(got - stated) / stated < 1e-3
            assert abs(got - published) / published < 1e-3

        spec5 = PotentialSpec(v0=2.0, rho=2.0, mass=1.0)
        forward = {(p.kind, p.index): to_ev(p.energy)
                   for p in cpa_energies_forward(spec5, 6)}
        for key, stated in (
            ((SpectralFamily.CPA_FORWARD_A2, 1), 27.2),
            ((SpectralFamily.CPA_FORWARD_A3, 4), 54.4),
            ((SpectralFamily.CPA_FORWARD_A2, 2), 61.2),
        ):
            assert abs(forward[key] - stated) / stated < 1e-3
        reversed_ = {p.index: to_ev(p.energy)
                     for p in cpa_energies_time_reversed(spec5, 5)}
        for index, stated, published in ((3, 37.04, 37.03), (4, 83.33, 83.32),
                                     (5, 143.95, 143.92)):
            assert abs(reversed_[index] - stated) / stated < 1e-3
            assert abs(reversed_[index] - published) / published < 1e-3


def test_criterion_2_duality():
    with criterion(2, "forward zeros are time-reversed singularities", 5.0):
        rng = np.random.default_rng(20260810)
        for _ in range(5):
            spec = PotentialSpec(v0=rng.uniform(0.5, 4.0),
                                 rho=rng.uniform(0.8, 2.5), mass=1.0)
            forward = cc_left_energies(spec, 6)
            mirrored = ss_energies(spec, Side.LEFT, 6)
            assert [p.energy for p in forward] == [p.energy for p in mirrored]
            tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
            for point in forward:
                if point.degenerate:
                    continue
                fwd = amplitudes(spec, point.energy)
                assert fwd.rl.is_zero and fwd.tl.is_zero
                assert amplitudes(tr_spec, point.energy).Rl.is_pole


def test_criterion_3_connection_identity():
    with criterion(3, "Gamma connection identity", 1.0):
        rng = np.random.default_rng(31415)
        worst = 0.0
        count = 0
        while count < 1000:
            a2 = rng.uniform(0.05, 20.0)
            a3 = rng.uniform(0.05, 20.0)
            if a3 <= a2:
                a2, a3 = a3, a2 + 0.05
            if min(abs(x - round(x)) for x in (2 * a2, 2 * a3, a3 - a2, a3 + a2)) < 5e-3:
                continue
            count += 1
            ch = ChannelParams(energy=1.0, k1=a2, k2=a3, a2=a2, a3=a3, mass=1.0, gap=a3 - a2)
            gf = g_factors(ch)
            lhs = gf.g4 * gf.g1 + SingularValue.from_complex(a2 / a3)
            worst = max(worst, lhs.relative_difference(gf.g2 * gf.g3))
        assert worst < 1e-9, f"identity deviation {worst:.3e}"


def test_criterion_4_hermitian_limit():
    with criterion(4, "Hermitian unitarity and reciprocity", 1.0):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            v0 = rng.uniform(0.2, 6.0)
            delta = rng.uniform(0.4, 3.0)
            energy = rng.uniform(0.05, 12.0)
            amps = hermitian_amplitudes(v0, delta, 1.0, energy)
            assert abs(amps.Rl.magnitude + amps.T.magnitude - 1.0) < 1e-10
            assert abs(math.exp(amps.rl.log_magnitude)
                       - math.exp(amps.rr.log_magnitude)) < 1e-10
            assert abs(amps.det_s.magnitude - 1.0) < 1e-10


def test_criterion_5_oracle_equivalence():
    with criterion(5, "contour-oracle equivalence", 60.0):
        rng = np.random.default_rng(16180)
        worst = 0.0
        done = 0
        while done < 50:
            spec = PotentialSpec(v0=rng.uniform(0.5, 5.0),
                                 rho=rng.uniform(0.5, 3.0), mass=1.0)
            energy = rng.uniform(0.1, 10.0)
            if not oracle_domain_ok(spec, energy):
                continue
            done += 1
            ref = amplitudes(spec, energy)
            got = oracle_amplitudes(spec, energy)
            for field in ("rl", "rr", "tl"):
                a = getattr(ref, field).to_complex()
                b = getattr(got, field).to_complex()
                worst = max(worst, abs(a - b) / abs(a))
        assert worst < 1e-6, f"oracle deviation {worst:.3e}"

        spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
        e_star = 1.8 ** 2 * 9 / 16 - 1.2
        coarse = abs(oracle_amplitudes(spec, e_star * 1.001).rl.to_complex())
        fine = abs(oracle_amplitudes(spec, e_star * 1.0001).rl.to_complex())
        assert coarse / fine >= 8.0, f"limit ratio {coarse / fine:.2f}"


def test_criterion_6_range_reproduction():
    with criterion(6, "absorption-range reproduction", 120.0):
        # (a) narrow unidirectional range
        spec_a = PotentialSpec(v0=1.0, rho=0.0006, mass=1.0)
        points = ss_energies(spec_a, Side.LEFT, 20000)
        below = max((p for p in points if p.energy < 3.00163),
                    key=lambda p: p.energy)
        above = min((p for p in points if p.energy > below.energy),
                    key=lambda p: p.energy)
        gap = above.energy - below.energy
        assert abs(gap - 6.0e-4) < 2e-6
        assert abs(to_ev(gap) - 0.0163) < 2e-4
        assert to_ev(below.energy) < 81.68 < to_ev(above.energy)
        ranges = scan_ranges(spec_a, RangeCriterion.CC_LEFT_RANGE,
                             (below.energy * (1 + 1e-9), above.energy * (1 - 1e-9)),
                             threshold=1e-6, grid_points=4096)
        assert ranges
        assert any(to_ev(r.lo) < 81.6954 and to_ev(r.hi) > 81.6791 for r in ranges)

        # (b) wide unidirectional range
        spec_b = PotentialSpec(v0=5.5e6, rho=60.0, mass=1.0)
        brackets = ss_energies(spec_b, Side.LEFT, 2)
        lo_mev = convert_energy(brackets[0].energy, to_units=MEV)
        hi_mev = convert_energy(brackets[1].energy, to_units=MEV)
        assert abs(lo_mev - 1.25) < 0.01
        assert abs(hi_mev - 3.18) < 0.01
        overlapped = False
        for threshold in (1e-2, 1e-4, 1e-6):
            found = scan_ranges(spec_b, RangeCriterion.CC_LEFT_RANGE,
                                (brackets[0].energy * (1 + 1e-9),
                                 brackets[1].energy * (1 - 1e-9)),
                                threshold=threshold, grid_points=4096)
            for r in found:
                r_lo = convert_energy(r.lo, to_units=MEV)
                r_hi = convert_energy(r.hi, to_units=MEV)
                if r_lo < 1.83 and r_hi > 1.37:
                    overlapped = True
        assert overlapped

        # (c) narrow bidirectional range
        spec_c = PotentialSpec(v0=15.0, rho=0.001, mass=1.0)
        window = (convert_energy(408.05, EV, EnergyUnit.INTERNAL),
                  convert_energy(408.30, EV, EnergyUnit.INTERNAL))
        found = scan_ranges(spec_c, RangeCriterion.CPA_RANGE, window,
                            threshold=1e-6, grid_points=4096)
        assert any(to_ev(r.lo) < 408.258 and to_ev(r.hi) > 408.096 for r in found)


def test_criterion_7_spacing_laws():
    with criterion(7, "spacing laws and corrected zero-spacing constant", 5.0):
        rng = np.random.default_rng(9)
        for _ in range(5):
            spec = PotentialSpec(v0=rng.uniform(0.5, 8.0),
                                 rho=rng.uniform(0.5, 2.5), mass=1.0)
            scale = spec.rho ** 2 / (16.0 * spec.mass)
            left = cc_left_energies(spec, 8)
            for a, b in zip(left, left[1:]):
                ref = scale * (2 * a.index + 1)
                assert abs((b.energy - a.energy) - ref) / ref < 1e-12
            right = cc_right_energies(spec, 8)
            for a, b in zip(right, right[1:]):
                ref = scale * (2 * a.index + 1)
                assert abs((b.energy - a.energy) - ref) / ref < 1e-12
            sing = ss_energies(spec, Side.LEFT, 8)
            for a, b in zip(sing, sing[1:]):
                ref = scale * (2 * a.index + 1)
                assert abs((b.energy - a.energy) - ref) / ref < 1e-12

        # zero-spacing law with the 16 m constant: it must match everywhere
        # at 1e-9 while the printed-18 variant visibly fails somewhere
        worst_16 = 0.0
        best_18_discrimination = 0.0
        for spec in (PotentialSpec(v0=50.0, rho=1.0, mass=1.0),
                     PotentialSpec(v0=30.0, rho=1.5, mass=1.0),
                     PotentialSpec(v0=8.0, rho=1.0, mass=1.0)):
            zeros = rprime_left_zeros(spec)
            assert len(zeros) >= 2
            for a, b in zip(zeros, zeros[1:]):
                n = a.index
                curvature = (
                    spec.mass * spec.v0 ** 2
                    / (n ** 2 * (n + 1) ** 2 * spec.rho ** 2)
                )
                with_16 = (2 * n + 1) * (
                    spec.rho ** 2 / (16.0 * spec.mass) - curvature
                )
                with_18 = (2 * n + 1) * (
                    spec.rho ** 2 / (18.0 * spec.mass) - curvature
                )
                gap = b.energy - a.energy
                worst_16 = max(worst_16, abs(gap - with_16) / abs(with_16))
                best_18_discrimination = max(
                    best_18_discrimination, abs(gap - with_18) / abs(with_18)
                )
        assert worst_16 < 1e-9, f"corrected law deviates by {worst_16:.3e}"
        assert best_18_discrimination > 1e-2, "printed constant not discriminated"


def test_criterion_8_degeneracy_exclusion():
    with criterion(8, "degenerate bidirectional point excluded", 5.0):
        spec = PotentialSpec(v0=2.0, rho=2.0, mass=1.0)
        kept = cpa_energies_time_reversed(spec, 5)
        indices = [p.index for p in kept]
        assert 2 not in indices
        assert indices[:3] == [3, 4, 5]

        tr_spec = replace(spec, variant=Variant.TIME_REVERSED)
        at_excluded = amplitudes(tr_spec, 0.25)
        assert at_excluded.tl.is_finite
        assert abs(at_excluded.tl.magnitude - math.sqrt(1.0 / 3.0)) < 1e-9
        assert at_excluded.det_s.is_finite

        for point in kept[:3]:
            assert det_s(tr_spec, point.energy).is_zero
