"""Contour-integration cross-check of the closed-form coefficients.

These tests pit the Gamma-free route (series launch, Taylor-series bridge,
series fit) against the analytic module, and exercise the oracle's own
internal consistency: launch-state round trips, handoff and offset
invariance, and the connection identity re-derived from fitted numbers.
"""

import cmath
import functools
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from wsabsorb.amplitudes import amplitudes, channel_params, g_factors, potential_profile
from wsabsorb.amplitudes import _hermitian_channel, hermitian_amplitudes
from wsabsorb import specfun
from wsabsorb.oracle import (
    _BRIDGED_HANDOFF,
    _FIT_SHAPES,
    _SHAPES,
    ContourError,
    Launch,
    _basis_coefficients,
    _contour_setup,
    _gauss_sums,
    _handoff,
    _integrate_core,
    _local_states,
    hermitian_oracle_amplitudes,
    integrate_contour,
    oracle_amplitudes,
    oracle_domain_ok,
    oracle_g_factors,
)
from wsabsorb.specfun import _UNIT_ROUNDOFF, PoleProximityError, SeriesError, hyp2f1
from wsabsorb.units import PotentialSpec, Variant

SPEC = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
E3 = 1.8 ** 2 * 9 / 16 - 1.2


def analytic_g(spec, energy):
    gf = g_factors(channel_params(spec, energy))
    return tuple(g.to_complex() for g in (gf.g1, gf.g2, gf.g3, gf.g4))


def _states(shapes, a2, a3, u, phi):
    """Rows (psi, dpsi/du) of the local solutions named by shapes, all at u."""
    return _local_states(shapes, a2, a3, (u,) * len(shapes), phi)[0]


def _watch_mesh_points(monkeypatch):
    """The mesh point count of every _integrate_core call, in call order."""
    points = []

    def counting(*args):
        result = _integrate_core(*args)
        points.append(result[2])
        return result

    monkeypatch.setattr("wsabsorb.oracle._integrate_core", counting)
    return points


class TestIntegrateContour:
    def test_free_particle_limit(self):
        # residual reflection scales out linearly with the vanishing depth
        spec = PotentialSpec(v0=1e-6, rho=1.0, mass=1.0)
        g1, g2, g3, g4 = oracle_g_factors(spec, 0.73)
        assert abs(g2 - 1.0) < 1e-5  # the PSI_ONE launch
        assert abs(g1) < 1e-4
        assert abs(g3 - 1.0) < 1e-5  # the PSI_TWO launch
        assert abs(g4) < 1e-4

    def test_fitted_pair_matches_analytic(self):
        _, _, fit3, fit4 = oracle_g_factors(SPEC, 1.0)
        g1, g2, g3, g4 = analytic_g(SPEC, 1.0)
        assert abs(fit3 - g3) <= 1e-6 * abs(g3)
        assert abs(fit4 - g4) <= 1e-6 * abs(g4)

    def test_critical_energy_guarded(self):
        with pytest.raises(ValueError, match="critical"):
            integrate_contour(SPEC, E3, Launch.PSI_TWO)
        with pytest.raises(ValueError, match="critical"):
            integrate_contour(SPEC, E3 * (1.0 + 1e-12), Launch.PSI_TWO)

    def test_pole_line_guarded(self):
        with pytest.raises(ValueError, match="pole"):
            integrate_contour(SPEC, 1.0, Launch.PSI_TWO, x0=math.pi / 1.8)

    def test_overflow_guard_trips_on_deep_contour(self):
        spec = PotentialSpec(v0=8.0, rho=0.6, mass=1.0)
        with pytest.raises(ContourError):
            integrate_contour(spec, 2.2, Launch.PSI_TWO, Z=60.0)

    def test_tiny_span_returns_the_launch_state(self):
        # a span of 2e-323, where psi / h would overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = integrate_contour(SPEC, 1.0, Launch.PSI_ONE, Z=5e-324)
        assert (sol.psi, sol.dpsi) == (sol.psi_start, sol.dpsi_start)

    def test_launch_state_matches_local_solution(self):
        sol = integrate_contour(SPEC, 1.0, Launch.PSI_ONE)
        a2, a3, phi, uh, _ = _contour_setup(SPEC, 1.0, 0.0, None)
        psi, dpsi = _states(("psi1",), a2, a3, uh, phi)[0]
        assert abs(sol.psi_start - psi) < 1e-13 * abs(psi)
        assert abs(sol.dpsi_start - dpsi * SPEC.rho) < 1e-13 * abs(dpsi * SPEC.rho)


class TestLocalFit:
    def test_local_fit_resynthesis(self):
        a2, a3, phi, _, _ = _contour_setup(SPEC, 1.0, 0.0, None)
        uh = _bridged_span(a2, a3)
        launch = _states(_FIT_SHAPES[1:2], a2, a3, uh, phi)  # PSI_TWO
        _, end, _ = _integrate_core(a2, a3, phi, launch, uh, -uh)
        basis = _states(_FIT_SHAPES[2:], a2, a3, -uh, phi)
        (c_plus, c_minus), cond = _basis_coefficients(end, basis)
        (wp, dwp), (wm, dwm) = basis
        psi = c_plus * wp + c_minus * wm
        dpsi = c_plus * dwp + c_minus * dwm
        assert abs(psi - end[0]) <= 1e-8 * abs(end[0])
        assert abs(dpsi - end[1]) <= 1e-8 * abs(end[1])
        assert cond < 1e8


class TestOracleAmplitudes:
    def test_generic_agreement(self):
        ref = amplitudes(SPEC, 1.0)
        got = oracle_amplitudes(SPEC, 1.0)
        for name in ("rl", "rr", "tl"):
            a = getattr(ref, name).to_complex()
            b = getattr(got, name).to_complex()
            assert abs(a - b) <= 1e-6 * abs(a)

    def test_time_reversed_agreement(self):
        tr = replace(SPEC, variant=Variant.TIME_REVERSED)
        ref = amplitudes(tr, 1.37)
        got = oracle_amplitudes(tr, 1.37)
        for name in ("rl", "rr", "tl", "det_s"):
            a = getattr(ref, name).to_complex()
            b = getattr(got, name).to_complex()
            assert abs(a - b) <= 1e-6 * abs(a)

    def test_limit_approach_to_absorption_point(self):
        # |r_l| ~ 1.54e-2 at offset 1e-3 and shrinks ~10x per decade
        previous = None
        for offset in (1e-2, 1e-3, 1e-4):
            amps = oracle_amplitudes(SPEC, E3 * (1.0 + offset))
            rl = abs(amps.rl.to_complex())
            tl = abs(amps.tl.to_complex())
            if offset <= 1e-3:
                assert rl < 2e-2 and tl < 2e-3
            if previous is not None:
                assert previous / rl >= 8.0
            previous = rl

    def test_offset_invariance(self):
        spec = PotentialSpec(v0=0.9, rho=1.2, mass=1.0)
        base = oracle_g_factors(spec, 1.1, x0=0.0)
        for x0 in (0.7, 2.0, -1.92, 2.33):  # the last two: phi = -2.30 and 2.80
            other = oracle_g_factors(spec, 1.1, x0=x0)
            for a, b in zip(base, other):
                assert abs(a - b) <= 1e-8 * abs(a)

    def test_handoff_invariance(self):
        spec = PotentialSpec(v0=0.2, rho=1.5, mass=1.0)
        base = oracle_g_factors(spec, 0.25)
        deeper = oracle_g_factors(spec, 0.25, Z=1.4 / 1.5 + 2.0)
        for a, b in zip(base, deeper):
            assert abs(a - b) <= 1e-7 * abs(a)

    def test_identity_rederived_from_fits(self):
        ch = channel_params(SPEC, 1.0)
        g1, g2, g3, g4 = oracle_g_factors(SPEC, 1.0)
        ratio = (g1 * g4 + ch.k1 / ch.k2) / (g2 * g3)
        assert abs(ratio - 1.0) < 1e-6

    def test_moderate_domain_sweep(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 12:
            spec = PotentialSpec(
                v0=rng.uniform(0.5, 5.0), rho=rng.uniform(0.5, 3.0), mass=1.0
            )
            energy = rng.uniform(0.1, 10.0)
            if not oracle_domain_ok(spec, energy):
                continue
            done += 1
            # each variant's G-factors against its own closed form: the
            # time-reversed ones are the forward ones in reverse order
            for variant in Variant:
                spec = replace(spec, variant=variant)
                ref = analytic_g(spec, energy)
                got = oracle_g_factors(spec, energy)
                for a, b in zip(ref, got):
                    assert abs(a - b) <= 1e-6 * abs(a)

    @pytest.mark.parametrize("spec, energy, x0", [
        (PotentialSpec(0.677, 0.886, 1.0), 9.034, 2.554),
        (PotentialSpec(4.38, 1.59, 1.0), 12.5, -1.77),
    ], ids=["phi_2.26", "phi_-2.81"])
    def test_large_phase_contour(self, spec, energy, x0):
        # in-domain specs whose contour phase once put the handoff where the series
        # diverge (|z| = 1.25 at phi = -2.81) or the fit went 1.6 relative astray
        assert oracle_domain_ok(spec, energy)
        for a, b in zip(analytic_g(spec, energy), oracle_g_factors(spec, energy, x0=x0)):
            assert abs(a - b) <= 1e-6 * abs(a)

    @pytest.mark.parametrize("energy", [7.9, 9.3])
    def test_out_of_domain_draw_past_the_series_spike(self, energy):
        # a2 is about 56 and 61, so the psi2 row's c = 1 - 2 a2 is about -111: a series
        # that stopped before the spike of its term ratio near k = -Re c gave G's off by
        # 1.73 and 1.0 relative, with no error
        spec = PotentialSpec(0.5, 0.1, 1.0)
        assert not oracle_domain_ok(spec, energy)
        for a, b in zip(analytic_g(spec, energy), oracle_g_factors(spec, energy)):
            assert abs(a - b) <= 1e-6 * abs(a)

    def test_phase_band_sweep(self):
        # v0 in [0.5, 8], rho in [0.5, 3], E in [0.1, 15] kept by oracle_domain_ok, 16
        # draws per |phi| band up to pi - 0.21 (POLE_PHASE_MARGIN accepts them), each
        # at x0 = phi / rho: no exception, and every G-factor within the 1e-6 gate
        rng = np.random.default_rng(71)
        for lo, hi in ((0.0, 1.0), (1.0, 2.0), (2.0, 2.6), (2.6, math.pi - 0.21)):
            done = 0
            while done < 16:
                v0, rho = rng.uniform(0.5, 8.0), rng.uniform(0.5, 3.0)
                energy = rng.uniform(0.1, 15.0)
                phi = rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)
                spec = PotentialSpec(v0, rho, 1.0)
                if not oracle_domain_ok(spec, energy):
                    continue
                done += 1
                got = oracle_g_factors(spec, energy, x0=phi / rho)
                for a, b in zip(analytic_g(spec, energy), got):
                    assert abs(a - b) <= 1e-6 * abs(a), (v0, rho, energy, phi)

    def test_hermitian_flux_conservation(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            v0 = rng.uniform(0.3, 3.0)
            delta = rng.uniform(0.6, 2.0)
            energy = rng.uniform(0.2, 6.0)
            amps = hermitian_oracle_amplitudes(v0, delta, 1.0, energy)
            total = amps.Rl.magnitude + amps.T.magnitude
            assert total == pytest.approx(1.0, abs=1e-8)
            ref = __import__("wsabsorb").hermitian_amplitudes(v0, delta, 1.0, energy)
            assert abs(amps.rl.to_complex() - ref.rl.to_complex()) < 1e-7


def series_residual(spec, energy, samples, step):
    """Largest |psi_xx + 4m(E - V) psi| over the samples (x, zeta), over the
    largest |psi| of the stencils.  psi is the local solution psi1 at
    x - i zeta, the forward oracle's PSI_ONE launch, on the 2F1 series alone;
    psi_xx is its five-point second difference in x, and V comes from
    potential_profile, so a2, a3 and the u-equation meet the physical
    potential here."""
    ch = channel_params(spec, energy)
    sign = -1.0 if spec.variant is Variant.TIME_REVERSED else 1.0
    worst = largest = 0.0
    for x, zeta in samples:
        psi = [_states(("psi1",), abs(ch.a2), abs(ch.a3), spec.rho * zeta,
                       sign * spec.rho * (x + j * step))[0, 0] for j in (-2, -1, 0, 1, 2)]
        largest = max(largest, *map(abs, psi))
        d2 = (-psi[0] + 16 * psi[1] - 30 * psi[2] + 16 * psi[3] - psi[4]) / (12 * step * step)
        v = potential_profile(spec, x, [zeta])[0]
        worst = max(worst, abs(d2 + 4 * spec.mass * (energy - v) * psi[2]))
    return worst / largest


class TestWavefunctionResidual:
    SAMPLES = [(0.3, 0.4), (0.9, 0.8), (-0.4, 0.9), (0.2, -0.3)]

    @pytest.mark.parametrize("spec, energy, step, bound", [
        (SPEC, 1.0, 1e-3, 1e-6),
        (PotentialSpec(v0=1e-12, rho=1.0, mass=1.0), 0.05, 0.02, 1e-10),
        (replace(SPEC, variant=Variant.TIME_REVERSED), 1.0, 1e-3, 1e-6),
        (PotentialSpec(v0=1.7, rho=1.4, mass=2.3), 0.83, 1e-3, 1e-6),
    ], ids=["generic", "plane_wave_limit", "time_reversed", "mass_2.3"])
    def test_series_solution_solves_the_wave_equation(self, spec, energy, step, bound):
        assert series_residual(spec, energy, self.SAMPLES, step) < bound

    def test_convergence_order(self):
        coarse = series_residual(SPEC, 0.35, self.SAMPLES, step=0.02)
        fine = series_residual(SPEC, 0.35, self.SAMPLES, step=0.01)
        assert coarse / fine >= 4.0


class TestDomainGuard:
    def test_rejects_near_critical(self):
        assert not oracle_domain_ok(SPEC, E3 * (1.0 + 1e-6))

    def test_rejects_huge_parameters(self):
        assert not oracle_domain_ok(PotentialSpec(v0=5.0, rho=0.5, mass=1.0), 10.0)

    def test_accepts_reference_point(self):
        assert oracle_domain_ok(SPEC, 1.0)


def _closed_form_draws():
    """(v0, delta, energy) of test_agrees_with_closed_form_on_every_amplitude's 30
    draws."""
    rng = np.random.default_rng(47)
    return [(rng.uniform(0.3, 3.0), rng.uniform(0.6, 2.0), rng.uniform(0.2, 6.0))
            for _ in range(30)]


def _hermitian_sweep():
    """(v0, delta, energy) of 120 draws: v0 in [0.5, 8], delta log-uniform in
    [0.1, 3], E in [0.1, 15], kept where both reflections are at least 1e-12."""
    rng = np.random.default_rng(71)
    draws = []
    while len(draws) < 120:
        v0 = rng.uniform(0.5, 8.0)
        delta = 10 ** rng.uniform(-1.0, math.log10(3.0))
        energy = rng.uniform(0.1, 15.0)
        ref = hermitian_amplitudes(v0, delta, 1.0, energy)
        if min(ref.rl.magnitude, ref.rr.magnitude) >= 1e-12:
            draws.append((v0, delta, energy))
    return draws


class TestHermitianOracle:
    def test_reflection_rounded_to_zero(self):
        # the fit rounds G1 to an exact zero here (closed form |r_r| ~ 1e-17)
        args = (1.754586456489668, 0.9072518028767036, 1.0, 7.986655717144825)
        amps = hermitian_oracle_amplitudes(*args)
        ref = hermitian_amplitudes(*args)
        assert amps.Rl.magnitude + amps.T.magnitude == pytest.approx(1.0, abs=1e-8)
        for name in ("rl", "rr"):
            got = getattr(amps, name)
            assert got.is_finite
            assert abs(got.to_complex() - getattr(ref, name).to_complex()) < 1e-7

    def test_agrees_with_closed_form_on_every_amplitude(self):
        for v0, delta, energy in _closed_form_draws():
            amps = hermitian_oracle_amplitudes(v0, delta, 1.0, energy)
            ref = hermitian_amplitudes(v0, delta, 1.0, energy)
            for name in ("rl", "rr", "tl", "det_s"):
                a = getattr(ref, name).to_complex()
                b = getattr(amps, name).to_complex()
                assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("v0, delta, energy", [(2.0, 0.2, 5.0), (1.0, 0.15, 3.0)])
    def test_span_holds_at_large_parameters(self, v0, delta, energy):
        # |a2| + |a3| ~ 49: oscillating series summed at modulus 1/2 cancel, so a fit
        # there with no span would miss by 1e-5 or more; the 1.4 span keeps ~1e-12
        amps = hermitian_oracle_amplitudes(v0, delta, 1.0, energy)
        ref = hermitian_amplitudes(v0, delta, 1.0, energy)
        for name in ("rl", "rr", "tl", "det_s"):
            assert abs(getattr(amps, name).to_complex() - getattr(ref, name).to_complex()) < 1e-10

    @pytest.mark.parametrize("v0, delta, energy", [(1.0, 1.0, 1.0), *_closed_form_draws()[:3]])
    def test_default_fit_runs_no_bridge_step(self, monkeypatch, v0, delta, energy):
        # where its series hold the rounding budget, the fit launches and fits at
        # u = 0, where z = 1 - z = 1/2
        points = _watch_mesh_points(monkeypatch)
        hermitian_oracle_amplitudes(v0, delta, 1.0, energy)
        assert points == [1]

    @pytest.mark.parametrize("v0, delta, energy", [(2.0, 0.2, 5.0), (1.0, 0.15, 3.0)])
    def test_large_parameters_keep_the_bridge(self, monkeypatch, v0, delta, energy):
        # test_span_holds_at_large_parameters' draws: their series at u = 0 cancel
        # past the budget, so the fit bridges from the 1.4 handoff
        points = _watch_mesh_points(monkeypatch)
        hermitian_oracle_amplitudes(v0, delta, 1.0, energy)
        assert len(points) == 1 and points[0] > 1

    def test_sweep_holds_each_route_to_its_bound(self, monkeypatch):
        # every fit within 1e-10 on the unit scale, and every one-point fit within
        # the rounding bound 8 * 2^-53 * kappa of its series at u = 0
        points = _watch_mesh_points(monkeypatch)
        routes = []
        for v0, delta, energy in _hermitian_sweep():
            amps = hermitian_oracle_amplitudes(v0, delta, 1.0, energy)
            ref = hermitian_amplitudes(v0, delta, 1.0, energy)
            dev = max(abs(getattr(amps, name).to_complex() - getattr(ref, name).to_complex())
                      for name in ("rl", "rr", "tl", "det_s"))
            assert dev < 1e-10
            routes.append(points[-1] == 1)
            if routes[-1]:
                ch = _hermitian_channel(v0, delta, 1.0, energy)
                _, kappa = _local_states(_FIT_SHAPES, ch.a2, ch.a3, (0.0,) * 4, 0.0, kappa=True)
                assert dev <= 8 * _UNIT_ROUNDOFF * kappa
        assert len(routes) == 120 and 0 < sum(routes) < len(routes)

    def test_fit_conditioning_guarded(self, monkeypatch):
        monkeypatch.setattr("wsabsorb.oracle.CONDITION_LIMIT", 1.0)
        with pytest.raises(ContourError, match="ill-conditioned"):
            hermitian_oracle_amplitudes(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("entry", ["oracle", "closed_form"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_rejects_non_finite_input(self, entry, value, position):
        fn = hermitian_oracle_amplitudes if entry == "oracle" else hermitian_amplitudes
        args = [1.0, 1.0, 1.0, 1.0]
        args[position] = value
        name = ("v0", "delta", "m", "energy")[position]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fn(*args)


ORACLE_ENTRIES = {
    "integrate_contour": lambda **kw: integrate_contour(SPEC, 1.0, Launch.PSI_TWO, **kw),
    "oracle_g_factors": lambda **kw: oracle_g_factors(SPEC, 1.0, **kw),
    "oracle_amplitudes": lambda **kw: oracle_amplitudes(SPEC, 1.0, **kw),
}


class TestContourArguments:
    @pytest.mark.parametrize("entry", sorted(ORACLE_ENTRIES))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0_rejected(self, entry, value):
        with pytest.raises(ValueError, match="x0 must be finite"):
            ORACLE_ENTRIES[entry](x0=value)

    @pytest.mark.parametrize("entry", sorted(ORACLE_ENTRIES))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_Z_rejected(self, entry, value):
        rule = "finite" if not math.isfinite(value) else "positive"
        with pytest.raises(ValueError, match=f"Z must be {rule}"):
            ORACLE_ENTRIES[entry](Z=value)

    @pytest.mark.parametrize("entry", sorted(ORACLE_ENTRIES))
    @pytest.mark.parametrize("name", ["x0", "Z"])
    @pytest.mark.parametrize("value", [True, "0", 1j, np.float32(1.0)])
    def test_non_number_rejected(self, entry, name, value):
        # a bool would otherwise run as 0 or 1, and a string raise TypeError
        with pytest.raises(ValueError, match=f"{name} must be an int or float"):
            ORACLE_ENTRIES[entry](**{name: value})

    @pytest.mark.parametrize("launch", ["psi_two", "psi_one", None, 1])
    def test_launch_that_is_not_a_launch_rejected(self, launch):
        # anything but Launch.PSI_TWO would otherwise run the PSI_ONE launch
        with pytest.raises(ValueError, match="launch must be a Launch"):
            integrate_contour(SPEC, 1.0, launch)


def _bridged_span(a2, a3):
    """u of a contour's launch (the fit is at -u) under the growth budget
    min(1.4, 5 / (Re a2 + Re a3)), 1.4 for imaginary a2, a3: a span the bridge
    crosses, where the default handoff of a growing pair at phi = 0 has none."""
    growth = a2.real + a3.real
    return min(1.4, 5.0 / growth) if growth > 0 else 1.4


def _joint_draws():
    """(a2, a3, phi, u handoff, variant) of forward, time-reversed and
    Hermitian (imaginary a2, a3) contours, each on its _bridged_span."""
    rng = np.random.default_rng(53)
    draws = []
    for variant in (Variant.FORWARD, Variant.TIME_REVERSED):
        while sum(d[-1] is variant for d in draws) < 4:
            spec = PotentialSpec(rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), 1.0,
                                 variant=variant)
            energy = rng.uniform(0.1, 10.0)
            if oracle_domain_ok(spec, energy):
                a2, a3, phi, _, _ = _contour_setup(spec, energy, rng.uniform(0.0, 1.0), None)
                draws.append((a2, a3, phi, _bridged_span(a2, a3), variant))
    for _ in range(4):
        ch = _hermitian_channel(rng.uniform(0.3, 3.0), rng.uniform(0.6, 2.0), 1.0,
                                rng.uniform(0.2, 6.0))
        draws.append((ch.a2, ch.a3, 0.0, _bridged_span(ch.a2, ch.a3), Variant.FORWARD))
    return draws


def _reversal_draws():
    """(spec, energy, x0, Z) of 24 in-domain forward draws: v0 in [0.5, 5], rho
    in [0.5, 3], E in [0.1, 10], x0 = 0 for the first 8 and |rho x0| <= 2.5
    after them, and Z = None or a share in [0.2, 1] of _bridged_span."""
    rng = np.random.default_rng(79)
    draws = []
    while len(draws) < 24:
        spec = PotentialSpec(rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), 1.0)
        energy, x0, share = rng.uniform(0.1, 10.0), rng.uniform(-2.5, 2.5), rng.uniform(0.2, 1.0)
        if oracle_domain_ok(spec, energy):
            ch = channel_params(spec, energy)
            Z = share * _bridged_span(abs(ch.a2), abs(ch.a3)) / spec.rho
            draws.append((spec, energy, x0 / spec.rho if len(draws) >= 8 else 0.0,
                          Z if len(draws) % 2 else None))
    return draws


class TestTimeReversal:
    # the conjugated potential at x0 is the forward one at -x0 with incoming and
    # outgoing waves swapped: the same fit in reverse order, to the bit

    @pytest.mark.parametrize("draw", _reversal_draws())
    def test_g_factors_are_the_forward_ones_at_minus_x0_reversed(self, draw):
        spec, energy, x0, Z = draw
        tr = replace(spec, variant=Variant.TIME_REVERSED)
        got = oracle_g_factors(tr, energy, x0=x0, Z=Z)
        assert repr(got) == repr(oracle_g_factors(spec, energy, x0=-x0, Z=Z)[::-1])

    @pytest.mark.parametrize("draw", _reversal_draws())
    def test_psi_one_launch_is_the_forward_psi_two_at_minus_x0(self, draw):
        spec, energy, x0, Z = draw
        tr = replace(spec, variant=Variant.TIME_REVERSED)
        got = integrate_contour(tr, energy, Launch.PSI_ONE, x0=x0, Z=Z)
        want = integrate_contour(spec, energy, Launch.PSI_TWO, x0=-x0, Z=Z)
        for name in ("zeta_start", "zeta_end", "psi", "dpsi", "psi_start", "dpsi_start",
                     "step_count"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name


@pytest.mark.parametrize("shape, end", [("psi1", 1), ("psi2", 1), ("w_plus", -1), ("w_minus", -1)])
@pytest.mark.parametrize("draw", _joint_draws())
def test_local_state_derivative_matches_finite_difference(draw, shape, end):
    # five-point stencil in u at the end of the contour the solution belongs to
    a2, a3, phi, uh, _ = draw
    u, step = end * uh, 1e-3
    f = [_states((shape,), a2, a3, u + j * step, phi)[0, 0] for j in (-2, -1, 1, 2)]
    fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * step)
    dpsi = _states((shape,), a2, a3, u, phi)[0, 1]
    assert abs(fd - dpsi) <= 1e-8 * abs(dpsi)


@pytest.mark.parametrize("draw", _joint_draws())
def test_closed_form_fit_matches_linalg(draw):
    # the 2-norm condition number and Cramer's rule against SVD and LU
    a2, a3, phi, uh, _ = draw
    _, end, _ = _integrate_core(a2, a3, phi, _states(_FIT_SHAPES[:2], a2, a3, uh, phi), uh, -uh)
    Y = end.reshape(2, 2).T
    basis = _states(_FIT_SHAPES[2:], a2, a3, -uh, phi)
    C, cond = _basis_coefficients(Y, basis)
    M = basis.T  # columns w+ and w-, rows psi and dpsi/du
    assert abs(cond - np.linalg.cond(M)) <= 1e-12 * np.linalg.cond(M)
    ref = np.linalg.solve(M, Y)
    assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max()


class TestJointIntegration:
    @pytest.mark.parametrize("draw", _joint_draws())
    def test_joint_end_states_match_single_launches(self, draw):
        a2, a3, phi, uh, _ = draw
        shapes = _FIT_SHAPES[:2]
        start, end, _ = _integrate_core(a2, a3, phi, _states(shapes, a2, a3, uh, phi), uh, -uh)
        assert start.shape == end.shape == (4,)
        for i, shape in enumerate(shapes):
            _, alone, _ = _integrate_core(a2, a3, phi, _states((shape,), a2, a3, uh, phi), uh, -uh)
            joint = end[2 * i:2 * i + 2]
            assert np.abs(joint - alone).max() <= 1e-12 * np.abs(alone).max()

    @pytest.mark.parametrize("call", [
        lambda: oracle_g_factors(SPEC, 1.0),
        lambda: oracle_amplitudes(replace(SPEC, variant=Variant.TIME_REVERSED), 1.37),
        lambda: hermitian_oracle_amplitudes(1.0, 1.0, 1.0, 1.0),
    ], ids=["oracle_g_factors", "oracle_amplitudes", "hermitian_oracle_amplitudes"])
    def test_one_integration_per_fit(self, monkeypatch, call):
        calls = []

        def counting(*args):
            calls.append(args[3])  # the launch rows
            return _integrate_core(*args)

        monkeypatch.setattr("wsabsorb.oracle._integrate_core", counting)
        call()
        assert len(calls) == 1 and len(calls[0]) == 2

    @pytest.mark.parametrize("variant", list(Variant))
    def test_default_contour_runs_no_bridge_step(self, monkeypatch, variant):
        # at x0 = 0 a growing pair launches and fits at u = 0, where z = 1 - z = 1/2
        points = _watch_mesh_points(monkeypatch)
        oracle_amplitudes(replace(SPEC, variant=variant), 1.37)
        assert points == [1]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_default_contour_matches_a_bridged_contour(self, variant):
        # the one-point match at u = 0 against launches the bridge carries across
        # the growth-budget span, to test_handoff_invariance's 1e-7
        spec = replace(SPEC, variant=variant)
        a2, a3, _, uh, _ = _contour_setup(spec, 1.37, 0.0, None)
        assert uh == 0.0
        base = oracle_amplitudes(spec, 1.37)
        bridged = oracle_amplitudes(spec, 1.37, Z=_bridged_span(a2, a3) / spec.rho)
        for name in ("rl", "rr", "tl", "det_s"):
            a = getattr(base, name).to_complex()
            b = getattr(bridged, name).to_complex()
            assert abs(a - b) <= 1e-7 * abs(a)

    def test_overflow_guard_trips_through_g_factors(self):
        with pytest.raises(ContourError, match="overflow guard"):
            oracle_g_factors(PotentialSpec(8.0, 0.6, 1.0), 2.2, Z=60.0)


def _worst_deviation(v0, rho, energy):
    """Worst deviation of the oracle from the closed form at one draw: relative
    on the forward G-factors and the time-reversed amplitudes, and on the unit
    scale of the unitary S matrix for the Hermitian amplitudes."""
    spec = PotentialSpec(v0, rho, 1.0)
    tr = replace(spec, variant=Variant.TIME_REVERSED)
    pairs = [(a, b, 0.0) for a, b in zip(analytic_g(spec, energy), oracle_g_factors(spec, energy))]
    for closed, fitted, floor in ((amplitudes(tr, energy), oracle_amplitudes(tr, energy), 0.0),
                                  (hermitian_amplitudes(v0, rho, 1.0, energy),
                                   hermitian_oracle_amplitudes(v0, rho, 1.0, energy), 1.0)):
        for name in ("rl", "rr", "tl", "det_s"):
            pairs.append((getattr(closed, name).to_complex(), getattr(fitted, name).to_complex(),
                          floor))
    return max(abs(a - b) / max(abs(a), floor) for a, b, floor in pairs)


@functools.cache
def _domain_family():
    """(v0, rho, energy) of 48 draws: v0 in [0.5, 5], rho in [0.5, 3], E in
    [0.1, 10] kept by oracle_domain_ok, with a Hermitian reflection (delta =
    rho) of at least 1e-12."""
    rng = np.random.default_rng(61)
    draws = []
    while len(draws) < 48:
        v0, rho, energy = rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), rng.uniform(0.1, 10.0)
        if not oracle_domain_ok(PotentialSpec(v0, rho, 1.0), energy):
            continue
        herm = hermitian_amplitudes(v0, rho, 1.0, energy)
        if min(herm.rl.magnitude, herm.rr.magnitude) < 1e-12:
            continue
        draws.append((v0, rho, energy))
    return tuple(draws)


@functools.cache
def _domain_family_deviations():
    return tuple(_worst_deviation(*draw) for draw in _domain_family())


def test_deviation_quantiles_on_the_domain_family():
    # the worst deviation per draw is rounding noise up to ~1e-8, so the gate is on
    # its quantiles
    p50, p90 = np.quantile(_domain_family_deviations(), [0.5, 0.9])
    assert p50 <= 1e-11 and p90 <= 1e-9


def test_deviation_quantiles_on_the_domain_family_at_rounding_level():
    # the same draws, 100x stricter: the forward and time-reversed fits at u = 0
    # carry no bridge error and no amplification across a span
    p50, p90 = np.quantile(_domain_family_deviations(), [0.5, 0.9])
    assert p50 <= 1e-13 and p90 <= 1e-11


# -- the series pass of the local states ----------------------------------------

def _reference_state(shape, a2, a3, u, phi):
    """(psi, dpsi/du) with 40-digit mpmath 2F1 values: 2F1(a, b; c) for the
    value, and (ab/c) 2F1(a+1, b+1; c+1) for the derivative (DLMF 15.5.1)."""
    sgn2, sgn3, params, arg_is_omz = _SHAPES[shape]
    al, be = sgn2 * a2, sgn3 * a3
    w = cmath.exp(complex(u, phi))
    z = 1.0 / (1.0 + w)
    omz = w * z
    log_z = cmath.log(z)
    a, b, c = params(a2, a3)
    arg = omz if arg_is_omz else z
    with mpmath.workdps(40):
        A, B, C, Z = (mpmath.mpc(v.real, v.imag) for v in map(complex, (a, b, c, arg)))
        F = complex(mpmath.hyp2f1(A, B, C, Z))
        dF = complex(A * B / C * mpmath.hyp2f1(A + 1, B + 1, C + 1, Z))
    pref = cmath.exp(al * log_z + be * (complex(u, phi) + log_z))
    darg_du = z * omz if arg_is_omz else -z * omz
    return pref * F, pref * ((-al * omz + be * z) * F + dF * darg_du)


def _domain_family_contours():
    """(a2, a3, phi, u handoff) of the forward, time-reversed and Hermitian
    contours of the 48 draws of test_deviation_quantiles_on_the_domain_family."""
    contours = []
    for v0, rho, energy in _domain_family():
        for variant in Variant:
            contours.append(_contour_setup(PotentialSpec(v0, rho, 1.0, variant=variant),
                                           energy, 0.0, None)[:4])
        ch = _hermitian_channel(v0, rho, 1.0, energy)
        contours.append((ch.a2, ch.a3, 0.0, _BRIDGED_HANDOFF))
    return contours


@pytest.mark.parametrize("family", ["joint_draws", "domain_family"])
def test_series_pass_matches_one_sum_per_quantity(family):
    # a fit's four states from one pass, each shape at the end the fit reads it at,
    # against the same states on exact 2F1 values
    contours = ([d[:4] for d in _joint_draws()] if family == "joint_draws"
                else _domain_family_contours())
    for a2, a3, phi, uh in contours:
        us = (uh, uh, -uh, -uh)
        for shape, u, row in zip(_FIT_SHAPES, us, _local_states(_FIT_SHAPES, a2, a3, us, phi)[0]):
            for got, ref in zip(row, _reference_state(shape, a2, a3, u, phi)):
                assert abs(got - ref) <= 1e-14 * abs(ref)


def _spike_rows():
    """(k, shape, (a, b, c), arg) of the 48 series rows of
    test_series_pass_holds_the_rounding_bound_at_spikes."""
    rng = np.random.default_rng(67)
    for k in range(1, 7):
        for shape in ("psi2", "w_minus"):
            for _ in range(4):
                x = (k + 0.5 - rng.uniform(-0.05, 0.05)) / 2
                gap = rng.uniform(0.3, 2.0)
                a2, a3 = (x, x + gap) if shape == "psi2" else (max(x - gap, 0.1), x)
                _, _, params, arg_is_omz = _SHAPES[shape]
                phi = rng.uniform(-2.5, 2.5)
                uh = _handoff(phi)
                w = cmath.exp(complex(uh if shape == "psi2" else -uh, phi))
                arg = w / (1.0 + w) if arg_is_omz else 1.0 / (1.0 + w)
                yield k, shape, tuple(complex(v) for v in params(a2, a3)), arg


def _swell(a, b, c, arg):
    """The spike test's sums over the first 400 terms t_k, one at a time:
    1 + sum (k + 1) |t_k| and sum k^2 |t_k| / |arg|."""
    term, swell = 1.0, [1.0, 0.0]
    for n in range(400):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * arg
        swell[0] += (n + 2) * abs(term)
        swell[1] += (n + 1) ** 2 * abs(term / arg)
    return swell


def test_series_pass_holds_the_rounding_bound_at_spikes():
    # c = 1 - 2a2 (psi2) or 1 - 2a3 (w_minus) within 0.05 of -k + 1/2: the terms
    # swell past |c| and cancel.  Either route's error is then its terms' rounding,
    # up to about 2^-53 per ratio per term, so both the pass and hyp2f1 are held
    # to 8 * 2^-53 * kappa against 40 digits, kappa = sum k |t_k| / |sum|, on F
    # and dF/darg
    for k, shape, (a, b, c), arg in _spike_rows():
        assert abs(c - (0.5 - k)) <= 0.05
        F, dF, _ = _gauss_sums(np.array((a, b, c))[:, None, None], np.array([[arg]]))
        routes = {"pass": (F[0], dF[0]),
                  "hyp2f1": (hyp2f1(a, b, c, arg), a * b / c * hyp2f1(a + 1, b + 1, c + 1, arg))}
        with mpmath.workdps(40):
            A, B, C, Z = (mpmath.mpc(v.real, v.imag) for v in (a, b, c, arg))
            exact = (mpmath.hyp2f1(A, B, C, Z), A * B / C * mpmath.hyp2f1(A + 1, B + 1, C + 1, Z))
            exact = [complex(v) for v in exact]
            errs = {name: [abs(mpmath.mpc(g.real, g.imag) - e) / abs(e)
                           for g, e in zip(got, exact)] for name, got in routes.items()}
        swell = _swell(a, b, c, arg)
        for name in routes:
            for err, s, e in zip(errs[name], swell, exact):
                assert err <= 8 * _UNIT_ROUNDOFF * s / abs(e), (name, k, shape)


def _domain_family_hermitian_rows():
    """(a, b, c) and arg of the four series rows of each Hermitian fit of the
    domain family at u = 0, where every row's argument is 1/2."""
    for v0, rho, energy in _domain_family():
        ch = _hermitian_channel(v0, rho, 1.0, energy)
        yield [(_SHAPES[shape][2](ch.a2, ch.a3), 0.5) for shape in _FIT_SHAPES]


@pytest.mark.parametrize("family", ["spikes", "domain_family_hermitian"])
def test_series_pass_reports_the_spike_tests_kappa(family):
    # kappa on F and on dF/darg, as _gauss_sums reads it off its terms, against the
    # spike test's sums over the same terms
    passes = ([[(abc, arg)] for _, _, abc, arg in _spike_rows()] if family == "spikes"
              else _domain_family_hermitian_rows())
    for rows in passes:
        abc, arg = zip(*rows)
        F, dF, kappa = _gauss_sums(np.array(abc).T[:, :, None], np.array(arg)[:, None], kappa=True)
        assert len(kappa) == len(rows)
        for (a, b, c), z, f, df, got in zip(abc, arg, F, dF, kappa):
            s_f, s_df = _swell(a, b, c, z)
            assert got == pytest.approx([s_f / abs(f), s_df / abs(df)], rel=1e-12, abs=0)


# single rows (a, b, c, arg) that stop after 64 terms, after 128, and after 192
# and 448, past one block of 128
_STOPPING_ROWS = {64: ((2.1, 1.1, 1.6), 0.2), 128: ((6.0, 5.0, 5.0), 0.5),
                  192: ((4.0, 3.0, 3.0), 0.7), 448: ((2.5, 1.5, 1.8), 0.9)}


def _fit_rows(a2, a3, phi, uh):
    """(abc, arg) of a fit's four series rows, as _local_states forms them."""
    rows = []
    for shape, u in zip(_FIT_SHAPES, (uh, uh, -uh, -uh)):
        _, _, params, arg_is_omz = _SHAPES[shape]
        w = cmath.exp(complex(u, phi))
        z = 1.0 / (1.0 + w)
        rows.append((tuple(map(complex, params(a2, a3))), w * z if arg_is_omz else z))
    return rows


def _block_span_passes():
    """(abc, arg) of the passes test_series_pass_bits_do_not_depend_on_the_block
    runs: each stopping row alone and the four in one pass, in both orders, the
    spike test's rows, the domain family's four-row Hermitian passes at u = 0,
    and the four-row passes of the joint draws' fits (complex rows off x0 = 0)
    and the domain family's, and of both tries of the Hermitian fits that
    bridge, whose rows at u = 0 swell and cancel (at |a2| + |a3| ~ 49)."""
    stopping = [(tuple(map(complex, abc)), complex(arg)) for abc, arg in _STOPPING_ROWS.values()]
    passes = [[row] for row in stopping] + [stopping, stopping[::-1]]
    passes += [[(abc, arg)] for _, _, abc, arg in _spike_rows()]
    passes += list(_domain_family_hermitian_rows())
    passes += [_fit_rows(*d[:4]) for d in _joint_draws()]
    passes += [_fit_rows(*c) for c in _domain_family_contours()]
    for v0, delta, energy in ((2.0, 0.2, 5.0), (1.0, 0.15, 3.0)):
        ch = _hermitian_channel(v0, delta, 1.0, energy)
        passes += [_fit_rows(ch.a2, ch.a3, 0.0, uh) for uh in (0.0, 1.4)]
    return [(np.array(abc).T[:, :, None], np.array(arg)[:, None])
            for abc, arg in (zip(*rows) for rows in passes)]


def test_stopping_rows_stop_where_named(monkeypatch):
    # each converges within its named count of terms and not within 64 fewer
    for stop, (abc, arg) in _STOPPING_ROWS.items():
        args = np.array(abc, dtype=complex)[:, None, None], np.array([[arg]], dtype=complex)
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", stop)
        _gauss_sums(*args)
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", stop - 64)
        with pytest.raises(SeriesError, match=f"within {stop - 64} terms"):
            _gauss_sums(*args)


def test_series_pass_bits_do_not_depend_on_the_block(monkeypatch):
    # the terms come a numpy block at a time, but each row's stop is decided every
    # 64 terms and each step continues from the last term before it as before, so
    # F, dF/darg and kappa keep every bit whatever the block
    assert specfun._STOP_STEP == 64
    for abc, arg in _block_span_passes():
        results = set()
        for block in (64, 128, 192):
            monkeypatch.setattr(specfun, "_BLOCK", block)
            results.add(repr(_gauss_sums(abc, arg, kappa=True)))
        assert len(results) == 1
    # and a row whose terms overflow is refused at the same step
    for block in (64, 128, 192):
        monkeypatch.setattr(specfun, "_BLOCK", block)
        with pytest.raises(SeriesError, match="^2F1 series terms overflow within 960 terms$"):
            hyp2f1(401, 400, 401, 0.9)


def test_series_pass_sums_a_real_rows_zero_imaginary_parts_as_fsum_does():
    # the pass forms no sum of a part whose terms are all zero, and gives it +0.0:
    # math.fsum keeps zeros out of its partials, so zeros of either sign sum to +0.0.
    # A row with c < 0 has imaginary parts -0.0 (psi2 and w_minus of a forward fit)
    assert math.copysign(1.0, math.fsum([-0.0] * 5)) == 1.0
    assert math.copysign(1.0, math.fsum([0.0, -0.0, -0.0])) == 1.0
    a2, a3, phi, uh, _ = _contour_setup(SPEC, 3.0, 0.0, None)
    rows = _fit_rows(a2, a3, phi, uh)
    abc, arg = zip(*rows)
    assert not np.array(abc).imag.any() and not np.array(arg).imag.any()
    assert any(c.real < 0 for _, _, c in abc)
    F, _, _ = _gauss_sums(np.array(abc).T[:, :, None], np.array(arg)[:, None])
    assert all(math.copysign(1.0, f.imag) == 1.0 and f.imag == 0.0 for f in F)


@pytest.mark.parametrize("family", ["joint_draws", "domain_family", "hermitian_at_0"])
def test_local_states_are_the_same_bits_with_and_without_kappa(family):
    if family == "joint_draws":
        contours = [d[:4] for d in _joint_draws()]
    elif family == "domain_family":
        contours = _domain_family_contours()
    else:
        contours = [(a2, a3, 0.0, 0.0) for a2, a3, phi, _ in _domain_family_contours() if phi == 0.0
                    and a2.real == 0.0]
    assert contours
    for a2, a3, phi, uh in contours:
        us = (uh, uh, -uh, -uh)
        states, kappa = _local_states(_FIT_SHAPES, a2, a3, us, phi, kappa=True)
        plain, none = _local_states(_FIT_SHAPES, a2, a3, us, phi)
        assert none is None and kappa >= 1.0
        assert plain.tobytes() == states.tobytes()


@pytest.mark.parametrize("shape, a2, a3, u, phi, cap, error, match", [
    ("psi1", complex(math.nan), 2.1 + 0j, 0.5, 0.3, None, ValueError, "non-finite"),
    ("psi1", 1.3 + 0j, 2.1 + 0j, 0.0, math.pi - 0.01, None, ValueError, "outside series domain"),
    ("psi2", 0.5 + 5e-13 + 0j, 2.1 + 0j, 0.5, 0.3, None, PoleProximityError,
     "non-positive integer"),
    ("psi1", 1.3 + 0j, 2.1 + 0j, 0.5, 0.3, 8, SeriesError, "within 8 terms"),
    ("psi1", 200 + 0j, 200 + 0j, math.log(1 / 9), 0.0, None, SeriesError,
     "terms overflow within 960 terms"),
], ids=["non_finite_a2", "outside_series_domain", "c_at_a_pole", "term_cap", "terms_overflow"])
def test_series_pass_refuses_what_hyp2f1_refuses(monkeypatch, shape, a2, a3, u, phi, cap, error,
                                                 match):
    # phi = pi - 0.01 at u = 0 puts |z| near 100; 2a2 = 1 + 1e-12 puts psi2's c = 1 - 2a2
    # within TAU_INT of 0; the cap is the term cap hyp2f1 reads too; 2F1(401, 400;
    # 401; 0.9) = 10^400, whose terms overflow long before the cap.  hyp2f1 on the
    # row's own (a, b, c, z) raises the same type with the same message
    if cap is not None:
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", cap)
    _, _, params, arg_is_omz = _SHAPES[shape]
    w = cmath.exp(complex(u, phi))
    z = 1.0 / (1.0 + w)
    with pytest.raises(error, match=match) as by_pass:
        _local_states((shape,), a2, a3, (u,), phi)
    with pytest.raises(error, match=match) as by_hyp2f1:
        hyp2f1(*params(a2, a3), w * z if arg_is_omz else z)
    assert type(by_hyp2f1.value) is type(by_pass.value)
    assert str(by_hyp2f1.value) == str(by_pass.value)


@pytest.mark.parametrize("call", [
    lambda: integrate_contour(PotentialSpec(8.0, 0.6, 1.0), 2.2, Launch.PSI_TWO, Z=1500.0),
    lambda: oracle_g_factors(PotentialSpec(8.0, 0.6, 1.0), 2.2, Z=120.0),
], ids=["launch_past_exp_range", "fit_basis_past_exp_range"])
def test_overflowing_local_state_is_a_contour_error(call):
    # u = 900 at the launch; at u = -72 the fit basis w- reaches e^{72 a3}, a3 ~ 10.6
    with pytest.raises(ContourError, match="overflows at u="):
        call()
