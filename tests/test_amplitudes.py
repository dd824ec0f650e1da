"""Channel parameters, connection coefficients, and amplitude algebra."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from wsabsorb.amplitudes import (
    _G_TABLE,
    AmplitudeSet,
    ChannelParams,
    _channel,
    _g_logs,
    _hermitian_channel,
    _row_bounds,
    amplitudes,
    channel_params,
    det_s,
    g_factors,
    hermitian_amplitudes,
    log10_coefficients,
    potential_profile,
)
from wsabsorb.specfun import SingularValue
from wsabsorb.spectral import SpectralFamily, critical_points
from wsabsorb.units import PotentialSpec, Variant

SPEC = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
E3 = 1.8 ** 2 * 9 / 16 - 1.2  # left absorption point with 2*a3 = 3


def random_channel(rng, margin=5e-3):
    """Generic (a2, a3) away from every integer condition."""
    while True:
        a2 = rng.uniform(0.05, 20.0)
        a3 = rng.uniform(0.05, 20.0)
        if a3 <= a2:
            a2, a3 = a3, a2 + 0.05
        dists = [abs(x - round(x)) for x in (2 * a2, 2 * a3, a3 - a2, a3 + a2)]
        if min(dists) > margin:
            return ChannelParams(energy=1.0, k1=a2, k2=a3, a2=a2, a3=a3, mass=1.0, gap=a3 - a2)


class TestChannelParams:
    def test_back_substituted_reference_point(self):
        ch = channel_params(SPEC, E3)
        assert ch.a3 == pytest.approx(1.5, abs=1e-12)
        assert 2 * ch.a3 == pytest.approx(3.0, abs=1e-12)

    def test_low_energy_limit(self):
        ch = channel_params(SPEC, 1e-12)
        assert ch.a2 == pytest.approx(0.0, abs=1e-5)
        assert ch.a3 == pytest.approx(2.0 / 1.8 * math.sqrt(1.2), rel=1e-9)

    def test_time_reversed_sign(self):
        ch = channel_params(replace(SPEC, variant=Variant.TIME_REVERSED), E3)
        assert ch.a3 == pytest.approx(-1.5, abs=1e-12)
        assert ch.a2 < 0
        assert ch.k1 > 0 and ch.k2 > 0

    def test_ordering_and_dispersion(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            spec = PotentialSpec(v0=rng.uniform(0.1, 9), rho=rng.uniform(0.3, 3), mass=rng.uniform(0.5, 2))
            energy = rng.uniform(1e-3, 20)
            ch = channel_params(spec, energy)
            assert 0 < ch.a2 < ch.a3
            gap = ch.a3 ** 2 - ch.a2 ** 2
            ref = 4 * spec.mass * spec.v0 / spec.rho ** 2
            assert gap == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("energy", [0.5, 1e8, 1e20])
    def test_gap_without_cancellation(self, energy):
        # a3 - a2 = 2 (k2 - k1) / rho, exact to a few ulp at any energy
        with mp.workdps(50):
            e = mp.mpf(energy)
            k1, k2 = mp.sqrt(e), mp.sqrt(e + mp.mpf(SPEC.v0))
            want = float(2 * (k2 - k1) / mp.mpf(SPEC.rho))
            want_h = float(2 * (mp.sqrt(2 * e) - mp.sqrt(2 * (e + mp.mpf(0.7)))) / mp.mpf(1.3))
        for variant, sign in ((Variant.FORWARD, 1.0), (Variant.TIME_REVERSED, -1.0)):
            ch = channel_params(replace(SPEC, variant=variant), energy)
            assert ch.gap == pytest.approx(sign * want, rel=1e-15)
        herm = _hermitian_channel(0.7, 1.3, 2.0, energy)
        assert herm.gap.real == 0.0 and herm.gap.imag == pytest.approx(-want_h, rel=1e-15)

    def test_gap_is_required(self):
        # the constructors form the gap from v0; a3 - a2 would cancel
        with pytest.raises(TypeError, match="gap"):
            ChannelParams(energy=1.0, k1=0.5, k2=1.0, a2=0.5, a3=1.25, mass=1.0)

    def test_rejects_bad_energy(self):
        with pytest.raises(ValueError):
            channel_params(SPEC, 0.0)
        with pytest.raises(ValueError):
            channel_params(SPEC, math.nan)

    # a bool was read as E = 1 and np.float32 refused as not finite
    @pytest.mark.parametrize("energy", [True, np.int64(1), np.float32(1.0), "1.0"])
    def test_energy_must_be_int_or_float(self, energy):
        with pytest.raises(ValueError, match="energy must be an int or float, got "):
            channel_params(SPEC, energy)

    def test_int_and_float64_energy_accepted(self):
        assert channel_params(SPEC, np.float64(1.0)) == channel_params(SPEC, 1) \
            == channel_params(SPEC, 1.0)


class TestGFactors:
    def test_zero_when_exponents_coincide(self):
        # equal a2 = a3 puts a pole in the g1 denominator only
        ch = ChannelParams(energy=1.0, k1=0.7, k2=0.9, a2=0.7, a3=0.7, mass=1.0, gap=0.7 - 0.7)
        gf = g_factors(ch)
        assert gf.g1.is_zero

    def test_frozen_g2_value(self):
        # Gamma(2)Gamma(2)/(Gamma(1.5)Gamma(2.5)) = 0.8488263631567751 (mpmath)
        ch = ChannelParams(energy=1.0, k1=0.5, k2=1.0, a2=0.5, a3=1.0, mass=1.0, gap=1.0 - 0.5)
        gf = g_factors(ch)
        assert gf.g2.to_complex().real == pytest.approx(0.8488263631567751, rel=1e-12)

    def test_pole_at_absorption_point(self):
        ch = channel_params(SPEC, E3)
        gf = g_factors(ch)
        assert gf.g3.is_pole and gf.g1.is_pole
        assert gf.g2.is_finite and gf.g4.is_finite

    def test_g_logs_orders_are_five_rows(self):
        # one order row per G and sqrt(k1/k2), with and without a snapped pole
        for energies in ([1.0, 2.5], [1.0, E3]):
            order, lg, _, _ = _g_logs(_channel(SPEC, np.array(energies)))
            assert order.shape == lg.shape == (5, 2)
        assert order[:, 1].any()

    def test_gamma_identity_sampled(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            ch = random_channel(rng)
            gf = g_factors(ch)
            k_ratio = SingularValue.from_complex(ch.k1 / ch.k2)
            lhs = gf.g4 * gf.g1 + k_ratio
            worst = max(worst, lhs.relative_difference(gf.g2 * gf.g3))
        assert worst < 1e-9

    def test_hermitian_conjugacy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            b2 = rng.uniform(0.1, 6.0)
            b3 = b2 + rng.uniform(0.05, 5.0)
            ch = ChannelParams(energy=1.0, k1=b2, k2=b3, a2=1j * b2, a3=1j * b3, mass=1.0,
                               gap=1j * b3 - 1j * b2)
            gf = g_factors(ch)
            assert gf.g1.conjugate().relative_difference(gf.g4) < 1e-10
            assert gf.g2.conjugate().relative_difference(gf.g3) < 1e-10


class TestAmplitudes:
    def test_absorption_point_classification(self):
        amps = amplitudes(SPEC, E3)
        assert amps.rl.is_zero and amps.tl.is_zero
        assert amps.rr.is_finite
        assert amps.Rl.magnitude == 0.0 and amps.T.magnitude == 0.0

    @pytest.mark.xfail(strict=True, raises=ArithmeticError,
                       reason="ROADMAP item 11: the det-S tolerance misses a near-pole argument")
    def test_landing_point_with_a_near_pole_gap(self):
        # 2 a2 = 4000 lands on the 2 a2 row, and the gap a3 - a2 is about 1e-7,
        # so the arguments 1 - a2 - a3 and a2 + a3 sit 1e-7 from a pole: their
        # rounding, eps |z| / |z - k| relative, is of order 1e-5 and beats the
        # check's tolerance ("rel diff 2.961e-06")
        amps = amplitudes(PotentialSpec(1e-4, 1.0, 1.0), 1e6)
        assert (amps.rl.order, amps.rr.order, amps.tl.order, amps.det_s.order) == (0, 1, 1, 1)

    def test_time_reversed_divergence(self):
        amps = amplitudes(replace(SPEC, variant=Variant.TIME_REVERSED), E3)
        assert amps.Rl.is_pole
        assert amps.Rl.magnitude == math.inf

    def test_transmission_left_equals_right(self):
        amps = amplitudes(SPEC, 1.0)
        assert amps.tl is amps.tr

    def test_reflections_differ_generically(self):
        rng = np.random.default_rng(13)
        count = 0
        while count < 100:
            spec = PotentialSpec(v0=rng.uniform(0.3, 5), rho=rng.uniform(0.5, 2.5), mass=1.0)
            energy = rng.uniform(0.05, 10.0)
            amps = amplitudes(spec, energy)
            if not (amps.Rl.is_finite and amps.Rr.is_finite):
                continue
            count += 1
            assert amps.Rl.relative_difference(amps.Rr) > 1e-9

    def test_det_s_closed_vs_sum(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        count = 0
        while count < 200:
            spec = PotentialSpec(v0=rng.uniform(0.3, 5), rho=rng.uniform(0.5, 2.5), mass=1.0)
            energy = rng.uniform(0.05, 10.0)
            amps = amplitudes(spec, energy)
            if not amps.det_s.is_finite:
                continue
            det_sum = amps.tl * amps.tr - amps.rl * amps.rr
            # skip deep cancellations, where the sum route carries no digits
            cancel = max((amps.tl * amps.tr).log_magnitude,
                         (amps.rl * amps.rr).log_magnitude) - det_sum.log_magnitude
            if cancel > 2.0:
                continue
            count += 1
            worst = max(worst, det_sum.relative_difference(amps.det_s))
        assert worst < 1e-10

    def test_det_s_reciprocal_pair(self):
        forward = det_s(SPEC, 1.0)
        backward = det_s(replace(SPEC, variant=Variant.TIME_REVERSED), 1.0)
        product = forward * backward
        assert product.is_finite
        assert abs(product.to_complex() - 1.0) < 1e-10

    def test_det_s_zero_at_absorption_point(self):
        assert det_s(SPEC, E3).is_zero

    def test_forward_zeros_are_time_reversed_poles(self):
        from wsabsorb.spectral import cc_left_energies

        rng = np.random.default_rng(23)
        for _ in range(5):
            spec = PotentialSpec(v0=rng.uniform(0.5, 4), rho=rng.uniform(0.8, 2.5), mass=1.0)
            for point in cc_left_energies(spec, 4):
                if point.degenerate:
                    continue
                fwd = amplitudes(spec, point.energy)
                bwd = amplitudes(replace(spec, variant=Variant.TIME_REVERSED), point.energy)
                assert fwd.rl.is_zero and fwd.tl.is_zero
                assert bwd.Rl.is_pole


class TestHermitian:
    @pytest.mark.parametrize("position, name", enumerate(["v0", "delta", "m", "energy"]))
    @pytest.mark.parametrize("value", [True, np.int64(1), np.float32(1.0)])
    def test_arguments_must_be_int_or_float(self, position, name, value):
        args = [1.0, 1.0, 1.0, 1.0]
        args[position] = value
        with pytest.raises(ValueError, match=f"{name} must be an int or float, got "):
            hermitian_amplitudes(*args)
        args[position] = np.float64(1.0)
        assert hermitian_amplitudes(*args) == hermitian_amplitudes(1.0, 1.0, 1.0, 1.0)

    def test_unitarity_and_reciprocity(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            v0 = rng.uniform(0.2, 6.0)
            delta = rng.uniform(0.4, 3.0)
            energy = rng.uniform(0.05, 12.0)
            amps = hermitian_amplitudes(v0, delta, 1.0, energy)
            assert amps.Rl.magnitude + amps.T.magnitude == pytest.approx(1.0, abs=1e-10)
            assert amps.rl.log_magnitude == pytest.approx(amps.rr.log_magnitude, abs=1e-10)
            assert amps.det_s.magnitude == pytest.approx(1.0, abs=1e-10)

    def test_high_energy_transparency(self):
        amps = hermitian_amplitudes(0.8, 1.3, 1.0, 1e4 * 0.8)
        assert amps.T.magnitude > 0.99
        assert amps.Rl.magnitude < 0.01



class TestRealRoute:
    """Real Gamma arguments (both variants of the complexified potential)
    take gammaln/gammasgn; complex ones take loggamma."""

    @staticmethod
    def draws(seed, n=300):
        rng = np.random.default_rng(seed)
        pairs = [random_channel(rng, margin=1e-6) for _ in range(n)]
        return np.array([ch.a2 for ch in pairs]), np.array([ch.a3 for ch in pairs])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_g_factors_against_mpmath(self, sign):
        a2, a3 = self.draws(41)
        with np.errstate(all="ignore"):
            order, lg, _, _ = _g_logs(ChannelParams(a2, a2, a3, sign * a2, sign * a3, 1.0,
                                                    sign * a3 - sign * a2))
        assert lg.dtype == complex and (order == 0).all()
        worst = 0.0
        with mp.workdps(40):
            for j in range(a2.size):
                x2, x3 = mp.mpf(sign * a2[j]), mp.mpf(sign * a3[j])
                for g, (numer, denom) in enumerate(_G_TABLE):
                    n1, n2, d1, d2 = (mp.gamma(c2 * x2 + c3 * x3 + c0)
                                      for c2, c3, c0 in numer + denom)
                    got = mp.exp(mp.mpc(lg[g, j].real, lg[g, j].imag))
                    worst = max(worst, float(abs(got * d1 * d2 / (n1 * n2) - 1)))
        assert worst <= 1e-11

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_complex_route_agrees(self, sign):
        a2, a3 = self.draws(43)
        with np.errstate(all="ignore"):
            _, real, _, _ = _g_logs(ChannelParams(a2, a2, a3, sign * a2, sign * a3, 1.0,
                                                  sign * a3 - sign * a2))
            _, cplx, _, _ = _g_logs(ChannelParams(a2, a2, a3, sign * a2 + 0j, sign * a3 + 0j, 1.0,
                                                  (sign * a3 + 0j) - (sign * a2 + 0j)))
        assert np.abs(np.exp(real[:4] - cplx[:4]) - 1.0).max() <= 1e-13

    def test_root_k_is_half_math_log(self):
        rng = np.random.default_rng(47)
        k1 = rng.uniform(1e-3, 50.0, 2000)
        k2 = k1 + rng.uniform(1e-6, 50.0, 2000)
        want = [0.5 * math.log(r) for r in (k1 / k2).tolist()]
        with np.errstate(all="ignore"):
            _, lg, _, _ = _g_logs(ChannelParams(k1, k1, k2, k1, k2, 1.0, k2 - k1))
            assert lg[4].real.tolist() == want
            for j in range(20):  # and one energy at a time
                x1, x2 = float(k1[j]), float(k2[j])
                ch = ChannelParams(k1[j], x1, x2, x1, x2, 1.0, x2 - x1)
                assert _g_logs(ch)[1][4, 0].real == want[j]


class TestPotentialProfile:
    def test_midpoint_value(self):
        values = potential_profile(SPEC, 0.0, [0.0])
        assert values[0] == pytest.approx(-0.6 + 0.0j)

    def test_asymptotics(self):
        values = potential_profile(SPEC, 1.3, [-40.0, 40.0])
        assert values[0] == pytest.approx(-1.2 + 0.0j, abs=1e-9)
        assert abs(values[1]) < 1e-9

    def test_imaginary_part_vanishes_at_extremes(self):
        values = potential_profile(SPEC, 2.0, [-30.0, 30.0])
        assert abs(values[0].imag) < 1e-8
        assert abs(values[1].imag) < 1e-8

    def test_time_reversal_conjugates(self):
        zeta = np.linspace(-3, 3, 11)
        fwd = potential_profile(SPEC, 2.0, zeta)
        bwd = potential_profile(replace(SPEC, variant=Variant.TIME_REVERSED), 2.0, zeta)
        assert np.allclose(bwd, np.conj(fwd), rtol=0, atol=0)

    def test_overflow_safe_far_field(self):
        values = potential_profile(SPEC, 0.5, [1000.0])
        assert values[0] == 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.nan), True, "1.0",
                                   None, np.float32(1.0)])
    def test_bad_x_refused(self, x):
        with pytest.raises(ValueError, match="^x must be"):
            potential_profile(SPEC, x, [0.0])

    @pytest.mark.parametrize("grid", [[True], ["1.5"], [1j], [0.0, True], np.array([1j]),
                                      np.array([True])])
    def test_non_real_grid_entry_refused(self, grid):
        # np.asarray(grid, dtype=float) would read [True] and ["1.5"] as 1.0 and 1.5
        with pytest.raises(ValueError, match="^zeta_grid entr"):
            potential_profile(SPEC, 0.5, grid)

    def test_nan_in_grid_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            potential_profile(SPEC, 0.5, [0.0, math.nan, 1.0])

    def test_infinite_zeta_gives_the_limits(self):
        for variant in Variant:
            values = potential_profile(replace(SPEC, variant=variant), 0.5, [math.inf, -math.inf])
            assert values.tolist() == [0.0, -SPEC.v0]


def test_assembly_is_singular_value_division_of_g_factors():
    # the one assembly gives, bit for bit, what dividing the G-factors as
    # SingularValues gives, phases folded the same way (at critical points a
    # phase of 2 pi over one of pi is -pi, not pi), Hermitian limit included
    def divided(gf, root_k):
        rl, rr, tl = gf.g4 / gf.g3, -(gf.g1 / gf.g3), root_k / gf.g3
        return [rl, rr, tl, tl, rl.abs_squared(), rr.abs_squared(), tl.abs_squared(),
                gf.g2 / gf.g3]

    fields = ("rl", "rr", "tl", "tr", "Rl", "Rr", "T", "det_s")
    rng = np.random.default_rng(23)
    for _ in range(6):
        v0, rho = rng.uniform(0.3, 8.0), rng.uniform(0.3, 3.0)
        for variant in Variant:
            spec = PotentialSpec(v0=v0, rho=rho, mass=1.0, variant=variant)
            energies = [rng.uniform(0.05, 10.0)] + [
                p.energy for family in SpectralFamily
                for p in critical_points(spec, family, count=3)]
            for energy in energies:
                ch = channel_params(spec, energy)
                root_k = SingularValue(0, 0.5 * math.log(ch.k1 / ch.k2), 0.0)
                got = [getattr(amplitudes(spec, energy), f) for f in fields]
                assert repr(got) == repr(divided(g_factors(ch), root_k))
        ch = _hermitian_channel(v0, rho, 1.0, rng.uniform(0.05, 10.0))
        root_k = SingularValue(0, 0.5 * math.log(ch.k1 / ch.k2), 0.0)
        got = hermitian_amplitudes(v0, rho, 1.0, ch.energy)
        assert repr([getattr(got, f) for f in fields]) == repr(divided(g_factors(ch), root_k))


@pytest.mark.parametrize("variant", list(Variant))
def test_row_bounds_hold_each_rows_slope(variant):
    # on a one-cell array [E - h, E + h], every log10 row's central difference
    # lies in the cell's slope bounds [lo, hi], which sum psi(z) dz/dE and
    # d/dE log sqrt(k1/k2) over the arguments; at small E the sqrt(k1/k2) term
    # is of the Gamma terms' size.  The rows at the cell's ends are
    # log10_coefficients' own, bit for bit
    rng = np.random.default_rng(31)
    for _ in range(20):
        spec = PotentialSpec(rng.uniform(0.1, 5.0), rng.uniform(0.1, 3.0), rng.uniform(0.5, 2.0),
                             variant=variant)
        energy = np.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        h = 1e-7 * energy
        cell = np.array([[energy - h, energy + h]])
        q, holds, lo, hi, _ = _row_bounds(spec, [0, 1, 2, 3], cell)
        assert q[:, 0].tolist() == log10_coefficients(spec, cell[0]).tolist()
        assert holds.tolist() == [[True]]
        difference = (q[:, 0, 1] - q[:, 0, 0]) / (2 * h)
        tol = 1e-6 * (1.0 + abs(difference))
        assert (lo[:, 0, 0] - tol <= difference).all() and (difference <= hi[:, 0, 0] + tol).all()
