"""Special-function layer: log-gamma, pole bookkeeping, singular-value
algebra, and the series 2F1.  Reference values come from mpmath at 30+
digits, frozen into the assertions."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsabsorb.specfun import (
    PoleProximityError,
    SeriesError,
    SingularValue,
    gamma_info,
    hyp2f1,
    log_gamma,
)

mp.mp.dps = 40


def mp_loggamma(z: complex) -> complex:
    return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


class TestLogGamma:
    def test_frozen_values(self):
        # Gamma(2.5) = 1.3293403881791370205 (mpmath, 20 digits)
        assert log_gamma(2.5).real == pytest.approx(0.28468287047291915963, abs=1e-14)
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_random_box_against_mpmath(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            if abs(z.real - round(z.real)) < 1e-3 and abs(z.imag) < 1e-3:
                continue
            got = log_gamma(z)
            ref = mp_loggamma(z)
            # branch-insensitive: compare through exp of the difference
            assert abs(cmath.exp(got - ref) - 1.0) < 1e-12

    def test_large_arguments(self):
        for z in (1e3, 1e6, complex(1e5, 3e4), complex(3.5e4, -200.0)):
            got = log_gamma(z)
            ref = mp_loggamma(complex(z))
            # float64 carries the log itself to ~1 ulp at this scale; the
            # imaginary part is principal here vs continued in mpmath
            assert abs(got.real - ref.real) <= 1e-12 * max(1.0, abs(ref.real))
            assert abs(cmath.exp(1j * (got.imag - ref.imag)) - 1.0) < 1e-9

    def test_pole_proximity_raises(self):
        for z in (0.0, -3.0, -7.0 + 4e-10):
            with pytest.raises(PoleProximityError):
                log_gamma(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            log_gamma(complex(math.nan, 0.0))

    @given(
        st.complex_numbers(
            min_magnitude=0.01, max_magnitude=30.0, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_reflection_identity(self, z):
        if abs(z.real - round(z.real)) < 1e-3 and abs(z.imag) < 1e-3:
            return
        if abs(z.imag) < 1e-12 and z.real > 0.5:
            z = complex(z.real, 1e-6)  # keep sin(pi z) away from exact zeros
        lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @given(
        st.complex_numbers(
            min_magnitude=0.01, max_magnitude=50.0, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, z):
        if z.real < 1.0 and abs(z - complex(round(z.real))) < 0.01:
            return  # poles of Gamma(z) or Gamma(z+1) nearby
        got = cmath.exp(log_gamma(z + 1.0) - log_gamma(z))
        assert abs(got - z) <= 1e-12 * abs(z)


class TestGammaInfo:
    def test_pole_at_minus_three(self):
        sv = gamma_info(-3.0)
        assert sv.is_pole and sv.order == -1
        # residue of Gamma at -3 is (-1)^3/3! = -1/6
        assert sv.log_magnitude == pytest.approx(math.log(1.0 / 6.0), abs=1e-12)
        assert sv.phase == pytest.approx(math.pi, abs=1e-12)

    def test_finite_value(self):
        sv = gamma_info(4.0)
        assert sv.is_finite
        assert sv.to_complex().real == pytest.approx(6.0, rel=1e-13)

    def test_snap_rule(self):
        assert gamma_info(-2.9999999999).is_pole  # within default tau
        assert gamma_info(-2.999).is_finite

    def test_agrees_with_log_gamma_on_finite_branch(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-20, 20)
            if abs(x - round(x)) < 1e-3:
                continue
            sv = gamma_info(x)
            lg = log_gamma(x)
            assert sv.log_magnitude == pytest.approx(lg.real, abs=1e-12)

    def test_pole_info_finite_difference(self):
        # Gamma(z) * (z + k) -> (-1)^k / k! approaching each pole; the
        # symmetric average cancels the linear Laurent term
        for k in range(6):
            info = gamma_info(-k)
            residue = cmath.rect(math.exp(info.log_magnitude), info.phase)
            eps = 1e-4
            above = cmath.exp(log_gamma(-k + eps)) * eps
            below = cmath.exp(log_gamma(-k - eps)) * (-eps)
            val = 0.5 * (above + below)
            assert abs(val - residue) <= 1e-8 * abs(residue) + 1e-8


class TestSingularValue:
    @pytest.mark.parametrize("w, message", [
        *((w, f"w must be an int or float or complex, got {w!r}") for w in (True, "2")),
        *((w, f"non-finite value {complex(w)!r}")
          for w in (math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(1.0, math.nan),
                    complex(math.inf, 1.0), complex(-math.inf, 1.0), complex(1.0, math.inf),
                    complex(1.0, -math.inf))),
    ])
    def test_from_complex_refuses_what_gamma_info_refuses(self, w, message):
        # complex() read "2" as 2 and True as 1, and a NaN or infinite part gave
        # a NaN or infinite log magnitude of order 0, where gamma_info refuses all
        with pytest.raises(ValueError) as refused:
            SingularValue.from_complex(w)
        assert str(refused.value) == message

    def test_finite_reconstruction(self):
        w = 2.5 * cmath.exp(0.7j)
        sv = SingularValue.from_complex(w)
        assert abs(sv.to_complex() - w) < 1e-14

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_order_addition_table(self, p, q):
        u = SingularValue(p, 0.3, 0.1)
        v = SingularValue(q, -0.2, 0.4)
        prod = u * v
        assert prod.order == p + q
        assert prod.log_magnitude == pytest.approx(0.1)
        quot = u / v
        assert quot.order == p - q

    def test_pole_zero_cancellation(self):
        pole = SingularValue(-2, math.log(3.0), 0.0)
        zero = SingularValue(2, math.log(5.0), math.pi / 2)
        lim = pole * zero
        assert lim.is_finite
        assert abs(lim.to_complex() - 15j) < 1e-12

    def test_addition_dominance(self):
        pole = SingularValue(-1, 0.0, 0.0)
        finite = SingularValue(0, 10.0, 0.0)
        assert (pole + finite) == pole
        assert (finite + pole) == pole

    def test_addition_same_order(self):
        a = SingularValue.from_complex(3.0 + 4.0j)
        b = SingularValue.from_complex(-1.0 + 0.5j)
        got = (a + b).to_complex()
        assert abs(got - (2.0 + 4.5j)) < 1e-13

    def test_addition_exact_cancellation_raises(self):
        a = SingularValue.from_complex(1.0 + 0.0j)
        with pytest.raises(ArithmeticError):
            _ = a - a

    def test_magnitude_extremes(self):
        assert SingularValue(1, 0.0, 0.0).magnitude == 0.0
        assert SingularValue(-1, 0.0, 0.0).magnitude == math.inf
        assert SingularValue(0, 800.0, 0.0).magnitude == math.inf
        assert SingularValue(0, -800.0, 0.0).magnitude == 0.0
        assert SingularValue(1, 0.0, 0.0).log10_magnitude == -math.inf

    def test_negation_and_conjugate(self):
        sv = SingularValue.from_complex(1.0 + 2.0j)
        assert abs((-sv).to_complex() + (1.0 + 2.0j)) < 1e-14
        assert abs(sv.conjugate().to_complex() - (1.0 - 2.0j)) < 1e-14


class TestHyp2F1:
    def test_at_origin(self):
        assert hyp2f1(0.3, -2.0, 5.5, 0.0) == 1.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        got = hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert got.real == pytest.approx(1.3862943611198906188, rel=1e-13)
        assert abs(got.imag) < 1e-15

    def test_frozen_complex_value(self):
        # mpmath 2F1(0.3, 0.7; 1.1; 0.4+0.2i), 22 digits
        got = hyp2f1(0.3, 0.7, 1.1, 0.4 + 0.2j)
        ref = 1.088069004330773340819 + 0.06263339417940360423757j
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_against_mpmath_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            a = rng.uniform(-4, 8)
            b = rng.uniform(-4, 8)
            c = rng.uniform(0.3, 9)
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            if abs(z) >= 0.9:
                continue
            got = hyp2f1(a, b, c, z)
            ref = complex(mp.hyp2f1(a, b, c, mp.mpc(z.real, z.imag)))
            assert abs(got - ref) <= 5e-12 * max(1.0, abs(ref))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, 0.96)

    def test_bad_c_guard(self):
        with pytest.raises(PoleProximityError):
            hyp2f1(1.0, 1.0, -2.0, 0.5)


def direct_gauss_sum(a: float, b: float, c: float, z: float, terms: int = 4000) -> float:
    """2F1(a, b; c; z) as its Gauss series summed term by term at 80 digits,
    on the floats given, run far past the spike of the term ratio near
    k = -Re c (where c < 0 the terms keep growing until k is about
    -c / (1 - |z|)), so that the tail it leaves out is negligible."""
    with mp.workdps(80):
        a, b, c, z = (mp.mpf(x) for x in (a, b, c, z))
        term = total = mp.mpf(1)
        for k in range(terms):
            term *= (a + k) * (b + k) * z / ((c + k) * (k + 1))
            total += term
        return float(total)


# rows whose early terms fall below 1e-17 of their sums before the spike of
# the term ratio near k = -c, with the direct sums' values
EARLY_STOPS = [
    pytest.param((1.0, 1.0, -70.5, 0.5), -448.254741786655, id="c-70.5"),
    pytest.param((1.122, 0.1222, -111.7, 0.5), 3.00320455861467, id="c-111.7"),
    pytest.param((2.0, 3.0, -200.25, 0.5), -59764100221.3589, id="c-200.25"),
]


class TestHyp2f1PastTheSpike:
    @pytest.mark.parametrize("args, value", EARLY_STOPS)
    def test_direct_sums(self, args, value):
        assert direct_gauss_sum(*args) == pytest.approx(value, rel=1e-13)

    @pytest.mark.parametrize("args, value", EARLY_STOPS)
    def test_hyp2f1_sums_past_the_spike(self, args, value):
        assert hyp2f1(*args) == pytest.approx(direct_gauss_sum(*args), rel=1e-12)

    def test_refused_where_the_spike_lies_past_the_term_cap(self):
        # the proven tail starts near k = 200000, past the 100000-term cap
        with pytest.raises(SeriesError, match="^2F1 series tail is not bounded within 100000 terms$"):
            hyp2f1(1.0, 1.0, -200000.5, 0.5)


class TestHyp2f1NonFinite:
    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [math.nan, complex(0.1, math.nan), complex(math.inf, 0.0)])
    def test_non_finite_input_rejected(self, position, bad):
        args = [0.6, 1.3, 2.2, 0.3 + 0.1j]
        args[position] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hyp2f1(*args)


class TestArgumentKinds:
    # complex() read True as 1 and "1" as 1: gamma_info("1") was Gamma(1)
    @pytest.mark.parametrize("value", [True, "1"])
    @pytest.mark.parametrize("fn, position, name", [
        (gamma_info, 0, "z"), (log_gamma, 0, "z"),
        *((hyp2f1, i, name) for i, name in enumerate("abcz")),
    ])
    def test_bool_and_str_refused(self, fn, position, name, value):
        args = [0.6, 1.3, 2.2, 0.3][:4 if fn is hyp2f1 else 1]
        args[position] = value
        with pytest.raises(ValueError, match=f"^{name} must be an int or float or complex, got {value!r}$"):
            fn(*args)

    @pytest.mark.parametrize("value", [2, 2.5, 2.5 + 0.5j, np.float64(2.5), np.complex128(2.5 + 0.5j)])
    def test_numbers_accepted(self, value):
        assert gamma_info(value) == gamma_info(complex(value))
        assert log_gamma(value) == log_gamma(complex(value))
        assert hyp2f1(value, 1.3, 2.2, 0.3) == hyp2f1(complex(value), 1.3, 2.2, 0.3)
        assert hyp2f1(0.6, 1.3, 2.2, value / 10) == hyp2f1(0.6, 1.3, 2.2, complex(value) / 10)
