"""The log-Gamma primitive's own series: its accuracy against mpmath and
scipy on the kernel's argument families, its coefficient tables, and bits
that do not depend on how many arguments share a call."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, gammasgn, loggamma

from wsabsorb import specfun
from wsabsorb.amplitudes import _C0, _C3, _Z2, _channel
from wsabsorb.specfun import _EPS as EPS, TAU_INT, gamma_logs
from wsabsorb.units import PotentialSpec, Variant


def log_errors(got, z):
    """|got - log Gamma(z)| per argument, the real part and the phase (mod
    2 pi) apart, relative to max(1, |log Gamma|), against mpmath at 40 digits."""
    out = []
    with mp.workdps(40):
        for g, x in zip(np.ravel(got).tolist(), np.ravel(z).tolist()):
            want = complex(mp.loggamma(mp.mpc(x.real, x.imag)))
            d = complex(g) - want
            out.append(max(abs(d.real), abs(math.remainder(d.imag, 2.0 * math.pi)))
                       / max(1.0, abs(want)))
    return np.array(out)


def scipy_logs(z):
    if np.iscomplexobj(z):
        return loggamma(z)
    return gammaln(z) + 1j * math.pi * (gammasgn(z) < 0)


def kernel_real(rng, n):
    """The closed-form kernel's twelve Gamma arguments at random potentials
    and energies, both variants."""
    args = []
    for variant in (Variant.FORWARD, Variant.TIME_REVERSED):
        for _ in range(n // 24):
            spec = PotentialSpec(rng.uniform(0.1, 10.0), rng.uniform(0.1, 5.0), 1.0, variant=variant)
            ch = _channel(spec, np.array([rng.uniform(1e-3, 50.0)]))
            args.append((_Z2 * ch.a2 + _C3 * ch.gap + _C0).ravel())
    return np.concatenate(args)


def kernel_hermitian(rng, n):
    """The twelve arguments c0 + iy of the Hermitian potential."""
    v0, delta, energy = (rng.uniform(0.1, 10.0, n // 12), rng.uniform(0.1, 5.0, n // 12),
                         np.exp(rng.uniform(-8.0, 5.0, n // 12)))
    k1, k2 = np.sqrt(energy), np.sqrt(energy + v0)
    a2, gap = 2j * k1 / delta, 2j * v0 / (delta * (k1 + k2))
    return (_Z2 * a2 + _C3 * gap + _C0).ravel()


def tiny(rng, n):
    """Signed offsets from twice the snap width up to 1e-2."""
    return np.exp(rng.uniform(math.log(2.0 * TAU_INT), math.log(1e-2), n)) * rng.choice([-1.0, 1.0], n)


def near_poles(rng, n):
    return -rng.integers(0, 40, n) + tiny(rng, n)


def large(rng, n):
    """Log-uniform sizes from 16 up to where the det-S check stops
    (``_ROUNDING_LIMIT``), either sign, off the integers."""
    size = np.exp(rng.uniform(math.log(16.0), math.log(3e6), n))
    return size * rng.choice([-1.0, 1.0], n) + rng.uniform(0.05, 0.95, n)


FAMILIES = {
    "kernel, both variants": kernel_real,
    "kernel, Hermitian c0 + iy": kernel_hermitian,
    "near the poles": near_poles,
    "Hermitian near the pole at 0 and the zero at 1": lambda rng, n: rng.integers(0, 2, n) + 1j * tiny(rng, n),
    "large, either sign": large,
    "reflection, [-30, 1/2]": lambda rng, n: rng.uniform(-30.0, 0.5, n),
    "moderate, [1/2, 16]": lambda rng, n: rng.uniform(0.5, 16.0, n),
    "test_specfun's box": lambda rng, n: rng.uniform(-40.0, 40.0, n) + 1j * rng.uniform(-40.0, 40.0, n),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_accuracy_within_twice_scipy_or_four_eps(family):
    z = FAMILIES[family](np.random.default_rng(sorted(FAMILIES).index(family)), 600)
    pole, got = gamma_logs(z)
    assert not pole.any()
    ours, theirs = log_errors(got, z).max(), log_errors(scipy_logs(z), z).max()
    assert ours <= max(2.0 * theirs, 4.0 * EPS), (ours, theirs)


# the kernel's real argument families, both variants, and the stretches where
# psi's own series work: poles, large arguments, reflection and the shift
PSI_FAMILIES = ("kernel, both variants", "near the poles", "large, either sign",
                "reflection, [-30, 1/2]", "moderate, [1/2, 16]")


@pytest.mark.parametrize("family", PSI_FAMILIES)
def test_digamma_within_16_eps(family):
    z = FAMILIES[family](np.random.default_rng(100 + PSI_FAMILIES.index(family)), 600).real
    got = specfun._digamma(z)
    with mp.workdps(40):
        want = [mp.digamma(mp.mpf(x)) for x in z.tolist()]
        errors = [float(abs(g - w) / max(1, abs(w))) for g, w in zip(got.tolist(), want)]
    assert max(errors) <= 16.0 * EPS, max(errors)


def test_series_tables_are_the_mpmath_values():
    with mp.workdps(60):
        taylor = [mp.mpf(0), 1 - mp.euler] + [(-1) ** k * (mp.zeta(k) - 1) / k for k in range(2, 17)]
        p, q = mp.pade(taylor, 8, 8)
        assert specfun._PADE_P == tuple(float(c) for c in p[1:])
        assert specfun._PADE_Q == tuple(float(c) for c in q[1:]) and q[0] == 1
        stirling = tuple(float(mp.bernoulli(2 * k) / (2 * k * (2 * k - 1))) for k in range(1, 9))
        assert specfun._STIRLING == stirling
        digamma = [mp.bernoulli(2 * k) / (2 * k) for k in range(1, 9)]
        assert all(abs(c - d) <= EPS * abs(d) for c, d in zip(specfun._DIGAMMA_SERIES, digamma))
        # the Pade form on the disk |t| <= 1/2 of its use, and the first
        # Stirling term left out at the smallest argument that uses the series
        for j in range(48):
            t = mp.mpf(0.5) * mp.expjpi(mp.mpf(j) / 24)
            pade = t * mp.polyval(p[:0:-1], t) / (1 + t * mp.polyval(q[:0:-1], t))
            assert abs(pade - mp.loggamma(2 + t)) <= 1e-17
        w = mp.mpf(specfun._STIRLING_MIN)
        assert abs(mp.bernoulli(18) / (18 * 17) / w ** 17) <= 1e-16 * mp.loggamma(w)


def kernel_pool(rng):
    return {"real": kernel_real(rng, 240), "complex": kernel_hermitian(rng, 240)}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_one_argument_has_the_same_bits_in_any_array(kind):
    rng = np.random.default_rng(71)
    pool = kernel_pool(rng)[kind]
    pool = np.concatenate([pool, near_poles(rng, 40) + (0j if kind == "complex" else 0.0)])
    alone = np.array([gamma_logs(pool[i:i + 1])[1][0] for i in range(pool.size)])
    for length in (2, 3, 5, 12, 64, 1000, 4096, 2 * specfun._PIECE + 5):
        picks = rng.integers(0, pool.size, length)
        contiguous = pool[picks]
        assert np.array_equal(bits(gamma_logs(contiguous)[1]), bits(alone[picks]))
        n = -(-length // 12)
        picks = rng.integers(0, pool.size, (12, n))
        wide = np.zeros((12, 2 * n), dtype=pool.dtype)
        wide[:, ::2] = pool[picks]
        assert np.array_equal(bits(gamma_logs(wide[:, ::2])[1]), bits(alone[picks]))
        assert np.array_equal(bits(gamma_logs(pool[picks.T].T)[1]), bits(alone[picks]))


@pytest.mark.parametrize("z", [1e306, 3e307 + 0j])
def test_log_gamma_past_the_float_range_is_inf(z):
    # RuntimeWarnings are errors under this suite's settings
    assert specfun.gamma_info(z).log_magnitude == math.inf
