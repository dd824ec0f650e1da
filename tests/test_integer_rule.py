"""The one integer rule (``specfun.snap``) and the one pole-aware Gamma
evaluation (``specfun.gamma_logs``) decide exactly what the separate rules
they replace decided.  Each reference below is a frozen copy of one of
those rules, compared with ``==`` on grids that straddle the snap width;
the log-Gamma values themselves are compared with mpmath at 40 digits,
within the bound ``gamma_logs`` states.

The old threshold skip of ``critical_points``, ``floor(u0 + TAU_INT)``,
and the new one, ``snap(u0)``, can disagree only where ``|u0 - N|`` rounds
across ``TAU_INT`` itself (within about 1e-16 of it); the inputs here stay
off that seam.
"""

import importlib
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, gammasgn, loggamma

from wsabsorb import spectral
from wsabsorb.amplitudes import _G_ARGS, _channel_terms
from wsabsorb.specfun import (
    TAU_INT,
    PoleProximityError,
    SingularValue,
    gamma_info,
    gamma_logs,
    log_gamma,
    snap,
)
from wsabsorb.spectral import SpectralFamily, SpectralPoint, critical_points, integer_distance
from wsabsorb.units import PotentialSpec, Variant

# the module, which the package's ``amplitudes`` function shadows
_AMPLITUDES = importlib.import_module("wsabsorb.amplitudes")

FACTORS = (0.0, 0.5, 0.999999, 1.000001, 2.0)
OFFSETS = [s * f * TAU_INT for f in FACTORS for s in (1, -1)] + [0.3, -0.3]
REALS = [float(n) + d for n in range(-60, 61) for d in OFFSETS]
COMPLEXES = [complex(x, y) for x in REALS for y in (0.3 * TAU_INT, -0.3 * TAU_INT, 0.5, -0.5)]


# -- frozen copies of the rules that snap replaces ------------------------------


def ref_nearest_pole_index(z):
    k = round(z.real)
    if k <= 0 and abs(z - k) <= TAU_INT:
        return -k
    return None


def ref_kernel_mask(z):
    k = np.minimum(np.rint(z.real), 0.0)
    return np.abs(z - k) <= TAU_INT


def ref_kernel_logs(z):
    """The closed-form kernel's pole mask and logs, before the dz/dE division."""
    k = np.minimum(np.rint(z.real), 0.0)
    pole = np.abs(z - k) <= TAU_INT
    x = np.where(pole, 1.0 - k, z)
    lg = loggamma(x) if np.iscomplexobj(x) else gammaln(x) + 1j * math.pi * (gammasgn(x) < 0)
    if pole.any():
        lg[pole] = 1j * math.pi * (k[pole] % 2) - lg[pole]
    return pole, lg


def ref_near_positive_integer(x):
    n = round(x)
    return n >= 1 and abs(x - n) <= TAU_INT


def ref_log_gamma(z):
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite argument {z!r}")
    if ref_nearest_pole_index(z) is not None:
        raise PoleProximityError(f"Gamma argument {z} within {TAU_INT} of a pole")
    out = complex(loggamma(z))
    return complex(out.real, math.remainder(out.imag, 2.0 * math.pi))


def ref_gamma_info(z):
    try:
        lg = ref_log_gamma(z)
    except PoleProximityError:
        k = ref_nearest_pole_index(complex(z))
        return SingularValue(-1, -ref_log_gamma(k + 1.0).real, math.pi if k % 2 else 0.0)
    return SingularValue(0, lg.real, lg.imag)


def ref_critical_distance(a2, a3):
    return min(abs(x - round(x)) for x in (2.0 * a2, 2.0 * a3, a3 - a2, a3 + a2))


def ref_critical_points(spec, family, window=None, count=None):
    row = spectral._TABLE[family]
    u0 = row.u(spec, 0.0)
    first, stop = 1 + row.offset, math.inf
    if row.c2 >= 0:
        first = max(first, math.floor(u0 + TAU_INT) + 1)
    else:
        stop = math.ceil(u0 - TAU_INT)
    if window is not None:
        u_lo, u_hi = sorted(row.u(spec, e) for e in window)
        first = max(first, math.floor(u_lo))
        stop = min(stop, math.ceil(u_hi) + 2)
    points = []
    n = first
    while n < stop and (count is None or len(points) < count):
        energy = row.energy(spec, n)
        if energy > 0.0:
            _, _, a2, gap = _channel_terms(spec, energy)
            degenerate = any(
                ref_near_positive_integer(2.0 * a)
                for a, c in zip((a2, a2 + gap), (row.c2, row.c3))
                if c != 2
            )
            if not (row.exclude_degenerate and degenerate):
                points.append(SpectralPoint(family, n - row.offset, energy, degenerate))
        n += 1
    return points


# -- snap ----------------------------------------------------------------------


def snapped_pole(z):
    n, hit = snap(z)
    return -int(n) if hit and n <= 0 else None


@pytest.mark.parametrize("points", [REALS, COMPLEXES], ids=["real", "complex"])
def test_snap_decides_poles_as_the_old_scalar_rule(points):
    assert [snapped_pole(z) for z in points] == [ref_nearest_pole_index(z) for z in points]


@pytest.mark.parametrize("points", [REALS, COMPLEXES], ids=["real", "complex"])
def test_snap_decides_poles_as_the_old_kernel_mask(points):
    z = np.array(points)
    n, hit = snap(z)
    assert np.array_equal(hit & (n <= 0), ref_kernel_mask(z))
    assert ref_kernel_mask(z).sum() > 0 and (~ref_kernel_mask(z)).sum() > 0


def test_snap_decides_positive_integers_as_the_old_degeneracy_rule():
    got = []
    for x in REALS:
        n, hit = snap(x)
        got.append(bool(hit and n >= 1))
    assert got == [ref_near_positive_integer(x) for x in REALS]
    assert any(got) and not all(got)


@pytest.mark.parametrize("points", [REALS, COMPLEXES], ids=["real", "complex"])
def test_snap_reads_scalars_and_arrays_alike(points):
    n, hit = snap(np.array(points))
    assert n.tolist() == [float(snap(z)[0]) for z in points]
    assert hit.tolist() == [bool(snap(z)[1]) for z in points]


# -- gamma_logs, gamma_info, log_gamma ---------------------------------------


def gamma_draws(seed, n=2000):
    """Seeded real and complex arguments, a quarter of them snapped poles."""
    rng = np.random.default_rng(seed)
    real = rng.uniform(-40.0, 40.0, n)
    poles = -rng.integers(0, 40, n // 4) + rng.uniform(-0.9, 0.9, n // 4) * TAU_INT
    real = np.concatenate([real, poles])
    imag = np.where(rng.random(real.size) < 0.5, rng.uniform(-0.9, 0.9, real.size) * TAU_INT,
                    rng.uniform(-30.0, 30.0, real.size))
    return real, real + 1j * imag


# the bound gamma_logs states, relative to max(1, |log Gamma|)
EPS = float(np.finfo(float).eps)
REAL_BOUND, COMPLEX_BOUND = 4 * EPS, 32 * EPS


def mp_log_gamma(z, pole):
    """log Gamma(z) at 40 digits, or the log of the residue (-1)^k / k! at a
    snapped pole -k."""
    with mp.workdps(40):
        if pole:
            k = -round(z.real)
            return complex(-mp.log(mp.factorial(k)), math.pi * (k % 2))
        return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


def log_error(got, want):
    """Real part and phase (mod 2 pi) apart, relative to max(1, |want|)."""
    d = complex(got) - want
    return max(abs(d.real), abs(math.remainder(d.imag, 2.0 * math.pi))) / max(1.0, abs(want))


@pytest.mark.parametrize("seed", [1, 2])
def test_gamma_logs_is_the_old_kernel_evaluation(seed):
    for z in gamma_draws(seed):
        pole, lg = gamma_logs(z.reshape(-1, 50))
        ref_pole, ref_lg = ref_kernel_logs(z.reshape(-1, 50))
        assert np.array_equal(pole, ref_pole) and ref_pole.any()
        bound = COMPLEX_BOUND if np.iscomplexobj(z) else REAL_BOUND
        for zi, p, g in zip(z.tolist(), pole.ravel().tolist(), lg.ravel().tolist()):
            assert log_error(g, mp_log_gamma(complex(zi), p)) <= bound, zi


@pytest.mark.parametrize("seed", [3, 4])
def test_gamma_info_and_log_gamma_are_the_old_bodies(seed):
    real, cplx = gamma_draws(seed, n=400)
    poles = 0
    for z, bound in [*((x, REAL_BOUND) for x in real.tolist()),
                     *((x, COMPLEX_BOUND) for x in cplx.tolist())]:
        got, ref = gamma_info(z), ref_gamma_info(z)
        assert got.order == ref.order
        assert log_error(complex(got.log_magnitude, got.phase), mp_log_gamma(complex(z), got.is_pole)) <= bound
        try:
            ref_log_gamma(z)
        except PoleProximityError as exc:
            poles += 1
            with pytest.raises(PoleProximityError) as got:
                log_gamma(z)
            assert str(got.value) == str(exc)
        else:
            assert log_error(log_gamma(z), mp_log_gamma(complex(z), False)) <= bound
    assert poles > 0


def test_gamma_info_keeps_the_finiteness_check():
    for z in (math.nan, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="non-finite argument"):
            gamma_info(z)
        with pytest.raises(ValueError, match="non-finite argument"):
            log_gamma(z)


# -- integer_distance ---------------------------------------------------------


def test_integer_distance_is_the_old_critical_distance():
    rng = np.random.default_rng(11)
    a2 = np.concatenate([rng.uniform(0.0, 60.0, 5000), 10.0 ** rng.uniform(-3, 6, 5000)])
    a3 = np.concatenate([rng.uniform(0.0, 60.0, 5000), 10.0 ** rng.uniform(-3, 6, 5000)])
    for x, y in zip(a2.tolist(), a3.tolist()):
        assert integer_distance(x, y) == ref_critical_distance(x, y)


# -- critical_points ------------------------------------------------------------


def seeded_specs():
    rng = np.random.default_rng(20261018)
    specs = [PotentialSpec(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 0.5),
                           rng.uniform(0.5, 2.0), variant=rng.choice(list(Variant)))
             for _ in range(12)]
    # rho = m = 1 and v0 = ((N + d) / 4)^2 put u(0) = 4 sqrt(v0) of the 2 a3 row,
    # and for even N also 2 sqrt(v0) of the sum and difference rows, within
    # 0.5 TAU_INT of an integer; d = 0 also lands many points on degeneracies
    for n in range(1, 41, 3):
        for d in (0.0, 0.3 * TAU_INT, -0.3 * TAU_INT, 0.45 * TAU_INT, -0.45 * TAU_INT):
            specs.append(PotentialSpec(((n + d) / 4.0) ** 2, 1.0, 1.0))
    return specs


def threshold_gap(spec, family):
    """|u0 - N| for the nearest integer N: distance from the seam at TAU_INT."""
    u0 = spectral._TABLE[family].u(spec, 0.0)
    return abs(abs(u0 - round(u0)) - TAU_INT)


@pytest.mark.parametrize("family", list(SpectralFamily), ids=lambda f: f.value)
def test_critical_points_are_the_old_enumeration(family):
    near_threshold = degenerate = 0
    for spec in seeded_specs():
        assert threshold_gap(spec, family) > 1e-13
        u0 = spectral._TABLE[family].u(spec, 0.0)
        near_threshold += abs(u0 - round(u0)) <= 0.5 * TAU_INT
        count = None if family is SpectralFamily.RPRIME_LEFT_ZERO else 30
        got = critical_points(spec, family, count=count)
        assert got == ref_critical_points(spec, family, count=count)
        degenerate += sum(p.degenerate for p in got)
        if got:
            window = (got[0].energy * 0.9, got[-1].energy)
            assert critical_points(spec, family, window=window) == (
                ref_critical_points(spec, family, window=window))
    assert near_threshold > 0
    if family not in (SpectralFamily.CPA_TIME_REVERSED, SpectralFamily.RPRIME_LEFT_ZERO):
        assert degenerate > 0


# -- u is the kernel's Gamma argument ---------------------------------------------


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("family", [SpectralFamily.CC_LEFT, SpectralFamily.CPA_TIME_REVERSED,
                                    SpectralFamily.RPRIME_LEFT_ZERO], ids=lambda f: f.value)
def test_row_u_is_the_gamma_argument_the_kernel_snaps(family, variant, monkeypatch):
    # on the 2 a3, sum and difference rows u is, bit for bit, the magnitude
    # of the kernel's arguments -(c2 a2 + c3 a3) and c2 a2 + c3 a3, so a
    # scan flag and the kernel's pole are one snap of one number; the 2 a2
    # row's argument is 1 - 2 a2, whose rounding differs
    row = spectral._TABLE[family]
    at = [_G_ARGS.index((s * row.c2, s * row.c3, 0)) for s in (1, -1)]
    seen = []
    gamma_logs = _AMPLITUDES.gamma_logs
    monkeypatch.setattr(_AMPLITUDES, "gamma_logs", lambda z: seen.append(z.copy()) or gamma_logs(z))
    rng = np.random.default_rng(2026)
    for _ in range(20):
        spec = PotentialSpec(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 0.5),
                             rng.uniform(0.5, 2.0), variant=variant)
        energies = 10.0 ** rng.uniform(-3, 3, 2000)
        with np.errstate(all="ignore"):
            _AMPLITUDES._g_logs(_AMPLITUDES._channel(spec, energies))
        u = row.u(spec, energies)
        for i in at:
            assert np.array_equal(np.abs(seen[-1][i]), u)
        for energy in energies[:5].tolist():  # one energy at a time
            _AMPLITUDES.g_factors(_AMPLITUDES.channel_params(spec, energy))
            assert [abs(seen[-1][i, 0]) for i in at] == [row.u(spec, energy)] * 2


# -- the count cap ---------------------------------------------------------------


@pytest.mark.parametrize("family", list(SpectralFamily), ids=lambda f: f.value)
def test_count_above_the_cap_is_refused_before_enumeration(family, no_points):
    spec = PotentialSpec(1.0, 1.0)
    with pytest.raises(ValueError, match=f"^{family.value} count 1000001 is more than 1000000$"):
        critical_points(spec, family, count=10**6 + 1)
    with pytest.raises(AssertionError, match="a point was enumerated"):
        critical_points(spec, family, count=10**6)
