"""The array route of the closed form: ``log10_coefficients`` against the
scalar ``amplitudes`` it stands in for, row by row and bit for bit."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wsabsorb.amplitudes import _G_TABLE, amplitudes, det_s, log10_coefficients
from wsabsorb.spectral import SpectralFamily, cc_left_energies, critical_points
from wsabsorb.units import PotentialSpec, Variant

# det-S cross-check failures of the scalar route, (v0, rho, E)
DET_S_REPRODUCERS = (
    (1.8265813776229036, 0.13743132110248035, 1.3653838176370496),
    (1.9449884386166159, 0.006042625165624031, 1.8939511651554988),
    (1.7161728348887795, 0.2731600998540904, 1.6835334309345094),
)


def scalar_route(spec, energies):
    """(4, n) log10 |r_l|^2, |r_r|^2, T, |det S| from one amplitudes() call each."""
    rows = []
    for energy in energies:
        amps = amplitudes(spec, float(energy))
        rows.append([sv.log10_magnitude for sv in (amps.Rl, amps.Rr, amps.T, amps.det_s)])
    return np.array(rows).T


def landing_energies(spec, family, lo, hi, points):
    """A uniform grid whose ends are enumerated critical energies of ``family``
    around [lo, hi], with every enumerated energy of the window appended."""
    critical = [p.energy for p in critical_points(spec, family, window=(lo, hi))
                if p.energy > 0.0]
    if len(critical) >= 2:
        lo, hi = critical[0], critical[-1]
    return np.concatenate([np.linspace(lo, hi, points), critical])


@given(
    v0=st.floats(0.3, 8.0),
    rho=st.floats(0.3, 3.0),
    mass=st.floats(0.5, 2.0),
    variant=st.sampled_from(list(Variant)),
    family=st.sampled_from(list(SpectralFamily)),
    lo=st.floats(0.05, 10.0),
    span=st.floats(0.01, 3.0),
    points=st.integers(2, 60),
)
@example(v0=1.0, rho=0.0006, mass=1.0, variant=Variant.FORWARD,
         family=SpectralFamily.CC_LEFT, lo=3.0008, span=0.0008, points=80)
@example(v0=1.0, rho=0.0006, mass=1.0, variant=Variant.TIME_REVERSED,
         family=SpectralFamily.CPA_TIME_REVERSED, lo=3.0008, span=0.0008, points=80)
@example(v0=1.0, rho=0.0006, mass=1.0, variant=Variant.TIME_REVERSED,
         family=SpectralFamily.CC_RIGHT, lo=3.0008, span=0.0008, points=80)
@settings(max_examples=150, deadline=None)
def test_array_route_equals_scalar_route(v0, rho, mass, variant, family, lo, span, points):
    spec = PotentialSpec(v0=v0, rho=rho, mass=mass, variant=variant)
    energies = landing_energies(spec, family, lo, lo * (1.0 + span), points)
    try:
        want = scalar_route(spec, energies)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            log10_coefficients(spec, energies)
        return
    got = log10_coefficients(spec, energies)
    assert got.shape == want.shape
    # equal values, equal +-inf tokens, and equal signs of zero
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_landing_windows_hit_singular_rows():
    # the property above must exercise the exact residue limits, not just
    # finite rows: a CC-left window lands on zeros of r_l and T
    spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
    energies = landing_energies(spec, SpectralFamily.CC_LEFT, 0.5, 6.0, 11)
    got = log10_coefficients(spec, energies)
    assert np.isneginf(got[0]).sum() >= 2
    assert np.array_equal(got, scalar_route(spec, energies))


@pytest.mark.parametrize("variant", list(Variant))
def test_row_bits_do_not_depend_on_a_pole_elsewhere_in_the_call(variant):
    # a call with no non-zero order skips the kernel's order branches; one with a
    # landing energy takes them at every energy, and each row keeps its bits
    spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0, variant=variant)
    landing = cc_left_energies(spec, 1)[0].energy
    ordinary = np.linspace(0.5 * landing, 1.5 * landing, 9)
    ordinary = ordinary[ordinary != landing]
    alone = log10_coefficients(spec, ordinary)
    beside = log10_coefficients(spec, np.append(ordinary, landing))
    assert np.isfinite(alone).all() and np.isinf(beside[:, -1]).any()
    assert alone.tobytes() == beside[:, :-1].tobytes()
    assert alone.tobytes() == scalar_route(spec, ordinary).tobytes()


# (spec, energy, message) of det-S refusals the tests pin: the reproducers, the
# degenerate CLI scan point's neighbours (2 a2 = 1, 2 a3 = 3) and the
# unresolvable energies
_REFUSALS = [
    *[((v0, rho, variant), energy, f"det S cross-check failed at E={energy!r}: rel diff {rel}")
      for (v0, rho, energy), rel in zip(DET_S_REPRODUCERS, ("3.916e-07", "1.756e-06", "1.810e-06"))
      for variant in Variant],
    ((0.5, 1.0, Variant.FORWARD), 0.062499996093749996,
     "det S cross-check failed at E=0.062499996093749996: rel diff 1.865e-08"),
    ((0.5, 1.0, Variant.FORWARD), 0.06250000390624999,
     "det S cross-check failed at E=0.06250000390624999: rel diff 2.665e-08"),
    ((1.2, 1.8, Variant.FORWARD), 1e13,
     "det S cannot be checked at E=10000000000000.0: log-Gamma rounding 1.475e-06 exceeds 1e-06"),
    ((1.2, 1.8, Variant.FORWARD), 1e25,
     "det S cannot be checked at E=1e+25: log-Gamma rounding 2.854e+00 exceeds 1e-06"),
]


@pytest.mark.parametrize("params, energy, message", _REFUSALS)
def test_det_s_refusals_keep_their_messages(params, energy, message):
    # by the scalar route, and by the array route with and without a landing
    # energy before it, which puts the call on the kernel's order branches
    v0, rho, variant = params
    spec = PotentialSpec(v0=v0, rho=rho, mass=1.0, variant=variant)
    landing = cc_left_energies(spec, 1)[0].energy
    for call in (lambda: amplitudes(spec, energy), lambda: log10_coefficients(spec, [energy]),
                 lambda: log10_coefficients(spec, [landing, energy])):
        with pytest.raises(ArithmeticError) as refused:
            call()
        assert str(refused.value) == message


@pytest.mark.xfail(strict=True, raises=ArithmeticError,
                   reason="ROADMAP item 11: the check asks 9 cancelled digits whatever the rounding")
def test_sum_row_point_at_narrow_rho():
    # a2 + a3 = 10001 at the paper's narrow rho: every forward row diverges
    # with order -2, and the sum route's order -4 must cancel to det S's -2,
    # which it does to 7.1 digits, not the 9 the check asks for
    rows = log10_coefficients(PotentialSpec(1.0, 0.0006, 1.0), [1.778222245555444])
    assert rows[:, 0].tolist() == [np.inf] * 4


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("v0, rho, energy", DET_S_REPRODUCERS)
def test_array_route_raises_where_scalar_raises(v0, rho, energy, variant):
    spec = PotentialSpec(v0=v0, rho=rho, mass=1.0, variant=variant)
    ordinary = [0.7 * energy, 0.9 * energy, 1.1 * energy]
    assert np.all(np.isfinite(log10_coefficients(spec, ordinary)))
    with pytest.raises(ArithmeticError):
        amplitudes(spec, energy)
    with pytest.raises(ArithmeticError, match="det S"):
        log10_coefficients(spec, ordinary[:2] + [energy] + ordinary[2:])


@pytest.mark.parametrize("variant", list(Variant))
def test_det_s_is_the_checked_amplitude_det_s(variant):
    # det_s reads the one checked assembly: it raises where amplitudes()
    # raises, rather than returning an unchecked G2/G3 (an exact zero or a
    # pole at these points, where mpmath finds a finite value)
    for v0, rho, energy in DET_S_REPRODUCERS:
        with pytest.raises(ArithmeticError, match="det S"):
            det_s(PotentialSpec(v0=v0, rho=rho, mass=1.0, variant=variant), energy)
    spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0, variant=variant)
    for family in SpectralFamily:
        for point in critical_points(spec, family, count=3):
            assert det_s(spec, point.energy) == amplitudes(spec, point.energy).det_s


@pytest.mark.parametrize("energies", [
    [1.0, float("nan")], [1.0, float("inf")], [0.0, 1.0], [-1.0], [[1.0, 2.0]],
])
def test_bad_energies_rejected(energies):
    with pytest.raises(ValueError):
        log10_coefficients(PotentialSpec(v0=1.2, rho=1.8, mass=1.0), energies)


def mpmath_route(spec, energies):
    """(4, n) log10 |r_l|^2, |r_r|^2, T, |det S| from exact a2, a3 at 60 digits."""
    sign = 1 if spec.variant is Variant.FORWARD else -1
    rows = []
    with mp.workdps(60):
        for energy in energies:
            e, v0, rho = mp.mpf(float(energy)), mp.mpf(spec.v0), mp.mpf(spec.rho)
            x2 = sign * 2 * mp.sqrt(spec.mass * e) / rho
            x3 = sign * 2 * mp.sqrt(spec.mass * (e + v0)) / rho
            lg = [sum(s * mp.loggamma(c2 * x2 + c3 * x3 + c0) for s, (c2, c3, c0)
                      in zip((1, 1, -1, -1), numer + denom)) for numer, denom in _G_TABLE]
            root_k = mp.log(e / (e + v0)) / 4
            logs = (2 * (lg[3] - lg[2]), 2 * (lg[0] - lg[2]), 2 * (root_k - lg[2]), lg[1] - lg[2])
            rows.append([float(mp.re(w) / mp.log(10)) for w in logs])
    return np.array(rows).T


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("lo, hi, tol", [(1e8, 1.1e8, 5e-9), (4e12, 4.1e12, 1e-7)])
def test_large_energies_match_mpmath(variant, lo, hi, tol):
    # a2 and a3 ~ 1e4 and ~ 2e6: their difference must not be formed by
    # subtraction, and each log Gamma ~ 4e7 carries ~ 1e-8 of rounding that
    # the det-S tolerance must allow for
    spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0, variant=variant)
    energies = np.linspace(lo, hi, 7)
    got = log10_coefficients(spec, energies)
    assert np.abs(got - mpmath_route(spec, energies)).max() < tol
    assert amplitudes(spec, float(energies[1])).det_s.order == 0


@pytest.mark.parametrize("energy", [1e13, 1e25, 1e300])
def test_unresolvable_rounding_raises(energy):
    # past the rounding limit the check cannot see an error, so it refuses
    spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
    with pytest.raises(ArithmeticError, match="det S cannot be checked"):
        log10_coefficients(spec, [1.0, energy])
    with pytest.raises(ArithmeticError, match="det S cannot be checked"):
        amplitudes(spec, energy)
