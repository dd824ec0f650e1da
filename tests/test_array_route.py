"""The array route of the closed form: ``log10_coefficients`` against the
scalar ``amplitudes`` it stands in for, row by row and bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wsabsorb.amplitudes import amplitudes, log10_coefficients
from wsabsorb.spectral import SpectralFamily, critical_points
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
@pytest.mark.parametrize("v0, rho, energy", DET_S_REPRODUCERS)
def test_array_route_raises_where_scalar_raises(v0, rho, energy, variant):
    spec = PotentialSpec(v0=v0, rho=rho, mass=1.0, variant=variant)
    ordinary = [0.7 * energy, 0.9 * energy, 1.1 * energy]
    assert np.all(np.isfinite(log10_coefficients(spec, ordinary)))
    with pytest.raises(ArithmeticError):
        amplitudes(spec, energy)
    with pytest.raises(ArithmeticError, match="det S"):
        log10_coefficients(spec, ordinary[:2] + [energy] + ordinary[2:])


@pytest.mark.parametrize("energies", [
    [1.0, float("nan")], [1.0, float("inf")], [0.0, 1.0], [-1.0], [[1.0, 2.0]],
])
def test_bad_energies_rejected(energies):
    with pytest.raises(ValueError):
        log10_coefficients(PotentialSpec(v0=1.2, rho=1.8, mass=1.0), energies)
