"""One closed-form kernel: the array route never falls back to per-energy
``amplitudes()`` calls, not even at pole-snapped energies."""

import importlib

import numpy as np
import pytest

from test_array_route import landing_energies, scalar_route
from wsabsorb.amplitudes import log10_coefficients
from wsabsorb.spectral import SpectralFamily
from wsabsorb.units import PotentialSpec, Variant


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("family", list(SpectralFamily))
def test_array_route_has_no_per_energy_fallback(monkeypatch, family, variant):
    spec = PotentialSpec(v0=8.0, rho=0.6, mass=1.0, variant=variant)
    energies = landing_energies(spec, family, 0.5, 6.0, 11)
    want = scalar_route(spec, energies)
    # the window lands on exact zeros or poles, the rows a fallback would take
    assert np.isinf(want).any()

    def no_scalar_call(spec, energy):
        raise AssertionError("log10_coefficients called amplitudes()")

    module = importlib.import_module("wsabsorb.amplitudes")
    monkeypatch.setattr(module, "amplitudes", no_scalar_call)
    got = log10_coefficients(spec, energies)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
