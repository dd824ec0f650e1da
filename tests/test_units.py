"""Unit conversions, parameter validation, and the published parameter
columns."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsabsorb import (
    Launch,
    RangeCriterion,
    SpectralFamily,
    amplitudes,
    channel_params,
    critical_points,
    hermitian_amplitudes,
    hermitian_oracle_amplitudes,
    integrate_contour,
    log10_coefficients,
    oracle_amplitudes,
    oracle_g_factors,
    p_intermediate,
    potential_profile,
    scan_ranges,
)
from wsabsorb.units import (
    EnergyUnit,
    LengthUnit,
    PotentialSpec,
    convert_energy,
    convert_length,
    validate,
)

EV = EnergyUnit.ELECTRON_VOLT
MEV = EnergyUnit.MEGA_ELECTRON_VOLT
NM = LengthUnit.NANOMETER


class TestConversions:
    def test_energy_examples(self):
        assert convert_energy(1.2, to_units=EV) == pytest.approx(32.65368, abs=1e-5)
        assert convert_energy(0.0, to_units=EV) == 0.0
        assert convert_energy(5.5e6, to_units=MEV) == pytest.approx(149.6627, abs=1e-3)

    def test_length_examples(self):
        assert convert_length(1 / 1.8, to_units=NM) == pytest.approx(0.0294, abs=5e-5)
        assert convert_length(1 / 60, to_units=NM) == pytest.approx(0.00088, abs=1e-5)
        assert convert_length(1.0, to_units=NM) == pytest.approx(0.0529177, abs=1e-12)

    @given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_energy_round_trip(self, value):
        for unit in (EV, MEV):
            back = convert_energy(convert_energy(value, EnergyUnit.INTERNAL, unit),
                                  unit, EnergyUnit.INTERNAL)
            assert back == pytest.approx(value, rel=1e-12, abs=1e-280)

    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_length_round_trip(self, value):
        back = convert_length(convert_length(value, LengthUnit.INTERNAL, NM),
                              NM, LengthUnit.INTERNAL)
        assert back == pytest.approx(value, rel=1e-12, abs=1e-280)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            convert_energy(math.inf)
        with pytest.raises(ValueError):
            convert_length(math.nan)


class TestValidate:
    def test_good_spec(self):
        spec = PotentialSpec(v0=1.2, rho=1.8, mass=1.0)
        assert validate(spec) is spec

    def test_sign_errors(self):
        with pytest.raises(ValueError, match="v0 must be positive"):
            validate(PotentialSpec(v0=-1.0, rho=1.0, mass=1.0))
        with pytest.raises(ValueError, match="rho must be positive"):
            validate(PotentialSpec(v0=1.0, rho=0.0, mass=1.0))
        with pytest.raises(ValueError, match="mass must be positive"):
            validate(PotentialSpec(v0=1.0, rho=1.0, mass=-2.0))

    @pytest.mark.parametrize("name", ["v0", "rho", "mass"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_fields(self, name, value):
        fields = {"v0": 1.0, "rho": 1.0, "mass": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            validate(PotentialSpec(**fields))

    # a bool passed as 1, and np.int64 / np.float32 were refused as not finite
    @pytest.mark.parametrize("name", ["v0", "rho", "mass"])
    @pytest.mark.parametrize("value", [True, np.int64(2), np.float32(2.0), "2", None])
    def test_fields_must_be_int_or_float(self, name, value):
        fields = {"v0": 1.0, "rho": 1.0, "mass": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an int or float, got "):
            PotentialSpec(**fields)

    def test_int_and_float64_fields_accepted(self):
        spec = PotentialSpec(v0=np.float64(1.2), rho=2, mass=np.float64(1.0))
        assert validate(spec) is spec

    def test_spec_is_checked_when_made(self):
        with pytest.raises(ValueError, match="v0 must be positive"):
            PotentialSpec(-1.0, 1.8)
        with pytest.raises(ValueError, match="rho must be positive"):
            replace(PotentialSpec(1.2, 1.8), rho=0.0)


SPEC = PotentialSpec(1.2, 1.8)
CC_LEFT = RangeCriterion.CC_LEFT_RANGE

ORACLE_CALLS = {
    "integrate_contour": lambda energy, **kw: integrate_contour(SPEC, energy, Launch.PSI_TWO, **kw),
    "oracle_g_factors": lambda energy, **kw: oracle_g_factors(SPEC, energy, **kw),
    "oracle_amplitudes": lambda energy, **kw: oracle_amplitudes(SPEC, energy, **kw),
}

# (entry point, argument): a call that puts the value in that argument, and
# the name the refusal gives it
ARGUMENTS = {
    ("PotentialSpec", "v0"): (lambda v: PotentialSpec(v, 1.8), "v0"),
    ("PotentialSpec", "rho"): (lambda v: PotentialSpec(1.2, v), "rho"),
    ("PotentialSpec", "mass"): (lambda v: PotentialSpec(1.2, 1.8, v), "mass"),
    ("channel_params", "energy"): (lambda v: channel_params(SPEC, v), "energy"),
    ("amplitudes", "energy"): (lambda v: amplitudes(SPEC, v), "energy"),
    ("log10_coefficients", "energies"): (lambda v: log10_coefficients(SPEC, [1.0, v]), "energies"),
    ("potential_profile", "x"): (lambda v: potential_profile(SPEC, v, [0.0]), "x"),
    ("potential_profile", "zeta_grid"): (lambda v: potential_profile(SPEC, 0.5, [0.0, v]), "zeta_grid"),
    **{(fn.__name__, arg): (lambda v, fn=fn, i=i: fn(*(v if j == i else 1.0 for j in range(4))), arg)
       for fn in (hermitian_amplitudes, hermitian_oracle_amplitudes)
       for i, arg in enumerate(("v0", "delta", "m", "energy"))},
    **{(entry, arg): (lambda v, fn=fn, arg=arg: fn(**{"energy": 1.0, arg: v}), arg)
       for entry, fn in ORACLE_CALLS.items() for arg in ("energy", "x0", "Z")},
    ("critical_points", "window"): (
        lambda v: critical_points(SPEC, SpectralFamily.CC_LEFT, window=(v, 4.0)), "window"),
    ("scan_ranges", "window"): (lambda v: scan_ranges(SPEC, CC_LEFT, (0.5, v)), "window"),
    ("scan_ranges", "threshold"): (lambda v: scan_ranges(SPEC, CC_LEFT, (0.5, 4.0), v), "threshold"),
    ("convert_energy", "value"): (convert_energy, "energy"),
    ("convert_length", "value"): (convert_length, "length"),
}


@pytest.mark.parametrize("entry", sorted(ARGUMENTS), ids="-".join)
@pytest.mark.parametrize("value", [True, "1"])
def test_every_entry_point_refuses_bool_and_str(entry, value):
    # log10_coefficients read True and "1" as 1.0, and the converters True as
    # 1.0; each numeric argument must read the number rule of units
    call, name = ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} .*must be an int or float, got {value!r}$"):
        call(value)


# (entry point, argument) that take an int alone: a call that puts the value
# in that argument, and the name the refusal gives it
INT_ARGUMENTS = {
    ("p_intermediate", "n"): (lambda v: p_intermediate(SPEC, v), "n"),
    ("critical_points", "count"): (
        lambda v: critical_points(SPEC, SpectralFamily.CC_LEFT, count=v), "cc_left count"),
    ("scan_ranges", "grid_points"): (
        lambda v: scan_ranges(SPEC, CC_LEFT, (0.5, 4.0), grid_points=v), "grid_points"),
}


@pytest.mark.parametrize("entry", sorted(INT_ARGUMENTS), ids="-".join)
@pytest.mark.parametrize("value", [True, "1", 1.5, np.int64(3)])
def test_int_arguments_refuse_all_but_an_int(entry, value):
    # p_intermediate read True as n = 1 and 1.5 as an index; each int
    # argument must read the int rule of units
    call, name = INT_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        call(value)


def test_log10_coefficients_refuses_a_complex_entry():
    # np.asarray(..., dtype=float) raised TypeError on it
    with pytest.raises(ValueError, match=r"^energies entry must be an int or float, got \(2\.5\+0j\)$"):
        log10_coefficients(SPEC, [2.5 + 0j])


# Published parameter columns (depth in eV/MeV, diffuseness and width in nm)
# against the figure-caption internal parameters.  Tolerance is the larger
# of 0.5% and half a unit in the table's last printed digit: the published
# columns are rounded to one or two significant figures.
_PARAM_ROWS = [
    # (v0, rho, published v0, unit, published a_nm, a_tol, published r0_nm, r0_tol)
    (1.2, 1.8, 32.65, EV, 0.029, 0.0005, 0.093, 0.0008),
    (1.0, 0.0006, 27.2, EV, 88.3, 0.45, 277.5, 1.4),
    (5.5e6, 60.0, 150.0, MEV, 0.0009, 5e-5, 0.003, 5e-4),
    (2.0, 2.0, 54.41, EV, 0.02, 0.007, 0.08, 0.004),
    (15.0, 0.001, 408.01, EV, 53.0, 0.5, 166.5, 0.9),
]


@pytest.mark.parametrize("v0,rho,pub_v0,unit,pub_a,a_tol,pub_r0,r0_tol", _PARAM_ROWS)
def test_published_parameter_columns(v0, rho, pub_v0, unit, pub_a, a_tol, pub_r0, r0_tol):
    spec = validate(PotentialSpec(v0=v0, rho=rho, mass=1.0))
    v0_display = convert_energy(spec.v0, to_units=unit)
    assert abs(v0_display - pub_v0) <= max(0.005 * pub_v0, 0.005 * v0_display)
    a_display = convert_length(spec.diffuseness, to_units=NM)
    assert abs(a_display - pub_a) <= max(0.005 * pub_a, a_tol)
    r0_display = convert_length(spec.width, to_units=NM)
    assert abs(r0_display - pub_r0) <= max(0.005 * pub_r0, r0_tol)
