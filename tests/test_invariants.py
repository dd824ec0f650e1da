"""Cross-module invariants over randomized parameter records.

Every enumerated critical point must back-substitute into its defining
integer condition and carry the amplitude classification that defines its
family; these sweeps run the whole chain (enumeration -> channel
parameters -> Gamma poles -> singular-value limits) over random depths,
shapes and masses, including masses away from one.
"""

import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsabsorb import cli, spectral
from wsabsorb.amplitudes import amplitudes, det_s
from wsabsorb.invariants import SUITES
from wsabsorb.oracle import oracle_amplitudes, oracle_domain_ok
from wsabsorb.spectral import (
    Side,
    SpectralFamily,
    cc_left_energies,
    cc_right_energies,
    cpa_energies_forward,
    cpa_energies_time_reversed,
    rprime_left_zeros,
    ss_energies,
)
from wsabsorb.units import PotentialSpec, Variant

spec_strategy = st.builds(
    PotentialSpec,
    v0=st.floats(0.2, 30.0),
    rho=st.floats(0.3, 4.0),
    mass=st.floats(0.4, 3.0),
)


def two_a2(spec, energy):
    return 4.0 * math.sqrt(spec.mass * energy) / spec.rho


def two_a3(spec, energy):
    return 4.0 * math.sqrt(spec.mass * (energy + spec.v0)) / spec.rho


@given(spec_strategy)
@settings(max_examples=60, deadline=None)
def test_back_substitution_all_families(spec):
    for p in cc_left_energies(spec, 5):
        assert abs(two_a3(spec, p.energy) - p.index) < 1e-10
    for p in cc_right_energies(spec, 5):
        assert abs(two_a2(spec, p.energy) - p.index) < 1e-10
    for p in ss_energies(spec, Side.LEFT, 5) + ss_energies(spec, Side.RIGHT, 5):
        var = two_a3 if p.kind is SpectralFamily.SS_LEFT else two_a2
        assert abs(var(spec, p.energy) - p.index) < 1e-10
    for p in cpa_energies_forward(spec, 5):
        if p.kind is SpectralFamily.CPA_FORWARD_A2:
            assert abs(two_a2(spec, p.energy) - (p.index + 1)) < 1e-10
        else:
            assert abs(two_a3(spec, p.energy) - p.index) < 1e-10
    for p in cpa_energies_time_reversed(spec, 5):
        total = (two_a2(spec, p.energy) + two_a3(spec, p.energy)) / 2.0
        assert abs(total - p.index) < 1e-10
    for p in rprime_left_zeros(spec):
        diff = (two_a3(spec, p.energy) - two_a2(spec, p.energy)) / 2.0
        assert abs(diff - p.index) < 1e-10


@given(spec_strategy)
@settings(max_examples=30, deadline=None)
def test_classification_matches_family(spec):
    tr = replace(spec, variant=Variant.TIME_REVERSED)
    for p in cc_left_energies(spec, 3):
        if p.degenerate:
            continue
        fwd = amplitudes(spec, p.energy)
        assert fwd.rl.is_zero and fwd.tl.is_zero and fwd.rr.is_finite
        assert amplitudes(tr, p.energy).Rl.is_pole
    for p in cc_right_energies(spec, 3):
        if p.degenerate:
            continue
        fwd = amplitudes(spec, p.energy)
        assert fwd.rr.is_zero and fwd.tl.is_zero
        assert amplitudes(tr, p.energy).Rr.is_pole
    for p in cpa_energies_forward(spec, 3):
        if p.degenerate:
            continue
        assert det_s(spec, p.energy).is_zero
    for p in cpa_energies_time_reversed(spec, 3):
        assert det_s(tr, p.energy).is_zero
        assert det_s(spec, p.energy).is_pole
    for p in rprime_left_zeros(spec):
        if p.degenerate:
            continue
        assert amplitudes(tr, p.energy).rl.is_zero


@given(spec_strategy, st.floats(0.05, 20.0))
@settings(max_examples=60, deadline=None)
def test_degenerate_free_energies_have_unit_det_product(spec, energy):
    forward = det_s(spec, energy)
    backward = det_s(replace(spec, variant=Variant.TIME_REVERSED), energy)
    if not (forward.is_finite and backward.is_finite):
        return
    assert abs((forward * backward).to_complex() - 1.0) < 1e-9


def test_oracle_with_nonunit_mass():
    spec = PotentialSpec(v0=1.7, rho=1.4, mass=2.3)
    energy = 0.83
    assert oracle_domain_ok(spec, energy)
    ref = amplitudes(spec, energy)
    got = oracle_amplitudes(spec, energy)
    for field in ("rl", "rr", "tl"):
        a = getattr(ref, field).to_complex()
        b = getattr(got, field).to_complex()
        assert abs(a - b) <= 1e-6 * abs(a)


def test_oracle_time_reversed_nonzero_offset():
    spec = PotentialSpec(v0=0.9, rho=1.1, mass=1.0, variant=Variant.TIME_REVERSED)
    ref = amplitudes(spec, 1.17)
    got = oracle_amplitudes(spec, 1.17, x0=0.6)
    for field in ("rl", "rr", "tl", "det_s"):
        a = getattr(ref, field).to_complex()
        b = getattr(got, field).to_complex()
        assert abs(a - b) <= 1e-6 * abs(a)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, check, tolerance", SUITES, ids=[row[0] for row in SUITES])
def test_suite_passes(name, check, tolerance, seed):
    assert check(np.random.default_rng(seed)) <= tolerance


# the module, which the package's ``amplitudes`` function shadows
_AMPLITUDES = importlib.import_module("wsabsorb.amplitudes")
_ORACLE = importlib.import_module("wsabsorb.oracle")
_FLIP = {Variant.FORWARD: Variant.TIME_REVERSED, Variant.TIME_REVERSED: Variant.FORWARD}


def _swap_g1_g2(monkeypatch):
    monkeypatch.setattr(_AMPLITUDES, "_G_ROWS", _AMPLITUDES._G_ROWS[:, [1, 0, 2, 3]])


def _flip_variant_sign(monkeypatch):
    channel = _AMPLITUDES._channel
    monkeypatch.setattr(_AMPLITUDES, "_channel",
                        lambda spec, energy: channel(replace(spec, variant=_FLIP[spec.variant]), energy))


def _offset_by_one(family):
    def fault(monkeypatch):
        row = spectral._TABLE[family]
        monkeypatch.setitem(spectral._TABLE, family, row._replace(offset=row.offset + 1))
    return fault


# a seeded fault per verify row that the row must report
SUITE_FAULTS = {
    "gamma_identity": _swap_g1_g2,
    "hermitian_unitarity": _swap_g1_g2,
    "family_signatures": _flip_variant_sign,
    "cc_spacing_laws": _offset_by_one(SpectralFamily.CC_LEFT),
    "rzero_spacing_corrected": _offset_by_one(SpectralFamily.RPRIME_LEFT_ZERO),
    "oracle_agreement": _flip_variant_sign,
}


@pytest.mark.parametrize("name, check, tolerance", SUITES, ids=[row[0] for row in SUITES])
def test_suite_fails_under_its_fault(name, check, tolerance, monkeypatch):
    SUITE_FAULTS[name](monkeypatch)
    try:
        worst = check(np.random.default_rng(0))
    except ArithmeticError:
        return
    assert not worst <= tolerance


_CHECKS = {name: (check, tolerance) for name, check, tolerance in SUITES}


def _row_fault(family, **change):
    def fault(monkeypatch):
        monkeypatch.setitem(spectral._TABLE, family, spectral._TABLE[family]._replace(**change))
    return fault


# faults that move a family's points off its row, or onto another row; the
# family_signatures row must report each (an off-by-one offset or a flipped
# exclude_degenerate moves no point off its row and keeps every signature,
# so it is the index and exclusion tests that catch those)
ROW_FAULTS = {
    "cc_left_c3_1": _row_fault(SpectralFamily.CC_LEFT, c3=1),
    "cc_right_c2_1": _row_fault(SpectralFamily.CC_RIGHT, c2=1),
    "cpa_time_reversed_c2_2": _row_fault(SpectralFamily.CPA_TIME_REVERSED, c2=2),
    "rprime_left_zero_c2_minus_2": _row_fault(SpectralFamily.RPRIME_LEFT_ZERO, c2=-2),
    "ss_left_well_energy": _row_fault(SpectralFamily.SS_LEFT, energy=spectral._well_energy),
    "cpa_forward_a2_left_energy": _row_fault(SpectralFamily.CPA_FORWARD_A2,
                                             energy=spectral._left_energy),
}


@pytest.mark.parametrize("fault", list(ROW_FAULTS))
def test_family_signatures_reports_a_moved_row(fault, monkeypatch):
    check, tolerance = _CHECKS["family_signatures"]
    ROW_FAULTS[fault](monkeypatch)
    for seed in (0, 20260810):
        assert not check(np.random.default_rng(seed)) <= tolerance


def test_oracle_agreement_reports_forward_shapes_on_time_reversed_draws(monkeypatch):
    # the time-reversed oracle swaps the roles of its two launches; given the
    # forward order it reconstructs the wrong amplitudes
    check, tolerance = _CHECKS["oracle_agreement"]
    shapes = _ORACLE._shapes
    monkeypatch.setattr(_ORACLE, "_shapes", lambda variant: shapes(Variant.FORWARD))
    assert not check(np.random.default_rng(0)) <= tolerance


def test_verify_rows_follow_the_suite_table(monkeypatch, capsys):
    # each stand-in check reports its generator's first draw, scaled into its
    # tolerance, so the rows show that every check got a fresh generator
    assert cli.SUITES is SUITES
    stand_ins = tuple((name, lambda rng, tol=tol: rng.uniform() * tol, tol)
                      for name, _, tol in SUITES)
    monkeypatch.setattr(cli, "SUITES", stand_ins)
    assert cli.main(["verify", "--seed", "3", "--format", "json"]) == 0
    first = np.random.default_rng(3).uniform()
    assert json.loads(capsys.readouterr().out)["rows"] == [
        {"suite": name, "max_deviation": float(f"{first * tol:.12g}"),
         "tolerance": tol, "status": "PASS"}
        for name, _, tol in SUITES
    ]
