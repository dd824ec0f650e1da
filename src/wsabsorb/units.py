"""Physical parameter records, validation, the argument rules that every
entry point reads, and display-unit conversions.

Internal units are atomic-style (Hartree-equivalent energies,
bohr-equivalent lengths) under the dispersion convention k1 = sqrt(m E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: 1 internal energy unit in electron-volts.
EV_PER_ENERGY_UNIT = 27.2114
#: 1 internal length unit in nanometers.
NM_PER_LENGTH_UNIT = 0.0529177


class Variant(Enum):
    """Which of the pair of mutually time-reversed potentials is meant."""

    FORWARD = "forward"
    TIME_REVERSED = "time_reversed"


class EnergyUnit(Enum):
    INTERNAL = "internal"
    ELECTRON_VOLT = "ev"
    MEGA_ELECTRON_VOLT = "mev"


class LengthUnit(Enum):
    INTERNAL = "internal"
    NANOMETER = "nm"


_EV_FACTOR = {
    EnergyUnit.INTERNAL: 1.0,
    EnergyUnit.ELECTRON_VOLT: EV_PER_ENERGY_UNIT,
    EnergyUnit.MEGA_ELECTRON_VOLT: EV_PER_ENERGY_UNIT * 1e-6,
}

_NM_FACTOR = {
    LengthUnit.INTERNAL: 1.0,
    LengthUnit.NANOMETER: NM_PER_LENGTH_UNIT,
}


def convert_energy(
    value: float,
    from_units: EnergyUnit = EnergyUnit.INTERNAL,
    to_units: EnergyUnit = EnergyUnit.INTERNAL,
) -> float:
    """Convert an energy between units (pure arithmetic)."""
    _check_finite("energy", value)
    _check_member("from_units", from_units, EnergyUnit)
    _check_member("to_units", to_units, EnergyUnit)
    return value / _EV_FACTOR[from_units] * _EV_FACTOR[to_units]


def convert_length(
    value: float,
    from_units: LengthUnit = LengthUnit.INTERNAL,
    to_units: LengthUnit = LengthUnit.INTERNAL,
) -> float:
    """Convert a length between units."""
    _check_finite("length", value)
    _check_member("from_units", from_units, LengthUnit)
    _check_member("to_units", to_units, LengthUnit)
    return value / _NM_FACTOR[from_units] * _NM_FACTOR[to_units]


@dataclass(frozen=True)
class PotentialSpec:
    """Physical parameters of the complexified smoothed-step potential.

    v0, rho and mass are in internal units.  The imaginary shift zeta of
    the coordinate x - i zeta is no field: every amplitude is a Gamma ratio
    in a2 and a3 alone, so none depends on it, and ``potential_profile``
    takes it as its sampling grid.  The shape-phase constant is fixed to
    one, so the nominal width r0 = pi / rho is display metadata only.

    A spec is checked when it is made (:func:`validate`), so every spec
    that exists holds its invariants and no function that takes one checks
    it again.
    """

    v0: float
    rho: float
    mass: float = 1.0
    variant: Variant = Variant.FORWARD

    def __post_init__(self):
        validate(self)

    @property
    def diffuseness(self) -> float:
        """a = 1 / rho, internal length units."""
        return 1.0 / self.rho

    @property
    def width(self) -> float:
        """Nominal width r0 = pi * a (display only)."""
        return math.pi / self.rho


# -- argument rules: each entry point reads these, and no module restates them --


def _check_number(name: str, value, kinds: tuple[type, ...] = (int, float)) -> None:
    """Raise ValueError unless value is an instance of one of kinds, an int
    or a float by default (``np.float64`` is a float and ``np.complex128`` a
    complex; a bool, ``np.int64`` or ``np.float32`` is none of them)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be an {' or '.join(k.__name__ for k in kinds)}, got {value!r}")


def _check_finite(name: str, value) -> None:
    """Raise ValueError unless value passes :func:`_check_number` and is
    finite."""
    _check_number(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(name: str, value) -> None:
    """Raise ValueError unless value passes :func:`_check_finite` and is
    positive."""
    _check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_window(window) -> None:
    """Raise ValueError unless window is (emin, emax), each end passing
    :func:`_check_number`, with finite 0 < emin < emax."""
    emin, emax = window
    for end in window:
        _check_number("window end", end)
    if not (emin > 0.0 and emax > emin and math.isfinite(emax)):
        raise ValueError(f"invalid window {window!r}: need finite 0 < emin < emax")


def _check_entries(name: str, values) -> None:
    """Raise ValueError unless every entry of values passes
    :func:`_check_number`; an ndarray's dtype (kind f, i or u) says it for
    every entry."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "fiu":
            raise ValueError(f"{name} entries must be int or float, got dtype {values.dtype}")
    else:
        for entry in np.asarray(values, dtype=object).ravel():
            _check_number(f"{name} entry", entry)


def _check_member(name: str, value, kind: type) -> None:
    """Raise ValueError unless value is a member of the enum kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def validate(spec: PotentialSpec) -> PotentialSpec:
    """Return spec unchanged if its invariants hold, else raise ValueError.

    ``PotentialSpec`` calls it when a spec is made, so a spec that exists
    has passed it."""
    for name in ("v0", "rho", "mass"):
        _check_positive(name, getattr(spec, name))
    _check_member("variant", spec.variant, Variant)
    return spec
