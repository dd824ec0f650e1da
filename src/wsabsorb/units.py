"""Physical parameter records, validation, and display-unit conversions.

Internal units are atomic-style (Hartree-equivalent energies,
bohr-equivalent lengths) under the dispersion convention k1 = sqrt(m E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
    if not math.isfinite(value):
        raise ValueError(f"energy must be finite, got {value!r}")
    return value / _EV_FACTOR[from_units] * _EV_FACTOR[to_units]


def convert_length(
    value: float,
    from_units: LengthUnit = LengthUnit.INTERNAL,
    to_units: LengthUnit = LengthUnit.INTERNAL,
) -> float:
    """Convert a length between units."""
    if not math.isfinite(value):
        raise ValueError(f"length must be finite, got {value!r}")
    return value / _NM_FACTOR[from_units] * _NM_FACTOR[to_units]


@dataclass(frozen=True)
class PotentialSpec:
    """Physical parameters of the complexified smoothed-step potential.

    v0, rho and mass are in internal units.  The imaginary shift zeta of
    the coordinate x - i zeta is no field: every amplitude is a Gamma ratio
    in a2 and a3 alone, so none depends on it, and ``potential_profile``
    takes it as its sampling grid.  The shape-phase constant is fixed to
    one, so the nominal width r0 = pi / rho is display metadata only.
    """

    v0: float
    rho: float
    mass: float = 1.0
    variant: Variant = Variant.FORWARD

    @property
    def diffuseness(self) -> float:
        """a = 1 / rho, internal length units."""
        return 1.0 / self.rho

    @property
    def width(self) -> float:
        """Nominal width r0 = pi * a (display only)."""
        return math.pi / self.rho


def validate(spec: PotentialSpec) -> PotentialSpec:
    """Return spec unchanged if its invariants hold, else raise ValueError."""
    for name in ("v0", "rho", "mass"):
        value = getattr(spec, name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if spec.v0 <= 0:
        raise ValueError(f"v0 must be positive, got {spec.v0}")
    if spec.rho <= 0:
        raise ValueError(f"rho must be positive, got {spec.rho}")
    if spec.mass <= 0:
        raise ValueError(f"mass must be positive, got {spec.mass}")
    if not isinstance(spec.variant, Variant):
        raise ValueError(f"variant must be a Variant, got {spec.variant!r}")
    return spec
