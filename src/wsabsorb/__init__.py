"""Scattering analysis of the gain/loss-symmetric complexified Wood-Saxon
potential: closed-form amplitudes, critical-coupling / coherent-perfect-
absorption / spectral-singularity enumeration, certified absorption
ranges, and an independent contour-ODE cross-check."""

from .amplitudes import (
    AmplitudeSet,
    ChannelParams,
    GFactors,
    amplitudes,
    channel_params,
    det_s,
    g_factors,
    hermitian_amplitudes,
    log10_coefficients,
    potential_profile,
)
from .oracle import (
    ContourError,
    ContourSolution,
    Launch,
    hermitian_oracle_amplitudes,
    integrate_contour,
    oracle_amplitudes,
    oracle_g_factors,
)
from .specfun import (
    TAU_INT,
    PoleProximityError,
    SeriesError,
    SingularValue,
    gamma_info,
    hyp2f1,
    log_gamma,
)
from .spectral import (
    AbsorptionRange,
    RangeCriterion,
    Side,
    SpectralFamily,
    SpectralPoint,
    cc_left_energies,
    cc_right_energies,
    cpa_energies_forward,
    cpa_energies_time_reversed,
    critical_points,
    p_intermediate,
    rprime_left_zeros,
    scan_ranges,
    ss_energies,
)
from .units import (
    EV_PER_ENERGY_UNIT,
    NM_PER_LENGTH_UNIT,
    EnergyUnit,
    LengthUnit,
    PotentialSpec,
    Variant,
    convert_energy,
    convert_length,
    validate,
)

__version__ = "0.1.0"
