"""Channel parameters, connection coefficients, and scattering amplitudes.

The four connection coefficients G1..G4 are Gamma-function ratios in the
channel parameters (a2, a3).  Reflection/transmission amplitudes are
ratios of those, so at critical energies where individual Gamma factors
hit poles the amplitudes are finite limits, exact zeros, or poles; all of
that is carried by the SingularValue algebra with coefficients normalized
to the energy offset from the critical point (pole-cancellation limits are
taken analytically via Gamma residues, never by nudging the energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .specfun import TAU_INT, SingularValue, gamma_info
from .units import PotentialSpec, Variant, validate

__all__ = [
    "ChannelParams",
    "GFactors",
    "AmplitudeSet",
    "channel_params",
    "g_factors",
    "amplitudes",
    "log10_coefficients",
    "det_s",
    "potential_profile",
    "hermitian_amplitudes",
]


@dataclass(frozen=True)
class ChannelParams:
    """Per-energy channel quantities.

    a2 and a3 carry the variant sign: the time-reversed potential has both
    negated, which is the whole content of the time-reversal map at the
    amplitude level.  k1 and k2 stay positive.
    """

    energy: float
    k1: float
    k2: float
    a2: complex
    a3: complex
    mass: float

    @property
    def da2_denergy(self) -> complex:
        return self.a2 * self.mass / (2.0 * self.k1 * self.k1)

    @property
    def da3_denergy(self) -> complex:
        return self.a3 * self.mass / (2.0 * self.k2 * self.k2)


@dataclass(frozen=True)
class GFactors:
    g1: SingularValue
    g2: SingularValue
    g3: SingularValue
    g4: SingularValue


@dataclass(frozen=True)
class AmplitudeSet:
    """All scattering amplitudes and coefficients at one energy."""

    energy: float
    rl: SingularValue
    rr: SingularValue
    tl: SingularValue
    tr: SingularValue
    Rl: SingularValue
    Rr: SingularValue
    T: SingularValue
    det_s: SingularValue


def channel_params(spec: PotentialSpec, energy: float) -> ChannelParams:
    """Wavenumbers and channel parameters at a positive energy."""
    validate(spec)
    if not (isinstance(energy, (int, float)) and math.isfinite(energy)):
        raise ValueError(f"energy must be finite, got {energy!r}")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy}")
    k1 = math.sqrt(spec.mass * energy)
    k2 = math.sqrt(spec.mass * (energy + spec.v0))
    sign = 1.0 if spec.variant is Variant.FORWARD else -1.0
    return ChannelParams(
        energy=float(energy),
        k1=k1,
        k2=k2,
        a2=sign * 2.0 * k1 / spec.rho,
        a3=sign * 2.0 * k2 / spec.rho,
        mass=spec.mass,
    )


def _gamma_factor(ch: ChannelParams, c2: int, c3: int, c0: int) -> SingularValue:
    """SingularValue of Gamma(c2*a2 + c3*a3 + c0) in the energy-offset sense.

    Near a pole the residue is rescaled by the energy derivative of the
    argument, so that coefficients of different Gamma factors combine in a
    common limit variable (the offset from the critical energy).
    """
    value = gamma_info(c2 * ch.a2 + c3 * ch.a3 + c0)
    if value.is_pole:
        deriv = complex(c2 * ch.da2_denergy + c3 * ch.da3_denergy)
        if deriv == 0:
            deriv = 1.0 + 0.0j  # stationary argument; leave the residue unscaled
        value = value / SingularValue.finite(
            math.log(abs(deriv)), math.atan2(deriv.imag, deriv.real)
        )
    return value


# numerator/denominator Gamma arguments of G1..G4 as (c2, c3, c0) triples
_G_TABLE = (
    (((2, 0, 1), (0, -2, 0)), ((1, -1, 0), (1, -1, 1))),
    (((2, 0, 1), (0, 2, 0)), ((1, 1, 0), (1, 1, 1))),
    (((-2, 0, 1), (0, -2, 0)), ((-1, -1, 0), (-1, -1, 1))),
    (((-2, 0, 1), (0, 2, 0)), ((-1, 1, 0), (-1, 1, 1))),
)


def g_factors(ch: ChannelParams) -> GFactors:
    """The four connection coefficients, assembled in log space."""
    out = []
    for numer, denom in _G_TABLE:
        value = SingularValue.finite(0.0, 0.0)
        for c2, c3, c0 in numer:
            value = value * _gamma_factor(ch, c2, c3, c0)
        for c2, c3, c0 in denom:
            value = value / _gamma_factor(ch, c2, c3, c0)
        out.append(value)
    return GFactors(*out)


def _det_cross_check(
    t2: SingularValue, rlrr: SingularValue, det_closed: SingularValue, energy: float
) -> None:
    """Verify tl*tr - rl*rr against the closed-form det S.

    The difference can cancel arbitrarily many digits (the Gamma identity
    makes the two products nearly equal wherever |det S| is small), so the
    tolerance scales with the observed cancellation; where the closed form
    is an exact zero of higher order than the float difference can
    resolve, only the cancellation depth is asserted.
    """
    try:
        det_sum = t2 - rlrr
    except ArithmeticError:
        return  # coefficients cancelled exactly; no digits left to compare
    cancel = 0.0
    if t2.order == rlrr.order:
        cancel = max(t2.log_magnitude, rlrr.log_magnitude) - det_sum.log_magnitude
    if det_sum.order == det_closed.order:
        tol = 1e-8 * max(1.0, math.exp(min(200.0, cancel)))
        if det_closed.order != 0:
            # a snapped critical point: the finite cofactors sit up to the
            # snap tolerance away from the exact pole, so the two leading
            # coefficients differ by the subleading Laurent term, bounded
            # by TAU_INT times the digamma scale of the dozen Gamma factors
            tol += 300.0 * TAU_INT
        rel = det_sum.relative_difference(det_closed)
        if rel > tol:
            raise ArithmeticError(
                f"det S cross-check failed at E={energy}: rel diff {rel:.3e}"
            )
    elif det_closed.order > det_sum.order:
        # an exact higher-order zero; the sum is cancellation residue
        if cancel < 9.0 * math.log(10.0):
            raise ArithmeticError(
                f"det S zero not reproduced at E={energy}: "
                f"only {cancel / math.log(10.0):.1f} digits cancelled"
            )
    else:
        raise ArithmeticError(
            f"det S more singular via the sum route at E={energy}: "
            f"orders {det_sum.order} vs {det_closed.order}"
        )


def _amplitude_set(
    energy: float,
    k_ratio: float,
    g1: SingularValue,
    g3: SingularValue,
    g4: SingularValue,
    det: SingularValue,
) -> AmplitudeSet:
    """The one assembly of an AmplitudeSet from the connection coefficients.

    r_l = G4/G3, t_l = t_r = sqrt(k1/k2)/G3 and r_r = -G1/G3, whichever
    route produced G1, G3 and G4; det S comes from the calling route.
    """
    tl = SingularValue.finite(0.5 * math.log(k_ratio), 0.0) / g3
    rl = g4 / g3
    rr = -(g1 / g3)
    return AmplitudeSet(
        energy=float(energy),
        rl=rl,
        rr=rr,
        tl=tl,
        tr=tl,
        Rl=rl.abs_squared(),
        Rr=rr.abs_squared(),
        T=tl.abs_squared(),
        det_s=det,
    )


def _closed_form(ch: ChannelParams) -> AmplitudeSet:
    """Closed-form amplitudes; det S = G2/G3, checked against tl*tr - rl*rr."""
    gf = g_factors(ch)
    amps = _amplitude_set(ch.energy, ch.k1 / ch.k2, gf.g1, gf.g3, gf.g4, gf.g2 / gf.g3)
    _det_cross_check(amps.tl * amps.tl, amps.rl * amps.rr, amps.det_s, ch.energy)
    return amps


def amplitudes(spec: PotentialSpec, energy: float) -> AmplitudeSet:
    """Reflection/transmission amplitudes and coefficients at one energy.

    The left/right transmission amplitudes are one and the same
    expression; det S comes out as the closed-form G-ratio and is verified
    against tl*tr - rl*rr on every call.
    """
    return _closed_form(channel_params(spec, energy))


# the 12 distinct Gamma arguments of _G_TABLE, and the positions in that list
# of the first and second numerator and denominator arguments of G1..G4
_G_ARGS = tuple(sorted({arg for numer, denom in _G_TABLE for arg in numer + denom}))
_G_ROWS = tuple(zip(*(tuple(map(_G_ARGS.index, numer + denom)) for numer, denom in _G_TABLE)))
_LN10 = math.log(10.0)


def log10_coefficients(spec: PotentialSpec, energies) -> np.ndarray:
    """log10 of |r_l|^2, |r_r|^2, T and |det S| over an energy array.

    The array route of :func:`amplitudes`, returned as a (4, n) array in
    that row order.  Each distinct Gamma argument is evaluated once over
    the array by ``scipy.special.loggamma`` (the function behind
    :func:`~wsabsorb.specfun.log_gamma`), and the log-magnitudes are
    combined by the same float operations, in the same order, as the
    SingularValue algebra, so every row equals ``amplitudes(spec, E)``'s
    ``log10_magnitude`` values bit for bit.  The det-S cross-check runs on
    the arrays at its unchanged tolerance; because the unfolded phases and
    numpy's exp/log may differ from the scalar route in the last bits, an
    energy only passes here with a factor-2 margin.  Energies where a
    Gamma argument snaps to a pole (the ``TAU_INT`` rule of
    :func:`gamma_info`), or is not finite, or that miss the margin are
    recomputed by :func:`amplitudes` in ascending index: they get the exact
    residue limits (+-inf where the order is non-zero), and raise wherever
    :func:`amplitudes` raises.
    """
    validate(spec)
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or not np.all(np.isfinite(e) & (e > 0.0)):
        raise ValueError("energies must be a 1-D array of finite positive values")
    k1 = np.sqrt(spec.mass * e)
    k2 = np.sqrt(spec.mass * (e + spec.v0))
    sign = 1.0 if spec.variant is Variant.FORWARD else -1.0
    a2 = sign * 2.0 * k1 / spec.rho
    a3 = sign * 2.0 * k2 / spec.rho
    c2, c3, c0 = np.array(_G_ARGS, dtype=float).T[:, :, None]
    with np.errstate(all="ignore"):
        z = c2 * a2 + c3 * a3 + c0  # one row per distinct argument
        k = np.round(z)
        recheck = np.any(~np.isfinite(z) | ((k <= 0) & (np.abs(z - k) <= TAU_INT)), axis=0)
        lg = loggamma(z.astype(complex))
        n1, n2, d1, d2 = (lg[list(rows)] for rows in _G_ROWS)
        # G1..G4 summed from 0.0 as in g_factors: real part log|G|,
        # imaginary part an (unfolded) phase
        g1, g2, g3, g4 = 0.0 + n1 + n2 - d1 - d2
        half_log_k = 0.5 * np.array([math.log(r) for r in (k1 / k2).tolist()])
        log_tl = half_log_k - g3
        log_rl = g4 - g3
        log_rr = g1 - g3  # r_r = -G1/G3: the sign is the pi in the check below
        log_det = g2 - g3
        # det S = tl^2 - rl rr, both terms scaled by the larger one
        t2, rlrr = 2.0 * log_tl, log_rl + log_rr + 1j * math.pi
        big = np.maximum(t2.real, rlrr.real)
        w = np.exp(t2 - big) - np.exp(rlrr - big)
        cancel = -np.log(np.abs(w))
        tol = 1e-8 * np.maximum(1.0, np.exp(np.minimum(200.0, cancel)))
        rel = np.abs(np.exp(np.log(w) + big - log_det) - 1.0)
        # the margin covers last-bit differences while w keeps >= 3 digits
        # (cancel <= 30, i.e. |w| >= 1e-13)
        recheck |= ~((rel <= 0.5 * tol) & (cancel <= 30.0))
    out = np.stack([2.0 * log_rl.real, 2.0 * log_rr.real, 2.0 * log_tl.real, log_det.real]) / _LN10
    for i in np.flatnonzero(recheck):
        amps = amplitudes(spec, float(e[i]))
        out[:, i] = [sv.log10_magnitude for sv in (amps.Rl, amps.Rr, amps.T, amps.det_s)]
    return out


def det_s(spec: PotentialSpec, energy: float) -> SingularValue:
    """det S as the closed-form Gamma ratio (G2/G3, or its inverse when
    the stored channel parameters are the time-reversed ones)."""
    ch = channel_params(spec, energy)
    gf = g_factors(ch)
    return gf.g2 / gf.g3


def potential_profile(spec: PotentialSpec, x: float, zeta_grid) -> np.ndarray:
    """Complex potential sampled along the imaginary-shift direction.

    Returns -v0 / (1 + e^{rho*zeta} e^{i rho x}) per grid point; the
    time-reversed variant is its complex conjugate.
    """
    validate(spec)
    zeta = np.asarray(zeta_grid, dtype=float)
    phase = np.exp(1j * spec.rho * x)
    with np.errstate(over="ignore", invalid="ignore"):
        grow = np.exp(spec.rho * zeta)
        far = np.isinf(grow)
        denom = np.where(far, 1.0, 1.0 + grow * phase)
        values = np.where(far, 0.0 + 0.0j, -spec.v0 / denom)
    if spec.variant is Variant.TIME_REVERSED:
        values = np.conj(values)
    return values


def _hermitian_channel(v0: float, delta: float, m: float, energy: float) -> ChannelParams:
    """Channel parameters of the uncomplexified (Hermitian) potential:
    purely imaginary a2 = 2i k1/delta and a3 = 2i k2/delta."""
    if not all(math.isfinite(x) and x > 0 for x in (v0, delta, m, energy)):
        raise ValueError(
            f"v0, delta, m and energy must be finite and positive, "
            f"got {v0!r}, {delta!r}, {m!r}, {energy!r}"
        )
    k1 = math.sqrt(m * energy)
    k2 = math.sqrt(m * (energy + v0))
    return ChannelParams(
        energy=float(energy),
        k1=k1,
        k2=k2,
        a2=2j * k1 / delta,
        a3=2j * k2 / delta,
        mass=m,
    )


def hermitian_amplitudes(v0: float, delta: float, m: float, energy: float) -> AmplitudeSet:
    """Amplitudes of the uncomplexified (Hermitian) potential.

    Same G expressions evaluated at purely imaginary channel parameters;
    reciprocity and unitarity hold here, which the tests use as a limit
    check on the whole assembly.
    """
    return _closed_form(_hermitian_channel(v0, delta, m, energy))
