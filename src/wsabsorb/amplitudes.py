"""Channel parameters, connection coefficients, and scattering amplitudes.

The four connection coefficients G1..G4 are Gamma-function ratios in the
channel parameters (a2, a3).  Reflection/transmission amplitudes are
ratios of those, so at critical energies where individual Gamma factors
hit poles the amplitudes are finite limits, exact zeros, or poles.  One
kernel evaluates the closed form over an array of energies: each Gamma
argument that snaps to a pole carries an integer order and its residue,
normalized to the energy offset from the critical point (pole-cancellation
limits are taken analytically via Gamma residues, never by nudging the
energy), and det S is cross-checked at every energy.  The scalar functions
read the kernel's one-energy column as :class:`SingularValue` values;
:func:`log10_coefficients` reads its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn, loggamma, xlogy

from .specfun import TAU_INT, SingularValue
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


# numerator/denominator Gamma arguments of G1..G4 as (c2, c3, c0) triples
_G_TABLE = (
    (((2, 0, 1), (0, -2, 0)), ((1, -1, 0), (1, -1, 1))),
    (((2, 0, 1), (0, 2, 0)), ((1, 1, 0), (1, 1, 1))),
    (((-2, 0, 1), (0, -2, 0)), ((-1, -1, 0), (-1, -1, 1))),
    (((-2, 0, 1), (0, 2, 0)), ((-1, 1, 0), (-1, 1, 1))),
)
# the 12 distinct Gamma arguments as (12, 1) coefficient columns, and the rows
# of the first and second numerator and denominator arguments of G1..G4
_G_ARGS = tuple(sorted({arg for numer, denom in _G_TABLE for arg in numer + denom}))
_C2, _C3, _C0 = np.array(_G_ARGS, dtype=float).T[:, :, None]
_G_ROWS = np.array([[_G_ARGS.index(arg) for arg in numer + denom] for numer, denom in _G_TABLE]).T
# r_l, -r_r, t and det S are G4, G1, sqrt(k1/k2) and G2 over G3; their log10
# coefficients |r_l|^2, |r_r|^2, T and |det S| take the squares of the first three
_AMP_ROWS = np.array([3, 0, 4, 1])
_SQUARED = np.array([[2.0], [2.0], [2.0], [1.0]])
_LN10 = math.log(10.0)


def _g_logs(ch: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """Pole orders and complex logs of G1..G4 and sqrt(k1/k2), as (5, n) arrays.

    The fields of ``ch`` hold one energy or n of them.  One log-Gamma call
    covers the 12 distinct Gamma arguments: real arguments (the real
    channel parameters of both variants of the complexified potential) take
    ``gammaln`` with a phase of pi where ``gammasgn`` is negative, complex
    ones (the imaginary channel parameters of the Hermitian potential)
    take ``loggamma``.  An argument within
    ``TAU_INT`` of a pole -k (the rule of
    :func:`~wsabsorb.specfun.gamma_info`) is a pole of order 1 whose residue
    (-1)^k / k! is divided by the argument's energy derivative, so that
    coefficients of different Gamma factors combine in a common limit
    variable (the offset from the critical energy).  Callers silence
    numpy's floating-point warnings.
    """
    z = _C2 * ch.a2 + _C3 * ch.a3 + _C0
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"non-finite argument {complex(z[~finite][0])!r}")
    k = np.minimum(np.rint(z.real), 0.0)  # the nearest pole
    pole = np.abs(z - k) <= TAU_INT
    x = np.where(pole, 1.0 - k, z)  # log (-k)! at a pole
    lg = loggamma(x) if np.iscomplexobj(x) else gammaln(x) + 1j * math.pi * (gammasgn(x) < 0)
    order = np.zeros((5, z.shape[1]), dtype=int)
    if pole.any():
        dz = (_C2 * ch.da2_denergy + _C3 * ch.da3_denergy)[pole] + 0j
        dz[dz == 0] = 1.0  # stationary argument; leave the residue unscaled
        lg[pole] = 1j * math.pi * (k[pole] % 2) - lg[pole] - np.log(dz)
        p1, p2, q1, q2 = pole[_G_ROWS].astype(int)
        order[:4] = q1 + q2 - p1 - p2
    n1, n2, d1, d2 = lg[_G_ROWS]
    # xlogy, not np.log: a scalar ufunc loop that rounds as 0.5 * math.log
    # does at every array length, where numpy's vectorised log may not
    root_k = xlogy(0.5, np.ravel(ch.k1 / ch.k2))
    return order, np.concatenate([n1 + n2 - d1 - d2, root_k[None]])


def _checked_logs(ch: ChannelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_g_logs`, then the orders and logs of r_l, -r_r, t and det S
    as (4, n) arrays, with tl*tr - rl*rr verified against the closed-form
    det S = G2/G3 at every energy.

    The difference can cancel arbitrarily many digits (the Gamma identity
    makes the two products nearly equal wherever |det S| is small), so the
    tolerance scales with the observed cancellation; where the closed form
    is an exact zero of higher order than the float difference can
    resolve, only the cancellation depth is asserted.  Leading coefficients
    that cancel exactly leave no digits to compare.  Raises
    ``ArithmeticError`` at the first energy that fails.
    """
    with np.errstate(all="ignore"):
        order, lg = _g_logs(ch)
        amp_order, amp = order[_AMP_ROWS] - order[2], lg[_AMP_ROWS] - lg[2]
        (o_rl, o_rr, o_t, o_det), (rl, rr, t, det) = amp_order, amp
        # det S = t^2 + m with m = -r_l r_r
        o_t2, o_m = 2 * o_t, o_rl + o_rr
        t2, m = 2.0 * t, rl + rr
        big = np.maximum(t2.real, m.real)
        e_t2, e_m = np.exp(t2 - big), np.exp(m - big)
        w = e_t2 + e_m
        equal = o_t2 == o_m
        o_sum = np.minimum(o_t2, o_m)
        log_sum = np.where(equal, big + np.log(w), np.where(o_t2 < o_m, t2, m))
        cancel = np.where(equal, big - log_sum.real, 0.0)
        rel = np.abs(np.exp(log_sum - det) - 1.0)
        # at a snapped critical point the finite cofactors sit up to the snap
        # tolerance away from the exact pole, so the two leading coefficients
        # differ by the subleading Laurent term, bounded by TAU_INT times the
        # digamma scale of the dozen Gamma factors
        tol = 1e-8 * np.maximum(1.0, np.exp(np.minimum(200.0, cancel)))
        tol += 300.0 * TAU_INT * (o_det != 0)
        # equal orders compare coefficients; an exact higher-order zero of the
        # closed form needs 9 cancelled digits; a more singular sum always fails
        fail = np.where(o_sum == o_det, rel > tol, (o_det < o_sum) | (cancel < 9.0 * _LN10))
        if fail.any():  # except where the leading coefficients cancel exactly
            fail &= ~(equal & (np.abs(w) < 4e-16 * (np.abs(e_t2) + np.abs(e_m))))
    if fail.any():
        i = np.flatnonzero(fail)[0]
        if o_sum[i] == o_det[i]:
            what, detail = "cross-check failed", f"rel diff {rel[i]:.3e}"
        elif o_det[i] > o_sum[i]:
            what, detail = "zero not reproduced", f"only {cancel[i] / _LN10:.1f} digits cancelled"
        else:
            what, detail = "more singular via the sum route", f"orders {o_sum[i]} vs {o_det[i]}"
        raise ArithmeticError(f"det S {what} at E={float(np.ravel(ch.energy)[i])}: {detail}")
    return order, lg, amp_order, amp


def _column(order: np.ndarray, lg: np.ndarray) -> list[SingularValue]:
    """G1..G4 and sqrt(k1/k2) at the first energy of a kernel call."""
    return [SingularValue(o, w.real, w.imag) for o, w in zip(order[:, 0].tolist(), lg[:, 0].tolist())]


def g_factors(ch: ChannelParams) -> GFactors:
    """The four connection coefficients, assembled in log space."""
    with np.errstate(all="ignore"):
        return GFactors(*_column(*_g_logs(ch))[:4])


def _amplitude_set(
    energy: float,
    root_k: SingularValue,
    g1: SingularValue,
    g3: SingularValue,
    g4: SingularValue,
    det: SingularValue,
) -> AmplitudeSet:
    """The one assembly of an AmplitudeSet from the connection coefficients.

    r_l = G4/G3, t_l = t_r = sqrt(k1/k2)/G3 (``root_k`` is sqrt(k1/k2)) and
    r_r = -G1/G3, whichever route produced G1, G3 and G4; det S comes from
    the calling route.
    """
    tl = root_k / g3
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


def _amplitudes(ch: ChannelParams) -> AmplitudeSet:
    """Closed-form amplitudes at one energy; det S = G2/G3, checked."""
    order, lg, _, _ = _checked_logs(ch)
    g1, g2, g3, g4, root_k = _column(order, lg)
    return _amplitude_set(ch.energy, root_k, g1, g3, g4, g2 / g3)


def amplitudes(spec: PotentialSpec, energy: float) -> AmplitudeSet:
    """Reflection/transmission amplitudes and coefficients at one energy.

    The left/right transmission amplitudes are one and the same
    expression; det S comes out as the closed-form G-ratio and is verified
    against tl*tr - rl*rr on every call.
    """
    return _amplitudes(channel_params(spec, energy))


def log10_coefficients(spec: PotentialSpec, energies) -> np.ndarray:
    """log10 of |r_l|^2, |r_r|^2, T and |det S| over an energy array.

    The array view of :func:`amplitudes`, returned as a (4, n) array in
    that row order.  Both read the same closed-form kernel, so every row
    equals ``amplitudes(spec, E)``'s ``log10_magnitude`` values bit for
    bit: +-inf where a pole order is non-zero (the exact zeros and poles
    of pole-snapped energies), and a det-S ``ArithmeticError`` at the
    first energy where :func:`amplitudes` raises.
    """
    validate(spec)
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or not (np.isfinite(e) & (e > 0.0)).all():
        raise ValueError("energies must be a 1-D array of finite positive values")
    k1 = np.sqrt(spec.mass * e)
    k2 = np.sqrt(spec.mass * (e + spec.v0))
    sign = 1.0 if spec.variant is Variant.FORWARD else -1.0
    ch = ChannelParams(e, k1, k2, sign * 2.0 * k1 / spec.rho, sign * 2.0 * k2 / spec.rho, spec.mass)
    _, _, order, logs = _checked_logs(ch)
    return np.where(order == 0, logs.real * _SQUARED / _LN10, np.where(order > 0, -np.inf, np.inf))


def det_s(spec: PotentialSpec, energy: float) -> SingularValue:
    """det S as the closed-form Gamma ratio (G2/G3, or its inverse when
    the stored channel parameters are the time-reversed ones)."""
    gf = g_factors(channel_params(spec, energy))
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
    return _amplitudes(_hermitian_channel(v0, delta, m, energy))
