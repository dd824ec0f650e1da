"""Independent verification by contour integration of the wave equation.

The complexified potential is asymptotically flat along the imaginary
shift, so scattering coefficients can be recovered by integrating the
wave equation down a constant-x contour and decomposing the endpoint
state into the two local plane-wave-normalized solutions.  Everything
here is Gamma-function-free: local solutions come from the hypergeometric
series (a direct power-series solution of the same ODE), the middle is
bridged by an adaptive Runge-Kutta integrator, and coefficients come from
2x2 endpoint fits.  The wave equation is linear, so both launches of a fit
ride one integration of the linear system (their stacked states) and one
fit against the local basis.  The integrator is this module's own
Dormand-Prince 8(5,3) (DOP853) driver: linearity turns the 12 stages of a
step into one triangular solve.

Numerical design: a bare plane-wave launch/fit at a deeply flat contour
depth is hopeless in double precision, because the subdominant
coefficient is buried under the dominant one by a factor that grows
exponentially with depth.  Launch and fit therefore happen at shallow
handoff points using series-corrected local solutions, with the span
shrunk adaptively as the channel parameters grow; this keeps the
contamination of the buried coefficient near the integrator tolerance.

Everything is computed in the scaled contour coordinate u = rho * zeta,
where the wave equation reads

    d^2 psi / du^2 = [a2^2 + (a3^2 - a2^2) * z(u)] * psi,
    z(u) = 1 / (1 + e^{i phi} e^u),   phi = rho * x0  (mod 2 pi),

with a2, a3 the channel parameters.  The two ends carry exponents
+-a2 (top) and +-a3 (bottom).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .amplitudes import (
    AmplitudeSet,
    _amplitude_set,
    _hermitian_channel,
    channel_params,
    g_factors,
)
from .specfun import hyp2f1, hyp2f1_deriv
from .spectral import integer_distance
from .units import PotentialSpec, Variant, validate

__all__ = [
    "Launch",
    "ContourSolution",
    "ContourError",
    "integrate_contour",
    "oracle_domain_ok",
    "oracle_g_factors",
    "oracle_amplitudes",
    "hermitian_oracle_amplitudes",
    "wavefunction_residual",
]

#: Total exponential budget for the integration span: the handoff
#: half-width is min(1.4, U_BUDGET / (a2 + a3)), which caps the
#: dominant/subdominant dynamic range near e^(2*U_BUDGET).
U_BUDGET = 5.0

DEFAULT_RTOL = 3e-14
OVERFLOW_GUARD = 1e120
CONDITION_LIMIT = 1e8
CRITICAL_MARGIN = 1e-8
POLE_PHASE_MARGIN = 0.2

#: oracle_domain_ok bounds: a2 + a3, distance of the integer conditions from
#: an integer, and the amplitude dynamic range in decades
DOMAIN_MAX_SUM = 14.0
DOMAIN_MIN_DISTANCE = 0.05
DOMAIN_MAX_DECADES = 4.0


class Launch(Enum):
    """Which asymptotic solution is launched from the flat top end."""

    PSI_ONE = "psi_one"   # normalized to exp(-i k1 xbar) at the free end
    PSI_TWO = "psi_two"   # normalized to exp(+i k1 xbar)


class ContourError(RuntimeError):
    """Contour integration failed (stiffness, overflow, or conditioning)."""


@dataclass(frozen=True)
class ContourSolution:
    """Endpoint record of one contour integration.

    psi/dpsi are the integrated state at zeta_end; the launch state at
    zeta_start is kept for round-trip checks.  dpsi is d(psi)/d(zeta).
    """

    x0: float
    zeta_start: float
    zeta_end: float
    psi: complex
    dpsi: complex
    psi_start: complex
    dpsi_start: complex
    step_count: int
    launch: Launch


# -- local Frobenius solutions ------------------------------------------------

_SHAPES = {
    # shape: (alpha, beta, series params builder, series argument is 1-z)
    "psi1": (1, 1, lambda a2, a3: (1 + a2 + a3, a2 + a3, 1 + 2 * a2), False),
    "psi2": (-1, 1, lambda a2, a3: (1 - a2 + a3, -a2 + a3, 1 - 2 * a2), False),
    "w_plus": (1, 1, lambda a2, a3: (1 + a2 + a3, a2 + a3, 1 + 2 * a3), True),
    "w_minus": (1, -1, lambda a2, a3: (1 + a2 - a3, a2 - a3, 1 - 2 * a3), True),
}


def _local_state(shape: str, a2: complex, a3: complex, u: float, phi: float):
    """(psi, dpsi/du) of one Frobenius-normalized local solution.

    The solutions are z^{+-a2} (1-z)^{+-a3} 2F1(...) with the (1-z)-power
    taken on the branch exp(a3 (u + i phi) + a3 Log z), which is analytic
    along the whole contour and reduces to the exact plane-wave
    normalization at the matching end.
    """
    sgn2, sgn3, params, arg_is_omz = _SHAPES[shape]
    al = sgn2 * a2
    be = sgn3 * a3
    w = cmath.exp(complex(u, phi))
    z = 1.0 / (1.0 + w)
    omz = w * z  # 1 - z, computed without cancellation
    log_z = cmath.log(z)
    log_omz = complex(u, phi) + log_z
    a, b, c = params(a2, a3)
    arg = omz if arg_is_omz else z
    F = hyp2f1(a, b, c, arg)
    dF = hyp2f1_deriv(a, b, c, arg)
    darg_du = z * omz if arg_is_omz else -z * omz
    pref = cmath.exp(al * log_z + be * log_omz)
    psi = pref * F
    dpsi = pref * ((-al * omz + be * z) * F + dF * darg_du)
    return psi, dpsi


def _effective_phase(rho: float, x0: float) -> float:
    phi = math.remainder(rho * x0, 2.0 * math.pi)
    if abs(abs(phi) - math.pi) < POLE_PHASE_MARGIN:
        raise ValueError(
            f"contour at x0={x0} passes within {POLE_PHASE_MARGIN} rad of a "
            "potential pole line; shift x0"
        )
    return phi


def _handoff(a2: complex, a3: complex) -> float:
    growth = max(a2.real + a3.real, 0.0)  # exponential rates; 0 for imaginary a's
    return min(1.4, U_BUDGET / growth) if growth > 0 else 1.4


def oracle_domain_ok(spec: PotentialSpec, energy: float) -> bool:
    """Whether (spec, energy) sits in the oracle's full-accuracy domain.

    Shooting along the contour cannot resolve a connection coefficient
    buried more than the double-precision budget below its partner, and
    accuracy also degrades approaching the integer critical conditions
    where the coefficients themselves blow up.  This guard bounds the
    channel-parameter sum (conditioning), the distance to the critical
    integers, and the amplitude dynamic range in decades; outside it the
    closed forms and spacing laws are the authoritative route.
    """
    ch = channel_params(spec, energy)
    a2, a3 = abs(ch.a2), abs(ch.a3)
    if a2 + a3 > DOMAIN_MAX_SUM:
        return False
    if integer_distance(a2, a3) < DOMAIN_MIN_DISTANCE:
        return False
    gf = g_factors(ch)
    ln_cap = DOMAIN_MAX_DECADES * math.log(10.0)
    if abs(gf.g4.log_magnitude - gf.g3.log_magnitude) > ln_cap:
        return False
    if abs(gf.g1.log_magnitude - gf.g2.log_magnitude) > ln_cap:
        return False
    return True


# -- Dormand-Prince 8(5,3) bridge ---------------------------------------------

# The 12-stage DOP853 tableau of Hairer, Norsett & Wanner (Solving ODEs I,
# II.5): nodes C, the non-zero entries of A by row, weights B, and the
# fifth- and third-order error weights (without the dense-output stages;
# the FSAL 13th stage has weight 0 in both error estimates).
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
])
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
)
_A = np.array([[row.get(j, 0.0) for j in range(12)] for row in _A_ROWS])
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
_E3 = _B - np.array([0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
                     0.733846688281611857341361741547, 0, 0,
                     0.220588235294117647058823529412e-1])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
# psi'' = q psi as the system (psi, dpsi): stage i has the psi-slope
# P_i = dpsi + h (A Q)_i and the dpsi-slope Q_i = q_i (psi + h (A P)_i), so with
# A's row sums C the dpsi-slopes of all 12 stages solve one unit lower
# triangular system, (I - h^2 diag(q) A^2) Q = q (psi + h C dpsi).  The step
# and both error estimates are these rows applied to Q: the psi-part
# (through A) and the dpsi-part of B, E5 and E3.
_A2 = _A @ _A
_EYE = np.eye(12)
_W = np.array([_B @ _A, _B, _E5 @ _A, _E5, _E3 @ _A, _E3])
# scipy's step-size rules for DOP853 (error estimator of order 7)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
_ATOL = 1e-250


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def _bridge(a2: complex, a3: complex, phi: float, Y: np.ndarray, t: float, t_end: float):
    """DOP853 on psi'' = q(u) psi from t to t_end for the (2, n) stacked
    states Y (rows psi and dpsi/du, one column per launch), with
    q(u) = a2^2 + (a3^2 - a2^2) / (1 + e^{i phi} e^u).

    The step-size control is scipy's ``DOP853``: its initial-step rule, the
    RMS norm of the blended 5th/3rd-order error over all 2n components,
    safety 0.9, factor clamps 0.2 and 10, and no growth right after a
    rejection, so the accepted mesh is the same.  Returns the end state and
    the mesh point count; raises ``ContourError`` when the step falls below
    10 ulp of u or |psi| passes the overflow guard.
    """
    if t == t_end:
        return Y, 1
    a2_sq, q_depth, phase = a2 * a2, a3 * a3 - a2 * a2, cmath.exp(1j * phi)

    def q(u, du=0.0, scale=1.0):
        """scale * q(u + du), for a float u and a float or array du; scale
        multiplies each term, not the sum, which is the rounding the
        step's mesh was checked against scipy's with."""
        return scale * a2_sq + scale * q_depth / (1.0 + phase * math.exp(u) * np.exp(du))

    def slope(u, Y):
        return np.array([Y[1], q(u) * Y[0]])

    direction = 1.0 if t_end > t else -1.0
    span = abs(t_end - t)
    scale = _ATOL + np.abs(Y) * DEFAULT_RTOL
    f0 = slope(t, Y)
    d0, d1 = _rms(Y / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((slope(t + h0 * direction, Y + h0 * direction * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100.0 * h0, h1, span)

    abs_y = np.abs(Y)
    points = 1
    while direction * (t - t_end) < 0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step stalls too
                raise ContourError(
                    f"integration stalled at u={t:.6g}: step {h_abs:.3g} is below 10 ulp of u"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            hC = h * _C  # the stage offsets
            hq = q(t, hC, h)[:, None]  # h q at the stage nodes
            X = np.linalg.solve(_EYE - (h * hq) * _A2, hq * (Y[0] + hC[:, None] * Y[1]))
            S = _W @ X  # X = h Q, the h-scaled dpsi-slopes
            S[0] += Y[1]  # psi advances by h (B . psi-slopes) = h (dpsi + (B A) X)
            S[::2] *= h
            Y_new = Y + S[:2]
            abs_new = np.abs(Y_new)
            E = S[2:].reshape(2, 2, -1) / (_ATOL + np.maximum(abs_y, abs_new) * DEFAULT_RTOL)
            e5, e3 = np.vdot(E[0], E[0]).real, np.vdot(E[1], E[1]).real
            err = e5 / math.sqrt((e5 + 0.01 * e3) * Y.size) if e5 or e3 else 0.0
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        t, Y, abs_y = t_new, Y_new, abs_new
        points += 1
        if abs_y.max() > OVERFLOW_GUARD:
            raise ContourError(f"|psi| exceeded the {OVERFLOW_GUARD:.0e} overflow guard at u={t:.6g}")
    return Y, points


def _integrate_core(
    a2: complex,
    a3: complex,
    phi: float,
    shapes: tuple[str, ...],
    u_top: float,
    u_bot: float,
):
    """Carry the local solutions named by ``shapes`` from u_top to u_bot.

    The equation is linear and every launch sees the same q(u), so the
    launches ride one DOP853 integration of their stacked (psi, dpsi/du)
    pairs.  Returns (launch state, end state, mesh point count), the
    states laid out as (psi, dpsi/du) per launch.
    """
    y0 = np.array([v for s in shapes for v in _local_state(s, a2, a3, u_top, phi)], dtype=complex)
    if np.abs(y0).max() > OVERFLOW_GUARD:
        raise ContourError(
            f"launch state magnitude {np.abs(y0).max():.3e} exceeds "
            f"the {OVERFLOW_GUARD:.0e} overflow guard; shrink the contour"
        )
    y_end, points = _bridge(a2, a3, phi, y0.reshape(-1, 2).T, u_top, u_bot)
    return y0, y_end.T.ravel(), points


def _shapes(variant: Variant, launches=(Launch.PSI_ONE, Launch.PSI_TWO)) -> tuple[str, ...]:
    """Local solution each launch starts from.  The conjugated potential on
    the same contour is the forward core with opposite phase, so for the
    time-reversed variant the incoming/outgoing exponential roles swap."""
    order = ("psi2", "psi1") if variant is Variant.TIME_REVERSED else ("psi1", "psi2")
    return tuple(order[launch is Launch.PSI_TWO] for launch in launches)


def _contour_setup(spec: PotentialSpec, energy: float, x0: float, Z: float | None):
    """(a2, a3, phi_eff, handoff u) of the contour at x0, validated."""
    validate(spec)
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    if Z is not None and not (math.isfinite(Z) and Z > 0.0):
        raise ValueError(f"Z must be finite and positive, got {Z!r}")
    ch = channel_params(spec, energy)
    a2, a3 = abs(ch.a2), abs(ch.a3)
    if integer_distance(a2, a3) < CRITICAL_MARGIN:
        raise ValueError(
            f"energy {energy} is within {CRITICAL_MARGIN} of a critical "
            "integer condition; the contour oracle excludes those points"
        )
    phi = _effective_phase(spec.rho, x0)
    phi_eff = -phi if spec.variant is Variant.TIME_REVERSED else phi
    uh = spec.rho * Z if Z is not None else _handoff(a2, a3)
    return complex(a2), complex(a3), phi_eff, uh


def integrate_contour(
    spec: PotentialSpec,
    energy: float,
    launch: Launch,
    x0: float = 0.0,
    Z: float | None = None,
) -> ContourSolution:
    """Integrate the wave equation along the constant-x contour.

    The launch state is the exact local solution (series-corrected plane
    wave) at the top handoff point; by default the handoff half-width
    shrinks as the channel parameters grow, keeping the oracle's local-basis
    fit conditioned.
    Passing Z overrides the half-width (in zeta units).  The energy must
    sit away from every integer critical condition, where the local
    solution bases degenerate and amplitude limits are the closed-form
    module's job.
    """
    a2, a3, phi_eff, uh = _contour_setup(spec, energy, x0, Z)
    rho = spec.rho
    shapes = _shapes(spec.variant, (launch,))
    y_start, y_end, nsteps = _integrate_core(a2, a3, phi_eff, shapes, uh, -uh)
    return ContourSolution(
        x0=x0,
        zeta_start=uh / rho,
        zeta_end=-uh / rho,
        psi=complex(y_end[0]),
        dpsi=complex(y_end[1]) * rho,  # d/du -> d/dzeta
        psi_start=complex(y_start[0]),
        dpsi_start=complex(y_start[1]) * rho,
        step_count=int(nsteps),
        launch=launch,
    )


def _basis_coefficients(a2, a3, phi, u_bot, variant, Y) -> tuple[np.ndarray, float]:
    """Coefficients of the local solutions w+ and w- in the end states Y
    (rows psi, dpsi/du), as rows (c+, c-), and the fit's condition number."""
    wp, dwp = _local_state("w_plus", a2, a3, u_bot, phi)
    wm, dwm = _local_state("w_minus", a2, a3, u_bot, phi)
    M = np.array([[wp, wm], [dwp, dwm]], dtype=complex)
    cond = float(np.linalg.cond(M))
    if cond > CONDITION_LIMIT:
        raise ContourError(f"local-basis fit ill-conditioned: cond={cond:.3e}")
    C = np.linalg.solve(M, Y)
    # for the conjugated potential the fit basis roles swap
    return (C[::-1] if variant is Variant.TIME_REVERSED else C), cond


def _fitted_g(a2, a3, phi, uh, variant) -> tuple[complex, complex, complex, complex]:
    """(G1, G2, G3, G4): local-basis fits of the PSI_ONE and PSI_TWO launches,
    integrated together from uh to -uh."""
    _, y_end, _ = _integrate_core(a2, a3, phi, _shapes(variant), uh, -uh)
    C, _ = _basis_coefficients(a2, a3, phi, -uh, variant, y_end.reshape(2, 2).T)
    return complex(C[0, 0]), complex(C[1, 0]), complex(C[0, 1]), complex(C[1, 1])


def _fitted_amplitudes(
    energy: float, k_ratio: float, g1: complex, g3: complex, g4: complex
) -> AmplitudeSet:
    """Amplitudes from fitted coefficients through the closed form's one
    assembly, with det S on this module's own route: t^2 - r_l r_r =
    (k1/k2 + G1 G4) / G3^2, fed in as the G2 row (k1/k2 + G1 G4) / G3.  A
    coefficient the fit rounds to 0 is a finite value of magnitude 0
    (log_magnitude -inf)."""
    rows = (g1, (k_ratio + g1 * g4) / g3, g3, g4)
    lg = [complex(math.log(abs(w)), cmath.phase(w)) if w else complex(-math.inf, 0.0) for w in rows]
    lg.append(0.5 * math.log(k_ratio))
    return _amplitude_set(energy, np.zeros((5, 1), dtype=int), np.array(lg)[:, None])


def oracle_g_factors(
    spec: PotentialSpec,
    energy: float,
    x0: float = 0.0,
    Z: float | None = None,
) -> tuple[complex, complex, complex, complex]:
    """Connection coefficients (G1, G2, G3, G4) from two contour launches.

    No Gamma function enters: this is the independent numerical route to
    the same four constants the closed forms produce.
    """
    forward = PotentialSpec(spec.v0, spec.rho, spec.mass, spec.zeta, Variant.FORWARD)
    return _fitted_g(*_contour_setup(forward, energy, x0, Z), Variant.FORWARD)


def oracle_amplitudes(
    spec: PotentialSpec,
    energy: float,
    x0: float = 0.0,
    Z: float | None = None,
) -> AmplitudeSet:
    """Scattering amplitudes reconstructed from two contour launches.

    r_l = c-(psi2)/c+(psi2), t = sqrt(k1/k2)/c+(psi2),
    r_r = -c+(psi1)/c+(psi2); the time-reversed variant integrates the
    conjugated potential.
    """
    g1, _, g3, g4 = _fitted_g(*_contour_setup(spec, energy, x0, Z), spec.variant)
    ch = channel_params(spec, energy)
    return _fitted_amplitudes(energy, ch.k1 / ch.k2, g1, g3, g4)


def hermitian_oracle_amplitudes(v0: float, delta: float, m: float, energy: float) -> AmplitudeSet:
    """Real-axis integration of the uncomplexified potential.

    The same two launches and local-basis fits with purely imaginary
    channel parameters; the contour coordinate becomes the real axis and
    the solutions oscillatory, so flux conservation (R + T = 1) is an
    end-to-end check.
    """
    ch = _hermitian_channel(v0, delta, m, energy)
    g1, _, g3, g4 = _fitted_g(ch.a2, ch.a3, 0.0, _handoff(ch.a2, ch.a3), Variant.FORWARD)
    return _fitted_amplitudes(energy, ch.k1 / ch.k2, g1, g3, g4)


# -- wavefunction residual -----------------------------------------------------


def local_wavefunction(spec: PotentialSpec, energy: float, x: float, zeta: float) -> complex:
    """The regular scattering solution at x - i zeta: the local solution psi1
    (the forward oracle's PSI_ONE launch), evaluated through the 2F1 series."""
    ch = channel_params(spec, energy)
    sign = -1.0 if spec.variant is Variant.TIME_REVERSED else 1.0
    u, phi = spec.rho * zeta, sign * spec.rho * x
    w = cmath.exp(complex(u, phi))
    if abs(1.0 + w) < 1e-3 * (1.0 + abs(w)):
        raise ValueError(f"sample (x={x}, zeta={zeta}) too close to a potential pole")
    return _local_state("psi1", abs(ch.a2), abs(ch.a3), u, phi)[0]


def wavefunction_residual(
    spec: PotentialSpec,
    energy: float,
    sample_points,
    step: float = 1e-3,
) -> float:
    """Wave-equation residual of the series wavefunction.

    Five-point finite-difference second derivative in x at each sample
    point, normalized by the largest |psi| over the stencil set.  Checks
    that the 2F1-built solution satisfies the governing equation without
    any Gamma-function input.
    """
    validate(spec)
    if energy <= 0:
        raise ValueError("energy must be positive")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    mu = 4.0 * spec.mass
    sign = -1.0 if spec.variant is Variant.TIME_REVERSED else 1.0
    worst = 0.0
    largest = 0.0
    for x, zeta in sample_points:
        stencil = [
            local_wavefunction(spec, energy, x + j * step, zeta) for j in (-2, -1, 0, 1, 2)
        ]
        largest = max(largest, max(abs(v) for v in stencil))
        d2 = (
            -stencil[0] + 16 * stencil[1] - 30 * stencil[2] + 16 * stencil[3] - stencil[4]
        ) / (12.0 * step * step)
        w = cmath.exp(complex(spec.rho * zeta, sign * spec.rho * x))
        v_pot = -spec.v0 / (1.0 + w)
        worst = max(worst, abs(d2 + mu * (energy - v_pot) * stencil[2]))
    if largest == 0.0:
        raise ValueError("all samples vanished; cannot normalize residual")
    return worst / largest
