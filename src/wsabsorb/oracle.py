"""Independent verification by contour integration of the wave equation.

The complexified potential is asymptotically flat along the imaginary
shift, so scattering coefficients can be recovered by integrating the
wave equation down a constant-x contour and decomposing the endpoint
state into the two local plane-wave-normalized solutions.  Everything
here is Gamma-function-free: local solutions come from the hypergeometric
series (a direct power-series solution of the same ODE), one series pass
per fit for its two launches and its two-solution fit basis (a second where
a Hermitian fit falls back to a span, below), the middle
(if any) is bridged by high-order Taylor-series steps, and coefficients
come from 2x2 endpoint fits in closed form.  The bridge is the equation's
own Taylor recurrence (the high-order Taylor method of Jorba & Zou,
Experimental Mathematics 14, 2005): z(u) below obeys z' = z^2 - z, so z's
coefficients about a mesh point follow from a Cauchy product, and psi's
from one more.
Its mesh is read from the input alone, a fixed fraction of the distance to
z's nearest pole and of 1/max(|a2|, |a3|), so the series of all steps run
at once.  The wave equation is linear, so both launches of a fit ride the
same per-step transfer matrices and one fit against the local basis.

Numerical design: a bare plane-wave launch/fit at a deeply flat contour
depth is hopeless in double precision, because the subdominant
coefficient is buried under the dominant one by a factor that grows
exponentially with depth.  Launch and fit therefore happen at shallow
handoff points using series-corrected local solutions.  For growing
channel parameters (the complexified potential) the launch is at the
shallowest u where the top series' argument z and the bottom series'
argument 1 - z at -u both have modulus 1/2: u = log(sqrt(cos^2 phi + 3)
- cos phi).  On the default contour (x0 = 0) that is u = 0, where z =
1 - z = 1/2, so launch and fit meet at one point and no bridge runs; it
grows to log 3 as phi nears a pole line.  Oscillating parameters (the
Hermitian fit) meet at u = 0 too where their series hold the digits there:
the pass reports its rounding factor kappa, and where 8 eps kappa exceeds
SERIES_ROUNDING_BUDGET (at large |a2| + |a3|, where the oscillating terms
swell and cancel at modulus 1/2) the fit launches at u = 1.4 instead and
bridges, a span that costs it no conditioning.

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
from .specfun import _gauss_sums, _series_guard
from .spectral import integer_distance
from .units import PotentialSpec, Variant, _check_finite, _check_member, _check_positive

__all__ = [
    "Launch",
    "ContourSolution",
    "ContourError",
    "integrate_contour",
    "oracle_domain_ok",
    "oracle_g_factors",
    "oracle_amplitudes",
    "hermitian_oracle_amplitudes",
]

#: the bridge's accuracy target: its end states are held to an integrator
#: run at this relative tolerance (the tests' DOP853 reference)
DEFAULT_RTOL = 3e-14
#: the most series rounding (8 eps kappa, _local_states) a Hermitian fit takes
#: at u = 0 with no bridge; past it, it bridges from the 1.4 handoff.  Of the
#: order of the bridged fit's own worst measured miss (5.7e-13 at |a2| + |a3|
#: ~ 49) and 100x under the 1e-10 its tests hold the route to
SERIES_ROUNDING_BUDGET = 1e-12
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


def _local_states(shapes: tuple[str, ...], a2: complex, a3: complex, us, phi: float,
                  kappa: bool = False) -> tuple[np.ndarray, float | None]:
    """(psi, dpsi/du) of the Frobenius-normalized local solutions named by
    ``shapes``, each at its own u of ``us``, as rows of an array: one series
    pass (_gauss_sums) for all of them.  With ``kappa``, also the largest
    rounding factor kappa of that pass over the rows' F and dF/darg (each is
    within 8 eps kappa of its exact value), else None: the states are the
    same bits either way.

    The solutions are z^{+-a2} (1-z)^{+-a3} 2F1(...) with the (1-z)-power
    taken on the branch exp(a3 (u + i phi) + a3 Log z), which is analytic
    along the whole contour and reduces to the exact plane-wave
    normalization at the matching end; z, 1 - z and Log z are formed once
    per distinct u.  Each row's series goes through the package's one 2F1
    guard (specfun._series_guard: ValueError, PoleProximityError) and term
    cap (SeriesError); a row whose state overflows raises ContourError.
    """
    points = {}
    rows = []
    for shape, u in zip(shapes, us):
        sgn2, sgn3, params, arg_is_omz = _SHAPES[shape]
        al = sgn2 * a2
        be = sgn3 * a3
        try:
            if u not in points:
                w = cmath.exp(complex(u, phi))
                z = 1.0 / (1.0 + w)
                points[u] = z, w * z, cmath.log(z)  # 1 - z = w z, without cancellation
            z, omz, log_z = points[u]
            a, b, c = params(a2, a3)
            arg = omz if arg_is_omz else z
            _series_guard(a, b, c, arg)
            pref = cmath.exp(al * log_z + be * (complex(u, phi) + log_z))
        except OverflowError:
            raise ContourError(
                f"local solution {shape} overflows at u={u:.6g}; shrink the contour"
            ) from None
        darg_du = z * omz if arg_is_omz else -z * omz
        rows.append((a, b, c, arg, pref, -al * omz + be * z, darg_du))
    a, b, c, arg, pref, slope, darg_du = zip(*rows)
    F, dF, kappas = _gauss_sums(np.array((a, b, c))[:, :, None], np.array(arg)[:, None], kappa)
    states = np.array([(p * f, p * (s * f + df * d))
                       for p, s, d, f, df in zip(pref, slope, darg_du, F, dF)])
    return states, max(map(max, kappas)) if kappa else None


def _effective_phase(rho: float, x0: float) -> float:
    phi = math.remainder(rho * x0, 2.0 * math.pi)
    if abs(abs(phi) - math.pi) < POLE_PHASE_MARGIN:
        raise ValueError(
            f"contour at x0={x0} passes within {POLE_PHASE_MARGIN} rad of a "
            "potential pole line; shift x0"
        )
    return phi


def _handoff(a2: complex, a3: complex, phi: float) -> float:
    """Default launch u, the fit being at -u (module docstring): for a
    growing pair the u where |z(u)| = |1 - z(-u)| = 1/2, else 1.4, the
    bridged span of an oscillating pair whose series at u = 0 exceed the
    rounding budget."""
    c = math.cos(phi)
    return math.log(math.sqrt(c * c + 3.0) - c) if a2.real + a3.real > 0 else 1.4


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


# -- Taylor-series bridge ------------------------------------------------------

# A step spans at most _POLE_FRACTION of the distance from its start to z's
# nearest pole, u = i (+-pi - phi), and at most _GROWTH_STEP / max(|a2|, |a3|),
# so both the z series and psi's exponential growth contract by a fixed factor
# per order.  Its series is cut once the last two orders are below rounding;
# a chunk whose series has not reached that by _MAX_ORDER is redone with
# halved steps.  A chunk holds at most _CHUNK steps, which bounds the memory
# of a long contour.
_POLE_FRACTION = 0.2
_GROWTH_STEP = 0.5
_MAX_ORDER = 32
_CHUNK = 64
_ROUNDING = 2.0 ** -53
_ORDER = np.arange(_MAX_ORDER + 1)
# rows: sum of the scaled coefficients (the value at the step's end) and of
# k times them (h times the derivative there)
_SUMS = np.array([np.ones(_MAX_ORDER + 1), _ORDER])


def _taylor_coefficients(a2: complex, a3: complex, phi: float, u: np.ndarray, h: np.ndarray):
    """Scaled Taylor coefficients c_k h^k about each step start u, with h the
    step: array (steps, orders, 3) whose columns are the two solutions with
    (psi, h dpsi/du) = (1, 0) and (0, 1), and z (one order shorter).  The
    series is cut, checked every second order, once the last two orders of
    both solutions are below rounding on every step; None when that has not
    happened by order _MAX_ORDER.

    z' = z^2 - z and psi'' = (a2^2 + (a3^2 - a2^2) z) psi give

        (k + 1) z_{k+1} = h (sum_j z_j z_{k-j} - z_k),
        (k + 1)(k + 2) psi_{k+2} = h^2 (a2^2 psi_k + (a3^2 - a2^2) sum_j z_j psi_{k-j}),

    one order at a time for all steps and both solutions.
    """
    a2_sq, depth = a2 * a2, a3 * a3 - a2 * a2
    W = np.zeros((h.size, _MAX_ORDER + 1, 3), dtype=complex)
    W[:, 0, 0] = W[:, 1, 1] = 1.0
    z = W[:, None, :, 2]
    # each column's next order is rate[0, k] * sum_j z_j W_{k-j} + rate[1, k] * W_k,
    # order k + 2 of the solutions and k + 1 of z
    pair = 1.0 / (_ORDER[1:] * (_ORDER[1:] + 1))
    rate = np.empty((2, _MAX_ORDER, h.size, 3), dtype=complex)
    rate[0, :, :, :2] = np.outer(depth * pair, h * h)[:, :, None]
    rate[1, :, :, :2] = np.outer(a2_sq * pair, h * h)[:, :, None]
    rate[0, :, :, 2] = np.outer(1.0 / _ORDER[1:], h)
    rate[1, :, :, 2] = -rate[0, :, :, 2]
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging series is halved
        W[:, 0, 2] = 1.0 / (1.0 + np.exp(u + 1j * phi))
        for k in range(_MAX_ORDER - 1):
            new = rate[0, k] * np.matmul(z[..., :k + 1], W[:, k::-1])[:, 0] + rate[1, k] * W[:, k]
            W[:, k + 2, :2] = new[:, :2]
            W[:, k + 1, 2] = new[:, 2]
            if k % 2 and (k + 2) * np.abs(W[:, k + 1:k + 3, :2]).max() <= _ROUNDING:
                return W[:, :k + 3]
    return None


def _taylor_steps(a2: complex, a3: complex, phi: float, mesh: np.ndarray):
    """Transfer matrices of psi'' = q(u) psi across each step of ``mesh``:
    matrix i maps (psi, dpsi/du) at mesh[i] to mesh[i + 1], or None (see
    _taylor_coefficients).  dpsi advances by sum_k k psi_k / h, in which h
    only ever divides terms carrying h^2, and divides them componentwise: a
    complex divide by a subnormal h overflows."""
    h = np.diff(mesh)
    W = _taylor_coefficients(a2, a3, phi, mesh[:-1], h)
    if W is None:
        return None
    T = _SUMS[:, :W.shape[1]] @ W[:, :, :2]
    T[:, 0, 1] *= h
    T[:, 1, 0] = T[:, 1, 0].real / h + 1j * (T[:, 1, 0].imag / h)
    return T


def _bridge(a2: complex, a3: complex, phi: float, Y: np.ndarray, t: float, t_end: float):
    """Taylor-series steps of psi'' = q(u) psi from t to t_end for the (2, n)
    stacked states Y (rows psi and dpsi/du, one column per launch), with
    q(u) = a2^2 + (a3^2 - a2^2) z(u), z(u) = 1 / (1 + e^{i phi} e^u).

    The mesh is read from the input alone (see _POLE_FRACTION), and every
    launch rides the same transfer matrices.  Returns the end state and the
    mesh point count; raises ``ContourError`` when a step falls below 10 ulp
    of u or |psi| passes the overflow guard (a NaN state included).
    """
    if t == t_end:
        return Y, 1
    direction = 1.0 if t_end > t else -1.0
    amax = max(abs(a2), abs(a3))
    growth_step = _GROWTH_STEP / amax if amax else math.inf
    gap = math.pi - abs(phi)
    points = 1
    while direction * (t - t_end) < 0:
        scale = 1.0
        while True:
            mesh = [t]
            while len(mesh) <= _CHUNK and direction * (mesh[-1] - t_end) < 0:
                u = mesh[-1]
                h = scale * min(growth_step, _POLE_FRACTION * math.hypot(u, gap))
                if not h >= 10.0 * abs(math.nextafter(u, direction * math.inf) - u):
                    raise ContourError(
                        f"integration stalled at u={u:.6g}: step {h:.3g} is below 10 ulp of u"
                    )
                u_new = u + direction * h
                mesh.append(t_end if direction * (u_new - t_end) > 0 else u_new)
            T = _taylor_steps(a2, a3, phi, np.array(mesh))
            if T is not None:
                break
            scale *= 0.5
        states = np.empty((len(T), *Y.shape), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # the guard below reports it
            for i, step in enumerate(T):
                Y = states[i] = step @ Y
            over = ~(np.abs(states).max(axis=(1, 2)) <= OVERFLOW_GUARD)
        if over.any():
            u = mesh[1 + int(over.argmax())]
            raise ContourError(f"|psi| exceeded the {OVERFLOW_GUARD:.0e} overflow guard at u={u:.6g}")
        points += len(T)
        t = mesh[-1]
    return Y, points


def _integrate_core(a2: complex, a3: complex, phi: float, launch: np.ndarray, u_top: float, u_bot: float):
    """Carry the launches, rows (psi, dpsi/du) at u_top, to u_bot.

    The equation is linear and every launch sees the same q(u), so the
    launches ride one Taylor-series bridge of their stacked (psi, dpsi/du)
    pairs.  Returns (launch state, end state, mesh point count), the states
    laid out as (psi, dpsi/du) per launch.
    """
    y0 = launch.ravel()
    big = max(map(abs, y0.tolist()))
    if big > OVERFLOW_GUARD:
        raise ContourError(
            f"launch state magnitude {big:.3e} exceeds "
            f"the {OVERFLOW_GUARD:.0e} overflow guard; shrink the contour"
        )
    y_end, points = _bridge(a2, a3, phi, y0.reshape(-1, 2).T, u_top, u_bot)
    return y0, y_end.T.ravel(), points


def _shapes(variant: Variant) -> tuple[str, str]:
    """Local solutions the PSI_ONE and PSI_TWO launches start from.  The
    conjugated potential on the same contour is the forward core with
    opposite phase, so for the time-reversed variant the incoming/outgoing
    exponential roles swap."""
    return ("psi2", "psi1") if variant is Variant.TIME_REVERSED else ("psi1", "psi2")


def _contour_setup(spec: PotentialSpec, energy: float, x0: float, Z: float | None):
    """(a2, a3, phi_eff, handoff u) of the contour at x0, validated, and the
    channel they are read from."""
    _check_finite("x0", x0)
    if Z is not None:
        _check_positive("Z", Z)
    ch = channel_params(spec, energy)
    a2, a3 = abs(ch.a2), abs(ch.a3)
    if integer_distance(a2, a3) < CRITICAL_MARGIN:
        raise ValueError(
            f"energy {energy} is within {CRITICAL_MARGIN} of a critical "
            "integer condition; the contour oracle excludes those points"
        )
    phi = _effective_phase(spec.rho, x0)
    phi_eff = -phi if spec.variant is Variant.TIME_REVERSED else phi
    uh = spec.rho * Z if Z is not None else _handoff(a2, a3, phi)
    return complex(a2), complex(a3), phi_eff, uh, ch


def integrate_contour(
    spec: PotentialSpec,
    energy: float,
    launch: Launch,
    x0: float = 0.0,
    Z: float | None = None,
) -> ContourSolution:
    """Integrate the wave equation along the constant-x contour.

    The launch state is the exact local solution (series-corrected plane
    wave) at the top handoff point; by default that is the shallowest point
    where the top series and the fit's bottom series both converge at
    modulus 1/2, which on the default contour (x0 = 0) is zeta = 0, a
    contour of one point.
    Passing Z overrides the half-width (in zeta units).  The energy must
    sit away from every integer critical condition, where the local
    solution bases degenerate and amplitude limits are the closed-form
    module's job.  A launch that is not a :class:`Launch` raises ValueError.
    """
    _check_member("launch", launch, Launch)
    a2, a3, phi_eff, uh, _ = _contour_setup(spec, energy, x0, Z)
    rho = spec.rho
    shape = _shapes(spec.variant)[launch is Launch.PSI_TWO]
    start, _ = _local_states((shape,), a2, a3, (uh,), phi_eff)
    y_start, y_end, nsteps = _integrate_core(a2, a3, phi_eff, start, uh, -uh)
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


def _basis_coefficients(variant: Variant, Y: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients of the local solutions w+ and w-, whose (psi, dpsi/du)
    at the fit point are the rows of ``basis``, in the end states Y (rows
    psi, dpsi/du), as rows (c+, c-), and the fit's 2-norm condition number,
    both in closed form for the 2x2 basis matrix M: its singular values have
    squares summing to s = |M|_F^2 and product d = |det M|, and the solve is
    Cramer's rule."""
    (wp, dwp), (wm, dwm) = basis.tolist()
    det = wp * dwm - wm * dwp
    s, d = abs(wp) ** 2 + abs(wm) ** 2 + abs(dwp) ** 2 + abs(dwm) ** 2, abs(det)
    cond = (s + math.sqrt(max(s - 2 * d, 0.0) * (s + 2 * d))) / (2 * d) if d else math.inf
    if cond > CONDITION_LIMIT:
        raise ContourError(f"local-basis fit ill-conditioned: cond={cond:.3e}")
    C = np.array([[dwm, -wm], [-dwp, wp]]) @ Y / det
    # for the conjugated potential the fit basis roles swap
    return (C[::-1] if variant is Variant.TIME_REVERSED else C), cond


def _fitted_g(a2, a3, phi, handoffs, variant) -> tuple[complex, complex, complex, complex]:
    """(G1, G2, G3, G4): local-basis fits of the PSI_ONE and PSI_TWO launches,
    integrated together from uh to -uh.  One series pass gives the launch
    states at uh and the fit basis at -uh; uh is the first of ``handoffs``
    whose pass keeps its rounding bound 8 eps kappa within
    ``SERIES_ROUNDING_BUDGET``, else the last, whose pass computes no kappa
    (nor does the pass of a single handoff)."""
    shapes = _shapes(variant) + ("w_plus", "w_minus")
    for i, uh in enumerate(handoffs, 1):
        states, kappa = _local_states(shapes, a2, a3, (uh, uh, -uh, -uh), phi,
                                      kappa=i < len(handoffs))
        if kappa is None or 8.0 * _ROUNDING * kappa <= SERIES_ROUNDING_BUDGET:
            break
    _, y_end, _ = _integrate_core(a2, a3, phi, states[:2], uh, -uh)
    C, _ = _basis_coefficients(variant, y_end.reshape(2, 2).T, states[2:])
    (g1, g3), (g2, g4) = C.tolist()
    return g1, g2, g3, g4


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
    """Connection coefficients (G1, G2, G3, G4) of the spec's variant from
    two contour launches.

    No Gamma function enters: this is the independent numerical route to
    the same four constants the closed forms produce,
    ``g_factors(channel_params(spec, energy))``, whose time-reversed
    variant swaps G1 with G4 and G2 with G3.
    """
    a2, a3, phi, uh, _ = _contour_setup(spec, energy, x0, Z)
    return _fitted_g(a2, a3, phi, (uh,), spec.variant)


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
    a2, a3, phi, uh, ch = _contour_setup(spec, energy, x0, Z)
    g1, _, g3, g4 = _fitted_g(a2, a3, phi, (uh,), spec.variant)
    return _fitted_amplitudes(energy, ch.k1 / ch.k2, g1, g3, g4)


def hermitian_oracle_amplitudes(v0: float, delta: float, m: float, energy: float) -> AmplitudeSet:
    """Real-axis integration of the uncomplexified potential.

    The same two launches and local-basis fits with purely imaginary
    channel parameters; the contour coordinate becomes the real axis and
    the solutions oscillatory, so flux conservation (R + T = 1) is an
    end-to-end check.  The fit is at u = 0 with no bridge where its
    series' rounding bound there, 8 eps kappa, is within
    SERIES_ROUNDING_BUDGET, and otherwise bridges from the 1.4 handoff.
    """
    ch = _hermitian_channel(v0, delta, m, energy)
    g1, _, g3, g4 = _fitted_g(ch.a2, ch.a3, 0.0, (0.0, _handoff(ch.a2, ch.a3, 0.0)), Variant.FORWARD)
    return _fitted_amplitudes(energy, ch.k1 / ch.k2, g1, g3, g4)
