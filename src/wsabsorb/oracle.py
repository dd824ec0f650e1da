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
fit against the local basis.

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
from .specfun import SERIES_Z_MAX, SingularValue, hyp2f1, hyp2f1_deriv
from .spectral import integer_distance
from .units import PotentialSpec, Variant, validate

__all__ = [
    "Launch",
    "ContourSolution",
    "FittedCoefficients",
    "ContourError",
    "integrate_contour",
    "fit_asymptotics",
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
    variant: Variant
    phi_eff: float
    a2: complex
    a3: complex
    rho: float


@dataclass(frozen=True)
class FittedCoefficients:
    """Coefficients of exp(+-i k2 xbar) fitted at the deep end."""

    c_plus: complex
    c_minus: complex
    condition_number: float


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
    pairs.  Returns (launch state, end state, mesh point count).
    """
    # imported here: scipy.integrate costs ~0.3 s, and only the oracle needs it
    from scipy.integrate import DOP853

    y0 = np.array([v for s in shapes for v in _local_state(s, a2, a3, u_top, phi)], dtype=complex)
    if np.abs(y0).max() > OVERFLOW_GUARD:
        raise ContourError(
            f"launch state magnitude {np.abs(y0).max():.3e} exceeds "
            f"the {OVERFLOW_GUARD:.0e} overflow guard; shrink the contour"
        )
    q_depth = a3 * a3 - a2 * a2
    swap = np.arange(y0.size) ^ 1  # (psi, dpsi) -> (dpsi, psi) per launch

    def rhs(u, y):
        z = 1.0 / (1.0 + cmath.exp(complex(u, phi)))
        dy = y[swap]
        dy[1::2] *= a2 * a2 + q_depth * z
        return dy

    solver = DOP853(rhs, u_top, y0, u_bot, rtol=DEFAULT_RTOL, atol=1e-250)
    points = 1
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise ContourError(f"integration stalled at u={solver.t:.6g}: {message}")
        points += 1
        if np.abs(solver.y).max() > OVERFLOW_GUARD:
            raise ContourError(
                f"|psi| exceeded the {OVERFLOW_GUARD:.0e} overflow guard at u={solver.t:.6g}"
            )
    return y0, solver.y, points


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
    shrinks as the channel parameters grow, keeping the fit conditioned.
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
        variant=spec.variant,
        phi_eff=phi_eff,
        a2=a2,
        a3=a3,
        rho=rho,
    )


def fit_asymptotics(sol: ContourSolution, k2: float) -> FittedCoefficients:
    """Decompose the endpoint state onto bare plane waves exp(+-i k2 xbar).

    Exact only where the potential is genuinely flat; the production
    extraction path uses the series-corrected basis instead (see
    oracle_g_factors).  The 2x2 system matches psi and d(psi)/d(zeta).
    """
    sign = -1.0 if sol.variant is Variant.TIME_REVERSED else 1.0
    # exp(+-i k2 xbar) on the contour, xbar = x0 - i zeta (conjugated for
    # the time-reversed potential)
    zeta = sol.zeta_end
    f_plus = cmath.exp(1j * k2 * sol.x0 * sign + k2 * zeta)
    f_minus = cmath.exp(-1j * k2 * sol.x0 * sign - k2 * zeta)
    M = np.array(
        [[f_plus, f_minus], [k2 * f_plus, -k2 * f_minus]], dtype=complex
    )
    cond = float(np.linalg.cond(M))
    if cond > CONDITION_LIMIT:
        raise ContourError(f"asymptotic fit ill-conditioned: cond={cond:.3e}")
    c = np.linalg.solve(M, np.array([sol.psi, sol.dpsi], dtype=complex))
    return FittedCoefficients(
        c_plus=complex(c[0]), c_minus=complex(c[1]), condition_number=cond
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


def _fit_local(sol: ContourSolution) -> FittedCoefficients:
    """Series-corrected endpoint fit in the scaled coordinate."""
    Y = np.array([sol.psi, sol.dpsi / sol.rho], dtype=complex)  # d/dzeta -> d/du
    u_bot = sol.rho * sol.zeta_end
    c, cond = _basis_coefficients(sol.a2, sol.a3, sol.phi_eff, u_bot, sol.variant, Y)
    return FittedCoefficients(complex(c[0]), complex(c[1]), cond)


def _fitted_g(a2, a3, phi, uh, variant) -> tuple[complex, complex, complex, complex]:
    """(G1, G2, G3, G4): local-basis fits of the PSI_ONE and PSI_TWO launches,
    integrated together from uh to -uh."""
    _, y_end, _ = _integrate_core(a2, a3, phi, _shapes(variant), uh, -uh)
    C, _ = _basis_coefficients(a2, a3, phi, -uh, variant, y_end.reshape(2, 2).T)
    return complex(C[0, 0]), complex(C[1, 0]), complex(C[0, 1]), complex(C[1, 1])


def _fitted_amplitudes(
    energy: float, k_ratio: float, g1: complex, g3: complex, g4: complex
) -> AmplitudeSet:
    """Amplitudes from fitted coefficients, with det S on this module's own
    route: t^2 - r_l r_r = (k1/k2 + G1 G4) / G3^2.  A coefficient the fit
    rounds to 0 is a finite value of magnitude 0 (log_magnitude -inf)."""
    det = (k_ratio + g1 * g4) / (g3 * g3)
    g1, g3, g4, det = (
        SingularValue.finite(-math.inf, 0.0) if w == 0 else SingularValue.from_complex(w)
        for w in (g1, g3, g4, det)
    )
    return _amplitude_set(energy, SingularValue.finite(0.5 * math.log(k_ratio), 0.0), g1, g3, g4, det)


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
    """The regular scattering solution evaluated through the 2F1 series."""
    ch = channel_params(spec, energy)
    a2, a3 = abs(ch.a2), abs(ch.a3)
    sign = -1.0 if spec.variant is Variant.TIME_REVERSED else 1.0
    w = cmath.exp(complex(spec.rho * zeta, sign * spec.rho * x))
    if abs(1.0 + w) < 1e-3 * (1.0 + abs(w)):
        raise ValueError(f"sample (x={x}, zeta={zeta}) too close to a potential pole")
    z = 1.0 / (1.0 + w)
    if abs(z) >= SERIES_Z_MAX:
        raise ValueError(f"series argument |z|={abs(z):.3f} outside domain at x={x}")
    omz = w * z
    log_omz = complex(spec.rho * zeta, sign * spec.rho * x) + cmath.log(z)
    pref = cmath.exp(a2 * cmath.log(z) + a3 * log_omz)
    return pref * hyp2f1(1 + a2 + a3, a2 + a3, 1 + 2 * a2, z)


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
