"""Channel parameters, connection coefficients, and scattering amplitudes.

The four connection coefficients G1..G4 are Gamma-function ratios in the
channel parameters (a2, a3).  Reflection/transmission amplitudes are
ratios of those, so at critical energies where individual Gamma factors
hit poles the amplitudes are finite limits, exact zeros, or poles.  One
kernel evaluates the closed form over an array of energies: each Gamma
argument that snaps to a pole carries an integer order and its residue,
normalized to the energy offset from the critical point (pole-cancellation
limits are taken analytically via Gamma residues, never by nudging the
energy), and det S is cross-checked at every energy.  One function,
:func:`_amplitude_logs`, forms r_l, r_r, t and det S from G-factor rows for
every route: the kernel, the scalar functions (which read the kernel's
one-energy column as :class:`SingularValue` values) and the contour oracle.
One more, :func:`_row_bounds`, gives ``spectral``'s range certification the
kernel's rows at the ends of grid cells together with lines that bound them
in between, from psi at the Gamma arguments, so that every error term of
the kernel (the det-S tolerance, the rounding limit and the margins of
those lines) is stated in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import TAU_INT, SingularValue, _digamma, gamma_logs
from .units import PotentialSpec, Variant, _check_entries, _check_finite, _check_positive

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
    amplitude level.  k1 and k2 stay positive.  ``gap`` is a3 - a2, and the
    Gamma arguments read a2 and gap, never a3.  The constructors from a
    potential form gap from v0 without cancellation (a2 and a3 agree to
    ever more digits as the energy grows); left out, it is the float
    difference of the given a2 and a3.
    """

    energy: float
    k1: float
    k2: float
    a2: complex
    a3: complex
    mass: float
    gap: complex | None = None

    def __post_init__(self):
        if self.gap is None:
            object.__setattr__(self, "gap", self.a3 - self.a2)

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


def _channel_terms(spec: PotentialSpec, energy):
    """k1, k2, a2 and the gap a3 - a2, unsigned, at a float energy or an
    array.  The gap is formed from v0, since k2 - k1 = mass v0 / (k1 + k2),
    so it does not cancel; every Gamma argument is c*a2 + c'*gap + c0."""
    sqrt = np.sqrt if isinstance(energy, np.ndarray) else math.sqrt
    k1 = sqrt(spec.mass * energy)
    k2 = sqrt(spec.mass * (energy + spec.v0))
    return k1, k2, 2.0 * k1 / spec.rho, 2.0 * spec.mass * spec.v0 / spec.rho / (k1 + k2)


def _channel(spec: PotentialSpec, energy) -> ChannelParams:
    """k1, k2 and the variant-signed a2, a3, gap at a float energy or an array."""
    k1, k2, a2, gap = _channel_terms(spec, energy)
    sign = 1.0 if spec.variant is Variant.FORWARD else -1.0
    return ChannelParams(energy, k1, k2, sign * a2, sign * 2.0 * k2 / spec.rho, spec.mass, sign * gap)


def channel_params(spec: PotentialSpec, energy: float) -> ChannelParams:
    """Wavenumbers and channel parameters at a positive energy."""
    _check_positive("energy", energy)
    return _channel(spec, float(energy))


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
# the arguments in a2 and the gap a3 - a2, so that none subtracts a2 from a3
_Z2 = _C2 + _C3
_G_ROWS = np.array([[_G_ARGS.index(arg) for arg in numer + denom] for numer, denom in _G_TABLE]).T
# r_l, -r_r, t and det S are G4, G1, sqrt(k1/k2) and G2 over G3; their log10
# coefficients |r_l|^2, |r_r|^2, T and |det S| take the squares of the first three
_AMP_ROWS = np.array([3, 0, 4, 1])
_SQUARED = np.array([[2.0], [2.0], [2.0], [1.0]])
_LN10 = math.log(10.0)
_EPS = float(np.finfo(float).eps)
# largest log-Gamma rounding (relative, on det S) the cross-check admits
_ROUNDING_LIMIT = 1e-6
# a grid sample that _row_bounds' lines decide clears the threshold by _MARGIN
# decades besides its arguments' rounding, and the slope bound widens by
# _SLOPE_SLACK of its terms' sizes, far above the error of psi (16 eps of
# max(1, |psi|))
_MARGIN = 1e-5
_SLOPE_SLACK = 1e-9


def _arguments(ch: ChannelParams) -> np.ndarray:
    """The 12 distinct Gamma arguments, (12, n), at the energies of ``ch``."""
    return _Z2 * ch.a2 + _C3 * ch.gap + _C0


def _arg_slopes(ch: ChannelParams) -> np.ndarray:
    """dz/dE of the 12 Gamma arguments, (12, n), at the energies of ``ch``.

    a2 and a3 enter each argument with one sign, or as the gap a3 - a2,
    whose slope is formed from the gap itself, -gap m / (2 k1 k2), so that
    no slope subtracts two nearly equal ones."""
    dgap = -ch.gap * ch.mass / (2.0 * ch.k1 * ch.k2)
    return np.where(_Z2 == 0.0, _C3 * dgap, _C2 * ch.da2_denergy + _C3 * ch.da3_denergy)


def _g_orders(pole: np.ndarray) -> np.ndarray:
    """The pole orders of G1..G4 and sqrt(k1/k2), (5, n), from a (12, n)
    mask of the Gamma arguments that sit on a pole: each G's denominator
    poles less its numerator's, and 0.  The kernel's mask is its snapped
    arguments; the condition table's (``spectral``) is the exact pole count
    on a condition's line."""
    p1, p2, q1, q2 = pole[_G_ROWS].astype(int)
    return np.vstack([q1 + q2 - p1 - p2, np.zeros_like(p1)])


def _g_logs(ch: ChannelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pole orders and complex logs of G1..G4 and sqrt(k1/k2), as (5, n)
    arrays, and the sum of |Re log Gamma| over the 12 arguments, as (n,).

    The fields of ``ch`` hold one energy or n of them.  One
    :func:`~wsabsorb.specfun.gamma_logs` call covers the 12 distinct Gamma
    arguments: real ones for both variants of the complexified potential,
    imaginary ones for the Hermitian potential.  An argument that snaps to
    a pole is a pole of order 1 whose residue (-1)^k / k! is divided here
    by the argument's energy derivative (:func:`_arg_slopes`), so that
    coefficients of different Gamma factors combine in a common limit
    variable (the offset from the critical energy).  The sum sizes the
    rounding of the logs.  Callers silence numpy's floating-point warnings.
    """
    z = _arguments(ch)
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"non-finite argument {complex(z[~finite][0])!r}")
    pole, lg = gamma_logs(z)
    size = np.abs(lg.real).sum(axis=0)
    order = np.zeros((5, z.shape[1]), dtype=int)
    if pole.any():
        dz = _arg_slopes(ch)[pole] + 0j
        dz[dz == 0] = 1.0  # stationary argument; leave the residue unscaled
        lg[pole] -= np.log(dz)
        order = _g_orders(pole)
    n1, n2, d1, d2 = lg[_G_ROWS]
    # 0.5 * math.log, one energy at a time: the row keeps libm's bits, which
    # tests/test_amplitudes.py pins at one energy and at 2000
    root_k = 0.5 * np.fromiter(map(math.log, np.ravel(ch.k1 / ch.k2).tolist()), float)
    return order, np.concatenate([n1 + n2 - d1 - d2, root_k[None]]), size


def _amplitude_logs(order: np.ndarray, lg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one assembly of amplitudes from connection coefficients.

    Takes the (5, n) pole orders and complex logs of G1..G4 and sqrt(k1/k2),
    whichever route produced them, and returns those of r_l = G4/G3,
    -r_r = G1/G3, t = sqrt(k1/k2)/G3 and det S = G2/G3 as (4, n) arrays.
    """
    return order[_AMP_ROWS] - order[2], lg[_AMP_ROWS] - lg[2]


def _log10_weights() -> np.ndarray:
    """How each row of :func:`log10_coefficients` reads the logs of the 12
    Gamma arguments and of sqrt(k1/k2), as (4, 13): the kernel's own
    assembly, ``_G_ROWS`` through :func:`_amplitude_logs`, run on unit rows."""
    unit = np.eye(len(_G_ARGS) + 1)
    n1, n2, d1, d2 = unit[:-1][_G_ROWS]
    g = np.concatenate([n1 + n2 - d1 - d2, unit[-1:]])
    return _amplitude_logs(np.zeros(g.shape, dtype=int), g)[1] * _SQUARED / _LN10


_LOG10_WEIGHTS = _log10_weights()


def _log10_rows(order: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """log10 of |r_l|^2, |r_r|^2, T and |det S| from the (4, n) orders and
    logs of r_l, -r_r, t and det S: +-inf where an order is non-zero."""
    return np.where(order == 0, logs.real * _SQUARED / _LN10, np.where(order > 0, -np.inf, np.inf))


def _row_bounds(spec: PotentialSpec, rows: list[int], energies: np.ndarray):
    """Lines that bound the ``rows`` of :func:`log10_coefficients` between
    consecutive energies of each row of a (brackets, ends) array, for real
    Gamma arguments (both variants of the complexified potential), from
    one :func:`_checked_logs` pass that also gives psi at the arguments.

    Each log's slope is d/dE log|Gamma(z)| = psi(z) dz/dE over the 12 Gamma
    arguments z, with dz/dE the :func:`_arg_slopes` that :func:`_g_logs`
    scales residues by, and d/dE log sqrt(k1/k2) = v0 / (4 E (E + v0));
    ``_LOG10_WEIGHTS`` sums them into each row's.  On E > 0 every z and
    every factor is monotone in E between the poles of psi: a2, a3 and
    a2 + a3 rise with falling slopes, and the gap a3 - a2 falls with a slope
    rising toward 0.  So between two consecutive energies, a cell, where no
    argument that a row reads comes within 2 ``TAU_INT`` of a non-positive
    integer, each term w psi(z) dz/dE of the row's slope lies between the
    products of its end values, and their sum, widened by ``_SLOPE_SLACK``
    of its terms' sizes, bounds the slope in [lo, hi] (interval arithmetic,
    as in Moore's).  With q_a and q_b the row's values at the cell's ends,
    the row at an energy E between them is at least lower(E) = max(q_a + lo
    (E - E_a), q_b - hi (E_b - E)) and at most upper(E) = min(q_a + hi (E -
    E_a), q_b - lo (E_b - E)), up to delta: ``_MARGIN`` plus 8 eps sum |w psi| (|z| + 1), the
    argument rounding that psi amplifies, at either end and at E.  The
    bounds do not hold on a cell with an infinite end value, and are not
    used where either end's log-Gamma rounding (:func:`_det_s_checks`)
    reaches half ``_ROUNDING_LIMIT``, so that the energies the kernel
    cannot check are evaluated.

    Returns the rows at the energies, bit for bit those of
    :func:`log10_coefficients` (which also validates the energies), as
    (rows, brackets, ends), whether each cell's bounds hold (brackets,
    cells), and each cell's lo, hi and delta (rows, brackets, cells).
    """
    ch = _channel(spec, energies.ravel())
    _, _, order, logs, lg_rounding = _checked_logs(ch)
    with np.errstate(all="ignore"):  # psi is infinite at a pole
        z = _arguments(ch)
        psi = _digamma(z)
    root = spec.v0 / (4.0 * ch.energy * (ch.energy + spec.v0))
    values, z, psi, dz, lg_rounding = (
        x.reshape(x.shape[:-1] + energies.shape)
        for x in (_log10_rows(order, logs), z, np.vstack([psi, np.ones_like(root)]),
                  np.vstack([_arg_slopes(ch), root]), lg_rounding))
    q = values[rows]

    # per row, argument (the 12 and sqrt(k1/k2)'s log) and cell
    w = _LOG10_WEIGHTS[rows][:, :, None, None]
    reads = w != 0.0
    a, b = np.s_[..., :-1], np.s_[..., 1:]  # each cell's two ends
    with np.errstate(invalid="ignore", over="ignore"):  # psi is infinite at a pole
        products = np.stack([psi[a] * dz[a], psi[a] * dz[b], psi[b] * dz[a], psi[b] * dz[b]])
        low, high = w * products.min(axis=0), w * products.max(axis=0)
        psi_max = np.maximum(abs(psi[a]), abs(psi[b]))
        slack = np.where(reads, abs(w) * (psi_max + 1.0) * np.maximum(abs(dz[a]), abs(dz[b])), 0.0)
        slack = _SLOPE_SLACK * slack.sum(axis=1)
        lo = np.where(reads, np.minimum(low, high), 0.0).sum(axis=1) - slack
        hi = np.where(reads, np.maximum(low, high), 0.0).sum(axis=1) + slack
        z_lo, z_hi = np.minimum(z[a], z[b]) - 2.0 * TAU_INT, np.maximum(z[a], z[b]) + 2.0 * TAU_INT
        rounding = abs(w[:, :-1]) * psi_max[:-1] * (np.maximum(abs(z_lo), abs(z_hi)) + 1.0)
        delta = _MARGIN + 8.0 * _EPS * np.where(reads[:, :-1], rounding, 0.0).sum(axis=1)
    near_pole = np.ceil(z_lo) <= np.minimum(np.floor(z_hi), 0.0)
    holds = ~near_pole[reads[:, :-1, 0, 0].any(axis=0)].any(axis=0)
    holds &= np.isfinite(q[a]).all(axis=0) & np.isfinite(q[b]).all(axis=0)
    checkable = lg_rounding < 0.5 * _ROUNDING_LIMIT
    holds &= checkable[a] & checkable[b]
    return q, holds, lo, hi, delta


def _det_s_checks(ch: ChannelParams) -> tuple:
    """:func:`_g_logs`, then the orders and logs of r_l, -r_r, t and det S
    by :func:`_amplitude_logs`, with tl*tr - rl*rr checked against the
    closed-form det S = G2/G3 at every energy; returns both pairs of
    orders and logs, each energy's log-Gamma rounding 8 eps sum |Re log
    Gamma|, (n,), and the refusals: each energy that fails, in the order
    of the call, mapped to its record: the energy, its rounding, rel diff
    and cancellation (natural log), and the orders of the sum and of det S.
    A record holds the arguments of :func:`_det_s_error`, which builds the
    ``ArithmeticError`` that names the energy only for a refusal that a
    caller raises.

    The difference can cancel arbitrarily many digits (the Gamma identity
    makes the two products nearly equal wherever |det S| is small), so the
    tolerance scales with the observed cancellation; where the closed form
    is an exact zero of higher order than the float difference can
    resolve, only the cancellation depth is asserted.  Leading coefficients
    that cancel exactly leave no digits to compare.  The tolerance also
    admits the rounding of large log-Gamma values, and an energy where that
    rounding passes ``_ROUNDING_LIMIT`` fails outright.  Nothing here
    raises: :func:`_checked_logs` raises the first refusal for the callers
    that read every energy they ask for.  A call where no energy has a
    non-zero order skips the order branches and the Laurent allowance,
    which would keep the equal-order values at every energy: each energy's
    result is the same either way.
    """
    with np.errstate(all="ignore"):
        order, lg, size = _g_logs(ch)
        amp_order, amp = _amplitude_logs(order, lg)
        (o_rl, o_rr, o_t, o_det), (rl, rr, t, det) = amp_order, amp
        # det S = t^2 + m with m = -r_l r_r
        t2, m = 2.0 * t, rl + rr
        big = np.maximum(t2.real, m.real)
        e_t2, e_m = np.exp(t2 - big), np.exp(m - big)
        w = e_t2 + e_m
        # the order branches only where an energy has a non-zero order: with
        # none, every sum is of equal orders and o_sum is o_det
        singular = amp_order.any()
        if singular:
            o_t2, o_m = 2 * o_t, o_rl + o_rr
            equal = o_t2 == o_m
            o_sum = np.minimum(o_t2, o_m)
            log_sum = np.where(equal, big + np.log(w), np.where(o_t2 < o_m, t2, m))
            cancel = np.where(equal, big - log_sum.real, 0.0)
        else:
            equal, o_sum = True, o_det
            log_sum = big + np.log(w)
            cancel = big - log_sum.real
        rel = np.abs(np.exp(log_sum - det) - 1.0)
        tol = 1e-8 * np.maximum(1.0, np.exp(np.minimum(200.0, cancel)))
        if singular:
            # at a snapped critical point the finite cofactors sit up to the snap
            # tolerance away from the exact pole, so the two leading coefficients
            # differ by the subleading Laurent term, bounded by TAU_INT times the
            # digamma scale of the dozen Gamma factors
            tol += 300.0 * TAU_INT * (o_det != 0)
        # each log Gamma carries about eps |log Gamma| of rounding, which
        # outgrows the 1e-8 floor once the arguments reach about 1e6; past
        # _ROUNDING_LIMIT the check (and the logs) no longer hold the digits
        rounding = 8.0 * _EPS * size
        tol += rounding
        # equal orders compare coefficients; an exact higher-order zero of the
        # closed form needs 9 cancelled digits; a more singular sum always fails
        fail = (np.where(o_sum == o_det, rel > tol, (o_det < o_sum) | (cancel < 9.0 * _LN10))
                if singular else rel > tol)
        if fail.any():  # except where the leading coefficients cancel exactly
            fail &= ~(equal & (np.abs(w) < 4e-16 * (np.abs(e_t2) + np.abs(e_m))))
        fail |= rounding > _ROUNDING_LIMIT
    refused = {}
    if fail.any():
        at = np.flatnonzero(fail)
        numbers = zip(*(x[at].tolist() for x in (np.ravel(ch.energy), rounding, rel, cancel, o_sum, o_det)))
        refused = {n[0]: n for n in numbers}
    return order, lg, amp_order, amp, rounding, refused


def _det_s_error(energy: float, rounding, rel, cancel, o_sum, o_det) -> ArithmeticError:
    """The ``ArithmeticError`` that names a refused energy, from the numbers
    that :func:`_det_s_checks` records for it."""
    if rounding > _ROUNDING_LIMIT:
        what, detail = "cannot be checked", f"log-Gamma rounding {rounding:.3e} exceeds {_ROUNDING_LIMIT:g}"
    elif o_sum == o_det:
        what, detail = "cross-check failed", f"rel diff {rel:.3e}"
    elif o_det > o_sum:
        what, detail = "zero not reproduced", f"only {cancel / _LN10:.1f} digits cancelled"
    else:
        what, detail = "more singular via the sum route", f"orders {o_sum} vs {o_det}"
    return ArithmeticError(f"det S {what} at E={energy}: {detail}")


def _checked_logs(ch: ChannelParams) -> list[np.ndarray]:
    """:func:`_det_s_checks` for a caller that reads every energy it asks
    for: raises the first refused energy's ``ArithmeticError``, else
    returns both pairs of orders and logs and each energy's rounding."""
    *logs, refused = _det_s_checks(ch)
    if refused:
        raise _det_s_error(*next(iter(refused.values())))
    return logs


def _column(order: np.ndarray, lg: np.ndarray) -> list[SingularValue]:
    """The rows of a kernel call at its first energy, as SingularValues."""
    return [SingularValue(o, w.real, w.imag) for o, w in zip(order[:, 0].tolist(), lg[:, 0].tolist())]


def g_factors(ch: ChannelParams) -> GFactors:
    """The four connection coefficients, assembled in log space."""
    with np.errstate(all="ignore"):
        order, lg, _ = _g_logs(ch)
        return GFactors(*_column(order, lg)[:4])


def _amplitude_set(energy: float, order: np.ndarray, lg: np.ndarray) -> AmplitudeSet:
    """An AmplitudeSet from the G1..G4 and sqrt(k1/k2) rows of one energy,
    through :func:`_amplitude_logs`.  Each row's phase is folded into
    [-pi, pi] first, as a :class:`SingularValue` folds it, so that each
    quotient's phase is the one SingularValue division gives: a phase of
    2 pi over one of pi gives -pi, not pi."""
    folded = np.array([complex(w.real, math.remainder(w.imag, 2.0 * math.pi)) for w in lg[:, 0].tolist()])
    rl, minus_rr, tl, det = _column(*_amplitude_logs(order[:, :1], folded[:, None]))
    rr = -minus_rr
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
    order, lg, *_ = _checked_logs(ch)
    return _amplitude_set(ch.energy, order, lg)


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
    first energy where :func:`amplitudes` raises.  An entry that is not an
    ``int`` or ``float`` (a bool is neither; an array's dtype says it for
    every entry), or energies that are not a 1-D array of finite positive
    values, raise ``ValueError``.
    """
    _check_entries("energies", energies)
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or not (np.isfinite(e) & (e > 0.0)).all():
        raise ValueError("energies must be a 1-D array of finite positive values")
    _, _, order, logs, _ = _checked_logs(_channel(spec, e))
    return _log10_rows(order, logs)


def _log10_refusals(spec: PotentialSpec, energies: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rows of :func:`log10_coefficients` at an array of positive
    energies, unvalidated, and its det-S refusals by energy
    (:func:`_det_s_checks`) in place of its raise, for a caller that reads
    only some of the energies it asks for."""
    _, _, order, logs, _, refused = _det_s_checks(_channel(spec, energies))
    return _log10_rows(order, logs), refused


def _amplitude_orders(spec: PotentialSpec, energies) -> list[tuple[int, int, int, int]]:
    """The kernel's pole orders of (r_l, -r_r, t, det S) at each of a list
    of positive energies: > 0 a zero, < 0 a pole."""
    return list(map(tuple, _checked_logs(_channel(spec, np.array(energies, dtype=float)))[2].T.tolist()))


def det_s(spec: PotentialSpec, energy: float) -> SingularValue:
    """det S as the closed-form Gamma ratio (G2/G3, or its inverse when
    the stored channel parameters are the time-reversed ones): the
    ``det_s`` of :func:`amplitudes`, so it passes the same cross-check and
    raises the same ``ArithmeticError`` where that fails."""
    return amplitudes(spec, energy).det_s


def potential_profile(spec: PotentialSpec, x: float, zeta_grid) -> np.ndarray:
    """Complex potential sampled along the imaginary-shift direction.

    Returns -v0 / (1 + e^{rho*zeta} e^{i rho x}) per grid point; the
    time-reversed variant is its complex conjugate.  An ``x`` that is not a
    finite ``int`` or ``float`` (a bool is neither), a grid entry that is not
    a real int or float (an array's dtype says it for every entry), or a NaN
    in the grid, raises ``ValueError``; zeta = +-inf gives the limits 0 and -v0.
    """
    _check_finite("x", x)
    _check_entries("zeta_grid", zeta_grid)
    zeta = np.asarray(zeta_grid, dtype=float)
    if np.isnan(zeta).any():
        raise ValueError("zeta_grid must be free of NaN")
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
    for name, value in (("v0", v0), ("delta", delta), ("m", m), ("energy", energy)):
        _check_positive(name, value)
    k1 = math.sqrt(m * energy)
    k2 = math.sqrt(m * (energy + v0))
    return ChannelParams(
        energy=float(energy),
        k1=k1,
        k2=k2,
        a2=2j * k1 / delta,
        a3=2j * k2 / delta,
        mass=m,
        gap=2j * m * v0 / (delta * (k1 + k2)),
    )


def hermitian_amplitudes(v0: float, delta: float, m: float, energy: float) -> AmplitudeSet:
    """Amplitudes of the uncomplexified (Hermitian) potential.

    Same G expressions evaluated at purely imaginary channel parameters;
    reciprocity and unitarity hold here, which the tests use as a limit
    check on the whole assembly.
    """
    return _amplitudes(_hermitian_channel(v0, delta, m, energy))
