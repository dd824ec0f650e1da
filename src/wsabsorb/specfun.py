"""Complex log-gamma with pole bookkeeping and the series-only 2F1 evaluators.

Everything downstream (connection coefficients, scattering amplitudes,
critical-energy classification) reduces to products and ratios of Gamma
functions whose arguments sweep through poles.  Values are therefore kept
in log-magnitude + phase form, and exact poles/zeros are represented
explicitly by :class:`SingularValue` instead of overflowing floats.  The
log-Gamma values come from the package's own series, in numpy alone: a Pade
form of the Taylor series about 2 with the recurrence, Stirling's series
for large arguments and the reflection formula left of 1/2, over real and
complex arrays alike.  One integer rule, :func:`snap`, decides every "is this an integer" question of the
package, and :func:`gamma_logs` is the one pole-aware Gamma evaluation:
the closed-form kernel in ``amplitudes`` applies it to all twelve Gamma
arguments of a whole energy grid at once, and :func:`gamma_info` and
:func:`log_gamma` read it at one argument.  :func:`_digamma` is its
derivative psi at real arguments, from the same series' tables, which bounds
the slope of the kernel's logs between energies.  The one Gauss 2F1 summation
lives here: :func:`_gauss_sums` sums the series of many rows in one pass
(the contour oracle's local states), :func:`hyp2f1` is one such row, and
one guard, :func:`_series_guard`, states what every row refuses; the pass
puts each of its rows through it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .units import _check_number

#: The width of the one snap rule deciding "is this argument an integer".
#: The critical-point conditions are exact integer conditions; floating input
#: needs an explicit snap rule.  Absolute, on the argument itself.  Two
#: comparisons read it.  :func:`snap` is the rule, and every reader of the
#: rule goes through it: Gamma poles (:func:`gamma_logs` and so the
#: closed-form kernel in ``amplitudes``, :func:`gamma_info`,
#: :func:`log_gamma`, the 2F1 ``c`` guard), the threshold skip and degeneracy
#: flags of ``spectral.critical_points`` and the scan flags, which snap each
#: family's condition at the grid energies.  ``amplitudes._row_bounds``'
#: pole test widens each grid cell's span of a Gamma argument by 2 TAU_INT,
#: so that its bounds decide no cell where the kernel could snap a pole.
#: The ``300 * TAU_INT`` Laurent-term allowance of the kernel's det-S
#: cross-check uses it as a scale.
TAU_INT = 1e-9

#: The two rounding units the package's error bounds are stated in.  eps =
#: 2^-52 is the spacing of doubles at 1: :func:`gamma_logs`' 4 eps and
#: :func:`_digamma`'s 16 eps, and the log-Gamma rounding and row-bound margin
#: in ``amplitudes``.  u = 2^-53 = eps / 2 is the unit roundoff, the largest
#: relative error of one rounding: :func:`_gauss_sums`' 8 u kappa, and in
#: ``oracle`` the series rounding budget's test and the Taylor bridge's cut.
_EPS = 2.0 ** -52
_UNIT_ROUNDOFF = 2.0 ** -53

#: The floor below which two leading coefficients cancel: their sum w is
#: refused, the next order unknown, where |w| < _CANCEL_FLOOR times the sum
#: of their magnitudes (:meth:`SingularValue.__add__`, and the det-S check's
#: equal-order sums in ``amplitudes``).
_CANCEL_FLOOR = 4e-16

# term cap and |z| bound of the 2F1 series
_SERIES_MAX_TERMS = 100_000
SERIES_Z_MAX = 0.95


class PoleProximityError(ValueError):
    """Gamma argument within the integer-snap tolerance of a pole."""


class SeriesError(RuntimeError):
    """Hypergeometric series failed to converge within the term cap, or its
    terms overflowed."""


def snap(x):
    """The one integer rule: ``(n, hit)`` with n the integer nearest to the
    real part of x and hit whether x lies within ``TAU_INT`` of n.

    Operators only, so it reads a Python scalar and an array alike.
    """
    n = np.rint(x.real)
    return n, abs(x - n) <= TAU_INT


# log Gamma(2 + t) = t P(t) / (1 + t Q(t)) on |t| <= 1/2, real or complex: the
# [8/8] Pade approximant of the Taylor series (1 - gamma) t + sum_k>=2
# (-1)^k (zeta(k) - 1) t^k / k (DLMF 5.7.3), good to 1e-18 on that disk
_PADE_P = (0.42278433509846713, 1.097580382712048, 1.0926632537445615, 0.5439360240124151,
           0.14506061235372716, 0.020285357312986484, 0.0013221993659978846,
           2.8636525082098215e-05)
_PADE_Q = (1.8333539938451355, 1.3454125045900527, 0.5037666463652358, 0.10142936848227321,
           0.010567361047207917, 0.0004924219301827396, 6.671296294757436e-06,
           -1.217589790657765e-08)
# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series (DLMF 5.11.1) in 1/w^2,
# whose next term is below 1e-16 of log Gamma from |w| >= _STIRLING_MIN on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_STIRLING_MIN = 8.0
# B_2k / (2k) = (2k - 1) _STIRLING[k - 1], k = 1..8: the asymptotic series of
# psi (DLMF 5.11.2) in 1/w^2, the derivative of Stirling's
_DIGAMMA_SERIES = tuple((2 * k - 1) * c for k, c in enumerate(_STIRLING, 1))
# P and Q as _estrin reads them: the coefficients of even and of odd powers
_PADE = np.array([_PADE_P, _PADE_Q])[:, :, None]
_PADE_EVEN, _PADE_ODD = _PADE[:, 0::2], _PADE[:, 1::2]
# Gamma(n + t) / Gamma(2 + t) is the product of the t + j below n
_RISE = np.arange(2.0, 8.0)[:, None]
# the factors w, w + 1, ..., w + 7 of an upward shift by m <= 8
_SHIFT_J = np.arange(8.0)[:, None]
_LOG_PI = math.log(math.pi)
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5
# past this |Im z|, log sin(pi z) is its asymptotic form to within e^(-40 pi)
_SIN_ASYMPTOTIC = 20.0
# gamma_logs hands longer arrays to _log_gamma in pieces of this many
# arguments, whose temporaries stay in cache and come back from the heap;
# amplitudes sizes its pieces of energies from it (three of these pieces of
# its 12 Gamma arguments each)
_PIECE = 4096


def _estrin(even: np.ndarray, odd: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Polynomials of degree 7 at z by Estrin's scheme, one row each: fewer
    numpy calls than :func:`_horner` for two rows.  Complex products go to
    fresh arrays."""
    z2 = z * z
    pairs = even + odd * z
    quads = pairs[:, 0::2] + pairs[:, 1::2] * z2
    return quads[:, 0] + quads[:, 1] * (z2 * z2)


def _horner(coefficients: tuple, z: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients of z^0, z^1, ... at z, by
    Horner's rule.  Each product goes to a buffer apart from its factors:
    numpy's in-place complex products may round differently at different
    array lengths."""
    acc, spare = np.empty((2,) + z.shape, dtype=z.dtype)
    acc[...] = coefficients[-1]
    for c in coefficients[-2::-1]:
        np.multiply(acc, z, out=spare)
        spare += c
        acc, spare = spare, acc
    return acc


def _product(rows: np.ndarray) -> np.ndarray:
    """The product of the rows, taken in order."""
    out = rows[0]
    for row in rows[1:]:
        out = out * row
    return out


def _log_gamma(x: np.ndarray) -> np.ndarray:
    """log Gamma off the poles, elementwise, as a complex array.

    Real x gives log |Gamma(x)| with the phase pi where Gamma(x) < 0,
    complex x a log of Gamma(x) whose phase is right modulo 2 pi.  Re x <
    1/2 reflects to w = 1 - x: Gamma(x) Gamma(w) = pi / sin(pi x) (DLMF
    5.5.3), where x = k + f with k the integer nearest Re x is exact, so
    sin(pi x) = (-1)^k sin(pi f) keeps its digits near the integers.
    Within 1/2 of the integer n <= 8 nearest Re w (every real w below 8.5),
    log Gamma(w) is the Pade form at 2 + t, t = w - n, and the recurrence
    to w; elsewhere Stirling's series, at w + m with Re(w + m) >= 8 where
    |w| < 8 (complex w only), less the log of w (w + 1) ... (w + m - 1).
    """
    complex_ = x.dtype.kind == "c"
    reflect = x.real < 0.5
    w = np.where(reflect, 1.0 - x, x)
    n = np.floor(w.real + 0.5)
    near = n <= 8.0
    if complex_:
        near &= np.abs(w - n) <= 0.5
    # each stage runs on the arguments it serves, and not at all where it
    # serves none; where the Pade stage serves all, it gathers and scatters none
    everywhere = near.all()
    lg = np.empty(x.shape, dtype=w.dtype)
    wn, n = (w.ravel(), n.ravel()) if everywhere else (w[near], n[near])
    if wn.size:
        t = wn - n
        p, q = _estrin(_PADE_EVEN, _PADE_ODD, t)
        rise = _RISE[:max(int(n.max()) - 2, 1)]
        ratio = _product(np.where(rise < n, t + rise, 1.0))
        ratio = np.where(n == 1.0, 1.0 / wn, ratio)  # Gamma(1 + t) = Gamma(2 + t) / w
        pade = t * p / (t * q + 1.0) + np.log(ratio)
        if everywhere:
            lg = pade.reshape(x.shape)
        else:
            lg[near] = pade
    if not everywhere:
        far = ~near
        v = w[far]
        stirling = _STIRLING_CONST
        if complex_:
            m = np.ceil(_STIRLING_MIN - v.real) * (np.abs(v) < _STIRLING_MIN)
            if m.any():
                stirling = stirling - np.log(_product(np.where(m > _SHIFT_J, v + _SHIFT_J, 1.0)))
                v = v + m
        r = 1.0 / v
        s = _horner(_STIRLING, r * r)
        # (v - 1/2) log v - v + 1/2 log(2 pi) + the series
        lg[far] = (v - 0.5) * (np.log(v) - 1.0) + (s * r + stirling)
    xr = x[reflect]
    if not xr.size:
        return lg if complex_ else lg.astype(complex)
    k = np.rint(xr.real)
    f = xr - k
    if complex_:
        y = f.imag
        big = np.abs(y) > _SIN_ASYMPTOTIC
        if not big.any():
            log_sin = np.log(np.sin(math.pi * f))
        else:  # where sin(pi z) would overflow
            asymptotic = math.pi * np.abs(y) - math.log(2.0) + 1j * np.sign(y) * (0.5 * math.pi - math.pi * f.real)
            log_sin = np.where(big, asymptotic, np.log(np.sin(math.pi * np.where(big, 0.5, f))))
        lg[reflect] = (_LOG_PI - 1j * math.pi * k) - log_sin - lg[reflect]
        return lg
    lg[reflect] = _LOG_PI - np.log(np.abs(np.sin(math.pi * f))) - lg[reflect]
    out = lg.astype(complex)
    # Gamma(x) < 0 for x < 0 where floor(x) is odd
    out.imag[reflect] = math.pi * (np.floor(xr).astype(np.int64) & 1)
    return out


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) = d log|Gamma(x)| / dx at real x, elementwise, within 16 eps
    (``_EPS``) of max(1, |psi|); +-inf at the poles, where the caller
    silences numpy's division warning.

    Left of 1/2, the reflection psi(x) = psi(1 - x) - pi cot(pi x) (DLMF
    5.5.4), with x = k + f as in :func:`_log_gamma`, so cot(pi f) keeps its
    digits near the poles; then psi(w) = psi(w + m) - sum_{j < m} 1/(w + j)
    with w + m >= ``_STIRLING_MIN``, and the asymptotic series log v - 1/(2v)
    - sum B_2k / (2k v^2k) there.
    """
    reflect = x < 0.5
    w = np.where(reflect, 1.0 - x, x).ravel()
    m = np.ceil(_STIRLING_MIN - w)
    up = m > 0.0  # only these take the shift, summed in the order of j
    v = np.where(up, w + m, w)
    shift = np.zeros(w.shape)
    shift[up] = np.where(m[up] > _SHIFT_J, 1.0 / (w[up] + _SHIFT_J), 0.0).sum(axis=0)
    r2 = 1.0 / (v * v)
    psi = (np.log(v) - 0.5 / v - r2 * _horner(_DIGAMMA_SERIES, r2) - shift).reshape(x.shape)
    f = x - np.rint(x)
    return np.where(reflect, psi - math.pi / np.tan(math.pi * f), psi)


def gamma_logs(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pole mask and logs of Gamma over an array: the one pole-aware Gamma
    evaluation.

    ``pole`` marks the arguments that :func:`snap` puts on a pole -k,
    k >= 0.  ``lg`` is log Gamma(z) off the poles and, at a pole, the log of
    the residue (-1)^k / k!.  A real array gives log |Gamma| with the phase
    pi where Gamma < 0; a complex one a log of Gamma whose phase is right
    modulo 2 pi.  Off the poles, the real part and the phase are within
    4 eps (real arguments) or 32 eps (complex ones) of max(1, |log Gamma|),
    eps = ``_EPS``.
    The arguments must be finite.  Elementwise: an argument gives the same
    bits alone as anywhere in an array of any length.
    """
    n, hit = snap(z)
    pole = hit & (n <= 0)
    any_pole = pole.any()
    x = np.where(pole, 1.0 - n, z) if any_pole else z  # log k! at a pole
    if x.size <= _PIECE:
        lg = _log_gamma(x)
    else:
        x = x.ravel()
        lg = np.concatenate([_log_gamma(x[i:i + _PIECE]) for i in range(0, x.size, _PIECE)]).reshape(z.shape)
    if any_pole:
        lg[pole] = 1j * math.pi * (n[pole] % 2) - lg[pole]
    return pole, lg


def log_gamma(z: complex) -> complex:
    """Log of Gamma(z): :func:`gamma_info`'s value at one argument.

    ``exp(log_gamma(z))`` reproduces Gamma(z); the imaginary part is
    folded into [-pi, pi].

    Raises :class:`PoleProximityError` within ``TAU_INT`` of a non-positive
    integer; those cases must go through :func:`gamma_info`.
    """
    g = gamma_info(z)
    if g.is_pole:
        raise PoleProximityError(f"Gamma argument {complex(z)} within {TAU_INT} of a pole")
    return complex(g.log_magnitude, g.phase)


@dataclass(frozen=True)
class SingularValue:
    """A complex value with explicit zero/pole order in a limit variable.

    ``order`` is the leading power: 0 for a finite value, +k for a zero of
    order k, -k for a pole of order k.  ``log_magnitude`` and ``phase``
    describe the leading coefficient, so a finite value reconstructs as
    ``exp(log_magnitude) * exp(i*phase)``.  Products and ratios add and
    subtract orders; equal and opposite orders cancel to finite limits with
    the coefficients carried along, which is how amplitude limits at
    critical energies are taken.
    """

    order: int
    log_magnitude: float
    phase: float

    def __init__(self, order: int, log_magnitude: float, phase: float):
        # the fields as the dataclass's own frozen __init__ sets them, the phase
        # folded into [-pi, pi], written in one pass: each amplitude set makes
        # eight of these
        fields = self.__dict__
        fields["order"] = order
        fields["log_magnitude"] = log_magnitude
        fields["phase"] = math.remainder(phase, 2.0 * math.pi)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_complex(cls, w: complex) -> "SingularValue":
        _check_number("w", w, (int, float, complex))
        w = complex(w)
        if not cmath.isfinite(w):
            raise ValueError(f"non-finite value {w!r}")
        if w == 0:
            raise ValueError("exact zero has no log representation; give it a positive order")
        return cls(0, math.log(abs(w)), cmath.phase(w))

    # -- classification ----------------------------------------------------

    @property
    def kind(self) -> str:
        if self.order > 0:
            return "zero"
        if self.order < 0:
            return "pole"
        return "finite"

    @property
    def is_finite(self) -> bool:
        return self.order == 0

    @property
    def is_zero(self) -> bool:
        return self.order > 0

    @property
    def is_pole(self) -> bool:
        return self.order < 0

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "SingularValue") -> "SingularValue":
        return SingularValue(
            self.order + other.order,
            self.log_magnitude + other.log_magnitude,
            self.phase + other.phase,
        )

    def __truediv__(self, other: "SingularValue") -> "SingularValue":
        return SingularValue(
            self.order - other.order,
            self.log_magnitude - other.log_magnitude,
            self.phase - other.phase,
        )

    def __neg__(self) -> "SingularValue":
        return SingularValue(self.order, self.log_magnitude, self.phase + math.pi)

    def __add__(self, other: "SingularValue") -> "SingularValue":
        # Asymptotically in the limit variable the lower order dominates.
        if self.order < other.order:
            return self
        if other.order < self.order:
            return other
        r = other.log_magnitude - self.log_magnitude
        if r > 0.0:
            return other + self
        w = cmath.exp(1j * self.phase) + math.exp(r) * cmath.exp(1j * other.phase)
        if abs(w) < _CANCEL_FLOOR * (1.0 + math.exp(r)):
            raise ArithmeticError("leading coefficients cancel; next order unknown")
        return SingularValue(
            self.order,
            self.log_magnitude + math.log(abs(w)),
            cmath.phase(w),
        )

    def __sub__(self, other: "SingularValue") -> "SingularValue":
        return self + (-other)

    def conjugate(self) -> "SingularValue":
        return SingularValue(self.order, self.log_magnitude, -self.phase)

    def abs_squared(self) -> "SingularValue":
        return SingularValue(2 * self.order, 2.0 * self.log_magnitude, 0.0)

    # -- extraction ----------------------------------------------------------

    def to_complex(self) -> complex:
        if self.order != 0:
            raise ValueError(f"{self.kind} of order {abs(self.order)} is not finite")
        return cmath.rect(math.exp(self.log_magnitude), self.phase)

    @property
    def magnitude(self) -> float:
        """|value| as a float: 0.0 for zeros, inf for poles, clipped exp else."""
        if self.order > 0:
            return 0.0
        if self.order < 0:
            return math.inf
        if self.log_magnitude > 709.0:
            return math.inf
        if self.log_magnitude < -745.0:
            return 0.0
        return math.exp(self.log_magnitude)

    @property
    def log10_magnitude(self) -> float:
        """log10 |value|; -inf for zeros, +inf for poles."""
        if self.order > 0:
            return -math.inf
        if self.order < 0:
            return math.inf
        return self.log_magnitude / math.log(10.0)

    def relative_difference(self, other: "SingularValue") -> float:
        """|self - other| / |other| through the log representation.

        Requires equal orders (else returns inf); the leading coefficients
        are compared, which is the meaningful relative error for zeros and
        poles as well as finite values.
        """
        if self.order != other.order:
            return math.inf
        r = math.exp(self.log_magnitude - other.log_magnitude)
        return abs(r * cmath.exp(1j * (self.phase - other.phase)) - 1.0)


def gamma_info(z: complex) -> SingularValue:
    """Classify Gamma(z) at one argument.

    :func:`gamma_logs` at one argument, taken as complex: Pole(1) with the
    residue coefficient (-1)^k / k! when z snaps to a non-positive integer
    -k, otherwise a Finite value carrying log Gamma(z).  A z that is not an
    ``int``, ``float`` or ``complex`` (a bool or str is none) raises
    ``ValueError``.
    """
    _check_number("z", z, (int, float, complex))
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite argument {z!r}")
    with np.errstate(over="ignore"):  # log Gamma past 1e308 is inf, as a float
        pole, lg = gamma_logs(np.array([z]))
    w = complex(lg[0])
    return SingularValue(-int(pole[0]), w.real, w.imag)


def _series_guard(a: complex, b: complex, c: complex, z: complex) -> None:
    """What every 2F1 series refuses: non-finite input and |z| >=
    ``SERIES_Z_MAX`` (ValueError), and a c that :func:`snap` puts on a
    non-positive integer (PoleProximityError)."""
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(z)):
        raise ValueError(f"non-finite 2F1 input ({a}, {b}; {c}; {z})")
    if abs(z) >= SERIES_Z_MAX:
        raise ValueError(f"|z| = {abs(z):.4f} outside series domain (< {SERIES_Z_MAX})")
    n, hit = snap(c)
    if hit and n <= 0:
        raise PoleProximityError(f"c = {c} is a non-positive integer")


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric 2F1 by direct series summation.

    Deliberately series-only and restricted to ``|z| < SERIES_Z_MAX``, with
    no Gamma-function connection identities or continuation formulas: one
    row of :func:`_gauss_sums`, which guards it.  An argument that is not an
    ``int``, ``float`` or ``complex`` (a bool or str is none) raises
    ``ValueError``.
    """
    for name, value in zip("abcz", (a, b, c, z)):
        _check_number(name, value, (int, float, complex))
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    F, _, _ = _gauss_sums(np.array((a, b, c))[:, None, None], np.array([[z]]))
    return F[0]


# _gauss_sums computes the terms of all its rows together, _BLOCK at a time,
# and decides each row's stop every _STOP_STEP terms.  A row sums the same
# terms whatever the block, a multiple of the step, so its F, dF/darg and
# kappa keep their bits; most of the oracle's rows stop within 128 terms, one
# block.
_BLOCK = 128
_STOP_STEP = 64


def _swell_weights(terms: int) -> np.ndarray:
    """Columns k + 1 and k^2, k = 1 .. terms: the weights of _gauss_sums'
    rounding sums."""
    k = np.arange(1.0, terms + 1.0)
    return np.array([k + 1.0, k * k]).T


# the weights of the first 512 terms, enough for the oracle's passes at |arg| =
# 1/2; a longer pass builds its own
_SWELL_WEIGHTS = _swell_weights(8 * _STOP_STEP)


def _gauss_sums(abc: np.ndarray, arg: np.ndarray, kappa: bool = False
                ) -> tuple[list[complex], list[complex], list[tuple[float, float]] | None]:
    """2F1(a, b; c; arg) and its arg-derivative per row, from one pass of the
    rows' Gauss series, and with ``kappa`` each row's rounding factors kappa
    (else None); ``abc`` stacks a, b and c as (3, rows, 1) and ``arg`` is
    (rows, 1).  Each row first goes through :func:`_series_guard`, in row
    order, before any term is summed.

    The terms t_k are cumulative products of the term ratios, a numpy block
    of _BLOCK at a time.  F = 1 + sum t_k and dF/darg = sum k t_k / arg read
    the same terms, and each sum is exact (math.fsum of the real and
    imaginary parts, read from the term array's buffer with no list between),
    so at the coefficient spikes of a c left of the origin the sums add no
    rounding of their own.  A row stops at the first multiple of _STOP_STEP
    terms k whose last three terms are below 1e-17 of its sum and which lies
    past its proven tail: k >= max(-Re c, k^), with k^ the larger root of
    (k + |a|)(k + |b|) |arg| = q (k + Re c)(k + 1) and q = (1 + |arg|)/2.
    From there on every term ratio (a + k)(b + k) arg / ((c + k)(k + 1)) is
    below q in modulus, so the terms left out sum to at most q/(1 - q) times
    the last one.  Where c < 0 the ratio spikes near k = -Re c and stays
    above 1 for a long stretch after it, so terms that fall below the rule
    before then do not end the sum.  SeriesError before any term is summed
    where a row's proven tail starts past the term cap, at the cap, and at
    the first step where a running row's terms stop being finite (they
    overflow).

    Each term then carries up to about u of rounding per ratio, so F and
    dF/darg are within 8 u kappa of exact (u = ``_UNIT_ROUNDOFF``), with per
    row the pair kappa = ((1 + sum (k + 1) |t_k|) / |F|, sum k^2 |t_k| /
    |arg| / |dF/darg|), read off the summed terms.  kappa on dF/darg is 1 where every term is 0
    (arg = 0, say): dF/darg = ab/c then sums none.
    """
    rows = arg.shape[0]
    tail_from = []  # per row, max(-Re c, k^): where its proven tail starts
    for a, b, c, z in zip(*abc[:, :, 0].tolist(), arg[:, 0].tolist()):
        _series_guard(a, b, c, z)
        a, b, c, z = abs(a), abs(b), c.real, abs(z)
        # (q - z) k^2 + beta k + gamma = q (k + c)(k + 1) - z (k + a)(k + b); with no
        # real root, the ratio bound holds at every k > -c
        q = 0.5 * (1.0 + z)
        beta, gamma = q * (c + 1.0) - z * (a + b), q * c - z * a * b
        disc = beta * beta - 4.0 * (q - z) * gamma
        tail_from.append(max(-c, (math.sqrt(disc) - beta) / (2.0 * (q - z))) if disc >= 0.0 else -c)
    if max(tail_from) > _SERIES_MAX_TERMS:
        raise SeriesError(f"2F1 series tail is not bounded within {_SERIES_MAX_TERMS} terms")
    total = [1.0] * rows
    stop = [0] * rows  # terms each row sums; 0 while it runs
    blocks, n0 = [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # past its stop a row may overflow
        while not all(stop):
            if n0 >= _SERIES_MAX_TERMS:
                raise SeriesError(f"2F1 series did not converge within {_SERIES_MAX_TERMS} terms")
            n = np.arange(n0, min(n0 + _BLOCK, _SERIES_MAX_TERMS), dtype=float)
            p = abc + n
            r = p[0] * p[1] / (p[2] * (n + 1.0)) * arg
            # the terms t_k, filled a step at a time, and below them k t_k
            block = np.empty((2, *r.shape), dtype=complex)
            blocks.append(block)
            for s in range(0, n.size, _STOP_STEP):
                # a step continues from the term before it by one product of
                # that term and its ratio, in that order: numpy's complex
                # products round by operand order
                if n0 + s:
                    r[:, s] *= block[0, :, s - 1] if s else blocks[-2][0, :, -1]
                step = block[0, :, s:s + _STOP_STEP]
                r[:, s:s + _STOP_STEP].cumprod(axis=1, out=step)
                end = n0 + s + step.shape[1]
                tail = np.abs(step[:, -3:]).tolist()
                for i, part in enumerate(step.sum(axis=1).tolist()):
                    if stop[i]:
                        continue
                    if not cmath.isfinite(part):
                        raise SeriesError(f"2F1 series terms overflow within {end} terms")
                    total[i] += part
                    if end >= tail_from[i] and max(tail[i]) <= 1e-17 * abs(total[i]):
                        stop[i] = end
                if all(stop):
                    break
            n0 += n.size
        # the terms summed: a block's steps past the last stop are never filled
        n = max(stop)
        terms = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=2)
        np.multiply(terms[0, :, :n], np.arange(1.0, n + 1.0), out=terms[1, :, :n])
        size = np.abs(terms[0, :, :n]) if kappa else None  # |t_k|
        # whether a row's t_k, or its k t_k, has an imaginary part that is not
        # zero; where none has (a real row's), math.fsum would sum zeros, which
        # it keeps out of its partials, so the sum is +0.0 and is not formed
        imaginary = terms[:, :, :n].imag.any(axis=2).tolist()
    # math.fsum reads each row's parts straight from the buffer, where real and
    # imaginary parts alternate: row i's t_k from i * width on, its k t_k from
    # (rows + i) * width
    width = 2 * terms.shape[2]
    flat = memoryview(terms.view(float).reshape(-1))
    F, dF, slopes = [], [], []
    for i, (m, z) in enumerate(zip(stop, arg[:, 0].tolist())):
        t, kt = i * width, (rows + i) * width
        F.append(complex(math.fsum(chain(flat[t:t + 2 * m:2], (1.0,))),
                         math.fsum(flat[t + 1:t + 2 * m:2]) if imaginary[0][i] else 0.0))
        slope = complex(math.fsum(flat[kt:kt + 2 * m:2]),
                        math.fsum(flat[kt + 1:kt + 2 * m:2]) if imaginary[1][i] else 0.0)
        # arg = 0 where 1 - z underflows (u below about -745): dF/darg is ab/c
        dF.append(slope / z if z else complex(abc[0, i, 0] * abc[1, i, 0] / abc[2, i, 0]))
        slopes.append(slope)
    if not kappa:
        return F, dF, None
    for i, m in enumerate(stop):
        if m < n:
            size[i, m:] = 0.0  # past its stop a row may overflow
    # per row, sum (k + 1) |t_k| and sum k^2 |t_k|; |arg dF/darg| = |slope|
    swell = (size @ (_SWELL_WEIGHTS[:n] if n <= len(_SWELL_WEIGHTS) else _swell_weights(n))).tolist()
    return F, dF, [((1.0 + s) / abs(f) if f else math.inf,
                    s_slope / abs(slope) if slope else (math.inf if s_slope else 1.0))
                   for f, slope, (s, s_slope) in zip(F, slopes, swell)]
