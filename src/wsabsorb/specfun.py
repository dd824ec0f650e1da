"""Complex log-gamma with pole bookkeeping and a series-only 2F1 evaluator.

Everything downstream (connection coefficients, scattering amplitudes,
critical-energy classification) reduces to products and ratios of Gamma
functions whose arguments sweep through poles.  Values are therefore kept
in log-magnitude + phase form, and exact poles/zeros are represented
explicitly by :class:`SingularValue` instead of overflowing floats.  The
log-Gamma values themselves come from ``scipy.special.loggamma`` (Hare's
principal-branch algorithm) for complex arguments, and for real ones from
``gammaln`` with the phase pi where ``gammasgn`` is negative.  One integer
rule, :func:`snap`, decides every "is this an integer" question of the
package, and :func:`gamma_logs` is the one pole-aware Gamma evaluation:
the closed-form kernel in ``amplitudes`` applies it to all twelve Gamma
arguments of a whole energy grid at once, and :func:`gamma_info` and
:func:`log_gamma` read it at one argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn, loggamma

#: The width of the one snap rule deciding "is this argument an integer".
#: The critical-point conditions are exact integer conditions; floating input
#: needs an explicit snap rule.  Absolute, on the argument itself.  Only
#: :func:`snap` compares against it; every reader of the rule goes through
#: ``snap``: Gamma poles (:func:`gamma_logs` and so the closed-form kernel in
#: ``amplitudes``, :func:`gamma_info`, :func:`log_gamma`, the 2F1 ``c``
#: guard) and the threshold skip and degeneracy flags of
#: ``spectral.critical_points``.  ``spectral.snap_tolerance`` and the
#: ``300 * TAU_INT`` Laurent-term allowance of the kernel's det-S cross-check
#: use it as a scale.
TAU_INT = 1e-9

# term cap and |z| bound of the 2F1 series
_SERIES_MAX_TERMS = 100_000
SERIES_Z_MAX = 0.95


class PoleProximityError(ValueError):
    """Gamma argument within the integer-snap tolerance of a pole."""


class SeriesError(RuntimeError):
    """Hypergeometric series failed to converge within the term cap."""


def snap(x):
    """The one integer rule: ``(n, hit)`` with n the integer nearest to the
    real part of x and hit whether x lies within ``TAU_INT`` of n.

    Operators only, so it reads a Python scalar and an array alike.
    """
    n = np.rint(x.real)
    return n, abs(x - n) <= TAU_INT


def gamma_logs(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pole mask and logs of Gamma over an array: the one pole-aware Gamma
    evaluation.

    ``pole`` marks the arguments that :func:`snap` puts on a pole -k,
    k >= 0.  ``lg`` is log Gamma(z) off the poles and, at a pole, the log of
    the residue (-1)^k / k!.  Real arrays take ``gammaln`` with a phase of
    pi where ``gammasgn`` is negative, complex ones ``loggamma``.  The
    arguments must be finite.
    """
    n, hit = snap(z)
    pole = hit & (n <= 0)
    x = np.where(pole, 1.0 - n, z)  # log k! at a pole
    lg = loggamma(x) if np.iscomplexobj(x) else gammaln(x) + 1j * math.pi * (gammasgn(x) < 0)
    if pole.any():
        lg[pole] = 1j * math.pi * (n[pole] % 2) - lg[pole]
    return pole, lg


def log_gamma(z: complex) -> complex:
    """Principal log of Gamma(z), by ``scipy.special.loggamma``.

    ``exp(log_gamma(z))`` reproduces Gamma(z); the imaginary part is
    folded into (-pi, pi].

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

    def __post_init__(self):
        object.__setattr__(self, "phase", math.remainder(self.phase, 2.0 * math.pi))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_complex(cls, w: complex) -> "SingularValue":
        w = complex(w)
        if w == 0:
            raise ValueError("exact zero has no log representation; use zero()")
        return cls(0, math.log(abs(w)), cmath.phase(w))

    @classmethod
    def finite(cls, log_magnitude: float, phase: float) -> "SingularValue":
        return cls(0, log_magnitude, phase)

    @classmethod
    def zero(cls, order: int, log_magnitude: float, phase: float) -> "SingularValue":
        if order <= 0:
            raise ValueError("zero order must be positive")
        return cls(order, log_magnitude, phase)

    @classmethod
    def pole(cls, order: int, log_magnitude: float, phase: float) -> "SingularValue":
        if order <= 0:
            raise ValueError("pole order must be positive")
        return cls(-order, log_magnitude, phase)

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
        if abs(w) < 4e-16 * (1.0 + math.exp(r)):
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
    -k, otherwise a Finite value carrying log Gamma(z).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite argument {z!r}")
    pole, lg = gamma_logs(np.array([z]))
    w = complex(lg[0])
    return SingularValue(-int(pole[0]), w.real, w.imag)


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric 2F1 by direct series summation.

    Deliberately series-only and restricted to ``|z| < SERIES_Z_MAX``: this
    evaluator backs the wavefunction cross-checks and must stay independent
    of the Gamma-function connection identities, so no continuation
    formulas.  Neumaier-compensated summation keeps accuracy through the
    coefficient spikes that occur when c sits left of the origin.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if not all(cmath.isfinite(x) for x in (a, b, c, z)):
        raise ValueError(f"non-finite 2F1 input ({a}, {b}; {c}; {z})")
    if abs(z) >= SERIES_Z_MAX:
        raise ValueError(f"|z| = {abs(z):.4f} outside series domain (< {SERIES_Z_MAX})")
    n, hit = snap(c)
    if hit and n <= 0:
        raise PoleProximityError(f"c = {c} is a non-positive integer")
    if z == 0:
        return 1.0 + 0.0j

    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    term = 1.0 + 0.0j
    quiet = 0
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        # term-ratio tail bound once the ratio has settled below 1
        if abs(term) <= 1e-17 * (abs(total) + abs(comp)):
            quiet += 1
            if quiet >= 3:
                return total + comp
        else:
            quiet = 0
    raise SeriesError(
        f"2F1({a}, {b}; {c}; {z}) did not converge within {_SERIES_MAX_TERMS} terms"
    )


def hyp2f1_deriv(a: complex, b: complex, c: complex, z: complex) -> complex:
    """d/dz of 2F1, via the contiguous relation F' = (ab/c) F(a+1,b+1;c+1;z)."""
    return a * b / c * hyp2f1(a + 1, b + 1, c + 1, z)
