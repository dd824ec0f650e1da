"""Cross-module invariant suites: the checks ``wsabsorb verify`` runs.

Each check takes a ``numpy.random.Generator`` and returns its worst
deviation over its own draws.  :data:`SUITES` names every check once, in
``verify``'s row order, next to the tolerance its worst deviation must not
exceed; ``verify`` gives each check a fresh generator from the same seed.
"""

import math
from dataclasses import replace

from .amplitudes import ChannelParams, amplitudes, channel_params, g_factors, hermitian_amplitudes
from .oracle import oracle_domain_ok, oracle_g_factors
from .specfun import SingularValue
from .spectral import cc_left_energies, cc_right_energies, integer_distance, rprime_left_zeros
from .units import PotentialSpec, Variant


def _random_channel(rng):
    while True:
        a2 = rng.uniform(0.05, 20.0)
        a3 = rng.uniform(0.05, 20.0)
        if a3 <= a2:
            a2, a3 = a3, a2 + 0.05
        if integer_distance(a2, a3) > 5e-3:
            return a2, a3


def _suite_gamma_identity(rng, n=1000):
    worst = 0.0
    for _ in range(n):
        a2, a3 = _random_channel(rng)
        ch = ChannelParams(energy=1.0, k1=a2, k2=a3, a2=a2, a3=a3, mass=1.0)
        gf = g_factors(ch)
        lhs = gf.g4 * gf.g1 + SingularValue.from_complex(a2 / a3)
        worst = max(worst, lhs.relative_difference(gf.g2 * gf.g3))
    return worst


def _suite_hermitian(rng, n=200):
    worst = 0.0
    for _ in range(n):
        v0 = rng.uniform(0.2, 6.0)
        delta = rng.uniform(0.4, 3.0)
        energy = rng.uniform(0.05, 12.0)
        amps = hermitian_amplitudes(v0, delta, 1.0, energy)
        unitarity = abs(amps.Rl.magnitude + amps.T.magnitude - 1.0)
        recip = abs(math.exp(amps.rl.log_magnitude) - math.exp(amps.rr.log_magnitude))
        det_dev = abs(amps.det_s.magnitude - 1.0)
        worst = max(worst, unitarity, recip, det_dev)
    return worst


def _suite_duality(rng, n=5):
    """At each non-degenerate CC_LEFT energy the forward r_l and t vanish and
    the time-reversed R_l has a pole: there it is a spectral singularity."""
    worst = 0.0
    for _ in range(n):
        spec = PotentialSpec(v0=rng.uniform(0.5, 4.0), rho=rng.uniform(0.8, 2.5), mass=1.0)
        for p in cc_left_energies(spec, 6):
            if p.degenerate:
                continue
            amps = amplitudes(spec, p.energy)
            tr = amplitudes(replace(spec, variant=Variant.TIME_REVERSED), p.energy)
            if not (amps.rl.is_zero and amps.tl.is_zero and tr.Rl.is_pole):
                worst = math.inf
    return worst


def _suite_spacing(rng, n=4):
    worst = 0.0
    for _ in range(n):
        spec = PotentialSpec(v0=rng.uniform(0.5, 8.0), rho=rng.uniform(0.5, 2.5), mass=1.0)
        scale = spec.rho ** 2 / (16.0 * spec.mass)
        for points in (cc_left_energies(spec, 8), cc_right_energies(spec, 8)):
            for a, b in zip(points, points[1:]):
                ref = scale * (2 * a.index + 1)
                worst = max(worst, abs((b.energy - a.energy) - ref) / ref)
    return worst


def _suite_rzero_spacing(rng, n=3):
    worst = 0.0
    specs = [PotentialSpec(v0=50.0, rho=1.0, mass=1.0),
             PotentialSpec(v0=8.0, rho=1.0, mass=1.0),
             PotentialSpec(v0=30.0, rho=1.5, mass=1.0)]
    for spec in specs[:n]:
        zeros = rprime_left_zeros(spec)
        for a, b in zip(zeros, zeros[1:]):
            n_idx = a.index
            ref = (2 * n_idx + 1) * (
                spec.rho ** 2 / (16.0 * spec.mass)
                - spec.mass * spec.v0 ** 2
                / (n_idx ** 2 * (n_idx + 1) ** 2 * spec.rho ** 2)
            )
            worst = max(worst, abs((b.energy - a.energy) - ref) / abs(ref))
    return worst


def _suite_oracle(rng, n=8):
    worst = 0.0
    done = 0
    while done < n:
        spec = PotentialSpec(v0=rng.uniform(0.5, 5.0), rho=rng.uniform(0.5, 3.0), mass=1.0)
        energy = rng.uniform(0.1, 10.0)
        if not oracle_domain_ok(spec, energy):
            continue
        done += 1
        gf = g_factors(channel_params(spec, energy))
        got = oracle_g_factors(spec, energy)
        for sv, num in zip((gf.g1, gf.g2, gf.g3, gf.g4), got):
            worst = max(worst, abs(sv.to_complex() - num) / abs(num))
    return worst


#: (name, check, tolerance) per suite, in ``verify``'s row order.
SUITES = (
    ("gamma_identity", _suite_gamma_identity, 1e-9),
    ("hermitian_unitarity", _suite_hermitian, 1e-10),
    ("cc_ss_duality", _suite_duality, 1e-12),
    ("cc_spacing_laws", _suite_spacing, 1e-12),
    ("rzero_spacing_corrected", _suite_rzero_spacing, 1e-9),
    ("oracle_agreement", _suite_oracle, 1e-6),
)
