"""Cross-module invariant suites: the checks ``wsabsorb verify`` runs.

Each check takes a ``numpy.random.Generator`` and returns its worst
deviation over its own draws.  :data:`SUITES` names every check once, in
``verify``'s row order, next to the tolerance its worst deviation must not
exceed; ``verify`` gives each check a fresh generator from the same seed.
"""

import math
from dataclasses import replace

from .amplitudes import (ChannelParams, _amplitude_orders, amplitudes, channel_params, g_factors,
                         hermitian_amplitudes)
from .oracle import oracle_amplitudes, oracle_domain_ok, oracle_g_factors
from .specfun import SingularValue, snap
from .spectral import (_TABLE, cc_left_energies, cc_right_energies, critical_points, integer_distance,
                       rprime_left_zeros)
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
        v0, delta, energy = rng.uniform(0.2, 6.0), rng.uniform(0.4, 3.0), rng.uniform(0.05, 12.0)
        amps = hermitian_amplitudes(v0, delta, 1.0, energy)
        unitarity = abs(amps.Rl.magnitude + amps.T.magnitude - 1.0)
        recip = abs(math.exp(amps.rl.log_magnitude) - math.exp(amps.rr.log_magnitude))
        det_dev = abs(amps.det_s.magnitude - 1.0)
        worst = max(worst, unitarity, recip, det_dev)
    return worst


def _suite_signatures(rng, n=8):
    """The number of failed checks over the first six points of every family
    on n seeded specs: a point must lie on its row, u = N, and in each
    variant the kernel's pole orders of (r_l, -r_r, t, det S) there must be
    the row's signature, which ``spectral`` counts from the same Gamma
    arguments, exactly when the point is not degenerate.  Every
    second spec is built so that 2*a2 and 2*a3 are integers at one energy,
    which makes degenerate points of every family."""
    misses = 0.0
    signatures = {family: row.signatures for family, row in _TABLE.items()}
    for i in range(n):
        mass, rho = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.5)
        # 2*a2 = n2 and 2*a3 = n2 + step at E = n2^2 rho^2 / (16 m)
        n2, step = rng.integers(1, 6), rng.integers(1, 5)
        v0 = step * (2 * n2 + step) * rho * rho / (16.0 * mass) if i % 2 else rng.uniform(0.5, 8.0)
        spec = PotentialSpec(v0, rho, mass)
        points = [(row, p) for family, row in _TABLE.items() for p in critical_points(spec, family, count=6)]
        orders = [_amplitude_orders(replace(spec, variant=v), [p.energy for _, p in points]) for v in Variant]
        for j, (row, p) in enumerate(points):
            n_row, hit = snap(row.u(spec, p.energy))
            misses += not (hit and n_row == p.index + row.offset)
            misses += sum((got[j] == sig) == p.degenerate for sig, got in zip(signatures[p.kind], orders))
    return misses


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
    """Worst relative deviation of the closed form from the oracle: the
    G-factors at n forward draws, then r_l, r_r, t and det S at n
    time-reversed draws, each in the oracle's domain."""
    worst, variants = 0.0, [Variant.FORWARD] * n + [Variant.TIME_REVERSED] * n
    while variants:
        spec = PotentialSpec(rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), 1.0, variants[0])
        energy = rng.uniform(0.1, 10.0)
        if not oracle_domain_ok(spec, energy):
            continue
        if variants.pop(0) is Variant.FORWARD:
            gf = g_factors(channel_params(spec, energy))
            pairs = zip((gf.g1, gf.g2, gf.g3, gf.g4), oracle_g_factors(spec, energy))
        else:
            ref, got = amplitudes(spec, energy), oracle_amplitudes(spec, energy)
            pairs = ((getattr(ref, f), getattr(got, f).to_complex()) for f in ("rl", "rr", "tl", "det_s"))
        worst = max(worst, *(abs(sv.to_complex() - num) / abs(num) for sv, num in pairs))
    return worst


#: (name, check, tolerance) per suite, in ``verify``'s row order.
SUITES = (
    ("gamma_identity", _suite_gamma_identity, 1e-9),
    ("hermitian_unitarity", _suite_hermitian, 1e-10),
    ("family_signatures", _suite_signatures, 0.0),
    ("cc_spacing_laws", _suite_spacing, 1e-12),
    ("rzero_spacing_corrected", _suite_rzero_spacing, 1e-9),
    ("oracle_agreement", _suite_oracle, 1e-6),
)
