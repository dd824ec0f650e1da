"""The oracle's Taylor-series bridge: its z recurrence, and its end states
and mesh against scipy's ``DOP853`` run on the same contour system."""

import cmath
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import DOP853

from wsabsorb.oracle import (
    ContourError,
    _bridge,
    _FIT_SHAPES,
    _integrate_core,
    _taylor_coefficients,
)

from test_oracle import _joint_draws, _states

# the bridge's end states are held to scipy's DOP853 run at this relative
# tolerance, the reference the tests below compare against
REFERENCE_RTOL = 3e-14


@pytest.mark.parametrize("u", [0.3 + 0.4j, -1.1 - 0.7j, 2.0 + 2.5j])
def test_z_coefficients_follow_the_riccati_equation(u):
    # z' = z^2 - z and z'' = (2z - 1) z', as scaled coefficients z_1 h and z_2 h^2
    phi, h = 0.4, 0.15
    W = _taylor_coefficients(1.3 + 0j, 2.1 + 0j, phi, np.array([u]), np.array([h]))
    z = 1.0 / (1.0 + cmath.exp(u + 1j * phi))
    dz = z * z - z
    z0, z1, z2 = W[0, :3, 2]
    assert abs(z0 - z) <= 1e-15 * abs(z)
    assert abs(z1 - h * dz) <= 1e-15 * abs(h * dz)
    assert abs(z2 - h * h * (2 * z - 1) * dz / 2) <= 1e-15 * abs(h * h * dz)


def _scipy_bridge(a2, a3, phi, Y, t, t_end):
    """The same integration on scipy's DOP853 with a Python right-hand side:
    end state and mesh point count."""
    y0 = Y.T.ravel()
    swap = np.arange(y0.size) ^ 1  # (psi, dpsi) -> (dpsi, psi) per launch

    def rhs(u, y):
        dy = y[swap]
        dy[1::2] *= a2 * a2 + (a3 * a3 - a2 * a2) / (1.0 + cmath.exp(complex(u, phi)))
        return dy

    solver = DOP853(rhs, t, y0, t_end, rtol=REFERENCE_RTOL, atol=1e-250)
    points = 1
    while solver.status == "running":
        solver.step()
        points += 1
    assert solver.status == "finished"
    return solver.y.reshape(-1, 2).T, points


@pytest.mark.parametrize("launches", [1, 2])
@pytest.mark.parametrize("draw", _joint_draws())
def test_end_states_match_scipy(draw, launches):
    a2, a3, phi, uh, _ = draw
    launch = _FIT_SHAPES[:2]
    for shapes in ([(s,) for s in launch] if launches == 1 else [launch]):
        start, end, _ = _integrate_core(a2, a3, phi, _states(shapes, a2, a3, uh, phi), uh, -uh)
        ref_end, _ = _scipy_bridge(a2, a3, phi, start.reshape(-1, 2).T, uh, -uh)
        assert np.abs(end - ref_end.T.ravel()).max() <= 5e-13 * np.abs(ref_end).max()


@pytest.mark.parametrize("draw", _joint_draws())
def test_mesh_at_most_half_of_scipy(draw):
    a2, a3, phi, uh, _ = draw
    start, _, points = _integrate_core(a2, a3, phi, _states(_FIT_SHAPES[:2], a2, a3, uh, phi), uh, -uh)
    _, ref_points = _scipy_bridge(a2, a3, phi, start.reshape(-1, 2).T, uh, -uh)
    assert 2 * points <= ref_points


_Y1 = np.array([[1.0 + 0.5j], [0.3 - 1j]])
_Y2 = np.array([[1.0 + 0.5j, -0.2j], [0.3 - 1j, 2.0 + 0j]])


@pytest.mark.parametrize("a2, a3, phi, Y, t, t_end", [
    (300.0 + 0j, 301.0 + 0j, 0.5, _Y1, 0.02, -0.02),  # q ~ 1e5: growth-limited steps
    (2.0 + 0j, 3.0 + 0j, math.pi - 0.002, _Y2, 1.4, -1.4),  # near a pole line: pole-limited steps
    (1.0 + 0j, 4.0 + 0j, -(math.pi - 0.0005), _Y2, 1.0, -1.0),
    (0.5j, 2.0j, math.pi - 0.001, _Y1, -1.0, 1.5),  # upward, imaginary a2 and a3
], ids=["large-q", "near-pole", "near-pole-negative-phase", "upward-imaginary"])
def test_bridge_matches_scipy_off_the_oracle_domain(a2, a3, phi, Y, t, t_end):
    end, _ = _bridge(a2, a3, phi, Y, t, t_end)
    ref_end, _ = _scipy_bridge(a2, a3, phi, Y, t, t_end)
    assert np.abs(end - ref_end).max() <= 1e-12 * np.abs(ref_end).max()


def test_zero_span_returns_the_launch_state():
    # a mesh of one point (scipy's DOP853 counts a second, zero-length step)
    end, points = _bridge(2.0 + 0j, 3.0 + 0j, 0.5, _Y2, 0.7, 0.7)
    assert points == 1 and np.array_equal(end, _Y2)


def test_stiff_system_stalls():
    # q = 1e30: the growth-limited step is below 10 ulp of u
    with pytest.raises(ContourError, match="integration stalled"):
        _bridge(1e15 + 0j, 1e15 + 0j, 0.0, np.array([[1.0 + 0j], [1.0 + 0j]]), 1.0, -1.0)


def test_nan_system_stalls_instead_of_looping():
    with pytest.raises(ContourError, match="integration stalled"):
        _bridge(complex(math.nan), 1.0 + 0j, 0.0, np.array([[1.0 + 0j], [0j]]), 1.0, -1.0)


@pytest.mark.parametrize("a3, phi", [(complex(math.nan), 0.0), (2.0 + 0j, math.nan)],
                         ids=["nan-a3", "nan-phase"])
def test_series_that_never_converges_halves_until_it_stalls(a3, phi):
    # a NaN series tail is never below rounding: the halved steps reach 10 ulp of u
    with pytest.raises(ContourError, match="integration stalled"):
        _bridge(1.0 + 0j, a3, phi, np.array([[1.0 + 0j], [0j]]), 1.0, -1.0)


def test_oracle_leaves_scipy_integrate_unloaded():
    # a fresh interpreter runs all three oracle entry points
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = (
        "import sys\n"
        "from wsabsorb.oracle import hermitian_oracle_amplitudes, oracle_amplitudes, "
        "oracle_g_factors\n"
        "from wsabsorb.units import PotentialSpec, Variant\n"
        "oracle_g_factors(PotentialSpec(1.2, 1.8, 1.0), 1.0)\n"
        "oracle_amplitudes(PotentialSpec(1.2, 1.8, 1.0, variant=Variant.TIME_REVERSED), 1.37)\n"
        "hermitian_oracle_amplitudes(1.0, 1.0, 1.0, 1.0)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["False"]
