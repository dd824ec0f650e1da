"""The oracle's own Dormand-Prince 8(5,3) bridge: its tableau, and its mesh
and end states against scipy's ``DOP853`` run on the same contour system."""

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
    DEFAULT_RTOL,
    ContourError,
    _A,
    _B,
    _C,
    _E3,
    _E5,
    _bridge,
    _integrate_core,
    _shapes,
)

from test_oracle import _joint_draws


class TestTableau:
    def test_row_sums_are_nodes(self):
        assert np.abs(_A.sum(axis=1) - _C).max() <= 2e-15

    def test_a_strictly_lower_with_50_entries(self):
        assert not np.triu(_A).any() and np.count_nonzero(_A) == 50

    @pytest.mark.parametrize("k", range(8))
    def test_quadrature_order_8(self, k):
        assert abs(_B @ _C ** k - 1.0 / (k + 1)) <= 2e-15

    def test_not_order_9(self):
        assert abs(_B @ _C ** 8 - 1.0 / 9) > 1e-6

    @pytest.mark.parametrize("weights, order", [(_E5, 5), (_E3, 3)], ids=["E5", "E3"])
    def test_error_weights_vanish_to_their_order(self, weights, order):
        # B minus a method of order p: zero on c^k for k < p, not at k = p
        for k in range(order):
            assert abs(weights @ _C ** k) <= 1e-15
        assert abs(weights @ _C ** order) > 1e-6


def _scipy_bridge(a2, a3, phi, Y, t, t_end):
    """The same integration on scipy's DOP853 with a Python right-hand side:
    end state and mesh point count."""
    y0 = Y.T.ravel()
    swap = np.arange(y0.size) ^ 1  # (psi, dpsi) -> (dpsi, psi) per launch

    def rhs(u, y):
        dy = y[swap]
        dy[1::2] *= a2 * a2 + (a3 * a3 - a2 * a2) / (1.0 + cmath.exp(complex(u, phi)))
        return dy

    solver = DOP853(rhs, t, y0, t_end, rtol=DEFAULT_RTOL, atol=1e-250)
    points = 1
    while solver.status == "running":
        solver.step()
        points += 1
    assert solver.status == "finished"
    return solver.y.reshape(-1, 2).T, points


@pytest.mark.parametrize("launches", [1, 2])
@pytest.mark.parametrize("draw", _joint_draws())
def test_mesh_and_end_states_match_scipy(draw, launches):
    a2, a3, phi, uh, variant = draw
    for shapes in ([(s,) for s in _shapes(variant)] if launches == 1 else [_shapes(variant)]):
        start, end, points = _integrate_core(a2, a3, phi, shapes, uh, -uh)
        ref_end, ref_points = _scipy_bridge(a2, a3, phi, start.reshape(-1, 2).T, uh, -uh)
        assert points == ref_points
        assert np.abs(end - ref_end.T.ravel()).max() <= 1e-12 * np.abs(ref_end).max()


_Y1 = np.array([[1.0 + 0.5j], [0.3 - 1j]])
_Y2 = np.array([[1.0 + 0.5j, -0.2j], [0.3 - 1j, 2.0 + 0j]])


@pytest.mark.parametrize("a2, a3, phi, Y, t, t_end", [
    (300.0 + 0j, 301.0 + 0j, 0.5, _Y1, 0.02, -0.02),  # q ~ 1e5: the 100 h0 initial bound
    (2.0 + 0j, 3.0 + 0j, math.pi - 0.002, _Y2, 1.4, -1.4),  # near a pole line: rejected steps
    (1.0 + 0j, 4.0 + 0j, -(math.pi - 0.0005), _Y2, 1.0, -1.0),
    (0.5j, 2.0j, math.pi - 0.001, _Y1, -1.0, 1.5),  # upward, imaginary a2 and a3
], ids=["large-q", "near-pole", "near-pole-negative-phase", "upward-imaginary"])
def test_bridge_matches_scipy_off_the_oracle_domain(a2, a3, phi, Y, t, t_end):
    end, points = _bridge(a2, a3, phi, Y, t, t_end)
    ref_end, ref_points = _scipy_bridge(a2, a3, phi, Y, t, t_end)
    assert points == ref_points
    assert np.abs(end - ref_end).max() <= 1e-12 * np.abs(ref_end).max()


def test_zero_span_returns_the_launch_state():
    # a mesh of one point (scipy's DOP853 counts a second, zero-length step)
    end, points = _bridge(2.0 + 0j, 3.0 + 0j, 0.5, _Y2, 0.7, 0.7)
    assert points == 1 and np.array_equal(end, _Y2)


def test_stiff_system_stalls():
    # q = 1e30: no step above 10 ulp of u meets the tolerance
    with pytest.raises(ContourError, match="integration stalled"):
        _bridge(1e15 + 0j, 1e15 + 0j, 0.0, np.array([[1.0 + 0j], [1.0 + 0j]]), 1.0, -1.0)


def test_nan_system_stalls_instead_of_looping():
    with pytest.raises(ContourError, match="integration stalled"):
        _bridge(complex(math.nan), 1.0 + 0j, 0.0, np.array([[1.0 + 0j], [0j]]), 1.0, -1.0)


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
