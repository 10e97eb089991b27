import numpy as np
import pytest

from cgcsurf.errors import OnUnitCircle, OutOfRange
from cgcsurf.gauss import MetricField, solve_gauss, umbilic_seed
from cgcsurf.gaussmap import (
    converse_rescale,
    energy_check,
    harmonicity_residual,
    lagrangian_map,
    lambda0,
    legendrian_tangency,
    project,
)
from cgcsurf.grid import Grid, d_z, d_zbar
from cgcsurf.lax import build_uv, integrate_frame
from cgcsurf.qdiff import QDiff
from cgcsurf.surface import build_surface

K = -0.75


def test_lambda0_values():
    assert lambda0(-0.75) == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert lambda0(3.0) == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert lambda0(-0.5) == pytest.approx(np.sqrt(2.0) + 1.0, abs=1e-12)


def test_lambda0_out_of_range():
    for k in (0.0, -1.0, -2.0):
        with pytest.raises(OutOfRange):
            lambda0(k)


@pytest.fixture(scope="module")
def umbilic_map():
    grid = Grid.centered_square(0.5, 33)
    mf = umbilic_seed(K, grid)
    lam0 = lambda0(K)
    frame = integrate_frame(build_uv(mf, grid, QDiff.zero(), lam0), grid)
    return grid, mf, lagrangian_map(frame)


def test_lagrangian_square_residual(umbilic_map):
    _, _, L = umbilic_map
    sq = L @ L + np.eye(2)  # L^2 = -I
    assert np.max(np.linalg.norm(sq, axis=(-2, -1))) <= 1e-10


def test_disk_projection_center_and_jacobian(umbilic_map):
    grid, _, L = umbilic_map
    w = project(L, K)
    i, j = grid.base_index
    assert abs(w[i, j]) <= 1e-10
    assert np.max(np.abs(w)) < 1.0
    # |dz w|^2 - |dbar w|^2 > 0: z -> w is a local diffeomorphism
    jac = np.abs(d_z(w, grid)) ** 2 - np.abs(d_zbar(w, grid)) ** 2
    assert np.all(jac[grid.interior()] > 0.0)


def test_energy_closed_forms(umbilic_map):
    grid, mf, L = umbilic_map
    er = energy_check(L, mf, QDiff.zero(), grid)
    assert er.holomorphic_residual <= 0.05
    assert er.mixed_residual <= 0.1


def test_harmonicity_small_for_holomorphic():
    grid = Grid.centered_square(0.5, 33)
    mf = umbilic_seed(K, grid)
    torsion, tension = harmonicity_residual(mf, grid, q=QDiff.zero())
    assert torsion <= 1e-13
    assert tension <= 0.1


def test_harmonicity_large_for_antiholomorphic():
    grid = Grid.centered_square(0.5, 33)
    mf = MetricField(u=np.zeros((33, 33)), K=K)
    _, tension = harmonicity_residual(mf, grid, qs=np.conj(grid.zmesh))
    assert tension >= 1e-2


def test_converse_round_trip_values():
    for k in (-0.9, -0.5, -0.25, -0.1, 0.5, 3.0):
        _, _, k_back = converse_rescale(
            np.zeros((9, 9)), QDiff.constant(1.0), lambda0(k), sphere=k > 0
        )
        assert k_back == pytest.approx(k, abs=1e-12)


def test_converse_rescale_factors():
    r = 2.0
    u, q, k = converse_rescale(np.zeros((9, 9)), QDiff.constant(1.0), r)
    factor = (1.0 + r**2) / (2.0 * r)
    assert np.allclose(u, 2.0 * np.log(factor), atol=1e-14)
    assert q.coeffs[0] == pytest.approx(factor**2, abs=1e-14)
    assert k == pytest.approx(-((2.0 * r / (r**2 + 1.0)) ** 2), abs=1e-14)


def test_converse_rejects_unit_circle_and_interior():
    seed = (np.zeros((9, 9)), QDiff.constant(1.0))
    with pytest.raises(OnUnitCircle):
        converse_rescale(*seed, 1.0)
    with pytest.raises(OutOfRange):
        converse_rescale(*seed, 0.5)


def test_legendrian_tangency_small():
    grid = Grid.centered_square(0.5, 33)
    mf = umbilic_seed(K, grid)
    frame = integrate_frame(build_uv(mf, grid, QDiff.zero(), 1.0), grid)
    s = build_surface(frame)
    assert legendrian_tangency(s, grid) <= 0.05
