import numpy as np
import pytest

from cgcsurf.errors import DegenerateDenominator, ZeroLambda
from cgcsurf.gauss import MetricField, solve_gauss, umbilic_seed
from cgcsurf.grid import Grid, window_mask
from cgcsurf import lax
from cgcsurf.lax import (
    MaurerCartanData,
    build_uv,
    compute_p,
    frame_csv,
    frame_unitarity_residual,
    integrate_frame,
    reality_residual,
    zero_curvature_residual,
)
from cgcsurf.qdiff import PLANE, QDiff

K = -0.75


@pytest.fixture(scope="module")
def umbilic33():
    grid = Grid.centered_square(0.5, 33)
    return grid, umbilic_seed(K, grid)


def test_zero_lambda_rejected(umbilic33):
    grid, mf = umbilic33
    with pytest.raises(ZeroLambda):
        build_uv(mf, grid, QDiff.zero(), 0.0)


def test_uv_entries_at_origin(umbilic33):
    # at z = 0 the umbilic seed has du = 0, e^{u/2} = sqrt(16/3), sigma = 1/2
    grid, mf = umbilic33
    mc = build_uv(mf, grid, QDiff.zero(), 1.0)
    i, j = grid.base_index
    x = (1.0 + 0.5) / 2.0
    y = (1.0 - 0.5) / 2.0
    e = np.sqrt(16.0 / 3.0)
    u, v = mc.U[i, j], mc.V[i, j]
    assert u[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert u[0, 1] == pytest.approx(1j * x * e, abs=1e-12)
    assert u[1, 0] == 0.0  # Q = 0
    assert v[0, 1] == 0.0
    assert v[1, 0] == pytest.approx(-1j * y * e, abs=1e-12)
    assert np.trace(u) == pytest.approx(0.0, abs=1e-14)
    assert np.trace(v) == pytest.approx(0.0, abs=1e-14)


def test_compute_p_holomorphic_is_small(umbilic33):
    grid, mf = umbilic33
    qs = 0.1 * grid.zmesh
    p = compute_p(mf, qs, grid)
    assert np.max(np.abs(p[grid.interior()])) <= 1e-12


def test_compute_p_antiholomorphic_origin():
    grid = Grid.centered_square(0.5, 33)
    mf = MetricField(u=np.zeros((33, 33)), K=K)
    p = compute_p(mf, np.conj(grid.zmesh), grid)
    i, j = grid.base_index
    assert p[i, j] == pytest.approx(-0.5, abs=1e-12)


def test_compute_p_degenerate_denominator():
    grid = Grid.centered_square(0.5, 33)
    mf = MetricField(u=np.zeros((33, 33)), K=K)
    with pytest.raises(DegenerateDenominator):
        compute_p(mf, np.ones((33, 33), dtype=complex), grid)


def test_flatness_on_solution(umbilic33):
    grid, mf = umbilic33
    mc = build_uv(mf, grid, QDiff.zero(), 1.0)
    r = zero_curvature_residual(mc, grid)
    assert np.max(r[window_mask(grid)]) <= 0.05


def test_flatness_negative_control():
    grid = Grid.centered_square(0.5, 33)
    mf = MetricField(u=np.zeros((33, 33)), K=K)
    qs = np.conj(grid.zmesh)
    mc = build_uv(mf, grid, None, 1.0, p=compute_p(mf, qs, grid), qs=qs)
    assert np.max(zero_curvature_residual(mc, grid)) >= 1e-2


def test_reality_condition_at_special_modulus(umbilic33):
    grid, mf = umbilic33
    lam0 = np.sqrt(3.0)
    assert reality_residual(build_uv(mf, grid, QDiff.zero(), lam0), K) <= 1e-10
    assert reality_residual(build_uv(mf, grid, QDiff.zero(), 1.0), K) >= 1e-2


def test_reality_condition_su2():
    grid = Grid.centered_square(0.2, 17)
    q = QDiff((0j, 0.1 + 0j))
    mf = solve_gauss(q, 3.0, grid)
    assert reality_residual(build_uv(mf, grid, q, np.sqrt(3.0)), 3.0) <= 1e-10


def test_frame_base_identity_and_det(umbilic33):
    grid, mf = umbilic33
    mc = build_uv(mf, grid, QDiff.zero(), 1.0)
    frame = integrate_frame(mc, grid)
    i, j = grid.base_index
    assert np.allclose(frame.psi[i, j], np.eye(2), atol=1e-14)
    det = np.linalg.det(frame.psi)
    assert np.max(np.abs(det - 1.0)) <= 1e-12
    assert not frame.drift_warning


def test_frame_unitarity_at_special_modulus(umbilic33):
    grid, mf = umbilic33
    mc = build_uv(mf, grid, QDiff.zero(), np.sqrt(3.0))
    frame = integrate_frame(mc, grid)
    assert frame_unitarity_residual(frame, K) <= 1e-8
    mc1 = build_uv(mf, grid, QDiff.zero(), 1.0)
    assert frame_unitarity_residual(integrate_frame(mc1, grid), K) >= 1e-2


def test_integration_order_agreement(umbilic33):
    grid, mf = umbilic33
    mc = build_uv(mf, grid, QDiff.zero(), 1.0)
    fr = integrate_frame(mc, grid, order="rows-first")
    fc = integrate_frame(mc, grid, order="columns-first")
    assert np.max(np.abs(fr.psi - fc.psi)) <= 1e-2


def test_frame_csv_shape(umbilic33):
    grid, mf = umbilic33
    mc = build_uv(mf, grid, QDiff.zero(), 1.0)
    frame = integrate_frame(mc, grid)
    lines = frame_csv(frame).splitlines()
    assert lines[0].startswith("i,j,re_a11")
    assert len(lines) == 1 + 33 * 33


def _reference_frame(mc, grid, order):
    """The frame integrator as it stood before `lax._sweep`: four loops."""
    h = grid.h
    ax = mc.U + mc.V
    ay = 1j * (mc.U - mc.V)
    i0, j0 = grid.base_index
    psi = np.zeros_like(mc.U)
    drift = 0.0
    if order == "columns-first":
        first_axis, second_axis = 1, 0
        a_first, a_second = ay, ax
        k0_first, k0_second = j0, i0
    else:
        first_axis, second_axis = 0, 1
        a_first, a_second = ax, ay
        k0_first, k0_second = i0, j0

    def line_index(k):
        return (k, j0) if first_axis == 0 else (i0, k)

    n_first = mc.U.shape[first_axis]
    psi[line_index(k0_first)] = np.eye(2, dtype=complex)
    for k in range(k0_first, n_first - 1):
        p = lax._rk4_step(
            psi[line_index(k)], a_first[line_index(k)], a_first[line_index(k + 1)], h
        )
        p, d = lax._renorm(p)
        drift = max(drift, d)
        psi[line_index(k + 1)] = p
    for k in range(k0_first, 0, -1):
        p = lax._rk4_step(
            psi[line_index(k)], a_first[line_index(k)], a_first[line_index(k - 1)], -h
        )
        p, d = lax._renorm(p)
        drift = max(drift, d)
        psi[line_index(k - 1)] = p

    n_second = mc.U.shape[second_axis]
    a2 = np.moveaxis(a_second, second_axis, 0)
    psi_m = np.moveaxis(psi, second_axis, 0)
    for k in range(k0_second, n_second - 1):
        p, d = lax._renorm(lax._rk4_step(psi_m[k], a2[k], a2[k + 1], h))
        drift = max(drift, d)
        psi_m[k + 1] = p
    for k in range(k0_second, 0, -1):
        p, d = lax._renorm(lax._rk4_step(psi_m[k], a2[k], a2[k - 1], -h))
        drift = max(drift, d)
        psi_m[k - 1] = p
    return psi, drift


@pytest.mark.parametrize("order", ["rows-first", "columns-first"])
@pytest.mark.parametrize(
    "grid",
    [
        Grid.centered_square(0.5, 9),
        Grid(-0.5, 0.5, -0.625, 0.625, 9, 11),
        Grid(-0.625, 0.625, -0.5, 0.5, 11, 9),
        # the base node sits on the x = 0 edge: one sweep direction is empty
        Grid(0.0, 0.5, -0.25, 0.25, 17, 17),
    ],
    ids=["9x9", "9x11", "11x9", "edge-base-17"],
)
def test_integrate_frame_matches_reference_loops(grid, order):
    rng = np.random.default_rng(grid.nx * 100 + grid.ny)
    shape = (grid.nx, grid.ny, 2, 2)
    U, V = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "UV")
    mc = MaurerCartanData(U=U, V=V)
    psi, drift = _reference_frame(mc, grid, order)
    frame = integrate_frame(mc, grid, order=order)
    assert np.array_equal(frame.psi, psi)
    assert frame.det_drift == drift
