import numpy as np
import pytest

from cgcsurf.errors import DegenerateMetric, HyperboloidDrift, NotInvariant
from cgcsurf.gauss import MetricField, solve_gauss, umbilic_seed
from cgcsurf.grid import Grid, window_mask
from cgcsurf.lax import build_uv, integrate_frame
from cgcsurf.minkowski import E1, mink_pairing
from cgcsurf.qdiff import PLANE, QDiff
from cgcsurf.surface import (
    SurfaceData,
    build_surface,
    curvature,
    curvature_error,
    equivariance_check,
    form_identity_residual,
    fundamental_forms_numeric,
    ii_deviation,
    klotz_dbar,
    klotz_recover,
    mean_curvature,
    printed_mean_curvature,
    radial_length,
    weak_metric,
    weak_metric_numeric,
)

K = -0.75
Q_SLOPE = QDiff((0j, 0.1 + 0j))


@pytest.fixture(scope="module")
def slope33():
    grid = Grid.centered_square(0.5, 33)
    mf = solve_gauss(Q_SLOPE, K, grid)
    frame = integrate_frame(build_uv(mf, grid, Q_SLOPE, 1.0), grid)
    return grid, mf, build_surface(frame)


def test_surface_lies_on_hyperboloid(slope33):
    _, _, s = slope33
    assert np.max(np.abs(mink_pairing(s.f, s.f).real + 1.0)) <= 1e-8
    assert np.max(np.abs(mink_pairing(s.n, s.n).real - 1.0)) <= 1e-8
    assert np.max(np.abs(mink_pairing(s.f, s.n).real)) <= 1e-8


def test_hyperboloid_drift_detected(slope33):
    grid, mf, _ = slope33
    frame = integrate_frame(build_uv(mf, grid, Q_SLOPE, 1.0), grid)
    bad = frame.__class__(psi=frame.psi * 1.01, det_drift=frame.det_drift)
    with pytest.raises(HyperboloidDrift):
        build_surface(bad)


def test_constant_surface_has_degenerate_metric():
    # f = e0 and n = e1 at every node: df = 0, so I = 0
    grid = Grid.centered_square(0.5, 9)
    f = np.zeros((9, 9, 2, 2), dtype=complex)
    f[...] = np.eye(2)
    forms = fundamental_forms_numeric(SurfaceData(f=f, n=f @ E1), grid)
    with pytest.raises(DegenerateMetric):
        curvature(forms, grid)
    with pytest.raises(DegenerateMetric):
        mean_curvature(forms, grid)


def test_curvature_near_target(slope33):
    grid, _, s = slope33
    forms = fundamental_forms_numeric(s, grid)
    k = curvature(forms, grid)
    win = window_mask(grid, depth=1)
    assert curvature_error(k, K, grid) == np.max(np.abs(k[win] - K))
    assert curvature_error(k, K, grid) <= 5e-3


def test_mean_curvature_vs_closed_form(slope33):
    grid, mf, s = slope33
    forms = fundamental_forms_numeric(s, grid)
    h = mean_curvature(forms, grid)
    # closed form with the derived normalization: 2x the printed expression
    h_closed = 2.0 * printed_mean_curvature(mf, Q_SLOPE, grid)
    win = window_mask(grid, depth=1)
    assert np.max(np.abs((h - h_closed)[win])) <= 5e-3


def test_form_identity(slope33):
    grid, _, s = slope33
    forms = fundamental_forms_numeric(s, grid)
    k = curvature(forms, grid)
    h = mean_curvature(forms, grid)
    assert form_identity_residual(forms, k, h, grid) <= 1e-4


def test_klotz_recovery(slope33):
    grid, _, s = slope33
    q_num, dbar = klotz_recover(s, grid)
    win = window_mask(grid, 0.8, depth=1)
    assert np.max(np.abs((q_num - 0.1 * grid.zmesh)[win])) <= 2e-2
    # the recovered differential is the one the forms carry
    assert np.array_equal(q_num, fundamental_forms_numeric(s, grid).q_num)
    # the window drops the corner layer that the depth-2 interior keeps
    assert klotz_dbar(q_num, grid) <= dbar


def test_family_q_flips_sign_at_i(slope33):
    grid, mf, s = slope33
    base = fundamental_forms_numeric(s, grid)  # lam = 1
    frame = integrate_frame(build_uv(mf, grid, Q_SLOPE, 1j), grid)
    forms = fundamental_forms_numeric(build_surface(frame), grid)
    win = window_mask(grid, 0.8, depth=1)
    target = -0.1 * grid.zmesh
    assert np.max(np.abs((forms.q_num - target)[win])) <= 2e-2
    # while II stays put
    assert ii_deviation(base, base, grid) == 0.0
    assert ii_deviation(base, forms, grid) <= 2e-2


def test_weak_metric_umbilic_closed_form():
    grid = Grid.centered_square(0.4, 17)
    mf = umbilic_seed(K, grid)
    w = weak_metric(mf, QDiff.zero(), grid)
    assert np.allclose(w, 2.0 * np.exp(mf.u), atol=1e-12)


def test_weak_metric_balance_form():
    # u = log c + delta with Q = c: coefficient 4 c cosh(delta)
    grid = Grid.centered_square(0.4, 17)
    c, delta = 2.0, 0.3
    mf = MetricField(u=np.full((17, 17), np.log(c) + delta), K=K)
    w = weak_metric(mf, QDiff.constant(c, PLANE), grid)
    assert np.allclose(w, 4.0 * c * np.cosh(delta), atol=1e-12)


def test_weak_metric_numeric_match(slope33):
    grid, mf, s = slope33
    closed = weak_metric(mf, Q_SLOPE, grid)
    numeric = weak_metric_numeric(s, K, grid)
    win = window_mask(grid, depth=1)
    # the coefficient itself is O(10) here; 0.3 is a small relative error
    assert np.max(np.abs((closed - numeric)[win])) <= 0.3


def test_radial_length_flat_strip():
    grid = Grid(0.0, 0.5, -0.25, 0.25, 9, 9)
    mf = MetricField(u=np.zeros((9, 9)), K=K)
    l = radial_length(mf, QDiff.zero(PLANE), grid, metric="weak")
    assert l == pytest.approx(np.sqrt(2.0) * 0.5, abs=1e-12)


def test_equivariance_umbilic_quarter_turn():
    grid = Grid.centered_square(0.5, 33)
    mf = umbilic_seed(K, grid)
    frame = integrate_frame(build_uv(mf, grid, QDiff.zero(), 1.0), grid)
    s = build_surface(frame)
    resid, rho = equivariance_check(s, mf, QDiff.zero(), grid, 4)
    assert resid <= 5e-2
    # rho is a Lorentz matrix: rho^T J rho = J
    j = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.max(np.abs(rho.T @ j @ rho - j)) <= 1e-6


def test_equivariance_rejects_rotation_off_the_nodes():
    # a quarter turn does not map the nodes of a 2:1 rectangle to nodes
    grid = Grid(-0.5, 0.5, -0.25, 0.25, 33, 17)
    mf = umbilic_seed(K, grid)
    s = build_surface(integrate_frame(build_uv(mf, grid, QDiff.zero(), 1.0), grid))
    with pytest.raises(ValueError, match="4-fold rotation"):
        equivariance_check(s, mf, QDiff.zero(), grid, 4)


def test_equivariance_rejects_non_invariant_q(slope33):
    grid, mf, s = slope33
    with pytest.raises(NotInvariant):
        equivariance_check(s, mf, Q_SLOPE, grid, 2)
