import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cgcsurf import gauss
from cgcsurf.errors import DomainViolation, ImmersionViolated, NonConvergence
from cgcsurf.gauss import (
    MetricField,
    default_boundary,
    gauss_residual,
    metric_field_csv,
    ode_oracle,
    sinh_normal_residual,
    solve_gauss,
    umbilic_seed,
)
from cgcsurf.grid import Grid
from cgcsurf.qdiff import PLANE, QDiff

K = -0.75


def test_metric_field_rejects_bad_k():
    with pytest.raises(ValueError):
        MetricField(u=np.zeros((9, 9)), K=-1.5)
    with pytest.raises(ValueError):
        MetricField(u=np.zeros((9, 9)), K=0.0)


def test_umbilic_seed_value_at_origin():
    grid = Grid.centered_square(0.25, 9)
    mf = umbilic_seed(K, grid)
    i, j = grid.base_index
    assert mf.u[i, j] == pytest.approx(np.log(16.0 / 3.0), abs=1e-14)


def test_umbilic_seed_requires_disk():
    with pytest.raises(DomainViolation):
        umbilic_seed(K, Grid.centered_square(0.8, 9))


def test_umbilic_seed_solves_equation_to_h2():
    residuals = []
    for n in (33, 65):
        grid = Grid.centered_square(0.5, n)
        mf = umbilic_seed(K, grid)
        r = gauss_residual(mf, QDiff.zero(), grid)
        residuals.append(np.max(np.abs(r)))
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)


def test_solve_recovers_seed_with_exact_trace():
    grid = Grid.centered_square(0.5, 33)
    seed = umbilic_seed(K, grid)
    mf = solve_gauss(QDiff.zero(), K, grid, bc=seed.u)
    assert np.max(np.abs(mf.u - seed.u)) <= 5e-4


def test_solve_discrete_residual_at_tolerance():
    grid = Grid.centered_square(0.5, 33)
    q = QDiff((0j, 0.1 + 0j))
    mf = solve_gauss(q, K, grid)
    r = gauss_residual(mf, q, grid)
    assert np.max(np.abs(r)) <= 1e-10


def test_positive_curvature_branch_solves():
    grid = Grid.centered_square(0.2, 17)
    mf = solve_gauss(QDiff((0j, 0.1 + 0j)), 3.0, grid)
    assert np.all(np.isfinite(mf.u))


@pytest.mark.parametrize(
    "grid",
    [Grid.centered_square(0.5, 33), Grid(-0.16, 0.16, -0.01, 0.01, 129, 9)],
    ids=["square-33", "strip-129x9"],
)
@pytest.mark.parametrize("c", [-1.5, 0.0, 2.0])
def test_sine_solver_inverts_shifted_laplacian(grid, c):
    op = 0.25 * gauss._interior_laplacian(grid) + c * sp.eye(
        (grid.nx - 2) * (grid.ny - 2)
    )
    v = np.random.default_rng(1).standard_normal(op.shape[0])
    w = gauss._sine_solver(grid, c).matvec(v)
    assert np.linalg.norm(op @ w + v) <= 1e-12 * np.linalg.norm(v)


def test_sine_solver_refuses_indefinite_shift():
    grid = Grid.centered_square(0.6, 33)
    # the largest eigenvalue of lap_h / 4 is (cos(pi/32) - 1) / h^2
    c = (1.0 - np.cos(np.pi / 32)) / grid.h**2
    assert gauss._sine_solver(grid, 0.99 * c) is not None
    assert gauss._sine_solver(grid, 1.01 * c) is None


def test_pcg_step_matches_sparse_lu_step():
    grid = Grid.centered_square(0.5 / np.sqrt(2.0), 65)
    q = QDiff((0j, 0.1 + 0j))
    u = default_boundary(q, K, grid)
    r = gauss_residual(MetricField(u=u, K=K), q, grid)[1:-1, 1:-1].ravel()
    ui = u[1:-1, 1:-1].ravel()
    absq2 = (np.abs(gauss.q_samples(q, grid)) ** 2)[1:-1, 1:-1].ravel()
    diag = 0.5 * K * (np.exp(ui) + absq2 * np.exp(-ui))
    neg_jac = -0.25 * gauss._interior_laplacian(grid) - sp.diags(diag)
    precond = gauss._sine_solver(grid, np.mean(diag))
    step = gauss._newton_step(neg_jac, r, precond)
    ref = spla.spsolve(neg_jac.tocsc(), r)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def test_positive_curvature_falls_back_to_sparse_lu(monkeypatch):
    # on [-0.6, 0.6]^2 the sine operator -(lap/4 + mean(d)) is never definite
    calls = []
    spsolve = spla.spsolve

    def counted(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return spsolve(*args, **kwargs)

    def no_cg(*args, **kwargs):
        raise AssertionError("CG ran without a definite preconditioner")

    monkeypatch.setattr(gauss.spla, "spsolve", counted)
    monkeypatch.setattr(gauss.spla, "cg", no_cg)
    with pytest.raises(NonConvergence, match="residual norm 1.549e"):
        solve_gauss(QDiff((0j, 0.1 + 0j)), 3.0, Grid.centered_square(0.6, 33))
    assert calls == ["MMD_AT_PLUS_A"] * 8


def test_line_search_rejects_overflow_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="overflowed"):
            solve_gauss(QDiff((0j, 0.1 + 0j)), 3.0, Grid.centered_square(0.5, 17))


def test_umbilic_solve_error_at_n129():
    grid = Grid.centered_square(0.5, 129)
    seed = umbilic_seed(K, grid)
    mf = solve_gauss(QDiff.zero(), K, grid, bc=seed.u)
    # the O(h^2) discretisation error: 1.99e-5 with the sparse LU step
    assert np.max(np.abs(mf.u - seed.u)) <= 2.0e-5


def test_immersion_violation_detected():
    # boundary data far below log|Q| forces e^{2u} <= |Q|^2 somewhere
    grid = Grid.centered_square(0.2, 9, )
    q = QDiff.constant(50.0, PLANE)
    bc = np.full((9, 9), -3.0)
    with pytest.raises(ImmersionViolated):
        solve_gauss(q, K, grid, bc=bc)


def test_sinh_normal_form_matches_general_residual():
    grid = Grid.centered_square(0.3, 17)
    mf = MetricField(u=0.1 * grid.zmesh.real, K=K)
    r1 = gauss_residual(mf, QDiff.constant(1.0, PLANE), grid)
    r2 = sinh_normal_residual(mf, grid)
    assert np.max(np.abs(r1 - r2)) <= 1e-13


def test_default_boundary_umbilic_limit():
    grid = Grid.centered_square(0.25, 9)
    b = default_boundary(QDiff.zero(), K, grid)
    seed = umbilic_seed(K, grid)
    assert np.allclose(b, seed.u, atol=1e-12)


def test_ode_oracle_frozen_profile():
    sol = ode_oracle(1.0, K, (-0.16, 0.16), (0.5, 0.5))
    assert float(sol.sol(0.0)[0]) == pytest.approx(0.4806848016867676, abs=1e-9)
    assert float(sol.sol(0.08)[0]) == pytest.approx(0.4854877299330067, abs=1e-9)


def test_metric_field_csv_header_and_rows():
    grid = Grid.centered_square(0.25, 9)
    mf = umbilic_seed(K, grid)
    text = metric_field_csv(mf, grid)
    lines = text.splitlines()
    assert lines[0] == "i,j,x,y,u"
    assert len(lines) == 1 + 81
