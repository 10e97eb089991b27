"""Gauss equation solver for constant-curvature metric data.

Solves the elliptic PDE  (1/4) lap(u) + (K/2)(e^u - |Q|^2 e^{-u}) = 0 on a
rectangular grid with Dirichlet boundary data, by damped Newton iteration.
Each Newton step is solved by conjugate gradients preconditioned with a fast
sine transform (Concus & Golub, SIAM J. Numer. Anal. 1973). Also provides
the exact totally-umbilic seed solution and an independent 1-D two-point
boundary value oracle for constant Q.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn
from scipy.integrate import solve_bvp

from . import qdiff as qd
from .errors import DomainViolation, ImmersionViolated, NonConvergence
from .grid import laplacian5
from .serialize import _grid_table

RESIDUAL_TOL = 1e-10
MAX_NEWTON_ITERS = 100
MAX_HALVINGS = 30
CG_RTOL = 1e-12
CG_MAXITER = 50


@dataclass(frozen=True)
class MetricField:
    """Metric data u on a grid together with the target curvature K."""

    u: np.ndarray
    K: float
    sigma: float = field(init=False)

    def __post_init__(self):
        if not (-1.0 < self.K < 0.0 or self.K > 0.0):
            raise ValueError(f"K = {self.K} outside (-1,0) u (0,inf)")
        sigma = float(np.sqrt(1.0 + self.K))
        assert abs(sigma**2 - (1.0 + self.K)) <= 1e-14 * (1.0 + abs(self.K))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


def q_samples(q, grid):
    """Q evaluated at all grid nodes."""
    return np.asarray(qd.eval_q(q, grid.zmesh), dtype=complex)


def gauss_residual(mf, q, grid, qs=None):
    """(1/4) lap_h u + (K/2)(e^u - |Q|^2 e^{-u}); zero on the boundary ring."""
    if qs is None:
        qs = q_samples(q, grid)
    u = mf.u
    r = 0.25 * laplacian5(u, grid) + 0.5 * mf.K * (
        np.exp(u) - np.abs(qs) ** 2 * np.exp(-u)
    )
    r[0, :] = r[-1, :] = 0.0
    r[:, 0] = r[:, -1] = 0.0
    return r


def sinh_normal_residual(mf, grid):
    """(1/4) lap_h u + K sinh(u); the Q = 1 normal form of the Gauss equation."""
    r = 0.25 * laplacian5(mf.u, grid) + mf.K * np.sinh(mf.u)
    r[0, :] = r[-1, :] = 0.0
    r[:, 0] = r[:, -1] = 0.0
    return r


def umbilic_seed(K, grid):
    """Exact solution u = log((4/|K|)(1-|z|^2)^{-2}) for Q = 0, -1 < K < 0."""
    if not -1.0 < K < 0.0:
        raise ValueError("umbilic seed requires -1 < K < 0")
    if grid.max_radius >= 1.0:
        raise DomainViolation("grid touches or leaves the unit disk")
    r2 = np.abs(grid.zmesh) ** 2
    u = np.log(4.0 / abs(K)) - 2.0 * np.log1p(-r2)
    return MetricField(u=u, K=K)


def default_boundary(q, K, grid):
    """Heuristic Dirichlet data log((4/|K|)(1-|z|^2)^{-2} + |Q|).

    Interpolates between the umbilic regime (Q -> 0) and the balance regime
    e^u ~ |Q|. Falls back to log(4/|K| + |Q|) when the grid is not inside the
    unit disk. This is a modeling choice, not a prescription.
    """
    z = grid.zmesh
    absq = np.abs(qd.eval_q(q, z))
    if grid.max_radius < 1.0:
        base = (4.0 / abs(K)) * (1.0 - np.abs(z) ** 2) ** -2
    else:
        base = 4.0 / abs(K)
    return np.log(base + absq)


def _interior_laplacian(grid):
    """Sparse 5-point Laplacian on interior nodes, Dirichlet elimination."""
    nxi, nyi = grid.nx - 2, grid.ny - 2
    h2 = grid.h**2
    ix = sp.eye(nxi)
    iy = sp.eye(nyi)
    d1x = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nxi, nxi))
    d1y = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nyi, nyi))
    return (sp.kron(d1x, iy) + sp.kron(ix, d1y)).tocsr() / h2


def _sine_solver(grid, c):
    """Exact inverse of -(0.25 lap_h + c I) on interior nodes, by DST-I.

    The sine modes diagonalise `_interior_laplacian(grid)`. Returns a
    LinearOperator, or None when the operator is not negative definite
    (possible only for c > 0).
    """

    def second_difference(n):
        k = np.arange(1, n + 1)
        return (2.0 * np.cos(np.pi * k / (n + 1)) - 2.0) / grid.h**2

    shifted = c + 0.25 * (
        second_difference(grid.nx - 2)[:, None]
        + second_difference(grid.ny - 2)[None, :]
    )
    if shifted.max() >= 0.0:
        return None

    def solve(v):
        w = dstn(v.reshape(shifted.shape), type=1, norm="ortho")
        return -idstn(w / shifted, type=1, norm="ortho").ravel()

    n = shifted.size
    return spla.LinearOperator((n, n), matvec=solve, dtype=float)


def _newton_step(neg_jac, r, precond):
    """Solve neg_jac @ step = r, where neg_jac = -J is the negated Jacobian.

    CG preconditioned by the sine solver `precond`. -J is symmetric positive
    definite for K < 0, but need not be for K > 0; a step CG cannot take
    ends the solve.
    """
    if precond is None:
        raise NonConvergence(
            "Newton step: the sine preconditioner -(lap_h/4 + mean(d)) "
            "is not positive definite"
        )
    step, info = spla.cg(
        neg_jac, r, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER, M=precond
    )
    if info != 0:
        raise NonConvergence(
            f"Newton step: preconditioned CG did not converge (info = {info})"
        )
    return step


def solve_gauss(q, K, grid, bc=None, tol=RESIDUAL_TOL):
    """Damped Newton solve of the Gauss equation with Dirichlet data `bc`.

    bc is a full-grid array whose boundary ring supplies the Dirichlet data
    (interior values seed the iteration), or None for the default heuristic.
    """
    if not (-1.0 < K < 0.0 or K > 0.0):
        raise ValueError(f"K = {K} outside (-1,0) u (0,inf)")
    qs = q_samples(q, grid)
    if bc is None:
        u = default_boundary(q, K, grid)
    else:
        u = np.array(bc, dtype=float)
        if u.shape != (grid.nx, grid.ny):
            raise ValueError("boundary data must be a full-grid array")
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite boundary data")

    neg_lap = -0.25 * _interior_laplacian(grid)
    absq2 = (np.abs(qs) ** 2)[1:-1, 1:-1].ravel()

    def residual(ufull):
        # a trial step may overflow exp(u) or the norm; it is then rejected
        with np.errstate(over="ignore", invalid="ignore"):
            r = gauss_residual(MetricField(u=ufull, K=K), q, grid, qs=qs)
            return r, np.linalg.norm(r)

    r, rnorm = residual(u)
    for _ in range(MAX_NEWTON_ITERS):
        if np.max(np.abs(r)) <= tol:
            break
        ui = u[1:-1, 1:-1].ravel()
        diag = 0.5 * K * (np.exp(ui) + absq2 * np.exp(-ui))
        neg_jac = neg_lap - sp.diags(diag)
        step = _newton_step(
            neg_jac, r[1:-1, 1:-1].ravel(), _sine_solver(grid, float(np.mean(diag)))
        )
        # Armijo backtracking on the residual 2-norm
        t = 1.0
        overflowed = False
        for _ in range(MAX_HALVINGS):
            u_try = u.copy()
            u_try[1:-1, 1:-1] += t * step.reshape(grid.nx - 2, grid.ny - 2)
            r_try, rnorm_try = residual(u_try)
            if not np.isfinite(rnorm_try):
                overflowed = True
            elif rnorm_try < (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:
            raise NonConvergence(
                f"line search failed at residual norm {rnorm:.3e}"
                + (" (a trial step overflowed)" if overflowed else "")
            )
        u, r, rnorm = u_try, r_try, rnorm_try
    else:
        raise NonConvergence(
            f"Newton iteration cap reached, max residual {np.max(np.abs(r)):.3e}"
        )

    mf = MetricField(u=u, K=K)
    if np.any(np.exp(2.0 * u) <= np.abs(qs) ** 2):
        raise ImmersionViolated("solution touches e^{2u} = |Q|^2")
    return mf


def ode_oracle(c, K, x_range, bc):
    """Independent 1-D oracle: (1/4) u'' + (K/2)(e^u - c^2 e^{-u}) = 0.

    Solves the two-point boundary value problem on x_range = (a, b) with
    u(a), u(b) = bc by collocation (scipy.solve_bvp). Returns the solution
    object; call `.sol(x)[0]` for the profile.
    """
    if c <= 0:
        raise ValueError("constant |Q| must be positive")
    a, b = x_range
    ua, ub = bc

    def rhs(x, y):
        return np.vstack([y[1], -2.0 * K * (np.exp(y[0]) - c**2 * np.exp(-y[0]))])

    def bcres(ya, yb):
        return np.array([ya[0] - ua, yb[0] - ub])

    x0 = np.linspace(a, b, 201)
    y0 = np.vstack([np.linspace(ua, ub, x0.size), np.zeros(x0.size)])
    sol = solve_bvp(rhs, bcres, x0, y0, tol=1e-11, max_nodes=200000)
    if not sol.success or np.max(sol.rms_residuals) > 1e-10:
        raise NonConvergence(f"BVP oracle did not converge: {sol.message}")
    return sol


def metric_field_csv(mf, grid):
    """CSV serialization: header i,j,x,y,u, row-major, 17 significant digits."""
    return _grid_table(grid, "i,j,x,y,u", "%.17g", [mf.u])
