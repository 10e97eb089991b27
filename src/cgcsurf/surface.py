"""Surface reconstruction from frames and curvature/form diagnostics.

f = Psi e0 Psi*, n = Psi e1 Psi*. All numeric fundamental forms use centered
differences; the boundary ring is excluded from diagnostics.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import sqrtm

from . import qdiff as qd
from .errors import DegenerateMetric, HyperboloidDrift, NotInvariant
from .grid import d_z, d_zbar, grad_x, grad_y
from .lax import build_uv, integrate_frame
from .minkowski import E1, mink_from_herm, mink_pairing

MINK_J = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class SurfaceData:
    """Per-node immersion f and unit normal n (2x2 Hermitian arrays)."""

    f: np.ndarray
    n: np.ndarray
    lam: complex
    det_residual: float
    normal_residual: float


def build_surface(frame, drift_tol=1e-6):
    psi = frame.psi
    pst = np.conj(np.swapaxes(psi, -1, -2))
    f = psi @ pst
    n = psi @ E1 @ pst
    det_f = f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0]
    det_res = float(np.max(np.abs(det_f - 1.0)))
    if det_res > drift_tol:
        raise HyperboloidDrift(f"max |det f - 1| = {det_res:.3e}")
    nres = max(
        float(np.max(np.abs(mink_pairing(f, n)))),
        float(np.max(np.abs(mink_pairing(n, n) - 1.0))),
    )
    return SurfaceData(
        f=f, n=n, lam=frame.lam, det_residual=det_res, normal_residual=nres
    )


@dataclass(frozen=True)
class NumericForms:
    """Numeric fundamental form data on the grid (boundary ring invalid)."""

    q_num: np.ndarray  # <df, df> dz^2 coefficient
    m_num: np.ndarray  # -<dbar f, dz n>
    I_mat: np.ndarray  # real 2x2 Gram of (f_x, f_y)
    II_mat: np.ndarray  # real 2x2 of -<df, dn>, symmetrized
    III_mat: np.ndarray  # real 2x2 Gram of (n_x, n_y)


def fundamental_forms_numeric(s, grid):
    f, n = s.f, s.n
    df = d_z(f, grid)
    dbf = d_zbar(f, grid)
    dn = d_z(n, grid)

    q_num = mink_pairing(df, df)
    m_num = (-mink_pairing(dbf, dn)).real

    fx, fy = grad_x(f, grid), grad_y(f, grid)
    nx, ny = grad_x(n, grid), grad_y(n, grid)
    shape = f.shape[:2]
    I_mat = np.zeros(shape + (2, 2))
    II_mat = np.zeros(shape + (2, 2))
    III_mat = np.zeros(shape + (2, 2))
    for a, da in enumerate((fx, fy)):
        for b, db in enumerate((fx, fy)):
            I_mat[..., a, b] = mink_pairing(da, db).real
    for a, da in enumerate((nx, ny)):
        for b, db in enumerate((nx, ny)):
            III_mat[..., a, b] = mink_pairing(da, db).real
    for a, da in enumerate((fx, fy)):
        for b, db in enumerate((nx, ny)):
            II_mat[..., a, b] = -mink_pairing(da, db).real
    II_mat = 0.5 * (II_mat + np.swapaxes(II_mat, -1, -2))
    return NumericForms(
        q_num=q_num,
        m_num=m_num,
        I_mat=I_mat,
        II_mat=II_mat,
        III_mat=III_mat,
    )


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def curvature(forms, grid):
    """K = -1 + det II / det I from the numeric real-coordinate forms."""
    det1 = _det2(forms.I_mat)
    interior = grid.interior()
    if np.any(det1[interior] <= 0):
        raise DegenerateMetric("det I <= 0 at an interior node")
    k = np.full(det1.shape, np.nan)
    k[interior] = -1.0 + _det2(forms.II_mat)[interior] / det1[interior]
    return k


def mean_curvature(forms, grid):
    """H = (1/2) tr(I^{-1} II)."""
    det1 = _det2(forms.I_mat)
    interior = grid.interior()
    if np.any(det1[interior] <= 0):
        raise DegenerateMetric("det I <= 0 at an interior node")
    i, ii = forms.I_mat, forms.II_mat
    num = (
        i[..., 0, 0] * ii[..., 1, 1]
        + i[..., 1, 1] * ii[..., 0, 0]
        - 2.0 * i[..., 0, 1] * ii[..., 0, 1]
    )
    h = np.full(det1.shape, np.nan)
    h[interior] = 0.5 * num[interior] / det1[interior]
    return h


def printed_mean_curvature(mf, q, grid):
    """The alternative closed form sigma (e^{2u}+|Q|^2) / (2 (e^{2u}-|Q|^2)).

    Retained for the verification report; it disagrees with the relation
    III = 2H II - (K+1) I by a factor of 2 at Q = 0 (the report prints both).
    """
    absq2 = np.abs(qd.eval_q(q, grid.zmesh)) ** 2
    e2u = np.exp(2.0 * mf.u)
    return mf.sigma * (e2u + absq2) / (2.0 * (e2u - absq2))


def form_identity_residual(forms, k_num, h_num, grid, mask=None):
    """Max interior residual of III - 2 H II + (K+1) I (real 2x2 norm)."""
    interior = grid.interior() if mask is None else mask
    r = (
        forms.III_mat
        - 2.0 * h_num[..., None, None] * forms.II_mat
        + (k_num + 1.0)[..., None, None] * forms.I_mat
    )
    norms = np.linalg.norm(r, axis=(-2, -1))
    return float(np.max(norms[interior]))


def klotz_recover(s, grid, field=False):
    """Recovered Q_num = <df, df> and its discrete dbar residual.

    The dbar residual is evaluated on the depth-2 interior (differencing the
    already one-ring-invalid Q_num field). field=True returns the full
    residual array instead of its max.
    """
    df = d_z(s.f, grid)
    q_num = mink_pairing(df, df)
    dbar_q = d_zbar(q_num, grid)
    if field:
        return q_num, dbar_q
    inner2 = grid.interior(depth=2)
    return q_num, float(np.max(np.abs(dbar_q[inner2])))


def associated_family(mf, grid, q, lam_count):
    """Surfaces at the unit roots lam_k = exp(2 pi i k / lam_count)."""
    if lam_count < 1:
        raise ValueError("lam_count must be >= 1")
    out = []
    for k in range(lam_count):
        lam = np.exp(2j * np.pi * k / lam_count)
        mc = build_uv(mf, grid, q, lam)
        frame = integrate_frame(mc, grid)
        out.append(build_surface(frame))
    return out


def weak_metric(mf, q, grid):
    """Closed-form weak-metric coefficient 2 (e^u + |Q|^2 e^{-u})."""
    absq2 = np.abs(qd.eval_q(q, grid.zmesh)) ** 2
    return 2.0 * (np.exp(mf.u) + absq2 * np.exp(-mf.u))


def weak_metric_numeric(s, k, grid):
    """dz dzbar coefficient of numeric I + (1/(1+K)) III."""
    df = d_z(s.f, grid)
    dbf = d_zbar(s.f, grid)
    dn = d_z(s.n, grid)
    dbn = d_zbar(s.n, grid)
    return (
        2.0 * mink_pairing(df, dbf).real
        + 2.0 / (1.0 + k) * mink_pairing(dn, dbn).real
    )


_DIRECTIONS = {"+x": (1, 0), "-x": (-1, 0), "+y": (0, 1), "-y": (0, -1)}


def radial_length(mf, q, grid, direction="+x", metric="weak"):
    """Trapezoidal length of the grid ray from z* to the boundary.

    metric = "weak" integrates sqrt(2 (e^u + |Q|^2 e^{-u})) |dz|; metric =
    "conformal" integrates e^{u/2} |dz| (the metric e^u dz dzbar whose
    completeness is equivalent to weak completeness).
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {sorted(_DIRECTIONS)}")
    di, dj = _DIRECTIONS[direction]
    i, j = grid.base_index
    idx = []
    while 0 <= i < grid.nx and 0 <= j < grid.ny:
        idx.append((i, j))
        i, j = i + di, j + dj
    ii = np.array([t[0] for t in idx])
    jj = np.array([t[1] for t in idx])
    if metric == "weak":
        absq2 = np.abs(qd.eval_q(q, grid.zmesh[ii, jj])) ** 2
        integrand = np.sqrt(2.0 * (np.exp(mf.u[ii, jj]) + absq2 * np.exp(-mf.u[ii, jj])))
    elif metric == "conformal":
        integrand = np.exp(mf.u[ii, jj] / 2.0)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return float(np.trapezoid(integrand, dx=grid.h))


def _rotation_images(grid, n_fold):
    """Rotated node coordinates and, when exact, the node permutation."""
    w = np.exp(2j * np.pi / n_fold)
    z = grid.zmesh
    zr = w * z
    # exact node mapping for half and quarter turns on a centered square grid
    square = (
        abs(grid.x_min + grid.x_max) < 1e-14
        and abs(grid.y_min + grid.y_max) < 1e-14
        and grid.nx == grid.ny
        and abs((grid.x_max - grid.x_min) - (grid.y_max - grid.y_min)) < 1e-14
    )
    if square and n_fold == 2:
        # f(-z_{ij}) lives at node (nx-1-i, ny-1-j)
        return zr, lambda a: a[::-1, ::-1]
    if square and n_fold == 4:
        # f(i z_{ij}) lives at node (nx-1-j, i)
        return zr, lambda a: a[::-1, :].T
    return zr, None


def equivariance_check(s, mf, q, grid, n_fold, tol=1e-10):
    """Fit a Minkowski isometry rho with f(gamma z) = rho f(z); max residual.

    gamma is the rotation z -> exp(2 pi i / n_fold) z; requires the
    differential to be gamma-invariant: Q(gamma z) gamma'^2 = Q(z).
    """
    w = np.exp(2j * np.pi / n_fold)
    z = grid.zmesh
    qv = np.asarray(qd.eval_q(q, z), dtype=complex)
    # transformation rule of a quadratic differential under z -> w z
    qrot = np.asarray(qd.eval_q(q, w * z), dtype=complex) * w**2
    if np.max(np.abs(qrot - qv)) > 1e-8 * (1.0 + np.max(np.abs(qv))):
        raise NotInvariant(
            f"Q dz^2 is not invariant under the {n_fold}-fold rotation"
        )

    pts = mink_from_herm(s.f)
    zr, perm = _rotation_images(grid, n_fold)
    if perm is not None:
        rotated = np.stack(
            [perm(pts[..., k]) for k in range(4)], axis=-1
        )
        mask = np.ones(z.shape, dtype=bool)
    else:
        rotated, mask = _bilinear_rotate(pts, zr, grid)

    a = pts[mask].reshape(-1, 4).T
    b = rotated[mask].reshape(-1, 4).T
    rho = _mink_procrustes(a, b)
    fit = rho @ a - b
    resid = float(np.max(np.linalg.norm(fit, axis=0)))
    return resid, rho


def _bilinear_rotate(pts, zr, grid):
    xs, ys, h = grid.xs, grid.ys, grid.h
    xi = (zr.real - xs[0]) / h
    yi = (zr.imag - ys[0]) / h
    mask = (xi >= 0) & (xi <= grid.nx - 1) & (yi >= 0) & (yi <= grid.ny - 1)
    i0 = np.clip(np.floor(xi).astype(int), 0, grid.nx - 2)
    j0 = np.clip(np.floor(yi).astype(int), 0, grid.ny - 2)
    tx = np.clip(xi - i0, 0.0, 1.0)[..., None]
    ty = np.clip(yi - j0, 0.0, 1.0)[..., None]
    p00 = pts[i0, j0]
    p10 = pts[i0 + 1, j0]
    p01 = pts[i0, j0 + 1]
    p11 = pts[i0 + 1, j0 + 1]
    interp = (
        (1 - tx) * (1 - ty) * p00
        + tx * (1 - ty) * p10
        + (1 - tx) * ty * p01
        + tx * ty * p11
    )
    return interp, mask


def _mink_procrustes(a, b):
    """Best-fit map in O(1,3) with rho a ~ b, via indefinite polar projection.

    Fits the unconstrained least-squares map first, then projects onto the
    J-orthogonal group with S = (J T^T J T)^{1/2}, rho = T S^{-1}. Prefers the
    orthochronous, determinant +1 component when the data allows it.
    """
    t, *_ = np.linalg.lstsq(a.T, b.T, rcond=None)
    t = t.T
    w = MINK_J @ t.T @ MINK_J @ t
    sq = np.real(sqrtm(w))
    rho = t @ np.linalg.inv(sq)
    return rho
