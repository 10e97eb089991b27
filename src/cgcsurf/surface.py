"""Surface reconstruction from frames and curvature/form diagnostics.

f = Psi e0 Psi*, n = Psi e1 Psi*. All numeric fundamental forms use centered
differences; the boundary ring is excluded from diagnostics. The diagnostics
that `pipeline` and `verify` both report are defined here once, each on the
window of `grid.window_mask`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import sqrtm

from . import qdiff as qd
from .errors import DegenerateMetric, HyperboloidDrift, NotInvariant
from .grid import d_z, d_zbar, grad_x, grad_y, window_mask
from .minkowski import _det, _entries, _pack, mink_from_herm, mink_pairing

MINK_J = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class SurfaceData:
    """Per-node immersion f and unit normal n (2x2 Hermitian arrays)."""

    f: np.ndarray
    n: np.ndarray


def build_surface(frame):
    # f = Psi Psi* and n = Psi e1 Psi* from the entries of Psi = [[a, b], [c, d]],
    # so both come out exactly Hermitian
    a, b, c, d = _entries(frame.psi)
    aa = a.real**2 + a.imag**2
    bb = b.real**2 + b.imag**2
    cc = c.real**2 + c.imag**2
    dd = d.real**2 + d.imag**2
    ac = a * np.conj(c)
    bd = b * np.conj(d)
    f01 = ac + bd
    n01 = ac - bd
    f = _pack(aa + bb, f01, np.conj(f01), cc + dd)
    n = _pack(aa - bb, n01, np.conj(n01), cc - dd)
    det_res = float(np.max(np.abs(_det(f) - 1.0)))
    if det_res > 1e-6:
        raise HyperboloidDrift(f"max |det f - 1| = {det_res:.3e}")
    return SurfaceData(f=f, n=n)


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
    fx, fy = grad_x(f, grid), grad_y(f, grid)
    nx, ny = grad_x(n, grid), grad_y(n, grid)
    # the Wirtinger derivatives of grid.d_z / grid.d_zbar, from fx, fy, nx, ny
    df = 0.5 * (fx - 1j * fy)
    dbf = 0.5 * (fx + 1j * fy)
    dn = 0.5 * (nx - 1j * ny)

    q_num = mink_pairing(df, df)
    m_num = (-mink_pairing(dbf, dn)).real

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


def _det_i(forms, grid):
    """det I and the interior mask; raise if I degenerates at an interior node."""
    det1 = _det(forms.I_mat)
    interior = grid.interior()
    if np.any(det1[interior] <= 0):
        raise DegenerateMetric("det I <= 0 at an interior node")
    return det1, interior


def curvature(forms, grid):
    """K = -1 + det II / det I from the numeric real-coordinate forms."""
    det1, interior = _det_i(forms, grid)
    k = np.full(det1.shape, np.nan)
    k[interior] = -1.0 + _det(forms.II_mat)[interior] / det1[interior]
    return k


def mean_curvature(forms, grid):
    """H = (1/2) tr(I^{-1} II)."""
    det1, interior = _det_i(forms, grid)
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


def curvature_error(k_num, K, grid):
    """Max |K_num - K| on the window."""
    return float(np.max(np.abs(k_num[window_mask(grid, depth=1)] - K)))


def form_identity_residual(forms, k_num, h_num, grid):
    """Max window residual of III - 2 H II + (K+1) I (real 2x2 norm)."""
    r = (
        forms.III_mat
        - 2.0 * h_num[..., None, None] * forms.II_mat
        + (k_num + 1.0)[..., None, None] * forms.I_mat
    )
    norms = np.linalg.norm(r, axis=(-2, -1))
    return float(np.max(norms[window_mask(grid, depth=1)]))


def klotz_dbar(q_num, grid):
    """Max |dbar Q_num| on the window, two rings in: Q_num is already invalid
    on the boundary ring, and differencing it costs one more."""
    return float(np.max(np.abs(d_zbar(q_num, grid)[window_mask(grid, depth=2)])))


def ii_deviation(base, forms, grid):
    """Max |II(forms) - II(base)| on the window, from the dz dzbar parts m_num."""
    dev = np.abs(forms.m_num - base.m_num)
    return float(np.max(dev[window_mask(grid, depth=1)]))


def klotz_recover(s, grid):
    """Recovered Q_num = <df, df> and its max discrete dbar residual on the
    depth-2 interior (differencing the already one-ring-invalid Q_num field)."""
    df = d_z(s.f, grid)
    q_num = mink_pairing(df, df)
    dbar_q = d_zbar(q_num, grid)
    return q_num, float(np.max(np.abs(dbar_q[grid.interior(depth=2)])))


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


def radial_length(mf, q, grid, metric="weak"):
    """Trapezoidal length of the grid ray from z* to the boundary along +x.

    metric = "weak" integrates sqrt(2 (e^u + |Q|^2 e^{-u})) |dz|; metric =
    "conformal" integrates e^{u/2} |dz| (the metric e^u dz dzbar whose
    completeness is equivalent to weak completeness).
    """
    i0, j0 = grid.base_index
    u = mf.u[i0:, j0]
    if metric == "weak":
        absq2 = np.abs(qd.eval_q(q, grid.zmesh[i0:, j0])) ** 2
        integrand = np.sqrt(2.0 * (np.exp(u) + absq2 * np.exp(-u)))
    elif metric == "conformal":
        integrand = np.exp(u / 2.0)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return float(np.trapezoid(integrand, dx=grid.h))


def _node_permutation(grid, n_fold):
    """The node permutation of the rotation z -> exp(2 pi i / n_fold) z.

    Half and quarter turns of a centered square grid map nodes to nodes; any
    other rotation does not, and raises ValueError.
    """
    square = (
        abs(grid.x_min + grid.x_max) < 1e-14
        and abs(grid.y_min + grid.y_max) < 1e-14
        and grid.nx == grid.ny
        and abs((grid.x_max - grid.x_min) - (grid.y_max - grid.y_min)) < 1e-14
    )
    if square and n_fold == 2:
        # f(-z_{ij}) lives at node (nx-1-i, ny-1-j)
        return lambda a: a[::-1, ::-1]
    if square and n_fold == 4:
        # f(i z_{ij}) lives at node (nx-1-j, i)
        return lambda a: a[::-1, :].T
    raise ValueError(
        f"the {n_fold}-fold rotation does not map the nodes of a "
        f"{grid.nx}x{grid.ny} grid to nodes"
    )


def equivariance_check(s, mf, q, grid, n_fold):
    """Fit a Minkowski isometry rho with f(gamma z) = rho f(z); max residual.

    gamma is the rotation z -> exp(2 pi i / n_fold) z; requires the
    differential to be gamma-invariant: Q(gamma z) gamma'^2 = Q(z), and gamma
    to permute the grid nodes (a half or quarter turn of a centered square).
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

    perm = _node_permutation(grid, n_fold)
    pts = mink_from_herm(s.f)
    rotated = np.stack([perm(pts[..., k]) for k in range(4)], axis=-1)
    a = pts.reshape(-1, 4).T
    b = rotated.reshape(-1, 4).T
    rho = _mink_procrustes(a, b)
    fit = rho @ a - b
    resid = float(np.max(np.linalg.norm(fit, axis=0)))
    return resid, rho


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
