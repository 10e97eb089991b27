"""Maurer-Cartan data U, V, flatness and reality diagnostics, frame integration.

The connection form is alpha = U dz + V dzbar with

  U = (du/4 + p) e1 + ((1+s)/2) lam^{-1} (e^{u/2} ehat2 + Q e^{-u/2} ehat3)
  V = -(dbar u/4 + pbar) e1 + ((1-s)/2) lam (Qbar e^{-u/2} ehat2 + e^{u/2} ehat3)

where s = sigma is constant for constant-curvature data and p vanishes for
holomorphic Q. The frame Psi solves dPsi = Psi alpha with Psi = id at the
base node.
"""

from dataclasses import dataclass

import numpy as np

from . import qdiff as qd
from .errors import DegenerateDenominator, ZeroLambda
from .grid import d_z, d_zbar
from .minkowski import E1, _det, _mul
from .serialize import _table

SU11 = "SU11"
SU2 = "SU2"

DET_DRIFT_WARN = 1e-6


def compute_p(mf, qs, grid):
    """p = (-dbar Q + e^{-u} Q dQbar) / (2 (e^u - |Q|^2 e^{-u})) from Q samples."""
    u = mf.u
    denom = np.exp(u) - np.abs(qs) ** 2 * np.exp(-u)
    if np.any(denom <= 1e-14 * np.exp(np.abs(u))):
        raise DegenerateDenominator("e^u - |Q|^2 e^{-u} vanishes on the grid")
    dbar_q = d_zbar(qs, grid)
    dz_qbar = d_z(np.conj(qs), grid)
    return (-dbar_q + np.exp(-u) * qs * dz_qbar) / (2.0 * denom)


@dataclass(frozen=True)
class MaurerCartanData:
    """Per-node trace-free matrices U, V at a fixed spectral parameter."""

    U: np.ndarray
    V: np.ndarray
    lam: complex
    sigma: float


def build_uv(mf, grid, q, lam, p=None, qs=None, du=None):
    """Assemble U, V over the grid. p = None means the p = 0 curvature family.

    q may be a QDiff (sampled analytically) or None with explicit `qs` samples;
    non-holomorphic sample data should pass p from compute_p.
    """
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("spectral parameter must be nonzero")
    if qs is None:
        qs = np.asarray(qd.eval_q(q, grid.zmesh), dtype=complex)
    u = mf.u
    sigma = mf.sigma
    if du is None:
        du = d_z(u, grid)
    if p is None:
        p = np.zeros_like(du)
    X = (1.0 + sigma) / 2.0
    Y = (1.0 - sigma) / 2.0
    eu2 = np.exp(u / 2.0)
    emu2 = np.exp(-u / 2.0)

    dcoef = du / 4.0 + p
    U = np.zeros(u.shape + (2, 2), dtype=complex)
    U[..., 0, 0] = dcoef
    U[..., 1, 1] = -dcoef
    U[..., 0, 1] = 1j * X / lam * eu2
    U[..., 1, 0] = -1j * X / lam * qs * emu2

    dbcoef = np.conj(dcoef)
    V = np.zeros_like(U)
    V[..., 0, 0] = -dbcoef
    V[..., 1, 1] = dbcoef
    V[..., 0, 1] = 1j * Y * lam * np.conj(qs) * emu2
    V[..., 1, 0] = -1j * Y * lam * eu2
    return MaurerCartanData(U=U, V=V, lam=lam, sigma=sigma)


def zero_curvature_residual(mc, grid):
    """Frobenius norm of dbar U - dz V + [V, U] per node, zeroed on the two
    outer rings (U, V already hold first differences of u, so differencing
    them again is only uniformly second order two rings in)."""
    dbU = d_zbar(mc.U, grid)
    dzV = d_z(mc.V, grid)
    comm = _mul(mc.V, mc.U) - _mul(mc.U, mc.V)
    l = dbU - dzV + comm
    r = np.linalg.norm(l, axis=(-2, -1))
    r[:2, :] = r[-2:, :] = 0.0
    r[:, :2] = r[:, -2:] = 0.0
    return r


def reality_residual(mc, target):
    """Max-node residual of the real-form condition on (U, V).

    SU2:  || V + conj(U)^T ||,  SU11:  || V + e1 conj(U)^T e1 ||.
    """
    ut = np.conj(np.swapaxes(mc.U, -1, -2))
    if target == SU2:
        r = mc.V + ut
    elif target == SU11:
        r = mc.V + _mul(_mul(E1, ut), E1)
    else:
        raise ValueError(f"unknown target {target!r}")
    return float(np.max(np.linalg.norm(r, axis=(-2, -1))))


@dataclass(frozen=True)
class FrameField:
    """Frame samples Psi over the grid at a fixed spectral parameter."""

    psi: np.ndarray
    lam: complex
    base_index: tuple
    det_drift: float
    order: str = "rows-first"

    @property
    def drift_warning(self):
        return self.det_drift > DET_DRIFT_WARN


def _rk4_step(psi, a0, a1, h):
    """One RK4 step of Psi' = Psi A(t), A linear between a0 and a1."""
    am = 0.5 * (a0 + a1)
    k1 = _mul(psi, a0)
    k2 = _mul(psi + 0.5 * h * k1, am)
    k3 = _mul(psi + 0.5 * h * k2, am)
    k4 = _mul(psi + h * k3, a1)
    return psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _renorm(psi):
    """Principal-branch det normalization; returns (psi, max |det - 1|)."""
    det = _det(psi)
    drift = float(np.max(np.abs(det - 1.0)))
    psi = psi / np.sqrt(det)[..., None, None]
    return psi, drift


def integrate_frame(mc, grid, order="rows-first"):
    """Integrate Psi over the grid from the base node, RK4 with step h.

    rows-first: integrate along the base row through z*, then along each
    column. columns-first swaps the roles (a path-dependence diagnostic).
    """
    h = grid.h
    ax = mc.U + mc.V  # Psi_x = Psi (U + V)
    ay = 1j * (mc.U - mc.V)  # Psi_y = i Psi (U - V)
    i0, j0 = grid.base_index
    psi = np.zeros_like(mc.U)
    drift = 0.0

    if order == "columns-first":
        first_axis, second_axis = 1, 0
        a_first, a_second = ay, ax
        k0_first, k0_second = j0, i0
    elif order == "rows-first":
        first_axis, second_axis = 0, 1
        a_first, a_second = ax, ay
        k0_first, k0_second = i0, j0
    else:
        raise ValueError(f"unknown order {order!r}")

    # walk the base line through z* along the first axis (sequential 2x2 steps)
    def line_index(k):
        return (k, j0) if first_axis == 0 else (i0, k)

    n_first = mc.U.shape[first_axis]
    psi[line_index(k0_first)] = np.eye(2, dtype=complex)
    for k in range(k0_first, n_first - 1):
        p = _rk4_step(psi[line_index(k)], a_first[line_index(k)], a_first[line_index(k + 1)], h)
        p, d = _renorm(p)
        drift = max(drift, d)
        psi[line_index(k + 1)] = p
    for k in range(k0_first, 0, -1):
        p = _rk4_step(psi[line_index(k)], a_first[line_index(k)], a_first[line_index(k - 1)], -h)
        p, d = _renorm(p)
        drift = max(drift, d)
        psi[line_index(k - 1)] = p

    # advance all transverse lines simultaneously (batched 2x2 products)
    n_second = mc.U.shape[second_axis]
    a2 = np.moveaxis(a_second, second_axis, 0)
    psi_m = np.moveaxis(psi, second_axis, 0)
    for k in range(k0_second, n_second - 1):
        p = _rk4_step(psi_m[k], a2[k], a2[k + 1], h)
        p, d = _renorm(p)
        drift = max(drift, d)
        psi_m[k + 1] = p
    for k in range(k0_second, 0, -1):
        p = _rk4_step(psi_m[k], a2[k], a2[k - 1], -h)
        p, d = _renorm(p)
        drift = max(drift, d)
        psi_m[k - 1] = p

    return FrameField(
        psi=psi,
        lam=mc.lam,
        base_index=(i0, j0),
        det_drift=drift,
        order=order,
    )


def frame_unitarity_residual(frame, target):
    """Max-node residual of the pointwise group condition on Psi.

    SU11: || Psi* e1 Psi - e1 ||,  SU2: || Psi* Psi - id ||.
    """
    psi = frame.psi
    pst = np.conj(np.swapaxes(psi, -1, -2))
    if target == SU11:
        r = _mul(_mul(pst, E1), psi) - E1
    elif target == SU2:
        r = _mul(pst, psi) - np.eye(2)
    else:
        raise ValueError(f"unknown target {target!r}")
    return float(np.max(np.linalg.norm(r, axis=(-2, -1))))


def frame_csv(frame):
    """CSV: i,j plus re/im of the four entries, 17 significant digits."""
    shape = frame.psi.shape[:2]
    a = frame.psi.reshape(shape + (4,))  # a11, a12, a21, a22
    parts = [part(a[..., k]) for k in range(4) for part in (np.real, np.imag)]
    return _table(
        "%d,%d" + ",%.17g" * 8,
        [*np.indices(shape), *parts],
        "i,j,re_a11,im_a11,re_a12,im_a12,re_a21,im_a21,re_a22,im_a22",
    )
