"""Lagrangian/Legendrian Gauss maps, the harmonicity residual, and the
special-modulus reduction to H^2 / S^2 with its converse rescaling."""

from dataclasses import dataclass

import numpy as np

from . import qdiff as qd
from .errors import OnUnitCircle, OutOfRange
from .grid import d_z, d_zbar, window_mask
from .lax import build_uv, compute_p
from .minkowski import (
    _det,
    _entries,
    _mul,
    _pack,
    mink_pairing,
    su2_pairing,
    su2_sphere,
    su11_disk,
    su11_pairing,
)
from .serialize import _grid_table


def lambda0(K):
    """The special modulus |lambda_0| > 1 at which the frame becomes real.

    Both closed forms (arcosh/arsinh exponential and the sigma-ratio square
    root) are evaluated and asserted to agree.
    """
    if -1.0 < K < 0.0:
        sigma = np.sqrt(1.0 + K)
        via_ratio = np.sqrt((1.0 + sigma) / (1.0 - sigma))
        via_exp = np.exp(np.arccosh(np.sqrt(-1.0 / K)))
    elif K > 0.0:
        sigma = np.sqrt(1.0 + K)
        via_ratio = np.sqrt((1.0 + sigma) / (sigma - 1.0))
        via_exp = np.exp(np.arcsinh(np.sqrt(1.0 / K)))
    else:
        raise OutOfRange(f"K = {K} outside (-1,0) u (0,inf)")
    assert abs(via_ratio - via_exp) <= 1e-12 * (1.0 + via_ratio)
    return float(via_ratio)


def lagrangian_map(frame):
    """Per-node L = i Psi e1 Psi^{-1}; trace-free with L^2 = -id."""
    # i Psi e1 adj(Psi) / det Psi, trace-free by construction
    a, b, c, d = _entries(frame.psi)
    s = 1j / _det(frame.psi)
    ad_bc = s * (a * d + b * c)
    return _pack(ad_bc, -2.0 * s * a * b, 2.0 * s * c * d, -ad_bc)


def project(L, K):
    """Per-node images of L: Poincare disk points (H^2) for K < 0, unit
    3-vectors (S^2) for K > 0."""
    return su2_sphere(L) if K > 0 else su11_disk(L)


@dataclass(frozen=True)
class EnergyReport:
    """Max window residuals of the closed-form energy pairings of L."""

    holomorphic_residual: float  # <dz L, dz L> vs -K e^{-2i theta} Q
    mixed_residual: float  # <dz L, dbar L> vs -/+ K (e^u + |Q|^2 e^{-u})/2


def energy_check(L, mf, q, grid, theta=0.0):
    """Compare numeric Killing pairings of dL with the closed forms at lambda_0;
    the sign of mf.K picks the su(2) or su(1,1) pairing."""
    k = mf.K
    pairing, mixed_sign = (su2_pairing, 1.0) if k > 0 else (su11_pairing, -1.0)
    qv = np.asarray(qd.eval_q(q, grid.zmesh), dtype=complex)
    dl = d_z(L, grid)
    dbl = d_zbar(L, grid)
    win = window_mask(grid, depth=1)
    holo = pairing(dl, dl) - (-k * np.exp(-2j * theta) * qv)
    mixed = pairing(dl, dbl) - mixed_sign * k * (
        np.exp(mf.u) + np.abs(qv) ** 2 * np.exp(-mf.u)
    ) / 2.0
    return EnergyReport(
        holomorphic_residual=float(np.max(np.abs(holo[win]))),
        mixed_residual=float(np.max(np.abs(mixed[win]))),
    )


def _off(m):
    out = np.zeros_like(m)
    out[..., 0, 1] = m[..., 0, 1]
    out[..., 1, 0] = m[..., 1, 0]
    return out


def harmonicity_residual(mf, grid, q=None, qs=None):
    """Max interior norms of the two harmonicity conditions on alpha.

    Returns (torsion, tension): the off-diagonal part of
    [alpha'_p ^ alpha''_p] (identically zero for 2x2 off-diagonal parts) and
    the norm of d(*alpha_p) + [alpha ^ *alpha_p].
    """
    if qs is None:
        qs = np.asarray(qd.eval_q(q, grid.zmesh), dtype=complex)
        p = None
    else:
        p = compute_p(mf, qs, grid)
    mc = build_uv(mf, grid, None, 1.0, p=p, qs=qs)
    off_u = _off(mc.U)
    off_v = _off(mc.V)

    torsion = _off(_mul(off_u, off_v) - _mul(off_v, off_u))
    # d(*alpha_p) + [alpha ^ *alpha_p] as the dz^dzbar coefficient (up to i)
    tension = (
        d_z(off_v, grid)
        + d_zbar(off_u, grid)
        + (_mul(mc.U, off_v) - _mul(off_v, mc.U))
        + (_mul(mc.V, off_u) - _mul(off_u, mc.V))
    )
    interior = grid.interior()
    t1 = float(np.max(np.linalg.norm(torsion, axis=(-2, -1))[interior]))
    t2 = float(np.max(np.linalg.norm(tension, axis=(-2, -1))[interior]))
    return t1, t2


def converse_rescale(u_hat, q_hat, lam1, sphere=False):
    """Rescale normalized harmonic-map data (u_hat field, Q_hat) into H^2, or
    into S^2 if sphere, to constant-curvature data at |lam1| > 1.

    Returns (u, Q, K): u = u_hat + 2 log(factor), Q = factor^2 Q_hat, with
    factor = (1+|lam1|^2)/(2|lam1|) and K = -(2|lam1|/(|lam1|^2+1))^2 in the
    H^2 case; the (|lam1|^2-1) variant with K > 0 in the S^2 case.
    """
    r = abs(complex(lam1))
    if abs(r - 1.0) < 1e-14:
        raise OnUnitCircle("|lam1| = 1 is excluded")
    if r < 1.0:
        raise OutOfRange("converse rescaling expects |lam1| > 1")
    if sphere:
        factor = (r**2 - 1.0) / (2.0 * r)
        K = (2.0 * r / (r**2 - 1.0)) ** 2
    else:
        factor = (1.0 + r**2) / (2.0 * r)
        K = -((2.0 * r / (r**2 + 1.0)) ** 2)
    u = np.asarray(u_hat, dtype=float) + 2.0 * np.log(factor)
    q = qd.QDiff(tuple(factor**2 * c for c in q_hat.coeffs), q_hat.domain)
    assert abs(lambda0(K) - r) <= 1e-12 * (1.0 + r)
    return u, q, K


def legendrian_tangency(s, grid):
    """Max interior |<dz f, n>|: the computable stand-in for the Legendre
    condition of F = (f, n)."""
    df = d_z(s.f, grid)
    resid = np.abs(mink_pairing(df, s.n))
    return float(np.max(resid[grid.interior()]))


def gaussmap_csv(grid, images):
    """CSV of complex H^2 disk images (re, im) or real S^2 unit vectors
    (s1, s2, s3)."""
    if np.iscomplexobj(images):
        return _grid_table(
            grid, "i,j,x,y,re_w,im_w", "%.17g,%.17g", [images.real, images.imag]
        )
    return _grid_table(
        grid, "i,j,x,y,s1,s2,s3", "%.17g,%.17g,%.17g", np.moveaxis(images, -1, 0)
    )
