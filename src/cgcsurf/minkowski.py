"""The 2x2 Hermitian-matrix model of Minkowski 4-space.

Points of E^{1,3} are represented both as coordinate 4-vectors
(x0, x1, x2, x3) and as 2x2 Hermitian matrices x0*E0 + x1*E1 + x2*E2 + x3*E3.
Hyperbolic 3-space is the sheet {det = 1, trace > 0} of the unit timelike
hyperquadric; SL(2,C) acts on it by g . A = g A g*.

The batched 2x2 kernels (_mul, _det and the two pairings) are written
out entry by entry on [..., i, j] slices; the frame, surface and Gauss-map
modules use them instead of generic matmul, trace and inverse.
"""

import numpy as np

from .errors import NotOnHyperboloid, NotOnOrbit

# Orthonormal basis of E^{1,3}, signature (-,+,+,+).
E0 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
E1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
E2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
E3 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Null basis of the complexified e2/e3 plane:
# EHAT2 = -(E2 - i E3)/2, EHAT3 = -(E2 + i E3)/2.
EHAT2 = np.array([[0.0, 1.0j], [0.0, 0.0]], dtype=complex)
EHAT3 = np.array([[0.0, 0.0], [-1.0j, 0.0]], dtype=complex)

_STRUCTURAL_TOL = 1e-8
_ORBIT_TOL = 1e-6


def herm_from_mink(v):
    """Hermitian matrix of a coordinate 4-vector (x0, x1, x2, x3); batched over
    the leading axes of an array of shape (..., 4)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = v[..., 0] + v[..., 1]
    out[..., 1, 1] = v[..., 0] - v[..., 1]
    out[..., 0, 1] = v[..., 3] - 1j * v[..., 2]
    out[..., 1, 0] = v[..., 3] + 1j * v[..., 2]
    return out


def mink_from_herm(a):
    """Coordinate 4-vector of a Hermitian matrix; inverse of herm_from_mink."""
    a = np.asarray(a, dtype=complex)
    x0 = (a[..., 0, 0] + a[..., 1, 1]).real / 2.0
    x1 = (a[..., 0, 0] - a[..., 1, 1]).real / 2.0
    x2 = -a[..., 0, 1].imag
    x3 = a[..., 0, 1].real
    return np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)


def _entries(a):
    """The four entries a00, a01, a10, a11 of a batch of 2x2 matrices."""
    return a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]


def _pack(m00, m01, m10, m11):
    """A batch of 2x2 matrices from its four (broadcastable) entries."""
    shape = np.broadcast(m00, m01, m10, m11).shape
    out = np.empty(shape + (2, 2), dtype=np.result_type(m00, m01, m10, m11))
    out[..., 0, 0] = m00
    out[..., 0, 1] = m01
    out[..., 1, 0] = m10
    out[..., 1, 1] = m11
    return out


def _mul(a, b):
    """Batched 2x2 product a b, written out entry by entry."""
    a00, a01, a10, a11 = _entries(a)
    b00, b01, b10, b11 = _entries(b)
    return _pack(
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


def _det(a):
    """Batched 2x2 determinant."""
    a00, a01, a10, a11 = _entries(a)
    return a00 * a11 - a01 * a10


def mink_pairing(a, b):
    """Complex-bilinear extension of the Lorentz pairing, -(1/2) tr(a e2 b^T e2).

    Accepts batched arrays of shape (..., 2, 2). The transpose is the plain
    (non-conjugate) transpose; on Hermitian arguments the value is real and
    equals the Minkowski inner product. Since e2 b^T e2 = adj(b), this is the
    polarised determinant -(1/2)(a00 b11 + a11 b00 - a01 b10 - a10 b01).
    """
    a00, a01, a10, a11 = _entries(np.asarray(a, dtype=complex))
    b00, b01, b10, b11 = _entries(np.asarray(b, dtype=complex))
    return -0.5 * (a00 * b11 + a11 * b00 - a01 * b10 - a10 * b01)


def mink_inner(a, b):
    """Minkowski inner product of two Hermitian matrices (real)."""
    return mink_pairing(a, b).real


def to_poincare_ball(v):
    """Project a hyperboloid point to Poincare ball coordinates b_i = x_i/(1+x0)."""
    v = np.asarray(v, dtype=float)
    x0 = v[..., 0]
    a = herm_from_mink(v)
    resid = np.abs(mink_inner(a, a) + 1.0)
    scale = 1.0 + np.sum(v * v, axis=-1)
    if np.any(resid > _STRUCTURAL_TOL * scale) or np.any(x0 <= 0):
        raise NotOnHyperboloid(
            f"max hyperboloid residual {np.max(resid):.3e}, min x0 {np.min(x0):.3e}"
        )
    return v[..., 1:] / (1.0 + x0)[..., None]


def su11_pairing(a, b):
    """Killing pairing on su(1,1): (1/2) tr(ab), complex-bilinear, batched."""
    a00, a01, a10, a11 = _entries(np.asarray(a, dtype=complex))
    b00, b01, b10, b11 = _entries(np.asarray(b, dtype=complex))
    return 0.5 * (a00 * b00 + a01 * b10 + a10 * b01 + a11 * b11)


def su2_pairing(a, b):
    """Killing pairing on su(2): -(1/2) tr(ab), complex-bilinear, batched."""
    return -su11_pairing(a, b)


def su11_disk(l):
    """Map a point on the SU(1,1)-adjoint orbit of i*e1 to the unit disk.

    Decomposes l = x0*(i e1) + x1*e2 + x2*e3 via the Killing pairing and
    returns w = (x1 + i x2)/(1 + x0) with |w| < 1.
    """
    l = np.asarray(l, dtype=complex)
    x0c = -su11_pairing(l, 1j * E1)
    x1c = su11_pairing(l, E2)
    x2c = su11_pairing(l, E3)
    x0, x1, x2 = x0c.real, x1c.real, x2c.real
    recon = (
        x0[..., None, None] * (1j * E1)
        + x1[..., None, None] * E2
        + x2[..., None, None] * E3
    )
    bound = _ORBIT_TOL * (1.0 + np.max(np.abs(l), axis=(-2, -1)) ** 2)
    recon_resid = np.max(np.abs(l - recon), axis=(-2, -1))
    orbit_resid = np.abs(su11_pairing(l, l) + 1.0)
    if np.any(recon_resid > bound) or np.any(orbit_resid > bound) or np.any(x0 <= 0):
        raise NotOnOrbit(
            "not on the su(1,1) orbit of i*e1: "
            f"orbit residual {np.max(orbit_resid):.3e}, "
            f"span residual {np.max(recon_resid):.3e}, min x0 {np.min(x0):.3e}"
        )
    return (x1 + 1j * x2) / (1.0 + x0)


def su2_sphere(l):
    """Coefficients of l in the basis {i e1, i e2, i e3}; a unit 3-vector."""
    l = np.asarray(l, dtype=complex)
    comps = [su2_pairing(l, 1j * e) for e in (E1, E2, E3)]
    s = np.stack([c.real for c in comps], axis=-1)
    recon = sum(
        c[..., None, None] * (1j * e)
        for c, e in zip(np.moveaxis(s, -1, 0), (E1, E2, E3))
    )
    bound = _ORBIT_TOL * (1.0 + np.max(np.abs(l), axis=(-2, -1)) ** 2)
    recon_resid = np.max(np.abs(l - recon), axis=(-2, -1))
    orbit_resid = np.abs(su2_pairing(l, l) - 1.0)
    if np.any(recon_resid > bound) or np.any(orbit_resid > bound):
        raise NotOnOrbit(
            "not on the su(2) orbit of i*e1: "
            f"orbit residual {np.max(orbit_resid):.3e}, "
            f"span residual {np.max(recon_resid):.3e}"
        )
    return s
