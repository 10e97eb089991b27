import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from cgcsurf.errors import NotOnHyperboloid, NotOnOrbit
from cgcsurf.gaussmap import lagrangian_map
from cgcsurf.lax import FrameField
from cgcsurf.minkowski import (
    E0,
    E1,
    E2,
    E3,
    EHAT2,
    EHAT3,
    _det,
    _mul,
    herm_from_mink,
    mink_from_herm,
    mink_inner,
    mink_pairing,
    su2_pairing,
    su2_sphere,
    su11_disk,
    su11_pairing,
    to_poincare_ball,
)
from cgcsurf.surface import build_surface

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def test_basis_signature():
    basis = (E0, E1, E2, E3)
    gram = np.array([[mink_inner(a, b) for b in basis] for a in basis])
    assert np.array_equal(gram, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_null_basis_pairings():
    assert mink_pairing(EHAT2, EHAT2) == 0
    assert mink_pairing(EHAT3, EHAT3) == 0
    assert mink_pairing(EHAT2, EHAT3) == 0.5


@given(finite, finite, finite, finite)
def test_inner_equals_minus_det(x0, x1, x2, x3):
    a = herm_from_mink(np.array([x0, x1, x2, x3]))
    det = x0**2 - x1**2 - x2**2 - x3**2
    norm2 = np.sum(np.abs(a) ** 2)
    assert abs(mink_inner(a, a) + det) <= 1e-12 * (1.0 + norm2)


@given(finite, finite, finite, finite)
def test_herm_mink_round_trip(x0, x1, x2, x3):
    v = np.array([x0, x1, x2, x3])
    back = mink_from_herm(herm_from_mink(v))
    assert np.allclose(back, v, atol=1e-12)


def test_mink_from_herm_batched():
    rng = np.random.default_rng(1)
    vs = rng.standard_normal((5, 7, 4))
    a = np.zeros((5, 7, 2, 2), dtype=complex)
    for i in range(5):
        for j in range(7):
            a[i, j] = herm_from_mink(vs[i, j])
    assert np.allclose(mink_from_herm(a), vs, atol=1e-12)


def test_poincare_ball_origin():
    assert np.allclose(to_poincare_ball(np.array([1.0, 0, 0, 0])), 0.0)


def test_poincare_ball_known_point():
    # x0 = cosh t, x1 = sinh t maps to tanh(t/2) along the first axis
    t = 0.7
    v = np.array([np.cosh(t), np.sinh(t), 0.0, 0.0])
    b = to_poincare_ball(v)
    assert np.allclose(b, [np.tanh(t / 2.0), 0.0, 0.0], atol=1e-12)


def test_poincare_ball_rejects_off_hyperboloid():
    with pytest.raises(NotOnHyperboloid):
        to_poincare_ball(np.array([1.5, 0.0, 0.0, 0.0]))


def test_su11_disk_identity_orbit_point():
    # i e1 is the base point of the disk orbit and maps to the center
    l = 1j * E1
    assert abs(su11_disk(l[None, None])[0, 0]) <= 1e-12


def test_su11_disk_rejects_wrong_orbit():
    # -i e1 is timelike but on the opposite (x0 < 0) sheet
    with pytest.raises(NotOnOrbit):
        su11_disk((-1j * E1)[None, None])


def test_su2_sphere_base_point():
    l = 1j * E1
    vec = su2_sphere(l[None, None])[0, 0]
    assert np.allclose(vec, [1.0, 0.0, 0.0], atol=1e-12)


# The closed-form 2x2 kernels against the generic matmul/trace/inverse
# definitions they replace. Tolerances are a few ulps scaled by the operand
# norms. Nonzero entries stay within 1e-3..1e3: np.linalg.det goes through
# log|det|, so its own error grows with |log|det||.

EPS = np.finfo(float).eps
BATCH = st.lists(st.integers(1, 4), max_size=3).map(tuple)
ENTRY = st.just(0j) | st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
COEFF = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
SCALE = st.floats(min_value=0.5, max_value=2.0)


def _mats(shape):
    return arrays(complex, shape + (2, 2), elements=ENTRY)


@st.composite
def _operands(draw):
    """(a, b): a batch and either a batch of the same shape or a constant."""
    shape = draw(BATCH)
    return draw(_mats(shape)), draw(st.one_of(_mats(shape), _mats(())))


@st.composite
def _sl2(draw):
    """A batch of well-conditioned SL(2,C) matrices [[1,x],[0,1]][[1,0],[y,1]]diag(t,1/t)."""
    shape = draw(BATCH)
    x, y = (draw(arrays(complex, shape, elements=COEFF)) for _ in range(2))
    t = draw(arrays(float, shape, elements=SCALE))
    t = t * np.exp(1j * draw(arrays(float, shape, elements=st.floats(0.0, 6.3))))
    g = np.zeros(shape + (2, 2), dtype=complex)
    g[..., 0, 0] = (1.0 + x * y) * t
    g[..., 0, 1] = x / t
    g[..., 1, 0] = y * t
    g[..., 1, 1] = 1.0 / t
    return g


def _norm(a):
    return np.linalg.norm(a, axis=(-2, -1))


def _assert_close(x, y, scale, ulps=8):
    assert np.all(np.abs(x - y) <= ulps * EPS * scale)


def _dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _mink_oracle(a, b):
    m = a @ E2 @ np.swapaxes(b, -1, -2) @ E2
    return -0.5 * np.trace(m, axis1=-2, axis2=-1)


def _su11_oracle(a, b):
    return 0.5 * np.trace(a @ b, axis1=-2, axis2=-1)


@given(_operands())
def test_pairings_match_trace_definitions(ab):
    a, b = ab
    scale = _norm(a) * _norm(b)
    _assert_close(mink_pairing(a, b), _mink_oracle(a, b), scale)
    _assert_close(su11_pairing(a, b), _su11_oracle(a, b), scale)
    _assert_close(su2_pairing(a, b), -_su11_oracle(a, b), scale)
    # the constant operand broadcasts from either side
    _assert_close(mink_pairing(b, a), _mink_oracle(b, a), scale)


@given(_operands())
def test_mul_matches_matmul(ab):
    a, b = ab
    scale = (_norm(a) * _norm(b))[..., None, None]
    _assert_close(_mul(a, b), a @ b, scale)
    _assert_close(_mul(b, a), b @ a, scale)


@given(BATCH.flatmap(_mats))
def test_det_matches_linalg(a):
    _assert_close(_det(a), np.linalg.det(a), _norm(a) ** 2)


def test_pairings_take_lists_and_real_arrays():
    eye = [[1, 0], [0, 1]]
    assert mink_pairing(eye, eye) == -1.0
    assert su11_pairing(eye, np.eye(2)) == 1.0
    assert su2_pairing(np.eye(2), eye) == -1.0
    batch = np.arange(24, dtype=float).reshape(3, 2, 2, 2)
    assert np.array_equal(mink_pairing(batch, E1), _mink_oracle(batch.astype(complex), E1))


@given(_sl2())
def test_surface_products_match_matmul(psi):
    s = build_surface(FrameField(psi=psi, det_drift=0.0))
    pst = _dagger(psi)
    scale = (_norm(psi) ** 2)[..., None, None]
    _assert_close(s.f, psi @ pst, scale)
    _assert_close(s.n, psi @ E1 @ pst, scale)
    # exactly Hermitian, with a real diagonal
    assert np.array_equal(s.f, _dagger(s.f)) and np.array_equal(s.n, _dagger(s.n))


@given(_sl2())
def test_lagrangian_map_matches_inverse(psi):
    # L = i Psi e1 adj(Psi) / det(Psi) against the LAPACK inverse
    L = lagrangian_map(FrameField(psi=psi, det_drift=0.0))
    oracle = 1j * psi @ E1 @ np.linalg.inv(psi)
    _assert_close(L, oracle, (_norm(psi) ** 4)[..., None, None], ulps=32)
    assert np.array_equal(L[..., 0, 0], -L[..., 1, 1])


ANGLE = st.floats(min_value=0.0, max_value=6.3)


@given(st.floats(min_value=0.0, max_value=2.0), ANGLE, ANGLE)
def test_su11_disk_on_orbit(r, phi, psi):
    # g = [[alpha, beta], [conj beta, conj alpha]] in SU(1,1) moves 0 to |w| = tanh r
    alpha, beta = np.cosh(r) * np.exp(1j * phi), np.sinh(r) * np.exp(1j * psi)
    g = np.array([[alpha, beta], [np.conj(beta), np.conj(alpha)]])
    l = g @ (1j * E1) @ np.linalg.inv(g)
    w = su11_disk(l[None])[0]
    assert abs(abs(w) - np.tanh(r)) <= 1e-12 * np.cosh(r) ** 2


@given(st.floats(min_value=0.0, max_value=np.pi), ANGLE, ANGLE)
def test_su2_sphere_on_orbit(theta, phi, psi):
    # g = [[alpha, -conj beta], [beta, conj alpha]] in SU(2) sends e1 to a
    # unit vector whose first component is |alpha|^2 - |beta|^2 = cos(2 theta)
    alpha, beta = np.cos(theta) * np.exp(1j * phi), np.sin(theta) * np.exp(1j * psi)
    g = np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])
    l = g @ (1j * E1) @ _dagger(g)
    s = su2_sphere(l[None])[0]
    assert abs(np.linalg.norm(s) - 1.0) <= 1e-12
    assert abs(s[0] - np.cos(2.0 * theta)) <= 1e-12
    assert abs(su2_pairing(l, l) - 1.0) <= 1e-12
