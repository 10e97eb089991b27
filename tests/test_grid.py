import numpy as np
import pytest

from cgcsurf.grid import Grid, d_z, d_zbar, laplacian5, window_mask


def test_rejects_even_counts():
    with pytest.raises(ValueError):
        Grid.centered_square(0.5, 32)


def test_rejects_small_counts():
    with pytest.raises(ValueError):
        Grid.centered_square(0.5, 7)


def test_rejects_nonuniform_spacing():
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, -0.5, 0.5, 9, 9)


def test_base_index_is_origin():
    g = Grid.centered_square(0.5, 33)
    i, j = g.base_index
    assert g.xs[i] == 0.0 and g.ys[j] == 0.0


def test_wirtinger_exact_on_quadratics():
    # centered differences are exact on polynomials of degree <= 2
    g = Grid.centered_square(0.5, 17)
    z = g.zmesh
    f = z**2
    inner = g.interior()
    assert np.max(np.abs((d_z(f, g) - 2.0 * z)[inner])) <= 1e-13
    assert np.max(np.abs(d_zbar(f, g)[inner])) <= 1e-13


def test_laplacian_exact_on_quadratic():
    g = Grid.centered_square(0.5, 17)
    z = g.zmesh
    f = z.real**2 + z.imag**2
    lap = laplacian5(f, g)
    inner = g.interior()
    assert np.max(np.abs(lap[inner] - 4.0)) <= 1e-11
    assert np.all(lap[~inner] == 0.0)


def test_window_mask_fixed_region():
    g1 = Grid.centered_square(0.5, 33)
    g2 = Grid.centered_square(0.5, 65)
    w1, w2 = window_mask(g1), window_mask(g2)
    # the coarse-grid window nodes are a subset of the fine-grid window nodes
    assert np.all(w2[::2, ::2][w1])


def test_window_mask_depth_drops_boundary_rings():
    # the window of a rectangle off the origin reaches its boundary ring
    g = Grid(0.0, 0.5, -0.25, 0.25, 17, 17)
    assert window_mask(g)[0].any()
    for depth in (1, 2):
        win = window_mask(g, depth=depth)
        assert np.array_equal(win, window_mask(g) & g.interior(depth))
        assert not win[:depth].any()
