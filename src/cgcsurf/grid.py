"""Uniform rectangular grids in the conformal coordinate z = x + iy."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Node-centered uniform grid on [x_min, x_max] x [y_min, y_max].

    Node counts are odd and >= 9 so that (with a centered rectangle) z = 0 is
    a node. Spacing must be equal in both directions. Fields are stored as
    arrays of shape (nx, ny) indexed [i, j] with x = x_min + i*h,
    y = y_min + j*h.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 9 or self.ny < 9:
            raise ValueError("node counts must be >= 9")
        if self.nx % 2 == 0 or self.ny % 2 == 0:
            raise ValueError("node counts must be odd")
        hx = (self.x_max - self.x_min) / (self.nx - 1)
        hy = (self.y_max - self.y_min) / (self.ny - 1)
        if hx <= 0 or hy <= 0:
            raise ValueError("degenerate rectangle")
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValueError(f"spacing must be uniform, got hx={hx}, hy={hy}")

    @classmethod
    def centered_square(cls, r, n):
        """Square grid [-r, r]^2 with n nodes per side."""
        return cls(-r, r, -r, r, n, n)

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def xs(self):
        return self.x_min + self.h * np.arange(self.nx)

    @property
    def ys(self):
        return self.y_min + self.h * np.arange(self.ny)

    @property
    def zmesh(self):
        x, y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return x + 1j * y

    @property
    def base_index(self):
        """Index (i, j) of the node nearest z* = 0."""
        i = int(np.argmin(np.abs(self.xs)))
        j = int(np.argmin(np.abs(self.ys)))
        return i, j

    @property
    def max_radius(self):
        corners = [
            complex(x, y)
            for x in (self.x_min, self.x_max)
            for y in (self.y_min, self.y_max)
        ]
        return max(abs(c) for c in corners)

    def interior(self, depth=1):
        """Boolean mask of nodes at least `depth` rings away from the boundary."""
        m = np.zeros((self.nx, self.ny), dtype=bool)
        m[depth:-depth, depth:-depth] = True
        return m


def grad_x(f, grid):
    """d/dx, second order (centered interior, one-sided edges)."""
    return np.gradient(f, grid.h, axis=0, edge_order=2)


def grad_y(f, grid):
    return np.gradient(f, grid.h, axis=1, edge_order=2)


def d_z(f, grid):
    """Wirtinger derivative (f_x - i f_y)/2."""
    return 0.5 * (grad_x(f, grid) - 1j * grad_y(f, grid))


def d_zbar(f, grid):
    """Wirtinger derivative (f_x + i f_y)/2."""
    return 0.5 * (grad_x(f, grid) + 1j * grad_y(f, grid))


def laplacian5(f, grid):
    """5-point Laplacian; valid on interior nodes, zero on the boundary ring."""
    out = np.zeros_like(np.asarray(f, dtype=float))
    h2 = grid.h**2
    out[1:-1, 1:-1] = (
        f[2:, 1:-1] + f[:-2, 1:-1] + f[1:-1, 2:] + f[1:-1, :-2] - 4.0 * f[1:-1, 1:-1]
    ) / h2
    return out


def window_mask(grid, frac=0.9, depth=0):
    """The central `frac` of the rectangle: a fixed physical subdomain mask,
    about the rectangle's centre, shared across refinements.

    Refinement ratios must compare errors over the same physical region; the
    depth-in-nodes interior masks shrink toward the corners as h decreases.
    depth > 0 also drops the `depth` outer rings, where a differenced field
    is not valid. This is the diagnostic window of `pipeline` and `verify`.
    """
    z = grid.zmesh
    cx, cy = 0.5 * (grid.x_min + grid.x_max), 0.5 * (grid.y_min + grid.y_max)
    bx = frac * (0.5 * (grid.x_max - grid.x_min))
    by = frac * (0.5 * (grid.y_max - grid.y_min))
    m = (np.abs(z.real - cx) <= bx + 1e-12) & (np.abs(z.imag - cy) <= by + 1e-12)
    return m & grid.interior(depth) if depth else m
