"""Text artifact writers: OBJ mesh, diagnostics CSV sidecar, and the table
formatter that every CSV and mesh writer shares."""

from itertools import starmap

import numpy as np

from .minkowski import mink_from_herm, to_poincare_ball

_CHUNK = 4096  # rows formatted per batch; bounds the Python floats alive at once


def _table(fmt, columns, header=None):
    """One `fmt` line per row, newline-terminated, after an optional header.

    Each column is raveled row-major; row k formats element k of every
    column. Callers spell floats as `{:.17g}` and indices as `{}`.
    """
    cols = [np.ravel(c) for c in columns]
    parts = [] if header is None else [header]
    for a in range(0, cols[0].size, _CHUNK):
        rows = zip(*(c[a : a + _CHUNK].tolist() for c in cols))
        parts.append("\n".join(starmap(fmt.format, rows)))
    return "\n".join(parts) + "\n"


def _grid_table(grid, header, fmt, columns):
    """`_table` with the i,j,x,y node prefix of the grid-field CSVs."""
    i, j = np.indices((grid.nx, grid.ny))
    x, y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return _table("{},{},{:.17g},{:.17g}," + fmt, [i, j, x, y, *columns], header)


def ball_vertices(s):
    """Poincare-ball coordinates of the immersion, shape (nx, ny, 3)."""
    return to_poincare_ball(mink_from_herm(s.f))


def surface_obj(s):
    """OBJ mesh: row-major vertices, two triangles per cell, 1-based indices."""
    verts = ball_vertices(s)
    nx, ny = verts.shape[:2]
    v00 = (np.arange(nx - 1)[:, None] * ny + np.arange(ny - 1) + 1).ravel()
    # per cell (v00, v10, v11) then (v00, v11, v01), consistent winding
    faces = np.stack([v00, v00 + ny, v00 + ny + 1, v00, v00 + ny + 1, v00 + 1], -1)
    return _table("v {:.17g} {:.17g} {:.17g}", np.moveaxis(verts, -1, 0)) + _table(
        "f {} {} {}", faces.reshape(-1, 3).T
    )


def diagnostics_csv(k_num, h_num, q_num):
    """Per-vertex sidecar: i,j,K_num,H_num,reQ,imQ (NaN on the boundary ring)."""
    i, j = np.indices(k_num.shape)
    return _table(
        "{},{},{:.17g},{:.17g},{:.17g},{:.17g}",
        [i, j, k_num, h_num, q_num.real, q_num.imag],
        "i,j,K_num,H_num,reQ,imQ",
    )
