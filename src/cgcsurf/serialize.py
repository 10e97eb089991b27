"""Text artifact writers: OBJ mesh, diagnostics CSV sidecar, and the table
formatter that every CSV and mesh writer shares."""

import numpy as np

from .minkowski import mink_from_herm, to_poincare_ball

_CHUNK = 4096  # rows formatted per batch; bounds the Python floats alive at once


def _table(fmt, columns, header=None):
    """One `fmt` line per row, newline-terminated, after an optional header.

    Each column is raveled row-major; row k formats element k of every
    column. `fmt` is a `%` template: `%.17g` for floats, `%d` for indices.
    A chunk of rows is one `%` call on the line repeated over the chunk.
    With no rows and no header the text is a single newline.
    """
    cols = [np.ravel(c) for c in columns]
    width = len(cols)
    line = fmt + "\n"
    parts = [] if header is None else [header + "\n"]
    for a in range(0, cols[0].size, _CHUNK):
        rows = min(_CHUNK, cols[0].size - a)
        flat = [None] * (rows * width)
        for k, c in enumerate(cols):
            flat[k::width] = c[a : a + rows].tolist()
        parts.append(line * rows % tuple(flat))
    return "".join(parts) or "\n"


def _grid_table(grid, header, fmt, columns):
    """`_table` with the i,j,x,y node prefix of the grid-field CSVs.

    x depends only on i and y only on j, so each coordinate is formatted
    once: grid row i is one `%` call on a template that carries i and x_i,
    filled from a list, reused across rows, of the j and y_j strings
    interleaved with the row's values of each (nx, ny) column.
    """
    cols = [np.reshape(c, (grid.nx, grid.ny)) for c in columns]
    width = len(cols) + 2
    flat = [None] * (grid.ny * width)
    flat[0::width] = ["%d" % j for j in range(grid.ny)]
    flat[1::width] = ["%.17g" % y for y in grid.ys.tolist()]
    parts = [header + "\n"]
    for i, x in enumerate(grid.xs.tolist()):
        for k, c in enumerate(cols, start=2):
            flat[k::width] = c[i].tolist()
        line = "%d,%%s,%.17g,%%s," % (i, x) + fmt + "\n"
        parts.append(line * grid.ny % tuple(flat))
    return "".join(parts)


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
    return _table("v %.17g %.17g %.17g", np.moveaxis(verts, -1, 0)) + _table(
        "f %d %d %d", faces.reshape(-1, 3).T
    )


def diagnostics_csv(k_num, h_num, q_num):
    """Per-vertex sidecar: i,j,K_num,H_num,reQ,imQ (NaN on the boundary ring)."""
    i, j = np.indices(k_num.shape)
    return _table(
        "%d,%d,%.17g,%.17g,%.17g,%.17g",
        [i, j, k_num, h_num, q_num.real, q_num.imag],
        "i,j,K_num,H_num,reQ,imQ",
    )
