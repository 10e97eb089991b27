"""The five artifact writers: golden bytes, and equality with the
`str.format` writers that the `%` templates replaced.

The golden inputs are built from exactly rounded arithmetic only (no solver,
no transcendental functions), so the text and its digest do not depend on
the platform's BLAS or libm. The digests were taken from the per-node
f-string writers that preceded the shared table formatter, and still hold.

The property tests keep the `str.format` definitions of `_table`,
`_grid_table` and the five writers in this file as the oracle, and compare
the writers with them on NaN, +-inf, -0.0, subnormals, magnitudes near 1e16
and 1e17, random bit patterns, non-square grids (an i/j transposition would
show) and row counts on both sides of a formatting chunk.
"""

import hashlib
from itertools import starmap

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cgcsurf.gauss import MetricField, metric_field_csv
from cgcsurf.gaussmap import gaussmap_csv
from cgcsurf.grid import Grid
from cgcsurf.lax import FrameField, frame_csv
from cgcsurf.minkowski import herm_from_mink
from cgcsurf.serialize import (
    _CHUNK,
    _grid_table,
    _table,
    ball_vertices,
    diagnostics_csv,
    surface_obj,
)
from cgcsurf.surface import SurfaceData

# (nx, ny): a small rectangle, and one with more rows than a formatting chunk
SHAPES = [(17, 9), (65, 67)]

GOLDEN = {
    (17, 9): {
        "u.csv": "3b79d1f5926b324b5b62905594b53179f6606d9b42a985e7439591f786e8b488",
        "frame.csv": "ab11bff135cd5d871932bc281251e5001580de0cd5c589f3c9f84a388d9215a3",
        "surface.obj": "2dffb9e1d39806333b968bf7272625243514e6d74e35aa65c3fbd15c8b121549",
        "diagnostics.csv": "d050d3e3553a50c115333116a0a3a8e9b1af472d091974115838bb5b88a7252e",
        "gaussmap_h2.csv": "4b65e825d6c69418ee27b8a311c6064f112bf60e9704bdc94a9442ec72ee6141",
        "gaussmap_s2.csv": "d27b3d3a29e878ca3dfbe010e96a0395affff6ff22eea47dd5484e165e74c598",
    },
    (65, 67): {
        "u.csv": "85788f3da7188b494bc9636221cc6cc603bab5862bf07b426058810cf60bacc1",
        "frame.csv": "cb50a76250d76238bf9bba1b0505eaaef20f0c2f9d5de841cffa45a290aca0f3",
        "surface.obj": "b64a682abc12cf867192547ea254c987db8fd88efd5b296f9327890d69783aac",
        "diagnostics.csv": "4d8c74749ff6b91ad822f46bcbf627103845acbbf6731312267cf99eb315f818",
        "gaussmap_h2.csv": "f2e1b629db82c6bcf6e5168f201ac6e369ab44ea978511d9791976e60239db4b",
        "gaussmap_s2.csv": "5781c9e9f4e6c4f6b5e9e7065482fac8e14a3d63400d0cee6d02924bc083f227",
    },
}


def _inputs(nx, ny):
    h = 1.0 / (nx - 1)
    grid = Grid(-0.5, 0.5, -h * (ny - 1) / 2, h * (ny - 1) / 2, nx, ny)
    i, j = np.indices((nx, ny), dtype=float)
    a = (i - 3.0) / 7.0  # signs, zeros and non-terminating binary fractions
    b = (j + 1.0) / 13.0 - 0.25
    psi = np.empty((nx, ny, 2, 2), dtype=complex)
    psi[..., 0, 0] = a + 1j * b
    psi[..., 0, 1] = -b / 3.0 + 1j * 1e-300 * a
    psi[..., 1, 0] = 1e17 * a - 1j * b
    psi[..., 1, 1] = 1.0 / (1.0 + a * a) + 0j
    # hyperboloid points x0 = sqrt(1 + |x|^2) (sqrt is exactly rounded)
    x = np.stack([a, b, a * b], axis=-1)
    v = np.concatenate([np.sqrt(1.0 + np.sum(x * x, axis=-1))[..., None], x], axis=-1)
    f = herm_from_mink(v)
    surf = SurfaceData(f=f, n=f)
    k_num = -0.75 + a * b / 1e9
    k_num[0, :] = k_num[-1, :] = k_num[:, 0] = k_num[:, -1] = np.nan
    h_num = -a / 11.0
    w = (a + 1j * b) / (2.0 + a * a + b * b)
    s2 = x / np.sqrt(1.0 + np.sum(x * x, axis=-1))[..., None]
    return grid, a, psi, surf, k_num, h_num, w, s2


def _texts(nx, ny):
    grid, a, psi, surf, k_num, h_num, w, s2 = _inputs(nx, ny)
    return {
        "u.csv": metric_field_csv(MetricField(u=a * a - 1.0 / 3.0, K=-0.75), grid),
        "frame.csv": frame_csv(FrameField(psi=psi, det_drift=0.0)),
        "surface.obj": surface_obj(surf),
        "diagnostics.csv": diagnostics_csv(k_num, h_num, psi[..., 0, 0]),
        "gaussmap_h2.csv": gaussmap_csv(grid, w),
        "gaussmap_s2.csv": gaussmap_csv(grid, s2),
    }


@pytest.mark.parametrize("shape", SHAPES)
def test_writers_golden_bytes(shape):
    texts = _texts(*shape)
    digests = {k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()}
    assert digests == GOLDEN[shape]


def test_obj_layout():
    nx, ny = SHAPES[0]
    lines = _texts(nx, ny)["surface.obj"].splitlines()
    assert len(lines) == nx * ny + 2 * (nx - 1) * (ny - 1)
    assert all(line.startswith("v ") for line in lines[: nx * ny])
    # the two triangles of the first cell, 1-based, consistent winding
    assert lines[nx * ny : nx * ny + 2] == [f"f 1 {ny + 1} {ny + 2}", f"f 1 {ny + 2} 2"]
    assert lines[-1] == f"f {nx * ny - ny - 1} {nx * ny} {nx * ny - ny}"


# --- the str.format writers, kept as the oracle of the `%` templates ---


def _format_table(fmt, columns, header=None):
    cols = [np.ravel(c) for c in columns]
    parts = [] if header is None else [header]
    for a in range(0, cols[0].size, _CHUNK):
        rows = zip(*(c[a : a + _CHUNK].tolist() for c in cols))
        parts.append("\n".join(starmap(fmt.format, rows)))
    return "\n".join(parts) + "\n"


def _format_grid_table(grid, header, fmt, columns):
    i, j = np.indices((grid.nx, grid.ny))
    x, y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return _format_table("{},{},{:.17g},{:.17g}," + fmt, [i, j, x, y, *columns], header)


def _format_frame_csv(frame):
    shape = frame.psi.shape[:2]
    a = frame.psi.reshape(shape + (4,))
    parts = [part(a[..., k]) for k in range(4) for part in (np.real, np.imag)]
    return _format_table(
        "{},{}" + ",{:.17g}" * 8,
        [*np.indices(shape), *parts],
        "i,j,re_a11,im_a11,re_a12,im_a12,re_a21,im_a21,re_a22,im_a22",
    )


def _format_diagnostics_csv(k_num, h_num, q_num):
    i, j = np.indices(k_num.shape)
    return _format_table(
        "{},{},{:.17g},{:.17g},{:.17g},{:.17g}",
        [i, j, k_num, h_num, q_num.real, q_num.imag],
        "i,j,K_num,H_num,reQ,imQ",
    )


def _format_surface_obj(s):
    verts = ball_vertices(s)
    nx, ny = verts.shape[:2]
    faces = [
        (v, v + ny, v + ny + 1, v, v + ny + 1, v + 1)
        for v in (i * ny + j + 1 for i in range(nx - 1) for j in range(ny - 1))
    ]
    faces = np.array(faces, dtype=int).reshape(-1, 3)
    return _format_table("v {:.17g} {:.17g} {:.17g}", np.moveaxis(verts, -1, 0)) + (
        _format_table("f {} {} {}", faces.T)
    )


SPECIAL = [
    float("nan"),
    float("inf"),
    float("-inf"),
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -2.225073858507201e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    0.1,
    1e16,
    1e17,
    9007199254740993.0,  # 2**53 + 1 rounds to 2**53
    -123456789012345678.0,
    1e-5,
    1e21,
    1.7976931348623157e308,
]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


@st.composite
def float_arrays(draw, shape):
    """Values drawn from a small pool of floats plus random bit patterns
    (NaN payloads, subnormals, every exponent), spread over `shape`."""
    pool = np.array(draw(st.lists(values, min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = rng.choice(pool, size=shape)
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    return np.where(rng.random(shape) < 0.25, bits, out)


@st.composite
def complex_arrays(draw, shape):
    # set the parts one by one: re + 1j * im turns an infinite im into NaN
    z = np.empty(shape, dtype=complex)
    z.real = draw(float_arrays(shape))
    z.imag = draw(float_arrays(shape))
    return z


@st.composite
def int_arrays(draw, shape):
    pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool, dtype=np.int64), size=shape)


@st.composite
def grids(draw):
    """Grids of odd node counts 9..21 in each direction, including the
    transposed pair 9x11 / 11x9, at spacings from 1e-300 to 1e290."""
    nx, ny = draw(
        st.one_of(
            st.sampled_from([(9, 11), (11, 9)]),
            st.tuples(*[st.integers(4, 10).map(lambda k: 2 * k + 1)] * 2),
        )
    )
    scale = draw(st.sampled_from([1.0, 1e-300, 1e16, 1e290]))
    x0, y0 = (draw(st.floats(-2.0, 2.0)) * scale for _ in range(2))
    h = draw(st.floats(1e-3, 1.0)) * scale
    try:
        return Grid(x0, x0 + h * (nx - 1), y0, y0 + h * (ny - 1), nx, ny)
    except ValueError:  # spacing rounded past Grid's 1e-12 test
        assume(False)


# row counts: none, one, and both sides of a formatting chunk
ROWS = [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
# table shapes (rows = nx * ny) with the same counts, and non-square grids
SHAPES_ROWS = [(1, 1), (9, 11), (11, 9), (64, 64), (1, _CHUNK + 1), (65, 67)]

# column kind: (template, its str.format oracle, array strategy)
KINDS = {"float": ("%.17g", "{:.17g}", float_arrays), "int": ("%d", "{}", int_arrays)}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    rows=st.sampled_from(ROWS),
    kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4),
    sep=st.sampled_from([",", " ", ";"]),
    lead=st.sampled_from(["", "v ", "f "]),
    header=st.sampled_from([None, "", "a,b"]),
)
def test_table_matches_format_oracle(data, rows, kinds, sep, lead, header):
    columns = [data.draw(KINDS[kind][2](rows)) for kind in kinds]
    fmt = lead + sep.join(KINDS[k][0] for k in kinds)
    oracle = lead + sep.join(KINDS[k][1] for k in kinds)
    assert _table(fmt, columns, header) == _format_table(oracle, columns, header)


def test_table_without_rows():
    assert _table("%.17g", [np.zeros(0)]) == "\n"
    assert _table("%.17g", [np.zeros(0)], "u") == "u\n"


@settings(max_examples=40, deadline=None)
@given(grid=grids(), data=st.data())
def test_grid_writers_match_format_oracle(grid, data):
    shape = (grid.nx, grid.ny)
    u = data.draw(float_arrays(shape))
    w = data.draw(complex_arrays(shape))
    s2 = data.draw(float_arrays(shape + (3,)))
    assert metric_field_csv(MetricField(u=u, K=-0.75), grid) == _format_grid_table(
        grid, "i,j,x,y,u", "{:.17g}", [u]
    )
    assert gaussmap_csv(grid, w) == _format_grid_table(
        grid, "i,j,x,y,re_w,im_w", "{:.17g},{:.17g}", [w.real, w.imag]
    )
    assert gaussmap_csv(grid, s2) == _format_grid_table(
        grid, "i,j,x,y,s1,s2,s3", "{:.17g},{:.17g},{:.17g}", np.moveaxis(s2, -1, 0)
    )
    columns = [data.draw(float_arrays(shape)) for _ in range(4)]
    fmt = ",".join(["%.17g"] * 4)
    assert _grid_table(grid, "h", fmt, columns) == _format_grid_table(
        grid, "h", fmt.replace("%.17g", "{:.17g}"), columns
    )


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from(SHAPES_ROWS), data=st.data())
def test_frame_and_diagnostics_match_format_oracle(shape, data):
    psi = data.draw(complex_arrays(shape + (2, 2)))
    frame = FrameField(psi=psi, det_drift=0.0)
    assert frame_csv(frame) == _format_frame_csv(frame)
    k_num, h_num = (data.draw(float_arrays(shape)) for _ in range(2))
    assert diagnostics_csv(k_num, h_num, psi[..., 0, 0]) == _format_diagnostics_csv(
        k_num, h_num, psi[..., 0, 0]
    )


@settings(max_examples=10, deadline=None)
@given(
    shape=st.sampled_from(SHAPES_ROWS),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_surface_obj_matches_format_oracle(shape, scale, seed):
    # hyperboloid points x0 = sqrt(1 + |x|^2), so the ball projection accepts them
    x = np.random.default_rng(seed).standard_normal(shape + (3,)) * scale
    v = np.concatenate([np.sqrt(1.0 + np.sum(x * x, axis=-1))[..., None], x], axis=-1)
    f = herm_from_mink(v)
    surf = SurfaceData(f=f, n=f)
    assert surface_obj(surf) == _format_surface_obj(surf)
