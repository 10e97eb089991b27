"""Golden bytes of the five artifact writers.

The inputs are built from exactly rounded arithmetic only (no solver, no
transcendental functions), so the text and its digest do not depend on the
platform's BLAS or libm. The digests were taken from the per-node f-string
writers that preceded the shared table formatter.
"""

import hashlib

import numpy as np
import pytest

from cgcsurf.gauss import MetricField, metric_field_csv
from cgcsurf.gaussmap import gaussmap_csv
from cgcsurf.grid import Grid
from cgcsurf.lax import FrameField, frame_csv
from cgcsurf.minkowski import herm_from_mink_batch
from cgcsurf.serialize import diagnostics_csv, surface_obj
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
    f = herm_from_mink_batch(v)
    surf = SurfaceData(f=f, n=f, lam=1.0, det_residual=0.0, normal_residual=0.0)
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
        "frame.csv": frame_csv(FrameField(psi=psi, lam=1.0, base_index=(0, 0), det_drift=0.0)),
        "surface.obj": surface_obj(surf),
        "diagnostics.csv": diagnostics_csv(k_num, h_num, psi[..., 0, 0]),
        "gaussmap_h2.csv": gaussmap_csv(grid, w, "H2"),
        "gaussmap_s2.csv": gaussmap_csv(grid, s2, "S2"),
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
