"""Output checks made from outside the program.

Every check reads the artifacts a job wrote (or the report text it
rendered) and raises `CheckFailed` with a reason when they are wrong. Nothing
here calls into `cgcsurf`: the residual, masks and closed forms are written
out again with numpy, so a defect in the program cannot also hide in its
check.
"""

import hashlib
import math
import os

import numpy as np

EPS = np.finfo(float).eps


class CheckFailed(Exception):
    pass


def require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


def digests(out_dir):
    """sha256 of every file the job wrote, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def parse_report(text):
    """Flat `key = value` report -> dict; every `.max` must be a finite float."""
    entries = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        require(sep, f"report line without ' = ': {line!r}")
        entries[key] = value
    require(entries.get("overall") in ("pass", "FAIL"), "report has no overall line")
    for key, value in entries.items():
        if key.endswith(".max"):
            require(math.isfinite(float(value)), f"report {key} = {value}")
    return entries


def fail_entries(entries):
    return sum(
        1 for k, v in entries.items() if k.endswith(".status") and v == "FAIL"
    )


def _load_csv(path, ncols, nrows):
    require(os.path.isfile(path), f"missing artifact {os.path.basename(path)}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(
        data.shape == (nrows, ncols),
        f"{os.path.basename(path)} has shape {data.shape}, want {(nrows, ncols)}",
    )
    return data


def read_u(out_dir, nx, ny):
    """u.csv -> (x, y, u) arrays of shape (nx, ny), checked finite and ordered."""
    data = _load_csv(os.path.join(out_dir, "u.csv"), 5, nx * ny)
    require(np.all(np.isfinite(data)), "u.csv holds non-finite values")
    ij = data[:, :2].astype(int)
    want = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"), -1)
    require(np.array_equal(ij, want.reshape(-1, 2)), "u.csv rows out of order")
    x, y, u = (data[:, k].reshape(nx, ny) for k in (2, 3, 4))
    return x, y, u


def gauss_residual(x, y, u, K, q_coeffs):
    """(1/4) lap_h u + (K/2)(e^u - |Q|^2 e^-u) on interior nodes."""
    nx = u.shape[0]
    h = (x[-1, 0] - x[0, 0]) / (nx - 1)
    z = x + 1j * y
    q = sum(complex(re, im) * z**k for k, (re, im) in enumerate(q_coeffs))
    lap = (
        u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]
    ) / h**2
    ui = u[1:-1, 1:-1]
    return 0.25 * lap + 0.5 * K * (np.exp(ui) - np.abs(q[1:-1, 1:-1]) ** 2 * np.exp(-ui)), h


def check_solve(out_dir, cfg, entries):
    """u.csv reproduces the report's residual; returns (x, y, u) for later checks."""
    ny = cfg.ny or cfg.n
    x, y, u = read_u(out_dir, cfg.n, ny)
    r, h = gauss_residual(x, y, u, cfg.K, cfg.q_coeffs)
    mine = float(np.max(np.abs(r)))
    theirs = float(entries["gauss.residual.max"])
    # two evaluations of the same stencil in another order differ by rounding
    floor = 64.0 * EPS * float(np.max(np.abs(u))) / h**2
    require(
        abs(mine - theirs) <= floor,
        f"u.csv residual {mine:.6e} vs report {theirs:.6e} (floor {floor:.1e})",
    )
    require(
        mine <= cfg.gauss_tol + floor,
        f"u.csv residual {mine:.3e} above gauss_tol {cfg.gauss_tol:.1e}",
    )
    return x, y, u


def umbilic_error(x, y, u, K):
    """max |u - u_exact| for Q = 0: u_exact = log(4/|K|) - 2 log(1 - |z|^2)."""
    exact = math.log(4.0 / abs(K)) - 2.0 * np.log1p(-(x**2 + y**2))
    return float(np.max(np.abs(u - exact)))


def check_obj(path, nx, ny):
    """OBJ mesh: nx*ny finite vertices strictly inside the unit ball, valid faces."""
    require(os.path.isfile(path), f"missing artifact {os.path.basename(path)}")
    with open(path) as fh:
        lines = fh.read().split("\n")
    nv, nf = nx * ny, 2 * (nx - 1) * (ny - 1)
    name = os.path.basename(path)
    require(len(lines) == nv + nf + 1 and lines[-1] == "", f"{name}: wrong line count")
    verts = np.array(" ".join(lines[:nv]).split()).reshape(nv, 4)
    require(np.all(verts[:, 0] == "v"), f"{name}: vertex block malformed")
    v = verts[:, 1:].astype(float)
    require(np.all(np.isfinite(v)), f"{name}: non-finite vertex")
    r2 = np.max(np.sum(v * v, axis=1))
    require(r2 < 1.0, f"{name}: vertex on or outside the unit ball (|v|^2 = {r2!r})")
    faces = np.array(" ".join(lines[nv:-1]).split()).reshape(nf, 4)
    require(np.all(faces[:, 0] == "f"), f"{name}: face block malformed")
    idx = faces[:, 1:].astype(np.int64)
    require(idx.min() >= 1 and idx.max() <= nv, f"{name}: face index out of range")


def check_frame(path, nx, ny):
    data = _load_csv(path, 10, nx * ny)
    require(np.all(np.isfinite(data)), f"{os.path.basename(path)}: non-finite entry")


def check_gaussmap(path, nx, ny, h2):
    """H^2 images lie in the open unit disk; S^2 images are unit vectors."""
    data = _load_csv(path, 6 if h2 else 7, nx * ny)
    require(np.all(np.isfinite(data)), "gaussmap.csv: non-finite entry")
    if h2:
        w2 = np.max(data[:, 4] ** 2 + data[:, 5] ** 2)
        require(w2 < 1.0, f"gaussmap.csv: |w|^2 = {w2!r} not below 1")
    else:
        s = np.sqrt(np.sum(data[:, 4:] ** 2, axis=1))
        require(np.max(np.abs(s - 1.0)) <= 1e-6, "gaussmap.csv: S^2 image off the sphere")


def window_interior(x, y, frac=0.9):
    """Fixed physical window (frac of the half-widths) minus the boundary ring."""
    bx = frac * max(abs(x[0, 0]), abs(x[-1, 0]))
    by = frac * max(abs(y[0, 0]), abs(y[0, -1]))
    mask = (np.abs(x) <= bx + 1e-12) & (np.abs(y) <= by + 1e-12)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
    return mask


def check_diagnostics(out_dir, cfg, x, y, entries):
    """diagnostics.csv: finite off the boundary ring; returns max |K_num - K|
    over the window, which must equal the report's curvature.max_error."""
    nx, ny = x.shape
    data = _load_csv(os.path.join(out_dir, "diagnostics.csv"), 6, nx * ny)
    inner = np.zeros((nx, ny), dtype=bool)
    inner[1:-1, 1:-1] = True
    require(
        np.all(np.isfinite(data[inner.ravel()])),
        "diagnostics.csv: non-finite interior entry",
    )
    k_num = data[:, 2].reshape(nx, ny)
    err = float(np.max(np.abs(k_num[window_interior(x, y)] - cfg.K)))
    theirs = float(entries["curvature.max_error.max"])
    require(
        abs(err - theirs) <= 1e-12 * max(1.0, theirs),
        f"diagnostics.csv curvature error {err!r} vs report {theirs!r}",
    )
    return err


def check_pipeline_job(out_dir, cfg, stages, entries):
    """All artifacts of one run_pipeline call; returns quality figures."""
    quality = {}
    x, y, u = check_solve(out_dir, cfg, entries)
    if cfg.bc_mode == "umbilic-exact":
        quality["solve_err"] = umbilic_error(x, y, u, cfg.K)
    nx, ny = x.shape
    names = os.listdir(out_dir)
    n_lams = len(cfg.lambdas) + (1 if cfg.at_lambda0 else 0)
    if "frame" in stages:
        frames = [n for n in names if n.startswith("frame_") and n.endswith(".csv")]
        require(len(frames) == n_lams, f"{len(frames)} frame CSVs, want {n_lams}")
        for name in frames:
            check_frame(os.path.join(out_dir, name), nx, ny)
    if "mesh" in stages:
        meshes = [n for n in names if n.startswith("surface_") and n.endswith(".obj")]
        require(len(meshes) == n_lams, f"{len(meshes)} OBJ meshes, want {n_lams}")
        for name in meshes:
            check_obj(os.path.join(out_dir, name), nx, ny)
        quality["curvature_err"] = check_diagnostics(out_dir, cfg, x, y, entries)
    if "gaussmap" in stages and cfg.at_lambda0:
        check_gaussmap(os.path.join(out_dir, "gaussmap.csv"), nx, ny, cfg.K < 0)
    return quality
