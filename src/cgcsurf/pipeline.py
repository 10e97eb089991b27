"""Pipeline orchestration: config -> solve -> frames -> meshes -> report.

Each stage is wrapped so failures carry a stage label. All artifacts are
plain-text (CSV, OBJ, flat key-value report) and byte-stable across
repeated runs of the same config.
"""

import contextlib
import os

import numpy as np

from . import gauss, gaussmap, lax, serialize, surface
from . import qdiff as qd
from .errors import CgcError, ValidationError
from .grid import Grid, window_mask
from .report import VerifyReport, rms


@contextlib.contextmanager
def _stage(name):
    """Re-raise a CgcError with the stage label attached."""
    try:
        yield
    except CgcError as exc:
        exc.args = (f"stage {name}: {exc}",)
        raise


def make_grid(cfg):
    ny = cfg.ny or cfg.n
    return Grid(cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max, cfg.n, ny)


def _lambda_tag(lam):
    return f"{lam.real:+.6g}{lam.imag:+.6g}i".replace("+", "p").replace("-", "m")


def boundary_data(cfg, grid):
    if cfg.bc_mode == "umbilic-exact":
        return gauss.umbilic_seed(cfg.K, grid).u
    if cfg.bc_mode == "file":
        return _load_bc_file(cfg.bc_file, grid)
    return None  # heuristic default inside solve_gauss


def _load_bc_file(path, grid):
    """Full-grid u from a table with the columns of u.csv (i, j, x, y, u)."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError("bc_file", f"cannot read {path}: {exc}") from None
    if data.size == 0 or data.shape[1] != 5:
        raise ValidationError(
            "bc_file", f"{path} needs data rows of 5 columns (i,j,x,y,u)"
        )
    i, j = data[:, 0], data[:, 1]
    on_grid = (i == np.floor(i)) & (j == np.floor(j))
    on_grid &= (0 <= i) & (i < grid.nx) & (0 <= j) & (j < grid.ny)
    if not np.all(on_grid):
        raise ValidationError(
            "bc_file", f"{path} has a node index outside the {grid.nx}x{grid.ny} grid"
        )
    u = np.full((grid.nx, grid.ny), np.nan)
    u[i.astype(int), j.astype(int)] = data[:, 4]
    if not np.all(np.isfinite(u)):
        raise ValidationError(
            "bc_file", f"{path} does not cover the {grid.nx}x{grid.ny} grid"
        )
    return u


def solve_stage(cfg, grid):
    with _stage("solve"):
        bc = boundary_data(cfg, grid)
        mf = gauss.solve_gauss(
            cfg.qdiff(), cfg.K, grid, bc=bc, tol=cfg.gauss_tol
        )
    return mf


def _write_file(path, text):
    """Write text to path, creating its directory first."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CgcError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _write(out_dir, name, text):
    return _write_file(os.path.join(out_dir, name), text)


def _write_report(rep, out_dir, name, report_path):
    """Write the rendered report under out_dir and, if given, to report_path."""
    text = rep.render()
    paths = [_write(out_dir, name, text)]
    if report_path:
        paths.append(_write_file(report_path, text))
    return paths


def run_pipeline(cfg, stages=("solve", "frame", "mesh", "gaussmap"), report_path=None):
    """Run the requested stages; write artifacts under cfg.out_dir.

    Returns (report, paths). The report carries per-run diagnostic residuals
    with smoke-test thresholds (the acceptance suite proper lives in the
    verify subcommand's built-in fixtures).
    """
    grid = make_grid(cfg)
    q = cfg.qdiff()
    rep = VerifyReport()
    rep.meta["K"] = f"{cfg.K:.17g}"
    rep.meta["N"] = str(cfg.n)
    rep.meta["h"] = f"{grid.h:.17g}"
    paths = []
    h2 = 100.0 * grid.h**2  # generic smoke threshold for O(h^2) diagnostics

    mf = solve_stage(cfg, grid)
    r = gauss.gauss_residual(mf, q, grid)
    rep.add("gauss.residual", float(np.max(np.abs(r))), cfg.gauss_tol, rms_value=rms(r))
    paths.append(_write(cfg.out_dir, "u.csv", gauss.metric_field_csv(mf, grid)))

    lams = list(cfg.lambda_values())
    lam0 = None
    if cfg.at_lambda0:
        lam0 = complex(gaussmap.lambda0(cfg.K))
        # a requested lambda within 1e-12 of lambda_0 stands in for it
        lam0 = next((l for l in lams if abs(l - lam0) <= 1e-12), lam0)
        if lam0 not in lams:
            lams.append(lam0)

    def member(lam, keep_forms):
        """Build and write the member at lam. Return its forms if keep_forms
        and, at lambda_0 with a gaussmap stage, (reality residual, unitarity
        residual, L); nothing else of the member outlives the call."""
        tag = _lambda_tag(lam)
        with _stage(f"frame lam={lam}"):
            mc = lax.build_uv(mf, grid, q, lam)
            zc = lax.zero_curvature_residual(mc, grid)
            # the corner boundary layer does not decay with h: measure on
            # the fixed window, as verify does, and keep the corner visible
            rep.add(
                f"flatness.lam_{tag}",
                float(np.max(zc[win])),
                h2,
                rms_value=rms(zc[win]),
                note=f"full-grid max {float(np.max(zc)):.6g}",
            )
            frame = lax.integrate_frame(mc, grid)
            rep.add(f"frame.det_drift_{tag}", frame.det_drift, 1e-6)
        real = None
        if lam == lam0 and "gaussmap" in stages:
            real = (
                lax.reality_residual(mc, cfg.K),
                lax.frame_unitarity_residual(frame, cfg.K),
                gaussmap.lagrangian_map(frame),
            )
        # U, V and then the frame go as soon as they are used: held while the
        # surface and its forms are built, they raise the job's peak memory
        del mc, zc
        if "frame" in stages:
            paths.append(_write(cfg.out_dir, f"frame_{tag}.csv", lax.frame_csv(frame)))
        with _stage(f"surface lam={lam}"):
            s = surface.build_surface(frame)
        del frame
        if "mesh" in stages or "family" in stages:
            paths.append(
                _write(cfg.out_dir, f"surface_{tag}.obj", serialize.surface_obj(s))
            )
        forms = surface.fundamental_forms_numeric(s, grid) if keep_forms else None
        return forms, real

    # keep across members only what a later diagnostic reads: the forms at
    # lams[0], the first unit-circle forms, the running II deviation from
    # them, and the lambda_0 data
    first = base = at_lam0 = None
    dev, n_unit = 0.0, 0
    if any(s in stages for s in ("frame", "mesh", "family", "gaussmap")):
        win = window_mask(grid)
        for i, lam in enumerate(lams):
            unit = abs(abs(lam) - 1.0) < 1e-12
            forms, real = member(lam, keep_forms=i == 0 or unit)
            at_lam0 = real or at_lam0
            if i == 0:
                first = forms
            if unit:
                n_unit += 1
                if base is None:
                    base = forms
                else:
                    dev = max(dev, surface.ii_deviation(base, forms, grid))

    if first is not None:
        with _stage("diagnostics"):
            k_num = surface.curvature(first, grid)
            h_num = surface.mean_curvature(first, grid)
            rep.add(
                "curvature.max_error",
                surface.curvature_error(k_num, cfg.K, grid),
                max(5e-3, h2),
            )
            rep.add(
                "curvature.stddev_rel",
                float(np.std(k_num[window_mask(grid, depth=1)])) / abs(cfg.K),
                1e-2,
            )
            rep.add(
                "identity.three_forms",
                surface.form_identity_residual(first, k_num, h_num, grid),
                h2,
            )
            rep.add("klotz.dbar", surface.klotz_dbar(first.q_num, grid), h2)
            _, tension = gaussmap.harmonicity_residual(mf, grid, q=q)
            rep.add("harmonicity.tension", tension, h2)
            paths.append(
                _write(
                    cfg.out_dir,
                    "diagnostics.csv",
                    serialize.diagnostics_csv(k_num, h_num, first.q_num),
                )
            )
        if n_unit >= 2:
            rep.add("family.ii_deviation", dev, h2)
        else:
            rep.skip("family.ii_deviation", "fewer than two unit-circle lambdas")

    if "gaussmap" in stages and cfg.at_lambda0:
        reality, unitarity, L = at_lam0
        rep.add("reality.at_lambda0", reality, 1e-10)
        rep.add("frame.unitarity_at_lambda0", unitarity, 1e-6)
        with _stage("gaussmap"):
            er = gaussmap.energy_check(L, mf, q, grid, theta=0.0)
            rep.add("energy.holomorphic", er.holomorphic_residual, h2)
            rep.add("energy.mixed", er.mixed_residual, h2)
            csv = gaussmap.gaussmap_csv(grid, gaussmap.project(L, cfg.K))
            paths.append(_write(cfg.out_dir, "gaussmap.csv", csv))
    elif "gaussmap" in stages:
        rep.skip("gaussmap", "no at_lambda0 request in the config")

    paths += _write_report(rep, cfg.out_dir, "report.txt", report_path)
    return rep, paths


def run_converse(cfg, seed_name, lam1=None, report_path=None):
    """Converse construction: harmonic-map seed data -> CGC data artifacts.

    seed umbilic: u_hat = 0, Q_hat = 0 (rescales to a constant-conformal-factor
    umbilic-type data set). seed cylinder: u_hat = 0, Q_hat = 1, the exact
    degenerate balance e^{2u} = |Q|^2 (a degeneracy indicator, not a surface).
    """
    grid = make_grid(cfg)
    rep = VerifyReport()
    if lam1 is None:
        lam1 = complex(gaussmap.lambda0(cfg.K))
    r = abs(lam1)
    if seed_name == "umbilic":
        q_hat = qd.QDiff.zero(qd.PLANE)
    elif seed_name == "cylinder":
        q_hat = qd.QDiff.constant(1.0, qd.PLANE)
    else:
        raise CgcError(f"unknown converse seed {seed_name!r}")
    with _stage("converse"):
        u, q_new, k_new = gaussmap.converse_rescale(
            np.zeros((grid.nx, grid.ny)), q_hat, lam1, sphere=cfg.K > 0
        )
    rep.meta["lambda1_modulus"] = f"{r:.17g}"
    rep.meta["K_constructed"] = f"{k_new:.17g}"
    rep.add(
        "converse.lambda0_round_trip",
        abs(gaussmap.lambda0(k_new) - r),
        1e-12 * (1.0 + r),
    )
    mf = gauss.MetricField(u=u, K=k_new)
    balance = np.exp(2.0 * u) - np.abs(gauss.q_samples(q_new, grid)) ** 2
    degenerate = bool(np.any(balance <= 0.0))
    rep.meta["degenerate_balance"] = "yes" if degenerate else "no"
    paths = [_write(cfg.out_dir, "converse_u.csv", gauss.metric_field_csv(mf, grid))]
    if degenerate:
        length = surface.radial_length(mf, q_new, grid, metric="weak")
        rep.add(
            "converse.degenerate_radial_length",
            0.0 if np.isfinite(length) else 1.0,
            0.5,
            note=f"finite bounded weak length {length:.6g} (degeneracy indicator)",
        )
    paths += _write_report(rep, cfg.out_dir, "converse_report.txt", report_path)
    return rep, paths
