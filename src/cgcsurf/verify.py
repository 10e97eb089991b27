"""Built-in fixture verification suite.

Each check turns one acceptance property into a named report entry. The same
computations back the CLI `verify` subcommand and the acceptance test module.
All fixtures are deterministic (fixed seeds, serial reductions).
"""

import numpy as np
from scipy.linalg import expm

from . import gauss, gaussmap, lax, qdiff, surface
from .grid import Grid, window_mask
from .minkowski import (
    E0,
    E1,
    E2,
    E3,
    EHAT2,
    EHAT3,
    herm_from_mink,
    mink_inner,
    mink_pairing,
)
from .report import VerifyReport

K_NEG = -0.75
K_POS = 3.0
DECAY_RANGE = (3.0, 5.0)  # expected per-halving error ratio for O(h^2)
LOOSE_DECAY = 2.5  # one-sided floor where only "O(h^2)" is claimed
NEG_FLOOR = 1e-2

Q_SLOPE = qdiff.QDiff((0j, 0.1 + 0j))  # Q(z) = z/10 on the unit disk
Q_ZSQ = qdiff.QDiff((0j, 0j, 1.0 + 0j))  # Q = z^2, half-turn invariant

# Q and K of the solved fixtures, all with heuristic boundary data; "pos" is
# the best-effort positive branch
SOLVED = {"slope": (Q_SLOPE, K_NEG), "pos": (Q_SLOPE, K_POS), "zsq": (Q_ZSQ, K_NEG)}


class Fixtures:
    """Lazily computed shared fixtures, keyed by (kind, params)."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def grid(self, r, n):
        return self._get(("grid", r, n), lambda: Grid.centered_square(r, n))

    def umbilic(self, r, n):
        """Exact umbilic seed, K = -3/4."""
        return self._get(
            ("umbilic", r, n), lambda: gauss.umbilic_seed(K_NEG, self.grid(r, n))
        )

    def solved(self, key, n, r=0.5):
        """Solved field of the SOLVED fixture `key` on [-r, r]^2."""
        q, k = SOLVED[key]
        return self._get(
            (key, r, n), lambda: gauss.solve_gauss(q, k, self.grid(r, n))
        )

    def frame(self, mf_key, q, lam, n, r=0.5, order="rows-first"):
        def make():
            grid = self.grid(r, n)
            if mf_key == "umbilic":
                mf = self.umbilic(r, n)
            else:
                mf = self.solved(mf_key, n, r)
            mc = lax.build_uv(mf, grid, q, lam)
            return lax.integrate_frame(mc, grid, order=order)

        return self._get(("frame", mf_key, q, complex(lam), n, r, order), make)


def check_minkowski_model(rep, fx):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(4) * rng.uniform(0.1, 10.0)
        a = herm_from_mink(v)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        norm2 = float(np.sum(np.abs(a) ** 2))
        worst = max(worst, abs(mink_inner(a, a) + det.real) / (1.0 + norm2))
    rep.add("minkowski.inner_vs_det", worst, 1e-12)

    basis = (E0, E1, E2, E3)
    gram = np.array([[mink_inner(a, b) for b in basis] for a in basis])
    exact = float(np.max(np.abs(gram - np.diag([-1.0, 1.0, 1.0, 1.0]))))
    rep.add("minkowski.basis_orthonormal", exact, 0.0)
    null = max(
        abs(mink_pairing(EHAT2, EHAT2)),
        abs(mink_pairing(EHAT3, EHAT3)),
        abs(mink_pairing(EHAT2, EHAT3) - 0.5),
    )
    rep.add("minkowski.null_basis", float(null), 0.0)


def check_pde_order(rep, fx):
    errs = []
    # inscribed square of the radius-0.8 disk (corner radius exactly 0.8)
    half_side = 0.8 / np.sqrt(2.0)
    for n in (33, 65, 129):
        grid = fx.grid(half_side, n)
        seed = gauss.umbilic_seed(K_NEG, grid)
        mf = gauss.solve_gauss(qdiff.QDiff.zero(), K_NEG, grid, bc=seed.u)
        errs.append(float(np.max(np.abs(mf.u - seed.u))))
    rep.add("gauss.solve_error_n129", errs[2], 1e-4)
    for k, (lo, hi) in ((0, DECAY_RANGE), (1, DECAY_RANGE)):
        ratio = errs[k] / errs[k + 1]
        rep.add(
            f"gauss.refinement_ratio_{(33, 65)[k]}_{(65, 129)[k]}",
            abs(ratio - 0.5 * (lo + hi)),
            0.5 * (hi - lo),
            note=f"ratio = {ratio:.4g}, expected in [{lo}, {hi}]",
        )


def _strip_fixture(fx):
    def make():
        a = 0.16
        grid = Grid(-a, a, -0.01, 0.01, 129, 9)
        q = qdiff.QDiff.constant(1.0, qdiff.PLANE)
        sol = gauss.ode_oracle(1.0, K_NEG, (-a, a), (0.5, 0.5))
        profile = sol.sol(grid.xs)[0]
        bc = np.repeat(profile[:, None], grid.ny, axis=1)
        mf = gauss.solve_gauss(q, K_NEG, grid, bc=bc)
        return grid, q, mf, profile

    return fx._get(("strip",), make)


def check_oracle_equivalence(rep, fx):
    grid, _, mf, profile = _strip_fixture(fx)
    diff = np.abs(mf.u - profile[:, None])
    rep.add("gauss.strip_vs_ode_oracle", float(np.max(diff)), 1e-6)
    # the Q = 1 normal form must agree with the general residual to rounding
    r1 = gauss.gauss_residual(mf, qdiff.QDiff.constant(1.0, qdiff.PLANE), grid)
    r2 = gauss.sinh_normal_residual(mf, grid)
    rep.add("gauss.sinh_normal_form", float(np.max(np.abs(r1 - r2))), 1e-13)


def check_flatness(rep, fx):
    lam0 = gaussmap.lambda0(K_NEG)
    for name, key, q in (
        ("umbilic", "umbilic", qdiff.QDiff.zero()),
        ("slope", "slope", Q_SLOPE),
    ):
        for lam, lname in ((1.0, "1"), (1j, "i"), (lam0, "lam0")):
            maxres = []
            for n in (33, 65, 129):
                grid = fx.grid(0.5, n)
                mf = fx.umbilic(0.5, n) if key == "umbilic" else fx.solved("slope", n)
                mc = lax.build_uv(mf, grid, q, lam)
                r = lax.zero_curvature_residual(mc, grid)
                maxres.append(float(np.max(r[window_mask(grid)])))
            ratio = min(maxres[0] / maxres[1], maxres[1] / maxres[2])
            lo, hi = DECAY_RANGE
            rep.add(
                f"flatness.decay_{name}_lam{lname}",
                abs(min(max(ratio, lo), hi) - ratio),
                0.0,
                rms_value=maxres[2],
                note=f"worst per-halving ratio = {ratio:.4g}, expected in [{lo}, {hi}]",
            )
    # negative control: non-holomorphic samples with p != 0 break flatness
    grid = fx.grid(0.5, 65)
    mf = gauss.MetricField(u=np.zeros((65, 65)), K=K_NEG)
    qs = np.conj(grid.zmesh)
    p = lax.compute_p(mf, qs, grid)
    mc = lax.build_uv(mf, grid, None, 1.0, p=p, qs=qs)
    r = lax.zero_curvature_residual(mc, grid)
    rep.add_bound_below(
        "flatness.negative_control", float(np.max(r)), NEG_FLOOR
    )


def check_frame_integrity(rep, fx):
    # det normalization
    frame = fx.frame("umbilic", qdiff.QDiff.zero(), 1.0, 129)
    det = np.linalg.det(frame.psi)
    rep.add("frame.det_unit", float(np.max(np.abs(det - 1.0))), 1e-9)
    rep.add("frame.det_step_drift", frame.det_drift, 1e-6)
    # path dependence decays at O(h^2)
    diffs = []
    for n in (65, 129):
        fr = fx.frame("slope", Q_SLOPE, 1.0, n)
        fc = fx.frame("slope", Q_SLOPE, 1.0, n, order="columns-first")
        diffs.append(float(np.max(np.abs(fr.psi - fc.psi))))
    ratio = diffs[0] / diffs[1]
    rep.add(
        "frame.path_dependence_decay",
        max(0.0, LOOSE_DECAY - ratio),
        0.0,
        rms_value=diffs[1],
        note=f"per-halving ratio = {ratio:.4g}, floor {LOOSE_DECAY}",
    )
    # constant-coefficient RK4 against the matrix exponential
    grid = fx.grid(0.5, 65)
    mf = fx.umbilic(0.5, 65)
    mc = lax.build_uv(mf, grid, qdiff.QDiff.zero(), 1.0)
    a = mc.U[10, 20] + mc.V[10, 20]
    target = expm(a)
    errs = []
    for steps in (16, 32):
        h = 1.0 / steps
        psi = np.eye(2, dtype=complex)
        for _ in range(steps):
            psi = lax._rk4_step(psi, a, a, h)
        errs.append(float(np.max(np.abs(psi - target))))
    ratio = errs[0] / errs[1]
    rep.add(
        "frame.rk4_vs_expm_order",
        abs(ratio - 16.0),
        4.0,
        note=f"per-halving ratio = {ratio:.4g}, expected in [12, 20]",
    )


def check_reality(rep, fx):
    lam0 = gaussmap.lambda0(K_NEG)  # sqrt(3)
    grid = fx.grid(0.5, 65)
    mf = fx.umbilic(0.5, 65)
    mc0 = lax.build_uv(mf, grid, qdiff.QDiff.zero(), lam0)
    rep.add("reality.su11_at_lam0", lax.reality_residual(mc0, lax.SU11), 1e-10)
    mc1 = lax.build_uv(mf, grid, qdiff.QDiff.zero(), 1.0)
    rep.add_bound_below(
        "reality.su11_at_1_negative", lax.reality_residual(mc1, lax.SU11), NEG_FLOOR
    )
    fr0 = fx.frame("umbilic", qdiff.QDiff.zero(), lam0, 129)
    rep.add(
        "reality.su11_frame_unitarity",
        lax.frame_unitarity_residual(fr0, lax.SU11),
        1e-6,
    )
    fr1 = fx.frame("umbilic", qdiff.QDiff.zero(), 1.0, 129)
    rep.add_bound_below(
        "reality.su11_frame_at_1_negative",
        lax.frame_unitarity_residual(fr1, lax.SU11),
        NEG_FLOOR,
    )
    # positive-curvature branch, K = 3, sigma = 2: same modulus sqrt(3)
    lam0p = gaussmap.lambda0(K_POS)
    grid_p = fx.grid(0.2, 65)
    mf_p = fx.solved("pos", 65, r=0.2)
    mcp = lax.build_uv(mf_p, grid_p, Q_SLOPE, lam0p)
    rep.add("reality.su2_at_lam0", lax.reality_residual(mcp, lax.SU2), 1e-10)
    frp = fx.frame("pos", Q_SLOPE, lam0p, 65, r=0.2)
    rep.add(
        "reality.su2_frame_unitarity",
        lax.frame_unitarity_residual(frp, lax.SU2),
        1e-6,
    )
    mcp1 = lax.build_uv(mf_p, grid_p, Q_SLOPE, 1.0)
    rep.add_bound_below(
        "reality.su2_at_1_negative", lax.reality_residual(mcp1, lax.SU2), NEG_FLOOR
    )


def _surface_for(fx, key, q, lam, n, r=0.5):
    frame = fx.frame(key, q, lam, n, r=r)
    return surface.build_surface(frame)


def _perturbed_surface(fx, n=65):
    """Non-CGC control: conjugate by a position-dependent unimodular field."""
    grid = fx.grid(0.5, n)
    s = _surface_for(fx, "slope", Q_SLOPE, 1.0, n)
    amp = 0.3 * grid.zmesh.real
    g = np.zeros(s.f.shape, dtype=complex)  # position-dependent SU(2) rotation
    g[..., 0, 0] = np.cos(amp)
    g[..., 1, 1] = np.cos(amp)
    g[..., 0, 1] = np.sin(amp)
    g[..., 1, 0] = -np.sin(amp)
    gs = np.conj(np.swapaxes(g, -1, -2))
    return surface.SurfaceData(
        f=g @ s.f @ gs, n=g @ s.n @ gs, lam=s.lam, det_residual=0.0,
        normal_residual=0.0,
    )


def check_curvature_constancy(rep, fx):
    for name, key, q in (
        ("umbilic", "umbilic", qdiff.QDiff.zero()),
        ("slope", "slope", Q_SLOPE),
    ):
        errs = []
        for n in (33, 65, 129):
            grid = fx.grid(0.5, n)
            s = _surface_for(fx, key, q, 1.0, n)
            forms = surface.fundamental_forms_numeric(s, grid)
            k_num = surface.curvature(forms, grid)
            errs.append(surface.curvature_error(k_num, K_NEG, grid))
            if n == 129:
                interior = grid.interior()
                std = float(np.std(k_num[interior]))
                rep.add(
                    f"curvature.{name}_max_error_n129",
                    float(np.max(np.abs(k_num[interior] - K_NEG))),
                    5e-3,
                )
                rep.add(f"curvature.{name}_stddev_rel", std / abs(K_NEG), 1e-2)
        _add_small_or_decaying(rep, f"curvature.{name}_decay", (errs[1], errs[2]))
    # negative control: non-CGC surface has visibly varying curvature
    grid = fx.grid(0.5, 65)
    s = _perturbed_surface(fx)
    forms = surface.fundamental_forms_numeric(s, grid)
    k_num = surface.curvature(forms, grid)
    spread = float(np.max(k_num[grid.interior()]) - np.min(k_num[grid.interior()]))
    rep.add_bound_below("curvature.negative_control_spread", spread, NEG_FLOOR)


def check_klotz(rep, fx):
    qerrs, dbars = [], []
    for n in (65, 129):
        grid = fx.grid(0.5, n)
        s = _surface_for(fx, "slope", Q_SLOPE, 1.0, n)
        q_num, _ = surface.klotz_recover(s, grid)
        q_in = qdiff.eval_q(Q_SLOPE, grid.zmesh)
        win = window_mask(grid, depth=1)
        qerrs.append(float(np.max(np.abs((q_num - q_in)[win]))))
        dbars.append(surface.klotz_dbar(q_num, grid))
    _add_small_or_decaying(rep, "klotz.match_decay", qerrs)
    _add_small_or_decaying(rep, "klotz.dbar_decay", dbars)
    grid = fx.grid(0.5, 65)
    s = _perturbed_surface(fx)
    _, dbar = surface.klotz_recover(s, grid)
    rep.add_bound_below("klotz.negative_control_dbar", dbar, NEG_FLOOR)


def check_associated_family(rep, fx):
    devs_ii, devs_q, devs_k = [], [], []
    for n in (65, 129):
        grid = fx.grid(0.5, n)
        mf = fx.solved("slope", n)
        q_in = qdiff.eval_q(Q_SLOPE, grid.zmesh)
        win = window_mask(grid, depth=1)
        members = surface.associated_family(mf, grid, Q_SLOPE, 8)
        base_forms = surface.fundamental_forms_numeric(members[0], grid)
        dev_ii = dev_q = dev_k = 0.0
        for k, s in enumerate(members):
            lam = np.exp(2j * np.pi * k / 8)
            forms = surface.fundamental_forms_numeric(s, grid)
            dev_ii = max(dev_ii, surface.ii_deviation(base_forms, forms, grid))
            dev_q = max(
                dev_q, float(np.max(np.abs((forms.q_num - lam**-2 * q_in)[win])))
            )
            k_num = surface.curvature(forms, grid)
            dev_k = max(dev_k, surface.curvature_error(k_num, K_NEG, grid))
        devs_ii.append(dev_ii)
        devs_q.append(dev_q)
        devs_k.append(dev_k)
    rep.add("family.k_deviation", devs_k[1], 1e-2)
    _add_small_or_decaying(rep, "family.ii_invariance_decay", devs_ii)
    _add_small_or_decaying(rep, "family.q_transform_decay", devs_q)


def check_form_identity(rep, fx):
    resids = []
    for n in (65, 129):
        grid = fx.grid(0.5, n)
        s = _surface_for(fx, "slope", Q_SLOPE, 1.0, n)
        forms = surface.fundamental_forms_numeric(s, grid)
        k_num = surface.curvature(forms, grid)
        h_num = surface.mean_curvature(forms, grid)
        resids.append(surface.form_identity_residual(forms, k_num, h_num, grid))
    _add_small_or_decaying(rep, "identity.three_forms_decay", resids)
    # the printed alternative closed form disagrees by a factor ~2 at Q = 0
    grid = fx.grid(0.5, 65)
    mf = fx.umbilic(0.5, 65)
    s = _surface_for(fx, "umbilic", qdiff.QDiff.zero(), 1.0, 65)
    forms = surface.fundamental_forms_numeric(s, grid)
    h_num = surface.mean_curvature(forms, grid)
    h_printed = surface.printed_mean_curvature(mf, qdiff.QDiff.zero(), grid)
    interior = grid.interior()
    ratio2 = float(np.median(h_num[interior] / h_printed[interior]))
    rep.add(
        "identity.printed_h_factor",
        abs(ratio2 - 2.0),
        1e-2,
        note=f"derived/printed mean curvature = {ratio2:.6g} at Q = 0",
    )


def check_energy(rep, fx):
    lam0 = gaussmap.lambda0(K_NEG)
    for theta in (0.0, np.pi / 4, np.pi / 2):
        holo, mixed = [], []
        for n in (65, 129):
            grid = fx.grid(0.5, n)
            mf = fx.solved("slope", n)
            lam = lam0 * np.exp(1j * theta)
            frame = fx.frame("slope", Q_SLOPE, lam, n)
            lmap = gaussmap.lagrangian_map(frame, target="H2")
            er = gaussmap.energy_check(lmap, mf, Q_SLOPE, grid, theta=theta)
            holo.append(er.holomorphic_residual)
            mixed.append(er.mixed_residual)
        tname = f"theta_{theta:.3g}".replace(".", "p")
        _add_small_or_decaying(rep, f"energy.holo_decay_{tname}", holo)
        _add_small_or_decaying(rep, f"energy.mixed_decay_{tname}", mixed)


def check_converse(rep, fx):
    worst = 0.0
    for k in (-0.9, -0.5, -0.25, -0.1, 0.5, 3.0):
        target = "H2" if k < 0 else "S2"
        seed = gaussmap.HarmonicSeed(
            u_hat=np.zeros((9, 9)), q_hat=qdiff.QDiff.constant(1.0), target=target
        )
        lam1 = gaussmap.lambda0(k)
        _, _, k_back = gaussmap.converse_rescale(seed, lam1)
        worst = max(worst, abs(k_back - k))
    rep.add("converse.round_trip", worst, 1e-12)


def check_harmonicity(rep, fx):
    tensions = []
    for n in (65, 129):
        grid = fx.grid(0.5, n)
        mf = fx.solved("slope", n)
        _, tension = gaussmap.harmonicity_residual(mf, grid, q=Q_SLOPE)
        tensions.append(tension)
    ratio = tensions[0] / tensions[1]
    rep.add(
        "harmonicity.holomorphic_decay",
        max(0.0, LOOSE_DECAY - ratio),
        0.0,
        rms_value=tensions[1],
        note=f"per-halving ratio = {ratio:.4g}, floor {LOOSE_DECAY}",
    )
    grid = fx.grid(0.5, 65)
    mf_flat = gauss.MetricField(u=np.zeros((65, 65)), K=K_NEG)
    qs = np.conj(grid.zmesh)
    torsion, tension = gaussmap.harmonicity_residual(mf_flat, grid, qs=qs)
    rep.add("harmonicity.torsion_structural", torsion, 1e-13)
    rep.add_bound_below("harmonicity.negative_control", tension, NEG_FLOOR)
    p = lax.compute_p(mf_flat, qs, grid)
    i0, j0 = grid.base_index
    rep.add("harmonicity.p_at_origin", abs(p[i0, j0] - (-0.5)), 1e-12)


def check_weak_metric(rep, fx):
    resids = []
    for n in (65, 129):
        grid = fx.grid(0.5, n)
        mf = fx.solved("slope", n)
        s = _surface_for(fx, "slope", Q_SLOPE, 1.0, n)
        closed = surface.weak_metric(mf, Q_SLOPE, grid)
        numeric = surface.weak_metric_numeric(s, K_NEG, grid)
        win = window_mask(grid, depth=1)
        resids.append(float(np.max(np.abs((closed - numeric)[win]))))
    _add_small_or_decaying(rep, "weakmetric.closed_vs_numeric_decay", resids)
    # radial lengths on expanding umbilic grids against the closed form
    worst = 0.0
    prev = 0.0
    increasing = True
    sqrt2_link = 0.0
    for r in (0.6, 0.8, 0.9):
        # thin strip grid along the +x ray, nodes inside the unit disk
        h = 2.0 * r / 128.0
        grid = Grid(-r, r, -4.0 * h, 4.0 * h, 129, 9)
        mf = gauss.umbilic_seed(K_NEG, grid)
        lc = surface.radial_length(
            mf, qdiff.QDiff.zero(), grid, "+x", metric="conformal"
        )
        lw = surface.radial_length(mf, qdiff.QDiff.zero(), grid, "+x", metric="weak")
        exact = 2.0 / np.sqrt(abs(K_NEG)) * np.arctanh(r)
        worst = max(worst, abs(lc - exact) / exact)
        sqrt2_link = max(sqrt2_link, abs(lw - np.sqrt(2.0) * lc) / lw)
        increasing = increasing and lw > prev and lc > prev
        prev = lc
    rep.add("weakmetric.radial_length_vs_artanh", worst, 1e-3)
    rep.add("weakmetric.weak_is_sqrt2_conformal_at_q0", sqrt2_link, 1e-12)
    rep.add(
        "weakmetric.radial_monotone", 0.0 if increasing else 1.0, 0.5,
        note="lengths strictly increase with subdomain radius",
    )


def _add_small_or_decaying(rep, name, vals, floor=1e-8):
    """Pass when the residual is already at rounding level or decays at O(h^2)."""
    ratio = vals[0] / vals[1] if vals[1] > 0 else float("inf")
    ok = vals[1] <= floor or ratio >= LOOSE_DECAY
    rep.add(
        name,
        0.0 if ok else 1.0,
        0.5,
        rms_value=vals[1],
        note=f"residuals {vals[0]:.3g} -> {vals[1]:.3g}, ratio = {ratio:.4g}",
    )


def check_equivariance(rep, fx):
    res4, res2 = [], []
    for n in (65, 129):
        grid = fx.grid(0.5, n)
        mf = fx.umbilic(0.5, n)
        # full rotational symmetry of the umbilic disk, checked at a quarter turn
        s = _surface_for(fx, "umbilic", qdiff.QDiff.zero(), 1.0, n)
        r, _ = surface.equivariance_check(s, mf, qdiff.QDiff.zero(), grid, 4)
        res4.append(r)
        s2 = _surface_for(fx, "zsq", Q_ZSQ, 1.0, n)
        r, _ = surface.equivariance_check(s2, fx.solved("zsq", n), Q_ZSQ, grid, 2)
        res2.append(r)
    _add_small_or_decaying(rep, "equivariance.umbilic_4fold", res4)
    _add_small_or_decaying(rep, "equivariance.zsq_2fold", res2)


def check_tangency(rep, fx):
    vals = []
    for n in (65, 129):
        grid = fx.grid(0.5, n)
        s = _surface_for(fx, "slope", Q_SLOPE, 1.0, n)
        vals.append(gaussmap.legendrian_tangency(s, grid))
    _add_small_or_decaying(rep, "legendre.tangency", vals)
    grid = fx.grid(0.5, 65)
    sp = _perturbed_surface(fx)
    # a non-normal direction field breaks tangency
    sp_bad = surface.SurfaceData(
        f=sp.f, n=np.roll(sp.n, 3, axis=0), lam=sp.lam,
        det_residual=0.0, normal_residual=0.0,
    )
    rep.add_bound_below(
        "legendre.negative_control",
        gaussmap.legendrian_tangency(sp_bad, grid),
        NEG_FLOOR,
    )


CHECKS = [
    check_minkowski_model,
    check_pde_order,
    check_oracle_equivalence,
    check_flatness,
    check_frame_integrity,
    check_reality,
    check_curvature_constancy,
    check_klotz,
    check_associated_family,
    check_form_identity,
    check_energy,
    check_converse,
    check_harmonicity,
    check_weak_metric,
    check_equivariance,
    check_tangency,
]


def run_all():
    fx = Fixtures()
    rep = VerifyReport()
    rep.meta["fixture_K_negative"] = f"{K_NEG:.17g}"
    rep.meta["fixture_K_positive"] = f"{K_POS:.17g}"
    rep.meta["grids"] = "33,65,129"
    for check in CHECKS:
        check(rep, fx)
    return rep
