"""Acceptance suite: every criterion checked at its stated tolerance.

The full fixture computation runs once per session (twice, to observe
determinism); each test asserts one criterion's report entries and prints a
single pass/fail line.
"""

import pytest

from cgcsurf.config import JobConfig
from cgcsurf.gaussmap import lambda0
from cgcsurf.pipeline import _lambda_tag, run_pipeline
from cgcsurf.verify import run_all


@pytest.fixture(scope="session")
def reports():
    first = run_all()
    second = run_all()
    return first, first.render() == second.render()


def _criterion(rep, number, title, prefixes):
    entries = [
        e for e in rep.entries if any(e.name.startswith(p) for p in prefixes)
    ]
    assert entries, f"no report entries for prefixes {prefixes}"
    bad = [e.name for e in entries if not (e.passed or e.skipped)]
    status = "PASS" if not bad else f"FAIL ({', '.join(bad)})"
    print(f"acceptance {number:2d} {title}: {status}")
    assert not bad


def test_01_minkowski_model(reports):
    _criterion(reports[0], 1, "Minkowski matrix model", ["minkowski."])


def test_02_pde_refinement_order(reports):
    _criterion(
        reports[0], 2, "Gauss solver refinement order",
        ["gauss.solve_error_n129", "gauss.refinement_ratio_"],
    )


def test_03_oracle_equivalence(reports):
    _criterion(
        reports[0], 3, "strip solve vs 1-D oracle",
        ["gauss.strip_vs_ode_oracle", "gauss.sinh_normal_form"],
    )


def test_04_flatness(reports):
    _criterion(reports[0], 4, "zero-curvature residual", ["flatness."])


def test_05_frame_integrity(reports):
    _criterion(reports[0], 5, "frame integration integrity", ["frame."])


def test_06_reality(reports):
    _criterion(reports[0], 6, "real-form reduction at the special modulus", ["reality."])


def test_07_curvature_constancy(reports):
    _criterion(reports[0], 7, "constant numeric curvature", ["curvature."])


def test_08_klotz_biconditional(reports):
    _criterion(reports[0], 8, "holomorphy of the recovered differential", ["klotz."])


def test_09_associated_family(reports):
    _criterion(reports[0], 9, "associated-family invariances", ["family."])


def test_10_form_identity(reports):
    _criterion(reports[0], 10, "three-fundamental-form identity", ["identity."])


def test_11_energy_formulas(reports):
    _criterion(reports[0], 11, "Gauss-map energy closed forms", ["energy."])


def test_12_converse_round_trip(reports):
    _criterion(reports[0], 12, "converse rescaling round trip", ["converse."])


def test_13_harmonicity(reports):
    _criterion(reports[0], 13, "harmonicity residual", ["harmonicity."])


def test_14_weak_metric(reports):
    _criterion(reports[0], 14, "weak metric and radial lengths", ["weakmetric."])


def test_15_determinism(reports):
    status = "PASS" if reports[1] else "FAIL"
    print(f"acceptance 15 byte-identical repeat run: {status}")
    assert reports[1]


def test_no_unchecked_entries(reports):
    covered = (
        "minkowski.", "gauss.", "flatness.", "frame.", "reality.",
        "curvature.", "klotz.", "family.", "identity.", "energy.",
        "converse.", "harmonicity.", "weakmetric.", "equivariance.",
        "legendre.",
    )
    stray = [
        e.name
        for e in reports[0].entries
        if not any(e.name.startswith(p) for p in covered)
    ]
    assert not stray


def test_supplementary_checks(reports):
    _criterion(
        reports[0], 16, "equivariance and tangency diagnostics",
        ["equivariance.", "legendre."],
    )


def test_pipeline_and_verify_agree(reports, tmp_path):
    """On verify's n = 129 Q = z/10 fixture, each diagnostic that both report
    is one computation: the pipeline's max equals the verify entry's rms."""
    cfg = JobConfig(
        K=-0.75, q_coeffs=((0.0, 0.0), (0.1, 0.0)),
        x_min=-0.5, x_max=0.5, y_min=-0.5, y_max=0.5, n=129,
        lambdas=((1.0, 0.0), (0.0, 1.0)), at_lambda0=True, out_dir=str(tmp_path),
    )
    rep, _ = run_pipeline(cfg, stages=("solve", "gaussmap"))
    pairs = {
        "curvature.max_error": "curvature.slope_decay",
        "identity.three_forms": "identity.three_forms_decay",
        "klotz.dbar": "klotz.dbar_decay",
        "harmonicity.tension": "harmonicity.holomorphic_decay",
        "energy.holomorphic": "energy.holo_decay_theta_0",
        "energy.mixed": "energy.mixed_decay_theta_0",
    }
    for lam, name in ((1.0, "1"), (1j, "i"), (lambda0(-0.75), "lam0")):
        tag = _lambda_tag(complex(lam))
        pairs[f"flatness.lam_{tag}"] = f"flatness.decay_slope_lam{name}"
    got = {e.name: e.max_value for e in rep.entries}
    want = {e.name: e.rms_value for e in reports[0].entries}
    assert {p: got[p] for p in pairs} == {p: want[v] for p, v in pairs.items()}
