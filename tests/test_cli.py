import os

import numpy as np
import pytest
from click.testing import CliRunner

from cgcsurf import gaussmap, lax, pipeline
from cgcsurf.cli import main
from cgcsurf.config import JobConfig, parse_config, validate
from cgcsurf.errors import ParseError, ValidationError
from cgcsurf.grid import Grid, window_mask
from cgcsurf.report import VerifyReport, rms

MINIMAL = """
K = -0.75
Q = [[0, 0]]
r = 0.8
N = 65
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.K == -0.75
    assert cfg.n == 65
    # r is the bounding-disk radius: the square is inscribed in it
    assert cfg.x_min == pytest.approx(-0.8 / 2**0.5)
    assert cfg.y_max == pytest.approx(0.8 / 2**0.5)
    assert cfg.qdiff().coeffs == (0j,)


def test_parse_rejects_bad_k():
    with pytest.raises(ValidationError) as exc:
        parse_config("K = -1.5")
    assert exc.value.key == "K"


def test_parse_rejects_even_n():
    with pytest.raises(ValidationError):
        parse_config("N = 64")


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError):
        parse_config("wibble = 3")


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_config("K = not-a-number")


def test_parse_rejects_zero_lambda():
    with pytest.raises(ValidationError):
        parse_config("lambdas = [[0, 0]]")


def test_parse_rejects_disk_overflow():
    with pytest.raises(ValidationError):
        parse_config('r = 1.2\ndomain = "unit-disk"')


# JSON values of the wrong type, once coerced by bool(), int(), float() or str(),
# or (r = [0.5]) an uncaught TypeError; r = false was rejected under the
# rectangle's key instead of r
LOOSE_TYPES = [
    ("at_lambda0", '"false"'),
    ("at_lambda0", "1"),
    ("N", "65.7"),
    ("N", "65.0"),
    ("N", "true"),
    ("Ny", "65.7"),
    ("r", "[0.5]"),
    ("K", "true"),
    ("K", '"0.5"'),
    ("gauss_tol", "true"),
    ("Q", "[[true, 0]]"),
    ("lambdas", '[["1", 0]]'),
    ("x_min", "false"),
    ("r", "true"),
    ("r", "false"),
    ("out_dir", "true"),
    ("out_dir", '["a", 1]'),
    ("bc_file", "3"),
    ("bc_mode", "null"),
    ("domain", "1"),
]


@pytest.mark.parametrize("key,value", LOOSE_TYPES)
def test_parse_rejects_loose_types(key, value):
    with pytest.raises(ValidationError) as exc:
        parse_config(f"{key} = {value}")
    assert exc.value.key == key


def test_parse_keeps_strict_types():
    cfg = parse_config("at_lambda0 = false\nN = 33\nNy = 33")
    assert cfg.at_lambda0 is False
    assert cfg.n == 33 and cfg.ny == 33
    cfg = parse_config("K = 3\nQ = [[0, 1]]\nlambdas = [[1, 0.5]]\ngauss_tol = 1e-8")
    assert cfg.K == 3.0 and type(cfg.K) is float
    assert cfg.q_coeffs == ((0.0, 1.0),) and cfg.lambdas == ((1.0, 0.5),)
    assert cfg.gauss_tol == 1e-8


@pytest.mark.parametrize("key", ["K", "r"])
def test_parse_rejects_integer_beyond_float(key):
    # float() of a 401-digit JSON integer raised an uncaught OverflowError
    with pytest.raises(ValidationError) as exc:
        parse_config(f"{key} = 1{'0' * 400}")
    assert exc.value.key == key


def test_bc_file_mode_requires_path():
    with pytest.raises(ValidationError):
        parse_config('bc_mode = "file"')


def test_report_render_stable_and_failing():
    rep = VerifyReport()
    rep.add("a.ok", 0.5, 1.0)
    rep.add("b.bad", 2.0, 1.0)
    rep.skip("c.skipped", "not requested")
    text = rep.render()
    assert "a.ok.status = pass" in text
    assert "b.bad.status = FAIL" in text
    assert "c.skipped.status = skipped" in text
    assert text.endswith("overall = FAIL\n")
    failing = [e.name for e in rep.entries if not (e.passed or e.skipped)]
    assert failing == ["b.bad"]
    assert text == rep.render()


def _serial_rms(values):
    """The serial-loop definition that `rms` must match bit for bit."""
    total = 0.0
    count = 0
    for v in values.ravel():
        total += float(v) * float(v)
        count += 1
    return (total / count) ** 0.5 if count else float("nan")


@pytest.mark.parametrize("size", [1, 7, 4097, 257 * 257])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e5])
def test_rms_equals_serial_loop(size, scale):
    values = np.random.default_rng(size).standard_normal(size) * scale
    assert rms(values) == _serial_rms(values)


def test_rms_of_masked_field_and_empty():
    grid = Grid.centered_square(0.5 / 2**0.5, 129)
    field = np.random.default_rng(0).standard_normal((129, 129)) ** 2 * 1e-4
    assert rms(field[window_mask(grid)]) == _serial_rms(field[window_mask(grid)])
    assert np.isnan(rms(np.zeros(0))) and np.isnan(rms(np.zeros((0, 3))))


def _write_config(tmp_path, extra=""):
    path = tmp_path / "job.cfg"
    path.write_text(
        'K = -0.75\nQ = [[0, 0.1]]\nr = 0.5\nN = 17\nout_dir = "'
        + str(tmp_path / "out")
        + '"\n'
        + extra
    )
    return str(path)


def test_cli_solve_writes_field(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["solve", "--config", _write_config(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "out" / "u.csv").exists()
    assert "gauss.residual" in res.output


def test_cli_mesh_writes_obj(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["mesh", "--config", _write_config(tmp_path)])
    assert res.exit_code == 0, res.output
    objs = [p for p in os.listdir(tmp_path / "out") if p.endswith(".obj")]
    assert objs
    head = (tmp_path / "out" / objs[0]).read_text().splitlines()[0]
    assert head.startswith("v ")


def test_cli_gaussmap_writes_projection(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gaussmap", "--config", _write_config(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "out" / "gaussmap.csv").exists()


def test_cli_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("K = -1.5\n")
    runner = CliRunner()
    res = runner.invoke(main, ["solve", "--config", str(path)])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "extra,args,line",
    [
        ("K = -1.5\nN = 8\n", [], "K: must lie in (-1,0) or (0,inf); N: must be >= 9"),
        ("", ["--grid", "8"], "N: must be >= 9"),
    ],
    ids=["config", "grid-flag"],
)
def test_cli_config_error_names_each_key_once(tmp_path, extra, args, line):
    res = CliRunner().invoke(
        main, ["solve", "--config", _write_config(tmp_path, extra), *args]
    )
    assert res.exit_code == 2
    assert res.stderr == f"error: {line}\n"


@pytest.mark.parametrize("key,value", LOOSE_TYPES)
def test_cli_rejects_loose_types(tmp_path, key, value):
    res = CliRunner().invoke(
        main, ["frame", "--config", _write_config(tmp_path, f"{key} = {value}\n")]
    )
    assert res.exit_code == 2, res.output
    assert f"error: {key}:" in res.output


def test_cli_rejects_config_that_is_not_utf8(tmp_path):
    path = tmp_path / "job.cfg"
    path.write_bytes(b"\xff\xfeK = -0.75\n")
    res = CliRunner().invoke(main, ["solve", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"error: cannot read config {path}:" in res.output


def test_cli_rejects_unequal_spacing(tmp_path):
    # a 2:1 rectangle with N = Ny nodes: hx = 2 hy
    cfg = _write_config(
        tmp_path, "x_min = -0.4\nx_max = 0.4\ny_min = -0.2\ny_max = 0.2\n"
    )
    res = CliRunner().invoke(main, ["mesh", "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "error: x_min, x_max, y_min, y_max:" in res.output
    assert not (tmp_path / "out").exists()


def test_cli_family_writes_eight_meshes(tmp_path):
    out = tmp_path / "fam"
    res = CliRunner().invoke(main, ["family", "--grid", "17", "--out", str(out)])
    assert res.exit_code in (0, 1), res.output
    objs = [p for p in os.listdir(out) if p.startswith("surface_") and p.endswith(".obj")]
    assert len(objs) == 8
    assert "family.ii_deviation.status" in res.output


def test_pipeline_flatness_uses_window(tmp_path):
    cfg = JobConfig(n=65, q_coeffs=((0.0, 0.0), (0.1, 0.0)), out_dir=str(tmp_path))
    rep, _ = pipeline.run_pipeline(cfg, stages=("solve", "frame"))
    grid = pipeline.make_grid(cfg)
    mf = pipeline.solve_stage(cfg, grid)
    zc = lax.zero_curvature_residual(lax.build_uv(mf, grid, cfg.qdiff(), 1.0), grid)
    (entry,) = [e for e in rep.entries if e.name.startswith("flatness.")]
    assert entry.max_value == float(np.max(zc[window_mask(grid)]))
    # the corner boundary layer stays visible in the note
    assert entry.max_value < float(np.max(zc))
    assert f"{float(np.max(zc)):.6g}" in entry.note


def _count_frames(monkeypatch):
    calls = []
    integrate = lax.integrate_frame

    def counting(mc, grid, **kwargs):
        calls.append(mc)
        return integrate(mc, grid, **kwargs)

    monkeypatch.setattr(lax, "integrate_frame", counting)
    return calls


def _run_at_lambda0(tmp_path, lambdas):
    """Full N = 33 pipeline job with Q = z/10 and lambda_0; the entry names."""
    cfg = JobConfig(
        n=33,
        q_coeffs=((0.0, 0.0), (0.1, 0.0)),
        lambdas=lambdas,
        at_lambda0=True,
        out_dir=str(tmp_path),
    )
    rep, _ = pipeline.run_pipeline(cfg)
    return {e.name for e in rep.entries}


def test_pipeline_integrates_each_lambda_once(tmp_path, monkeypatch):
    calls = _count_frames(monkeypatch)
    names = _run_at_lambda0(tmp_path, ((1.0, 0.0), (0.0, 1.0)))
    assert len(calls) == 3  # lambda = 1, i and lambda_0
    assert {"family.ii_deviation", "reality.at_lambda0", "energy.mixed"} <= names


def test_pipeline_lambda_near_lambda0_stands_in_for_it(tmp_path, monkeypatch):
    calls = _count_frames(monkeypatch)
    names = _run_at_lambda0(tmp_path, ((gaussmap.lambda0(-0.75) + 5e-13, 0.0),))
    assert len(calls) == 1
    assert (tmp_path / "gaussmap.csv").exists()
    assert {"reality.at_lambda0", "frame.unitarity_at_lambda0"} <= names


def test_pipeline_positive_k_projects_to_sphere(tmp_path):
    # K > 0 picks SU(2): reality, unitarity and energy at lambda_0, S^2 images
    cfg = JobConfig(
        K=3.0,
        q_coeffs=((0.0, 0.0), (0.1, 0.0)),
        n=17,
        x_min=-0.2, x_max=0.2, y_min=-0.2, y_max=0.2,
        at_lambda0=True,
        out_dir=str(tmp_path),
    )
    rep, _ = pipeline.run_pipeline(cfg, stages=("solve", "gaussmap"))
    status = {e.name: e.passed for e in rep.entries}
    assert status["reality.at_lambda0"] and status["frame.unitarity_at_lambda0"]
    assert status["energy.holomorphic"] and status["energy.mixed"]
    path = tmp_path / "gaussmap.csv"
    assert path.read_text().startswith("i,j,x,y,s1,s2,s3\n")
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.max(np.abs(np.linalg.norm(table[:, 4:], axis=1) - 1.0)) <= 1e-12


def test_cli_converse_round_trip(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "converse",
            "--grid", "9",
            "--out", str(tmp_path / "conv"),
            "--lambda", "2,0",
            "--seed", "umbilic",
        ],
    )
    assert res.exit_code == 0, res.output
    assert "converse.lambda0_round_trip.status = pass" in res.output


def test_cli_converse_cylinder_degenerate(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "converse",
            "--grid", "9",
            "--out", str(tmp_path / "conv2"),
            "--lambda", "2,0",
            "--seed", "cylinder",
        ],
    )
    assert res.exit_code == 0, res.output
    assert "meta.degenerate_balance = yes" in res.output


def test_pipeline_outputs_deterministic(tmp_path):
    runner = CliRunner()
    cfg = _write_config(tmp_path)
    runner.invoke(main, ["mesh", "--config", cfg])
    first = {
        p: (tmp_path / "out" / p).read_bytes()
        for p in os.listdir(tmp_path / "out")
    }
    runner.invoke(main, ["mesh", "--config", cfg])
    second = {
        p: (tmp_path / "out" / p).read_bytes()
        for p in os.listdir(tmp_path / "out")
    }
    assert first == second


def test_cli_verify_report_into_missing_dir(tmp_path, monkeypatch):
    rep = VerifyReport()
    rep.add("a.ok", 0.5, 1.0)
    monkeypatch.setattr("cgcsurf.cli.run_verify", lambda check_determinism: rep)
    path = tmp_path / "missing_dir" / "r.txt"
    res = CliRunner().invoke(main, ["verify", "--skip-determinism", "--report", str(path)])
    assert res.exit_code == 0, res.output
    assert path.read_text() == rep.render()


def test_cli_verify_rejects_directory_report(tmp_path, monkeypatch):
    def run_verify(check_determinism):
        raise AssertionError("the suite ran before --report was checked")

    monkeypatch.setattr("cgcsurf.cli.run_verify", run_verify)
    res = CliRunner().invoke(main, ["verify", "--report", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


def test_cli_verify_unwritable_report_exits_2(tmp_path, monkeypatch):
    rep = VerifyReport()
    rep.add("a.ok", 0.5, 1.0)
    monkeypatch.setattr("cgcsurf.cli.run_verify", lambda check_determinism: rep)
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "r.txt"
    args = ["verify", "--skip-determinism", "--report", str(path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert f"cannot write {path}" in res.output


def test_cli_solve_rejects_directory_report(tmp_path):
    args = ["solve", "--grid", "9", "--out", str(tmp_path / "out")]
    res = CliRunner().invoke(main, args + ["--report", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


def test_cli_solve_rejects_directory_config(tmp_path):
    res = CliRunner().invoke(main, ["solve", "--config", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


def test_cli_solve_unwritable_artifact_exits_2(tmp_path):
    (tmp_path / "out" / "u.csv").mkdir(parents=True)
    res = CliRunner().invoke(main, ["solve", "--config", _write_config(tmp_path)])
    assert res.exit_code == 2, res.output
    assert f"cannot write {tmp_path / 'out' / 'u.csv'}" in res.output


def _bc_config(tmp_path, bc_text):
    bc = tmp_path / "bc.csv"
    if bc_text is not None:
        bc.write_text(bc_text)
    return _write_config(tmp_path, f'bc_mode = "file"\nbc_file = "{bc}"\n')


def test_cli_bc_file_round_trip(tmp_path):
    res = CliRunner().invoke(main, ["solve", "--config", _write_config(tmp_path)])
    assert res.exit_code == 0, res.output
    u_text = (tmp_path / "out" / "u.csv").read_text()
    res = CliRunner().invoke(main, ["solve", "--config", _bc_config(tmp_path, u_text)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "out" / "u.csv").read_text() == u_text


@pytest.mark.parametrize(
    "bc_text,reason",
    [
        ("i,j,x,y,u\n0,0,0,0,1\n", "does not cover the 17x17 grid"),
        (None, "cannot read"),
        ("i,j,x,y,u\n17,0,0,0,1\n", "node index outside the 17x17 grid"),
        ("i,j,x,y,u\n-1,0,0,0,1\n", "node index outside the 17x17 grid"),
        ("i,j,x,y,u\n0,0,0,1\n", "5 columns"),
    ],
    ids=["one-row", "missing", "index-too-large", "index-negative", "short-row"],
)
def test_cli_rejects_bad_bc_file(tmp_path, bc_text, reason):
    res = CliRunner().invoke(main, ["solve", "--config", _bc_config(tmp_path, bc_text)])
    assert res.exit_code == 2, res.output
    assert "bc_file:" in res.output and reason in res.output


# non-finite numbers parse as JSON (NaN, Infinity) and through float() in
# --lambda; each must be a ValidationError naming its key, before any work
NON_FINITE = [
    ("K", "K = Infinity\n"),
    ("Q", "Q = [[NaN, 0]]\n"),
    ("Q", "Q = [[0, 0], [0, -Infinity]]\n"),
    ("x_min", 'domain = "plane"\nx_min = -Infinity\nx_max = Infinity\n'),
    ("y_max", "y_max = NaN\n"),
    ("r", 'domain = "plane"\nr = Infinity\n'),
    ("r", "r = NaN\n"),
    ("lambdas", "lambdas = [[Infinity, 0]]\n"),
    ("gauss_tol", "gauss_tol = -1\n"),
    ("gauss_tol", "gauss_tol = 0\n"),
    ("gauss_tol", "gauss_tol = NaN\n"),
    ("gauss_tol", "gauss_tol = Infinity\n"),
]


@pytest.mark.parametrize(
    "key,extra", NON_FINITE, ids=[f"{k}-{e.split('= ')[-1].strip()}" for k, e in NON_FINITE]
)
def test_cli_rejects_non_finite_numbers(tmp_path, key, extra):
    res = CliRunner().invoke(main, ["solve", "--config", _write_config(tmp_path, extra)])
    assert res.exit_code == 2, res.output
    assert f"error: {key}:" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lam", ["nan,0", "1,inf", "-inf"])
def test_cli_rejects_non_finite_lambda(tmp_path, lam):
    res = CliRunner().invoke(
        main, ["frame", "--config", _write_config(tmp_path), "--lambda", lam]
    )
    assert res.exit_code == 2, res.output
    assert "error: lambdas:" in res.output
    assert not (tmp_path / "out").exists()
