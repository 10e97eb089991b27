"""Command-line interface: thin wrapper over the pipeline and verify suite."""

import sys

import click
import numpy as np

from . import pipeline
from .config import JobConfig, parse_config, validate
from .errors import CgcError, ValidationError


def _load_config(config, out, lam, at_lambda0, grid):
    if config:
        with open(config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = JobConfig()
    if out:
        cfg.out_dir = out
    if lam:
        pairs = []
        for item in lam:
            re, _, im = item.partition(",")
            try:
                pairs.append((float(re), float(im or 0.0)))
            except ValueError as exc:
                raise click.BadParameter(f"--lambda expects RE,IM: {exc}")
        cfg.lambdas = tuple(pairs)
    if at_lambda0:
        cfg.at_lambda0 = True
    if grid:
        cfg.n = grid
        cfg.ny = 0
    errors = validate(cfg)
    if errors:
        raise ValidationError(errors[0].split(":")[0], "; ".join(errors))
    return cfg


def _common(f):
    f = click.option(
        "--config", type=click.Path(exists=True, dir_okay=False), default=None
    )(f)
    f = click.option("--out", type=click.Path(), default=None)(f)
    f = click.option(
        "--lambda", "lam", multiple=True, help="spectral parameter RE,IM (repeatable)"
    )(f)
    f = click.option("--at-lambda0", is_flag=True, default=False)(f)
    f = click.option("--grid", type=int, default=None)(f)
    f = click.option("--report", type=click.Path(dir_okay=False), default=None)(f)
    return f


def _finish(run, report=None):
    """Print the report that run() returns, writing it to `report` if given.

    Exits 0 if every entry passed, 1 if one failed, 2 on a CgcError.
    """
    try:
        rep = run()
        text = rep.render()
        if report:
            pipeline._write_file(report, text)
    except CgcError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(text, nl=False)
    sys.exit(0 if rep.all_passed else 1)


def _run(stages, config, out, lam, at_lambda0, grid, report):
    def run():
        cfg = _load_config(config, out, lam, at_lambda0, grid)
        if "family" in stages and len(cfg.lambdas) < 2:
            # the eighth roots of unity on the unit circle
            cfg.lambdas = tuple(
                (float(np.cos(2 * np.pi * k / 8)), float(np.sin(2 * np.pi * k / 8)))
                for k in range(8)
            )
        return pipeline.run_pipeline(cfg, stages=stages, report_path=report)[0]

    _finish(run)


@click.group()
def main():
    """Constant-curvature surfaces in hyperbolic 3-space: solve, frame, mesh,
    deform, project, and verify."""


@main.command()
@_common
def solve(config, out, lam, at_lambda0, grid, report):
    """Solve the Gauss equation and write the conformal factor field."""
    _run(("solve",), config, out, lam, at_lambda0, grid, report)


@main.command()
@_common
def frame(config, out, lam, at_lambda0, grid, report):
    """Integrate extended frames at the requested spectral parameters."""
    _run(("solve", "frame"), config, out, lam, at_lambda0, grid, report)


@main.command()
@_common
def mesh(config, out, lam, at_lambda0, grid, report):
    """Build surfaces and write OBJ meshes with diagnostics."""
    _run(("solve", "frame", "mesh"), config, out, lam, at_lambda0, grid, report)


@main.command()
@_common
def family(config, out, lam, at_lambda0, grid, report):
    """Build the associated family across unit-circle spectral parameters."""
    _run(("solve", "frame", "mesh", "family"), config, out, lam, at_lambda0, grid, report)


@main.command()
@_common
def gaussmap(config, out, lam, at_lambda0, grid, report):
    """Evaluate the frame at the special modulus and project the Gauss map."""
    # this subcommand implies the special-modulus evaluation
    _run(("solve", "frame", "gaussmap"), config, out, lam, True, grid, report)


@main.command()
@_common
@click.option(
    "--seed",
    type=click.Choice(["umbilic", "cylinder"]),
    default="umbilic",
    show_default=True,
)
def converse(config, out, lam, at_lambda0, grid, report, seed):
    """Rescale harmonic-map seed data into constant-curvature data."""

    def run():
        cfg = _load_config(config, out, lam, at_lambda0, grid)
        lam1 = cfg.lambda_values()[0] if lam else None
        return pipeline.run_converse(cfg, seed, lam1=lam1, report_path=report)[0]

    _finish(run)


@main.command()
@click.option("--report", type=click.Path(dir_okay=False), default=None)
@click.option(
    "--skip-determinism",
    is_flag=True,
    default=False,
    help="run the fixture suite once instead of twice",
)
def verify(report, skip_determinism):
    """Run the full built-in fixture suite (no config needed)."""
    _finish(lambda: run_verify(check_determinism=not skip_determinism), report)


def run_verify(check_determinism=True):
    from .verify import run_all

    rep = run_all()
    if check_determinism:
        second = run_all()
        rep.add(
            "determinism.byte_identical",
            0.0 if rep.render() == second.render() else 1.0,
            0.5,
            note="two consecutive runs render identical reports",
        )
    return rep


if __name__ == "__main__":
    main()
