"""Seeded job generator for the cgcsurf benchmark.

Standard library only, so `run.py` can describe a run without importing
numpy. A job is a plain dict: its name, the pipeline stages it runs, its
role ("timed" jobs make up one pass; the "probe" runs once per run and is
left out of the timings) and the keyword arguments of a `JobConfig`.

Seed 0 reproduces the ROADMAP baseline configs exactly. Any other seed draws
the Q coefficients c0, c1 (|c| <= 0.1 each) and the phases of the two
unit-circle spectral parameters. The `verify` workload runs the built-in
fixture suite, which takes no input, so it ignores the seed.
"""

import math
import random

WORKLOADS = ("pipeline-257", "verify", "solve-ladder")

FULL_STAGES = ("solve", "frame", "mesh", "gaussmap")
SOLVE_ONLY = ("solve",)

K_NEG = -0.75
BASE_Q = ((0.0, 0.0), (0.1, 0.0))  # Q(z) = z/10
BASE_LAMBDAS = ((1.0, 0.0), (0.0, 1.0))  # lambda in {1, i}
Q_MAX = 0.1


def square(r):
    """Config key `r`: the centered square inscribed in the radius-r disk.

    Same arithmetic as `config.parse_config`, so seed 0 matches a config
    file that says `r = 0.5`.
    """
    a = float(r) / 2.0**0.5
    return {"x_min": -a, "x_max": a, "y_min": -a, "y_max": a}


def _draw_coeff(rng):
    rho = Q_MAX * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return (rho * math.cos(phi), rho * math.sin(phi))


def _draw(seed):
    """(Q coefficients, unit-circle lambdas) for this seed."""
    if seed == 0:
        return BASE_Q, BASE_LAMBDAS
    rng = random.Random(seed)
    q = (_draw_coeff(rng), _draw_coeff(rng))
    lams = tuple(
        (math.cos(phi), math.sin(phi))
        for phi in (2.0 * math.pi * rng.random() for _ in range(2))
    )
    return q, lams


def _job(name, stages, role="timed", **config):
    return {"name": name, "stages": stages, "role": role, "config": config}


def jobs(workload, seed):
    """The jobs of one workload pass (plus the probe) for a seed."""
    q, lams = _draw(seed)
    if workload == "pipeline-257":
        return [
            _job(
                "pipeline-n257",
                FULL_STAGES,
                K=K_NEG,
                q_coeffs=q,
                n=257,
                lambdas=lams,
                at_lambda0=True,
                gauss_tol=1e-8,
                **square(0.5),
            )
        ]
    if workload == "verify":
        return [{"name": "verify-run-all", "stages": (), "role": "verify", "config": None}]
    if workload == "solve-ladder":
        return [
            _job(
                "solve-n513", SOLVE_ONLY, K=K_NEG, q_coeffs=q, n=513,
                gauss_tol=1e-8, **square(0.5),
            ),
            # Q = 0 with exact boundary data has the closed-form solution
            _job(
                "solve-n385-umbilic", SOLVE_ONLY, K=K_NEG, q_coeffs=((0.0, 0.0),),
                n=385, bc_mode="umbilic-exact", gauss_tol=1e-8, **square(0.5),
            ),
            # the K > 0 branch on the verify fixture's [-0.2, 0.2]^2 domain
            _job(
                "solve-n257-kpos", SOLVE_ONLY, K=3.0, q_coeffs=q, n=257,
                gauss_tol=1e-8, x_min=-0.2, x_max=0.2, y_min=-0.2, y_max=0.2,
            ),
            # default gauss_tol = 1e-10 at N = 257 (ROADMAP Open item 4)
            _job(
                "probe-n257-default-tol", SOLVE_ONLY, role="probe", K=K_NEG,
                q_coeffs=q, n=257, **square(0.5),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
