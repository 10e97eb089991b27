"""One pass of one workload, in a fresh process.

`run.py` starts one of these per pass, with BLAS thread counts pinned to 1
and `src` on the path, because every cgcsurf job a user runs also starts a
fresh interpreter. A pass runs the workload's timed jobs (or, with
`--role probe`, its probe) through the package's public entry points,
digests everything they wrote, and with `--checks full` checks the outputs
from outside the program. With `--trace 1` the pass runs under the tracer
and reports per-layer figures. The last line of stdout is one JSON object.
"""

import time

import cgcsurf.cli  # noqa: F401  first, so that READY_AT times a CLI start-up

READY_AT = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import traceback

import numpy as np
import scipy

import cgcsurf
from cgcsurf import config, errors, pipeline, verify

import checks
import speed
import tracer as tracing
import workloads


class Op:
    """One job: a generated, validated JobConfig, or the verify suite."""

    def __init__(self, job):
        self.job = job
        self.name = job["name"]
        self.cfg = None
        if job["config"] is not None:
            self.cfg = config.JobConfig(**job["config"])
            problems = config.validate(self.cfg)
            if problems:
                raise ValueError(f"{self.name}: generated config rejected: {problems}")

    def run(self, out_dir):
        """Run once through the public entry point; returns the report text."""
        if self.cfg is None:
            return verify.run_all().render()
        cfg = dataclasses.replace(self.cfg, out_dir=out_dir)
        pipeline.run_pipeline(cfg, stages=self.job["stages"])
        with open(os.path.join(out_dir, "report.txt")) as fh:
            return fh.read()


def check_outputs(op, text, out_dir, quality):
    """Full output checks of one op; folds its figures into `quality`."""
    entries = checks.parse_report(text)
    quality["report_fail_entries"] += checks.fail_entries(entries)
    if op.cfg is not None:
        found = checks.check_pipeline_job(out_dir, op.cfg, op.job["stages"], entries)
        for key, value in found.items():
            quality[key] = max(quality[key], value)


def run_op(op, out_dir, full_checks, quality, tr=None, sampler=None):
    """Run, digest and (optionally) check one op. Returns its record.

    With a running speed `sampler` the record also holds `kernel_s`, the
    median calibration kernel time while the op ran.
    """
    os.makedirs(out_dir, exist_ok=True)
    rec = {"op": op.name, "wall_s": None, "kernel_s": None, "error": None,
           "check": None, "report": None, "files": {}}
    t0 = time.perf_counter()
    try:
        text = tr.op(op.name, op.run, out_dir) if tr else op.run(out_dir)
    except errors.CgcError as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    except Exception as exc:  # a failed op is counted, not fatal
        traceback.print_exc()
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    t1 = time.perf_counter()
    rec["wall_s"] = t1 - t0
    if sampler:
        rec["kernel_s"] = sampler.median_between(t0, t1)
    rec["report"] = hashlib.sha256(text.encode()).hexdigest()
    rec["files"] = checks.digests(out_dir)
    try:
        if full_checks:
            check_outputs(op, text, out_dir, quality)
        else:
            checks.parse_report(text)
    except (checks.CheckFailed, ValueError, KeyError, OSError) as exc:
        rec["check"] = str(exc)
    return rec


def traced_metrics(tr, wall):
    """Per-layer figures of a traced pass, keyed by BENCHMARK.json names.

    Times are reported twice: in seconds (`*_s`, kept in result.json) and as
    shares of the traced pass (`*_frac`, the BENCHMARK.json metrics). A layer
    a workload never enters reads 0, which is a measurement only as a share.
    """
    table = tr.table()
    c = tr.counters
    out = {}

    def put(name, seconds):
        out[f"{name}_s"] = seconds
        out[f"{name}_frac"] = seconds / wall

    for name, row in table.items():
        out[f"{name}.calls"] = row["calls"]
        put(f"{name}.total", row["total_s"])
        put(f"{name}.self", row["self_s"])
    # the benchmark's own glue inside an op counts as "other"
    layers = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, row in table.items():
        layers[tracing.layer_of(name)] += row["self_s"]
    for layer, seconds in layers.items():
        put(f"layer.{layer}.self", seconds)

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    # the first residual of each solve is evaluated before any step is tried
    trials = sum(
        1 for name, parent, *_ in tr.spans
        if name == "gauss.gauss_residual" and parent >= 0
        and tr.spans[parent][0] == "gauss.solve_gauss"
    ) - row("gauss.solve_gauss")["calls"]
    iters = row("gauss.spsolve")["calls"]
    pairing_s = row("minkowski.mink_pairing")["total_s"] + row("minkowski.su11_pairing")["total_s"]
    writers_s = sum(row(n)["total_s"] for n in tracing.WRITERS)
    gets = c["verify.fixture_gets"]
    put("gauss.spsolve", row("gauss.spsolve")["total_s"])
    put("io.write", row("pipeline._write")["total_s"])
    out.update({
        "gauss.newton_iters": iters,
        "gauss.linesearch_trials": trials,
        "gauss.accept_ratio": ratio(iters, trials),
        "minkowski.pairing_nodes": c["minkowski.pairing_nodes"],
        "minkowski.pairing_nodes_per_s": ratio(c["minkowski.pairing_nodes"], pairing_s),
        "minkowski.pairing_bytes_computed": c["minkowski.pairing_bytes_computed"],
        "lax.frame_nodes": c["lax.frame_nodes"],
        "lax.frame_nodes_per_s": ratio(c["lax.frame_nodes"], row("lax.integrate_frame")["total_s"]),
        "lax.det_drift_max": c["lax.det_drift_max"],
        "writers.bytes": c["writers.bytes"],
        "writers.mb_per_s": ratio(c["writers.bytes"] / 1e6, writers_s),
        "io.files": row("pipeline._write")["calls"],
        "verify.fixture_cache_hit_ratio": ratio(gets - c["verify.fixture_misses"], gets),
        "trace.wall_s": wall,
        "trace.accounted_frac": sum(layers.values()) / wall,
        "trace.spans": len(tr.spans),
    })
    return out


def main():
    ap = argparse.ArgumentParser(description="one cgcsurf benchmark pass")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("timed", "probe"), default="timed")
    ap.add_argument("--checks", choices=("full", "digest"), default="digest")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for the artifacts")
    args = ap.parse_args()

    ops = [
        Op(job) for job in workloads.jobs(args.workload, args.seed)
        if (job["role"] == "probe") == (args.role == "probe")
    ]
    quality = {"report_fail_entries": 0, "curvature_err": 0.0, "solve_err": 0.0}
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install(cgcsurf)
    # timed passes report reference seconds; in a traced pass the sampler's
    # kernel counts in the self time of the span it interrupts, about 1%
    sampler = speed.SpeedSampler() if args.role == "timed" else None
    records = []
    try:
        if sampler:
            sampler.start()
        for op in ops:
            out_dir = os.path.join(args.out, op.name)
            records.append(run_op(op, out_dir, args.checks == "full", quality, tr, sampler))
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        if sampler:
            sampler.stop()
        if tr:
            tr.uninstall()
    wall = sum(r["wall_s"] or 0.0 for r in records)
    ref_wall = None
    if sampler:
        pass_kernel_s = sampler.median_between(-math.inf, math.inf) or speed.timed_kernel()
        ref_wall = sum(
            speed.to_reference(r["wall_s"], r["kernel_s"] or pass_kernel_s)
            for r in records if r["wall_s"] is not None
        )
    result = {
        "ready_at": READY_AT,
        "ops": records,
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "layers": traced_metrics(tr, wall) if tr else {},
    }
    if tr:
        tr.write(os.path.join(args.out, "spans.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
