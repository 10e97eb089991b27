"""Neither the tracer nor the speed sampler may change what the program computes.

Runs a small full pipeline job (the pipeline-257 config at N = 33) plain,
traced and under the speed sampler, and requires byte-identical report.txt
and artifacts; then checks that uninstalling the tracer restores every
patched name.
"""

import dataclasses
import os

from cgcsurf import config, gauss, pipeline, surface, verify
from cgcsurf.report import VerifyReport

import checks
import speed
import tracer as tracing
import workloads


def _small_job(out_dir):
    job = workloads.jobs("pipeline-257", 0)[0]
    cfg = config.JobConfig(**job["config"])
    assert config.validate(cfg) == []
    return dataclasses.replace(cfg, n=33, out_dir=str(out_dir)), job["stages"]


def test_traced_run_is_byte_identical(tmp_path):
    import cgcsurf

    cfg, stages = _small_job(tmp_path / "plain")
    pipeline.run_pipeline(cfg, stages=stages)

    tr = tracing.Tracer()
    tr.install(cgcsurf)
    try:
        traced = dataclasses.replace(cfg, out_dir=str(tmp_path / "traced"))
        tr.op("job", pipeline.run_pipeline, traced, stages=stages)
        tr.op("check", verify.check_minkowski_model, VerifyReport(), verify.Fixtures())
    finally:
        tr.uninstall()

    plain = checks.digests(tmp_path / "plain")
    assert "report.txt" in plain and len(plain) == 10
    assert checks.digests(tmp_path / "traced") == plain

    table = tr.table()
    assert table["pipeline.run_pipeline"]["calls"] == 1
    assert table["minkowski.mink_pairing"]["calls"] > 0
    assert table["verify.check_minkowski_model"]["calls"] == 1
    assert tr.counters["minkowski.pairing_nodes"] > 0
    assert tr.counters["writers.bytes"] == sum(
        os.path.getsize(tmp_path / "plain" / n) for n in plain if n != "report.txt"
    )
    # self times of all spans add up to the root spans' durations
    roots = sum(t1 - t0 for _, parent, t0, t1, _ in tr.spans if parent < 0)
    total_self = sum(row["self_s"] for row in table.values())
    assert abs(total_self - roots) <= 1e-9 * max(1.0, roots)


def test_uninstall_restores_every_name():
    import cgcsurf

    before = (
        pipeline.run_pipeline, surface.mink_pairing, gauss.spla,
        VerifyReport.render, verify.Fixtures._get, list(verify.CHECKS),
    )
    tr = tracing.Tracer()
    tr.install(cgcsurf)
    assert surface.mink_pairing is not before[1]
    assert verify.CHECKS[0] is not before[5][0]
    tr.uninstall()
    after = (
        pipeline.run_pipeline, surface.mink_pairing, gauss.spla,
        VerifyReport.render, verify.Fixtures._get, list(verify.CHECKS),
    )
    assert all(a is b for a, b in zip(before[:5], after[:5]))
    assert all(a is b for a, b in zip(before[5], after[5]))


def test_sampled_run_is_byte_identical(tmp_path):
    cfg, stages = _small_job(tmp_path / "plain")
    pipeline.run_pipeline(cfg, stages=stages)

    sampler = speed.SpeedSampler()
    sampler.INTERVAL_S = 0.005  # many samples inside this short job
    sampler.start()
    try:
        pipeline.run_pipeline(dataclasses.replace(cfg, out_dir=str(tmp_path / "sampled")),
                              stages=stages)
    finally:
        sampler.stop()

    assert len(sampler.samples) >= 5
    assert checks.digests(tmp_path / "sampled") == checks.digests(tmp_path / "plain")
    assert speed.to_reference(2.0, 2 * speed.REF_KERNEL_S) == 1.0
