"""cgcsurf benchmark: one run of one workload.

    python3 perfbench/run.py --workload pipeline-257 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`). Each pass of the workload runs in a fresh worker process with BLAS
threads pinned to 1; passes repeat until the next one would take the
measured time past `--seconds` (at least two, so that every op's report and
artifacts can be compared byte for byte across processes). The first pass
checks every output from outside the program. The solve-ladder probe runs
once, in a process of its own, outside the timings. `--trace 1` adds one
traced pass and reports the per-layer metrics instead of the end-to-end
ones. Set-up time (fresh interpreter to `import cgcsurf.cli` done) is the
median over one sample per worker and a few plain imports at the end.
The pass time is reported in reference seconds: scaled by the speed of a
fixed calibration kernel sampled while the pass ran (`speed.py`), so that
the shared host's changes of speed cancel out. The raw median is printed
beside it.

It prints a table of every figure with its unit and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Everything the run measured, with the seed, the generated jobs and the
machine it ran on, goes to .bench_out/<workload>-seed<N>-trace<T>/result.json.
A failed op is counted and printed; the exit code is 0 whenever a result is
printed, and non-zero (with no result) when the benchmark itself cannot run.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 3  # besides one from every worker
DEADLINE_S = 170.0  # the whole run, set-up included, ends well within 180 s
SETUP_RESERVE_S = 15.0  # left after the workers for the set-up samples


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env):
    """Wall times of fresh interpreters importing the CLI module.

    Taken after the workers have run, so the bytecode cache is written, as
    it is for an installed package. `wait` without a timeout blocks in
    waitpid; with one it polls every 50 ms and rounds the time up to that.
    """
    cmd = [sys.executable, "-c", "import cgcsurf.cli"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        if subprocess.Popen(cmd, env=env, cwd=ROOT).wait() != 0:
            sys.exit("error: importing cgcsurf.cli failed")
        times.append(time.perf_counter() - t0)
    return times


def machine():
    """nproc, CPU model and cache sizes, as far as the OS tells them."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


class Runner:
    """Starts worker processes and keeps what they report."""

    def __init__(self, args, out, env, deadline):
        self.args, self.out, self.env, self.deadline = args, out, env, deadline
        self.attempted = 0
        self.failures = []  # wrong output, unexpected error, or bytes that differ
        self.raised_as_documented = 0
        self.reference = {}  # op -> (report digest, artifact digests) of pass 0
        self.quality = None
        self.setup_samples = []  # spawn to `import cgcsurf.cli` done, per worker

    def worker(self, tag, role="timed", checks="digest", trace=0):
        budget = self.deadline - time.perf_counter()
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--role", role, "--checks", checks, "--trace", str(trace),
            "--out", os.path.join(self.out, tag),
        ]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:
            sys.exit(f"error: {tag} did not finish within the run's {DEADLINE_S:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: worker for {tag} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        self.setup_samples.append(res["ready_at"] - spawned)
        for rec in res["ops"]:
            self.attempted += 1
            reason = self._judge(rec, role)
            if reason:
                self.failures.append({"op": rec["op"], "pass": tag, "reason": reason})
        if checks == "full":
            self.quality = res["quality"]
        return res

    def _judge(self, rec, role):
        if rec["error"]:
            # the probe's documented outcome today is NonConvergence
            if role == "probe" and rec["error"].startswith("NonConvergence"):
                self.raised_as_documented += 1
                return None
            return rec["error"]
        if rec["check"]:
            return f"check: {rec['check']}"
        digests = (rec["report"], rec["files"])
        ref = self.reference.setdefault(rec["op"], digests)
        if digests[0] != ref[0]:
            return "report.txt differs from the first pass on the same inputs"
        if digests[1] != ref[1]:
            return "artifacts differ from the first pass on the same inputs"
        return None


def main():
    ap = argparse.ArgumentParser(description="cgcsurf benchmark run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "cgcsurf", "__init__.py")):
        sys.exit(f"error: no cgcsurf sources under {SRC}; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = child_env()
    runner = Runner(args, out, env, start + DEADLINE_S - SETUP_RESERVE_S)

    jobs = workloads.jobs(args.workload, args.seed)
    probe = None
    if any(job["role"] == "probe" for job in jobs):
        res = runner.worker("probe", role="probe", checks="full")
        probe = res["ops"][0]["error"] or "converged"
    passes = []
    loop_start = time.perf_counter()
    # the second bound caps process start-up costs once passes get short
    while len(passes) < 2 or (
        sum(p["wall_s"] for p in passes) + statistics.median(p["wall_s"] for p in passes)
        <= args.seconds
        and time.perf_counter() - loop_start < 2 * args.seconds
    ):
        k = len(passes)
        passes.append(runner.worker(f"pass{k}", checks="full" if k == 0 else "digest"))
    walls = [p["wall_s"] for p in passes]
    layers = {}
    if args.trace:
        traced = runner.worker("traced", trace=1)
        layers = traced["layers"]
        layers["trace.untraced_wall_s"] = statistics.median(walls)
        # in reference seconds, so that a change of machine speed between
        # the passes does not read as overhead
        ref_median = statistics.median(p["ref_wall_s"] for p in passes)
        layers["trace.overhead_frac"] = traced["ref_wall_s"] / ref_median - 1.0
    setup_samples = runner.setup_samples + measure_setup(env)
    ref_walls = [p["ref_wall_s"] for p in passes]
    # the run's speed scales the set-up samples, which are too short to
    # sample on their own
    kernels = [r["kernel_s"] for p in passes for r in p["ops"] if r["kernel_s"]]
    kernel_s = statistics.median(kernels) if kernels else speed.timed_kernel()

    attempted, failed = runner.attempted, len(runner.failures)
    values = {
        # reference seconds (speed.py); the raw medians beside them
        "setup_s": speed.to_reference(statistics.median(setup_samples), kernel_s),
        "wall_s": statistics.median(ref_walls),
        "setup_raw_s": statistics.median(setup_samples),
        "wall_raw_s": statistics.median(walls),
        "kernel_ms": 1e3 * kernel_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        # ops that raised count here even when raising is the documented
        # outcome (the solve-ladder probe); `failed` leaves that case out
        "ops_failed_frac": (failed + runner.raised_as_documented) / attempted,
        **runner.quality,
        **layers,
    }
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in group
    }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env_record = {
        **machine(),
        "python": platform.python_version(),
        **passes[0]["versions"],
        **{var: env[var] for var in THREAD_VARS},
    }
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env_record, "jobs": jobs,
            "setup_samples_s": setup_samples, "pass_walls_s": walls,
            "pass_ref_walls_s": ref_walls,
            "op_walls_s_kernel_s": [
                {r["op"]: (r["wall_s"], r["kernel_s"]) for r in p["ops"]} for p in passes
            ],
            "probe": probe, "failures": runner.failures,
            "attempted": attempted, "failed": failed, "values": values,
        }, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}  probe: {probe or 'none'}")
    print("environment " + json.dumps(env_record))
    for f in runner.failures:
        print(f"FAILED {f['op']} {f['pass']}: {f['reason']}")
    units.update({"setup_raw_s": "s", "wall_raw_s": "s", "kernel_ms": "ms"})
    shown = [m["name"] for m in spec["end_to_end"]] + [
        "setup_raw_s", "wall_raw_s", "kernel_ms",
        "ops_failed_frac", "report_fail_entries", "curvature_err", "solve_err",
    ]
    if args.trace:
        shown += [m["name"] for m in spec["per_layer"] if m["name"] not in shown]
    for name in shown:
        print(f"  {name:<48} {values.get(name, 0)!r:>24} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
