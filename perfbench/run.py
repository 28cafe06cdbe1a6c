"""Benchmark of the mchoeffding library.

    python3 perfbench/run.py --workload {mc_tail,matrix_norm,oracle_sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  One workload runs in this process as a closed loop with
one client: the next job starts when the previous one ends.  After the timed
loop every job's output is checked against a reference, and the first job is
compared byte for byte with the same job run during set-up.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced passes over a fixed list of jobs and prints the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a summary goes to standard
error and the full record (environment, job times, failures, spans) to
``.perfbench_run/results/`` in the checkout.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
# One BLAS/OpenMP thread: the loop has one client and the host is small and shared.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer metrics of the traced run: (module.function, kind) with kind
# "calls" or "self_s"; then the counts the tracer derives, with their units.
TRACED_FUNCTIONS = [
    ("rng.uniform_block", "calls"), ("rng.uniform_block", "self_s"),
    ("rng.normal_block", "calls"), ("rng.normal_block", "self_s"),
    ("rng.trial_seeds", "calls"), ("rng.trial_seeds", "self_s"),
    ("montecarlo.sample_paths", "self_s"),
    ("montecarlo.sample_path", "calls"), ("montecarlo.sample_path", "self_s"),
    ("montecarlo.simulate_sums", "self_s"), ("montecarlo.estimate_tail", "self_s"),
    ("spectral.symmetric_eigenvalues", "calls"), ("spectral.symmetric_eigenvalues", "self_s"),
    ("spectral.singular_values", "self_s"), ("spectral.opnorm", "calls"),
    ("spectral.contraction", "self_s"),
    ("matrixlab.build_markov_matrix", "calls"), ("matrixlab.build_markov_matrix", "self_s"),
    ("matrixlab.gaussian_counterpart_mean", "self_s"),
    ("matrixlab.schatten_norm", "calls"), ("matrixlab.schatten_norm", "self_s"),
    ("matrixlab.run_matrix_experiment", "self_s"),
    ("oracle.lattice_distribution", "self_s"), ("oracle.exact_moments", "self_s"),
    ("oracle.brute_force_distribution", "self_s"),
    ("oracle.exact_monomial_expectation", "self_s"),
    ("bounds.bound_monomial", "self_s"),
    ("bounds.enumerate_admissible_strings", "calls"),
    ("bounds.enumerate_admissible_strings", "self_s"),
    ("bounds.evaluate_tail_bounds", "self_s"),
    ("chain.load_chain", "self_s"), ("chain.validate_chain", "calls"),
    ("chain.validate_chain", "self_s"), ("chain.make_family", "self_s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
]
COUNTED = [("rng.draws", "count"), ("rng.bytes_out", "B_computed"),
            ("montecarlo.state_steps", "count"), ("montecarlo.bytes_out", "B_computed"),
            ("oracle.lattice_points", "count"), ("oracle.brute_force_paths", "count"),
            ("bounds.admissible_strings", "count"), ("cli.output_bytes", "B")]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="mchoeffding benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["mc_tail", "matrix_norm", "oracle_sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_library():
    """Import the library from this checkout's src/, or exit non-zero."""
    if not (SRC / "mchoeffding" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/mchoeffding not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mchoeffding
    if Path(mchoeffding.__file__).resolve().parent != SRC / "mchoeffding":
        sys.exit(f"error: imported mchoeffding from {mchoeffding.__file__}, not {SRC}")
    import workloads
    return workloads


def environment(threads):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"blas_threads": threads, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha(), "source_sha256": source_digest()}


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "mchoeffding").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Runner:
    def __init__(self, workloads, args, workdir):
        self.cls = workloads.WORKLOADS[args.workload]
        self.args = args
        self.workdir = workdir
        self.records = []          # (job, output or None, error or None, seconds)

    def setup(self):
        """Set up SETUP_REPEATS times; returns per-repeat seconds and the last
        workload with its warm-up output (job 0)."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = self.cls(self.args.seed, str(self.workdir))
            wl.prepare()
            try:
                warm, self.warm_error = wl.run(wl.job(0)), None
            except Exception:
                warm, self.warm_error = None, traceback.format_exc(limit=8)
            times.append(time.perf_counter() - start)
        self.wl, self.warm = wl, warm
        return times

    def run_job(self, i, call=None):
        job = self.wl.job(i)
        start = time.perf_counter()
        try:
            out, err = (call(i, self.wl.run, job) if call else self.wl.run(job)), None
        except Exception:      # a failing job is a measured outcome, not a crash
            out, err = None, traceback.format_exc(limit=8)
        seconds = time.perf_counter() - start
        self.records.append((job, out, err, seconds))
        return seconds

    def check(self):
        """Check every recorded job outside the timed section; returns failures."""
        failures = []
        reference = None if self.warm is None else self.wl.data_section(self.warm)
        for n, (job, out, err, _) in enumerate(self.records):
            if err is None:
                try:
                    problems = self.wl.check(job, out)
                    if job["index"] == 0 and reference is None:
                        problems.append("the set-up run of this job raised:\n" + self.warm_error)
                    elif job["index"] == 0 and self.wl.data_section(out) != reference:
                        problems.append("data section differs from the same job run in set-up")
                except Exception:
                    problems = ["output check raised:\n" + traceback.format_exc(limit=8)]
            else:
                problems = ["job raised:\n" + err]
            if problems:
                failures.append({"record": n, "job": job, "input": self.wl.describe(job),
                                 "problems": problems})
        return failures


def run_untraced(runner, seconds):
    start = time.perf_counter()
    i = 0
    while True:
        runner.run_job(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    wl = runner.wl
    ok = [rec for rec in runner.records if rec[2] is None]
    times = [rec[3] for rec in runner.records]
    units = sum(wl.units(job) for job, *_ in ok)
    metrics = {
        "throughput": (units / elapsed, "units/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (quantile(times, 0.9), "s"),
    }
    info = {"elapsed_s": elapsed, "jobs": len(times), "work_units": units,
            "work_unit": wl.unit, "job_seconds": times}
    return metrics, info


def run_traced(runner, seconds, tracer):
    """Alternate traced and untraced passes over jobs 0..K-1 until `seconds`
    have passed (at least one pair); per-pass medians keep the numbers steady
    and the counts repeat exactly."""
    med = statistics.median
    rec = tracer.Recorder()
    k = runner.wl.trace_pass_jobs
    traced_walls, untraced_walls, passes = [], [], []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        rec.install()
        first, counts_before = len(rec.spans), dict(rec.counts)
        try:
            wall = sum(runner.run_job(i, rec.job) for i in range(k))
        finally:
            rec.uninstall()
        calls, self_s = rec.aggregate(first)
        counts = {name: rec.counts[name] - counts_before.get(name, 0.0) for name in rec.counts}
        traced_walls.append(wall)
        passes.append((calls, self_s, counts, wall))
        untraced_walls.append(sum(runner.run_job(i) for i in range(k)))

    metrics = {}
    for fn, kind in TRACED_FUNCTIONS:
        if kind == "calls":
            metrics[f"{fn}.calls"] = (med([p[0].get(fn, 0) for p in passes]), "count")
        else:
            metrics[f"{fn}.self_s"] = (med([p[1].get(fn, 0.0) for p in passes]), "s")
    for name, unit in COUNTED:
        metrics[name] = (med([p[2].get(name, 0.0) for p in passes]), unit)
    for module in tracer.MODULES + ("bench",):
        shares = [sum(v for name, v in p[1].items() if name.split(".")[0] == module) / p[3]
                  for p in passes]
        metrics[f"{module}.share"] = (med(shares), "ratio")
    overhead = med(traced_walls) - med(untraced_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / med(untraced_walls), "ratio")
    metrics["trace.pass_s"] = (med(untraced_walls), "s")
    absent = sorted({fn for fn, _ in TRACED_FUNCTIONS} - set(rec.functions))
    info = {"passes": len(passes), "jobs_per_pass": k, "traced_pass_s": traced_walls,
            "untraced_pass_s": untraced_walls, "absent_functions": absent,
            "count_errors": dict(rec.count_errors), "spans": rec.spans}
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    workloads = import_library()
    import tracer
    import_s = time.perf_counter() - t0

    workdir = RUN_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workloads, args, workdir)
        setup_times = runner.setup()
        if args.trace:
            metrics, info = run_traced(runner, args.seconds, tracer)
        else:
            metrics, info = run_untraced(runner, args.seconds)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
        failures = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.records)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(THREADS),
              "import_s": import_s, "setup_repeat_s": setup_times,
              "attempted": attempted, "failed": len(failures),
              "error_rate": len(failures) / attempted, "failures": failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **info}
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out_file.write_text(json.dumps(record, default=str) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs, "
          f"{len(failures)} failed (error_rate {len(failures) / attempted:.4g}); "
          f"detail in {out_file.relative_to(ROOT)}", file=sys.stderr)
    if args.trace:
        print(f"  {info['passes']} traced + {info['passes']} untraced passes of "
              f"{info['jobs_per_pass']} jobs; absent functions: {info['absent_functions']}",
              file=sys.stderr)
    else:
        print(f"  job_p50_s and job_p90_s over {info['jobs']} jobs in {info['elapsed_s']:.2f} s; "
              f"setup_s from {len(setup_times)} set-ups", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    for f in failures:
        print(f"FAILED job {f['job']}: {f['problems']} input={json.dumps(f['input'])}",
              file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
