"""Benchmark of pointflow: seeded workloads through the public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload contraction --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One run sets up (imports pointflow from ./src and generates the seeded
inputs), then runs jobs in a closed loop, one at a time in this process,
until the jobs have taken --seconds.  The clock stops while outputs are
checked.  The first two jobs run the same config, and their reports
must match byte for byte apart from the duration field.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1
it runs a fixed list of jobs twice, untraced and then traced (see
tracer.py), and reports the per-layer metrics per job.  Human-readable
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the program
cannot be found or the arguments are wrong.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("contraction", "verify_landau", "verify_grid")
# child processes that repeat the set-up, next to the run's own set-up
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def locate_program():
    if not os.path.isfile(os.path.join(SRC, "pointflow", "__init__.py")):
        die(f"no pointflow sources under {SRC}; run from a checkout")
    sys.path[:0] = [SRC, HERE]


def setup(name, seed, workdir):
    """Import pointflow and generate the workload's seeded inputs."""
    start = time.perf_counter()
    import pointflow
    import workloads
    workload = workloads.WORKLOADS[name]()
    workload.setup(workdir)
    configs = workload.configs(seed)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(pointflow.__file__).startswith(SRC + os.sep):
        die(f"imported pointflow from {pointflow.__file__}, not from {SRC}")
    return elapsed, workload, configs


def make_workdir(tag):
    path = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    return path


def setup_probe(args):
    workdir = make_workdir("probe")
    try:
        elapsed, _, _ = setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def probe_setup_times(args):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def provenance(seed):
    import numpy
    import scipy
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "pointflow")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "seed": seed,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": blas,
        "process_threads": len(os.listdir("/proc/self/task")),
    }


# ---------------------------------------------------------------------------
# jobs


class Record:
    __slots__ = ("config", "wall", "problems", "job")

    def __init__(self, config, wall, problems, job):
        self.config = config
        self.wall = wall
        self.problems = problems
        self.job = job


def run_job(workload, configs, config, workdir, tracer=None):
    """Run a job on configs[config] and check it; only the run is timed."""
    cfg = configs[config]
    if tracer is not None:
        tracer.job = config
        tracer.active = True
    start = time.perf_counter()
    try:
        job, error = workload.run(cfg, workdir), None
    except Exception as exc:  # a job that raises is a failed job
        job, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is not None:
        problems = [error]
    else:
        try:
            problems = workload.check(cfg, job.collect())
        except Exception as exc:  # a check that cannot read the output fails
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return Record(config, wall, problems, job)


def run_jobs(workload, configs, order, workdir, seen, seconds=None,
             tracer=None):
    """Closed loop over configs[order[0]], configs[order[1]], ...

    Runs every entry of `order`, or with `seconds` stops once the jobs
    took that long (never before the second job).  `seen` maps a config
    index to the digest of its first run; a job that repeats a config
    must reproduce that digest.
    """
    records = []
    spent = 0.0
    for index, config in enumerate(order):
        if seconds is not None and index >= 2 and spent >= seconds:
            break
        rec = run_job(workload, configs, config, workdir, tracer)
        if rec.job is not None:
            digest = rec.job.digest.hexdigest()
            if seen.setdefault(config, digest) != digest:
                rec.problems.append(f"reports differ from an earlier run of "
                                    f"config {config}")
        records.append(rec)
        spent += rec.wall
    return records


def report_failures(records):
    for rec in records:
        if rec.problems:
            print(f"failed job on config {rec.config}: "
                  + "; ".join(rec.problems))


def tail(times):
    """Highest order statistic with TAIL_BEYOND jobs beyond it, or None."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return sorted(times)[k - 1], 100.0 * k / n


def end_to_end(workload, configs, workdir, setup_s, seconds):
    # config 0 runs twice, first cold, for the determinism check
    order = [0] + list(range(len(configs)))
    records = run_jobs(workload, configs, order, workdir, {}, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [r.wall for r in records]
    failed = sum(1 for r in records if r.problems)
    attempted = len(records)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": (attempted - failed) / sum(times),
        "job_s_p50": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(setup_s), ", ".join(f"{t:.4f}" for t in setup_s)),
        "jobs_per_s": f"{attempted - failed} passed jobs in {sum(times):.3f} s "
                      f"of job time",
        "job_s_p50": f"median of {attempted} jobs: " + ", ".join(
            f"{t:.3f}" for t in times),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    report_failures(records)
    units = metric_units("end_to_end")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]} ({notes[name]})")
    tail_value = tail(times)
    if tail_value is None:
        print(f"metric job_s_tail omitted s ({attempted} jobs; a tail needs "
              f"more than {TAIL_BEYOND} so that {TAIL_BEYOND} lie beyond it)")
    else:
        value, pct = tail_value
        print(f"metric job_s_tail {value!r} s (p{pct:.1f} of {attempted} jobs, "
              f"{TAIL_BEYOND} beyond it)")
    print(f"metric fail_frac {failed / attempted!r} ratio "
          f"({failed} of {attempted} jobs failed)")
    return failed == 0, attempted, failed, {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()}


def per_layer(workload, configs, workdir):
    import tracer as tracing
    # a warm-up, then each job untraced and right after it traced, so that
    # drift in machine speed cancels in trace.overhead; every repeat of a
    # config must reproduce the first run's reports
    seen = {}
    warm = run_jobs(workload, configs, [0], workdir, seen)
    tracer = tracing.Tracer()
    plain, traced = [], []
    for config in range(workload.traced_jobs):
        plain += run_jobs(workload, configs, [config], workdir, seen)
        tracer.install()
        try:
            traced += run_jobs(workload, configs, [config], workdir, seen,
                               tracer=tracer)
        finally:
            tracer.uninstall()
    records = warm + plain + traced
    report_failures(records)
    problems = tracing.well_formed(tracer.spans)
    for p in problems:
        print(f"trace: {p}")
    bytes_written = sum(r.job.bytes_written for r in traced if r.job)
    metrics = tracing.layer_metrics(tracer.spans, [r.wall for r in traced],
                                    bytes_written)
    metrics["trace.overhead"] = (statistics.median(r.wall for r in traced)
                                 / statistics.median(r.wall for r in plain))
    picard = {r.config: r.job.reports["picard"]["payload"] for r in traced
              if r.job is not None and "picard" in r.job.reports}
    closure = tracing.accounting_problems(tracer.spans, picard)
    print("accounting: " + ("closed" if not closure else "; ".join(closure)))
    units = metric_units("per_layer")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    failed = sum(1 for r in records if r.problems)
    return failed == 0 and not problems, len(records), failed, {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()}


def metric_units(kind):
    """Units of the `kind` metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_all(args):
    """Every workload in its own process, then one table of their metrics."""
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("provenance"):
                print(f"{name}: {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):  # the run broke before its result
            result = None
        if result is None or not result["correct"]:
            ok = False
            sys.stderr.write(out.stderr)
        for line in lines:
            if line.startswith("metric "):
                _, metric, value, unit = line.split(" ", 4)[:4]
                rows.append((name, metric, value, unit))
    print()
    print(f"{'workload':15} {'metric':26} {'value':>14} unit")
    for name, metric, value, unit in rows:
        shown = value if value == "omitted" else f"{float(value):.6g}"
        print(f"{name:15} {metric:26} {shown:>14} {unit}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    locate_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workdir = make_workdir("run")
    try:
        setup_s, workload, configs = setup(args.workload, args.seed, workdir)
        print(f"# perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            correct, attempted, failed, metrics = per_layer(
                workload, configs, workdir)
        else:
            setup_s = [setup_s] + probe_setup_times(args)
            correct, attempted, failed, metrics = end_to_end(
                workload, configs, workdir, setup_s, args.seconds)
        print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still has its directory there
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
