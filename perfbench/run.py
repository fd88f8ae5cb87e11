"""monosmooth benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its src/.
This process times the set-up probes and computes the references; a child,
the measured process, holds only monosmooth, the inputs, the references'
values and the loop.  The load is one closed loop with a single client:
experiments run one at a time, in the measured process or, for cli-cold, as
one fresh CLI process at a time.
A run repeats its workload's experiment cycle until S seconds have passed
and at least twice; times are calibrated against host speed (see
CALIBRATION_REF_S).

The last line of standard output is the result, {"correct", "attempted",
"failed", "metrics"}: end-to-end metrics with --trace 0, per-layer metrics
from a traced run with --trace 1.  The line before it records the
environment, the seed, the sample counts and the failures.  "failed" counts
every experiment that raised, exited wrongly or failed its check; "correct"
is false when one of them is not a known defect pinned to that experiment
(workloads.KNOWN_FAILURES).  Workload names, the default of --seconds and
the per-layer metrics come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that the tracer's span summary gives; the import times
# come from the set-up probes and the trace.* ones from the cycle times
SPAN_METRICS = [(m["name"], m["unit"]) for m in SPEC["per_layer"]
                if not m["name"].startswith(("cli.import", "trace."))]
SETUP_PROBES = 3
# Host speed on a shared machine drifts by 20-50 % over seconds to minutes,
# for monosmooth and any other code alike.  A fixed calibration kernel runs
# between experiments, and each experiment time is scaled by
# CALIBRATION_REF_S / (median kernel time just before and after it): the
# drift cancels, a change to monosmooth does not.  CALIBRATION_REF_S is about
# the kernel's median time on the 2-core Xeon host of the baseline in
# NOTES.md, so that scaled times read as wall times there.
CALIBRATION_REF_S = 0.005
CALIBRATION_REPS = 3
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: the benchmark is one client on one core, and a second
# thread would only add the other core's noise
BLAS_THREADS = 1


def configure_environment():
    """BLAS threads and the checkout's src/ for this process and its children;
    before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))


def import_package():
    """monosmooth and its CLI, from this checkout's src/ and nowhere else."""
    import monosmooth
    import monosmooth.cli  # noqa: F401

    if SRC.resolve() not in Path(monosmooth.__file__).resolve().parents:
        raise SystemExit(f"monosmooth imported from {monosmooth.__file__}, not {SRC}")
    return monosmooth


def probe(workload, seed):
    """Set-up as a user pays it: a fresh interpreter imports monosmooth and
    builds the workload's inputs.  Prints when it is ready to time."""
    start = time.perf_counter()
    ms = import_package()
    import_s = time.perf_counter() - start
    import workloads

    workloads.WORKLOADS[workload][0](ms, seed)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))


def import_parts(stderr):
    """numpy and scipy shares of an import, from `python -X importtime`."""
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line.split("|")
            depth = len(name) - len(name.lstrip())
            rows.append((depth, name.strip(), int(cumulative) / 1e6))
    scipy = [(d, c) for d, n, c in rows if n == "scipy" or n.startswith("scipy.")]
    top = min((d for d, _ in scipy), default=0)
    return {
        "cli.import_numpy_s": sum(c for _, n, c in rows if n == "numpy"),
        "cli.import_scipy_s": sum(c for d, c in scipy if d == top),
    }


def measure_setup(workload, seed, importtime, cal_data):
    """Medians over fresh-process probes: setup_s, calibrated like an
    experiment by the kernels run before and after each probe, its unscaled
    value and the import times."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    before = calibrate(cal_data)
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr[-4000:]}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        after = calibrate(cal_data)
        raw = doc["ready"] - start
        sample = {"setup_s": raw * CALIBRATION_REF_S / statistics.median(before + after),
                  "setup_unscaled_s": raw, "cli.import_s": doc["import_s"]}
        if importtime:
            sample.update(import_parts(proc.stderr))
        samples.append(sample)
        before = after
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def calibration_kernel(data):
    """Interpreter loop, FFT and sort: a fixed mix that monosmooth never runs."""
    import numpy

    total = 0
    for i in range(50000):
        total += i * i
    return total, numpy.fft.rfft(data), numpy.sort(data)


def calibrate(cal_data):
    """CALIBRATION_REPS timed runs of the calibration kernel."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        calibration_kernel(cal_data)
        times.append(time.perf_counter() - start)
    return times


def run_cycle(cycle, tracer, log, cal_data):
    """Run every experiment once, with calibration kernels before the first
    and after every experiment; time run(), then check its result.

    Returns the experiment times and the kernel times, one slot of
    CALIBRATION_REPS around each gap between experiments."""
    from workloads import Failure

    durations, slots = [], [calibrate(cal_data)]
    for exp in cycle:
        start = time.perf_counter()
        try:
            result, error = exp.run(tracer), None
        except Exception as exc:  # a raising experiment is a failed one
            result, error = None, exc
        durations.append(time.perf_counter() - start)
        slots.append(calibrate(cal_data))
        if error is not None:
            failure = Failure(f"raised {type(error).__name__}: {error}", None)
        else:
            try:
                failure = exp.check(result)
            except Exception as exc:  # malformed output
                failure = Failure(f"check raised {type(exc).__name__}: {exc}", None)
        log.append((exp.name, failure))
    return durations, slots


def environment(seed):
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy = version("scipy")
    except PackageNotFoundError:
        scipy = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy, "nproc": NPROC, "cpu": cpu,
            "blas_threads": BLAS_THREADS, "seed": seed}


def peak_rss_mb(workload):
    """Of the measured process, or for cli-cold of its largest child: the CLI
    commands are its only children."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timing(times):
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
    }


def calibrated_times(cycles):
    """Per experiment, the median over cycles of its time scaled by
    CALIBRATION_REF_S / (median kernel time in the slots before and after it)."""
    scaled = [[t * CALIBRATION_REF_S / statistics.median(slots[j] + slots[j + 1])
               for j, t in enumerate(times)] for times, slots in cycles]
    return [statistics.median(ts) for ts in zip(*scaled)]


def measure(args, ms, cycle, min_cycles, cal_data):
    """Repeat the cycle until the time is up, min_cycles times at least (with
    tracing, two untraced and two traced cycles at least, after an unlogged
    warm-up cycle), and compute the metrics from calibrated experiment times."""
    from tracing import Tracer

    log = []
    plain, traced = [], []  # (experiment times, kernel slots) per cycle
    tracer = Tracer() if args.trace else None
    passes = (False,) if tracer is None else (False, True)
    if tracer is not None:
        min_cycles = 2  # one pair in each order
        # the process's one-time costs (first calls, fresh memory) would
        # otherwise all fall on the first untraced cycle and bias the overhead
        run_cycle(cycle, None, [], cal_data)
    start = time.perf_counter()
    while len(plain) < min_cycles or time.perf_counter() - start < args.seconds:
        # with tracing, alternate which pass goes first, so that drift in host
        # speed falls on both passes alike
        for use_tracer in passes if len(plain) % 2 == 0 else passes[::-1]:
            if not use_tracer:
                plain.append(run_cycle(cycle, None, log, cal_data))
                continue
            tracer.install(ms)
            try:
                traced.append(run_cycle(cycle, tracer, log, cal_data))
            finally:
                tracer.uninstall()

    best = calibrated_times(plain)
    unscaled = [statistics.median(ts) for ts in zip(*(times for times, _ in plain))]
    kernel = [t for _, slots in plain for slot in slots for t in slot]
    detail = {"experiments": len(cycle), "cycles": len(plain), "traced_cycles": len(traced),
              "calibration_kernel_median_s": statistics.median(kernel),
              "unscaled": {k: v for k, (v, _) in timing(unscaled).items()}}

    if tracer is None:
        metrics = {
            **timing(best),
            "ok_frac": (sum(f is None for _, f in log) / len(log), "share"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
    else:
        summary = tracer.summary()
        runs = len(traced) * len(cycle)
        metrics = {name: (summary.get(name, 0.0) / runs, unit)
                   for name, unit in SPAN_METRICS}
        best_traced = calibrated_times(traced)
        metrics["trace.overhead_s"] = ((sum(best_traced) - sum(best)) / len(cycle), "s")
        metrics["trace.overhead_frac"] = (sum(best_traced) / sum(best) - 1.0, "share")
    return log, metrics, detail


def measure_child(args):
    """The measured process: replays the references recorded in its work
    directory and prints the log, metrics and detail of measure()."""
    import numpy

    ms = import_package()
    import workloads

    make_inputs, make_cycle, min_cycles = workloads.WORKLOADS[args.workload]
    workdir = Path(args.measure)
    with open(workdir / "refs.pickle", "rb") as fh:
        values = iter(pickle.load(fh))
    cycle = make_cycle(ms, make_inputs(ms, args.seed), workdir, lambda thunk: next(values))
    end = object()
    if next(values, end) is not end:
        raise RuntimeError("the cycle asked for fewer references than were recorded")
    cal_data = numpy.random.default_rng(0).random(1 << 16)
    log, metrics, detail = measure(args, ms, cycle, min_cycles, cal_data)
    print(json.dumps({"log": [(name, *(f or (None, None))) for name, f in log],
                      "metrics": metrics, "detail": detail}))


def record_and_measure(args, ms, workloads):
    """Compute the references here, then measure in a child that replays them."""
    make_inputs, make_cycle, _ = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    refs = []

    def record(thunk):
        refs.append(thunk())
        return refs[-1]

    try:
        make_cycle(ms, make_inputs(ms, args.seed), workdir, record)
        with open(workdir / "refs.pickle", "wb") as fh:
            pickle.dump(refs, fh)
        cmd = [sys.executable, str(HERE / "run.py"), "--measure", str(workdir),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"measured process failed:\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(workdir)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    log = [(name, None if message is None else workloads.Failure(message, defect))
           for name, message, defect in out["log"]]
    return log, out["metrics"], out["detail"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    configure_environment()
    if not (SRC / "monosmooth" / "__init__.py").is_file():
        print(f"perfbench: no monosmooth package under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.measure:
        measure_child(args)
        return 0

    import numpy

    cal_data = numpy.random.default_rng(0).random(1 << 16)
    setup = measure_setup(args.workload, args.seed, bool(args.trace), cal_data)
    ms = import_package()
    import workloads

    log, metrics, detail = record_and_measure(args, ms, workloads)
    if args.trace:
        for key in ("cli.import_s", "cli.import_numpy_s", "cli.import_scipy_s"):
            metrics[key] = (setup[key], "s")
    else:
        metrics["setup_s"] = (setup["setup_s"], "s")
        detail["unscaled"]["setup_s"] = setup["setup_unscaled_s"]

    failures = [(name, f) for name, f in log if f is not None]
    unexplained = [f"{name}: {f.message}" for name, f in failures
                   if not workloads.explained(name, f)]
    by_defect = Counter(f.defect if workloads.explained(name, f) else "unexplained"
                        for name, f in failures)
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        **detail, "failures": dict(by_defect),
        "failures_by_kind": dict(Counter(name.split()[0] for name, _ in failures)),
        "first_unexplained": unexplained[:5],
    }))
    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(log),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
