"""Benchmark of the sidecast pipeline: one workload per process, a closed
loop with one client, ops run one after another.

    python3 perfbench/run.py --workload p1-reconstruct --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports sidecast from ``src/``. A run
sets up (imports, one untimed warm-up op), times whole op cycles until
``--seconds`` are used up, then reruns op 0 and compares its output bytes.
Every op's output is checked; a failed op is counted and left out of the
timings. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

End-to-end timings are divided by the run's median host slowdown, a fixed
reference computation timed before every op (see hostspeed.py), so they
read as seconds on the reference machine; the wall-clock figures are
printed beside them.

A traced run times half of ``--seconds`` untraced and half with spans
around the calls into each sidecast module's public functions (see
spans.py), and reports the difference as ``trace_overhead``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NAMES = ("p1-reconstruct", "sinc-n50", "grd-files", "verify-quick")
# the variables SIDECAST_THREADS sets, pinned before numpy loads; any value
# inherited from the caller is overridden
THREAD_VARS = ("SIDECAST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# On a 2-processor machine two threads made op times about four times less
# steady between runs, and no faster, since most of each op is
# single-threaded numpy.
THREADS = 1


class OpLog:
    """Attempted and failed ops, and the worst quality figures over every
    op of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.error_l2_max = None
        self.sinc_dev_max = None
        self.failures = []

    def add(self, i, outcome):
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.failures.append("op %d: %s" % (i, outcome.detail))
        for attr in ("error_l2", "sinc_dev"):
            val = getattr(outcome, attr)
            if val is not None:
                worst = getattr(self, attr + "_max")
                setattr(self, attr + "_max",
                        val if worst is None else max(worst, val))


def run_op(wl, i, out, tracer=None):
    """Run and check op i in directory out; returns (seconds, outcome,
    stdout). Any exception the op or its check raises fails the op."""
    from workloads import Outcome
    os.makedirs(out, exist_ok=True)
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        rc, stdout = wl.run(i, out)
    except Exception:
        return time.perf_counter() - t0, Outcome(
            False, traceback.format_exc(limit=3)), ""
    finally:
        if tracer is not None:
            tracer.op = None
    dt = time.perf_counter() - t0
    try:
        outcome = wl.check(i, out, rc, stdout)
    except Exception:
        outcome = Outcome(False, traceback.format_exc(limit=3))
    return dt, outcome, stdout


def timed_phase(wl, first, seconds, work, log, tracer=None, min_cycles=2,
                meter=None):
    """Whole cycles of ops from op ``first``: at least ``min_cycles``, and
    another only while the mean cycle so far still fits in ``seconds``.
    A meter, if given, samples the host's speed before every op and after
    the last. Returns (next op index, [(seconds, completed) per op],
    seconds the phase took apart from the meter's samples)."""
    start, i, samples, cycles = time.perf_counter(), first, [], 0
    metered = meter.seconds if meter else 0.0
    while True:
        for _ in range(wl.cycle):
            if meter:
                meter.sample()
            out = os.path.join(work, "op%d" % i)
            dt, outcome, _ = run_op(wl, i, out, tracer)
            log.add(i, outcome)
            samples.append((dt, outcome.ok))
            shutil.rmtree(out, ignore_errors=True)
            i += 1
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= min_cycles and elapsed * (cycles + 1) / cycles > seconds:
            if meter:
                meter.sample()
                metered = meter.seconds - metered
            return i, samples, time.perf_counter() - start - metered


def completed_times(samples):
    """Durations of the completed ops; failed ops are left out unless no
    op completed, when every op's time is used so a figure still exists."""
    return [d for d, ok in samples if ok] or [d for d, _ in samples]


def determinism_check(wl, work, first_stdout, log):
    """Rerun op 0 into the same directory and compare its output bytes and
    stdout with the first run's; a difference fails the rerun."""
    from workloads import Outcome
    out = os.path.join(work, "op0")
    ref = out + ".first"
    os.rename(out, ref)
    _, outcome, stdout = run_op(wl, 0, out)
    differ = [n for n in wl.outputs
              if not _same_bytes(os.path.join(out, n), os.path.join(ref, n))]
    if stdout != first_stdout:
        differ.append("stdout")
    if outcome.ok and differ:
        outcome = Outcome(False, "rerun of op 0 differs in " +
                          ", ".join(differ))
    log.add(0, outcome)
    return differ


def _same_bytes(a, b) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def highest_tail(durations):
    """(percentile, seconds) for the highest of p90/p99/p99.9 with at least
    ten samples beyond it, or None."""
    n = len(durations)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            ranked = sorted(durations)
            return p, ranked[min(n - 1, int(p / 100.0 * n))]
    return None


def environment(seed, threads, nproc):
    import numpy
    import scipy
    env = {"seed": seed, "nproc": nproc, "threads": threads,
           "cpu": platform.processor() or platform.machine(),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, index)
            with open(os.path.join(base, "level")) as fl, \
                    open(os.path.join(base, "size")) as fs:
                level, size = fl.read().strip(), fs.read().strip()
            if level in ("2", "3"):
                env["l%s_cache" % level] = size
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def measure(name, seed, seconds, trace):
    import hostspeed
    import spans
    from workloads import WORKLOADS  # loads every sidecast layer

    wl = WORKLOADS[name](seed)
    log = OpLog()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=name + "-", dir=WORK)
    tracer = spans.Tracer() if trace else None
    meter = hostspeed.Meter()
    try:
        _, warm, first_stdout = run_op(wl, 0, os.path.join(work, "op0"))
        log.add(0, warm)
        setup_s = time.perf_counter() - _START
        hostspeed.slowdown()  # first call plans the FFT; not a sample
        # the halves of a traced run feed no bounded metric: one cycle will do
        nxt, plain, elapsed = timed_phase(
            wl, 1, seconds / 2.0 if trace else seconds, work, log,
            min_cycles=1 if trace else 2, meter=meter)
        if trace:
            tracer.install()
            _, traced, _ = timed_phase(wl, nxt, seconds / 2.0, work, log,
                                       tracer, min_cycles=1)
        differ = determinism_check(wl, work, first_stdout, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    for line in log.failures:
        print("FAILED " + line.strip().replace("\n", " | "))
    report = {"workload": name, "attempted": log.attempted,
              "failed": log.failed,
              "fail_ratio": log.failed / log.attempted,
              "determinism": "op 0 rerun " + (
                  "differs in " + ", ".join(differ) if differ
                  else "byte-identical")}
    if log.error_l2_max is not None:
        report["error_l2_max"] = log.error_l2_max
    if log.sinc_dev_max is not None:
        report["sinc_dev_max"] = log.sinc_dev_max
    if trace:
        path = os.path.join(WORK, "trace-%s-seed%d.json" % (name, seed))
        tracer.write(path)
        report["trace_file"] = os.path.relpath(path, ROOT)
        if tracer.missing:
            report["not_traced"] = tracer.missing
        metrics = layer_metrics(tracer, plain, traced)
    else:
        metrics = end_to_end_metrics(plain, elapsed, setup_s, meter, report)
    for key, val in report.items():
        print("%s: %s" % (key, val))
    return {"correct": log.failed == 0, "attempted": log.attempted,
            "failed": log.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def end_to_end_metrics(samples, elapsed, setup_s, meter, report):
    """Timings are divided by the run's median host slowdown, so they read
    as seconds on the reference machine (see hostspeed.py); the report
    keeps the wall-clock figures."""
    times = completed_times(samples)
    completed = sum(ok for _, ok in samples)
    tail = highest_tail(times)
    slow = meter.median()
    report["op_samples"] = completed
    report["op_tail"] = ("p%g=%.6g s wall" % tail if tail else
                         "none (no percentile above p50 has 10 samples "
                         "beyond it)")
    report["wall_clock"] = "op_p50 %.6g s, ops/s %.6g, setup %.6g s" % (
        statistics.median(times), completed / elapsed, setup_s)
    report["host_slowdown"] = "median %.4f over %d samples (min %.4f, " \
        "max %.4f)" % (slow, len(meter.samples), min(meter.samples),
                       max(meter.samples))
    metrics = {
        "op_p50_s": (statistics.median(times) / slow, "s"),
        "ops_per_s": (completed * slow / elapsed, "1/s"),
        "setup_s": (setup_s / slow, "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for metric, (val, unit) in metrics.items():
        print("%s = %.6g %s" % (metric, val, unit))
    return metrics


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics per traced op, and the tracing overhead."""
    import spans
    calls, self_s, total_s = tracer.layer_totals()
    per_op = 1.0 / len(traced)
    metrics = {}
    for metric, unit in spans.layer_metric_names():
        fn, _, kind = metric.rpartition(".")
        if kind == "calls":
            val = calls[fn] * per_op
        elif kind == "self_s":
            val = self_s[fn] * per_op
        elif metric == "trace_overhead":
            val = statistics.median(completed_times(traced)) / \
                statistics.median(completed_times(plain)) - 1.0
        else:
            val = tracer.counts[metric] * per_op
        metrics[metric] = (val, unit)
    print("%-36s %10s %10s %8s" % ("per traced op", "self_s", "total_s",
                                   "calls"))
    for fn in sorted(self_s, key=self_s.get, reverse=True):
        print("%-36s %10.4f %10.4f %8g" % (
            fn, self_s[fn] * per_op, total_s[fn] * per_op,
            calls[fn] * per_op))
    print("computed from argument shapes and output sizes, per op:")
    for metric, (val, unit) in metrics.items():
        if metric in spans.COUNTED_METRICS:
            print("  %s = %.6g %s" % (metric, val, unit))
    print("trace_overhead = %.4f (traced op_p50_s / untraced - 1)"
          % metrics["trace_overhead"][0])
    return metrics


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("perfbench: %s exited with %d" % (name, proc.returncode),
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, k): v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "sidecast", "cli.py")):
        print("perfbench: no sidecast sources under %s" % SRC,
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    env = environment(args.seed, THREADS, len(os.sched_getaffinity(0)))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
