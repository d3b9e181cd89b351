"""Benchmark driver for torusbase.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py for the four and why each exists) in
this process, single-threaded, as a closed loop: one caller, and the next op
starts when the previous one returns.  Inputs come from ``--seed`` alone and
every op's output is checked; a failed or mismatched op is counted, never
fatal.  Passes repeat until the next one would end after ``--seconds``; at
least one pass always runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` (mean time of one pass, the time to solution), ``op_p50_ms``
(median op latency), ``peak_rss_mb`` (``ru_maxrss`` of this process) and
``setup_s`` (the time to import torusbase plus the median of several
set-ups in this process, each building and validating the inputs).  With
``--trace 1`` one set-up is traced, passes alternate untraced and traced,
and the last line carries the per-layer metrics of spans.py, including
``trace.overhead_ratio`` (traced over untraced pass time); the spans are
written to ``.perfbench-out/`` in the checkout.

The line before the last, ``{"detail": ...}``, records the seed, the pass and
op counts, the untraced pass times, ``fail_ratio``, the op latency tail where
a run has enough ops, the scaling exponent of flat_torus_sweep
and the first failures.

The program is imported from ``src/`` next to this directory; without it the
driver exits 2 and prints no result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
OUT_DIR = ".perfbench-out"


def import_program():
    """Put the checkout's src/ first on sys.path, or exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "torusbase", "__init__.py")):
        print("error: no torusbase package under %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def timed_setups(workload, seed, scale, workdir, samples, tracer):
    """Build and validate the workload's inputs ``samples`` times, each from
    a fresh seeded rng (once, traced, with a tracer); returns the last state
    and the median time."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    times = []
    for i in range(samples):
        if i and wl.teardown is not None:
            wl.teardown(state)
        if tracer is not None:
            tracer.begin_pass()
        t0 = perf_counter()
        state = wl.setup(workloads.rng_for(workload, seed), scale, workdir)
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.end_pass(setup=True)
            break
    return state, statistics.median(times)


def scaling_exponent(sized_times):
    """Least-squares slope of log time against log size, over (size,
    seconds) pairs, taking the median time at each size."""
    by_size = {}
    for size, t in sized_times:
        by_size.setdefault(size, []).append(t)
    points = [(math.log(s), math.log(statistics.median(ts))) for s, ts in sorted(by_size.items())]
    if len(points) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 samples
    above, or Nones when that percentile would not exceed the median."""
    n = len(times)
    if n < 20:
        return None, None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed, seconds, trace, scale="full", workdir=ROOT, setup_samples=SETUP_SAMPLES, import_s=0.0):
    """Run one workload; returns (result, detail) as printed by main().
    ``import_s`` is the time main() took to import torusbase."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    tracer = spans.Tracer() if trace else None
    state, setup_s = timed_setups(workload, seed, scale, workdir, setup_samples, tracer)
    rng = workloads.rng_for(workload, seed)
    walls = {False: [], True: []}  # pass times, by traced
    op_times = []  # seconds of untraced ops
    sized_times = []  # (size, seconds) that untraced ops report of their steps
    attempted = failed = 0
    failures = []
    start = perf_counter()

    def traced_next():  # with --trace 1, passes alternate untraced, traced
        return bool(trace) and len(walls[False]) > len(walls[True])

    try:
        while True:
            traced = traced_next()
            ops = op = None  # drop the last pass's inputs, so peak_rss_mb holds one pass
            ops = wl.make_pass(state, rng, scale)
            if traced:
                tracer.begin_pass()
            t0 = perf_counter()
            for label, op in ops:
                if traced:
                    tracer.op = attempted
                o0 = perf_counter()
                sizes = {}
                try:
                    sizes = op() or {}
                except Exception as err:  # counted, never fatal
                    failed += 1
                    if len(failures) < 5:
                        failures.append("%s: %s: %s" % (label, type(err).__name__, err))
                elapsed = perf_counter() - o0
                attempted += 1
                if not traced:
                    op_times.append(elapsed)
                    sized_times += sizes.items()
            walls[traced].append(perf_counter() - t0)
            if traced:
                tracer.end_pass()
            if trace and not (walls[True] and walls[False]):
                continue
            estimate = (walls[traced_next()] or walls[traced])[-1]
            if perf_counter() - start + estimate > seconds:
                break
    finally:
        if wl.teardown is not None:
            wl.teardown(state)

    tail_s, tail_pct = tail(op_times)
    detail = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(bool(trace)),
        "passes": len(walls[False]) + len(walls[True]),
        "import_s": import_s,
        "setup_s": setup_s,
        "pass_s": walls[False],
        "ops": attempted,
        "fail_ratio": failed / attempted,
        "op_samples": len(op_times),
        "op_tail_ms": None if tail_s is None else tail_s * 1e3,
        "op_tail_pct": tail_pct,
        "scaling_exponent": scaling_exponent(sized_times),
        "failures": failures,
    }
    if trace:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics = tracer.metrics(overhead)
        out = os.path.join(workdir, OUT_DIR)
        os.makedirs(out, exist_ok=True)
        detail["spans_file"] = os.path.join(out, "spans-%s-seed%d.json" % (workload, seed))
        tracer.write(detail["spans_file"], {k: detail[k] for k in ("workload", "seed", "scale")})
    else:
        metrics = {
            # the mean, not the median: a shared machine's speed can switch
            # between a fast and a slow state for seconds at a time, and the
            # median of many short passes jumps between the two
            "wall_s": {"value": statistics.fmean(walls[False]), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": import_s + setup_s, "unit": "s"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    t0 = perf_counter()
    import workloads  # imports torusbase and numpy

    import_s = perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; known: %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    result, detail = measure(args.workload, args.seed, args.seconds, args.trace, import_s=import_s)
    for line in detail["failures"]:
        print("failed op: %s" % line, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
