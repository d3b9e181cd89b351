"""Run every workload in its own process and print its metrics by name.

    python3 perfbench/report.py [--seed N]
    python3 perfbench/report.py --trace [--seed N]

Each workload named in BENCHMARK.json runs for its ``run_seconds``.
Without ``--trace``: every end-to-end metric with its unit, per workload,
plus ``fail_ratio``, the op latency tail with its percentile and sample
count (where a run has at least 20 ops) and the scaling
exponent of flat_torus_sweep.  With ``--trace``: the per-layer numbers of a
traced run, each module's share of the traced set-up plus pass, the slowest
spans by self time, ``trace.untraced_s`` and ``trace.overhead_ratio``.
Exits 1 if any op failed.  ``run.py --workload NAME`` runs one workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_one(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(int(trace))],
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit("%s failed (exit %d):\n%s" % (workload, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def print_end_to_end(result, detail):
    for name, m in result["metrics"].items():
        print("  %-18s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-18s %14.6g ratio  (%d of %d ops failed)" % ("fail_ratio", detail["fail_ratio"], result["failed"], result["attempted"]))
    if detail["op_tail_ms"] is None:
        print("  %-18s %14s        (%d ops; a tail needs at least 20)" % ("op_tail_ms", "n/a", detail["op_samples"]))
    else:
        print("  %-18s %14.6g ms     (p%.1f of %d ops)" % ("op_tail_ms", detail["op_tail_ms"], detail["op_tail_pct"], detail["op_samples"]))
    if detail["scaling_exponent"] is not None:
        print("  %-18s %14.6g        (slope of log op time on log faces)" % ("scaling_exponent", detail["scaling_exponent"]))


def print_traced(result, detail, top=12):
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    self_s = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values()) + metrics["trace.untraced_s"]
    modules = {}
    for span, v in self_s.items():
        modules[span.split(".")[0]] = modules.get(span.split(".")[0], 0.0) + v
    print("  traced set-up (%.3f s) plus median pass: %.3f s in all; untraced %.4f s; overhead ratio %.3f" % (
        detail["setup_s"], total, metrics["trace.untraced_s"], metrics["trace.overhead_ratio"]))
    print("  self time by module: " + ", ".join(
        "%s %.0f%%" % (m, 100 * v / total) for m, v in sorted(modules.items(), key=lambda kv: -kv[1]) if v))
    for span, v in sorted(self_s.items(), key=lambda kv: -kv[1])[:top]:
        extras = ", ".join(
            "%s %.4g" % (k[len(span) + 1:], metrics[k])
            for k in metrics
            if k.startswith(span + ".") and not k.endswith(".self_s") and k.count(".") == span.count(".") + 1
        )
        print("  %-40s self %9.4f s (%4.1f%%)  %s" % (span, v, 100 * v / total, extras))
    print("  spans: %s" % detail["spans_file"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        result, detail = run_one(workload, args.seed, args.trace)
        print("%s (seed %d, %d passes, %d ops, correct %s)" % (
            workload, detail["seed"], detail["passes"], detail["ops"], result["correct"]))
        (print_traced if args.trace else print_end_to_end)(result, detail)
        for line in detail["failures"]:
            print("  failed op: %s" % line)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
