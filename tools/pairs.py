"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N [--seed S] [--seconds T]

PARENT and CHANGE are directories, each a checkout of the repository.  Pair
i runs the command of BENCHMARK.json (read from CHANGE) once in each
checkout, with seed S + i (S defaults to 1), ``--trace 0`` and the
benchmark's ``run_seconds`` (or T); the parent runs first in even pairs
and the change first in odd ones, so a drift of the machine's speed
favours neither side.

It prints every pair, then for every end-to-end metric each side's median
and quartiles, the change's wins (ties count for neither side) and two
verdicts:

- claim: whether a gain may be claimed: the change wins at least 9/10 of
  the pairs, and its median is better than the parent's by more than the
  parent's interquartile range;
- bound: whether the change's median is worse than the parent's by more
  than the metric's bound, a fraction of the parent's median.

Failed ops are counted per side.  Exits 1 when a run fails or prints no
result.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(checkout, command, workload, seed, seconds):
    """One run of the benchmark command in checkout: its result line, parsed."""
    argv = list(command) + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s: exit %d\n%s" % (checkout, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(xs):
    """(first quartile, median, third quartile) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, parent, change):
    """The summary lines of one end-to-end metric over the pairs run."""
    name, lower = metric["name"], metric["better"] == "lower"
    sign = 1 if lower else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = sign * (pm - cm)  # positive when the change is better
    claim = wins >= 0.9 * len(parent) and gap > p3 - p1
    worse = -gap / abs(pm) if pm else 0.0
    return [
        "%s (%s, %s is better, bound %g)" % (name, metric["unit"], metric["better"], metric["bound"]),
        "  parent median %.6g  quartiles %.6g .. %.6g  (IQR %.3g)" % (pm, p1, p3, p3 - p1),
        "  change median %.6g  quartiles %.6g .. %.6g" % (cm, c1, c3),
        "  change wins %d/%d pairs; median gap %+.6g (%+.1f%% of the parent's)"
        % (wins, len(parent), gap, 100.0 * gap / pm if pm else 0.0),
        "  claim: %s" % ("holds" if claim else "not met"),
        "  bound: %s" % ("WORSE than its bound (%.1f%%)" % (100 * worse) if worse > metric["bound"] else "within"),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    bench = load_benchmark(args.change)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error("unknown workload %r" % args.workload)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in bench["end_to_end"]} for side in sides}
    failed = {side: [0, 0] for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run(sides[side], bench["command"], args.workload, seed, seconds) for side in order}
        for side, result in got.items():
            failed[side][0] += result["failed"]
            failed[side][1] += result["attempted"]
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
        print(
            "pair %d seed %d (%s first): " % (i + 1, seed, order[0])
            + "  ".join(
                "%s %.6g -> %.6g" % (m["name"], values["parent"][m["name"]][-1], values["change"][m["name"]][-1])
                for m in bench["end_to_end"]
            ),
            flush=True,
        )
    print("workload %s, %d pairs at %g s" % (args.workload, args.pairs, seconds))
    for side in sides:
        print("%s: %d of %d ops failed" % (side, *failed[side]))
    over = []
    for metric in bench["end_to_end"]:
        lines = summarize(metric, values["parent"][metric["name"]], values["change"][metric["name"]])
        print("\n".join(lines))
        if "WORSE" in lines[-1]:
            over.append(metric["name"])
    print("metrics worse than their bound: %s" % (", ".join(over) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
