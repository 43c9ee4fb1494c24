#!/usr/bin/env python3
"""A/B benchmark two checkouts with alternating perfbench pairs.

Usage:

    python3 tools/ab_bench.py PARENT CHANGE [--workloads quadrants32,sparse64]
        [--pairs 10] [--seconds 6] [--trace 0] [--seed 1] [--json out.json]
    python3 tools/ab_bench.py --from-json out.json [CHANGE]
    python3 tools/ab_bench.py --self-test

PARENT and CHANGE are two checkouts of this repository. Each pair runs
`perfbench/run.py` once in each checkout, with the same seed (seed, seed+1,
... for pairs 1, 2, ...); the side that runs first flips every pair, so a
host that drifts (thermal, a noisy neighbour) does not favour one side. Each
checkout builds its own benchmark the first time (`run.py` compiles into
`.bench_build/` there); one discarded warm-up run per side does that before
the first timed pair.

For every workload and metric the report prints the median [q1, q3] of each
side, the change's median relative to the parent's, and how many pairs the
change won (strictly better in the metric's direction, read from the
`BENCHMARK.json` of the change checkout). It then prints every pair's values
and flags each pair whose simulated metrics (`sim_*`) differ between the
sides: a change that should not touch the simulation must show none, and a
change that moves the simulation on purpose shows which seeds moved. A run
that reports `correct: false` or failed operations is flagged too.

Python 3 standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def last_json_line(text):
    """The result object: the last line of run.py's standard output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns its parsed result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{checkout}: run.py --workload {workload} exited {proc.returncode}")
    return last_json_line(proc.stdout)


def pair_order(index):
    """Pair 0 runs the parent first, pair 1 the change first, and so on."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def directions(checkout):
    """metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    out = {}
    for section in ("end_to_end", "per_layer"):
        for m in spec.get(section, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def better(direction, change, parent):
    return change > parent if direction == "higher" else change < parent


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    """Four significant digits, no exponent for the usual ranges."""
    if x == 0:
        return "0"
    ax = abs(x)
    if ax >= 1e5 or ax < 1e-3:
        return f"{x:.4g}"
    digits = max(0, 3 - int(f"{ax:e}".split("e")[1]))
    return f"{x:.{digits}f}"


def metric_values(result):
    return {name: m["value"] for name, m in result.get("metrics", {}).items()}


def summarize(workload, pairs, direction_of):
    """Report lines for one workload. `pairs` is a list of
    {"seed": s, "parent": result, "change": result}."""
    lines = []
    names = sorted(
        set(metric_values(pairs[0]["parent"])) & set(metric_values(pairs[0]["change"])),
        key=lambda n: (n.startswith("sim_"), "." in n, n))
    n = len(pairs)
    lines.append(f"### {workload}: {n} pairs")
    lines.append("")
    lines.append("| metric | parent | change | change better |")
    lines.append("|---|---|---|---|")
    for name in names:
        p = [metric_values(pr["parent"])[name] for pr in pairs]
        c = [metric_values(pr["change"])[name] for pr in pairs]
        pq, cq = quartiles(p), quartiles(c)
        rel = f" ({(cq[1] - pq[1]) / pq[1] * 100:+.1f}%)" if pq[1] else ""
        direction = direction_of.get(name, "lower")
        wins = sum(1 for a, b in zip(p, c) if better(direction, b, a))
        lines.append(f"| {name} | {fmt(pq[1])} [{fmt(pq[0])}, {fmt(pq[2])}] | "
                     f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]{rel} | {wins}/{n} |")
    lines.append("")
    for name in names:
        cells = "; ".join(
            f"{fmt(metric_values(pr['parent'])[name])}/{fmt(metric_values(pr['change'])[name])}"
            for pr in pairs)
        lines.append(f"- per-pair {name}, parent/change: {cells}")
    lines.append("")
    moved = []
    for pr in pairs:
        pv, cv = metric_values(pr["parent"]), metric_values(pr["change"])
        sims = sorted(k for k in set(pv) | set(cv) if k.startswith("sim_"))
        if any(pv.get(k) != cv.get(k) for k in sims):
            moved.append(str(pr["seed"]))
        for side in SIDES:
            r = pr[side]
            if r.get("correct") is not True or r.get("failed", 0) != 0:
                lines.append(f"- FLAG seed {pr['seed']} {side}: correct={r.get('correct')} "
                             f"failed={r.get('failed')}")
    if moved:
        lines.append(f"- FLAG sim_* metrics differ in {len(moved)}/{n} pairs "
                     f"(seeds {', '.join(moved)})")
        # A realization that moved on purpose should agree with the parent
        # within the seed-to-seed spread.
        for name in (k for k in names if k.startswith("sim_") and n > 1):
            spread = []
            for side in SIDES:
                v = [metric_values(pr[side])[name] for pr in pairs]
                spread.append(f"{side} {fmt(statistics.mean(v))} ± {fmt(statistics.stdev(v))}")
            lines.append(f"- {name} mean ± sd over seeds: {', '.join(spread)}")
    else:
        lines.append(f"- sim_* metrics identical in {n}/{n} pairs")
    return lines


def measure(args):
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            sys.exit(f"ab_bench: {side} checkout {path} has no perfbench/run.py")
    workloads = [w for w in args.workloads.split(",") if w]
    for side in SIDES:  # builds each side's benchmark; the result is discarded
        run_once(checkouts[side], workloads[0], args.seed, 1, 0)
    data = {}
    for w in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            pair = {"seed": seed}
            for side in pair_order(i):
                pair[side] = run_once(checkouts[side], w, seed, args.seconds, args.trace)
            pairs.append(pair)
            print(f"ab_bench: {w} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        data[w] = pairs
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=1)
    return data, directions(checkouts["change"])


def report(data, direction_of):
    out = []
    for w, pairs in data.items():
        out.extend(summarize(w, pairs, direction_of))
        out.append("")
    return "\n".join(out)


def self_test():
    """Checks the statistics and the report on fixed data."""
    def result(run_s, rate, delay, correct=True):
        return {"correct": correct, "failed": 0, "metrics": {
            "run_s": {"value": run_s}, "node_cycles_per_s": {"value": rate},
            "sim_delay_ns": {"value": delay}}}

    assert pair_order(0) == ("parent", "change") and pair_order(1) == ("change", "parent")
    assert pair_order(2) == pair_order(0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert better("lower", 1.0, 2.0) and not better("lower", 2.0, 2.0)
    assert better("higher", 3.0, 2.0) and not better("higher", 1.0, 2.0)
    assert last_json_line("building...\n[100%] Built\n{\"correct\": true}\n\n") == {"correct": True}
    assert fmt(1.23456) == "1.235" and fmt(0.0123456) == "0.01235" and fmt(15704.3) == "15704"

    pairs = [
        {"seed": 1, "parent": result(1.0, 100.0, 50.0), "change": result(0.5, 200.0, 50.0)},
        {"seed": 2, "parent": result(1.2, 90.0, 51.0), "change": result(0.6, 180.0, 51.0)},
        {"seed": 3, "parent": result(0.9, 110.0, 49.0), "change": result(1.0, 95.0, 48.5)},
    ]
    text = "\n".join(summarize("toy", pairs, {"run_s": "lower", "node_cycles_per_s": "higher"}))
    expected = [
        "- sim_delay_ns mean ± sd over seeds: parent 50.00 ± 1.000, change 49.83 ± 1.258",
        "| run_s | 1.000 [0.9500, 1.100] | 0.6000 [0.5500, 0.8000] (-40.0%) | 2/3 |",
        "| node_cycles_per_s | 100.0 [95.00, 105.0] | 180.0 [137.5, 190.0] (+80.0%) | 2/3 |",
        "- per-pair run_s, parent/change: 1.000/0.5000; 1.200/0.6000; 0.9000/1.000",
        "- FLAG sim_* metrics differ in 1/3 pairs (seeds 3)",
    ]
    for line in expected:
        assert line in text, f"missing line:\n{line}\nin report:\n{text}"
    # Metric order: wall-clock metrics first, simulated ones last.
    assert text.index("| run_s |") < text.index("| sim_delay_ns |")

    pairs[2]["change"] = result(1.0, 95.0, 49.0, correct=False)
    text = "\n".join(summarize("toy", pairs, {}))
    assert "- sim_* metrics identical in 3/3 pairs" in text, text
    assert "- FLAG seed 3 change: correct=False failed=0" in text, text
    print("ab_bench self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workloads", default="quadrants32,paper5_sweep,sparse64")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--json", help="also write every run's result object here")
    parser.add_argument("--from-json", help="report on a file --json wrote instead of running")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.from_json:
        with open(args.from_json, encoding="utf-8") as f:
            data = json.load(f)
        checkout = args.change or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        print(report(data, directions(checkout)))
        return 0
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE checkouts are required (or --self-test / --from-json)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    data, direction_of = measure(args)
    print(report(data, direction_of))
    return 0


if __name__ == "__main__":
    sys.exit(main())
