#!/usr/bin/env python3
"""Alternating benchmark pairs of two source checkouts.

    tools/bench_pairs.py OLD NEW --workload W [--workload W2 ...] \
        --seeds A-B --seconds S [--json PATH]

OLD and NEW are source checkouts, each with its own ``perfbench/run.py``.
For each workload in turn and each seed from A to B, the benchmark runs
once in each checkout, as
``perfbench/run.py --workload W --seed N --seconds S --trace 0``; the
checkout that runs first alternates from seed to seed, so a drift in the
machine's speed falls on both sides. Each run's result is the last line
of its standard output.

For every end-to-end metric that NEW's ``BENCHMARK.json`` lists, the
script prints OLD's and NEW's median and quartiles, the number of pairs
that NEW wins (strictly better, in the metric's direction; ties count for
neither side) and two verdicts:

- ``claim``: NEW wins at least 9 of every 10 pairs and its median is
  better than OLD's by more than OLD's interquartile spread (q3 - q1);
- ``regression``: NEW's median is worse than OLD's by more than the
  metric's ``bound``, a fraction of OLD's median.

With ``--json PATH`` it also writes those numbers and verdicts, per
workload and metric, to PATH. The exit code is 1 if any run failed or was
not ``correct``, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _run(checkout: Path, workload: str, seed: int, seconds: float):
    """The result object of one benchmark run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(args, workload: str, metrics: dict):
    """({"old": {metric: values}, "new": ...} over the pairs where both
    runs are correct, whether every run was)."""
    values = {side: {name: [] for name in metrics} for side in ("old", "new")}
    ok = True
    for i, seed in enumerate(args.seeds):
        sides = ("old", "new") if i % 2 == 0 else ("new", "old")
        results = {}
        for side in sides:
            result = _run(getattr(args, side), workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"seed {seed}: {side} run failed or is not correct",
                      file=sys.stderr)
                ok = False
            results[side] = result
        if None in results.values():
            continue
        print(f"seed {seed}: " + "  ".join(
            f"{name} {results['old']['metrics'][name]['value']:.4g} -> "
            f"{results['new']['metrics'][name]['value']:.4g}" for name in metrics),
            flush=True)
        for side, result in results.items():
            for name in metrics:
                values[side][name].append(result["metrics"][name]["value"])
    return values, ok


def _summary(values, metrics: dict) -> dict:
    """Per metric (``metrics`` maps each name to its ``BENCHMARK.json``
    entry): each side's median and quartiles, NEW's change of the median in
    percent, its wins and the claim and regression verdicts."""
    summary = {}
    for name, spec in metrics.items():
        old, new = values["old"][name], values["new"][name]
        if not old:
            continue
        sign = -1 if spec["better"] == "lower" else 1
        (o1, o2, o3), (n1, n2, n3) = _quartiles(old), _quartiles(new)
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        gain = sign * (n2 - o2)  # > 0 where NEW's median is better
        summary[name] = {
            "better": spec["better"],
            "bound": spec["bound"],
            "old": {"q1": o1, "median": o2, "q3": o3},
            "new": {"q1": n1, "median": n2, "q3": n3},
            "change_pct": 100 * (n2 / o2 - 1) if o2 else 0.0,
            "wins": wins,
            "claim": 10 * wins >= 9 * len(old) and gain > o3 - o1,
            "regression": -gain > spec["bound"] * abs(o2),
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", action="append", required=True,
                   help="repeat for several workloads, run one after another")
    p.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--json", type=Path, help="also write the summary here")
    args = p.parse_args(argv)

    spec = json.loads((args.new / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"seeds": f"{args.seeds.start}-{args.seeds.stop - 1}",
              "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload:
        values, workload_ok = _pairs(args, workload, metrics)
        ok &= workload_ok
        pairs = len(values["old"][next(iter(metrics))])
        summary = _summary(values, metrics)
        report["workloads"][workload] = {"pairs": pairs, "metrics": summary}
        if pairs:
            print(f"\n{workload}, {pairs} pairs: median [q1, q3], NEW wins")
        for name, m in summary.items():
            old, new = m["old"], m["new"]
            print(f"{name:12s} old {old['median']:.4g} [{old['q1']:.4g}, "
                  f"{old['q3']:.4g}]  new {new['median']:.4g} [{new['q1']:.4g}, "
                  f"{new['q3']:.4g}]  change {m['change_pct']:+.1f}%  "
                  f"wins {m['wins']}/{pairs}  claim "
                  f"{'holds' if m['claim'] else 'fails'}  worse past "
                  f"{100 * m['bound']:g}%: {'YES' if m['regression'] else 'no'}",
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
