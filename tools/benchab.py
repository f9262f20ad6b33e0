"""A/B runs of the benchmark: one workload of ``perfbench/run.py`` from two
checkouts, in alternating pairs.

    python3 tools/benchab.py OLD_TREE NEW_TREE --workload W [--pairs N]
        [--seconds S] [--seed K] [--json PATH]

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` once in each tree, each run in its own process; the old tree
runs first in even pairs and the new tree first in odd ones, so a drift
of the host's speed does not favour one side. The runs keep every oracle
check of the benchmark on and change none of its bounds.

The check prints each run's ``correct`` and ``failed``, then for each
end-to-end metric that ``BENCHMARK.json`` declares: the old and new
median and quartiles over the runs, the change of the median, and the
pairs the new tree won (a strictly better value in the direction the
metric prefers). ``--json`` also writes all of it to PATH. It exits 1
unless every run is ``correct`` with 0 failed operations. Passing one
tree twice (``. .``) is an A/A run: a check of the runner itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(tree: Path, args) -> dict:
    """One benchmark run in tree: its final JSON line, or a failed run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        final = {"correct": False, "attempted": 0, "failed": None, "metrics": {}}
    final["correct"] = final["correct"] and proc.returncode == 0
    return final


def quartiles(xs: list) -> tuple:
    """(first quartile, median, third quartile), the quartiles as the
    medians of the lower and upper halves."""
    xs = sorted(xs)
    half = len(xs) // 2
    low, high = (xs[:half], xs[-half:]) if half else (xs, xs)
    return median(low), median(xs), median(high)


def summary(runs: list, metrics: list) -> dict:
    """Per metric: each side's quartiles, the median's change and the new
    side's wins, over the pairs where both runs report the metric."""
    got = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(o["metrics"][name]["value"], n["metrics"][name]["value"]) for o, n in runs
                 if name in o["metrics"] and name in n["metrics"]]
        if not pairs:
            continue
        old, new = quartiles([o for o, _ in pairs]), quartiles([n for _, n in pairs])
        got[name] = {
            "unit": m["unit"], "better": m["better"],
            "old": dict(zip(("q1", "median", "q3"), old)),
            "new": dict(zip(("q1", "median", "q3"), new)),
            "change": new[1] / old[1] - 1 if old[1] else None,
            "wins": sum((n > o) if higher else (n < o) for o, n in pairs),
            "pairs": len(pairs)}
    return got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--workload", required=True, choices=("grow", "rooms", "sim"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    runs = []
    for k in range(args.pairs):
        sides = ("old", args.old_tree), ("new", args.new_tree)
        got = {}
        for side, tree in sides if k % 2 == 0 else sides[::-1]:
            got[side] = run_once(tree, args)
            print("pair %d  %s  correct %s  failed %s  %s" % (
                k + 1, side, got[side]["correct"], got[side]["failed"],
                "  ".join("%s %.6g" % (name, m["value"])
                          for name, m in got[side]["metrics"].items())), flush=True)
        runs.append((got["old"], got["new"]))

    table = summary(runs, metrics)
    print("%-14s %-34s %-34s %8s %s" % ("metric", "old median [q1, q3]", "new median [q1, q3]",
                                        "change", "new wins"))
    for name, row in table.items():
        old, new = row["old"], row["new"]
        print("%-14s %-34s %-34s %+7.1f%% %d/%d" % (
            name, "%.6g [%.6g, %.6g]" % (old["median"], old["q1"], old["q3"]),
            "%.6g [%.6g, %.6g]" % (new["median"], new["q1"], new["q3"]),
            100 * (row["change"] or 0.0), row["wins"], row["pairs"]))
    ok = all(r["correct"] and r["failed"] == 0 for pair in runs for r in pair)
    print("every run correct with 0 failed: %s" % ok)
    if args.json:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "nproc": os.cpu_count(), "python": platform.python_version(),
            "metrics": table,
            "runs": [{"old": {k: o[k] for k in ("correct", "failed", "metrics")},
                      "new": {k: n[k] for k in ("correct", "failed", "metrics")}}
                     for o, n in runs],
            "all_correct": ok}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
