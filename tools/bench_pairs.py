#!/usr/bin/env python3
"""Alternating paired benchmark runs of two checkouts, and what they show.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]

PARENT and CHANGE are checkouts of this repository.  Pair ``i`` runs each
checkout's ``perfbench/run.py --workload W --seed i --seconds S --trace 0``
once, with S the ``run_seconds`` of the ``BENCHMARK.json`` beside this
tool, the parent first on even pairs and the change first on odd ones.
Every run is printed, then, for each end-to-end metric of that file: both
medians, the parent's interquartile range, the pairs the change wins and
loses (by the metric's ``better``; a tie counts for neither), whether a
claimed gain would hold (at least ten pairs, 9 in 10 of them won, and a
median gap wider than the parent's IQR) and a verdict on the metric's
bound: ``within`` when the change's median is worse than the parent's by
at most ``bound`` times the parent's, ``OUTSIDE`` when it is worse by more,
and ``unresolved`` in place of ``within`` when the parent's IQR is wider
than that bound, unless every run of the change beats every run of the
parent: so wide a spread cannot tell a loss the size of the bound from
noise.

Exit codes: 0 every run was ``correct``; 1 a run was not, or printed no
result; 2 a bad argument, such as fewer than 2 pairs, before any run.  Nothing is written beyond the ignored ``perfbench/_build`` and
``perfbench/_work`` files of each checkout's own runs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The JSON result of one benchmark run of ``checkout``, or None when
    the run printed none."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def summarize(parent: list, change: list, metrics: list) -> list:
    """One row per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end``
    entries) from the paired values: ``parent[i]`` and ``change[i]`` map
    each metric's name to its value in pair ``i``.  The quartiles are the
    inclusive ones of ``statistics.quantiles``."""
    rows = []
    for spec in metrics:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        old_median, new_median = statistics.median(old), statistics.median(new)
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0.0 for a, b in zip(old, new))
        bound = spec["bound"] * abs(old_median)
        within = sign * (new_median - old_median) >= -bound
        beats_all = min(sign * b for b in new) > max(sign * a for a in old)
        rows.append({
            "metric": name,
            "parent_median": old_median,
            "change_median": new_median,
            "parent_iqr": (q1, q3),
            "wins": wins,
            "losses": losses,
            "pairs": len(old),
            "claim_holds": len(old) >= 10 and wins >= math.ceil(0.9 * len(old))
            and sign * (new_median - old_median) > q3 - q1,
            "verdict": "OUTSIDE" if not within
            else "unresolved" if q3 - q1 > bound and not beats_all else "within",
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        # the quartiles of the summary need two runs of each side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]
    results = {"parent": [], "change": []}
    correct = True
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(getattr(args, side).resolve(), args.workload, i, seconds)
            print(f"pair {i} {side}: {json.dumps(result)}", flush=True)
            if result is None or not result["correct"]:
                correct = False
            else:
                results[side].append({k: v["value"] for k, v in result["metrics"].items()})
    if not correct:
        print("a run was not correct: no summary")
        return 1
    print(f"{args.workload}, {args.pairs} pairs of {seconds:g} s runs")
    for row in summarize(results["parent"], results["change"], metrics):
        q1, q3 = row["parent_iqr"]
        print(
            f"{row['metric']}: parent {row['parent_median']:.6g} (IQR {q1:.6g}-{q3:.6g}), "
            f"change {row['change_median']:.6g}; change won {row['wins']}, lost {row['losses']} "
            f"of {row['pairs']}; claim {'holds' if row['claim_holds'] else 'does not hold'}; "
            f"bound: {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
