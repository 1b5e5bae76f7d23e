#!/usr/bin/env python3
"""Repeat E20 runs and compare two sets of them against the bounds.

Run each workload N times (one untraced process per run, a different
seed each time, ``run_seconds`` from BENCHMARK.json, so both sides of a
comparison measure the same run length), save the results and print
the median and quartiles of every workload x end-to-end metric::

    python3 e2ebench/compare.py repeat --runs 10 --out base.json
    python3 e2ebench/compare.py repeat --runs 10 --out change.json \\
        --workload interactive_reads

Compare two saved sets (parent first, change second)::

    python3 e2ebench/compare.py compare base.json change.json

For each workload x end-to-end metric the comparison pairs the i-th
run of each set (runs with the same seed), counts the pairs the change
wins, loses and ties on the metric's better side, and gives a verdict:

* ``better``: the change wins at least nine tenths of all pairs and the
  medians differ by more than the parent's own quartile distance;
* ``unresolved``: either set's quartile distance (over its median)
  exceeds the metric's bound from BENCHMARK.json, so the runs cannot
  tell a change of that size from noise, unless every run of one set
  is on the same side of every run of the other;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import spread  # noqa: E402

Results = Dict[str, List[Dict[str, Any]]]  # workload -> runs


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One untraced benchmark process; its parsed last output line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def repeat(workloads: Sequence[str], runs: int, first_seed: int,
           seconds: int) -> Results:
    results: Results = {workload: [] for workload in workloads}
    for index in range(runs):
        for workload in workloads:
            result = run_once(workload, first_seed + index, seconds)
            results[workload].append(result)
            summary = ", ".join(
                f"{name}={entry['value']:.4g}"
                for name, entry in result["metrics"].items())
            print(f"[{workload} seed {result['seed']}] {summary}",
                  flush=True)
    return results


def summarize(results: Results, bounds: Dict[str, float]) -> List[str]:
    """Median, quartiles and relative spread per workload x metric."""
    lines = []
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            unit = runs[0]["metrics"][name]["unit"]
            s = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                share = s.relative_iqr / bound
                flag = (f"  bound {bound:g}: spread is "
                        f"{share:.2f} of it")
            lines.append(
                f"{workload:20s} {name:34s} median {s.median:12.4f} "
                f"{unit:6s} q1 {s.q1:12.4f} q3 {s.q3:12.4f} "
                f"spread {s.relative_iqr:7.4f} (n={s.count}){flag}")
    return lines


def pair_wins(parent: Sequence[float], change: Sequence[float],
              higher_is_better: bool) -> Tuple[int, int, int]:
    """(wins, losses, ties) of the change over pairs run i of each."""
    wins = losses = ties = 0
    for before, after in zip(parent, change):
        if after == before:
            ties += 1
        elif (after > before) == higher_is_better:
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


def verdict(parent: Sequence[float], change: Sequence[float],
            higher_is_better: bool, bound: float) -> Tuple[str, str]:
    """The comparison rule of the module docstring; returns
    (verdict, detail)."""
    before, after = spread(parent), spread(change)
    wins, losses, ties = pair_wins(parent, change, higher_is_better)
    pairs = wins + losses + ties
    sign = 1.0 if higher_is_better else -1.0
    gain = sign * (after.median - before.median)
    detail = (f"parent {before.median:.4g} [{before.q1:.4g}, "
              f"{before.q3:.4g}], change {after.median:.4g} "
              f"[{after.q1:.4g}, {after.q3:.4g}], pairs won {wins}/"
              f"{pairs} lost {losses} tied {ties}")
    if pairs and wins >= 0.9 * pairs \
            and abs(after.median - before.median) > before.q3 - before.q1:
        return "better", detail
    if max(before.relative_iqr, after.relative_iqr) > bound:
        above = all(sign * (a - b) > 0 for a in change for b in parent)
        below = all(sign * (a - b) < 0 for a in change for b in parent)
        if not (above or below):
            return "unresolved", detail
    if before.median and -gain / abs(before.median) > bound:
        return "worse", detail
    return "within bound", detail


def compare(parent: Results, change: Results,
            metrics: List[Dict[str, Any]]) -> List[str]:
    lines = []
    for workload in parent:
        if workload not in change:
            lines.append(f"{workload}: missing from the change's runs")
            continue
        by_seed = {run["seed"]: run for run in change[workload]}
        paired = [(run, by_seed[run["seed"]])
                  for run in parent[workload] if run["seed"] in by_seed]
        if not paired:
            lines.append(f"{workload}: no seed was run in both sets")
            continue
        for metric in metrics:
            name = metric["name"]
            before = [p["metrics"][name]["value"] for p, _ in paired]
            after = [c["metrics"][name]["value"] for _, c in paired]
            outcome, detail = verdict(before, after,
                                      metric["better"] == "higher",
                                      metric["bound"])
            lines.append(f"{workload:20s} {name:16s} {outcome:12s} {detail}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("repeat", help="run each workload N times")
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--first-seed", type=int, default=1)
    rep.add_argument("--workload", action="append",
                     help="repeatable; default: every workload")
    rep.add_argument("--out", required=True, help="results file (JSON)")
    cmp_ = sub.add_parser("compare", help="parent runs vs change runs")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    if args.command == "repeat":
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        results = repeat(workloads, args.runs, args.first_seed,
                         spec["run_seconds"])
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        print("\n".join(summarize(results, bounds)))
        return 0
    with open(args.parent, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.change, encoding="utf-8") as handle:
        change = json.load(handle)
    print("\n".join(compare(parent, change, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
