#!/usr/bin/env python3
"""Alternating pairs of ``perf/run.py`` on two checkouts: the rule a
claimed gain is judged by.

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs 10] [--seed 11]
                                [--relative-to W2]

Each pair runs both checkouts' *own* ``perf/run.py --workload W --seed
S`` one after the other — odd pairs the parent first, even pairs the
change — so a drift of the host over the session falls on both sides
alike.  A run's value for a metric is the median ``perf/run.py`` itself
reports (of its 5 to 7 fresh-process repeats).

For every end-to-end metric of the parent's ``BENCHMARK.json`` it
prints the per-pair values and winners, both sides' median and
quartiles over the pairs, and the verdict of choosing-metrics section 8:
a gain is the change winning at least nine tenths of all pairs run
(ties counting for neither side) with the medians apart by more than
the distance between the parent's own quartiles.

``--relative-to W2`` runs ``W2`` right after ``W`` on each side of each
pair and judges one more row the same way: ``ops_per_host_s(W) /
ops_per_host_s(W2)`` per checkout — what ``W`` costs over ``W2``, host
drift divided out (``nf_mix_obs`` over ``nf_mix`` is the observability
tax; ``make perf-tax``).

Exits 1 when any run is incorrect or the change fails more operations
than the parent, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``perf/run.py`` computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent: List[float], change: List[float], better: str) -> Dict[str, Any]:
    """Judge one metric over paired runs (``parent[i]`` and ``change[i]``
    are pair ``i``).  ``better`` is ``"higher"`` or ``"lower"``.

    ``verdict`` is ``gain`` (or ``loss``) when the change wins (loses)
    at least 9/10 of all pairs and the medians differ by more than the
    parent's inter-quartile distance, ``equal`` when every pair ties,
    else ``unresolved``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    winners = [
        "tie" if c == p else "change" if sign * (c - p) > 0 else "parent"
        for p, c in zip(parent, change)
    ]
    wins, losses = winners.count("change"), winners.count("parent")
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gap = sign * (c_median - p_median)  # positive: the change is better
    needed = 0.9 * len(parent)
    if wins >= needed and gap > iqr:
        word = "gain"
    elif losses >= needed and -gap > iqr:
        word = "loss"
    elif wins == losses == 0:
        word = "equal"
    else:
        word = "unresolved"
    return {
        "verdict": word,
        "winners": winners,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "parent": {"q1": p_q1, "median": p_median, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_median, "q3": c_q3},
        "parent_iqr": iqr,
        "gap": gap,
        "ratio": c_median / p_median if p_median else None,
    }


def run_once(checkout: str, workload: str, seed: int, out: str) -> Dict[str, Any]:
    """One ``perf/run.py`` of ``checkout``; its report for ``workload``."""
    command = [sys.executable, os.path.join(checkout, "perf", "run.py"),
               "--workload", workload, "--seed", str(seed), "--out", out]
    subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL, check=True)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def medians(reports: List[Dict[str, Any]], name: str) -> List[float]:
    """Metric ``name`` of each run: the median ``perf/run.py`` reported."""
    return [report["metrics"][name]["median"] for report in reports]


def relative(reports: List[Dict[str, Any]], base: List[Dict[str, Any]]) -> List[float]:
    """Per pair, a workload's ``ops_per_host_s`` over the base workload's."""
    return [w / b for w, b in zip(medians(reports, "ops_per_host_s"),
                                  medians(base, "ops_per_host_s"))]


def print_metric(metric: Dict[str, Any], result: Dict[str, Any],
                 parent: List[float], change: List[float]) -> None:
    print(f"\n{metric['name']} ({metric['unit']}, {metric['better']} is better)")
    print(f"  {'pair':>4} {'parent':>14} {'change':>14}  winner")
    for index, (p, c, winner) in enumerate(zip(parent, change, result["winners"]), 1):
        print(f"  {index:>4} {p:>14.6g} {c:>14.6g}  {winner}")
    for side in ("parent", "change"):
        q = result[side]
        print(f"  {side} median {q['median']:.6g} [q1 {q['q1']:.6g}, q3 {q['q3']:.6g}]")
    ratio = "" if result["ratio"] is None else f"; ratio {result['ratio']:.4f} (base: parent)"
    print(f"  change wins {result['wins']} and loses {result['losses']} of "
          f"{result['pairs']} pairs; median gap toward better {result['gap']:.6g} against "
          f"the parent's IQR {result['parent_iqr']:.6g}{ratio}")
    print(f"  verdict: {result['verdict']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", help="a checkout of the parent commit")
    parser.add_argument("change_dir", help="a checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--relative-to", metavar="W2", help="also run W2 and judge "
                        "ops_per_host_s(workload) / ops_per_host_s(W2) per checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(sides["parent"], "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    base: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as scratch:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                out = os.path.join(scratch, f"{side}_{pair}.json")
                runs[side].append(run_once(sides[side], args.workload, args.seed, out))
                if args.relative_to:
                    base[side].append(run_once(sides[side], args.relative_to, args.seed, out))
            print(f"pair {pair}: {order[0]} ran first", flush=True)

    bad = 0
    for side in sides:
        for workload, reports in ((args.workload, runs[side]), (args.relative_to, base[side])):
            for pair, report in enumerate(reports, 1):
                for problem in report["problems"]:
                    print(f"INCORRECT ({side}, {workload}, pair {pair}): {problem}")
                    bad += 1
    failed = {side: sum(r["failed"] for r in reports) for side, reports in runs.items()}
    attempted = {side: sum(r["attempted"] for r in reports) for side, reports in runs.items()}
    digests = {side: sorted({r["sim_digest"] for r in reports}) for side, reports in runs.items()}
    print(f"\nworkload {args.workload}  seed {args.seed}  pairs {args.pairs}")
    for side in ("parent", "change"):
        print(f"  {side}: {sides[side]}  failed operations {failed[side]} of "
              f"{attempted[side]}  sim_digest {', '.join(d[:12] for d in digests[side])}")
    print("  sim_digest", "identical" if digests["parent"] == digests["change"] else "changed")
    if args.pairs < 10:
        print("  fewer than ten pairs: the verdicts below cannot carry a claim")

    rows = [(metric, medians(runs["parent"], metric["name"]), medians(runs["change"], metric["name"]))
            for metric in metrics]
    if args.relative_to:
        rows.append(({"name": f"ops_per_host_s / {args.relative_to}", "unit": "ratio",
                      "better": "higher"},
                     relative(runs["parent"], base["parent"]),
                     relative(runs["change"], base["change"])))
    summary = []
    for metric, parent, change in rows:
        result = verdict(parent, change, metric["better"])
        print_metric(metric, result, parent, change)
        summary.append((metric["name"], result))
    print("\nsummary")
    width = max(len(name) for name, _ in summary)
    for name, result in summary:
        print(f"  {name:<{width}} {result['verdict']:<10} wins {result['wins']}/{result['pairs']}  "
              f"parent {result['parent']['median']:.6g}  change {result['change']['median']:.6g}")
    more_failed = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    if more_failed:
        print("the change fails a larger share of operations: no gain counts")
    return 1 if bad or more_failed else 0


if __name__ == "__main__":
    sys.exit(main())
