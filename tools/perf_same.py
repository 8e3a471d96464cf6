#!/usr/bin/env python3
"""Do two checkouts simulate the same thing?  The pre-flight to run
before ``tools/perf_pairs.py``.

    python3 tools/perf_same.py PARENT_DIR CHANGE_DIR [--seeds 11 23] [--calls-seed 11]
                               [--workload W ...] [--moved W ...]

A change that claims to make the simulator faster must leave what it
simulates alone.  For every seed and workload this runs each checkout's
*own* ``perf/worker.py`` once, in a fresh process with
``PYTHONHASHSEED=0``, and compares the parts of the two results that a
speed-only change must leave bit-identical: ``digest`` (the
``sim_digest``), ``end_to_end`` (the sim-clock metrics), ``layers`` (the
sim ledger), ``attempted`` and ``delivered``.  Each result is also
judged by its own checkout's ``perf/run.py`` ``problems()``.  At
``--calls-seed`` both checkouts run once more under cProfile
(``--mode calls``) and Python calls per operation and
``engine.events_per_op`` are printed side by side — reported, not
judged.

``--moved W`` (repeatable) names a workload whose simulation the change
moves by design (a protocol that sends fewer packets).  Its differences
are printed as a table instead of failing; it still fails on an
incorrect run, on failed operations on either side, and on any
``end_to_end`` sim metric worse than the parent's by ``BENCHMARK.json``'s
``better``.  Every other workload must still match bit for bit.

About four minutes for all six workloads at two seeds, against about
twenty-five for ten ``perf_pairs`` pairs of one workload.  Exits 1 on
any difference or incorrect run, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The parts of a worker result a speed-only change must leave identical.
SAME_PARTS = ("digest", "end_to_end", "layers", "attempted", "delivered")


def changed_leaves(parent: Dict[str, Any], change: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """Every leaf of :data:`SAME_PARTS` on which two worker results
    differ, as ``(part.leaf, parent value, change value)``."""
    found = []
    for part in SAME_PARTS:
        p, c = parent[part], change[part]
        if isinstance(p, dict) and isinstance(c, dict):
            for leaf in sorted(set(p) | set(c)):
                if p.get(leaf) != c.get(leaf):
                    found.append((f"{part}.{leaf}", p.get(leaf), c.get(leaf)))
        elif p != c:
            found.append((part, p, c))
    return found


def differences(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """:func:`changed_leaves` as ``part.leaf: parent -> change`` lines
    (empty when identical)."""
    return [f"{leaf}: {p!r} -> {c!r}" for leaf, p, c in changed_leaves(parent, change)]


def moved_problems(parent: Dict[str, Any], change: Dict[str, Any],
                   better: Dict[str, str]) -> List[str]:
    """What still fails a workload moved by design: failed operations on
    either side, and every ``end_to_end`` metric that is worse on the
    change than on the parent by ``better`` (metric -> ``"higher"`` or
    ``"lower"``, ``BENCHMARK.json``'s ``end_to_end`` list)."""
    found = [f"{side} failed {r['attempted'] - r['delivered']} operation(s)"
             for side, r in (("parent", parent), ("change", change))
             if r["attempted"] != r["delivered"]]
    for name, p in sorted(parent["end_to_end"].items()):
        c = change["end_to_end"].get(name)
        direction = better.get(name)
        if c is None or direction is None:
            continue
        if (c < p) if direction == "higher" else (c > p):
            found.append(f"end_to_end.{name} worse: {p!r} -> {c!r} ({direction} is better)")
    return found


def moved_table(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """The changed leaves of a workload moved by design, one table row
    each (a digest shortened to 12 hex digits)."""
    def cell(value: Any) -> str:
        return value[:12] if isinstance(value, str) and len(value) == 64 else repr(value)

    rows = [f"    {'moved by design':<36} {'parent':>22} {'change':>22}"]
    rows += [f"    {leaf:<36} {cell(p):>22} {cell(c):>22}"
             for leaf, p, c in changed_leaves(parent, change)]
    return rows


def load_better(checkout: str) -> Dict[str, str]:
    """``BENCHMARK.json``'s ``end_to_end`` metrics: name -> ``better``."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}


def calls_row(parent: Dict[str, Any], change: Dict[str, Any]) -> Dict[str, float]:
    """Python calls per operation and events per operation of two
    ``--mode calls`` results."""
    row = {}
    for side, result in (("parent", parent), ("change", change)):
        row[f"{side}_calls_per_op"] = result["py_calls"] / result["delivered"]
        row[f"{side}_events_per_op"] = result["layers"]["engine.events_per_op"]
    row["calls_ratio"] = row["change_calls_per_op"] / row["parent_calls_per_op"]
    return row


def run_worker(checkout: str, workload: str, seed: int, mode: str) -> Dict[str, Any]:
    """One ``perf/worker.py`` run of ``checkout``, as ``perf/run.py`` starts it."""
    command = [sys.executable, os.path.join(checkout, "perf", "worker.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(checkout, "perf", "out", "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(command, env=env, cwd=checkout, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.decode("utf-8").splitlines()[-1])


def load_problems(checkout: str, tag: str) -> Callable[[Dict[str, Any]], List[str]]:
    """``problems()`` of the checkout's own ``perf/run.py``."""
    spec = importlib.util.spec_from_file_location(
        f"perf_run_{tag}", os.path.join(checkout, "perf", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", help="a checkout of the parent commit")
    parser.add_argument("change_dir", help="a checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 23])
    parser.add_argument("--calls-seed", type=int, default=11)
    parser.add_argument("--workload", action="append",
                        help="one workload (repeatable); default: all of BENCHMARK.json")
    parser.add_argument("--moved", action="append", default=[], metavar="W",
                        help="a workload the change moves by design (repeatable): its "
                             "differences are tabled, not failed")
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    workloads = args.workload
    if not workloads:
        with open(os.path.join(sides["parent"], "BENCHMARK.json"), encoding="utf-8") as handle:
            workloads = [w["name"] for w in json.load(handle)["workloads"]]
    unknown = sorted(set(args.moved) - set(workloads))
    if unknown:
        parser.error(f"--moved names a workload not run: {', '.join(unknown)}")
    problems = {side: load_problems(path, side) for side, path in sides.items()}
    better = load_better(sides["parent"])

    bad = 0
    for seed in args.seeds:
        for workload in workloads:
            results = {side: run_worker(path, workload, seed, "plain")
                       for side, path in sides.items()}
            moved = workload in args.moved
            if moved:
                found = moved_problems(results["parent"], results["change"], better)
            else:
                found = differences(results["parent"], results["change"])
            for side, result in results.items():
                found += [f"{side} incorrect: {p}" for p in problems[side](result)]
            failed = {side: r["attempted"] - r["delivered"] for side, r in results.items()}
            verdict = f"{len(found)} problem(s)" if found else "moved" if moved else "same"
            print(f"seed {seed:>3}  {workload:<13} digest {results['change']['digest'][:12]}  "
                  f"failed {failed['parent']}/{failed['change']}  {verdict}", flush=True)
            if moved:
                print("\n".join(moved_table(results["parent"], results["change"])))
            for line in found:
                print(f"    {line}")
            bad += len(found)

    print(f"\nseed {args.calls_seed}, --mode calls (reported, not judged)")
    print(f"  {'workload':<13} {'calls/op parent':>16} {'change':>10} {'ratio':>7}"
          f"  {'events/op parent':>17} {'change':>10}")
    for workload in workloads:
        row = calls_row(*(run_worker(path, workload, args.calls_seed, "calls")
                          for path in sides.values()))
        print(f"  {workload:<13} {row['parent_calls_per_op']:>16.2f} "
              f"{row['change_calls_per_op']:>10.2f} {row['calls_ratio']:>7.4f}"
              f"  {row['parent_events_per_op']:>17.4f} {row['change_events_per_op']:>10.4f}",
              flush=True)

    but = f" but for {', '.join(args.moved)} (moved, none worse)" if args.moved else ""
    print(f"\nidentical outputs{but}, every run correct" if not bad else f"\n{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
