"""Compare two ``perf/run.py --out`` files: parent A, change B.

    python3 perf/compare.py A.json B.json [--baseline OUT --traced T.json]

One row per end-to-end metric and workload: both medians with their
quartiles, the ratio B/A (base A), the metric's bound and a verdict:

* ``better`` / ``worse`` — B's median moved by more than the bound;
* ``within-bound`` — it did not;
* ``unresolved`` — A's own inter-quartile spread exceeds the bound, so
  the comparison cannot tell.

Sim-clock numbers repeat exactly for a fixed seed, so every changed
``sim_digest`` and every changed sim-clock ledger entry is listed by
name.  Exits 1 on any ``worse`` row or a larger failed share.

``--baseline`` also writes the two sets, their agreement and the traced
ledgers of ``--traced`` to one file (``perf/baseline/BASELINE.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    bound = a["bound"]
    base = abs(a["median"])
    if base and (a["q3"] - a["q1"]) / base > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / base if base else b["median"] - a["median"]
    if a["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within-bound"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    digests: List[str] = []
    ledger_changes: List[str] = []
    failed_more: List[str] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None or ma["bound"] is None:
                continue
            rows.append({
                "workload": name, "metric": metric, "unit": ma["unit"],
                "a": [ma["q1"], ma["median"], ma["q3"]], "a_n": ma["n"],
                "b": [mb["q1"], mb["median"], mb["q3"]], "b_n": mb["n"],
                "ratio": mb["median"] / ma["median"] if ma["median"] else None,
                "bound": ma["bound"], "better": ma["better"],
                "verdict": verdict(ma, mb),
            })
        if wa["sim_digest"] != wb["sim_digest"]:
            digests.append(name)
        for key, value in wa.get("sim_ledger", {}).items():
            other = wb.get("sim_ledger", {}).get(key)
            if other != value:
                ledger_changes.append(f"{name}: {key} {value!r} -> {other!r}")
        if wb["failed"] * wa["attempted"] > wa["failed"] * wb["attempted"]:
            failed_more.append(name)
    return {"rows": rows, "changed_digests": digests,
            "changed_sim_ledger": ledger_changes, "failed_more": failed_more}


def print_comparison(result: Dict[str, Any]) -> None:
    print(f"{'workload':<13} {'metric':<19} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B/A':>7} {'bound':>6}  verdict")
    for row in result["rows"]:
        a = f"{row['a'][1]:.6g} [{row['a'][0]:.6g}, {row['a'][2]:.6g}] n={row['a_n']}"
        b = f"{row['b'][1]:.6g} [{row['b'][0]:.6g}, {row['b'][2]:.6g}] n={row['b_n']}"
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.4f}"
        print(f"{row['workload']:<13} {row['metric']:<19} {a:<36} {b:<36} "
              f"{ratio:>7} {row['bound']:>6g}  {row['verdict']} "
              f"({row['better']} is better, base A, {row['unit']})")
    for name in result["changed_digests"]:
        print(f"sim_digest changed: {name}")
    for line in result["changed_sim_ledger"]:
        print(f"sim-clock ledger changed: {line}")
    for name in result["failed_more"]:
        print(f"more operations failed: {name}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--traced", default=None)
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    result = compare(a, b)
    print_comparison(result)
    if args.baseline:
        traced = load(args.traced)["workloads"] if args.traced else {}
        document = {
            "machine": a["meta"],
            "sets": [a["workloads"], b["workloads"]],
            "agreement": result,
            "ledgers": {
                name: {"top_layer": w["ledger"]["top_layer"], "ledger": w["ledger"],
                       "metrics": {k: m["median"] for k, m in w["metrics"].items()}}
                for name, w in traced.items()
            },
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    worse = [row for row in result["rows"] if row["verdict"] == "worse"]
    return 1 if worse or result["failed_more"] else 0


if __name__ == "__main__":
    sys.exit(main())
