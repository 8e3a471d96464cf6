#!/usr/bin/env python3
"""Host cost as exact counts, gated: Python calls and kernel events per
delivered packet of every ``perf/`` workload against the committed
``bench_results/PERF_COUNTS.json``.

    python3 tools/check_counts.py

For each workload in the baseline this runs the checkout's own
``perf/worker.py --mode calls`` once at the baseline's seed, in a fresh
process with ``PYTHONHASHSEED=0``, and reads ``py_calls / delivered``
(calls/op) and ``engine.events_per_op`` (events/op).

The worker runs without ``PYTHONPYCACHEPREFIX`` and without
``PYTHONPATH`` (it sets its own ``sys.path``).  ``py_calls`` is a
``pstats`` total, which keeps one entry per ``(file, line, name)`` —
every dataclass ``__init__`` is ``<string>:2:__init__`` — and which of
those survives depends on where the interpreter placed their code
objects.  A bytecode-cache prefix or a ``sitecustomize`` moves them
(``tools/perf_same.py`` sets a prefix, so its calls column can differ
from this by about one call per op); without either, the count repeats
across cache states and working directories.  Both counts are then
judged exactly:

* equal to the baseline passes;
* lower passes and prints ``re-baseline`` (copy the fresh file over the
  committed one in the same change);
* higher fails, unless the last line of ``CHANGES.md`` names the
  workload — a change that costs more says so where it is described.

cProfile's counts move across interpreter versions (3.12 inlines
comprehensions), so on an interpreter other than the baseline's the
check is skipped with a message and exits 0 (CI's ``counts`` job runs
it on the baseline's interpreter, so the skip never hides it).  When
``$SWISHMEM_BENCH_DIR`` is set (``make gate`` sets it) the fresh counts
are written there as ``PERF_COUNTS.json``, in the baseline's format.

Exits 1 when any count is higher and not named, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO, "bench_results", "PERF_COUNTS.json")
CHANGES = os.path.join(REPO, "CHANGES.md")
#: The two counts judged per workload.
METRICS = ("calls_per_op", "events_per_op")


def counts_of(result: Dict[str, Any]) -> Dict[str, float]:
    """The judged counts of one ``perf/worker.py --mode calls`` result."""
    return {
        "calls_per_op": result["py_calls"] / result["delivered"],
        "events_per_op": result["layers"]["engine.events_per_op"],
    }


def run_worker(workload: str, seed: int) -> Dict[str, Any]:
    """One ``perf/worker.py --mode calls`` run of this checkout."""
    command = [sys.executable, os.path.join(REPO, "perf", "worker.py"),
               "--workload", workload, "--seed", str(seed), "--mode", "calls"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # The worker sets its own sys.path; a PYTHONPATH could bring a
    # sitecustomize (tools/dead_surface.py's recorder) that moves the count.
    for name in ("PYTHONPYCACHEPREFIX", "PYTHONPATH"):
        env.pop(name, None)
    done = subprocess.run(command, env=env, cwd=REPO, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.decode("utf-8").splitlines()[-1])


def measure(workloads: List[str], seed: int) -> Dict[str, Dict[str, float]]:
    """Fresh counts of this checkout, one worker run per workload."""
    return {w: counts_of(run_worker(w, seed)) for w in workloads}


def names(line: str, workload: str) -> bool:
    """Whether ``line`` names ``workload`` as a whole word (``nf_mix``
    is not named by ``nf_mix_obs``)."""
    return re.search(rf"(?<!\w){re.escape(workload)}(?!\w)", line) is not None


def last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def judge(baseline: Dict[str, Any], measured: Dict[str, Dict[str, float]],
          changes_line: str) -> Tuple[List[str], bool]:
    """(report lines, passed) of fresh counts against the baseline."""
    lines = [f"  {'workload':<13} {'count':<14} {'baseline':>12} {'fresh':>12}  verdict"]
    passed = True
    for workload, base in baseline["workloads"].items():
        fresh = measured[workload]
        for metric in METRICS:
            before, after = base[metric], fresh[metric]
            if after == before:
                verdict = "same"
            elif after < before:
                verdict = "lower: re-baseline"
            elif names(changes_line, workload):
                verdict = "higher: named in the last CHANGES.md line"
            else:
                verdict = "HIGHER: fails (the last CHANGES.md line does not name it)"
                passed = False
            lines.append(f"  {workload:<13} {metric:<14} {before:>12.4f} {after:>12.4f}  {verdict}")
    return lines, passed


def document(python: str, seed: int, measured: Dict[str, Dict[str, float]]) -> Dict[str, Any]:
    """A ``PERF_COUNTS.json`` document."""
    return {"python": python, "seed": seed, "workloads": measured}


def main(argv: Optional[List[str]] = None) -> int:
    if argv:
        print(f"usage: {os.path.basename(__file__)} (takes no arguments)", file=sys.stderr)
        return 2
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    python = platform.python_version()
    if python != baseline["python"]:
        print(f"check_counts: skipped: the baseline was counted on Python "
              f"{baseline['python']}, this is {python}; cProfile counts are not "
              f"comparable across interpreter versions")
        return 0
    seed = baseline["seed"]
    measured = measure(list(baseline["workloads"]), seed)
    with open(CHANGES, encoding="utf-8") as handle:
        changes_line = last_line(handle.read())
    lines, passed = judge(baseline, measured, changes_line)
    print(f"check_counts: seed {seed}, Python {python}, perf/worker.py --mode calls")
    print("\n".join(lines))
    fresh_dir = os.environ.get("SWISHMEM_BENCH_DIR")
    if fresh_dir:
        os.makedirs(fresh_dir, exist_ok=True)
        path = os.path.join(fresh_dir, "PERF_COUNTS.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document(python, seed, measured), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"fresh counts: {path}")
    print("counts ok" if passed else "counts FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
