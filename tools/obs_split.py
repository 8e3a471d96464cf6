#!/usr/bin/env python3
"""The observability tax split by sink: the ``nf_mix_obs`` world run with
no sink, each of the four sinks alone, and all four.

    python3 tools/obs_split.py [--seed 11]
    make obs-split

Every run is a fresh process of this checkout that builds the world with
``perf/worker.py``'s own ``build`` — the ``nf_mix_obs`` load, NFs and
sinks — keeps only the chosen sinks attached, and runs the worker's timed
phase (``run_timed``).  Each configuration runs twice: once plain, for
``peak_rss_mb`` (the process's ``ru_maxrss``, as ``perf/`` reports it),
and once under cProfile with ``PYTHONHASHSEED=0``, for the exact Python
calls per delivered packet.  The table shows both, each sink's addition
over the no-sink run, and, for the runs with a flight recorder, the
bytes each recorded span adds (RSS over the no-sink run ÷ spans
recorded).  Nothing under ``perf/`` is changed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from typing import Any, Dict, List, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "nf_mix_obs"
#: The sinks ``perf/worker.py`` attaches to ``nf_mix_obs``, by the
#: ``build_nf_world`` keyword that carries each.
SINKS = ("metrics", "flight_recorder", "access_profiler", "slo_monitor")
#: (row label, sinks kept attached).
CONFIGS = (
    ("none", ()),
    ("MetricsRegistry", ("metrics",)),
    ("FlightRecorder", ("flight_recorder",)),
    ("AccessProfiler", ("access_profiler",)),
    ("SLOMonitor", ("slo_monitor",)),
    ("all four", SINKS),
)


def run_one(sinks: List[str], seed: int, calls: bool) -> Dict[str, Any]:
    """One run in this process: the world with only ``sinks`` attached."""
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "perf")]
    import repro.testing
    import worker

    build_nf_world = repro.testing.build_nf_world

    def keep_chosen(**kwargs: Any) -> Any:
        for name in SINKS:
            if name not in sinks:
                kwargs[name] = None
        return build_nf_world(**kwargs)

    repro.testing.build_nf_world = keep_chosen
    scenario = worker.build(worker.WORKLOADS[WORKLOAD], seed, 1.0)
    profile = None
    if calls:
        import cProfile

        profile = cProfile.Profile()
    gc.collect()
    worker.run_timed(scenario.world.sim, scenario.t_end, None, profile)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    delivered = worker.read_counters(scenario)[2]["delivered"]
    result = {"delivered": delivered, "peak_rss_mb": peak_rss_mb,
              "spans": scenario.sinks["flight_recorder"].recorded}
    if profile is not None:
        import pstats

        result["calls_per_op"] = pstats.Stats(profile).total_calls / delivered
    return result


def spawn(sinks: tuple, seed: int, calls: bool) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__), "--seed", str(seed),
               "--one", ",".join(sinks) or "-"]
    if calls:
        command.append("--calls")
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in ("PYTHONPYCACHEPREFIX", "PYTHONPATH"):
        env.pop(name, None)
    done = subprocess.run(command, env=env, cwd=REPO, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.decode("utf-8").splitlines()[-1])


def table(seed: int) -> str:
    rows = []
    for label, sinks in CONFIGS:
        plain = spawn(sinks, seed, calls=False)
        counted = spawn(sinks, seed, calls=True)
        rows.append((label, sinks, plain["peak_rss_mb"], counted["calls_per_op"], plain["spans"]))
        print(f"  ran {label}", file=sys.stderr)
    _, _, base_rss, base_calls, _ = rows[0]
    lines = [
        f"{WORKLOAD}, seed {seed}, scale 1.0: each sink alone, then all four",
        "",
        "| sink | calls/op | added | peak_rss_mb | added MB | spans | B/span |",
        "|---|---|---|---|---|---|---|",
    ]
    for label, sinks, rss, calls, spans in rows:
        added = "" if not sinks else f"{calls - base_calls:+.1f}"
        added_mb = "" if not sinks else f"{rss - base_rss:+.1f}"
        recorded = "flight_recorder" in sinks
        per_span = f"{(rss - base_rss) * 1024 * 1024 / spans:.0f}" if recorded and spans else ""
        lines.append(
            f"| {label} | {calls:.2f} | {added} | {rss:.1f} | {added_mb} "
            f"| {spans if recorded else ''} | {per_span} |"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--one", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--calls", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:
        sinks = [] if args.one == "-" else args.one.split(",")
        print(json.dumps(run_one(sinks, args.seed, args.calls)))
        return 0
    print(table(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
