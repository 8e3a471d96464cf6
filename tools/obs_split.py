#!/usr/bin/env python3
"""The observability tax split by sink: the ``nf_mix_obs`` world run with
no sink, each of the four sinks alone, and all four.

    python3 tools/obs_split.py [--seed 11]
    make obs-split

Every run is a fresh process of this checkout that builds the world with
``perf/worker.py``'s own ``build`` — the ``nf_mix_obs`` load, NFs and
sinks — keeps only the chosen sinks attached, and runs the worker's timed
phase (``run_timed``).  Each configuration runs four times: three times
plain, for the timed phase's calibrated CPU-seconds (``run_timed``'s,
the seconds ``perf/`` turns into ``ops_per_host_s``) and ``peak_rss_mb``
(the process's ``ru_maxrss``, as ``perf/`` reports it), the median of
the three of each; and once under cProfile with ``PYTHONHASHSEED=0``,
for the exact Python calls per delivered packet.  The table shows all
three, each sink's addition over the no-sink run, its share of the
watched run's seconds (all four sinks), and, for the runs with a flight
recorder, the bytes each recorded span adds (RSS over the no-sink run ÷
spans recorded) and one sha256 over the spans it recorded
(:func:`span_digest`, taken after the counted run), so two checkouts'
tables show at a glance whether they record the same spans.  Nothing
under ``perf/`` is changed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Optional

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
#: Plain runs per configuration; the table shows their medians.
TIMED_RUNS = 3


def span_digest(spans: Iterable[Any]) -> str:
    """sha256 over the materialized spans, one line per span: trace, span
    and parent ids, Lamport value, name, node, time (``float.hex``),
    group, key and attrs."""
    digest = hashlib.sha256()
    for s in spans:
        line = (s.trace_id, s.span_id, s.parent_id, s.lamport, s.name, s.node,
                s.time.hex(), s.group, repr(s.key), repr(s.attrs))
        digest.update(repr(line).encode("utf-8") + b"\n")
    return digest.hexdigest()


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
    _, _, run_s = worker.run_timed(scenario.world.sim, scenario.t_end, None, profile)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    delivered = worker.read_counters(scenario)[2]["delivered"]
    result = {"delivered": delivered, "peak_rss_mb": peak_rss_mb, "run_s": run_s,
              "spans": scenario.sinks["flight_recorder"].recorded}
    if profile is not None:
        import pstats

        result["calls_per_op"] = pstats.Stats(profile).total_calls / delivered
        if "flight_recorder" in sinks:
            result["span_digest"] = span_digest(scenario.sinks["flight_recorder"].spans)
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


def measure(seed: int) -> List[Dict[str, Any]]:
    """One row per configuration: its runs' medians and exact calls/op."""
    rows = []
    for label, sinks in CONFIGS:
        plain = [spawn(sinks, seed, calls=False) for _ in range(TIMED_RUNS)]
        counted = spawn(sinks, seed, calls=True)
        rows.append({
            "label": label,
            "sinks": sinks,
            "calls_per_op": counted["calls_per_op"],
            "run_s": statistics.median(run["run_s"] for run in plain),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in plain),
            "spans": plain[0]["spans"],
            "span_digest": counted.get("span_digest"),
        })
        print(f"  ran {label}", file=sys.stderr)
    return rows


def render(seed: int, rows: List[Dict[str, Any]]) -> str:
    """The markdown table of ``measure``'s rows: the first is the no-sink
    run each addition is taken over, the last the run with all four, whose
    seconds each sink's share is of."""
    base, watched = rows[0], rows[-1]
    lines = [
        f"{WORKLOAD}, seed {seed}, scale 1.0: each sink alone, then all four; "
        f"run_s and peak_rss_mb are medians of {TIMED_RUNS} processes",
        "",
        "| sink | calls/op | added | run_s | added s | share of all four "
        "| peak_rss_mb | added MB | spans | B/span | span sha256 |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        sinks, calls, run_s, rss, spans = (
            row["sinks"], row["calls_per_op"], row["run_s"], row["peak_rss_mb"], row["spans"]
        )
        added = added_s = share = added_mb = ""
        if sinks:
            added = f"{calls - base['calls_per_op']:+.1f}"
            added_s = f"{run_s - base['run_s']:+.3f}"
            share = f"{(run_s - base['run_s']) / watched['run_s']:.0%}"
            added_mb = f"{rss - base['peak_rss_mb']:+.1f}"
        recorded = "flight_recorder" in sinks
        per_span = ""
        if recorded and spans:
            per_span = f"{(rss - base['peak_rss_mb']) * 1024 * 1024 / spans:.0f}"
        lines.append(
            f"| {row['label']} | {calls:.2f} | {added} | {run_s:.3f} | {added_s} | {share} "
            f"| {rss:.1f} | {added_mb} | {spans if recorded else ''} | {per_span} "
            f"| {row.get('span_digest') or ''} |"
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
    print(render(args.seed, measure(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
