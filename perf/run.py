"""The layered two-clock benchmark: entry point.

    python3 perf/run.py --workload nf_mix --seed 11 --seconds 7 --trace 0
    python3 perf/run.py --workload all --out perf/out/set1.json
    python3 perf/run.py --workload all --trace 1 --out perf/out/traced.json
    python3 perf/run.py --selftest

Two clocks.  *Host*: CPU-seconds of one single-threaded process — how
fast the reproduction simulates.  *Sim*: the protocol latencies and
byte counts the paper argues about, which for a fixed ``--seed`` repeat
exactly.  One operation is one packet delivered to its destination
host; every workload is a fixed amount of simulated work.

Every repeat runs ``perf/worker.py`` in a fresh subprocess with
``PYTHONHASHSEED=0``.  ``--trace 0`` repeats the untraced run until
``--seconds`` of timed phase have been measured (5 to 7 repeats) and
reports the median of each host metric; the sim metrics and the digest
must be identical in every repeat.  ``--trace 1`` makes one untraced
run, one with boundary spans and one under cProfile, and reports the
per-layer ledger.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The metric names, units, directions and bounds are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

PERF = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(PERF)
WORKER = os.path.join(PERF, "worker.py")

MIN_REPEATS, MAX_REPEATS = 5, 7
CHILD_TIMEOUT_S = 150
HOST_METRICS = ("setup_s", "ops_per_host_s", "peak_rss_mb")
#: Workloads whose register groups are all of the other kind.
NO_SRO = ("fwd_bare", "ewo_sketch")
NO_EWO = ("fwd_bare", "sro_chain")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def layers_of(contract: Dict[str, Any]) -> List[str]:
    """The traced layers: whatever has a declared ``.self_share``."""
    suffix = ".self_share"
    return [m["name"][: -len(suffix)] for m in contract["per_layer"]
            if m["name"].endswith(suffix)]


def run_child(workload: str, seed: int, scale: float, mode: str,
              ledger: Optional[str] = None) -> Dict[str, Any]:
    command = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--mode", mode]
    if ledger:
        command += ["--ledger", ledger]
    # Bytecode is cached under perf/out whatever the caller's settings,
    # so that set-up is an import of compiled modules, as a user's second
    # run is, in every checkout; one repeat pays for filling the cache.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(PERF, "out", "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(command, env=env, cwd=REPO, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker {workload}/{mode} exited with {done.returncode}")
    return json.loads(done.stdout.decode("utf-8").splitlines()[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); the value itself when there is only one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


# ----------------------------------------------------------------------
# Correctness of one run's outputs
# ----------------------------------------------------------------------
def problems(result: Dict[str, Any]) -> List[str]:
    """What is wrong with one worker result; empty when it is correct."""
    name = result["workload"]
    layers = result["layers"]
    detail = result["detail"]
    found = []
    if result["delivered"] != result["attempted"]:
        found.append(f"{result['attempted'] - result['delivered']} packets not delivered")
    if not detail["marker"]["quiet_before"]:
        found.append("EWO replicas differ after the drain")
    if not detail["marker"]["settled"]:
        found.append("marker packet never settled")
    if layers["chaos.invariant_violations"]:
        found.append(f"invariant violations: {detail['violations']}")
    if layers["sro.writes_failed"]:
        found.append("SRO writes failed")
    if name in NO_SRO and (layers["sro.writes_committed"] or layers["sro.msgs_per_commit"]):
        found.append("SRO counters moved on a workload without strong registers")
    if name in NO_EWO and (layers["ewo.local_writes"] or layers["ewo.sync_entries_per_op"]):
        found.append("EWO counters moved on a workload without EWO registers")
    if name not in NO_SRO and not layers["sro.writes_committed"]:
        found.append("no SRO write committed")
    if name not in NO_EWO and not layers["ewo.local_writes"]:
        found.append("no EWO write")
    if name == "nf_mix_chaos":
        if not detail["invariant_checks"]:
            found.append("invariant suite never ran")
        if layers["controller.unavail_max_ms"] <= 0:
            found.append("no unavailability window across the crash")
        if layers["controller.failures_detected"] < 1 or layers["controller.recoveries"] < 1:
            found.append("crash or recovery not seen by the controller")
        if layers["controller.leader_changes"] < 2:
            found.append("leader kill did not change the leader")
    if name == "nf_mix_obs" and not all(detail.get("sinks", {}).values()):
        found.append(f"an observability sink saw nothing: {detail.get('sinks')}")
    return found


def same_simulation(results: List[Dict[str, Any]]) -> List[str]:
    first = results[0]
    found = []
    for other in results[1:]:
        for part in ("digest", "end_to_end", "layers", "attempted", "delivered"):
            if other[part] != first[part]:
                found.append(f"{part} differs between {first['mode']} and "
                             f"{other['mode']} runs of the same seed")
    return found


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def report_head(untraced: Dict[str, Any], trace: int, repeats: int) -> Dict[str, Any]:
    return {
        "workload": untraced["workload"],
        "seed": untraced["seed"],
        "trace": trace,
        "repeats": repeats,
        "attempted": untraced["attempted"],
        "failed": untraced["attempted"] - untraced["delivered"],
        "sim_digest": untraced["digest"],
        "sim_seconds": untraced["sim_seconds"],
    }


def measure_untraced(workload: str, seed: int, seconds: float, scale: float,
                     repeats: Optional[int]) -> Dict[str, Any]:
    least, most = (repeats, repeats) if repeats else (MIN_REPEATS, MAX_REPEATS)
    runs: List[Dict[str, Any]] = []
    measured = 0.0
    while len(runs) < most and not (len(runs) >= least and measured >= seconds):
        runs.append(run_child(workload, seed, scale, "plain"))
        measured += runs[-1]["host"]["raw_run_host_s"]
    first = runs[0]
    values = {name: [run["host"][name] for run in runs] for name in HOST_METRICS}
    # set-up is a tenth of a second, so it needs more samples than the
    # repeats give: set up again, without running, until there are `most`
    for _ in range(most - len(runs)):
        values["setup_s"].append(run_child(workload, seed, scale, "setup")["host"]["setup_s"])
    values.update({name: [value] for name, value in first["end_to_end"].items()})
    return {
        **report_head(first, trace=0, repeats=len(runs)),
        "problems": problems(first) + same_simulation(runs),
        "values": values,
        "sim_ledger": first["layers"],
        "detail": first["detail"],
        "uncalibrated": {
            name: statistics.median(run["host"][name] for run in runs)
            for name in ("raw_setup_s", "raw_run_host_s")
        },
    }


def measure_traced(workload: str, seed: int, scale: float,
                   layers: List[str]) -> Dict[str, Any]:
    ledger_path = os.path.join(PERF, "out", f"trace_{workload}.json")
    plain = run_child(workload, seed, scale, "plain")
    spans = run_child(workload, seed, scale, "spans", ledger=ledger_path)
    calls = run_child(workload, seed, scale, "calls")
    wrong = problems(plain) + same_simulation([plain, spans, calls])
    ledger = spans["trace"]
    share_sum = sum(layer["self_share"] for layer in ledger["layers"].values())
    if abs(share_sum - 1.0) > 1e-9:
        wrong.append(f"layer shares sum to {share_sum!r}")
    if workload != "nf_mix_obs" and ledger["layers"]["obs"]["calls"]:
        wrong.append("observability sinks were called with every sink off")
    if workload == "nf_mix_obs" and not ledger["layers"]["obs"]["calls"]:
        wrong.append("observability sinks were never called")
    values: Dict[str, float] = dict(plain["layers"])
    for layer in layers:
        values[f"{layer}.self_share"] = ledger["layers"][layer]["self_share"]
        values[f"{layer}.calls"] = ledger["layers"][layer]["calls"]
    values["trace.overhead_ratio"] = spans["host"]["run_host_s"] / plain["host"]["run_host_s"]
    values["trace.py_calls_per_op"] = calls["py_calls"] / plain["delivered"]
    values["trace.digest_match"] = float(
        plain["digest"] == spans["digest"] == calls["digest"]
    )
    values["trace.unresolved"] = len(ledger["unresolved"])
    return {
        **report_head(plain, trace=1, repeats=1),
        "problems": wrong,
        "values": {name: [value] for name, value in values.items()},
        "ledger": ledger,
        "ledger_file": os.path.relpath(ledger_path, REPO),
    }


def summarise(report: Dict[str, Any], declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Attach median, quartiles, sample count and unit to every declared
    metric; the emitted names must be exactly the declared ones."""
    values = report.pop("values")
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise SystemExit(f"perf: BENCHMARK.json and the run disagree on the metrics: "
                         f"missing {missing}, undeclared {extra}")
    report["metrics"] = {}
    for metric in declared:
        samples = values[metric["name"]]
        q1, median, q3 = quartiles(samples)
        report["metrics"][metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "n": len(samples),
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric.get("bound"), "samples": samples,
        }
    return report


def clock_of(name: str) -> str:
    if name in HOST_METRICS or name.endswith(".self_share") or name.startswith("trace."):
        return "host"
    return "sim"


def print_report(report: Dict[str, Any]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"repeats {report['repeats']}  ops {report['attempted']}  "
          f"failed {report['failed']}  sim {report['sim_seconds'] * 1e3:.2f} ms  "
          f"sim_digest {report['sim_digest']}")
    print(f"  {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'n':>2}  "
          f"{'unit':<6} {'clock':<5} {'better':<6} bound")
    for name, m in report["metrics"].items():
        bound = "" if m["bound"] is None else f"{m['bound']:g}"
        print(f"  {name:<30} {m['median']:>14.6g} {m['q1']:>14.6g} {m['q3']:>14.6g} "
              f"{m['n']:>2}  {m['unit']:<6} {clock_of(name):<5} {m['better']:<6} {bound}")
    raw = report.get("uncalibrated")
    if raw:
        print(f"  host times are calibrated seconds; as measured, the median set-up took "
              f"{raw['raw_setup_s']:.4f} s and the median timed phase "
              f"{raw['raw_run_host_s']:.4f} s")
    detail = report.get("detail")
    if detail:
        print(f"  percentiles: pkt_latency p50 and p{detail['pkt_latency_tail_share'] * 100:.4g} "
              f"of {detail['pkt_latency_samples']} samples; sro.commit p50 and "
              f"p{detail['sro_commit_tail_share'] * 100:.4g} of "
              f"{detail['sro_commit_samples']} samples")
    if "ledger" in report:
        print(f"  top layer by self time: {report['ledger']['top_layer']}; spans "
              f"{report['ledger']['spans_total']}; unresolved boundaries "
              f"{report['ledger']['unresolved']}; spans file {report['ledger_file']}")
    for problem in report["problems"]:
        print(f"  INCORRECT: {problem}")


def run_workload(contract: Dict[str, Any], workload: str, seed: int, seconds: float,
                 trace: int, scale: float, repeats: Optional[int]) -> Dict[str, Any]:
    if trace:
        report = measure_traced(workload, seed, scale, layers_of(contract))
        return summarise(report, contract["per_layer"])
    report = measure_untraced(workload, seed, seconds, scale, repeats)
    return summarise(report, contract["end_to_end"])


# ----------------------------------------------------------------------
def selftest(contract: Dict[str, Any], seed: int) -> int:
    """Every workload at 1/20 scale: the checks of a full run, the same
    seed twice (the untraced run against the traced run's own untraced
    child), traced against untraced, and both declared metric lists."""
    failures: List[str] = []
    shares: Dict[str, Dict[str, float]] = {}
    for workload in (w["name"] for w in contract["workloads"]):
        untraced = run_workload(contract, workload, seed, 0.0, 0, 0.05, repeats=1)
        traced = run_workload(contract, workload, seed, 0.0, 1, 0.05, None)
        for report in (untraced, traced):
            failures += [f"{workload}: {p}" for p in report["problems"]]
        again = {name: traced["metrics"][name]["median"] for name in untraced["sim_ledger"]}
        if untraced["sim_digest"] != traced["sim_digest"] or untraced["sim_ledger"] != again:
            failures.append(f"{workload}: two runs of one seed differ")
        shares[workload] = {
            layer: traced["metrics"][f"{layer}.self_share"]["median"]
            for layer in layers_of(contract)
        }
        print(f"selftest {workload}: ops {untraced['attempted']}, digest "
              f"{untraced['sim_digest'][:12]}, top layer {traced['ledger']['top_layer']}, "
              f"{len(untraced['problems']) + len(traced['problems'])} problems")
    for workload, share in shares.items():
        if workload != "nf_mix_obs" and share["obs"] != 0.0:
            failures.append(f"{workload}: obs.self_share is {share['obs']}")
    if shares["nf_mix_obs"]["obs"] <= 0.0:
        failures.append("nf_mix_obs: obs.self_share is 0")
    quiet = sum(shares["fwd_bare"][layer] for layer in ("sro", "ewo", "nf", "obs", "antientropy"))
    if quiet > 0.02:
        failures.append(f"fwd_bare: protocol layers hold {quiet:.3f} of the run")
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase to measure per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many untraced repeats, whatever --seconds")
    parser.add_argument("--out", default=None, help="write every report to this JSON file")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"perf: no repro package under {os.path.join(REPO, 'src')}", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.selftest:
        return selftest(contract, args.seed)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]

    reports = []
    for name in names:
        report = run_workload(contract, name, args.seed, seconds, args.trace, 1.0,
                              args.repeats)
        print_report(report)
        reports.append(report)
    if args.out:
        document = {
            "meta": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
                "seed": args.seed,
                "seconds": seconds,
                "trace": args.trace,
            },
            "workloads": {report["workload"]: report for report in reports},
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    if len(reports) == 1:
        report = reports[0]
        print(json.dumps({
            "correct": not report["problems"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": m["median"], "unit": m["unit"]}
                for name, m in report["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
