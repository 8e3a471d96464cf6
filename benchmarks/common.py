"""Shared infrastructure for the experiment benchmarks.

Every benchmark file reproduces one experiment from DESIGN.md's index
(which in turn maps to a table, figure, or quantitative claim of the
paper).  Conventions:

* each file defines ``run_experiment(...)`` returning a result object,
  a ``test_*`` that asserts the paper's qualitative *shape* (who wins,
  by roughly what factor, where crossovers fall), and a
  ``test_benchmark_*`` hooking the core computation into
  pytest-benchmark;
* results are printed as aligned tables via :func:`print_table` so
  ``pytest benchmarks/ --benchmark-only -s`` regenerates every table
  the repo reports in EXPERIMENTS.md;
* benchmarks additionally call :func:`emit_json` so every run leaves a
  machine-readable ``BENCH_<id>.json`` sidecar (results + an optional
  metrics-registry snapshot) in ``fresh_bench/`` — the artifacts CI
  uploads to track the perf trajectory.  The committed, gated baselines
  in ``bench_results/`` are never written by a run: re-baselining is an
  explicit copy (see ``tools/check_bench.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

# Resolve imports relative to this file rather than the caller's CWD, so
# `repro` and `benchmarks.common` import no matter where pytest/python runs.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

__all__ = [
    "print_table",
    "print_header",
    "fmt_us",
    "fmt_rate",
    "fmt_pct",
    "emit_json",
    "to_jsonable",
    "bench_output_dir",
]


def print_header(experiment_id: str, title: str, paper_claim: str) -> None:
    print()
    print("=" * 78)
    print(f"[{experiment_id}] {title}")
    print(f"paper claim: {paper_claim}")
    print("=" * 78)


def print_table(columns: Sequence[str], rows: Iterable[Sequence[Any]], widths: Sequence[int] = None) -> None:
    rows = [tuple(str(cell) for cell in row) for row in rows]
    if widths is None:
        widths = [
            max(len(str(col)), *(len(row[i]) for row in rows)) if rows else len(str(col))
            for i, col in enumerate(columns)
        ]
    header = "  ".join(str(col).ljust(w) for col, w in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print()


def fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}us"


def fmt_rate(per_second: float) -> str:
    if per_second >= 1e9:
        return f"{per_second / 1e9:.2f}G/s"
    if per_second >= 1e6:
        return f"{per_second / 1e6:.2f}M/s"
    if per_second >= 1e3:
        return f"{per_second / 1e3:.2f}K/s"
    return f"{per_second:.2f}/s"


def fmt_pct(fraction: float) -> str:
    return f"{fraction * 100:.2f}%"


# ----------------------------------------------------------------------
# Machine-readable output
# ----------------------------------------------------------------------


def bench_output_dir() -> str:
    """Where sidecars go: $SWISHMEM_BENCH_DIR or <repo>/fresh_bench
    (gitignored, and ``make gate``'s default), never over the committed
    baselines in <repo>/bench_results."""
    return os.environ.get(
        "SWISHMEM_BENCH_DIR", os.path.join(_REPO_ROOT, "fresh_bench")
    )


def to_jsonable(value: Any) -> Any:
    """Best-effort conversion of benchmark result objects to JSON types.

    Handles dataclasses, mappings, sequences, and objects exposing
    ``as_dict``; anything else irreducible falls back to ``str`` so a
    sidecar write never fails on an exotic result field.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        return to_jsonable(as_dict())
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    return str(value)


def emit_json(
    experiment_id: str,
    title: str,
    results: Any,
    registry: Any = None,
    extra: Optional[Dict[str, Any]] = None,
    directory: Optional[str] = None,
) -> str:
    """Write ``BENCH_<experiment_id>.json`` and return its path.

    ``registry`` is an optional :class:`repro.obs.MetricsRegistry`
    whose snapshot is embedded under ``"metrics"``.
    """
    directory = directory if directory is not None else bench_output_dir()
    os.makedirs(directory, exist_ok=True)
    payload: Dict[str, Any] = {
        "experiment": experiment_id,
        "title": title,
        "results": to_jsonable(results),
    }
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    if extra:
        payload.update(to_jsonable(extra))
    path = os.path.join(directory, f"BENCH_{experiment_id}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[{experiment_id}] wrote {path}")
    return path
