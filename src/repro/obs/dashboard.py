"""Text dashboard: render observability reports for terminals and logs.

The T2 and T3 benchmarks print these beside their tables.  Every
renderer works from a JSON-ready report dict (not live objects), so it
can also replay a report loaded from a ``BENCH_*.json`` sidecar, and
its output is a pure function of that dict.

Each report kind has a *panel* — a list of pre-indented lines — and a
``render_*`` function that frames the panel under a titled rule:

* :func:`access_profile_panel` renders a
  :meth:`~repro.obs.advisor.ConsistencyAdvisor.report` — per-group
  read/write mix, recommended vs declared consistency class, and the
  top-K hot registers;
* :func:`critpath_panel` renders a
  :meth:`~repro.obs.critpath.CritPathReport.as_dict` — the ranked
  per-cause latency attribution and the tail breakdown;
* :func:`slo_panel` renders an
  :meth:`~repro.obs.slo.SLOMonitor.as_dict` — per-objective burn state
  plus recent breach events.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = [
    "render_access_profile",
    "render_critpath",
    "render_slo",
    "access_profile_panel",
    "critpath_panel",
    "slo_panel",
]

#: Dashboard line width, shared by every panel.
WIDTH = 78


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.3f}us"


def _fmt_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M/s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k/s"
    return f"{value:.1f}/s"


# ----------------------------------------------------------------------
# Access-profile panel (repro.obs.advisor report)
# ----------------------------------------------------------------------

def access_profile_panel(
    report: Dict[str, Any], top_keys: int = 8
) -> List[str]:
    """Render a :meth:`ConsistencyAdvisor.report` dict as panel lines.

    Three sections: the per-group classification table (read/write mix,
    declared vs recommended class, mismatches flagged ``<<``), the
    high-confidence mismatch report, and the ranked hot-key table.
    """
    groups = report.get("groups", [])
    if not groups:
        return ["  (no register groups profiled)"]
    lines = [
        f"  {'register group':<16} {'nf':<12} {'wr freq':<14} {'rd freq':<12} "
        f"{'pattern':<16} {'class':<12}",
        "  " + "-" * (WIDTH - 2),
    ]
    for g in groups:
        declared = g["declared"].upper()
        recommended = g["recommended"].upper()
        if g["mismatch"]:
            klass = f"{declared}->{recommended} <<"
        else:
            klass = declared
        lines.append(
            f"  {g['name']:<16.16} {(g['nf'] or '-'):<12.12} "
            f"{g['write_freq']:<14.14} {g['read_freq']:<12.12} "
            f"{g['pattern']:<16.16} {klass:<12}"
        )
    mismatches = report.get("mismatches", [])
    if mismatches:
        lines.append("")
        lines.append("  mismatch report (high confidence):")
        for g in mismatches:
            lines.append(
                f"    {g['name']}: declared {g['declared'].upper()}, "
                f"observed traffic suggests {g['recommended'].upper()}"
            )
            lines.append(f"      {g['rationale']}")
    hot = report.get("hot_keys", [])[:top_keys]
    if hot:
        lines.append("")
        lines.append(
            f"  {'hot key':<30} {'group':<16} {'reads':>8} {'writes':>8} "
            f"{'rate':>10}"
        )
        lines.append("  " + "-" * (WIDTH - 2))
        for record in hot:
            lines.append(
                f"  {record['key']:<30.30} {record['group']:<16.16} "
                f"{record['reads']:>8} {record['writes']:>8} "
                f"{_fmt_rate(record['windowed_rate']):>10}"
            )
    return lines


# ----------------------------------------------------------------------
# Critical-path attribution panel (repro.obs.critpath report)
# ----------------------------------------------------------------------

def critpath_panel(report: Dict[str, Any]) -> List[str]:
    """Render a :meth:`CritPathReport.as_dict` as panel lines.

    Two sections: the overall ranked cause table (seconds and share of
    all attributed time), and the tail table restricted to writes at or
    above the report's tail quantile, with the top tail cause flagged
    ``<<``.  Output is a pure function of the report dict — byte-stable
    under a fixed snapshot.
    """
    writes = report.get("writes_analyzed", 0)
    if not writes:
        return ["  (no committed writes analyzed)"]
    lat = report.get("latency_us", {})
    lines = [
        f"  writes analyzed {writes}  skipped {report.get('writes_skipped', 0)}"
        f"  merge hops {report.get('merge_hops', 0)}"
        f"  read detours {report.get('read_detours', 0)}",
        f"  commit latency  p50 {lat.get('p50', 0.0):.1f}us"
        f"  p99 {lat.get('p99', 0.0):.1f}us"
        f"  p999 {lat.get('p999', 0.0):.1f}us"
        f"  max {lat.get('max', 0.0):.1f}us",
        "",
        f"  {'cause':<20} {'seconds':>12} {'share':>8}",
        "  " + "-" * (WIDTH - 2),
    ]
    for row in report.get("causes", []):
        lines.append(
            f"  {row['cause']:<20.20} {row['seconds'] * 1e6:>10.1f}us "
            f"{row['fraction'] * 100:>7.2f}%"
        )
    tail = report.get("tail", {})
    if tail.get("writes"):
        lines.append("")
        lines.append(
            f"  tail (>= p{tail['quantile'] * 100:g}, {tail['writes']} write(s)):"
        )
        top = tail.get("top_cause")
        for row in tail.get("causes", []):
            marker = " <<" if row["cause"] == top else ""
            lines.append(
                f"  {row['cause']:<20.20} {row['seconds'] * 1e6:>10.1f}us "
                f"{row['fraction'] * 100:>7.2f}%{marker}"
            )
    return lines


# ----------------------------------------------------------------------
# SLO panel (repro.obs.slo monitor state)
# ----------------------------------------------------------------------

def slo_panel(state: Dict[str, Any], max_breaches: int = 5) -> List[str]:
    """Render an :meth:`SLOMonitor.as_dict` as panel lines: one row per
    objective (windows, breaches, burn rate, worst watermark), then the
    most recent breach events."""
    objectives = state.get("objectives", [])
    if not objectives:
        return ["  (no SLO objectives declared)"]
    lines = [
        f"  {'objective':<42} {'windows':>8} {'breach':>7} {'burn':>7} "
        f"{'worst':>9}",
        "  " + "-" * (WIDTH - 2),
    ]
    for obj in objectives:
        worst = obj.get("worst_value")
        if worst is None:
            shown = "-"
        elif obj["stat"] in ("availability", "count"):
            shown = f"{worst:.4g}"
        else:
            shown = _fmt_seconds(worst)
        lines.append(
            f"  {obj['objective']:<42.42} {obj['windows_evaluated']:>8} "
            f"{obj['windows_breached']:>7} {obj['burn_rate'] * 100:>6.1f}% "
            f"{shown:>9}"
        )
    breaches = state.get("breaches", [])
    if breaches:
        lines.append("")
        lines.append(f"  breach events ({len(breaches)} total, last {max_breaches}):")
        for breach in breaches[-max_breaches:]:
            if breach["stat"] in ("availability", "count"):
                observed = f"{breach['observed']:.4g}"
                threshold = f"{breach['threshold']:.4g}"
            else:
                observed = _fmt_seconds(breach["observed"])
                threshold = _fmt_seconds(breach["threshold"])
            lines.append(
                f"    [{breach['window_start'] * 1e3:9.3f}ms] {breach['metric']} "
                f"{breach['stat']} = {observed} (objective {breach['objective'].split(' over ')[0]},"
                f" threshold {threshold})"
            )
    return lines


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def _framed(title: str, panel_lines: List[str]) -> str:
    """One panel under a titled rule."""
    rule = "=" * WIDTH
    return "\n".join([rule, f"  {title}", rule, *panel_lines, rule])


def render_access_profile(
    report: Dict[str, Any], title: str = "access profile", top_keys: int = 8
) -> str:
    """Render an advisor report as a standalone dashboard section."""
    return _framed(title, access_profile_panel(report, top_keys))


def render_critpath(report: Dict[str, Any], title: str = "critical paths") -> str:
    """Render a :meth:`CritPathReport.as_dict` as a standalone section."""
    return _framed(title, critpath_panel(report))


def render_slo(state: Dict[str, Any], title: str = "slo") -> str:
    """Render an :meth:`SLOMonitor.as_dict` as a standalone section."""
    return _framed(title, slo_panel(state))
