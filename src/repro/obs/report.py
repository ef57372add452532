"""Aggregation behind ``readduo report``.

Two inputs, both produced by ordinary runs:

* the **run-provenance ledger** (:mod:`repro.obs.ledger`) — per-unit
  resolution records aggregated here into cache-tier hit ratios,
  speculation success rates, slowest-unit lists, and per-worker
  utilization;
* the **benchmark history** (``results/BENCH_history.jsonl``, appended
  by every ``readduo bench``) — compared latest-vs-previous to flag
  throughput/speedup/overhead regressions beyond a threshold.

Everything here is pure functions over parsed JSON records; the CLI
(:mod:`repro.cli`) owns file handling and exit codes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .ledger import LEDGER_RECORD_KIND

__all__ = [
    "parse_ledger_lines",
    "last_invocation",
    "summarize_ledger",
    "summarize_metrics",
    "render_ledger_report",
    "BENCH_COMPARISONS",
    "compare_bench_entries",
    "render_bench_report",
]

#: Resolution tiers in report order.
TIERS = ("memo", "disk", "simulated")


def parse_ledger_lines(lines: Sequence[str]) -> List[Dict[str, Any]]:
    """Parse ledger JSONL text into unit records (non-``run`` kinds skipped).

    Ledgers written while a whole-sweep cache still existed may carry
    ``tier: "migrated"`` — runs read from that cache on disk — which is
    folded into ``"disk"``.
    """
    records: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("kind") == LEDGER_RECORD_KIND:
            if record.get("tier") == "migrated":
                record["tier"] = "disk"
            records.append(record)
    return records


def last_invocation(
    records: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The records of the final CLI invocation in an accumulated ledger.

    A ledger file accumulates across invocations (appends only); each
    CLI invocation stamps one trace id onto its records, so the final
    record's trace id delimits the last run. Records without a trace id
    (ledger attached with no tracer) fall back to the final plan index.
    """
    if not records:
        return []
    last_trace = records[-1].get("trace")
    if last_trace is not None:
        return [r for r in records if r.get("trace") == last_trace]
    last_plan = records[-1].get("plan")
    return [
        r
        for r in records
        if r.get("trace") is None and r.get("plan") == last_plan
    ]


def summarize_ledger(
    records: Sequence[Dict[str, Any]], top: int = 5
) -> Dict[str, Any]:
    """Aggregate ledger unit records into the report's sections.

    Tier ratios are computed over **distinct run hashes**, first record
    per hash wins: one ``readduo run`` legitimately resolves the same
    unit several times (prewarm plan, then per-figure sweeps) and the
    memo hits on the later passes would otherwise drown the signal of
    how the unit was *first* obtained. Raw per-record tier counts are
    reported alongside for the full picture; to explain only the latest
    run of an accumulated file, filter with :func:`last_invocation`
    (``readduo report --last``).
    """
    first_by_hash: Dict[str, Dict[str, Any]] = {}
    record_tiers = {tier: 0 for tier in TIERS}
    plans = set()
    for record in records:
        first_by_hash.setdefault(record["run_hash"], record)
        tier = record.get("tier")
        if tier in record_tiers:
            record_tiers[tier] += 1
        plans.add((record.get("trace"), record.get("plan")))

    unit_tiers = {tier: 0 for tier in TIERS}
    fastpath: Dict[str, int] = {}
    simulated: List[Dict[str, Any]] = []
    for record in first_by_hash.values():
        tier = record.get("tier")
        if tier in unit_tiers:
            unit_tiers[tier] += 1
        if tier == "simulated":
            simulated.append(record)
            outcome = record.get("fastpath")
            if outcome is not None:
                fastpath[outcome] = fastpath.get(outcome, 0) + 1

    n_units = len(first_by_hash)
    cached = unit_tiers["memo"] + unit_tiers["disk"]
    attempts = fastpath.get("speculated", 0) + fastpath.get("fallback", 0)
    success_rate = (
        fastpath.get("speculated", 0) / attempts if attempts else None
    )

    stored_bytes = 0
    raw_total = 0
    sized_entries = 0
    for record in first_by_hash.values():
        stored = record.get("cached_bytes")
        if not isinstance(stored, (int, float)):
            continue
        sized_entries += 1
        stored_bytes += int(stored)
        raw = record.get("raw_bytes")
        # Pre-compression ledgers have no raw_bytes; entries stored
        # plain report raw == stored either way.
        raw_total += int(raw) if isinstance(raw, (int, float)) else int(stored)

    slowest = sorted(
        (r for r in simulated if r.get("wall_s") is not None),
        key=lambda r: r["wall_s"],
        reverse=True,
    )[: max(top, 0)]

    # Explore provenance (candidate / rung / budget) appears only on
    # records written inside a readduo explore rung; summarize it only
    # when present so pre-explore ledger summaries keep their shape.
    explore_records = [r for r in records if "rung" in r]
    explore: Optional[Dict[str, Any]] = None
    if explore_records:
        rungs: Dict[int, Dict[str, Any]] = {}
        candidates = set()
        for record in explore_records:
            rung = record["rung"]
            entry = rungs.setdefault(
                rung,
                {
                    "rung": rung,
                    "budget": record.get("budget"),
                    "records": 0,
                    "simulated": 0,
                    "candidates": set(),
                },
            )
            entry["records"] += 1
            if record.get("tier") == "simulated":
                entry["simulated"] += 1
            cid = record.get("candidate")
            if cid is not None:
                entry["candidates"].add(cid)
                candidates.add(cid)
        explore = {
            "records": len(explore_records),
            "candidates": len(candidates),
            "rungs": [
                {
                    "rung": entry["rung"],
                    "budget": entry["budget"],
                    "records": entry["records"],
                    "simulated": entry["simulated"],
                    "candidates": len(entry["candidates"]),
                }
                for entry in (rungs[r] for r in sorted(rungs))
            ],
        }

    workers: Dict[int, Dict[str, Any]] = {}
    for record in simulated:
        pid = record.get("pid")
        wall = record.get("wall_s")
        if pid is None or wall is None:
            continue
        entry = workers.setdefault(
            pid, {"pid": pid, "units": 0, "busy_s": 0.0, "t_min": None, "t_max": None}
        )
        entry["units"] += 1
        entry["busy_s"] += wall
        t_s = record.get("t_s")
        if t_s is not None:
            end = t_s + wall
            entry["t_min"] = t_s if entry["t_min"] is None else min(entry["t_min"], t_s)
            entry["t_max"] = end if entry["t_max"] is None else max(entry["t_max"], end)
    for entry in workers.values():
        span_s = (
            entry["t_max"] - entry["t_min"]
            if entry["t_min"] is not None and entry["t_max"] is not None
            else None
        )
        entry["span_s"] = span_s
        entry["utilization"] = (
            entry["busy_s"] / span_s if span_s else (1.0 if entry["busy_s"] else None)
        )

    summary: Dict[str, Any] = {
        "records": len(records),
        "plans": len(plans),
        "units": n_units,
        "tiers": unit_tiers,
        "record_tiers": record_tiers,
        "cached_units": cached,
        "cache_hit_ratio": (cached / n_units) if n_units else None,
        "units_simulated": unit_tiers["simulated"],
        "cache_bytes": {
            "entries": sized_entries,
            "stored": stored_bytes,
            "raw": raw_total,
            "ratio": (stored_bytes / raw_total) if raw_total else None,
        },
        "fastpath": fastpath,
        "speculation_success_rate": success_rate,
        "slowest": [
            {
                "workload": r.get("workload"),
                "scheme": r.get("scheme"),
                "wall_s": r.get("wall_s"),
                "engine": r.get("engine"),
                "fastpath": r.get("fastpath"),
                "pid": r.get("pid"),
            }
            for r in slowest
        ],
        "workers": [workers[pid] for pid in sorted(workers)],
    }
    if explore is not None:
        summary["explore"] = explore
    return summary


def summarize_metrics(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Pull the report-relevant counters out of a ``--metrics`` dump."""
    counters = snapshot.get("counters", {}) if isinstance(snapshot, dict) else {}
    plan = {
        key.split(".", 1)[1]: value
        for key, value in counters.items()
        if key.startswith("plan.")
    }
    fastpath = {
        key.split(".", 1)[1]: value
        for key, value in counters.items()
        if key.startswith("fastpath.")
    }
    return {"plan": plan, "fastpath": fastpath}


def _pct(value: Optional[float]) -> str:
    return f"{100.0 * value:.1f}%" if value is not None else "n/a"


def render_ledger_report(
    summary: Dict[str, Any], metrics: Optional[Dict[str, Any]] = None
) -> str:
    """Human-readable report text for one ledger summary."""
    lines: List[str] = []
    lines.append(
        f"ledger: {summary['records']} record(s), {summary['plans']} plan(s), "
        f"{summary['units']} distinct unit(s)"
    )
    lines.append("cache tiers (distinct units):")
    for tier in TIERS:
        count = summary["tiers"][tier]
        ratio = count / summary["units"] if summary["units"] else 0.0
        lines.append(f"  {tier:10s} {count:6d}  {_pct(ratio)}")
    lines.append(
        f"cache hit ratio: {_pct(summary['cache_hit_ratio'])} "
        f"({summary['cached_units']}/{summary['units']} served without simulation)"
    )
    cache_bytes = summary.get("cache_bytes") or {}
    if cache_bytes.get("entries"):
        ratio = cache_bytes.get("ratio")
        lines.append(
            f"granular cache entries: {cache_bytes['entries']} sized, "
            f"{cache_bytes['stored']} B stored / {cache_bytes['raw']} B raw"
            + (f" ({_pct(ratio)} of raw)" if ratio is not None else "")
        )
    fastpath = summary["fastpath"]
    if fastpath or summary["units_simulated"]:
        lines.append("fastpath speculation (simulated units):")
        for outcome in ("speculated", "fallback", "no_native"):
            if outcome in fastpath:
                lines.append(f"  {outcome:10s} {fastpath[outcome]:6d}")
        lines.append(
            f"  success rate: {_pct(summary['speculation_success_rate'])}"
        )
    if summary["slowest"]:
        lines.append("slowest simulated units:")
        for entry in summary["slowest"]:
            lines.append(
                f"  {entry['workload']}/{entry['scheme']:12s} "
                f"{entry['wall_s']:.3f}s  engine={entry['engine']} "
                f"fastpath={entry['fastpath']}"
            )
    explore = summary.get("explore")
    if explore:
        lines.append(
            f"explore: {explore['records']} record(s) across "
            f"{len(explore['rungs'])} rung(s), "
            f"{explore['candidates']} candidate(s)"
        )
        for entry in explore["rungs"]:
            lines.append(
                f"  rung {entry['rung']} (budget {entry['budget']}): "
                f"{entry['candidates']} candidate(s), "
                f"{entry['simulated']}/{entry['records']} simulated"
            )
    if summary["workers"]:
        lines.append("workers:")
        for entry in summary["workers"]:
            util = (
                _pct(entry["utilization"])
                if entry["utilization"] is not None
                else "n/a"
            )
            lines.append(
                f"  pid {entry['pid']}: {entry['units']} unit(s), "
                f"{entry['busy_s']:.3f}s busy, utilization {util}"
            )
    if metrics is not None:
        plan = metrics.get("plan", {})
        if plan:
            lines.append("plan counters (metrics snapshot):")
            for key in sorted(plan):
                lines.append(f"  {key:18s} {plan[key]}")
        fp = metrics.get("fastpath", {})
        if fp:
            lines.append("fastpath counters (metrics snapshot):")
            for key in sorted(fp):
                lines.append(f"  {key:18s} {fp[key]}")
    return "\n".join(lines)


#: Benchmark metrics compared by ``readduo report --bench``:
#: (section, key, direction) where direction is +1 when higher is better.
BENCH_COMPARISONS = (
    ("single_run", "requests_per_s", +1),
    ("batch_kernel", "speedup", +1),
    ("telemetry_overhead", "enabled_overhead_pct", -1),
    ("explore", "requests_saved_ratio", +1),
)


def compare_bench_entries(
    previous: Dict[str, Any],
    latest: Dict[str, Any],
    threshold_pct: float = 5.0,
) -> List[Dict[str, Any]]:
    """Latest-vs-previous deltas for each tracked benchmark metric.

    A metric regresses when it moves against its good direction by more
    than ``threshold_pct`` percent **relative to the previous value**;
    metrics absent from either entry are reported with ``delta_pct``
    ``None`` and never flagged.
    """
    rows: List[Dict[str, Any]] = []
    for section, key, direction in BENCH_COMPARISONS:
        name = f"{section}.{key}"
        prev = previous.get(section, {}).get(key)
        last = latest.get(section, {}).get(key)
        delta_pct: Optional[float] = None
        regressed = False
        if (
            isinstance(prev, (int, float))
            and isinstance(last, (int, float))
            and prev
        ):
            delta_pct = 100.0 * (last - prev) / abs(prev)
            regressed = direction * delta_pct < -abs(threshold_pct)
        rows.append({
            "metric": name,
            "previous": prev,
            "latest": last,
            "delta_pct": delta_pct,
            "better": "higher" if direction > 0 else "lower",
            "regressed": regressed,
        })
    return rows


def render_bench_report(
    rows: Sequence[Dict[str, Any]], threshold_pct: float
) -> str:
    """Human-readable latest-vs-previous benchmark comparison."""
    lines = [f"benchmark history: latest vs previous (threshold {threshold_pct:g}%)"]
    for row in rows:
        if row["delta_pct"] is None:
            lines.append(f"  {row['metric']:40s} n/a")
            continue
        flag = "  REGRESSED" if row["regressed"] else ""
        lines.append(
            f"  {row['metric']:40s} {row['previous']:.2f} -> {row['latest']:.2f} "
            f"({row['delta_pct']:+.1f}%, {row['better']} is better){flag}"
        )
    regressions = sum(1 for row in rows if row["regressed"])
    lines.append(
        f"{regressions} regression(s) beyond {threshold_pct:g}%"
        if regressions
        else "no regressions"
    )
    return "\n".join(lines)
