"""Tests for ``readduo report`` aggregation (repro.obs.report).

Pure-function coverage of the ledger/metrics/bench aggregations plus
CLI-level exit-code behaviour (0 success, 2 usage/unreadable input, 3
regression gate).
"""

import json

import pytest

from repro.cli import main
from repro.obs.report import (
    compare_bench_entries,
    last_invocation,
    parse_ledger_lines,
    render_bench_report,
    render_ledger_report,
    summarize_ledger,
    summarize_metrics,
)


def _record(run_hash, tier, plan=1, trace="t1", fastpath=None, wall_s=None,
            pid=None, t_s=None, workload="mcf", scheme="Hybrid"):
    return {
        "kind": "run", "plan": plan, "run_hash": run_hash,
        "workload": workload, "scheme": scheme, "tier": tier,
        "engine": "batch", "fastpath": fastpath, "wall_s": wall_s,
        "t_s": t_s, "pid": pid, "cached_bytes": None, "faults": None,
        "trace": trace,
    }


class TestParseLedgerLines:
    def test_skips_blank_junk_and_foreign_kinds(self):
        lines = [
            "", "   ", "{not json", json.dumps({"kind": "span"}),
            json.dumps(_record("h1", "simulated")), json.dumps([1, 2]),
        ]
        records = parse_ledger_lines(lines)
        assert [r["run_hash"] for r in records] == ["h1"]

    def test_legacy_migrated_tier_reads_as_disk(self):
        # Ledgers written while a whole-sweep cache existed record runs
        # read from it as "migrated"; those were disk reads.
        lines = [
            json.dumps(_record("h1", "migrated")),
            json.dumps(_record("h2", "disk")),
        ]
        records = parse_ledger_lines(lines)
        assert [r["tier"] for r in records] == ["disk", "disk"]
        summary = summarize_ledger(records)
        assert summary["tiers"] == {"memo": 0, "disk": 2, "simulated": 0}
        assert summary["cache_hit_ratio"] == 1.0


class TestLastInvocation:
    def test_filters_to_final_trace_id(self):
        records = [
            _record("h1", "simulated", trace="t1"),
            _record("h1", "disk", trace="t2"),
            _record("h2", "disk", trace="t2"),
        ]
        assert [r["trace"] for r in last_invocation(records)] == ["t2", "t2"]

    def test_traceless_records_fall_back_to_final_plan(self):
        records = [
            _record("h1", "simulated", trace=None, plan=1),
            _record("h1", "memo", trace=None, plan=2),
        ]
        assert [r["plan"] for r in last_invocation(records)] == [2]

    def test_empty_input(self):
        assert last_invocation([]) == []


class TestSummarizeLedger:
    def test_first_record_per_hash_wins(self):
        # One invocation resolves the same unit twice (prewarm simulates,
        # the figure sweep then memo-hits); the unit's tier is how it was
        # first obtained.
        records = [
            _record("h1", "simulated", plan=1, fastpath="speculated",
                    wall_s=0.5),
            _record("h1", "memo", plan=2),
        ]
        summary = summarize_ledger(records)
        assert summary["units"] == 1
        assert summary["tiers"]["simulated"] == 1
        assert summary["tiers"]["memo"] == 0
        assert summary["record_tiers"] == {
            "memo": 1, "disk": 0, "simulated": 1,
        }
        assert summary["plans"] == 2
        assert summary["units_simulated"] == 1
        assert summary["cache_hit_ratio"] == 0.0

    def test_warm_invocation_shows_zero_simulated(self):
        records = [
            _record("h1", "disk"), _record("h2", "memo"),
        ]
        summary = summarize_ledger(records)
        assert summary["units_simulated"] == 0
        assert summary["cache_hit_ratio"] == 1.0
        assert summary["cached_units"] == 2

    def test_speculation_success_rate(self):
        records = [
            _record("h1", "simulated", fastpath="speculated", wall_s=0.1),
            _record("h2", "simulated", fastpath="speculated", wall_s=0.2),
            _record("h3", "simulated", fastpath="fallback", wall_s=0.3),
            _record("h4", "simulated", fastpath="no_native", wall_s=0.4),
        ]
        summary = summarize_ledger(records)
        assert summary["fastpath"] == {
            "speculated": 2, "fallback": 1, "no_native": 1,
        }
        # no_native units never attempted speculation; they stay out of
        # the success-rate denominator.
        assert summary["speculation_success_rate"] == pytest.approx(2 / 3)

    def test_slowest_units_ranked_and_truncated(self):
        records = [
            _record(f"h{i}", "simulated", wall_s=float(i)) for i in range(6)
        ]
        summary = summarize_ledger(records, top=3)
        assert [r["wall_s"] for r in summary["slowest"]] == [5.0, 4.0, 3.0]

    def test_worker_utilization(self):
        records = [
            _record("h1", "simulated", pid=11, wall_s=1.0, t_s=100.0),
            _record("h2", "simulated", pid=11, wall_s=1.0, t_s=103.0),
            _record("h3", "simulated", pid=22, wall_s=2.0, t_s=100.0),
        ]
        workers = summarize_ledger(records)["workers"]
        assert [w["pid"] for w in workers] == [11, 22]
        first = workers[0]
        assert first["units"] == 2
        assert first["busy_s"] == pytest.approx(2.0)
        assert first["span_s"] == pytest.approx(4.0)  # 100.0 -> 104.0
        assert first["utilization"] == pytest.approx(0.5)

    def test_empty_records(self):
        summary = summarize_ledger([])
        assert summary["units"] == 0
        assert summary["cache_hit_ratio"] is None
        assert summary["speculation_success_rate"] is None

    def test_render_mentions_key_sections(self):
        records = [_record("h1", "simulated", fastpath="speculated",
                           wall_s=0.5, pid=9, t_s=1.0)]
        metrics = {"plan": {"units_total": 1}, "fastpath": {"speculated": 1}}
        text = render_ledger_report(summarize_ledger(records), metrics)
        for needle in ("cache tiers", "cache hit ratio", "slowest",
                       "workers", "plan counters", "fastpath counters"):
            assert needle in text


class TestExploreSection:
    def _explore_record(self, run_hash, candidate, rung, budget, tier):
        record = _record(run_hash, tier)
        record.update(candidate=candidate, rung=rung, budget=budget)
        return record

    def test_summary_groups_by_rung(self):
        records = [
            self._explore_record("h1", "LWT-2|E8|S640|base", 0, 300, "simulated"),
            self._explore_record("h2", None, 0, 300, "simulated"),
            self._explore_record("h1", "LWT-2|E8|S640|base", 1, 600, "simulated"),
        ]
        explore = summarize_ledger(records)["explore"]
        assert explore["records"] == 3
        assert explore["candidates"] == 1
        assert [r["rung"] for r in explore["rungs"]] == [0, 1]
        assert explore["rungs"][0] == {
            "rung": 0, "budget": 300, "records": 2,
            "simulated": 2, "candidates": 1,
        }

    def test_section_absent_without_explore_records(self):
        summary = summarize_ledger([_record("h1", "simulated")])
        assert "explore" not in summary

    def test_render_mentions_explore(self):
        records = [
            self._explore_record("h1", "LWT-2|E8|S640|base", 0, 300, "memo"),
        ]
        text = render_ledger_report(summarize_ledger(records))
        assert "explore:" in text
        assert "rung 0 (budget 300)" in text


class TestSummarizeMetrics:
    def test_splits_plan_and_fastpath_prefixes(self):
        snapshot = {"counters": {
            "plan.units_total": 4, "fastpath.speculated": 2, "other.x": 1,
        }}
        metrics = summarize_metrics(snapshot)
        assert metrics["plan"] == {"units_total": 4}
        assert metrics["fastpath"] == {"speculated": 2}

    def test_tolerates_non_dict(self):
        assert summarize_metrics(None) == {"plan": {}, "fastpath": {}}


def _bench_entry(rps, speedup, overhead):
    return {
        "single_run": {"requests_per_s": rps},
        "batch_kernel": {"speedup": speedup},
        "telemetry_overhead": {"enabled_overhead_pct": overhead},
    }


class TestBenchComparison:
    def test_within_threshold_not_regressed(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0),
            _bench_entry(97.0, 9.8, 5.1),
            threshold_pct=5.0,
        )
        assert not any(row["regressed"] for row in rows)

    def test_higher_is_better_drop_regresses(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0),
            _bench_entry(80.0, 10.0, 5.0),
            threshold_pct=5.0,
        )
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["single_run.requests_per_s"]["regressed"]
        assert by_metric["single_run.requests_per_s"]["delta_pct"] == (
            pytest.approx(-20.0)
        )
        assert not by_metric["batch_kernel.speedup"]["regressed"]

    def test_lower_is_better_rise_regresses(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0),
            _bench_entry(100.0, 10.0, 8.0),
            threshold_pct=5.0,
        )
        row = next(r for r in rows
                   if r["metric"] == "telemetry_overhead.enabled_overhead_pct")
        assert row["regressed"] and row["better"] == "lower"

    def test_missing_metric_never_flags(self):
        rows = compare_bench_entries({}, _bench_entry(1.0, 1.0, 1.0))
        assert all(row["delta_pct"] is None for row in rows)
        assert not any(row["regressed"] for row in rows)

    def test_render_flags_regressions(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0), _bench_entry(50.0, 10.0, 5.0)
        )
        text = render_bench_report(rows, 5.0)
        assert "REGRESSED" in text
        assert "1 regression(s)" in text


class TestReportCli:
    def _write_ledger(self, path, records):
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )

    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert "--ledger" in capsys.readouterr().err

    def test_missing_ledger_file(self, tmp_path, capsys):
        assert main(["report", "--ledger", str(tmp_path / "nope.jsonl")]) == 2

    def test_ledger_report_renders(self, tmp_path, capsys):
        path = tmp_path / "l.jsonl"
        self._write_ledger(path, [
            _record("h1", "simulated", fastpath="speculated", wall_s=0.5),
            _record("h2", "memo"),
        ])
        assert main(["report", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 distinct unit(s)" in out

    def test_last_flag_limits_to_final_invocation(self, tmp_path, capsys):
        path = tmp_path / "l.jsonl"
        self._write_ledger(path, [
            _record("h1", "simulated", trace="cold"),
            _record("h1", "disk", trace="warm"),
        ])
        assert main(["report", "--ledger", str(path), "--last",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["units_simulated"] == 0
        assert summary["tiers"]["disk"] == 1

    def test_old_ledger_with_migrated_records_loads(self, tmp_path, capsys):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"kind": "run", "plan": 1, "run_hash": "h1", "workload": "mcf", '
            '"scheme": "Hybrid", "tier": "migrated", "engine": "batch", '
            '"fastpath": null, "wall_s": null, "t_s": null, "pid": 7, '
            '"cached_bytes": 512, "faults": null, "trace": "t1"}\n'
            '{"kind": "run", "plan": 1, "run_hash": "h2", "workload": "gcc", '
            '"scheme": "Ideal", "tier": "simulated", "engine": "batch", '
            '"fastpath": "speculated", "wall_s": 0.2, "t_s": 1.0, "pid": 7, '
            '"cached_bytes": 256, "faults": null, "trace": "t1"}\n',
            encoding="utf-8",
        )
        assert main(["report", "--ledger", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tiers"] == {"memo": 0, "disk": 1, "simulated": 1}
        assert main(["report", "--ledger", str(path)]) == 0
        assert "migrated" not in capsys.readouterr().out

    def test_metrics_snapshot_included(self, tmp_path, capsys):
        ledger = tmp_path / "l.jsonl"
        self._write_ledger(ledger, [_record("h1", "memo")])
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(
            {"counters": {"plan.units_total": 1}, "gauges": {},
             "histograms": {}}
        ))
        assert main(["report", "--ledger", str(ledger),
                     "--metrics", str(metrics), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["plan"]["units_total"] == 1

    def test_bench_needs_history(self, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        assert main(["report", "--bench", "--history", str(missing)]) == 2
        history = tmp_path / "h.jsonl"
        history.write_text(json.dumps(_bench_entry(1.0, 1.0, 1.0)) + "\n")
        assert main(["report", "--bench", "--history", str(history)]) == 2

    def test_bench_compare_and_regression_gate(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        history.write_text(
            json.dumps(_bench_entry(100.0, 10.0, 5.0)) + "\n"
            + json.dumps(_bench_entry(50.0, 10.0, 5.0)) + "\n"
        )
        assert main(["report", "--bench", "--history", str(history)]) == 0
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["report", "--bench", "--history", str(history),
                     "--fail-on-regression"]) == 3
        # Raising the threshold clears the gate.
        assert main(["report", "--bench", "--history", str(history),
                     "--threshold", "60", "--fail-on-regression"]) == 0
