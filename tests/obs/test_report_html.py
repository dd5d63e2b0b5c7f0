"""Tests for the self-contained HTML campaign report (``repro.obs.report``)."""

import ast
import json
import pathlib
import sys

from repro.obs import report as report_mod
from repro.obs.report import (
    collect_report_inputs,
    render_report,
    write_report,
)


def _populate(out_dir):
    """A miniature benchmarks/out with every artifact kind present."""
    summary = {
        "schema": 2,
        "cases": {
            "f1": {"success": True, "rounds": 2, "seconds": 0.1},
            "f2": {"success": False, "rounds": 40, "seconds": 1.0},
        },
        "case_count": 2,
        "successes": 1,
        "median_seconds": 0.55,
        "median_rounds": 21,
        "total_seconds": 1.1,
        "counters": {"campaign.anduril_runs": 2},
        "coverage": {
            "anduril": {
                "f1": {
                    "space": 20,
                    "planned": 4,
                    "fired": 2,
                    "noop": 0,
                    "planned_outside": 0,
                    "planned_fraction": 0.2,
                    "fired_fraction": 0.1,
                    "noop_fraction": 0.0,
                    "rounds": [[1, 2, 2, 1, 0], [2, 2, 4, 2, 0]],
                }
            },
            "random": {
                "f1": {
                    "space": 20,
                    "planned": 15,
                    "fired": 9,
                    "noop": 0,
                    "planned_outside": 3,
                    "planned_fraction": 0.75,
                    "fired_fraction": 0.45,
                    "noop_fraction": 0.0,
                    "rounds": [[1, 15, 15, 9, 0]],
                }
            },
        },
    }
    (out_dir / "bench_summary.json").write_text(
        json.dumps(summary), encoding="utf-8"
    )
    entries = [
        {
            "schema": 1,
            "git_sha": "abc",
            "case_id": "f1",
            "strategy": "anduril",
            "seed": 0,
            "jobs": 1,
            "success": True,
            "rounds": 2,
            "seconds": 0.1,
        },
        {
            "schema": 1,
            "git_sha": "def",
            "case_id": "f1",
            "strategy": "anduril",
            "seed": 0,
            "jobs": 1,
            "success": False,
            "rounds": 40,
            "seconds": 0.9,
        },
    ]
    (out_dir / "ledger.jsonl").write_text(
        "\n".join(json.dumps(e) for e in entries) + "\n", encoding="utf-8"
    )
    (out_dir / "table2_efficacy.txt").write_text(
        "Table 2: reproduction efficacy\nf1 ...", encoding="utf-8"
    )
    trace = {
        "traceEvents": [
            {"name": "explorer.rerank", "ph": "i", "pid": 1, "tid": 0,
             "ts": 1.0, "args": {"round": 1, "rank": 5}},
            {"name": "explorer.rerank", "ph": "i", "pid": 1, "tid": 0,
             "ts": 2.0, "args": {"round": 2, "rank": 1}},
        ]
    }
    (out_dir / "trace_f1.json").write_text(json.dumps(trace), encoding="utf-8")


class TestStdlibOnly:
    def test_report_module_imports_nothing_third_party(self):
        """The acceptance bar: zero third-party imports in the renderer."""
        tree = ast.parse(open(report_mod.__file__, encoding="utf-8").read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        # Relative imports (level > 0) stay inside repro.obs by construction.
        assert imported <= set(sys.stdlib_module_names), imported


BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def emitted_tables() -> set[str]:
    """Every ``<stem>.txt`` a benchmark writes through ``emit("<stem>", …)``."""
    stems = set()
    for path in BENCHMARKS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                stems.add(f"{node.args[0].value}.txt")
    return stems


def test_every_report_table_is_written_by_a_benchmark():
    """A report row whose table no benchmark writes renders nothing, ever."""
    emitted = emitted_tables()
    assert "table1_fault_sites.txt" in emitted
    missing = [name for _, name in report_mod._TABLE_FILES if name not in emitted]
    assert not missing, missing


class TestRender:
    def test_full_report_is_one_html_document(self, tmp_path):
        _populate(tmp_path)
        inputs = collect_report_inputs(
            out_dir=str(tmp_path), systems={"f1": "minizk", "f2": "minidfs"}
        )
        html_text = render_report(inputs)
        assert html_text.startswith("<!DOCTYPE html>")
        assert html_text.rstrip().endswith("</html>")
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html_text
        assert "http://" not in html_text and "https://" not in html_text
        assert "<svg" in html_text
        # Every section found its inputs.
        assert "f1 (minizk)" in html_text
        assert "anduril" in html_text and "random" in html_text
        assert "Table 2" in html_text
        assert "trace_f1.json" in html_text
        assert "campaign.anduril_runs" in html_text

    def test_empty_out_dir_renders_graceful_empty_states(self, tmp_path):
        inputs = collect_report_inputs(out_dir=str(tmp_path), systems={})
        html_text = render_report(inputs)
        assert "<!DOCTYPE html>" in html_text
        assert "bench_summary.json not found" in html_text
        assert "ledger.jsonl not found or empty" in html_text
        assert "no trace_*.json exports" in html_text
        assert "no table artifacts" in html_text

    def test_ledger_trend_marks_failures(self, tmp_path):
        _populate(tmp_path)
        inputs = collect_report_inputs(out_dir=str(tmp_path), systems={})
        html_text = render_report(inputs)
        assert 'class="bar fail"' in html_text  # the failed f1 run
        assert "1/2" in html_text              # 1 success of 2 runs

    def test_coverage_curve_drawn_from_round_series(self, tmp_path):
        _populate(tmp_path)
        inputs = collect_report_inputs(out_dir=str(tmp_path), systems={})
        html_text = render_report(inputs)
        assert "Coverage curves" in html_text
        assert "planned fraction" in html_text

    def test_text_content_is_escaped(self, tmp_path):
        (tmp_path / "table2_efficacy.txt").write_text(
            "<script>alert(1)</script>", encoding="utf-8"
        )
        inputs = collect_report_inputs(out_dir=str(tmp_path), systems={})
        html_text = render_report(inputs)
        assert "<script>" not in html_text
        assert "&lt;script&gt;" in html_text


class TestRankTrajectories:
    def test_chrome_and_structured_exports_both_parse(self, tmp_path):
        structured = {
            "events": [
                {"name": "explorer.rerank", "args": {"round": 1, "rank": 3}},
                {"name": "other", "args": {}},
                {"name": "explorer.rerank", "args": {"round": 2, "rank": 1}},
            ]
        }
        path = tmp_path / "trace_s.json"
        path.write_text(json.dumps(structured), encoding="utf-8")
        points = report_mod._rank_trajectory_from_trace(str(path))
        assert points == [(1, 3), (2, 1)]

    def test_malformed_trace_is_skipped(self, tmp_path):
        path = tmp_path / "trace_bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert report_mod._rank_trajectory_from_trace(str(path)) == []


class TestWriteReport:
    def test_creates_parent_directories(self, tmp_path):
        _populate(tmp_path)
        target = tmp_path / "deep" / "nested" / "report.html"
        written = write_report(
            path=str(target), out_dir=str(tmp_path), systems={}
        )
        assert written == str(target)
        assert target.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")


class TestRunnerStats:
    """Cache and latency sections in the report."""

    def _inputs(self, summary):
        return report_mod.ReportInputs(
            out_dir="/nowhere",
            summary=summary,
            ledger_entries=[],
            tables=[],
            trajectories={},
            systems={},
        )

    def test_sections_render_as_tables(self):
        summary = {
            "cache": {"hits": 10, "misses": 5, "hit_rate": 0.666667},
            # Older summaries carry a checkpoint section: not rendered.
            "checkpoint": {"forks": 12, "declined": 140, "fallbacks": 0},
            "latency": {
                "latency.round_seconds": {
                    "count": 40, "mean": 0.012,
                    "p50": 0.01, "p90": 0.02, "p99": 0.03,
                },
            },
        }
        html_text = render_report(self._inputs(summary))
        assert "Runner stats" in html_text
        # One block per reducer section, named as the reducer names it.
        assert "<h3>cache</h3>" in html_text and "66.7%" in html_text
        assert "<h3>checkpoint</h3>" not in html_text
        assert "Latency histograms" in html_text
        assert "latency.round_seconds" in html_text

    def test_absent_sections_render_an_empty_note(self):
        html_text = render_report(self._inputs({"case_count": 1}))
        assert "no runner-stats or latency sections" in html_text
        assert "<h3>cache</h3>" not in html_text
