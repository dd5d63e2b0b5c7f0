"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import re

import pytest

from repro.__main__ import main
from repro.failures import all_cases, get_case
from repro.obs import bus as event_bus
from repro.obs import ledger


@pytest.fixture(autouse=True)
def isolated_ledger(tmp_path, monkeypatch):
    """Point the default run ledger at a temp file so CLI tests never
    append to the repository's benchmarks/out/ledger.jsonl."""
    path = tmp_path / "ledger.jsonl"
    monkeypatch.setattr(ledger, "DEFAULT_PATH", str(path))
    return path


@pytest.fixture(autouse=True)
def isolated_events(tmp_path, monkeypatch):
    """Point the default event stream at a temp file so CLI tests never
    write the repository's benchmarks/out/events.jsonl."""
    path = tmp_path / "events.jsonl"
    monkeypatch.setattr(event_bus, "DEFAULT_PATH", str(path))
    yield path
    event_bus.set_active_bus(None)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def one_case_per_system():
    chosen = {}
    for case in all_cases():
        chosen.setdefault(case.system, case)
    return sorted(chosen.values(), key=lambda case: case.case_id)


class TestList:
    def test_lists_all_cases(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for case_id in ("f1", "f17", "f22"):
            assert case_id in out
        assert "HBase-25905" in out


class TestInspect:
    def test_shows_candidates(self, capsys):
        code, out = run_cli(capsys, "inspect", "f3")
        assert code == 0
        assert "causal graph" in out
        assert "accept_loop:sock_recv" in out

    def test_top_limits_window(self, capsys):
        code, out = run_cli(capsys, "inspect", "f3", "--top", "1")
        assert code == 0
        assert out.count("F=") == 1


class TestReproduceAndReplay:
    def test_reproduce_writes_script(self, capsys, tmp_path):
        script_path = tmp_path / "f4.json"
        code, out = run_cli(
            capsys, "reproduce", "f4", "--output", str(script_path)
        )
        assert code == 0
        assert "reproduced in" in out
        data = json.loads(script_path.read_text())
        assert data["case_id"] == "f4"
        assert data["exception"]

    def test_replay_round_trip(self, capsys, tmp_path):
        script_path = tmp_path / "f4.json"
        run_cli(capsys, "reproduce", "f4", "--output", str(script_path))
        code, out = run_cli(capsys, "replay", "f4", str(script_path))
        assert code == 0
        assert "oracle satisfied: True" in out


class TestReproduceHasNoJobs:
    def test_jobs_is_an_unrecognised_argument(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "f1", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestUnknownCase:
    @pytest.mark.parametrize(
        "command",
        ["compare", "reproduce", "replay", "inspect", "trace", "explain", "analyze"],
    )
    def test_exits_two_with_one_line(self, capsys, tmp_path, command):
        argv = [command, "f99"]
        if command == "replay":
            argv.append(str(tmp_path / "never-read.json"))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.strip().splitlines()[-1] == (
            "error: unknown case id 'f99'"
        )
        assert "Traceback" not in captured.err


class TestTrace:
    @pytest.mark.parametrize(
        "case",
        one_case_per_system(),
        ids=lambda case: f"{case.case_id}-{case.system}",
    )
    def test_chrome_trace_carries_rank_trajectory(self, capsys, case):
        """One case per mini system: the exported Chrome trace is valid
        trace_event JSON whose per-round rerank events carry the
        ground-truth site's rank (the Figure 6 trajectory)."""
        code, out = run_cli(capsys, "trace", case.case_id)
        assert code == 0
        document = json.loads(out)
        assert "traceEvents" in document
        events = document["traceEvents"]
        assert all({"name", "ph", "pid"} <= set(e) for e in events)
        reranks = [e for e in events if e["name"] == "explorer.rerank"]
        assert reranks, "every committed round emits a rerank event"
        for event in reranks:
            assert {"round", "rank", "window_size", "top"} <= set(
                event["args"]
            )
        rounds = [e["args"]["round"] for e in reranks]
        assert rounds == sorted(rounds)

    def test_trace_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "trace", "f1", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""  # the trace goes to the file, not stdout
        document = json.loads(out_path.read_text())
        assert any(
            e["name"] == "workload.run" for e in document["traceEvents"]
        )

    def test_trace_json_format(self, capsys):
        code, out = run_cli(capsys, "trace", "f1", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == 1
        assert document["metrics"]["runs"] >= 1

    def test_trace_text_format(self, capsys):
        code, out = run_cli(capsys, "trace", "f1", "--format", "text")
        assert code == 0
        assert "== counters ==" in out
        assert "fir.requests" in out

    def test_trace_out_creates_parent_directories(self, capsys, tmp_path):
        out_path = tmp_path / "does" / "not" / "exist" / "trace.json"
        code, _ = run_cli(capsys, "trace", "f1", "--out", str(out_path))
        assert code == 0
        assert "traceEvents" in json.loads(out_path.read_text())

    def test_trace_out_unwritable_exits_nonzero(self, capsys, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("", encoding="utf-8")
        code = main(
            ["trace", "f1", "--out", str(blocker / "trace.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write trace" in captured.err


class TestLedger:
    def test_reproduce_appends_an_entry(self, capsys, isolated_ledger):
        code, _ = run_cli(capsys, "reproduce", "f4")
        assert code == 0
        entries = ledger.read_entries(str(isolated_ledger))
        assert len(entries) == 1
        entry = entries[0]
        assert entry["case_id"] == "f4"
        assert entry["strategy"] == "anduril"
        assert entry["success"] is True
        assert entry["coverage"]["space"] > 0

    def test_no_ledger_flag_skips_the_append(self, capsys, isolated_ledger):
        code, _ = run_cli(capsys, "reproduce", "f4", "--no-ledger")
        assert code == 0
        assert not isolated_ledger.exists()

    def test_explicit_ledger_path(self, capsys, tmp_path):
        custom = tmp_path / "custom" / "runs.jsonl"
        code, _ = run_cli(
            capsys, "reproduce", "f4", "--ledger", str(custom)
        )
        assert code == 0
        assert len(ledger.read_entries(str(custom))) == 1

    def test_compare_appends_one_entry_per_cell(
        self, capsys, isolated_ledger
    ):
        code, _ = run_cli(capsys, "compare", "f1", "--jobs", "1")
        assert code == 0
        entries = ledger.read_entries(str(isolated_ledger))
        strategies = {entry["strategy"] for entry in entries}
        assert "anduril" in strategies
        assert len(strategies) >= 3  # anduril + the baseline strategies
        assert all(entry["case_id"] == "f1" for entry in entries)


    def test_compare_rows_all_carry_the_campaign_jobs(
        self, capsys, isolated_ledger
    ):
        """ANDURIL and baseline rows of one campaign share its ``jobs``,
        so compaction and the watch ETA key them alike."""
        code, _ = run_cli(capsys, "compare", "f1", "--jobs", "2", "--no-cache")
        assert code == 0
        entries = ledger.read_entries(str(isolated_ledger))
        assert len(entries) >= 3
        assert {entry["jobs"] for entry in entries} == {2}


class TestRunnerStatsLines:
    """The end-of-run stderr bookkeeping, read through the one reducer."""

    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro.obs import metrics

        metrics.reset()
        yield metrics
        metrics.reset()

    def _lines(self, capsys):
        from repro.__main__ import _print_runner_stats

        _print_runner_stats()
        return capsys.readouterr().err.splitlines()

    def test_silent_when_nothing_moved(self, capsys):
        assert self._lines(capsys) == []

    def test_one_line_per_section_and_no_degraded_line_when_clean(
        self, capsys, clean_registry
    ):
        clean_registry.increment("cache.hits", 3)
        clean_registry.increment("cache.misses", 1)
        clean_registry.increment("sim.checkpoint.forks", 2)
        clean_registry.increment("sim.checkpoint.declined", 5)
        clean_registry.increment("verdict.virtual_seconds_saved", 1.5)
        assert self._lines(capsys) == [
            "[cache: 3 hit(s), 0 alias(es), 1 miss(es), hit rate 75.0%]",
            "[checkpoint: 0 snapshot(s), 2 fork(s), "
            "5 run(s) kept inline by the cost model, "
            "0 prefix request(s) skipped]",
            "[early-verdict: 0 cutoff(s), 1.5 virtual second(s) and "
            "0 event(s) saved]",
        ]

    def test_degraded_line_names_every_fallback(self, capsys, clean_registry):
        clean_registry.increment("campaign.inline_fallbacks", 2)
        clean_registry.increment("sim.checkpoint.fallbacks")
        clean_registry.increment("cache.disk_errors", 4)
        lines = self._lines(capsys)
        assert lines[-1] == (
            "[degraded: 2 cell(s) re-run inline after worker failures, "
            "1 failed checkpoint fork(s) re-run inline, "
            "4 cache disk error(s)]"
        )


class TestExplain:
    def test_prints_a_chain_for_the_injected_instance(self, capsys):
        code, out = run_cli(capsys, "explain", "f4")
        assert code == 0
        assert "provenance for f4" in out
        assert "instance " in out
        assert "plan: armed at window position" in out
        assert "inject: FIR raised" in out
        assert "search touched" in out

    def test_json_format_is_structured(self, capsys):
        code, out = run_cli(capsys, "explain", "f4", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["case_id"] == "f4"
        assert document["chains"]
        kinds = {step["kind"] for step in document["chains"][0]["steps"]}
        assert {"plan", "inject"} <= kinds

    def test_unreproduced_case_exits_one(self, capsys):
        code = main(["explain", "f17", "--max-rounds", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not reproduced" in captured.err


class TestReport:
    def test_report_writes_self_contained_html(self, capsys, tmp_path):
        out_path = tmp_path / "nested" / "report.html"
        code, out = run_cli(capsys, "report", "--out", str(out_path))
        assert code == 0
        assert str(out_path) in out
        html_text = out_path.read_text(encoding="utf-8")
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<script" not in html_text

    def test_report_aggregates_a_custom_artifact_dir(self, capsys, tmp_path):
        (tmp_path / "table2_efficacy.txt").write_text(
            "Table 2 body", encoding="utf-8"
        )
        out_path = tmp_path / "report.html"
        code, _ = run_cli(
            capsys,
            "report",
            "--out",
            str(out_path),
            "--dir",
            str(tmp_path),
        )
        assert code == 0
        assert "Table 2 body" in out_path.read_text(encoding="utf-8")

    def test_unwritable_report_path_exits_nonzero(self, capsys, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("", encoding="utf-8")
        code = main(["report", "--out", str(blocker / "report.html")])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write report" in captured.err


class TestProfile:
    def test_reproduce_profile_prints_metrics(self, capsys):
        code = main(["reproduce", "f1", "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[profile]" in captured.err
        assert "fir.requests" in captured.err
        # The search itself is unchanged by profiling.
        assert "reproduced in" in captured.out

    def test_compare_profile_summarizes_decision_latency(self, capsys):
        code = main(["compare", "f1", "--jobs", "1", "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[profile f1:" in captured.err
        assert "mean FIR decision" in captured.err


class TestFaultDimsOverride:
    """``--fault-dims`` is a parameter of one campaign: it travels in the
    task options, and neither the catalog nor the environment remembers
    it (nor any other runner flag) once ``main`` returns."""

    FLAGS = ("--jobs", "1", "--no-cache", "--no-ledger", "--no-events")

    def rounds_by_strategy(self, capsys, *extra):
        code, out = run_cli(capsys, "compare", "f1", *self.FLAGS, *extra)
        assert code == 0
        return dict(re.findall(r"^(\S+)\s+\| (\d+)/", out, re.M))

    def test_override_does_not_leak_into_later_campaigns(self, capsys):
        environment = dict(os.environ)
        default = self.rounds_by_strategy(capsys)
        widened = self.rounds_by_strategy(capsys, "--fault-dims", "all")
        assert widened["exhaustive"] != default["exhaustive"]
        assert self.rounds_by_strategy(capsys) == default
        assert get_case("f1").fault_dims == "exceptions"
        assert {
            key: value
            for key, value in os.environ.items()
            if key.startswith("REPRO_")
        } == {
            key: value
            for key, value in environment.items()
            if key.startswith("REPRO_")
        }

    def test_override_reaches_pool_workers(self, capsys):
        widened = self.rounds_by_strategy(capsys, "--fault-dims", "all")
        code, out = run_cli(
            capsys, "compare", "f1,f3", "--jobs", "2", *self.FLAGS[2:],
            "--fault-dims", "all",
        )
        assert code == 0
        row = re.search(r"^f1 \(.*?\)\s*\|(.*)$", out, re.M).group(1)
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[:2] == [widened["anduril"], widened["exhaustive"]]


class TestLint:
    def test_text_report_exits_zero(self, capsys):
        code, out = run_cli(capsys, "lint", "repro.systems.minihbase")
        assert code == 0
        assert "repro.systems.minihbase" in out
        assert "findings" in out
        assert "swallowed-exception" in out

    def test_json_report_is_structured(self, capsys):
        code, out = run_cli(
            capsys, "lint", "repro.systems.minihbase", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["package"] == "repro.systems.minihbase"
        assert payload["finding_count"] == len(payload["findings"])
        first = payload["findings"][0]
        assert {"rule", "severity", "file", "line", "site_ids"} <= set(first)

    def test_rule_selection(self, capsys):
        code, out = run_cli(
            capsys,
            "lint",
            "repro.systems.minizk",
            "--rules",
            "unbounded-retry",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rules"] == ["unbounded-retry"]
        assert all(f["rule"] == "unbounded-retry" for f in payload["findings"])

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["lint", "repro.systems.minizk", "--rules", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown lint rule" in captured.err

    def test_unknown_package_exits_two(self, capsys):
        code = main(["lint", "no.such.package"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot import" in captured.err

    def test_min_severity_filters(self, capsys):
        code, out = run_cli(
            capsys,
            "lint",
            "repro.systems.minizk",
            "--min-severity",
            "error",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(f["severity"] == "error" for f in payload["findings"])

    def test_strict_mode_fails_on_errors(self, capsys):
        code, _out = run_cli(
            capsys, "lint", "repro.systems.minihbase", "--strict"
        )
        assert code == 1

    def test_out_writes_file_and_creates_parents(self, capsys, tmp_path):
        out_path = tmp_path / "reports" / "sub" / "lint.json"
        code, out = run_cli(
            capsys,
            "lint",
            "repro.systems.minihbase",
            "--format",
            "json",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out == ""  # the report goes to the file, not stdout
        payload = json.loads(out_path.read_text())
        assert payload["package"] == "repro.systems.minihbase"

    def test_out_unwritable_exits_two(self, capsys, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("", encoding="utf-8")
        code = main(
            ["lint", "repro.systems.minizk", "--out", str(blocker / "x.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write lint report" in captured.err

    def test_race_rules_flag_seeded_defects(self, capsys):
        code, out = run_cli(
            capsys,
            "lint",
            "repro.systems.minizk",
            "--rules",
            "lock-order-inversion,await-under-lock",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"lock-order-inversion", "await-under-lock"}
        # Race findings never implicate fault sites (prior stays intact).
        assert all(f["site_ids"] == [] for f in payload["findings"])


class TestAnalyze:
    def test_text_table_for_one_case(self, capsys):
        code, out = run_cli(capsys, "analyze", "f1")
        assert code == 0
        assert "static fault-space pruning" in out
        assert "f1" in out
        assert "pruned%" in out

    def test_json_document_shape(self, capsys):
        code, out = run_cli(capsys, "analyze", "f17", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["contradictions"] == 0
        case = document["cases"]["f17"]
        assert case["reproduced"] is True
        coverage = case["coverage"]
        assert coverage["pruned_space"] <= coverage["space"]
        # f17's dense space is where pruning pays: the acceptance floor.
        assert coverage["pruned_fraction"] >= 0.25
        assert case["graph"]["pairs"] >= case["graph"]["live_pairs"]

    def test_out_writes_file_and_creates_parents(self, capsys, tmp_path):
        out_path = tmp_path / "analysis" / "nested" / "f1.json"
        code, out = run_cli(
            capsys, "analyze", "f1", "--format", "json", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        document = json.loads(out_path.read_text())
        assert "f1" in document["cases"]

    def test_out_unwritable_exits_two(self, capsys, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("", encoding="utf-8")
        code = main(["analyze", "f1", "--out", str(blocker / "a.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write analysis" in captured.err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestEvents:
    """The ``--events`` default-on stream and the ``watch`` command."""

    def test_reproduce_streams_events_by_default(
        self, capsys, isolated_events
    ):
        code, _ = run_cli(capsys, "reproduce", "f4")
        assert code == 0
        events = event_bus.read_events(str(isolated_events))
        types = [e["type"] for e in events]
        assert types[0] == "campaign.start"
        assert types[-1] == "campaign.done"
        assert "round.end" in types and "case.done" in types
        assert all(event_bus.validate_event(e) == [] for e in events)

    def test_no_events_flag_writes_nothing(self, capsys, isolated_events):
        code, _ = run_cli(capsys, "reproduce", "f4", "--no-events")
        assert code == 0
        assert not isolated_events.exists()

    def test_events_out_overrides_the_path(self, capsys, tmp_path):
        custom = tmp_path / "custom" / "stream.jsonl"
        code, _ = run_cli(
            capsys, "reproduce", "f4", "--events-out", str(custom)
        )
        assert code == 0
        assert event_bus.read_events(str(custom))

    def test_each_campaign_truncates_the_stream(
        self, capsys, isolated_events
    ):
        run_cli(capsys, "reproduce", "f4")
        first = len(event_bus.read_events(str(isolated_events)))
        run_cli(capsys, "reproduce", "f4")
        # Same campaign again: same length, not doubled.
        assert len(event_bus.read_events(str(isolated_events))) == first

    def test_compare_streams_cell_lifecycle(self, capsys, isolated_events):
        code, _ = run_cli(capsys, "compare", "f1", "--jobs", "1")
        assert code == 0
        events = event_bus.read_events(str(isolated_events))
        starts = [e for e in events if e["type"] == "case.start"]
        dones = [e for e in events if e["type"] == "case.done"]
        assert len(starts) == len(dones) >= 3
        assert {e["strategy"] for e in dones} >= {"anduril", "random"}


class TestWatch:
    def test_watch_renders_a_finished_stream(
        self, capsys, isolated_events
    ):
        run_cli(capsys, "reproduce", "f4")
        code, out = run_cli(capsys, "watch", str(isolated_events))
        assert code == 0
        assert "campaign" in out
        assert "f4/anduril" in out
        assert "done (1/1 reproduced)" in out

    def test_watch_defaults_to_the_default_stream(
        self, capsys, isolated_events
    ):
        run_cli(capsys, "reproduce", "f4")
        code, out = run_cli(capsys, "watch")
        assert code == 0
        assert "f4/anduril" in out

    def test_watch_jsonl_re_emits_valid_events(
        self, capsys, isolated_events
    ):
        run_cli(capsys, "reproduce", "f4")
        code, out = run_cli(
            capsys, "watch", str(isolated_events), "--format", "jsonl"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert lines and all(
            event_bus.validate_event(e) == [] for e in lines
        )

    def test_watch_missing_file_exits_two(self, capsys, tmp_path):
        code = main(["watch", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no event stream" in captured.err
