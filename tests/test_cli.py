"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.failures import all_cases, get_case
from repro.obs import bus as event_bus
from repro.obs import ledger

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


class TestSoftFaultCases:
    """The seeded soft-fault cases reproduce via a corruption spec, and
    the script each writes replays."""

    @pytest.mark.parametrize("case_id", ["f23", "f24", "f25", "f26", "f27"])
    def test_reproduce_via_a_corruption_and_replay(self, capsys, tmp_path, case_id):
        script_path = tmp_path / f"{case_id}.json"
        code, _ = run_cli(
            capsys, "reproduce", case_id, "--no-ledger", "--no-cache",
            "--output", str(script_path),
        )
        assert code == 0
        script = json.loads(script_path.read_text())
        assert script["exception"].startswith("corrupt:"), script["exception"]
        code, _ = run_cli(capsys, "replay", case_id, str(script_path))
        assert code == 0


class TestReplayRefusesBadScripts:
    """A script that cannot be read, parsed or matched to the case exits
    2 with one ``error:`` line and replays nothing."""

    F4_SCRIPT = {
        "case_id": "f4", "system": "hdfs", "site_id": "somewhere",
        "exception": "IOException", "occurrence": 1, "seed": 0,
        "horizon": 1.0,
    }

    def assert_refused(self, capsys, *argv):
        code = main(["replay", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("error: ")
        return line

    def test_script_of_another_case(self, capsys, tmp_path):
        path = tmp_path / "f4.json"
        path.write_text(json.dumps(self.F4_SCRIPT))
        line = self.assert_refused(capsys, "f1", str(path))
        assert "f4" in line and "f1" in line

    def test_missing_script(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        assert str(path) in self.assert_refused(capsys, "f4", str(path))

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"case_id": "f4"}'])
    def test_malformed_script(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert str(path) in self.assert_refused(capsys, "f4", str(path))


class TestServedReproduce:
    """``reproduce`` is a one-cell campaign: a second run on the same
    cache directory is served from the cells tier and says so, and
    prints, writes, exits and records what the computing run did."""

    def run_twice(self, capsys, tmp_path, isolated_ledger, *argv):
        output, runs = tmp_path / "script.json", []
        for _ in ("cold", "warm"):
            code = main(["reproduce", *argv, "--output", str(output)])
            captured = capsys.readouterr()
            script = output.read_bytes() if output.exists() else None
            output.unlink(missing_ok=True)
            runs.append((code, captured.out, captured.err.splitlines(), script))
        entries = ledger.read_entries(str(isolated_ledger))
        for entry in entries:
            del entry["recorded_at"]
        return runs, entries

    @pytest.mark.parametrize(
        "argv, code", [(["f4"], 0), (["f17", "--max-rounds", "1"], 1)],
        ids=["reproduced", "not-reproduced"],
    )
    def test_a_served_run_matches_the_computing_one(
        self, capsys, tmp_path, isolated_ledger, argv, code
    ):
        (cold, warm), (cold_entry, warm_entry) = self.run_twice(
            capsys, tmp_path, isolated_ledger, *argv
        )
        assert cold[0] == warm[0] == code
        assert warm[1] == cold[1]
        assert warm[3] == cold[3]
        assert (warm[3] is None) == bool(code)
        assert "[cells: 1 served from the cache]" not in cold[2]
        assert warm[2][-1] == "[cells: 1 served from the cache]"
        coverage = [line for line in cold[2] if line.startswith("[coverage:")]
        assert coverage and coverage == [
            line for line in warm[2] if line.startswith("[coverage:")
        ]
        assert warm_entry == dict(cold_entry, served=True)


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
        trace_event JSON on both clock lanes whose per-round rerank
        events carry the ground-truth site's rank (the Figure 6
        trajectory)."""
        code, out = run_cli(capsys, "trace", case.case_id)
        assert code == 0
        document = json.loads(out)
        assert "traceEvents" in document
        events = document["traceEvents"]
        assert events
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in events)
        timed = [e for e in events if e["ph"] != "M"]
        assert all("ts" in e for e in timed)
        # Spans on the wall-clock lane (pid 1) and the virtual-clock lane
        # (pid 2), not just the two lanes' metadata rows.
        assert {e["pid"] for e in timed} >= {1, 2}
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

    def test_reproduce_entries_say_which_search_they_were(
        self, capsys, isolated_ledger
    ):
        for dims in ("exceptions", "all"):
            run_cli(capsys, "reproduce", "f4", "--fault-dims", dims)
        narrow, wide = ledger.read_entries(str(isolated_ledger))
        assert ledger.entry_key(narrow) == ledger.entry_key(wide)
        assert narrow["params"]["fault_dims"] == "exceptions"
        assert wide["params"] == dict(narrow["params"], fault_dims="all")

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
        # Each row names its resolved search: ANDURIL's prunes statically.
        assert {
            (entry["strategy"] == "anduril", entry["params"]["prune"],
             entry["params"]["fault_dims"])
            for entry in entries
        } == {(True, "static", "exceptions"), (False, "none", "exceptions")}


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
        assert self._lines(capsys) == [
            "[cache: 3 hit(s), 1 miss(es), hit rate 75.0%]",
        ]

    def test_served_cells_get_their_own_line(self, capsys, clean_registry):
        clean_registry.increment("cache.cells_served", 50)
        assert self._lines(capsys) == [
            "[cache: 0 hit(s), 0 miss(es), hit rate 0.0%]",
            "[cells: 50 served from the cache]",
        ]

    def test_degraded_line_names_every_fallback(self, capsys, clean_registry):
        clean_registry.increment("campaign.inline_fallbacks", 2)
        clean_registry.increment("cache.disk_errors", 4)
        lines = self._lines(capsys)
        assert lines[-1] == (
            "[degraded: 2 cell(s) re-run inline after worker failures, "
            "4 cache disk error(s)]"
        )

    def test_each_in_process_call_reports_only_itself(self, capsys, tmp_path):
        """The registry is process-wide, yet a call's stderr lines and
        summary are its own movement: calls that do the same work report
        alike.  (The process keeps the case's failure log and prepared
        case, so the calls compared follow one that built them.)"""
        summary = tmp_path / "summary.json"
        argv = ["compare", "f1", "--max-rounds", "20", "--jobs", "1",
                "--no-cache", "--no-ledger", "--no-events",
                "--summary-out", str(summary)]
        reports = []
        for _ in range(3):
            assert main(argv) == 0
            lines = capsys.readouterr().err.splitlines()
            reports.append((
                [line for line in lines if not line.startswith("[campaign:")],
                json.loads(summary.read_text())["cache"],
            ))
        assert reports[1] == reports[2]
        lines, cache = reports[2]
        assert lines[0] == (
            f"[cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
            f"hit rate {cache['hit_rate']:.1%}]"
        )
        assert cache["misses"] > 0


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

    @pytest.mark.parametrize(
        "system", ["minizk", "minidfs", "minihbase", "minikafka", "minicass"]
    )
    def test_strict_mode_fails_on_errors(self, capsys, system):
        """Every mini system carries the dataset's seeded fault-handling
        defects, so the full rule set must fail strict mode: exit 1.  Exit
        0 would mean missed defects, exit 2 a crash."""
        code, _out = run_cli(
            capsys, "lint", f"repro.systems.{system}", "--format", "json",
            "--strict",
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

    @pytest.mark.parametrize(
        "system", ["minizk", "minidfs", "minihbase", "minikafka", "minicass"]
    )
    def test_strict_race_rules_flag_every_mini_system(self, capsys, tmp_path, system):
        """Each mini system seeds a maintenance-path module with a known
        lock-order inversion and an await-under-lock, so strict mode
        restricted to the race rules fails on every one of them.  A
        deadlock or race is not an injectable fault: no site ids."""
        out_path = tmp_path / f"races_{system}.json"
        code = main([
            "lint", f"repro.systems.{system}",
            "--rules", "lock-order-inversion,await-under-lock",
            "--strict", "--format", "json", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert code == 1
        findings = json.loads(out_path.read_text())["findings"]
        rules = [finding["rule"] for finding in findings]
        assert rules.count("lock-order-inversion") >= 2, rules
        assert rules.count("await-under-lock") >= 1, rules
        assert all(not finding["site_ids"] for finding in findings)


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

    def test_one_case_per_system_is_sound(self, capsys):
        """No dynamic contradiction, and pruning stays inside a non-empty
        graph's space, on one case per mini system."""
        code, out = run_cli(
            capsys, "analyze", "f1,f9,f13,f19,f22", "--format", "json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["contradictions"] == 0
        assert document["case_count"] == 5
        for case_id, case in document["cases"].items():
            coverage = case["coverage"]
            assert coverage["pruned_space"] <= coverage["space"], case_id
            assert case["graph"]["pairs"] > 0, case_id

    def test_a_warm_cache_dir_still_reports_the_flow_build_time(self, tmp_path):
        """The flow graph is built in every process and persisted nowhere,
        so a run over a warm ``--cache-dir`` reports a real build time."""
        command = [
            sys.executable, "-m", "repro", "analyze", "f1", "--format", "json",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        env = dict(os.environ, PYTHONPATH=SRC)
        for _ in range(2):
            finished = subprocess.run(
                command, env=env, capture_output=True, text=True, check=True,
                timeout=120,
            )
            graph = json.loads(finished.stdout)["cases"]["f1"]["graph"]
            assert graph["build_seconds"] > 0
        assert sorted(path.name for path in (tmp_path / "cache").iterdir()
                      if path.is_dir()) == ["facts"]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "f1", "--radius", "-1"],
            ["analyze", "f1", "--radius", "nan"],
            *(
                [command, "f1", "--max-rounds", "-3"]
                for command in (
                    "reproduce", "compare", "trace", "explain", "analyze",
                )
            ),
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[2:]),
    )
    def test_an_out_of_range_number_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "zero or more" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--early-verdict", "--no-early-verdict"])
    def test_compare_still_parses_the_retired_early_verdict_flag(self, flag):
        from repro.__main__ import build_parser

        build_parser().parse_args(["compare", "f1", flag])


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
        # --no-cache: a second run computes again rather than being served
        # from the cells tier, whose stream carries no round events.
        run_cli(capsys, "reproduce", "f4", "--no-cache")
        first = len(event_bus.read_events(str(isolated_events)))
        run_cli(capsys, "reproduce", "f4", "--no-cache")
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
