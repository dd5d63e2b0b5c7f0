"""Tests for the fault-handling lint pass (rules, report, weights)."""

import dataclasses
import json
import textwrap

import pytest

from repro.analysis.ast_facts import extract_module_facts
from repro.analysis.lint import lint_package, run_lint
from repro.analysis.rules import registered_rules
from repro.analysis.system_model import SystemModel


def build(source, module="m", path="m.py"):
    return SystemModel([extract_module_facts(module, path, textwrap.dedent(source))])


def findings_of(model, rule_id):
    return run_lint(model, rules=[rule_id]).findings


class TestSwallowedException:
    def test_sentinel_return_fires(self):
        model = build(
            """
            class Store:
                def load(self):
                    try:
                        return self.env.disk_read("/data")
                    except IOException:
                        return None
            """
        )
        findings = findings_of(model, "swallowed-exception")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "sentinel" in findings[0].message
        assert findings[0].site_ids == ("m.py:5:load:disk_read",)

    def test_log_only_then_more_work_fires(self):
        model = build(
            """
            class Store:
                def run(self):
                    try:
                        self.env.disk_write("/a", b"x")
                    except IOException as error:
                        self.log.warn("write failed: %s", error)
                    self.state = "done"
            """
        )
        findings = findings_of(model, "swallowed-exception")
        assert len(findings) == 1
        assert "only logs" in findings[0].message

    def test_recovering_handler_is_clean(self):
        model = build(
            """
            class Store:
                def run(self):
                    try:
                        self.env.disk_write("/a", b"x")
                    except IOException:
                        self.recover()
                    self.state = "done"
            """
        )
        assert findings_of(model, "swallowed-exception") == []

    def test_loop_tail_handler_left_to_retry_rule(self):
        model = build(
            """
            class Poller:
                def run(self):
                    while True:
                        try:
                            self.env.sock_recv("raw")
                        except IOException as error:
                            self.log.warn("recv failed: %s", error)
            """
        )
        assert findings_of(model, "swallowed-exception") == []


class TestOverBroadCatch:
    def test_except_exception_around_env_call_fires(self):
        model = build(
            """
            class Store:
                def run(self):
                    try:
                        self.env.disk_read("/data")
                    except Exception:
                        self.recover()
            """
        )
        findings = findings_of(model, "over-broad-catch")
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_typed_catch_is_clean(self):
        model = build(
            """
            class Store:
                def run(self):
                    try:
                        self.env.disk_read("/data")
                    except IOException:
                        self.recover()
            """
        )
        assert findings_of(model, "over-broad-catch") == []


class TestUnboundedRetry:
    def test_tight_spin_is_error(self):
        model = build(
            """
            class Sender:
                def run(self):
                    while True:
                        try:
                            self.env.sock_send("peer", "b", "m")
                        except SocketException as error:
                            self.log.warn("send failed: %s", error)
            """
        )
        findings = findings_of(model, "unbounded-retry")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_paced_retry_is_warning(self):
        model = build(
            """
            class Sender:
                def run(self):
                    while True:
                        try:
                            self.env.sock_send("peer", "b", "m")
                        except SocketException:
                            self.sleep(1.0)
            """
        )
        findings = findings_of(model, "unbounded-retry")
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_capped_loop_is_clean(self):
        model = build(
            """
            class Sender:
                def run(self):
                    while self.attempts < 3:
                        try:
                            self.env.sock_send("peer", "b", "m")
                        except SocketException:
                            self.attempts += 1
            """
        )
        assert findings_of(model, "unbounded-retry") == []


class TestAbortOnHandled:
    def test_reraise_of_tolerated_fault_fires(self):
        model = build(
            """
            class Node:
                def persist(self):
                    try:
                        self.env.disk_write("/a", b"x")
                    except IOException:
                        raise RuntimeError("fatal")

                def best_effort(self):
                    try:
                        self.env.disk_write("/b", b"y")
                    except IOException as error:
                        self.log.warn("ignored: %s", error)
            """
        )
        findings = findings_of(model, "abort-on-handled")
        assert len(findings) == 1
        assert findings[0].function.endswith("persist")
        assert "re-raises" in findings[0].message

    def test_severe_log_and_return_counts_as_escalation(self):
        model = build(
            """
            class Node:
                def persist(self):
                    try:
                        self.env.disk_write("/a", b"x")
                    except IOException as error:
                        self.log.error("severe unrecoverable error: %s", error)
                        return

                def best_effort(self):
                    try:
                        self.env.disk_write("/b", b"y")
                    except IOException as error:
                        self.log.warn("ignored: %s", error)
            """
        )
        findings = findings_of(model, "abort-on-handled")
        assert len(findings) == 1
        assert "gives up" in findings[0].message

    def test_interprocedural_fault_reaches_handler(self):
        model = build(
            """
            class Node:
                def append(self, data):
                    self.env.disk_append("/log", data)

                def submit(self, data):
                    try:
                        self.append(data)
                    except IOException:
                        raise RuntimeError("fatal")

                def best_effort(self):
                    try:
                        self.env.disk_append("/other", b"y")
                    except IOException as error:
                        self.log.warn("ignored: %s", error)
            """
        )
        findings = [
            finding
            for finding in findings_of(model, "abort-on-handled")
            if finding.function.endswith("submit")
        ]
        assert len(findings) == 1
        assert "m.py:4:append:disk_append" in findings[0].site_ids

    def test_no_finding_without_tolerant_sibling(self):
        model = build(
            """
            class Node:
                def persist(self):
                    try:
                        self.env.disk_write("/a", b"x")
                    except IOException:
                        raise RuntimeError("fatal")
            """
        )
        assert findings_of(model, "abort-on-handled") == []


class TestLockAcrossBoundary:
    def test_env_call_while_locked_fires(self):
        model = build(
            """
            class Store:
                def flush(self):
                    self.lock.acquire()
                    self.env.disk_write("/a", b"x")
                    self.lock.release()
            """
        )
        findings = findings_of(model, "lock-across-boundary")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_release_before_env_call_is_clean(self):
        model = build(
            """
            class Store:
                def flush(self):
                    self.lock.acquire()
                    self.buffer = []
                    self.lock.release()
                    self.env.disk_write("/a", b"x")
            """
        )
        assert findings_of(model, "lock-across-boundary") == []


class TestUnhandledEscape:
    def test_uncaught_env_fault_fires(self):
        model = build(
            """
            class Worker:
                def run(self):
                    self.env.disk_read("/data")
            """
        )
        findings = findings_of(model, "unhandled-escape")
        assert len(findings) == 1
        assert "kills the task" in findings[0].message

    def test_caller_handler_suppresses(self):
        model = build(
            """
            class Worker:
                def read(self):
                    return self.env.disk_read("/data")

                def run(self):
                    try:
                        self.read()
                    except IOException:
                        self.recover()
            """
        )
        assert findings_of(model, "unhandled-escape") == []


class TestBlockingHandler:
    def test_wait_in_handler_fires(self):
        model = build(
            """
            class Connector:
                def start(self):
                    try:
                        self.env.sock_recv("raw")
                    except IOException as error:
                        self.log.warn("waiting for update: %s", error)
                        yield self.cond.wait()
            """
        )
        findings = findings_of(model, "blocking-handler")
        assert len(findings) == 1
        assert "hangs forever" in findings[0].message

    def test_handler_without_wait_is_clean(self):
        model = build(
            """
            class Connector:
                def start(self):
                    try:
                        self.env.sock_recv("raw")
                    except IOException as error:
                        self.log.warn("giving up: %s", error)
            """
        )
        assert findings_of(model, "blocking-handler") == []


class TestStickyLatch:
    def test_latch_read_elsewhere_never_cleared_fires(self):
        model = build(
            """
            class Executor:
                def step(self):
                    try:
                        self.env.disk_write("/p", b"s")
                    except IOException as error:
                        self.failed = True
                        self.log.warn("failed: %s", error)

                def run(self):
                    if self.failed:
                        return
                    self.step()
            """
        )
        findings = findings_of(model, "sticky-latch")
        assert len(findings) == 1
        assert "'failed'" in findings[0].message

    def test_cleared_latch_is_clean(self):
        model = build(
            """
            class Executor:
                def step(self):
                    try:
                        self.env.disk_write("/p", b"s")
                    except IOException:
                        self.failed = True
                    self.failed = False

                def run(self):
                    if self.failed:
                        return
                    self.step()
            """
        )
        assert findings_of(model, "sticky-latch") == []

    def test_flag_nobody_reads_is_clean(self):
        model = build(
            """
            class Executor:
                def step(self):
                    try:
                        self.env.disk_write("/p", b"s")
                    except IOException:
                        self.failed = True
            """
        )
        assert findings_of(model, "sticky-latch") == []


class TestRunLint:
    def test_catalog_has_at_least_eight_rules(self):
        assert len(registered_rules()) >= 8

    def test_concurrency_pack_registered(self):
        assert {
            "lock-order-inversion",
            "await-under-lock",
            "handler-unsync-write",
        } <= set(registered_rules())

    def test_unknown_rule_rejected(self):
        model = build("x = 1")
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(model, rules=["no-such-rule"])

    def test_findings_sorted_most_severe_first(self):
        model = build(
            """
            class Store:
                def run(self):
                    try:
                        self.env.disk_read("/data")
                    except Exception as error:
                        self.log.warn("oops: %s", error)
                    self.state = "done"
            """
        )
        report = run_lint(model)
        severities = [finding.severity for finding in report.findings]
        assert severities == sorted(
            severities, key=("error", "warning", "info").index
        )

    def test_min_severity_filters(self):
        model = build(
            """
            class Store:
                def run(self):
                    try:
                        self.env.disk_read("/data")
                    except Exception as error:
                        self.log.warn("oops: %s", error)
                    self.state = "done"
            """
        )
        report = run_lint(model)
        errors_only = report.min_severity("error")
        assert len(errors_only) < len(report)
        assert all(f.severity == "error" for f in errors_only.findings)

    def test_text_and_json_renderings(self):
        report = lint_package("repro.systems.minizk")
        text = report.to_text()
        assert "repro.systems.minizk" in text
        assert "findings" in text
        payload = json.loads(report.to_json())
        assert payload["package"] == "repro.systems.minizk"
        assert payload["finding_count"] == len(report)
        assert payload["findings"][0]["rule"]

    def test_by_rule_groups_in_rule_order(self):
        report = lint_package("repro.systems.minizk")
        grouped = report.by_rule()
        assert tuple(grouped) == report.rule_ids
        assert sum(len(group) for group in grouped.values()) == len(report)

    def test_by_rule_buckets_unknown_rules_with_one_warning(self):
        report = lint_package("repro.systems.minizk")
        stray = dataclasses.replace(report.findings[0], rule="retired-rule")
        report.findings.append(stray)
        with pytest.warns(RuntimeWarning, match="retired-rule"):
            grouped = report.by_rule()
        assert grouped["unknown"] == [stray]
        assert tuple(grouped) == report.rule_ids + ("unknown",)
        # Known findings are unaffected by the stray one.
        assert sum(len(group) for group in grouped.values()) == len(report)
