"""Tests for the concurrency rule pack (lock order, await, handler races)."""

import textwrap

import pytest

from repro.analysis.ast_facts import extract_module_facts
from repro.analysis.lint import lint_package, run_lint
from repro.analysis.system_model import SystemModel


def build(source, module="m", path="m.py"):
    return SystemModel([extract_module_facts(module, path, textwrap.dedent(source))])


def findings_of(model, rule_id):
    return run_lint(model, rules=[rule_id]).findings


class TestLockOrderInversion:
    def test_abba_nesting_fires_on_both_paths(self):
        model = build(
            """
            class Gate:
                def forward(self):
                    yield self.alpha_lock.acquire()
                    yield self.beta_lock.acquire()
                    self.beta_lock.release()
                    self.alpha_lock.release()

                def backward(self):
                    yield self.beta_lock.acquire()
                    yield self.alpha_lock.acquire()
                    self.alpha_lock.release()
                    self.beta_lock.release()
            """
        )
        findings = findings_of(model, "lock-order-inversion")
        assert len(findings) == 2
        assert all(f.severity == "error" for f in findings)
        assert all(f.site_ids == () for f in findings)
        assert {f.function.rsplit(".", 1)[-1] for f in findings} == {
            "forward",
            "backward",
        }

    def test_consistent_order_is_clean(self):
        model = build(
            """
            class Gate:
                def first(self):
                    yield self.alpha_lock.acquire()
                    yield self.beta_lock.acquire()
                    self.beta_lock.release()
                    self.alpha_lock.release()

                def second(self):
                    yield self.alpha_lock.acquire()
                    yield self.beta_lock.acquire()
                    self.beta_lock.release()
                    self.alpha_lock.release()
            """
        )
        assert findings_of(model, "lock-order-inversion") == []

    def test_release_between_acquisitions_is_clean(self):
        model = build(
            """
            class Gate:
                def forward(self):
                    yield self.alpha_lock.acquire()
                    self.alpha_lock.release()
                    yield self.beta_lock.acquire()
                    self.beta_lock.release()

                def backward(self):
                    yield self.beta_lock.acquire()
                    self.beta_lock.release()
                    yield self.alpha_lock.acquire()
                    self.alpha_lock.release()
            """
        )
        assert findings_of(model, "lock-order-inversion") == []


class TestAwaitUnderLock:
    def test_queue_get_under_lock_fires(self):
        model = build(
            """
            class Pump:
                def feed(self, item):
                    self.inbox.put(item)

                def pull(self):
                    yield self.table_lock.acquire()
                    item = yield self.inbox.get()
                    self.table_lock.release()
                    return item
            """
        )
        findings = findings_of(model, "await-under-lock")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert findings[0].site_ids == ()
        assert "table_lock" in findings[0].message

    def test_get_on_non_queue_receiver_is_clean(self):
        model = build(
            """
            class Cache:
                def lookup(self, key):
                    yield self.cache_lock.acquire()
                    value = self.entries.get(key)
                    self.cache_lock.release()
                    return value
            """
        )
        assert findings_of(model, "await-under-lock") == []

    def test_join_under_lock_fires(self):
        model = build(
            """
            class Runner:
                def drain(self):
                    yield self.state_lock.acquire()
                    yield self.worker.join()
                    self.state_lock.release()
            """
        )
        findings = findings_of(model, "await-under-lock")
        assert len(findings) == 1
        assert "join" in findings[0].message

    def test_blocking_after_release_is_clean(self):
        model = build(
            """
            class Runner:
                def drain(self):
                    yield self.state_lock.acquire()
                    self.state_lock.release()
                    yield self.worker.join()
            """
        )
        assert findings_of(model, "await-under-lock") == []


class TestHandlerUnsyncWrite:
    RACY = """
    class Executor:
        def boot(self):
            self.cluster.spawn("exec-loop", self.poll_loop())

        def poll_loop(self):
            while self.aborted:
                self.idle()

        def persist(self):
            try:
                self.env.disk_write("/p", b"s")
            except IOException as error:
                self.aborted = True
                self.log.warn("failed: %s", error)
    """

    def test_unlocked_handler_write_raced_by_spawned_reader_fires(self):
        findings = findings_of(build(self.RACY), "handler-unsync-write")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert findings[0].site_ids == ()
        assert "'aborted'" in findings[0].message

    def test_write_under_lock_is_clean(self):
        model = build(
            """
            class Executor:
                def boot(self):
                    self.cluster.spawn("exec-loop", self.poll_loop())

                def poll_loop(self):
                    while self.aborted:
                        self.idle()

                def persist(self):
                    try:
                        self.env.disk_write("/p", b"s")
                    except IOException as error:
                        yield self.state_lock.acquire()
                        self.aborted = True
                        self.state_lock.release()
                        self.log.warn("failed: %s", error)
            """
        )
        assert findings_of(model, "handler-unsync-write") == []

    def test_reader_on_same_task_is_clean(self):
        # Without any spawn, writer and reader share one task: no race.
        model = build(
            """
            class Executor:
                def poll_loop(self):
                    while self.aborted:
                        self.idle()

                def persist(self):
                    try:
                        self.env.disk_write("/p", b"s")
                    except IOException as error:
                        self.aborted = True
                        self.log.warn("failed: %s", error)
            """
        )
        assert findings_of(model, "handler-unsync-write") == []


@pytest.mark.parametrize(
    "package, module",
    [
        ("repro.systems.minizk", "session_sweeper"),
        ("repro.systems.minidfs", "lease_janitor"),
        ("repro.systems.minihbase", "compaction_gate"),
        ("repro.systems.minikafka", "group_sweeper"),
        ("repro.systems.minicass", "repair_gate"),
    ],
)
class TestSeededDefects:
    """Every mini system ships one maintenance module with seeded races."""

    def test_lock_order_inversion_found_in_seeded_module(self, package, module):
        report = lint_package(package, rules=["lock-order-inversion"])
        assert len(report.findings) == 2
        assert all(module in f.file for f in report.findings)

    def test_await_under_lock_found_in_seeded_module(self, package, module):
        report = lint_package(package, rules=["await-under-lock"])
        assert len(report.findings) == 1
        assert module in report.findings[0].file

    def test_seeded_module_implicates_no_fault_sites(self, package, module):
        report = lint_package(
            package,
            rules=[
                "lock-order-inversion",
                "await-under-lock",
                "handler-unsync-write",
            ],
        )
        assert all(not finding.site_ids for finding in report.findings)
