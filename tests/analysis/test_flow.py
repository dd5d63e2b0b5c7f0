"""Tests for the interprocedural fault-propagation pass (flow.py)."""

import textwrap

import pytest

from repro.analysis.ast_facts import extract_module_facts
from repro.analysis.flow import (
    build_propagation_graph,
    task_root_closure,
)
from repro.analysis.system_model import SystemModel


def build(source, module="m", path="m.py"):
    return SystemModel([extract_module_facts(module, path, textwrap.dedent(source))])


WORKER = """
class Worker:
    def boot(self):
        self.cluster.spawn("w-main", self.main())
        self.cluster.spawn("w-reader", self.reader())

    def main(self):
        while self.running:
            self.step()

    def step(self):
        try:
            self.env.disk_append("/log", b"x")
        except IOException as error:
            self.failed = True
            self.log.warn("append failed: %s", error)
            self.mark_degraded()

    def mark_degraded(self):
        self.log.info("degraded mode on")

    def silent(self):
        try:
            self.env.disk_sync("/log")
        except IOException:
            self.retries = 0

    def unguarded(self):
        self.env.disk_write("/meta", b"m")

    def reader(self):
        self.env.disk_read("/data")

    def enqueue(self, item):
        self.work_queue.put(item)

    def drain(self):
        return self.work_queue.get()

    def send_ping(self, peer):
        self.env.sock_send(peer, "ctl", "ping")

    def receive(self):
        return self.env.sock_recv("ctl")
"""


@pytest.fixture(scope="module")
def worker():
    model = build(WORKER)
    return model, build_propagation_graph(model, package="m")


def site_of(model, op):
    return next(e for e in model.env_calls if e.op == op).site_id


def log_template(model, function_suffix):
    return next(
        log.template_id
        for log in model.logs
        if log.function.endswith(function_suffix)
    )


class TestPropagation:
    def test_every_catalog_pair_has_a_path(self, worker):
        model, graph = worker
        expected = {
            (env.site_id, exc)
            for env in model.env_calls
            for exc in env.exception_types
        }
        assert set(graph.paths) == expected

    def test_caught_pair_records_handler_logs_and_mutations(self, worker):
        model, graph = worker
        path = graph.path(site_of(model, "disk_append"), "IOException")
        assert path.handlers and path.handlers[0][2].endswith("Worker.step")
        assert path.logs == (log_template(model, "step"),)
        assert path.callee_logs == (log_template(model, "mark_degraded"),)
        assert [m[2] for m in path.mutations] == ["failed"]
        assert not path.crash
        assert path.all_logs == {
            log_template(model, "step"),
            log_template(model, "mark_degraded"),
        }

    def test_silent_handler_pair_is_dead(self, worker):
        model, graph = worker
        site = site_of(model, "disk_sync")
        assert not graph.pair_live(site, "IOException")
        assert (site, "IOException") in graph.dead_pairs()

    def test_mutation_read_by_a_condition_keeps_pair_live(self):
        model = build(
            """
            class Gate:
                def run(self):
                    while self.stalled:
                        self.tick()

                def persist(self):
                    try:
                        self.env.disk_sync("/wal")
                    except IOException:
                        self.stalled = True
            """
        )
        graph = build_propagation_graph(model)
        assert graph.pair_live(site_of(model, "disk_sync"), "IOException")

    def test_uncaught_escape_from_spawned_task_is_crash(self, worker):
        model, graph = worker
        path = graph.path(site_of(model, "disk_read"), "FileNotFoundException")
        assert path.crash and not path.logs

    def test_uncaught_escape_without_callers_is_crash(self, worker):
        model, graph = worker
        assert graph.path(site_of(model, "disk_write"), "IOException").crash

    def test_unknown_pair_is_conservatively_live(self, worker):
        _model, graph = worker
        assert graph.pair_live("no/such.py:1:f:disk_read", "IOException")

    def test_escape_propagates_to_synchronous_caller_handler(self):
        model = build(
            """
            class Node:
                def write(self):
                    self.env.disk_write("/a", b"x")

                def submit(self):
                    try:
                        self.write()
                    except IOException as error:
                        self.log.error("write rejected: %s", error)
            """
        )
        graph = build_propagation_graph(model)
        path = graph.path(site_of(model, "disk_write"), "IOException")
        assert path.logs == (log_template(model, "submit"),)
        assert path.handlers[0][2].endswith("Node.submit")

    def test_typed_reraise_continues_the_walk(self):
        model = build(
            """
            class Node:
                def persist(self):
                    try:
                        self.env.disk_write("/a", b"x")
                    except IOException:
                        raise RuntimeError("fatal")

                def run(self):
                    try:
                        self.persist()
                    except RuntimeError as error:
                        self.log.error("giving up: %s", error)
            """
        )
        graph = build_propagation_graph(model)
        path = graph.path(site_of(model, "disk_write"), "IOException")
        assert log_template(model, "run") in path.logs


class TestCrossEdges:
    def test_spawn_edges(self, worker):
        _model, graph = worker
        targets = {edge.target for edge in graph.edges_of("spawn")}
        assert targets == {"main", "reader"}

    def test_queue_edge_pairs_put_with_get_by_receiver(self, worker):
        _model, graph = worker
        edges = graph.edges_of("queue")
        assert len(edges) == 1
        assert edges[0].channel == "work_queue"
        assert edges[0].source.endswith("Worker.enqueue")
        assert edges[0].target.endswith("Worker.drain")

    def test_message_edge_pairs_send_with_recv(self, worker):
        _model, graph = worker
        edges = graph.edges_of("message")
        assert len(edges) == 1
        assert edges[0].source.endswith("Worker.send_ping")
        assert edges[0].target.endswith("Worker.receive")

    def test_task_root_closure(self, worker):
        model, graph = worker
        closures = task_root_closure(model, graph)
        assert set(closures) == {"main", "reader"}
        main_members = {name.rsplit(".", 1)[-1] for name in closures["main"]}
        assert {"main", "step", "mark_degraded"} <= main_members


class TestSerialization:
    def test_summary_shape(self, worker):
        _model, graph = worker
        summary = graph.summary()
        assert summary["pairs"] == len(graph.paths)
        assert summary["live_pairs"] + summary["dead_pairs"] == summary["pairs"]
        assert set(summary["cross_edges"]) == {"spawn", "queue", "message"}

