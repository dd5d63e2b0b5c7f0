"""Tests for the in-simulation logger and stack-trace rendering."""

from repro.logs.record import Level
from repro.sim import env as env_module
from repro.sim.cluster import Cluster
from repro.sim.env import clear_site_cache
from repro.sim.errors import ExecutionException, IOException
from repro.sim.slog import render_stack_trace


def raise_nested():
    def inner():
        raise IOException("disk gone")

    def outer():
        inner()

    try:
        outer()
    except IOException as error:
        return error


class TestStackTraceRendering:
    def test_java_style_frames(self):
        text = render_stack_trace(raise_nested())
        assert text.startswith("IOException: disk gone")
        assert "\tat inner(" in text
        assert "\tat outer(" in text

    def test_cause_chain_rendered(self):
        error = ExecutionException(IOException("root cause"))
        text = render_stack_trace(error)
        assert "Caused by: IOException: root cause" in text

    def test_frame_order_outer_to_inner(self):
        text = render_stack_trace(raise_nested())
        assert text.index("at outer(") < text.index("at inner(")


class TestSimLogger:
    def test_thread_attribution(self):
        cluster = Cluster()
        log = cluster.logger()

        def task():
            log.info("from the task")
            yield cluster.sleep(0.0)

        cluster.spawn("my-task", task())
        log.info("from main")
        result = cluster.run(horizon=1.0)
        by_thread = {r.message: r.thread for r in result.log}
        assert by_thread["from the task"] == "my-task"
        assert by_thread["from main"] == "main"

    def test_levels_and_formatting(self):
        cluster = Cluster()
        log = cluster.logger()
        log.warn("count is %d of %d", 3, 10)
        log.error("plain")
        records = cluster.collector.log.records
        assert records[0].level is Level.WARN
        assert records[0].message == "count is 3 of 10"
        assert records[1].level is Level.ERROR

    def test_exception_logging_appends_trace(self):
        cluster = Cluster()
        log = cluster.logger()
        log.exception("it broke: %s", "badly", exc=raise_nested())
        message = cluster.collector.log.records[0].message
        assert message.startswith("it broke: badly")
        assert "IOException: disk gone" in message
        assert "\tat inner(" in message

    def test_source_ref_points_at_caller(self):
        cluster = Cluster()
        log = cluster.logger()
        log.info("here")
        source = cluster.collector.log.records[0].source
        assert source is not None
        assert source.file.endswith("test_slog.py")
        assert source.function == "test_source_ref_points_at_caller"

    def test_one_call_site_shares_one_source_ref(self):
        cluster = Cluster()
        log = cluster.logger()

        def emit(count):
            log.info("line %d", count)

        emit(1)
        emit(2)
        first, second = cluster.collector.log.records
        assert first.source is second.source
        key = (first.source.file, first.source.line)
        assert env_module._SITE_CACHE[key] is first.source
        # The env's site-cache reset drops the interned source too.
        clear_site_cache()
        assert key not in env_module._SITE_CACHE
        emit(3)
        third = cluster.collector.log.records[-1]
        assert third.source == first.source
        assert third.source is not first.source
