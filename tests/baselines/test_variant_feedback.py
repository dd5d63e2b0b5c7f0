"""Behavioral tests for the feedback-carrying ablation variants."""

from repro.baselines import MultiplyFeedback, SiteFeedback, build_context
from repro.failures import get_case
from repro.logs.record import Level, LogFile, LogRecord
from repro.sim.cluster import RunResult


def fake_result(messages):
    log = LogFile()
    for index, message in enumerate(messages):
        log.append(LogRecord(index * 0.1, "main", Level.INFO, message))
    return RunResult(
        log=log,
        trace=[],
        injected=True,
        injected_instance=None,
        stuck=[],
        crashed=[],
        state={},
        end_time=1.0,
        site_counts={},
    )


class TestSiteFeedback:
    def test_window_contains_one_instance_per_site(self):
        context = build_context(get_case("f17"))
        strategy = SiteFeedback()
        strategy.prepare(context)
        window = strategy.next_window()
        assert window
        sites = [(i.site_id, i.exception) for i in window]
        assert len(sites) == len(set(sites))

    def test_observe_marks_injected_as_tried(self):
        context = build_context(get_case("f17"))
        strategy = SiteFeedback()
        strategy.prepare(context)
        window = strategy.window()
        first = window[0]
        # Tried-marking lives in the base class's feedback(), which the
        # round loop calls; observe() only carries the variant's own state.
        strategy.feedback(window, fake_result([]), first, False)
        follow_up = strategy.window()
        keys = {(i.site_id, i.exception, i.occurrence) for i in follow_up}
        assert (first.site_id, first.exception, first.occurrence) not in keys

    def test_feedback_changes_priorities(self):
        context = build_context(get_case("f17"))
        strategy = SiteFeedback()
        strategy.prepare(context)
        before = [observable for observable in context.observables.keys()]
        priorities_before = {
            key: context.observables.priority(key) for key in before
        }
        # A failed round whose log reproduces the failure log's content
        # (same threads, same messages) deprioritizes every observable.
        mimic = fake_result([])
        mimic.log = context.case.failure_log()
        strategy.observe(mimic, strategy.next_window()[0], False)
        priorities_after = {
            key: context.observables.priority(key) for key in before
        }
        assert priorities_after != priorities_before


class TestMultiplyFeedback:
    def test_window_is_flat_instance_ranking(self):
        context = build_context(get_case("f17"))
        strategy = MultiplyFeedback()
        strategy.prepare(context)
        window = strategy.next_window()
        assert len(window) > 1
        # Unlike the two-level scheme, several instances of the same site
        # can dominate the flat combined ranking.
        assert len({i.site_id for i in window}) <= len(window)

    def test_exhaustion(self):
        context = build_context(get_case("f13"))
        strategy = MultiplyFeedback()
        strategy.prepare(context)
        for _ in range(2000):
            window = strategy.window()
            if not window:
                break
            strategy.feedback(window, fake_result([]), window[0], False)
        assert strategy.window() == []
        assert strategy.next_window() == []
