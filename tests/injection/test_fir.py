"""Unit tests for fault-site identity, plans, and the FIR runtime."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.fir import (
    FIR,
    InjectionPlan,
    ProbeTrace,
    TraceEvent,
    dedupe_instances,
    is_injected,
)
from repro.injection.sites import (
    FaultCandidate,
    FaultInstance,
    SiteRef,
    normalize_path,
)
from repro.sim.errors import IOException, SocketException


def make_site(line=10, function="write", op="disk_write"):
    return SiteRef(file="repro/systems/x/y.py", line=line, function=function, op=op)


class TestSiteIdentity:
    def test_site_id_shape(self):
        site = make_site()
        assert site.site_id == "repro/systems/x/y.py:10:write:disk_write"

    def test_normalize_strips_install_prefix(self):
        path = "/opt/venv/lib/python3.11/site-packages/repro/systems/m/a.py"
        assert normalize_path(path) == "repro/systems/m/a.py"

    def test_normalize_handles_src_layout(self):
        path = "/root/repo/src/repro/sim/env.py"
        assert normalize_path(path) == "repro/sim/env.py"

    def test_normalize_fallback_is_basename(self):
        assert normalize_path("/somewhere/else/mod.py") == "mod.py"

    def test_normalize_does_not_anchor_at_a_repro_home_directory(self):
        # A checkout under a user named "repro" must not be split at the
        # home directory: "work" is not a top-level package entry.
        path = "/home/repro/work/notes/mod.py"
        assert normalize_path(path) == "mod.py"

    def test_normalize_anchors_rightmost_package_segment(self):
        # Only the /repro/ segment whose remainder starts with a real
        # package entry anchors — not the user's home directory.
        path = "/home/repro/venv/site-packages/repro/sim/env.py"
        assert normalize_path(path) == "repro/sim/env.py"

    def test_normalize_windows_separators(self):
        path = r"C:\venv\Lib\site-packages\repro\systems\m\a.py"
        assert normalize_path(path) == "repro/systems/m/a.py"

    def test_instance_and_candidate_strings(self):
        instance = FaultInstance("s", "IOException", 3)
        assert str(instance) == "s!IOException@3"
        assert instance.candidate == FaultCandidate("s", "IOException")


class TestInjectionPlan:
    def test_match_by_site_and_occurrence(self):
        plan = InjectionPlan.single(FaultInstance("a", "IOException", 2))
        assert plan.match("a", 2) is not None
        assert plan.match("a", 1) is None
        assert plan.match("b", 2) is None

    def test_window_plan_matches_any(self):
        plan = InjectionPlan.of(
            [
                FaultInstance("a", "IOException", 1),
                FaultInstance("b", "SocketException", 4),
            ]
        )
        assert plan.match("b", 4).exception == "SocketException"

    def test_duplicate_instance_key_rejected(self):
        # Same (site, occurrence) with different exceptions: the old
        # dict-backed lookup silently kept only the last one, making the
        # first entry uninjectable.  Construction must fail instead.
        with pytest.raises(ValueError, match="duplicate"):
            InjectionPlan.of(
                [
                    FaultInstance("a", "IOException", 1),
                    FaultInstance("a", "SocketException", 1),
                ]
            )

    def test_duplicate_always_instance_rejected(self):
        with pytest.raises(ValueError, match="duplicate always"):
            InjectionPlan.of(
                [FaultInstance("a", "IOException", 1)],
                always=[
                    FaultInstance("b", "IOException", 2),
                    FaultInstance("b", "SocketException", 2),
                ],
            )

    def test_same_site_different_occurrences_allowed(self):
        plan = InjectionPlan.of(
            [
                FaultInstance("a", "IOException", 1),
                FaultInstance("a", "IOException", 2),
            ]
        )
        assert plan.match("a", 1) is not None
        assert plan.match("a", 2) is not None


class TestDedupeInstances:
    def test_first_entry_wins(self):
        # Windows are assembled highest-priority-first, so the kept
        # duplicate must be the first one.
        kept = dedupe_instances(
            [
                FaultInstance("a", "IOException", 1),
                FaultInstance("a", "SocketException", 1),
                FaultInstance("b", "IOException", 2),
            ]
        )
        assert kept == [
            FaultInstance("a", "IOException", 1),
            FaultInstance("b", "IOException", 2),
        ]

    def test_no_duplicates_is_identity(self):
        window = [
            FaultInstance("a", "IOException", 1),
            FaultInstance("a", "IOException", 2),
            FaultInstance("b", "SocketException", 1),
        ]
        assert dedupe_instances(window) == window

    def test_deduped_window_builds_a_plan(self):
        window = [
            FaultInstance("a", "IOException", 1),
            FaultInstance("a", "SocketException", 1),
        ]
        plan = InjectionPlan.of(dedupe_instances(window))
        assert plan.match("a", 1).exception == "IOException"


class TestFir:
    def make_fir(self, plan=None):
        fir = FIR()
        fir.bind(log_index_fn=lambda: 7, clock=lambda: 1.5)
        fir.set_plan(plan)
        return fir

    def test_occurrence_counting(self):
        fir = self.make_fir()
        site = make_site()
        for _ in range(3):
            fir.on_site(site)
        assert fir.occurrences_of(site.site_id) == 3
        assert [event.occurrence for event in fir.trace] == [1, 2, 3]

    def test_trace_carries_time_and_log_index(self):
        fir = self.make_fir()
        fir.on_site(make_site())
        event = fir.trace[0]
        assert event.time == 1.5
        assert event.log_index == 7

    def test_injection_fires_once(self):
        site = make_site()
        plan = InjectionPlan.single(FaultInstance(site.site_id, "IOException", 2))
        fir = self.make_fir(plan)
        fir.on_site(site)  # occurrence 1: no injection
        with pytest.raises(IOException) as excinfo:
            fir.on_site(site)
        assert is_injected(excinfo.value)
        assert fir.fired is not None
        # Later occurrences do not fire again.
        fir.on_site(site)
        assert fir.occurrences_of(site.site_id) == 3

    def test_injected_exception_type(self):
        site = make_site(op="sock_send")
        plan = InjectionPlan.single(
            FaultInstance(site.site_id, "SocketException", 1)
        )
        fir = self.make_fir(plan)
        with pytest.raises(SocketException):
            fir.on_site(site)

    def test_unknown_exception_name_rejected(self):
        site = make_site()
        plan = InjectionPlan.single(FaultInstance(site.site_id, "NoSuch", 1))
        fir = self.make_fir(plan)
        with pytest.raises(ValueError):
            fir.on_site(site)

    def test_request_counting_and_latency(self):
        fir = self.make_fir()
        for _ in range(5):
            fir.on_site(make_site())
        assert fir.request_count == 5
        assert fir.dynamic_instance_count() == 5
        assert fir.mean_decision_latency >= 0.0

    def test_decision_timing_only_sampled_under_profiling(self):
        from repro.obs import TraceRecorder

        fir = self.make_fir()
        fir.on_site(make_site())
        assert fir.decision_seconds == 0.0  # hot path pays no clock reads
        fir.recorder = TraceRecorder()
        fir.on_site(make_site())
        assert fir.decision_seconds > 0.0

    def test_injection_decision_recorded_as_event(self):
        from repro.obs import TraceRecorder

        site = make_site()
        plan = InjectionPlan.single(FaultInstance(site.site_id, "IOException", 1))
        fir = self.make_fir(plan)
        fir.recorder = recorder = TraceRecorder()
        with pytest.raises(IOException):
            fir.on_site(site)
        (event,) = recorder.events
        assert event.name == "fir.inject"
        assert event.args["site"] == site.site_id
        assert event.args["occurrence"] == 1
        assert event.args["exception"] == "IOException"
        assert event.time == 1.5  # virtual clock bound in make_fir

    def test_trigger_ordinals_start_at_one(self):
        """``set_trigger`` takes a 1-based request ordinal: 0 is refused,
        and 1 is accepted and fires, once, at the first request."""
        fir = self.make_fir()
        with pytest.raises(ValueError):
            fir.set_trigger(0, lambda _fir: None)
        reached = []
        fir.set_trigger(1, lambda hooked: reached.append(hooked.request_count))
        fir.on_site(make_site())
        fir.on_site(make_site())
        assert reached == [1]

    def test_different_sites_count_independently(self):
        fir = self.make_fir()
        fir.on_site(make_site(line=1))
        fir.on_site(make_site(line=2))
        fir.on_site(make_site(line=1))
        assert fir.occurrences_of("repro/systems/x/y.py:1:write:disk_write") == 2
        assert fir.occurrences_of("repro/systems/x/y.py:2:write:disk_write") == 1


def recorded(lines):
    """The trace a FIR records for sites at ``lines``: request ``i`` runs
    at time ``i / 2`` after ``10 * i`` log records."""
    fir = FIR()
    clock = iter(range(len(lines)))
    ticks = iter(range(len(lines)))
    fir.bind(log_index_fn=lambda: 10 * next(ticks), clock=lambda: next(clock) / 2)
    for line in lines:
        fir.on_site(make_site(line=line))
    return fir.trace


def site_id(line):
    return make_site(line=line).site_id


class TestProbeTrace:
    def test_the_fir_records_three_columns(self):
        trace = recorded([1, 2, 1, 3, 1])
        assert trace.sites == [site_id(line) for line in (1, 2, 1, 3, 1)]
        assert list(trace.times) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert list(trace.log_indices) == [0, 10, 20, 30, 40]

    def test_rows_number_each_sites_occurrences(self):
        trace = recorded([1, 2, 1, 3, 1])
        rows = [(event.site_id, event.occurrence) for event in trace]
        assert rows == [
            (site_id(1), 1), (site_id(2), 1), (site_id(1), 2),
            (site_id(3), 1), (site_id(1), 3),
        ]
        assert trace[2] == TraceEvent(site_id(1), 2, 1.0, 20)
        assert trace[-1] == TraceEvent(site_id(1), 3, 2.0, 40)
        assert trace[3:] == [trace[3], trace[4]]
        with pytest.raises(IndexError):
            trace[5]

    def test_the_per_site_index_places_each_occurrence(self):
        trace = recorded([1, 2, 1, 3, 1])
        assert list(trace.positions(site_id(1))) == [0, 2, 4]
        assert trace.ordinal(site_id(1), 2) == 3
        assert trace.ordinal(site_id(3), 1) == 4
        assert trace.ordinal(site_id(1), 4) is None
        assert trace.ordinal(site_id(1), 0) is None
        assert trace.ordinal(site_id(9), 1) is None
        assert not trace.positions(site_id(9))

    def test_the_index_follows_a_trace_that_grew_after_a_read(self):
        fir = FIR()
        fir.on_site(make_site(line=1))
        assert fir.trace.ordinal(site_id(1), 2) is None
        fir.on_site(make_site(line=2))
        fir.on_site(make_site(line=1))
        assert fir.trace.ordinal(site_id(1), 2) == 3

    def test_pickles_as_its_columns(self):
        trace = recorded([1, 2, 1])
        trace.positions(site_id(1))  # build the index before pickling
        copy = pickle.loads(pickle.dumps(trace, pickle.HIGHEST_PROTOCOL))
        assert copy == trace and copy is not trace
        assert copy.ordinal(site_id(1), 2) == 3

    def test_equality(self):
        trace = recorded([1, 2, 1])
        assert trace == recorded([1, 2, 1])
        assert trace != recorded([1, 1, 2])
        assert trace == list(trace)
        assert ProbeTrace() == []

    def test_of_round_trips_rows_and_rejects_misnumbered_ones(self):
        trace = recorded([1, 2, 1])
        assert ProbeTrace.of(trace) == trace
        with pytest.raises(ValueError):
            ProbeTrace.of([TraceEvent(site_id(1), 2, 0.0, 0)])


@given(st.lists(st.integers(1, 5), max_size=60))
@settings(max_examples=150, deadline=None)
def test_ordinal_matches_a_linear_scan(lines):
    trace = recorded(lines)
    for line in set(lines) | {6}:
        seen = [i + 1 for i, other in enumerate(lines) if other == line]
        for occurrence in range(len(seen) + 2):
            expected = seen[occurrence - 1] if 0 < occurrence <= len(seen) else None
            assert trace.ordinal(site_id(line), occurrence) == expected


class TestPlanSerialization:
    """Plans cross process boundaries in the parallel engine — both as
    primitive payloads (worker submissions) and via pickle (campaign
    fan-out) — and serve as run-cache keys."""

    def _plan(self):
        return InjectionPlan.single(
            FaultInstance("repro/systems/x/y.py:7:write:disk_write",
                          "IOException", 2)
        )

    def test_payload_roundtrip(self):
        plan = self._plan()
        rebuilt = InjectionPlan.from_payload(plan.to_payload())
        assert rebuilt.instances == plan.instances
        assert rebuilt.key() == plan.key()

    def test_key_distinguishes_plans(self):
        a = self._plan()
        b = InjectionPlan.single(
            FaultInstance("repro/systems/x/y.py:7:write:disk_write",
                          "IOException", 3)
        )
        assert a.key() != b.key()
        assert a.key() == InjectionPlan.from_payload(a.to_payload()).key()

    def test_pickle_roundtrip_rebuilds_lookup(self):
        import pickle

        plan = self._plan()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.instances == plan.instances
        # The rebuilt lookup still resolves the armed instance.
        site = make_site(line=7)
        fir = FIR()
        fir.bind(log_index_fn=lambda: 0, clock=lambda: 0.0)
        fir.set_plan(clone)
        fir.on_site(site)  # occurrence 1: armed but not yet due
        with pytest.raises(IOException):
            fir.on_site(site)
