"""Fault-spec identity, soft-fault FIR behavior, and serialization
round-trips (Hypothesis-backed) for the generalized (site, fault-spec,
occurrence) fault identity."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.fir import FIR, InjectionPlan
from repro.injection.sites import (
    CORRUPT_PREFIX,
    FaultInstance,
    FaultSpec,
    SiteRef,
    canonical_spec,
    is_corruption_spec,
    parse_fault_spec,
)
from repro.injection.corruptions import CORRUPTIONS, ENV_OP_CORRUPTIONS
from repro.sim.errors import IOException


def make_site(line=10, function="write", op="disk_read"):
    return SiteRef(file="repro/systems/x/y.py", line=line, function=function, op=op)


class TestFaultSpecParsing:
    def test_bare_name_is_a_raise_spec(self):
        spec = parse_fault_spec("IOException")
        assert spec == FaultSpec("raise", "IOException")
        assert spec.spec_id == "IOException"

    def test_raise_prefix_collapses_to_bare_name(self):
        # Canonical form of a raise spec is the bare name — this is what
        # keeps legacy (site, exception) payloads byte-identical.
        assert canonical_spec("raise:IOException") == "IOException"
        assert canonical_spec("IOException") == "IOException"

    def test_corrupt_spec_keeps_prefix(self):
        spec = parse_fault_spec("corrupt:truncate_read")
        assert spec == FaultSpec("corrupt", "truncate_read")
        assert spec.spec_id == "corrupt:truncate_read"
        assert canonical_spec("corrupt:truncate_read") == "corrupt:truncate_read"

    def test_is_corruption_spec(self):
        assert is_corruption_spec("corrupt:bitflip_field")
        assert not is_corruption_spec("IOException")
        assert not is_corruption_spec("raise:IOException")

    def test_instance_exception_alias_returns_spec(self):
        instance = FaultInstance("s", "corrupt:stale_payload", 2)
        assert instance.exception == "corrupt:stale_payload"
        assert instance.is_corruption
        assert instance.fault_spec.name == "stale_payload"
        assert str(instance) == "s!corrupt:stale_payload@2"


class TestSoftFaultFir:
    def make_fir(self, plan=None):
        fir = FIR()
        fir.bind(log_index_fn=lambda: 0, clock=lambda: 0.0)
        fir.set_plan(plan)
        return fir

    def test_corruption_returns_applier_instead_of_raising(self):
        site = make_site()
        plan = InjectionPlan.single(
            FaultInstance(site.site_id, "corrupt:truncate_read", 2)
        )
        fir = self.make_fir(plan)
        assert fir.on_site(site) is None  # occurrence 1: not yet due
        applier = fir.on_site(site)
        assert applier is CORRUPTIONS["truncate_read"]
        assert fir.fired is not None
        assert fir.fired.spec == "corrupt:truncate_read"
        # Single shot: later occurrences see no applier.
        assert fir.on_site(site) is None

    def test_unsupported_op_keeps_window_armed(self):
        # A corruption planned at an op that cannot carry it must be a
        # non-match (window stays armed), not an invisible "fire".
        write_site = make_site(line=5, op="disk_write")
        read_site = make_site(line=6, op="disk_read")
        plan = InjectionPlan.of(
            [
                FaultInstance(write_site.site_id, "corrupt:truncate_read", 1),
                FaultInstance(read_site.site_id, "corrupt:truncate_read", 1),
            ]
        )
        fir = self.make_fir(plan)
        assert fir.on_site(write_site) is None
        assert fir.fired is None
        assert fir.on_site(read_site) is not None
        assert fir.fired.site_id == read_site.site_id

    def test_mixed_window_exception_and_corruption(self):
        raise_site = make_site(line=5)
        corrupt_site = make_site(line=6)
        plan = InjectionPlan.of(
            [
                FaultInstance(raise_site.site_id, "IOException", 1),
                FaultInstance(corrupt_site.site_id, "corrupt:bitflip_field", 1),
            ]
        )
        fir = self.make_fir(plan)
        with pytest.raises(IOException):
            fir.on_site(raise_site)
        # The raise fired first; the corruption entry is disarmed.
        assert fir.on_site(corrupt_site) is None


# ----------------------------------------------------------- hypothesis

SPEC_STRATEGY = st.one_of(
    st.sampled_from(
        ["IOException", "SocketException", "EOFException",
         "FileNotFoundException", "InterruptedException"]
    ),
    st.sampled_from(sorted(CORRUPTIONS)).map(lambda kind: CORRUPT_PREFIX + kind),
)

SITE_STRATEGY = st.builds(
    lambda module, line, function, op: f"repro/systems/{module}.py:{line}:{function}:{op}",
    st.sampled_from(["minizk/a", "minidfs/b", "minikafka/c"]),
    st.integers(min_value=1, max_value=500),
    st.sampled_from(["read_loop", "serve", "commit"]),
    st.sampled_from(sorted(set(ENV_OP_CORRUPTIONS) | {"disk_write", "sock_send"})),
)

INSTANCE_STRATEGY = st.builds(
    FaultInstance,
    SITE_STRATEGY,
    SPEC_STRATEGY,
    st.integers(min_value=1, max_value=1000),
)


def _unique_window(instances):
    """Plans reject duplicate (site, occurrence) keys; keep the first."""
    seen = set()
    window = []
    for instance in instances:
        key = (instance.site_id, instance.occurrence)
        if key not in seen:
            seen.add(key)
            window.append(instance)
    return window


PLAN_STRATEGY = st.builds(
    lambda instances, always: InjectionPlan.of(
        _unique_window(instances),
        [
            inst
            for inst in _unique_window(always)
            if all(
                (inst.site_id, inst.occurrence) != (w.site_id, w.occurrence)
                for w in _unique_window(instances)
            )
        ],
    ),
    st.lists(INSTANCE_STRATEGY, max_size=6),
    st.lists(INSTANCE_STRATEGY, max_size=3),
)


class TestSpecRoundTrips:
    @given(spec=SPEC_STRATEGY)
    def test_canonical_spec_is_idempotent(self, spec):
        assert canonical_spec(spec) == spec
        assert canonical_spec(canonical_spec(spec)) == canonical_spec(spec)
        assert parse_fault_spec(spec).spec_id == spec

    @given(plan=PLAN_STRATEGY)
    @settings(max_examples=50)
    def test_payload_roundtrip_preserves_identity(self, plan):
        rebuilt = InjectionPlan.from_payload(plan.to_payload())
        assert rebuilt.instances == plan.instances
        assert rebuilt.always == plan.always
        assert rebuilt.key() == plan.key()

    @given(plan=PLAN_STRATEGY)
    @settings(max_examples=50)
    def test_payload_survives_json(self, plan):
        # Worker submissions serialize payloads; a JSON trip must not
        # change the key (tuples become lists and are rebuilt).
        payload = json.loads(json.dumps(plan.to_payload()))
        payload = {
            "instances": [tuple(item) for item in payload["instances"]],
            "always": [tuple(item) for item in payload["always"]],
        }
        assert InjectionPlan.from_payload(payload).key() == plan.key()

    @given(plan=PLAN_STRATEGY)
    @settings(max_examples=50)
    def test_pickle_roundtrip(self, plan):
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.instances == plan.instances
        assert clone.always == plan.always
        assert clone.key() == plan.key()
        for instance in plan.instances:
            assert clone.match(instance.site_id, instance.occurrence) == instance

    @given(instance=INSTANCE_STRATEGY)
    def test_raise_specs_key_like_legacy_triples(self, instance):
        # For the exception dimension the plan key must be value-identical
        # to the pre-spec (site, exception, occurrence) schema.
        key = InjectionPlan.single(instance).key()
        assert key == (
            ((instance.site_id, instance.exception, instance.occurrence),),
            (),
        )


class TestRunCacheKeys:
    @given(a=PLAN_STRATEGY, b=PLAN_STRATEGY)
    @settings(max_examples=50)
    def test_cache_key_equality_tracks_plan_identity(self, a, b):
        from repro.cache.runcache import RunCache

        cache = RunCache()

        def workload():
            pass

        key_a = cache._key(workload, 10.0, 0, a)
        key_b = cache._key(workload, 10.0, 0, b)
        assert (key_a == key_b) == (a.key() == b.key())

    @given(plan=PLAN_STRATEGY)
    @settings(max_examples=50)
    def test_entry_name_is_stable(self, plan):
        from repro.cache.runcache import RunCache

        cache = RunCache()

        def workload():
            pass

        key = cache._key(workload, 10.0, 0, plan)
        assert cache._name(key) == cache._name(key)
