"""``SearchParams``: one frozen, picklable value per search, and the one
place each knob's range is checked (DESIGN §5.3)."""

import dataclasses
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.parallel import CampaignTask
from repro.core.params import SearchParams
from repro.failures import get_case

VALID = st.builds(
    SearchParams,
    initial_window=st.integers(1, 64),
    adjustment=st.integers(0, 16),
    aggregate=st.sampled_from(["min", "sum"]),
    temporal_mode=st.sampled_from(["messages", "order"]),
    max_instances_per_site=st.none() | st.integers(1, 16),
    runs_per_round=st.integers(1, 16),
    prune=st.sampled_from(["none", "static"]),
    prune_radius=st.integers(0, 100) | st.floats(min_value=0.0, allow_nan=False),
    fault_dims=st.sampled_from([None, "exceptions", "soft", "all"]),
)


def other_than(*valid):
    return st.text(max_size=12).filter(lambda text: text not in valid)


#: Each checked field, values out of its range, and the error it raises.
OUT_OF_RANGE = [
    ("aggregate", other_than("min", "sum"), "aggregate must be 'min' or 'sum'"),
    (
        "temporal_mode",
        other_than("messages", "order"),
        "temporal_mode must be 'messages' or 'order'",
    ),
    ("runs_per_round", st.integers(max_value=0), "runs_per_round must be at least 1"),
    ("prune", other_than("none", "static"), "prune must be 'none' or 'static'"),
    (
        "prune_radius",
        st.floats(max_value=-1e-9) | st.just(float("nan")) | st.integers(max_value=-1),
        "radius must be zero or more, got ",
    ),
    (
        "fault_dims",
        other_than("exceptions", "soft", "all"),
        "fault_dims must be 'exceptions', 'soft', or 'all'",
    ),
]


@given(VALID)
def test_a_valid_value_pickles_to_itself(params):
    copy = pickle.loads(pickle.dumps(params, pickle.HIGHEST_PROTOCOL))
    assert copy == params
    assert repr(copy) == repr(params)
    assert hash(copy) == hash(params)


@given(
    VALID,
    st.sampled_from(OUT_OF_RANGE).flatmap(
        lambda row: st.tuples(st.just(row[0]), row[1], st.just(row[2]))
    ),
)
def test_every_out_of_range_field_raises_its_error(params, bad):
    field, value, message = bad
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        dataclasses.replace(params, **{field: value})


def test_a_radius_has_one_spelling():
    assert SearchParams(prune_radius=8) == SearchParams()
    assert repr(SearchParams(prune_radius=8)) == repr(SearchParams())


def test_fault_dims_left_to_the_case_resolve_to_its_own():
    assert SearchParams().resolve("all").fault_dims == "all"
    assert SearchParams().resolve().fault_dims == "exceptions"
    assert SearchParams(fault_dims="soft").resolve("all").fault_dims == "soft"


@pytest.mark.parametrize(
    "build",
    [
        lambda: CampaignTask.anduril("f1", runs_per_round=0),
        lambda: CampaignTask.baseline("exhaustive", "f1", runs_per_round=0),
        lambda: get_case("f1").explorer(runs_per_round=0),
    ],
    ids=["anduril-task", "baseline-task", "explorer"],
)
def test_every_entry_point_checks_through_search_params(build):
    with pytest.raises(ValueError, match="^runs_per_round must be at least 1$"):
        build()


def test_naming_search_params_loads_no_search_code():
    code = (
        "import sys, repro.core.params\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert loaded.strip() == "['repro', 'repro._lazy', 'repro.core', 'repro.core.params']"
