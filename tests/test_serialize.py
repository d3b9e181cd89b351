"""The document writer's byte contract: serialize.dumps(v) is exactly
json.dumps(v, indent=1, sort_keys=True), which stays here as the reference.

The writer renders a list once per indent, by identity and, for a list of
strings, by content, so these values put one list object at several depths
and mix lists that compare equal in Python but not in JSON (1, True, 1.0
and "1").
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbase import serialize
from torusbase.catalog import build, catalog_names
from torusbase.cli import _export_entry


def reference(value):
    return json.dumps(value, indent=1, sort_keys=True)


# lists that a memo keyed without care would confuse; sampled_from hands out
# these very objects, so one of them may appear at several depths
LOOK_ALIKES = (["i", "1"], ["i", 1], ["i", True], ["i", 1.0], ["i", "True"], ["i", ["1"]])
STRINGS = st.text() | st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\x7f", "é ∂ 𝄞", "", "1", "true"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
    | STRINGS
)
VALUES = st.recursive(
    SCALARS | st.sampled_from(LOOK_ALIKES),
    lambda children: st.lists(children, max_size=6)
    | st.tuples(children, children)
    | st.dictionaries(STRINGS, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_writer_equals_json_dumps(value):
    assert serialize.dumps(value) == reference(value)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=3), max_size=4), VALUES)
def test_one_list_at_two_depths(shared, value):
    doc = {"a": shared, "b": [shared, [shared, value]], "c": {"d": [value, shared]}}
    assert serialize.dumps(doc) == reference(doc)


def test_look_alike_lists_are_told_apart():
    fresh = [list(x) for x in LOOK_ALIKES]
    doc = {"shared": [LOOK_ALIKES, [LOOK_ALIKES]], "fresh": [fresh, [fresh[::-1]]]}
    text = serialize.dumps(doc)
    assert text == reference(doc)
    assert '"1"' in text and "true" in text and "1.0" in text


def test_unserializable_value_raises_type_error():
    with pytest.raises(TypeError):
        serialize.dumps({"x": [object()]})


@pytest.mark.parametrize(
    "name", catalog_names() + ["flat_torus:2", "flat_torus:3", "flat_torus:-2", "ff_disk:2", "ff_disk:3"]
)
def test_writer_equals_json_dumps_on_every_catalog_export(name):
    doc = _export_entry(build(name))
    assert serialize.dumps(doc) == reference(doc)
