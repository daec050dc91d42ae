"""`jsonout.dumps` against `json.dumps(v, sort_keys=True, indent=2)`.

The CLI's JSON output and `CertificateReport.to_bytes` go through the
writer, so it must give json's text on every value json writes, and raise
the same TypeError with the same message on every value json refuses for
its type.
"""

import enum
import json

from hypothesis import given, settings, strategies as st

from kgroups import jsonout
from kgroups.certificates import lower_bound_report


def outcome(dump, value):
    try:
        return dump(value)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


# every code point, surrogates and control characters included
texts = st.text(st.characters(exclude_categories=()), max_size=12)
scalars = st.one_of(
    texts, st.booleans(), st.none(), st.floats(),
    st.integers(), st.integers(-10 ** 80, 10 ** 80))
# json turns float, int, bool and None keys into strings; keys of mixed
# types fail json's sort
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=4),
        st.dictionaries(st.floats(), inner, max_size=4),
        st.dictionaries(st.booleans(), inner, max_size=2),
        st.dictionaries(st.none(), inner, max_size=1),
        st.dictionaries(keys, inner, max_size=3)),
    max_leaves=30)


@settings(max_examples=300)
@given(values)
def test_dumps_matches_json(value):
    assert outcome(jsonout.dumps, value) == outcome(reference, value)


def test_special_floats_as_values_and_keys():
    specials = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                1e300, 5e-324, 0.1]
    value = {"floats": specials, "keys": [{f: f} for f in specials]}
    assert jsonout.dumps(value) == reference(value)


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    def __str__(self):
        return "not this"


class Ratio(float):
    def __repr__(self):
        return "not this"


def test_subclasses_print_as_their_base_type():
    value = {Name("k"): [Colour.RED, Name("v"), Ratio(0.5)],
             "n": {Colour.RED: True}}
    assert jsonout.dumps(value) == reference(value)


def test_unwritable_values_raise_what_json_raises():
    for value in (object(), {1, 2}, b"bytes", [1, {"a": object()}],
                  {(1, 2): 3}, {1: "a", "b": 2}, {"a": [{None: 1, 2: 3}]},
                  10 ** 5000):
        got = outcome(jsonout.dumps, value)
        assert got == outcome(reference, value)
        assert isinstance(got, tuple)


def test_certificate_report_bytes_match_json():
    rep = lower_bound_report(3)
    assert rep.to_bytes() == (reference(rep.to_json()) + "\n").encode()
