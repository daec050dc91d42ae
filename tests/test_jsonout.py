"""`jsonout.dumps` against `json.dumps(v, sort_keys=True, indent=2)`.

The CLI's JSON output and `CertificateReport.to_bytes` go through the
writer, so it must give json's text on every value built from str, int,
bool, None, lists and str-keyed dicts, and raise the same error with the
same message on every value json refuses.  Floats, tuples and non-str
keys, which json writes, are outside what the writer takes: it raises
TypeError on them.
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
    texts, st.booleans(), st.none(),
    st.integers(), st.integers(-10 ** 80, 10 ** 80))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(texts, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300)
@given(values)
def test_dumps_matches_json(value):
    assert outcome(jsonout.dumps, value) == outcome(reference, value)


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    def __str__(self):
        return "not this"


def test_subclasses_print_as_their_base_type():
    value = {Name("k"): [Colour.RED, Name("v")], "n": {"c": Colour.RED}}
    assert jsonout.dumps(value) == reference(value)


def test_unwritable_values_raise_what_json_raises():
    for value in (object(), {1, 2}, b"bytes", [1, {"a": object()}],
                  {1: "a", "b": 2}, {"a": [{None: 1, 2: 3}]}, 10 ** 5000):
        got = outcome(jsonout.dumps, value)
        assert got == outcome(reference, value)
        assert isinstance(got, tuple)


def test_floats_tuples_and_non_str_keys_raise_type_error():
    values = [0.5, float("nan"), -0.0, (), (1, "a")]
    keys = [1, 0.5, True, False, None, (1, 2), Colour.RED]
    for value in (values + [[v] for v in values]
                  + [{"a": v} for v in values]
                  + [{k: v} for k in keys for v in ("s", 1, [], {}, None)]):
        assert outcome(jsonout.dumps, value)[0] is TypeError, value


def test_certificate_report_bytes_match_json():
    rep = lower_bound_report(3)
    assert rep.to_bytes() == (reference(rep.to_json()) + "\n").encode()
