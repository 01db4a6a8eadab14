"""The machine-report writer against ``json.dumps``.

``cli._json`` builds a report's text by joining pieces, where the CLI used
``json.dumps(report, sort_keys=True, indent=2)``.  Under hypothesis, on
nested dicts, lists and tuples, empty containers, non-ASCII and control
characters, ints, bools, None, floats and the non-``str`` keys the
standard library accepts, both must give the same text or raise the same
error.  Every golden report, read back, must be written as the same
bytes.  One value is written otherwise, and both texts are pinned: an
empty ``Word``, whose ``len`` counts its letters, is ``[]`` to
``json.dumps`` and its three fields to ``cli._json``.
"""

import json
from collections import OrderedDict, namedtuple
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit.cli import _json
from gpdkit.presentations import Word, empty_word

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def _outcome(f, value):
    try:
        return ("text", f(value))
    except (TypeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def _stdlib(value):
    return json.dumps(value, sort_keys=True, indent=2)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from(["", "\x00", "\x1f", "\x7f", '"\\/', "é", "名", "\U0001f600", "\ud800"])
)
# The keys of one dict are of one kind, which ``sorted`` can order, or of
# the last kind, str mixed with int, on which both writers raise.
KEY_KINDS = [
    st.text(max_size=4),
    st.integers(-5, 5) | st.booleans() | st.floats(),
    st.none(),
    st.text(max_size=1) | st.integers(0, 1),
]


def _containers(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.sampled_from(KEY_KINDS).flatmap(
            lambda keys: st.dictionaries(keys, inner, max_size=4)
        )
    )


VALUES = st.recursive(SCALARS, _containers, max_leaves=16)


@settings(max_examples=600, deadline=None)
@given(value=VALUES)
def test_the_writer_matches_json_dumps(value):
    assert _outcome(_json, value) == _outcome(_stdlib, value)


class Small(IntEnum):
    ONE = 1


Pair = namedtuple("Pair", "a b")


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[[]], {"x": [{}]}],
        {1.5: "x", -0.0: "y", float("inf"): "z", float("nan"): "w"},
        {True: 1, False: 0, 2: None},
        {None: [None]},
        OrderedDict([("b", 1), ("a", 2)]),
        Pair("x", [1]),
        [Small.ONE, {Small.ONE: "one"}],
        {"s": "line\nbreak\ttab\x08é"},
        # Keys and values the standard library refuses.
        {(1, 2): "tuple key"},
        {"a": 1, 2: "b"},
        {"set": {1}},
        object(),
    ],
    ids=lambda v: type(v).__name__,
)
def test_hand_picked_values_match_json_dumps(value):
    assert _outcome(_json, value) == _outcome(_stdlib, value)


def test_an_empty_word_is_the_one_value_written_otherwise():
    w = empty_word("v")
    assert (_json(w), _stdlib(w)) == ('["v", "v", []]', "[]")
    nested = {"w": [w, Word("v", "u", (("a", 1),))]}
    assert _json(nested) == _stdlib(nested).replace("[]", '["v", "v", []]', 1)


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_every_golden_report_is_rewritten_byte_for_byte(path):
    data = path.read_bytes()
    assert (_json(json.loads(data)) + "\n").encode("utf-8") == data
