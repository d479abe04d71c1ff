"""The one-pass JSON writer of the CLI against its reference.

``gbsn.cli._json_text(x)`` must be the text of ``json.dumps`` with sorted
keys and an indent of 2 on ``x`` as ``tests/json_reference.py`` converts
it, for every payload: nested dicts, lists, tuples and sets of scalars
(floats with -0.0, nan and both infinities, strings with control and
non-ASCII characters), Fractions, matrices, words, the stated numbers,
points and intervals of certificates, and records with defaults.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.classify import Evidence, QIVerdict
from gbsn.cli import _json_text
from gbsn.linalg import ProjInterval, ProjPoint, QMat, QuadraticNumber
from gbsn.record import Record
from gbsn.words import Word

from json_reference import _jsonable


class Tagged(Record):
    """A record whose field ``type`` takes the place of its class name."""

    type: object
    value: object = None


fractions = st.fractions(max_denominator=60)
quadratic = st.builds(QuadraticNumber, fractions, fractions, st.integers(-30, 30))
direction = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)
strings = st.one_of(st.text(), st.text(st.characters(max_codepoint=0x3FF)),
                    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\U0001d11e"]))
hashable = st.one_of(
    st.none(), st.booleans(), st.integers(), strings, fractions,
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.complex_numbers(allow_nan=False, max_magnitude=1e6),
)
leaves = st.one_of(
    hashable,
    st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=2, max_size=2).map(QMat),
    st.lists(st.tuples(st.sampled_from("abt"), st.integers(-3, 3))).map(Word),
    quadratic,
    st.builds(ProjPoint, quadratic, quadratic),
    st.builds(ProjInterval, direction, direction),
    st.builds(Evidence, strings, strings),
    st.builds(QIVerdict, strings, st.lists(strings).map(tuple)),
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashable, max_size=4),
        st.frozensets(hashable, max_size=4),
        st.dictionaries(st.one_of(strings, st.integers(-3, 3), st.booleans(), st.none(), fractions),
                        children, max_size=4),
        st.builds(Evidence, strings, strings, payload=children),
        st.builds(Tagged, children),
        st.builds(Tagged, children, children),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_text_is_json_dumps_of_the_reference(payload):
    assert _json_text(payload) == json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def test_keys_equal_as_text_keep_the_last_value():
    payload = {1: "int", "1": "str", Fraction(1, 2): [], "1/2": {}}
    assert _json_text(payload) == json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    assert json.loads(_json_text(payload)) == {"1": "str", "1/2": {}}
