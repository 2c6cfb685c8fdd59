"""The --json writer against its oracle, json.dumps(obj, indent=2)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatecycles.jsonout import write_json

_JSON_KEYS = st.one_of(
    st.text(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.text(st.characters(min_codepoint=0x80)),
    st.sampled_from([{}, [], ()]),
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(tree=_JSON_TREES)
def test_json_writer_matches_json_dumps(tree):
    chunks = []
    write_json(tree, chunks.append)
    assert "".join(chunks) == json.dumps(tree, indent=2) + "\n"


class _Int(int):
    def __repr__(self):
        return "int subclass"

    __str__ = __repr__


class _Float(float):
    def __repr__(self):
        return "float subclass"

    __str__ = __repr__


class _Str(str):
    def __str__(self):
        return "str subclass"


class _List(list):
    pass


class _Dict(dict):
    pass


def test_json_writer_encodes_subclasses_as_json_dumps_does():
    tree = _Dict(
        {
            _Str("k"): _List([_Int(7), _Float(0.25), _Float("nan"), _Str("s"), _List(), _Dict()]),
            _Int(3): _Dict({_Float(1.5): True, _Int(1): False, True: None}),
            1: "one",
            "1": "one as text",
        }
    )
    chunks = []
    write_json(tree, chunks.append)
    assert "".join(chunks) == json.dumps(tree, indent=2) + "\n"


def test_json_writer_keeps_bool_int_and_float_keys_apart():
    # True == 1 == 1.0 as dict keys, but each has its own text
    for tree in ({"1": 0, 1: 0}, [{1: 0}, {True: 0}, {1.0: 0}, {"true": 0}]):
        chunks = []
        write_json(tree, chunks.append)
        assert "".join(chunks) == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize(
    "tree",
    [
        {"a": {1, 2}},
        [1, object()],
        {object(): 1},
        {"rows": [{(1, 2): "tuple key"}]},
        {1, 2},
        b"bytes",
    ],
    ids=["set-value", "object-item", "object-key", "tuple-key", "set", "bytes"],
)
def test_json_writer_raises_where_json_dumps_does(tree):
    with pytest.raises(TypeError) as expected:
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError) as raised:
        write_json(tree, lambda text: None)
    assert str(raised.value) == str(expected.value)
