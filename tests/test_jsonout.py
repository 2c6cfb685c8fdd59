"""The --json writer against its oracle, json.dumps(obj, indent=2)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatecycles.jsonout import write_json

# the report schema: a dict or a list, holding dicts with str keys, lists,
# str, int, bool and None
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.text(st.characters(min_codepoint=0x80)),
    st.sampled_from([{}, []]),
)


def _containers(children):
    return st.one_of(st.lists(children, max_size=5), st.dictionaries(st.text(), children, max_size=5))


_JSON_TREES = _containers(st.recursive(_JSON_SCALARS, _containers, max_leaves=40))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(tree=_JSON_TREES)
def test_json_writer_matches_json_dumps(tree):
    chunks = []
    write_json(tree, chunks.append)
    assert "".join(chunks) == json.dumps(tree, indent=2) + "\n"


def _one_shot(value):
    """value with every list below it turned into a one-shot iterator."""
    if type(value) is list:
        return iter([_one_shot(v) for v in value])
    if type(value) is dict:
        return {k: _one_shot(v) for k, v in value.items()}
    return value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=_JSON_TREES)
def test_json_writer_writes_iterators_as_lists(tree):
    # a one-shot iterator stands for the list of its items below the top level
    top = [_one_shot(v) for v in tree] if type(tree) is list else _one_shot(tree)
    chunks = []
    write_json(top, chunks.append)
    assert "".join(chunks) == json.dumps(tree, indent=2) + "\n"


def test_json_writer_takes_rows_as_they_are_written():
    made = []

    def rows():
        for n in range(3):
            made.append(n)
            yield {"n": n}

    chunks = []
    write_json({"rows": rows(), "empty": iter(()), "tail": [0]}, chunks.append)
    report = {"rows": [{"n": 0}, {"n": 1}, {"n": 2}], "empty": [], "tail": [0]}
    assert "".join(chunks) == json.dumps(report, indent=2) + "\n"
    assert made == [0, 1, 2]


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
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError):
        write_json(tree, lambda text: None)


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


# json.dumps encodes each of these; no report holds one
@pytest.mark.parametrize(
    "tree, type_name",
    [
        ({"x": 0.5}, "float"),
        ([1, float("nan")], "float"),
        ({"x": (1, 2)}, "tuple"),
        ((), "tuple"),
        ({"rows": [{1: "int key"}]}, "int"),
        ({True: 0}, "bool"),
        ({None: 0}, "NoneType"),
        ([{"k": 1}, {_Str("k"): 2}], "_Str"),
        ([_Int(7)], "_Int"),
        (7, "int"),
        ({"s": _Str("s")}, "_Str"),
        ([_List()], "_List"),
        ({"d": _Dict()}, "_Dict"),
        (_Dict(), "_Dict"),
    ],
    ids=[
        "float", "nan", "tuple", "top-level-tuple", "int-key", "bool-key", "none-key",
        "str-subclass-key", "int-subclass", "top-level-scalar", "str-subclass",
        "list-subclass", "dict-subclass", "top-level-dict-subclass",
    ],
)
def test_json_writer_rejects_what_no_report_holds(tree, type_name):
    json.dumps(tree, indent=2)
    with pytest.raises(TypeError, match=f"\\b{type_name}\\b"):
        write_json(tree, lambda text: None)
