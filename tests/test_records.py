"""The package's immutable records (polycore.Record): fields that cannot be
assigned, equality and hash on the field tuple within one class, keyword
construction, the generated ``__init__``s, defaults and dataclass-style
reprs."""

import copy
import inspect
import pickle

import pytest
from mpmath import mp

from tatecycles.bounds import BoundReport, FieldParams
from tatecycles.cmlab import DensityReport, EllipticCurve, NonCmReport, NonSplitResult, PiKResult, SurveyRow
from tatecycles.polycore import IntPoly, Record
from tatecycles.tate import TateRow
from tatecycles.weil import WeilPoly

_BOUND = BoundReport("bound_B", (("N", "2"),), mp.mpf(3), 21)

# one instance's field values per record class, in __slots__ order
SAMPLES = {
    IntPoly: ((5, -3, 1),),
    WeilPoly: (IntPoly([5, -1, 1]), 5, 5, 1),
    TateRow: (1, ((1, 2), (2, 2)), 2, 1, 2),
    FieldParams: (2, 1, "yes"),
    BoundReport: ("bound_B", (("N", "2"),), mp.mpf(3), 21),
    EllipticCurve: (0, 0, 1, -1, 0, "37a"),
    SurveyRow: (5, -1, 0, "supersingular", 2, 6, 2),
    DensityReport: (100, (("ordinary", 12),), (("ordinary", 0.5),)),
    NonCmReport: (True, ()),
    NonSplitResult: (-4, 3, _BOUND, True),
    PiKResult: (-4, 100, 25, 29.08, 0.86),
}

each_record = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)

# the records that validate their input or have a default write their own __init__
OWN_INIT = {IntPoly, FieldParams, EllipticCurve, BoundReport}
each_generated_init = pytest.mark.parametrize(
    "cls", [cls for cls in SAMPLES if cls not in OWN_INIT], ids=lambda cls: cls.__name__
)


def _fields(record) -> list:
    return [getattr(record, name) for name in record.__slots__]


@each_record
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*SAMPLES[cls])
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == list(SAMPLES[cls])


@each_record
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = cls(*SAMPLES[cls]), cls(*copy.deepcopy(SAMPLES[cls]))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@each_record
def test_another_class_with_the_same_fields_is_not_equal(cls):
    # the same name, fields and methods, but a class of its own
    twin = type(cls.__name__, (Record,), {k: v for k, v in vars(cls).items() if k not in cls.__slots__})
    a, b = cls(*SAMPLES[cls]), twin(*SAMPLES[cls])
    assert _fields(a) == _fields(b)
    assert a != b and b != a
    assert a != tuple(SAMPLES[cls])


@each_record
def test_keyword_construction_matches_positional(cls):
    values = SAMPLES[cls]
    assert cls(**dict(zip(cls.__slots__, values))) == cls(*values)


@each_record
def test_copy_and_pickle_rebuild_equal_records(cls):
    record = cls(*SAMPLES[cls])
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_only_the_validating_records_write_their_own_init():
    # a generated method is compiled from a string, not read from a module file
    assert {cls for cls in SAMPLES if cls.__init__.__code__.co_filename != "<string>"} == OWN_INIT
    for cls in SAMPLES:
        assert cls.__eq__.__code__.co_filename == cls.__hash__.__code__.co_filename == "<string>"


@each_generated_init
def test_generated_init_takes_exactly_the_fields(cls):
    values = SAMPLES[cls]
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=None)


@each_generated_init
def test_generated_init_signature_and_name(cls):
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__name__ == "__init__"


@each_record
def test_hash_is_the_hash_of_the_compared_fields(cls):
    record = cls(*SAMPLES[cls])
    assert cls.__eq__.__qualname__ == f"{cls.__name__}.__eq__"
    assert cls.__hash__.__qualname__ == f"{cls.__name__}.__hash__"
    key = tuple(getattr(record, name) for name in cls.__slots__)
    # a single compared field is its own key
    assert hash(record) == hash(key if len(key) > 1 else key[0])


def test_methods_a_record_defines_are_kept():
    class Pair(Record):
        __slots__ = ("a", "b")

        def __init__(self, a, b=0):
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

        def __hash__(self):
            return 7

    class Labelled(Record):
        __slots__ = ("value", "label")

        def __eq__(self, other):
            return isinstance(other, Labelled) and self.value == other.value

    assert Pair(1) == Pair(1, 0) and hash(Pair(1)) == hash(Pair(2)) == 7
    assert Labelled(1, "x") == Labelled(1, "y")
    assert Labelled.__hash__ is None  # Python's rule for a class that defines only __eq__
    assert list(inspect.signature(Labelled).parameters) == ["value", "label"]


def test_defaults():
    assert IntPoly().coeffs == () and IntPoly() == IntPoly([0, 0])
    assert FieldParams(2) == FieldParams(2, 0, "no")
    assert BoundReport("bound_B", (), mp.mpf(3)).exact_value is None
    assert EllipticCurve(0, 0, 1, -1, 0).label == ""


def test_field_params_equality_ignores_numeric_type():
    assert FieldParams(2, 1) == FieldParams(2.0, 1.0)
    assert hash(FieldParams(2, 1)) == hash(FieldParams(2.0, 1.0))


def test_reprs_read_as_dataclass_reprs():
    assert repr(TateRow(*SAMPLES[TateRow])) == (
        "TateRow(k=1, dims=((1, 2), (2, 2)), stable_dim=2, min_stable_degree=1, degree_bound=2)"
    )
    assert repr(FieldParams(2, 1, "yes")) == "FieldParams(n_K=2, log_abs_disc=1, has_exceptional_zero='yes')"
    assert repr(IntPoly([5, -3, 1])) == "IntPoly('T^2 - 3T + 5')"
    assert repr(WeilPoly(*SAMPLES[WeilPoly])) == "WeilPoly(T^2 - T + 5, q=5, d=1)"
