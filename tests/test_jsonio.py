"""The canonical report encoder against its reference, ``json.dumps``.

``canonical_dumps`` must write every report object byte for byte as
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` does, and
raise the same error, with the same text, where that call raises.  Float
lists and [re, im] pair lists are drawn both shorter and longer than the
cut-off above which they are written over whole arrays.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergmanlab import jsonio
from bergmanlab.jsonio import canonical_dumps

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               -1e308, 1.7976931348622157e308, 0.1, 1.0, 1e16, 1e-7]
NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.inf),
              np.float64(math.nan)]
LONG = (jsonio._BULK_MIN, 3 * jsonio._BULK_MIN)


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def floats(non_finite: bool):
    """Finite floats, repeats and edge values more often than chance gives
    them, a numpy.float64 now and then; non-finite ones if asked."""
    plain = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(EDGE_FLOATS))
    value = st.one_of(plain, plain.map(np.float64))
    if non_finite:
        value = st.one_of(value, st.sampled_from(NON_FINITE))
    return value


def float_lists(value):
    """Flat float lists and [re, im] pair lists (lists or tuples), short
    and long; long ones drawn from a small pool, so values repeat."""
    pair = st.one_of(st.lists(value, min_size=2, max_size=2),
                     st.tuples(value, value))
    pooled = st.lists(value, min_size=1, max_size=4).flatmap(
        lambda pool: st.sampled_from(pool))
    return st.one_of(
        st.lists(value, max_size=LONG[0] - 1),
        st.lists(value, min_size=LONG[0], max_size=LONG[1]),
        st.lists(pooled, min_size=LONG[0], max_size=LONG[1]),
        st.lists(pair, max_size=LONG[0] - 1),
        st.lists(pair, min_size=LONG[0], max_size=LONG[1]),
    )


def documents(non_finite: bool = False):
    value = floats(non_finite)
    leaves = st.one_of(
        value, float_lists(value),
        st.integers(), st.booleans(), st.none(),
        st.text(), st.sampled_from(["", "é∂", "a\"b\\c\n\t\x00", " "]),
        # ints, bools and None next to floats: not a bulk list
        st.lists(st.one_of(value, st.integers(), st.booleans(), st.none()),
                 min_size=LONG[0], max_size=LONG[1]),
        st.just([]), st.just({}), st.just(()))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.tuples(children, children),
            st.dictionaries(st.text(max_size=6), children, max_size=4)),
        max_leaves=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(documents())
def test_finite_documents_match_json_dumps(doc):
    assert canonical_dumps(doc) == reference(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(documents(non_finite=True))
def test_non_finite_floats_raise_as_json_dumps(doc):
    try:
        expected = reference(doc)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            canonical_dumps(doc)
        assert str(got.value) == str(exc)
    else:
        assert canonical_dumps(doc) == expected


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("where", [0, 5, jsonio._BULK_MIN + 3])
def test_the_first_non_finite_value_is_named(bad, where):
    """Document order: the first offending value of a long list, inside a
    pair or alone, is the one the message names."""
    values = [0.5] * (2 * jsonio._BULK_MIN)
    values[where] = bad
    values[-1] = -math.inf
    pairs = [[0.0, v] for v in values]
    for doc in (values, pairs, {"a": values, "b": math.nan},
                {"a": 1.0, "b": [values, math.inf]}):
        with pytest.raises(ValueError) as exc:
            reference(doc)
        with pytest.raises(ValueError) as got:
            canonical_dumps(doc)
        assert str(got.value) == str(exc.value)


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), 1j, {1, 2},
                                 object(), np.zeros(2)],
                         ids=lambda b: type(b).__name__)
def test_other_types_raise_json_dumps_type_error(bad):
    for doc in (bad, [0.5] * jsonio._BULK_MIN + [bad], {"k": [[0.5, bad]]}):
        with pytest.raises(TypeError) as exc:
            reference(doc)
        with pytest.raises(TypeError) as got:
            canonical_dumps(doc)
        assert str(got.value) == str(exc.value)


def test_keys_are_sorted_as_json_dumps():
    doc = {"b": 1, "a": {"d": 0, "c": 1}, "é": None, "B": []}
    assert canonical_dumps(doc) == reference(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)], ids=repr)
def test_report_keys_must_be_strings(key):
    with pytest.raises(TypeError, match="^report keys must be str, not "):
        canonical_dumps({key: 0.5})


def test_float_reprs_share_one_string_per_bit_pattern():
    values = np.array([[0.0, -0.0], [0.1, 0.0], [np.inf, np.nan]])
    texts = jsonio.float_reprs(values)
    assert texts.shape == values.shape and texts.dtype == object
    assert texts.tolist() == [["0.0", "-0.0"], ["0.1", "0.0"],
                              ["inf", "nan"]]
    assert texts[0, 0] is texts[1, 1]


def unique_float_reprs(values: np.ndarray) -> np.ndarray:
    """``float_reprs`` as it formatted every array before short ones were
    formatted value by value: each distinct bit pattern once."""
    bits, inverse = np.unique(values.reshape(-1).view(np.uint64),
                              return_inverse=True)
    texts = np.array(list(map(float.__repr__,
                              bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse.reshape(values.shape)]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(jsonio._DIRECT_MAX - 3, jsonio._DIRECT_MAX + 3),
       st.sampled_from([(-1,), (-1, 2), (2, -1)]))
def test_float_reprs_on_both_sides_of_the_direct_limit(data, size, shape):
    """The strings of the deduplicating path, -0.0, subnormals and
    non-finite values included, one string per distinct text."""
    if len(shape) == 2:
        size += size % 2
    pool = data.draw(st.lists(floats(True).map(float), min_size=1,
                              max_size=size))
    values = np.array(data.draw(st.lists(st.sampled_from(pool),
                                         min_size=size, max_size=size)))
    values = values.reshape(shape)
    texts = jsonio.float_reprs(values)
    assert texts.dtype == object and texts.shape == values.shape
    assert texts.tolist() == unique_float_reprs(values).tolist()
    assert len(set(map(id, texts.flat))) == len(set(texts.flat))


def test_cmatrix_is_row_major_pairs():
    m = np.array([[1 + 2j, -0.0], [3.5, 1j]])
    assert jsonio.cmatrix(m) == [[1.0, 2.0], [-0.0, 0.0], [3.5, 0.0],
                                 [0.0, 1.0]]
    assert math.copysign(1.0, jsonio.cmatrix(m)[1][0]) == -1.0
