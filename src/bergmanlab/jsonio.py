"""JSON encoding helpers: complex scalars as [re, im], matrices row-major,
and the canonical report encoder."""

from __future__ import annotations

import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


def rnum(x):
    """A real number for strict JSON: a non-finite float becomes the string
    "inf", "-inf" or "nan"; any other value is returned unchanged."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(float(x))
    return x


def cnum(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cmatrix(m: np.ndarray) -> list[list[float]]:
    """Row-major flattening of a complex matrix into [re, im] pairs."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return np.stack((flat.real, flat.imag), 1).tolist()


def as_cmatrix(entries, shape, what: str = "matrix") -> np.ndarray:
    """The complex matrix of the given shape whose entries, row by row, are
    the [re, im] pairs of ``entries``.  Entries of another nesting, count or
    type are a TypeError naming ``what``, as a JSON value of the wrong type
    is."""
    rows, cols = shape
    try:
        pairs = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        pairs = None
    if pairs is None or pairs.shape != (rows * cols, 2):
        raise TypeError(f"{what} must be the {rows}x{cols} matrix as a "
                        f"row-major list of {rows * cols} [re, im] pairs")
    out = np.empty(rows * cols, dtype=complex)
    out.real, out.imag = pairs[:, 0], pairs[:, 1]
    return out.reshape(shape)


def cpoint(z) -> list[list[float]]:
    return [cnum(c) for c in np.atleast_1d(np.asarray(z, dtype=complex))]


def as_cpoint(obj, what: str = "point") -> np.ndarray:
    """A point is either one [re, im] pair or a list of them; anything else
    is a ValueError naming ``what``."""
    try:
        arr = np.asarray(obj, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{what} must hold numbers: {exc}") from exc
    if arr.ndim == 1 and arr.size == 2:
        return np.array([complex(arr[0], arr[1])])
    if arr.ndim == 2 and arr.shape[1] == 2:
        out = np.empty(len(arr), dtype=complex)
        out.real, out.imag = arr[:, 0], arr[:, 1]
        return out
    raise ValueError(f"{what} must be [re, im] or a list of [re, im] pairs")


def float_reprs(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of every element of a float array, as an object
    array of the same shape, equal entries sharing one string and -0.0
    apart from 0.0.  An array of at most ``_DIRECT_MAX`` values is
    formatted value by value, its strings shared by interning them; in a
    longer one each distinct bit pattern is formatted once."""
    values = np.asarray(values, dtype=np.float64)
    if values.size <= _DIRECT_MAX:
        texts = map(float.__repr__, values.reshape(-1).tolist())
        return np.array(list(map(sys.intern, texts)),
                        dtype=object).reshape(values.shape)
    bits, inverse = np.unique(values.reshape(-1).view(np.uint64),
                              return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())),
                     dtype=object)
    return texts[inverse.reshape(values.shape)]


def canonical_dumps(obj) -> str:
    """Deterministic JSON text, byte for byte
    ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``.

    ``obj`` is a report: dicts with str keys, lists, tuples, str, int,
    float, bool and None, subclasses included.  A non-finite float
    raises that call's ValueError, naming the first one in document order,
    and a value of another type its TypeError; a key that is not a str
    raises a TypeError.  A long list of floats or of [re, im] pairs is
    written over whole arrays, each distinct float formatted once.
    """
    out: list[str] = []
    _encode(obj, "\n", out)
    return "".join(out)


# a list of floats or of [re, im] pairs at least this long is written by
# array operations, a shorter one item by item: about where the fixed cost
# of the numpy calls falls below that of the per-item path for pairs
_BULK_MIN = 16
# ``float_reprs`` formats an array of at most this many values directly:
# below about 40 values that is faster than the sort of ``numpy.unique``
# even when all are equal, and distinct values gain up to 64 and beyond
_DIRECT_MAX = 32


def _float_text(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError("Out of range float values are not JSON compliant: "
                     + repr(x))


def _is_floats(types) -> bool:
    return all(issubclass(t, float) for t in types)


def _bulk_text(items, nl: str) -> str | None:
    """The text of a long list of floats or of [re, im] pairs at the
    indentation ``nl``, or None for any other list."""
    if len(items) < _BULK_MIN:
        return None
    types = set(map(type, items))
    if _is_floats(types):
        flat = items
    elif types <= {list, tuple} and set(map(len, items)) == {2}:
        flat = list(chain.from_iterable(items))
        if not _is_floats(set(map(type, flat))):
            return None
    else:
        return None
    values = np.fromiter(flat, np.float64, len(flat))
    finite = np.isfinite(values)
    if not finite.all():
        _float_text(flat[int(finite.argmin())])    # raises, naming it
    texts = float_reprs(values).tolist()
    inner = nl + "  "
    if flat is items:    # a list of floats
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    # each pair joined by the separator inside it, the pairs by the one
    # between them
    row = inner + "  "
    pairs = map(("," + row).join, zip(texts[0::2], texts[1::2]))
    return ("[" + inner + "[" + row + (inner + "]," + inner + "[" + row)
            .join(pairs) + inner + "]" + nl + "]")


def _encode(o, nl: str, out: list[str]) -> None:
    """Append the text of ``o`` at the indentation ``nl`` (a newline and
    the spaces of the current level), testing types in json's order."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        bulk = _bulk_text(o, nl)
        if bulk is not None:
            out.append(bulk)
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError("report keys must be str, "
                                f"not {key.__class__.__name__}")
            out.append(sep + _quote(key) + ": ")
            _encode(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        "is not JSON serializable")
