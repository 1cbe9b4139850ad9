"""JSON encoding helpers: complex scalars as [re, im], matrices row-major."""

from __future__ import annotations

import json
import math

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


def as_cnum(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def cmatrix(m: np.ndarray) -> list[list[float]]:
    """Row-major flattening of a complex matrix into [re, im] pairs."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [cnum(z) for z in flat]


def as_cmatrix(entries, shape) -> np.ndarray:
    out = np.array([as_cnum(p) for p in entries], dtype=complex)
    return out.reshape(shape)


def cpoint(z) -> list[list[float]]:
    return [cnum(c) for c in np.atleast_1d(np.asarray(z, dtype=complex))]


def as_cpoint(obj) -> np.ndarray:
    """A point is either one [re, im] pair or a list of them."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 1 and arr.size == 2:
        return np.array([complex(arr[0], arr[1])])
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    raise ValueError("point must be [re, im] or a list of [re, im] pairs")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, no trailing whitespace drift."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
