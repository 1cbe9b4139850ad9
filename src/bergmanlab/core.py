"""Model domains, weights of integration, and multi-index bookkeeping.

Supported base domains: the unit disk, the unit ball in C^n, type-I matrix
balls {Z in C^(p x q) : I - Z Z* > 0}, and the full space C^n.  Each bounded
domain carries its generic norm N(z, w) and genus g, together with the Hua
polynomial chi giving the normalization integral

    integral_D N(z,z)^mu dV(z) = chi(0)/chi(mu) * Vol(D).

Weights of integration are radial on disk/ball/full space (Gaussian powers,
generic-norm powers, polynomials in t = |z|^2, tabulated radial profiles,
and positive rescalings), with an integer power exponent applied lazily so
that p^m is again a weight.

All functions here are pure and operate on immutable values; they are safe
to call concurrently from any number of threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import PchipInterpolator


class DomainKind(Enum):
    UNIT_DISK = "disk"
    UNIT_BALL = "ball"
    TYPE_I_MATRIX_BALL = "typeI"
    FULL_SPACE = "fullspace"


@dataclass(frozen=True)
class HuaPolynomial:
    """Polynomial chi(s), ascending coefficients, normalized so chi(0) = 1."""

    coefficients: tuple[float, ...]

    def __call__(self, s: float) -> float:
        return float(npoly.polyval(s, np.asarray(self.coefficients)))


def _rising(x: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def _poly_mul(a: list[float], b: list[float]) -> list[float]:
    return list(npoly.polymul(a, b))


def _hua_ball(n: int) -> HuaPolynomial:
    # chi(s) = (s+1)_n / n!
    coeffs = [1.0]
    for j in range(1, n + 1):
        coeffs = _poly_mul(coeffs, [float(j), 1.0])
    coeffs = [c / math.factorial(n) for c in coeffs]
    return HuaPolynomial(tuple(coeffs))


def _hua_type_i(p: int, q: int) -> HuaPolynomial:
    # chi(s) = prod_{j=1..r} (s+j)_smax / (j)_smax with r = min(p,q).
    r, smax = min(p, q), max(p, q)
    coeffs = [1.0]
    norm = 1.0
    for j in range(1, r + 1):
        for i in range(smax):
            coeffs = _poly_mul(coeffs, [float(j + i), 1.0])
        norm *= _rising(float(j), smax)
    coeffs = [c / norm for c in coeffs]
    return HuaPolynomial(tuple(coeffs))


@dataclass(frozen=True)
class DomainSpec:
    """A model base domain.

    ``dim`` is the complex dimension n; type-I matrix balls additionally
    carry the matrix shape (p, q) with n = p*q.  ``genus`` and ``hua`` are
    absent (None) for the full space, which has no generic norm.
    """

    kind: DomainKind
    dim: int
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("domain dimension must be >= 1")
        if self.kind is DomainKind.UNIT_DISK and self.dim != 1:
            raise ValueError("unit disk has complex dimension 1")
        if self.kind is DomainKind.TYPE_I_MATRIX_BALL:
            if self.shape is None or self.shape[0] * self.shape[1] != self.dim:
                raise ValueError("type-I ball needs shape (p, q) with p*q = dim")

    @property
    def bounded(self) -> bool:
        return self.kind is not DomainKind.FULL_SPACE

    @property
    def genus(self) -> int:
        if self.kind is DomainKind.UNIT_DISK:
            return 2
        if self.kind is DomainKind.UNIT_BALL:
            return self.dim + 1
        if self.kind is DomainKind.TYPE_I_MATRIX_BALL:
            p, q = self.shape
            return p + q
        raise ValueError("the full space has no genus")

    @property
    def hua(self) -> HuaPolynomial:
        if self.kind is DomainKind.UNIT_DISK:
            return HuaPolynomial((1.0, 1.0))
        if self.kind is DomainKind.UNIT_BALL:
            return _hua_ball(self.dim)
        if self.kind is DomainKind.TYPE_I_MATRIX_BALL:
            return _hua_type_i(*self.shape)
        raise ValueError("the full space has no Hua polynomial")

    @property
    def volume(self) -> float:
        """Euclidean volume of the bounded domain."""
        if self.kind is DomainKind.UNIT_DISK:
            return math.pi
        if self.kind is DomainKind.UNIT_BALL:
            return math.pi ** self.dim / math.factorial(self.dim)
        if self.kind is DomainKind.TYPE_I_MATRIX_BALL:
            p, q = self.shape
            num = math.pi ** (p * q)
            for k in range(1, p + 1):
                num *= math.factorial(k - 1)
            for k in range(1, q + 1):
                num *= math.factorial(k - 1)
            den = 1.0
            for k in range(1, p + q + 1):
                den *= math.factorial(k - 1)
            return num / den
        raise ValueError("the full space has infinite volume")


def unit_disk() -> DomainSpec:
    return DomainSpec(DomainKind.UNIT_DISK, 1)


def unit_ball(n: int) -> DomainSpec:
    if n == 1:
        return unit_disk()
    return DomainSpec(DomainKind.UNIT_BALL, n)


def matrix_ball(p: int, q: int) -> DomainSpec:
    if p < 1 or q < 1:
        raise ValueError("matrix shape must be positive")
    return DomainSpec(DomainKind.TYPE_I_MATRIX_BALL, p * q, (p, q))


def full_space(n: int) -> DomainSpec:
    return DomainSpec(DomainKind.FULL_SPACE, n)


# ---------------------------------------------------------------------------
# points

def as_point(z, dim: int) -> np.ndarray:
    """Validate and convert a point of C^dim to a 1-d complex array."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1 or arr.size != dim:
        raise ValueError(f"expected a point of C^{dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("point has non-finite entries")
    return arr


def as_points(zs, dim: int) -> np.ndarray:
    """Validate and convert a set of points of C^dim to a (k, dim) complex
    array; the whole set is checked at once and an empty list gives k = 0."""
    arr = np.asarray(zs, dtype=complex)
    if arr.shape == (0,):
        arr = arr.reshape(0, dim)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of C^{dim} as shape (k, {dim}), "
                         f"got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point set has non-finite entries")
    return arr


def _as_matrix(domain: DomainSpec, z: np.ndarray) -> np.ndarray:
    p, q = domain.shape
    return z.reshape(p, q)


def hermitian_inner(z: np.ndarray, w: np.ndarray) -> complex:
    """<z, w> = sum z_j conj(w_j), conjugate-linear in the second slot."""
    return complex(np.dot(z, np.conj(w)))


# ---------------------------------------------------------------------------
# multi-indices (graded lexicographic order, globally fixed)

def _compositions(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(n - 1, total - first):
            yield (first,) + rest


def multiindex_enumerate(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices of length n and degree <= d in grlex order.

    Grlex compares total degree first and breaks ties lexicographically with
    the leading variable largest, e.g. for n = 2: (0,0), (1,0), (0,1),
    (2,0), (1,1), (0,2), ...  The count is C(n+d, n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    out = []
    for deg in range(d + 1):
        out.extend(_compositions(n, deg))
    return out


def grlex_key(alpha: tuple[int, ...]):
    """Sort key realizing the global grlex order."""
    return (sum(alpha), tuple(-a for a in alpha))


def monomial_values(basis: list[tuple[int, ...]], points: np.ndarray) -> np.ndarray:
    """Evaluate all basis monomials at points, shape (npoints, nbasis).

    Coordinate power tables are built once per call, so each monomial costs
    one product of precomputed powers.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    npts, n = pts.shape
    dmax = max((sum(a) for a in basis), default=0)
    # pows[j][k] = z_j^k per point
    pows = np.empty((n, dmax + 1, npts), dtype=complex)
    pows[:, 0, :] = 1.0
    for k in range(1, dmax + 1):
        pows[:, k, :] = pows[:, k - 1, :] * pts.T
    out = np.empty((npts, len(basis)), dtype=complex)
    for i, alpha in enumerate(basis):
        acc = pows[0, alpha[0]].copy()
        for j in range(1, n):
            acc *= pows[j, alpha[j]]
        out[:, i] = acc
    return out


# ---------------------------------------------------------------------------
# generic norm, genus, containment

def generic_norm_factors(domain: DomainSpec, z, w) -> np.ndarray:
    """The factors (1 - lambda_i) whose product is N(z, w).

    For disk/ball there is a single factor 1 - <z, w>; for type-I balls the
    lambda_i are the eigenvalues of Z W*.  On interior points every factor
    lies in the open right half-plane, so principal logarithms per factor
    give an unambiguous branch for complex powers of N.
    """
    z = as_point(z, domain.dim)
    w = as_point(w, domain.dim)
    if domain.kind in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL):
        return np.array([1.0 - hermitian_inner(z, w)])
    if domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        Z = _as_matrix(domain, z)
        W = _as_matrix(domain, w)
        lam = np.linalg.eigvals(Z @ W.conj().T)
        return 1.0 - lam
    raise ValueError("the full space has no generic norm")


def generic_norm(domain: DomainSpec, z, w) -> complex:
    """N(z, w): 1 - z conj(w) on the disk, 1 - <z,w> on the ball,
    det(I - Z W*) on type-I matrix balls."""
    return complex(np.prod(generic_norm_factors(domain, z, w)))


def principal_log(factors: np.ndarray) -> np.ndarray:
    """Principal logarithms of generic-norm factors, elementwise.  A factor
    on the branch cut (the closed negative real axis) means a point is not
    interior."""
    if np.any((factors.real <= 0) & (factors.imag == 0)):
        raise ValueError("generic-norm factor on the branch cut; "
                         "points must be interior")
    return np.log(factors)


def generic_norm_power(domain: DomainSpec, z, w, exponent: complex) -> complex:
    """N(z, w)^exponent via principal logarithms of the per-eigenvalue factors."""
    factors = generic_norm_factors(domain, z, w)
    return complex(np.exp(exponent * np.sum(principal_log(factors))))


def genus(domain: DomainSpec) -> int:
    return domain.genus


def hua_normalization(domain: DomainSpec, mu: float) -> float:
    """c_{D,mu} = chi(0)/chi(mu) * Vol(D) = integral_D N(z,z)^mu dV(z)."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    chi = domain.hua
    return chi(0.0) / chi(mu) * domain.volume


def contains(domain: DomainSpec, z) -> float:
    """Continuous boundary defect: negative inside, 0 on the boundary,
    positive outside.  The full space contains everything (defect -1)."""
    z = as_point(z, domain.dim)
    if domain.kind is DomainKind.FULL_SPACE:
        return -1.0
    if domain.kind in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL):
        return float(np.sum(np.abs(z) ** 2) - 1.0)
    Z = _as_matrix(domain, z)
    smax = np.linalg.svd(Z, compute_uv=False)[0]
    return float(smax ** 2 - 1.0)


# ---------------------------------------------------------------------------
# weights of integration

@dataclass(frozen=True)
class GaussianPower:
    """w(z) = exp(-mu |z|^2) on the full space."""
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")


@dataclass(frozen=True)
class GenericNormPower:
    """w(z) = N(z, z)^mu on a bounded symmetric base."""
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")


@dataclass(frozen=True)
class PolynomialRadial:
    """w(z) = p(t), t = |z|^2, with ascending real coefficients."""
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class RadialProfile:
    """Tabulated radial weight, monotone-cubic interpolated in t = |z|^2.

    The table must have strictly increasing knots starting at t = 0 and
    covering the base domain (t_max >= 1 on disk/ball; on the full space the
    last knot is the integration cutoff and the profile is treated as
    negligible beyond it).
    """
    knots: tuple[float, ...]
    values: tuple[float, ...]
    _interp: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 4 or t.size != v.size:
            raise ValueError("radial profile needs >= 4 matching knots/values")
        if t[0] > 1e-12:
            raise ValueError("radial profile must start at t = 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("radial profile knots must be strictly increasing")
        object.__setattr__(self, "_interp", PchipInterpolator(t, v, extrapolate=False))

    def __call__(self, t):
        out = self._interp(t)
        if np.any(np.isnan(out)):
            raise ValueError("radial profile evaluated outside its table")
        return out


@dataclass(frozen=True)
class Scaled:
    """w = factor * inner, factor > 0."""
    factor: float
    inner: "Weight"

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("scale factor must be positive")


WeightForm = GaussianPower | GenericNormPower | PolynomialRadial | RadialProfile | Scaled


@dataclass(frozen=True)
class Weight:
    """A positive weight of integration on a base domain.

    ``power_exponent`` applies lazily: the weight evaluates to the m-th
    power of its base form, so p^m is again a Weight.
    """

    base: DomainSpec
    form: WeightForm
    power_exponent: int = 1

    def __post_init__(self):
        if self.power_exponent < 1:
            raise ValueError("power exponent must be >= 1")
        if isinstance(self.form, GaussianPower) and self.base.bounded:
            raise ValueError("Gaussian weights live on the full space")
        if isinstance(self.form, GenericNormPower) and not self.base.bounded:
            raise ValueError("generic-norm weights need a bounded base")
        if isinstance(self.form, Scaled) and self.form.inner.base != self.base:
            raise ValueError("scaled weight must share its inner weight's base")

    def pow(self, m: int) -> "Weight":
        if m < 1:
            raise ValueError("power must be >= 1")
        return Weight(self.base, self.form, self.power_exponent * m)

    def scaled(self, c: float) -> "Weight":
        return Weight(self.base, Scaled(c, Weight(self.base, self.form,
                                                  self.power_exponent)))


def gaussian_weight(n: int, mu: float) -> Weight:
    return Weight(full_space(n), GaussianPower(mu))


def generic_norm_weight(domain: DomainSpec, mu: float) -> Weight:
    return Weight(domain, GenericNormPower(mu))


def polynomial_weight(domain: DomainSpec, coefficients) -> Weight:
    return Weight(domain, PolynomialRadial(tuple(float(c) for c in coefficients)))


def _form_eval(form: WeightForm, base: DomainSpec, z: np.ndarray) -> float:
    if isinstance(form, GaussianPower):
        return math.exp(-form.mu * float(np.sum(np.abs(z) ** 2)))
    if isinstance(form, GenericNormPower):
        nz = generic_norm(base, z, z).real
        if nz <= 0:
            raise ValueError("point outside the open base domain")
        return nz ** form.mu
    if isinstance(form, PolynomialRadial):
        t = float(np.sum(np.abs(z) ** 2))
        return float(npoly.polyval(t, np.asarray(form.coefficients)))
    if isinstance(form, RadialProfile):
        t = float(np.sum(np.abs(z) ** 2))
        return float(form(t))
    if isinstance(form, Scaled):
        return form.factor * weight_eval(form.inner, z)
    raise TypeError(f"unknown weight form {form!r}")


def weight_eval(weight: Weight, z) -> float:
    """Evaluate the weight at an interior point; strictly positive there."""
    z = as_point(z, weight.base.dim)
    if contains(weight.base, z) >= 0:
        raise ValueError("point outside the open base domain")
    val = _form_eval(weight.form, weight.base, z)
    if val <= 0:
        raise ValueError("weight evaluated non-positive (inadmissible table?)")
    return val ** weight.power_exponent


def weight_radial_fn(weight: Weight):
    """Vectorized radial evaluation t -> w(t), t = |z|^2.

    Valid on disk, ball, and full space, where every supported form is a
    function of |z|^2 alone.  Type-I weights are not radial in this sense.
    """
    if weight.base.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("type-I weights are not radial in |z|^2")
    m = weight.power_exponent
    form = weight.form

    if isinstance(form, GaussianPower):
        return lambda t: np.exp(-form.mu * m * np.asarray(t, dtype=float))
    if isinstance(form, GenericNormPower):
        return lambda t: (1.0 - np.asarray(t, dtype=float)) ** (form.mu * m)
    if isinstance(form, PolynomialRadial):
        c = np.asarray(form.coefficients)
        return lambda t: npoly.polyval(np.asarray(t, dtype=float), c) ** m
    if isinstance(form, RadialProfile):
        return lambda t: np.asarray(form(t), dtype=float) ** m
    if isinstance(form, Scaled):
        inner = weight_radial_fn(form.inner)
        return lambda t: (form.factor ** m) * inner(t) ** m
    raise TypeError(f"unknown weight form {form!r}")


def load_radial_profile(path, base: DomainSpec | None = None) -> Weight:
    """Load a tabulated radial weight from CSV with header ``t,value``.

    Knots must be strictly increasing decimal floats starting at 0.  If
    ``base`` is omitted the profile is attached to the unit disk.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["t", "value"]:
        raise ValueError(f"{path}: expected CSV header 't,value'")
    ts, vs = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns")
        ts.append(float(row[0]))
        vs.append(float(row[1]))
    base = base if base is not None else unit_disk()
    if base.bounded and ts[-1] < 1.0:
        raise ValueError(f"{path}: table must cover t in [0, 1] on a bounded base")
    return Weight(base, RadialProfile(tuple(ts), tuple(vs)))
