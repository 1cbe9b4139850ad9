"""Model domains, weights of integration, and multi-index bookkeeping.

Supported base domains: the unit ball in C^n, type-I matrix balls
{Z in C^(p x q) : I - Z Z* > 0}, and the full space C^n.  The unit disk is
the ball B^1: ``unit_disk()`` and ``unit_ball(1)`` are one value.  Each
bounded domain carries its generic norm N(z, w) and genus g, together with
the Hua polynomial chi giving the normalization integral

    integral_D N(z,z)^mu dV(z) = chi(0)/chi(mu) * Vol(D).

Weights of integration are radial on disk/ball/full space (Gaussian powers,
generic-norm powers, polynomials in t = |z|^2, tabulated radial profiles).
A weight is scale * form^power_exponent: the integer power applies lazily
and the positive constant is a field, so p^m and c * p are again weights.

All functions here are pure and operate on immutable values; they are safe
to call concurrently from any number of threads.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly


class DomainKind(Enum):
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
        if self.kind is DomainKind.TYPE_I_MATRIX_BALL:
            if self.shape is None or self.shape[0] * self.shape[1] != self.dim:
                raise ValueError("type-I ball needs shape (p, q) with p*q = dim")

    @property
    def bounded(self) -> bool:
        return self.kind is not DomainKind.FULL_SPACE

    @property
    def genus(self) -> int:
        if self.kind is DomainKind.UNIT_BALL:
            return self.dim + 1
        if self.kind is DomainKind.TYPE_I_MATRIX_BALL:
            p, q = self.shape
            return p + q
        raise ValueError("the full space has no genus")

    @functools.cached_property
    def hua(self) -> HuaPolynomial:
        """Built on first use and kept on this domain value."""
        if self.kind is DomainKind.UNIT_BALL:
            return _hua_ball(self.dim)
        if self.kind is DomainKind.TYPE_I_MATRIX_BALL:
            return _hua_type_i(*self.shape)
        raise ValueError("the full space has no Hua polynomial")

    @functools.cached_property
    def volume(self) -> float:
        """Euclidean volume of the bounded domain, kept like ``hua``."""
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
    """The unit disk, the ball B^1."""
    return unit_ball(1)


def unit_ball(n: int) -> DomainSpec:
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
    if not np.isfinite(arr).all():
        raise ValueError("point set has non-finite entries")
    return arr


def as_point_rows(z, dim: int) -> tuple[np.ndarray, bool]:
    """Points as rows: one point of C^dim becomes a validated (1, dim) array
    and the flag True, a (k, dim) point array goes through ``as_points`` and
    gives False.  A function written over rows returns its 1-row view when
    the flag is set, so one point and many take the same path."""
    if np.ndim(z) <= 1:
        return as_point(z, dim)[None, :], True
    return as_points(z, dim), False


def per_entry(f, x) -> np.ndarray:
    """The real function f over the entries of x, each a Python number.
    A per-map constant such as N(a,a)^(mu/2) or |J|^2 is formed this way
    on the rows of a stack of maps, because numpy's vectorized power and
    complex abs round some entries apart from Python's, and each row must
    equal its single map bit for bit."""
    return np.asarray(f(np.asarray(x).astype(object)), dtype=float)


# largest number of points one draw may hold: a draw allocates its count x
# 2n doubles up front, before a point is accepted or used
MAX_POINTS = 1 << 20


def _check_draw(count: int) -> None:
    if count > MAX_POINTS:
        raise ValueError(f"cannot draw {count} points; one draw holds at most "
                         f"MAX_POINTS = {MAX_POINTS}")


def sample_cube(rng, n: int, radius: float, count: int) -> np.ndarray:
    """count points of C^n as a (count, n) array, each drawing its real
    parts, then its imaginary parts, uniformly from [-radius, radius]^n:
    the doubles ``count`` calls of ``rng.uniform(-radius, radius, n)``, two
    per point, would draw."""
    _check_draw(count)
    c = rng.uniform(-radius, radius, (count, 2, n))
    return c[:, 0] + 1j * c[:, 1]


def sample_ball_polar(rng, n: int, radius: float, count: int) -> np.ndarray:
    """count points drawn uniformly from the closed ball of the given radius
    in C^n, as a (count, n) array: a normal direction in R^(2n), real parts
    first, scaled to the radius radius * U^(1/(2n))."""
    _check_draw(count)
    g = rng.standard_normal((count, 2 * n))
    # the row sums of squares np.linalg.norm takes, in its order
    g /= np.sqrt(np.add.reduce(g * g, axis=1))[:, None]
    scale = (radius * rng.random(count) ** (1.0 / (2 * n)))[:, None]
    pts = np.empty((count, n), dtype=complex)
    np.multiply(g[:, :n], scale, out=pts.real)
    np.multiply(g[:, n:], scale, out=pts.imag)
    return pts


def sample_ball(rng, n: int, radius: float, count: int) -> np.ndarray:
    """count points drawn uniformly from the closed ball of the given radius
    in C^n, as a (count, n) complex array.

    For n <= 3 each candidate draws its real parts, then its imaginary
    parts, uniformly from [-1, 1]^n, is rejected outside the unit ball and
    scaled by radius once accepted.  Candidates are drawn in blocks sized
    from the cube's share inside the ball, pi^n / (n! 4^n); the points are
    bit for bit those a candidate-by-candidate loop accepts, but the
    generator has also drawn the unused rest of the last block, so its
    state afterwards differs from that loop's.  The share is 31 % at n = 2
    and 8 % at n = 3 but falls below 2 % from n = 4 on, so there the points
    come from ``sample_ball_polar``.
    """
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"sampling radius must be finite and >= 0, "
                         f"not {radius!r}")
    if n > 3:
        return sample_ball_polar(rng, n, radius, count)
    _check_draw(count)
    inside_share = math.pi ** n / (math.factorial(n) * 4 ** n)
    pts = np.empty((0, n), dtype=complex)
    while len(pts) < count:
        short = count - len(pts)
        block = min(MAX_POINTS, int(1.25 * short / inside_share) + 16)
        c = sample_cube(rng, n, 1.0, block)
        # tested before scaling, which cannot overflow
        inside = np.sum(c.real ** 2 + c.imag ** 2, axis=1) <= 1.0
        pts = np.concatenate([pts, c[inside][:short]])
    return pts * radius


def _as_matrix(domain: DomainSpec, z: np.ndarray) -> np.ndarray:
    """Points of C^(pq), one or rows, as p x q matrices."""
    p, q = domain.shape
    return z.reshape(z.shape[:-1] + (p, q))


def hermitian_inner(z, w):
    """<z, w> = sum z_j conj(w_j) over the last axis, conjugate-linear in
    the second slot.  Two points give one complex number; rows of points
    (against rows or one point) give one inner product per row.  The real
    and imaginary parts are summed separately, so <w, z> is exactly
    conj(<z, w>)."""
    z, w = np.asarray(z), np.asarray(w)
    out = np.empty(np.broadcast_shapes(z.shape, w.shape)[:-1], dtype=complex)
    out.real = np.sum(z.real * w.real + z.imag * w.imag, axis=-1)
    out.imag = np.sum(z.imag * w.real - z.real * w.imag, axis=-1)
    return out[()]


# ---------------------------------------------------------------------------
# multi-indices (graded lexicographic order, globally fixed)

# largest monomial basis C(n+d, n) that may be enumerated: every base of
# dimension <= 2 at the largest degree, 64.  A dense complex Gram matrix over
# it takes 70 MiB, and its factorizations a few times more.
MAX_BASIS = math.comb(2 + 64, 2)


def _compositions(n: int, total: int):
    """The compositions of total into n parts, leading part largest first.

    Iterative, so n is not bounded by the recursion limit: each step takes
    one unit from the last nonzero part before the final one and moves it,
    with the whole final part, into the part after it.
    """
    a = [total] + [0] * (n - 1)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] == 0:
            i -= 1
        if i < 0:
            return
        last = a[n - 1]
        a[i] -= 1
        a[n - 1] = 0
        a[i + 1] = last + 1


def multiindex_enumerate(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices of length n and degree <= d in grlex order.

    Grlex compares total degree first and breaks ties lexicographically with
    the leading variable largest, e.g. for n = 2: (0,0), (1,0), (0,1),
    (2,0), (1,1), (0,2), ...  The count is C(n+d, n); a count above
    ``MAX_BASIS`` is refused before anything is enumerated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    size = math.comb(n + d, n)
    if size > MAX_BASIS:
        raise ValueError(
            f"degree {d} in {n} complex dimensions needs {size} "
            f"monomials; a monomial basis may have at most {MAX_BASIS}")
    out = []
    for deg in range(d + 1):
        out.extend(_compositions(n, deg))
    return out


# ---------------------------------------------------------------------------
# generic norm, genus, containment

def generic_norm_factors(domain: DomainSpec, z, w) -> np.ndarray:
    """The factors (1 - lambda_i) whose product is N(z, w).

    For disk/ball there is a single factor 1 - <z, w>; for type-I balls the
    lambda_i are the eigenvalues of Z W*.  On interior points every factor
    lies in the open right half-plane, so principal logarithms per factor
    give an unambiguous branch for complex powers of N.  Two points give
    one row of factors; rows of points, paired with as many rows or with
    one point, give one row of factors per pair.
    """
    Z, one_z = as_point_rows(z, domain.dim)
    W, one_w = as_point_rows(w, domain.dim)
    if domain.kind is DomainKind.UNIT_BALL:
        factors = 1.0 - hermitian_inner(Z, W)[:, None]
    elif domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        Wh = _as_matrix(domain, W).conj().swapaxes(-1, -2)
        factors = 1.0 - np.linalg.eigvals(_as_matrix(domain, Z) @ Wh)
    else:
        raise ValueError("the full space has no generic norm")
    return factors[0] if one_z and one_w else factors


def generic_norm(domain: DomainSpec, z, w):
    """N(z, w): 1 - z conj(w) on the disk, 1 - <z,w> on the ball,
    det(I - Z W*) on type-I matrix balls; one value per pair of rows."""
    return np.prod(generic_norm_factors(domain, z, w), axis=-1)


def principal_log(factors: np.ndarray) -> np.ndarray:
    """Principal logarithms of generic-norm factors, elementwise.  A factor
    on the branch cut (the closed negative real axis) means a point is not
    interior."""
    if ((factors.real <= 0) & (factors.imag == 0)).any():
        raise ValueError("generic-norm factor on the branch cut; "
                         "points must be interior")
    return np.log(factors)


def generic_norm_power(domain: DomainSpec, z, w, exponent: complex):
    """N(z, w)^exponent via principal logarithms of the per-eigenvalue
    factors; one value per pair of rows."""
    factors = generic_norm_factors(domain, z, w)
    return np.exp(exponent * np.sum(principal_log(factors), axis=-1))


def hua_normalization(domain: DomainSpec, mu: float) -> float:
    """c_{D,mu} = chi(0)/chi(mu) * Vol(D) = integral_D N(z,z)^mu dV(z)."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    chi = domain.hua
    return chi(0.0) / chi(mu) * domain.volume


def contains(domain: DomainSpec, z):
    """Continuous boundary defect: negative inside, 0 on the boundary,
    positive outside.  The full space contains everything (defect -1).
    One point gives a float, (k, dim) rows of points k defects."""
    Z, one = as_point_rows(z, domain.dim)
    if domain.kind is DomainKind.FULL_SPACE:
        defect = np.full(len(Z), -1.0)
    elif domain.kind is DomainKind.UNIT_BALL:
        defect = np.sum(np.abs(Z) ** 2, axis=1) - 1.0
    else:
        smax = np.linalg.svd(_as_matrix(domain, Z), compute_uv=False)[:, 0]
        defect = smax ** 2 - 1.0
    return float(defect[0]) if one else defect


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
    _cubic: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 4 or t.size != v.size:
            raise ValueError("radial profile needs >= 4 matching knots/values")
        if t[0] > 1e-12:
            raise ValueError("radial profile must start at t = 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("radial profile knots must be strictly increasing")
        object.__setattr__(self, "_cubic", (t, _pchip_coefficients(t, v)))

    def __call__(self, t):
        out = _pchip_eval(*self._cubic, t)
        if np.any(np.isnan(out)):
            raise ValueError("radial profile evaluated outside its table")
        return out


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, set to 0 or 3 m0 where it would
    break the shape of the data (Moler, Numerical Computing with MATLAB,
    section 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows c3, c2, c1, c0 of the monotone piecewise cubic through (t, v):
    on [t_i, t_(i+1)] it is c0 + c1 s + c2 s^2 + c3 s^3 with s = x - t_i.

    The knot slopes are Fritsch and Butland's weighted harmonic means of
    the neighbouring secants, 0 where those differ in sign or vanish (SIAM
    J. Sci. Stat. Comput. 5 (1984)), in the arithmetic order of SciPy's
    ``PchipInterpolator``.
    """
    h = t[1:] - t[:-1]
    m = (v[1:] - v[:-1]) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):   # flat knots: 0
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])],
                        np.where(flat, 0.0, inner),
                        [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    bend = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([bend / h, (m - d[:-1]) / h - bend, d[:-1], v[:-1]])


def _pchip_eval(t: np.ndarray, coef: np.ndarray, x) -> np.ndarray:
    """The piecewise cubic at x; NaN outside [t_0, t_last].  Interval i
    holds t_i <= x < t_(i+1), the last one also its right end."""
    x = np.asarray(x, dtype=float)
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    s = x - t[i]
    c3, c2, c1, c0 = coef[:, i]
    out = c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
    return np.where((x >= t[0]) & (x <= t[-1]), out, np.nan)


WeightForm = GaussianPower | GenericNormPower | PolynomialRadial | RadialProfile


@dataclass(frozen=True)
class Weight:
    """A positive weight of integration on a base domain.

    The weight evaluates to scale * form^power_exponent: the power applies
    lazily, so p^m is again a Weight, and so is c * p.
    """

    base: DomainSpec
    form: WeightForm
    power_exponent: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.power_exponent < 1:
            raise ValueError("power exponent must be >= 1")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"weight scale must be finite and positive, "
                             f"not {self.scale!r}")
        if isinstance(self.form, GaussianPower) and self.base.bounded:
            raise ValueError("Gaussian weights live on the full space")
        if isinstance(self.form, GenericNormPower) and not self.base.bounded:
            raise ValueError("generic-norm weights need a bounded base")

    def pow(self, m: int) -> "Weight":
        """(scale * form^k)^m = scale^m * form^(k m).  A scale^m outside
        the positive float range is refused by name."""
        if m < 1:
            raise ValueError("power must be >= 1")
        try:
            scale = self.scale ** m
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            flow = "overflows" if scale else "underflows"
            raise ValueError(f"weight scale {self.scale!r} {flow} at power {m}")
        return Weight(self.base, self.form, self.power_exponent * m, scale)

    def scaled(self, c: float) -> "Weight":
        return Weight(self.base, self.form, self.power_exponent,
                      self.scale * c)


def gaussian_weight(n: int, mu: float) -> Weight:
    return Weight(full_space(n), GaussianPower(mu))


def generic_norm_weight(domain: DomainSpec, mu: float) -> Weight:
    return Weight(domain, GenericNormPower(mu))


def polynomial_weight(domain: DomainSpec, coefficients) -> Weight:
    return Weight(domain, PolynomialRadial(tuple(float(c) for c in coefficients)))


def weight_eval(weight: Weight, z):
    """Evaluate the weight at interior points; strictly positive there.

    One point gives a float, (k, dim) rows of points k values.  Weights on
    disk, ball and C^n go through ``weight_radial_fn`` at t = |z|^2.  On
    type-I bases, which are not radial in |z|^2, generic-norm powers are
    evaluated through det(I - Z Z*); other forms are refused there.  The
    base form is evaluated and checked before the power and the scale are
    applied; a value beyond the float range raises.
    """
    base, form = weight.base, weight.form
    Z, one = as_point_rows(z, base.dim)
    if (contains(base, Z) >= 0).any():
        raise ValueError("point outside the open base domain")
    if base.kind is DomainKind.TYPE_I_MATRIX_BALL:
        if not isinstance(form, GenericNormPower):
            raise ValueError("type-I weights are evaluated for generic-norm "
                             "powers only")
        val = np.maximum(generic_norm(base, Z, Z).real, 0.0) ** form.mu
    else:
        t = np.sum(np.abs(Z) ** 2, axis=1)
        val = np.asarray(weight_radial_fn(Weight(base, form))(t), dtype=float)
    if (val <= 0).any():
        raise ValueError("weight evaluated non-positive (inadmissible table?)")
    with np.errstate(over="ignore"):
        out = weight.scale * val ** weight.power_exponent
    if not np.isfinite(out).all():
        raise ValueError(f"weight value overflows at scale {weight.scale!r} "
                         f"and power {weight.power_exponent}")
    return float(out[0]) if one else out


def weight_radial_fn(weight: Weight):
    """Vectorized radial evaluation t -> w(t), t = |z|^2.

    Valid on disk, ball, and full space, where every supported form is a
    function of |z|^2 alone.  Type-I weights are not radial in this sense.
    """
    if weight.base.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("type-I weights are not radial in |z|^2")
    m, scale, form = weight.power_exponent, weight.scale, weight.form

    if isinstance(form, GaussianPower):
        fn = lambda t: np.exp(-form.mu * m * t)
    elif isinstance(form, GenericNormPower):
        fn = lambda t: (1.0 - t) ** (form.mu * m)
    elif isinstance(form, PolynomialRadial):
        c = np.asarray(form.coefficients)
        fn = lambda t: npoly.polyval(t, c) ** m
    elif isinstance(form, RadialProfile):
        fn = lambda t: np.asarray(form(t), dtype=float) ** m
    else:
        raise TypeError(f"unknown weight form {form!r}")
    return lambda t: scale * fn(np.asarray(t, dtype=float))


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
