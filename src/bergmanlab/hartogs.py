"""Hartogs domains over a weighted base and the Forelli-Rudin series.

A Hartogs domain with m-dimensional fiber over a base (D, p) is

    Omega = { (z, zeta) in D x C^m : |zeta|^2 < p(z) }.

Its Bergman kernel expands through the weighted kernels of the base:

    K_Omega((z, zeta), (z', zeta'))
        = pi^(-m) sum_{k >= 0} (k+1)_m K_{D, p^(k+m)}(z, z') <zeta, zeta'>^k,

and restricting both fiber variables to zero leaves only the k = 0 term,

    K_Omega((z, 0), (z', 0)) = (m!/pi^m) K_{D, p^m}(z, z').

The series is summed over arrays of point pairs, in passes over the first
16, 32, 64, ... terms of the pairs that have not yet stopped, with a
per-pair stop rule and geometric tail estimate.  The per-term weighted
kernels come from a family: closed forms where available, where every term
is scale_k exp(a_k L(z, z')) and the pair function L is computed once per
pass for all its terms, or Gram-series reconstructions evaluated over all
pairs one term at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainSpec,
    GaussianPower,
    Weight,
    as_point,
    as_point_rows,
    as_points,
    contains,
    generic_norm_factors,
    hermitian_inner,
    principal_log,
    weight_eval,
)
from .kernels import KernelModel, kernel_from_gram, weighted_kernel_closed_form
from .moments import gram_auto
from . import jsonio


@dataclass(frozen=True)
class HartogsDomain:
    """Base domain, defining weight p, and fiber dimension m."""

    base: DomainSpec
    weight: Weight
    fiber_dim: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be >= 1")
        if self.weight.base != self.base:
            raise ValueError("weight must live on the base domain")


def hartogs_contains(domain: HartogsDomain, z, zeta):
    """|zeta|^2 - p(z): negative inside, zero on the fiber boundary.

    One point (z, zeta) gives a float; (k, n) and (k, m) rows of points
    give k values.  Raises if a z leaves the open base domain; the fiber is
    empty there.
    """
    Z, one = as_point_rows(z, domain.base.dim)
    ZETA, _ = as_point_rows(zeta, domain.fiber_dim)
    if (contains(domain.base, Z) >= 0).any():
        raise ValueError("base point outside the open base domain")
    defect = np.sum(np.abs(ZETA) ** 2, axis=1) - weight_eval(domain.weight, Z)
    return float(defect[0]) if one else defect


def pochhammer(k: int, m: int) -> int:
    """Rising factorial (k+1)(k+2)...(k+m)."""
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    out = 1
    for i in range(1, m + 1):
        out *= k + i
    return out


# ---------------------------------------------------------------------------
# weighted-kernel families K_{D, p^(k+m)}
#
# A family maps k to a kernel model (built on first use, cached per k) and
# evaluates term indices over pairs: ``pair_values(Z, Z2, ks)`` returns
# K_k(z_i, z'_i) with shape (len(Z), len(ks)).

class ClosedFormFamily:
    """k -> closed-form K_{D, p^(k+m)}; needs a weight with closed kernels.

    Every kernel of the family is scale_k exp(a_k L(z, z')): a Fock kernel
    with a_k its rate and L = <z, z'> for Gaussian weights on C^n, a power
    kernel with a_k its exponent g + mu_k and L = -log N(z, z') for
    generic-norm weights.
    """

    def __init__(self, domain: HartogsDomain):
        self.domain = domain
        self._cache: dict[int, KernelModel] = {}
        weighted_kernel_closed_form(domain.weight)  # fail fast if unsupported

    def __call__(self, k: int) -> KernelModel:
        if k not in self._cache:
            power = k + self.domain.fiber_dim
            self._cache[k] = weighted_kernel_closed_form(
                self.domain.weight.pow(power))
        return self._cache[k]

    def pair_values(self, Z, Z2, ks) -> np.ndarray:
        models = [self(k) for k in ks]
        scale = np.array([model.scale for model in models])
        if isinstance(self.domain.weight.form, GaussianPower):
            rate = np.array([model.mu for model in models])
            L = hermitian_inner(Z, Z2)
        else:
            rate = np.array([model.exponent for model in models])
            logs = principal_log(generic_norm_factors(self.domain.base, Z, Z2))
            L = -np.sum(logs, axis=-1)
        return scale * np.exp(rate * L[:, None])


class SeriesFamily:
    """k -> Gram-series K_{D, p^(k+m)} at a fixed truncation degree.

    Grams are assembled lazily (closed-form moments when available, radial
    quadrature otherwise) and cached per k.
    """

    def __init__(self, domain: HartogsDomain, degree: int):
        self.domain = domain
        self.degree = degree
        self._cache: dict[int, KernelModel] = {}

    def __call__(self, k: int) -> KernelModel:
        if k not in self._cache:
            power = k + self.domain.fiber_dim
            self._cache[k] = kernel_from_gram(gram_auto(
                self.domain.weight.pow(power), self.degree))
        return self._cache[k]

    def pair_values(self, Z, Z2, ks) -> np.ndarray:
        out = np.empty((len(Z), len(ks)), dtype=complex)
        for j, k in enumerate(ks):
            out[:, j] = self(k).eval_pairs(Z, Z2)
        return out


# ---------------------------------------------------------------------------
# the series

@dataclass
class FrcResult:
    value: complex
    terms_used: int
    tail_estimate: float
    converged: bool
    last_ratio: float | None = None

    def as_dict(self) -> dict:
        return {"value": [jsonio.rnum(self.value.real),
                          jsonio.rnum(self.value.imag)],
                "terms_used": self.terms_used,
                "tail_estimate": jsonio.rnum(self.tail_estimate),
                "converged": self.converged}


@dataclass
class FrcPairs:
    """The fiber series at k pairs: each field holds one entry per pair of
    what a FrcResult holds for one; ``last_ratio`` is NaN where no ratio was
    observed."""

    value: np.ndarray
    terms_used: np.ndarray
    tail_estimate: np.ndarray
    converged: np.ndarray
    last_ratio: np.ndarray

    def pair(self, i: int) -> FrcResult:
        ratio = float(self.last_ratio[i])
        return FrcResult(complex(self.value[i]), int(self.terms_used[i]),
                         float(self.tail_estimate[i]),
                         bool(self.converged[i]),
                         None if math.isnan(ratio) else ratio)


# term indices of the first pass; each later pass doubles them for the
# pairs that have not stopped
_FIRST_TERMS = 16
# largest pairs x terms table of a pass: a dozen arrays of its shape, the
# complex ones 32 MiB each, are live at once
MAX_TERM_TABLE = 1 << 21


def frc_eval_pairs(domain: HartogsDomain, points, points2, kernel_family,
                   max_terms: int = 200, tol: float = 1e-12) -> FrcPairs:
    """Sum the fiber series for K_Omega at k pairs of interior points.

    ``points`` and ``points2`` are (Z, ZETA) with Z of shape (k, n) and ZETA
    of shape (k, m); pair i is (Z[i], ZETA[i]) and (Z2[i], ZETA2[i]).
    ``kernel_family`` is a ClosedFormFamily or SeriesFamily for
    K_{D, p^(k+m)}.  A pass evaluates the first 16, 32, 64, ... terms of
    the pairs that have not stopped, as one array.  A pair stops once five
    consecutive terms are below tol relative to its running partial sum,
    or at max_terms, flagged as non-converged; its tail estimate
    extrapolates its last term geometrically.  The k = 0 term uses the
    convention <zeta,zeta'>^0 = 1 even at <zeta,zeta'> = 0, which the
    zero-fiber restriction identity forces, and such a pair stops after
    it.  A term index whose constants leave the float range raises only if
    some pair still needs it, and a partial sum that leaves it raises
    FloatingPointError; terms evaluated past a pair's stop may overflow.
    A pass whose pairs x terms table would hold more than
    ``MAX_TERM_TABLE`` entries is refused before it is allocated.
    """
    (z, zeta), (z2, zeta2) = points, points2
    n, m = domain.base.dim, domain.fiber_dim
    Z, Z2 = as_points(z, n), as_points(z2, n)
    ZETA, ZETA2 = as_points(zeta, m), as_points(zeta2, m)
    if not len(Z) == len(Z2) == len(ZETA) == len(ZETA2):
        raise ValueError("pairs need as many points on each side")
    if (hartogs_contains(domain, Z, ZETA) >= 0).any() or \
            (hartogs_contains(domain, Z2, ZETA2) >= 0).any():
        raise ValueError("points must be strictly inside the Hartogs domain")

    u = hermitian_inner(ZETA, ZETA2)
    count = len(u)
    zero = u == 0
    inv_pi_m = math.pi ** (-m)
    coef: list[float] = []
    # a pair that sums no term: value 0 and no ratio
    out = FrcPairs(np.zeros(count, dtype=complex), np.zeros(count, dtype=int),
                   np.where(zero, 0.0, np.inf), zero.copy(),
                   np.full(count, np.nan))
    active = np.arange(count)
    width = _FIRST_TERMS
    while active.size and max_terms > 0:
        K = min(width, max_terms)
        pending = None
        for k in range(len(coef), K):
            try:
                kernel_family(k)
                coef.append(inv_pi_m * pochhammer(k, m))
            except (ArithmeticError, ValueError) as exc:
                K, pending = k, exc
                break
        if K == 0:
            raise pending
        if active.size * K > MAX_TERM_TABLE:
            raise ValueError(f"{active.size} pairs x {K} terms exceed the "
                             f"MAX_TERM_TABLE = {MAX_TERM_TABLE} entries of "
                             "one fiber-series pass")
        a, idx = active, np.arange(K)
        # terms past a pair's stop are never used, so they may leave the
        # float range; the used ones are checked below
        with np.errstate(over="ignore", invalid="ignore"):
            # u^k by repeated multiplication, then c_k K_k(z, z') u^k
            upows = np.cumprod(np.concatenate(
                [np.ones((len(a), 1)), np.repeat(u[a, None], K - 1, axis=1)],
                axis=1), axis=1)
            T = np.array(coef[:K]) * kernel_family.pair_values(
                Z[a], Z2[a], range(K)) * upows
            sums = np.cumsum(T, axis=1)
            mags = np.abs(T)
            small = mags < tol * np.maximum(np.abs(sums), 1e-300)
            # |term_k / term_(k-1)| where the previous term is nonzero
            seen = np.concatenate([np.zeros((len(a), 1), dtype=bool),
                                   mags[:, :-1] > 0], axis=1)
            ratios = mags / np.where(seen, np.roll(mags, 1, axis=1), 1.0)
        # consecutive small terms ending at each index
        streaks = idx - np.maximum.accumulate(np.where(small, -1, idx), axis=1)
        stop = streaks >= 5
        stop[:, 0] |= zero[a]   # every later term vanishes
        last_seen = np.maximum.accumulate(np.where(seen, idx, -1), axis=1)

        stops = stop.any(axis=1)
        done = stops | (K == max_terms)
        last_used = np.where(stops, stop.argmax(axis=1), K - 1)
        if not np.isfinite(sums[idx <= last_used[:, None]]).all():
            raise FloatingPointError("a fiber-series partial sum leaves "
                                     "the float range")
        d, rows = a[done], np.flatnonzero(done)
        j = last_used[rows]
        last = last_seen[rows, j]
        ratio = np.where(last >= 0, ratios[rows, np.maximum(last, 0)], np.nan)
        mag = mags[rows, j]
        converged = (streaks[rows, j] >= 5) | (mag == 0.0) | zero[d]
        tail = np.where(converged, 0.0, np.inf)
        geometric = (ratio < 1.0) & ~zero[d]
        tail[geometric] = (mag[geometric] * ratio[geometric]
                           / (1.0 - ratio[geometric]))
        out.value[d] = sums[rows, j]
        out.terms_used[d] = j + 1
        out.tail_estimate[d] = tail
        out.converged[d] = converged
        out.last_ratio[d] = np.where(zero[d], np.nan, ratio)
        active = a[~done]
        if pending is not None and active.size:
            raise pending
        width *= 2
    return out


def frc_eval(domain: HartogsDomain, point, point2, kernel_family,
             max_terms: int = 200, tol: float = 1e-12) -> FrcResult:
    """Sum the fiber series for K_Omega at one pair of interior points: the
    one-pair view of ``frc_eval_pairs``, same stop rule and tail estimate.
    """
    def rows(pt):
        z, zeta = pt
        return (as_point(z, domain.base.dim)[None, :],
                as_point(zeta, domain.fiber_dim)[None, :])

    return frc_eval_pairs(domain, rows(point), rows(point2), kernel_family,
                          max_terms, tol).pair(0)


def frc_restriction_check(domain: HartogsDomain, z, z2, kernel_omega,
                          reference: KernelModel | None = None,
                          degree: int = 40):
    """Residual of the zero-fiber restriction identity.

    Compares K_Omega((z,0),(z',0)) against (m!/pi^m) K_{D, p^m}(z, z').  One
    pair of base points gives one residual; (k, n) rows of pairs give k
    residuals.  ``kernel_omega`` is called once, with the base points as
    given and zero fibers of the same form, ((z, 0), (z', 0)), and returns a
    value per pair: e.g. the ``value`` of ``frc_eval`` for one pair or of
    ``frc_eval_pairs`` for rows.  The reference weighted kernel is built
    from a Gram series at ``degree`` unless one is supplied.  Each residual
    is relative, or absolute where the reference vanishes.
    """
    m = domain.fiber_dim
    Z, one = as_point_rows(z, domain.base.dim)
    Z2, _ = as_point_rows(z2, domain.base.dim)
    zeros = np.zeros((len(Z), m), dtype=complex)

    if reference is None:
        reference = kernel_from_gram(
            gram_auto(domain.weight.pow(m), degree))

    if one:
        lhs = kernel_omega((Z[0], zeros[0]), (Z2[0], zeros[0]))
    else:
        lhs = kernel_omega((Z, zeros), (Z2, zeros))
    ref = math.factorial(m) / math.pi ** m * np.diagonal(
        reference.eval_grid(Z, Z2))
    size = np.abs(ref)
    residual = np.abs(lhs - ref) / np.where(size < 1e-300, 1.0, size)
    return float(residual[0]) if one else residual


def ball_kernel(n: int):
    """Closed-form Bergman kernel of the unit ball in C^n (raw volume),
    K(Z, W) = n!/pi^n (1 - <Z, W>)^(-(n+1)); the oracle for the original
    Forelli-Rudin case, where the Hartogs domain over the disk with weight
    1 - |z|^2 is the ball of one dimension higher.  One pair of points
    gives a complex value, (k, n) rows of pairs k values."""
    c = math.factorial(n) / math.pi ** n

    def kernel(Z, W):
        Z, one = as_point_rows(Z, n)
        W, _ = as_point_rows(W, n)
        values = c * (1.0 - hermitian_inner(Z, W)) ** (-(n + 1))
        return complex(values[0]) if one else values

    return kernel
