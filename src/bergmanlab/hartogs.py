"""Hartogs domains over a weighted base and the Forelli-Rudin series.

A Hartogs domain with m-dimensional fiber over a base (D, p) is

    Omega = { (z, zeta) in D x C^m : |zeta|^2 < p(z) }.

Its Bergman kernel expands through the weighted kernels of the base:

    K_Omega((z, zeta), (z', zeta'))
        = pi^(-m) sum_{k >= 0} (k+1)_m K_{D, p^(k+m)}(z, z') <zeta, zeta'>^k,

and restricting both fiber variables to zero leaves only the k = 0 term,

    K_Omega((z, 0), (z', 0)) = (m!/pi^m) K_{D, p^m}(z, z').

The series is summed over arrays of point pairs, with a per-pair stop rule
and geometric tail estimate; a pair with <zeta, zeta'> = 0 is its k = 0
term and stops there, in the first pass.  A pass is one table of terms,
from a family of weighted kernels K_{D, p^(k+m)}, over the pairs that have
not yet stopped.
Where the kernels have closed forms, every term is
C_k exp(a_k L(z, z')) <zeta, zeta'>^k with a_k = a_0 + mu k, so the table
is geometric,

    C_k E x^k,   E = exp(a_0 L),   x = exp(mu L) <zeta, zeta'>,

from one base (E, x) per pair, formed once for all passes, and one array
of constants C_k (the ratio x of Yamamori, Complex Var. Elliptic Equ. 58
(2013)).  The first pass takes 16 terms; each later one at least doubles
them, and takes as many as the last terms of the pairs still summing,
shrinking at their last ratios, say the stop rule needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import (
    DomainSpec,
    GaussianPower,
    Weight,
    _contains_rows,
    _weight_rows,
    as_points,
    generic_norm_factors,
    hermitian_inner,
    principal_log,
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

    (k, n) and (k, m) rows of points (z, zeta) give k values.  Raises if a
    z leaves the open base domain; the fiber is empty there.
    """
    return _hartogs_contains_rows(domain, as_points(z, domain.base.dim),
                                  as_points(zeta, domain.fiber_dim))


def _hartogs_contains_rows(domain: HartogsDomain, Z: np.ndarray,
                           ZETA: np.ndarray) -> np.ndarray:
    """``hartogs_contains`` at (k, n) and (k, m) rows already validated."""
    if (_contains_rows(domain.base, Z) >= 0).any():
        raise ValueError("base point outside the open base domain")
    return np.sum(np.abs(ZETA) ** 2, axis=1) - _weight_rows(domain.weight, Z)


# ---------------------------------------------------------------------------
# weighted-kernel families K_{D, p^(k+m)}
#
# A family evaluates the first K terms over pairs as one table in two
# steps: ``bases(Z, Z2, u)`` gives each pair's base (E, x), and
# ``table(E, x, K)`` turns bases into the terms K_k(z_i, z'_i) u_i^k, with
# shape (len(E), K).  Entry (i, k) depends on base i alone and is the same
# for every K > k, so the bases of all pairs are formed once and each pass
# tabulates a slice of them.  ``usable_terms(K)`` says how many of the
# first K terms can be formed, and gives the error the next one raises.

def _powers(x: np.ndarray, K: int) -> np.ndarray:
    """1, x, ..., x^(K-1) per entry of x, by repeated multiplication."""
    P = np.empty((len(x), K), dtype=complex)
    P[:, 0] = 1.0
    P[:, 1:] = x[:, None]
    return np.cumprod(P, axis=1, out=P)


class ClosedFormFamily:
    """The closed-form kernels K_{D, p^(k+m)} of a weight with closed
    kernels, as one table of terms.

    Every kernel of the family is C_k exp(a_k L(z, z')) with a_k = a_0 + mu k:
    a Fock kernel with L = <z, z'> and C_k = (s_k/pi)^n / c^(k+m) for
    Gaussian weights on C^n, a power kernel with L = -log N(z, z') and
    C_k = 1 / (c^(k+m) c_{D, s_k}) for generic-norm weights, where mu is
    the rate of p (its form's mu times its power), s_k = mu (k+m), c is the
    weight's scale and c_{D, s} its Hua normalization.  The series' terms
    are therefore the geometric table C_k E x^k with E = exp(a_0 L) and
    x = exp(mu L) <zeta, zeta'>.  The constructor builds the k = 0 model,
    so a weight without closed kernels, or whose p^m leaves the float
    range, is refused there.
    """

    def __init__(self, domain: HartogsDomain):
        self.domain = domain
        weight, m = domain.weight, domain.fiber_dim
        # fail fast if unsupported; the k = 0 model gives the first
        # constant, in its own float order, and the rate
        first = weighted_kernel_closed_form(weight.pow(m))
        self._first_constant = first.scale
        self._gaussian = isinstance(weight.form, GaussianPower)
        self._rate = first.mu if self._gaussian else first.exponent
        self._step = weight.form.mu * weight.power_exponent
        self._constants = np.empty(0)

    def _constants_upto(self, K: int) -> np.ndarray:
        """C_k for k < K, NaN where c^(k+m) or C_k leaves the positive
        float range; computed for at least the terms of a first pass and
        the second pass that most series need after it."""
        if len(self._constants) < K:
            weight, m = self.domain.weight, self.domain.fiber_dim
            base = self.domain.base
            power = np.arange(m, max(K, 4 * _FIRST_TERMS) + m)
            s = weight.form.mu * (weight.power_exponent * power)
            with np.errstate(all="ignore"):
                cpow = weight.scale ** power.astype(float)
                if self._gaussian:
                    C = (s / math.pi) ** base.dim / cpow
                else:
                    chi = np.asarray(base.hua.coefficients)
                    hua = chi[0] / npoly.polyval(s, chi) * base.volume
                    C = 1.0 / (cpow * hua)
            C[~((cpow > 0) & (cpow < np.inf))] = np.nan
            C[0] = self._first_constant
            self._constants = C
        return self._constants[:K]

    def usable_terms(self, K: int) -> tuple[int, Exception | None]:
        C = self._constants_upto(K)
        bad = np.flatnonzero(~(np.isfinite(C) & (C > 0)))
        if not bad.size:
            return K, None
        k = int(bad[0])
        try:
            # its model raises the error that names the cause
            weighted_kernel_closed_form(
                self.domain.weight.pow(k + self.domain.fiber_dim))
        except (ArithmeticError, ValueError) as exc:
            return k, exc
        return k, ValueError(f"the constant of fiber-series term {k} leaves "
                             "the float range")

    def bases(self, Z, Z2, u) -> tuple[np.ndarray, np.ndarray]:
        """E = exp(a_0 L) and x = exp(mu L) u, one entry per pair."""
        if self._gaussian:
            L = hermitian_inner(Z, Z2)
        else:
            logs = principal_log(generic_norm_factors(self.domain.base, Z, Z2))
            L = -np.sum(logs, axis=-1)
        return np.exp(self._rate * L), np.exp(self._step * L) * u

    def table(self, E, x, K: int) -> np.ndarray:
        """C_k E x^k for k < K, one row per pair."""
        return (self._constants_upto(K) * E[:, None]) * _powers(x, K)


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


# term indices of the first pass; each later pass at least doubles them for
# the pairs that have not stopped
_FIRST_TERMS = 16
# largest pairs x terms table of a pass: a dozen arrays of its shape, the
# complex ones 32 MiB each, are live at once
MAX_TERM_TABLE = 1 << 21
# consecutive terms below tol that stop a pair
_STREAK = 5


def fiber_coefficients(m: int, K: int) -> np.ndarray:
    """pi^(-m) (k+1)_m for k < K, the factors of the fiber series' terms."""
    rising = np.prod(np.arange(K, dtype=float)[:, None]
                     + np.arange(1.0, m + 1), axis=1)
    return math.pi ** (-m) * rising


def _terms_needed(before: np.ndarray, last: np.ndarray,
                  partial: np.ndarray, K: int, tol: float) -> float:
    """Terms the pairs still summing after a K-term pass need, from the
    magnitudes of their last two terms and their partial sums: each last
    term shrinks at its last ratio until it is below tol relative to the
    partial sum, and _STREAK - 1 more terms stop the pair.  The largest
    over the pairs, or 0 where some pair's terms do not shrink yet."""
    with np.errstate(all="ignore"):
        ratio = last / before
        more = np.log(tol * partial / last) / np.log(ratio)
    need = float(np.max(more))
    if not (ratio < 1.0).all() or not math.isfinite(need):
        return 0.0
    return K + need + _STREAK - 1


def _next_width(width: int, need: float, max_terms: int) -> int:
    """Terms of the pass after one of ``width`` terms: twice as many, or
    the fewest further doublings that reach ``need``, and none past
    max_terms.  Every width is a width doubling reaches, and a pair's
    terms do not depend on the width, so the results do not either."""
    width *= 2
    while width < min(need, max_terms):
        width *= 2
    return width


def frc_eval_pairs(domain: HartogsDomain, points, points2, kernel_family,
                   max_terms: int = 200, tol: float = 1e-12) -> FrcPairs:
    """Sum the fiber series for K_Omega at k pairs of interior points.

    ``points`` and ``points2`` are (Z, ZETA) with Z of shape (k, n) and ZETA
    of shape (k, m); pair i is (Z[i], ZETA[i]) and (Z2[i], ZETA2[i]).
    ``kernel_family`` is a ClosedFormFamily for K_{D, p^(k+m)}.  Each
    pair's base is formed once; a pass tabulates the first K terms of the
    pairs that have not stopped, K = 16 in the first pass and at least
    twice the last in each later one (see ``_next_width``); ``max_terms``
    below 1 is refused.  A pair stops once five consecutive terms are
    below tol relative to its running partial sum, or at max_terms,
    flagged as non-converged; its tail
    estimate extrapolates its last term geometrically.  A pair's result
    does not depend on the passes it went through.  A pair with
    <zeta,zeta'> = 0 is its k = 0 term, by the convention
    <zeta,zeta'>^0 = 1 that the zero-fiber restriction identity forces,
    and stops at k = 0 in the first pass.  A term index whose constants
    leave the float range raises only if some pair still needs it, and a
    partial sum that leaves it raises FloatingPointError; terms evaluated
    past a pair's stop may overflow.  A first pass of more than
    ``MAX_TERM_TABLE`` pairs x terms, zero-fiber pairs included, is refused
    before it is allocated; a later one of K terms is summed in blocks of
    at most MAX_TERM_TABLE // K pairs.
    """
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, not {max_terms}")
    (z, zeta), (z2, zeta2) = points, points2
    n, m = domain.base.dim, domain.fiber_dim
    Z, Z2 = as_points(z, n), as_points(z2, n)
    ZETA, ZETA2 = as_points(zeta, m), as_points(zeta2, m)
    if not len(Z) == len(Z2) == len(ZETA) == len(ZETA2):
        raise ValueError("pairs need as many points on each side")
    if (_hartogs_contains_rows(domain, Z, ZETA) >= 0).any() or \
            (_hartogs_contains_rows(domain, Z2, ZETA2) >= 0).any():
        raise ValueError("points must be strictly inside the Hartogs domain")

    u = hermitian_inner(ZETA, ZETA2)
    count = len(u)
    zero = u == 0
    # every field of a pair is set by the pass that stops it
    out = FrcPairs(np.zeros(count, dtype=complex), np.zeros(count, dtype=int),
                   np.zeros(count), np.zeros(count, dtype=bool),
                   np.zeros(count))
    if not count:
        return out
    # terms past a pair's stop are never used, so they may leave the float
    # range; the used ones are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        E, x = kernel_family.bases(Z, Z2, u)
    active = np.arange(count)
    width = _FIRST_TERMS
    while active.size:
        K, pending = kernel_family.usable_terms(min(width, max_terms))
        if K == 0:
            raise pending
        # the first pass is one table, a later one row blocks that fit it
        if width == _FIRST_TERMS and active.size * K > MAX_TERM_TABLE:
            raise ValueError(f"{active.size} pairs x {K} terms exceed the "
                             f"MAX_TERM_TABLE = {MAX_TERM_TABLE} entries of "
                             "one fiber-series pass")
        step = max(1, MAX_TERM_TABLE // K)
        done, last, partial = map(np.concatenate, zip(*(
            _fiber_pass(out, kernel_family, m, K, tol, max_terms, zero,
                        active[lo:lo + step], E[lo:lo + step], x[lo:lo + step])
            for lo in range(0, active.size, step))))
        left = np.flatnonzero(~done)
        if pending is not None and left.size:
            raise pending
        if left.size:
            need = _terms_needed(last[left, -2], last[left, -1],
                                 partial[left], K, tol)
            width = _next_width(width, need, max_terms)
        active, E, x = active[left], E[left], x[left]
    return out


def _fiber_pass(out, kernel_family, m, K, tol, max_terms, zero, active, E, x):
    """Write the results of the pairs ``active`` that stop within K terms
    into ``out``; per pair, whether it stopped, the magnitudes of its last
    two terms and that of its partial sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        T = fiber_coefficients(m, K) * kernel_family.table(E, x, K)
        sums = np.cumsum(T, axis=1)
        mags = np.abs(T)
        small = mags < tol * np.maximum(np.abs(sums), 1e-300)
    # a pair stops at the last of its first _STREAK consecutive small
    # terms
    if K >= _STREAK:
        run = small[:, _STREAK - 1:] & small[:, _STREAK - 2:K - 1]
        for back in range(2, _STREAK):
            run &= small[:, _STREAK - 1 - back:K - back]
        stops = run.any(axis=1)
        last_used = np.where(stops, run.argmax(axis=1) + _STREAK - 1, K - 1)
    else:
        stops = np.zeros(len(active), dtype=bool)
        last_used = np.full(len(active), K - 1)
    # every term past k = 0 of a zero-fiber pair vanishes
    stops |= zero[active]
    last_used[zero[active]] = 0
    # a complex partial sum that leaves the float range stays inf or NaN,
    # so the last used one is finite exactly when all before it are
    if not np.isfinite(sums[np.arange(len(active)), last_used]).all():
        raise FloatingPointError("a fiber-series partial sum leaves "
                                 "the float range")
    done = stops | (K == max_terms)
    rows = np.flatnonzero(done)
    j = last_used[rows]
    mag = mags[rows, j]
    ratio = _last_ratio(mags, rows, j)
    converged = stops[rows] | (mag == 0.0)
    tail = np.where(converged, 0.0, np.inf)
    geometric = ratio < 1.0
    tail[geometric] = (mag[geometric] * ratio[geometric]
                       / (1.0 - ratio[geometric]))
    d = active[rows]
    out.value[d] = sums[rows, j]
    out.terms_used[d] = j + 1
    out.tail_estimate[d] = tail
    out.converged[d] = converged
    out.last_ratio[d] = ratio
    return done, mags[:, -2:], np.abs(sums[:, -1])


def _last_ratio(mags: np.ndarray, rows: np.ndarray,
                j: np.ndarray) -> np.ndarray:
    """|T_l / T_(l-1)| of each row at the last l <= j whose previous term
    is nonzero, NaN where there is none."""
    last = j.copy()
    gap = np.flatnonzero((j == 0) | (mags[rows, np.maximum(j - 1, 0)] == 0))
    if gap.size:
        idx = np.arange(mags.shape[1])
        nonzero = (mags[rows[gap]] > 0) & (idx < j[gap, None])
        before = np.max(np.where(nonzero, idx, -1), axis=1)
        last[gap] = np.where(before >= 0, before + 1, -1)
    ratio = np.full(len(rows), np.nan)
    seen = np.flatnonzero(last >= 0)
    r, l = rows[seen], last[seen]
    with np.errstate(over="ignore"):
        ratio[seen] = mags[r, l] / mags[r, l - 1]
    return ratio


def frc_restriction_check(domain: HartogsDomain, z, z2, kernel_omega,
                          reference: KernelModel | None = None,
                          degree: int = 40):
    """Residual of the zero-fiber restriction identity.

    Compares K_Omega((z,0),(z',0)) against (m!/pi^m) K_{D, p^m}(z, z'):
    (k, n) rows of pairs of base points give k residuals.
    ``kernel_omega`` is called once, with (k, n) base rows and (k, m) zero
    fibers, ((Z, 0), (Z', 0)), and returns a value per pair:
    e.g. the ``value`` of ``frc_eval_pairs``.  The reference weighted
    kernel is built from a Gram series at ``degree`` unless one is
    supplied.  Each residual is relative, or absolute where the reference
    vanishes.
    """
    m = domain.fiber_dim
    Z, Z2 = as_points(z, domain.base.dim), as_points(z2, domain.base.dim)
    zeros = np.zeros((len(Z), m), dtype=complex)

    if reference is None:
        reference = kernel_from_gram(
            gram_auto(domain.weight.pow(m), degree))

    lhs = kernel_omega((Z, zeros), (Z2, zeros))
    ref = math.factorial(m) / math.pi ** m * np.diagonal(
        reference.eval_grid(Z, Z2))
    size = np.abs(ref)
    return np.abs(lhs - ref) / np.where(size < 1e-300, 1.0, size)


def ball_kernel(n: int):
    """Closed-form Bergman kernel of the unit ball in C^n (raw volume),
    K(Z, W) = n!/pi^n (1 - <Z, W>)^(-(n+1)); the oracle for the original
    Forelli-Rudin case, where the Hartogs domain over the disk with weight
    1 - |z|^2 is the ball of one dimension higher.  (k, n) rows of pairs
    of points give k values."""
    c = math.factorial(n) / math.pi ** n

    def kernel(Z, W):
        Z, W = as_points(Z, n), as_points(W, n)
        return c * (1.0 - hermitian_inner(Z, W)) ** (-(n + 1))

    return kernel
