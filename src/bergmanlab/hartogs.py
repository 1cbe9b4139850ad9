"""Hartogs domains over a weighted base and the Forelli-Rudin series.

A Hartogs domain with m-dimensional fiber over a base (D, p) is

    Omega = { (z, zeta) in D x C^m : |zeta|^2 < p(z) }.

Its Bergman kernel expands through the weighted kernels of the base:

    K_Omega((z, zeta), (z', zeta'))
        = pi^(-m) sum_{k >= 0} (k+1)_m K_{D, p^(k+m)}(z, z') <zeta, zeta'>^k,

and restricting both fiber variables to zero leaves only the k = 0 term,

    K_Omega((z, 0), (z', 0)) = (m!/pi^m) K_{D, p^m}(z, z').

The series is summed adaptively with a geometric tail estimate; the
per-term weighted kernels come from a caller-supplied family (closed forms
where available, Gram-series reconstructions otherwise), cached per term
index since those kernels are the expensive part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainSpec, Weight, as_point, contains, weight_eval, hermitian_inner
from .kernels import KernelModel, kernel_from_gram, weighted_kernel_closed_form
from .moments import QuadratureScheme, gram_exact, gram_quadrature
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


def hartogs_contains(domain: HartogsDomain, z, zeta) -> float:
    """|zeta|^2 - p(z): negative inside, zero on the fiber boundary.

    Raises if z leaves the open base domain; the fiber is empty there.
    """
    z = as_point(z, domain.base.dim)
    zeta = as_point(zeta, domain.fiber_dim)
    if contains(domain.base, z) >= 0:
        raise ValueError("base point outside the open base domain")
    return float(np.sum(np.abs(zeta) ** 2)) - weight_eval(domain.weight, z)


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

class ClosedFormFamily:
    """k -> closed-form K_{D, p^(k+m)}; needs a weight with closed kernels."""

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


class SeriesFamily:
    """k -> Gram-series K_{D, p^(k+m)} at a fixed truncation degree.

    Grams are assembled lazily (closed-form moments when available, product
    quadrature otherwise) and cached per k.
    """

    def __init__(self, domain: HartogsDomain, degree: int,
                 scheme: QuadratureScheme | None = None):
        self.domain = domain
        self.degree = degree
        self.scheme = scheme
        self._cache: dict[int, KernelModel] = {}

    def __call__(self, k: int) -> KernelModel:
        if k not in self._cache:
            power = k + self.domain.fiber_dim
            w = self.domain.weight.pow(power)
            try:
                gram = gram_exact(self.domain.base, w, self.degree)
            except ValueError:
                gram = gram_quadrature(self.domain.base, w, self.degree,
                                       self.scheme)
            self._cache[k] = kernel_from_gram(gram)
        return self._cache[k]


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


def frc_eval(domain: HartogsDomain, point, point2, kernel_family,
             max_terms: int = 200, tol: float = 1e-12) -> FrcResult:
    """Sum the fiber series for K_Omega at a pair of interior points.

    ``kernel_family`` maps k to a kernel model for K_{D, p^(k+m)}.  The sum
    stops once five consecutive terms are below tol relative to the running
    partial sum (or at max_terms, flagged as non-converged); the reported
    tail estimate extrapolates the last term geometrically.  The k = 0 term
    uses the convention <zeta,zeta'>^0 = 1 even at <zeta,zeta'> = 0, which
    the zero-fiber restriction identity forces.
    """
    z, zeta = point
    z2, zeta2 = point2
    z = as_point(z, domain.base.dim)
    z2 = as_point(z2, domain.base.dim)
    zeta = as_point(zeta, domain.fiber_dim)
    zeta2 = as_point(zeta2, domain.fiber_dim)
    if hartogs_contains(domain, z, zeta) >= 0 or hartogs_contains(domain, z2, zeta2) >= 0:
        raise ValueError("points must be strictly inside the Hartogs domain")

    m = domain.fiber_dim
    u = hermitian_inner(zeta, zeta2)
    inv_pi_m = math.pi ** (-m)

    partial = 0.0 + 0.0j
    upow = 1.0 + 0.0j
    small_streak = 0
    prev_mag = None
    ratio = None
    terms = 0
    for k in range(max_terms):
        kern = kernel_family(k)
        term = inv_pi_m * pochhammer(k, m) * kern.eval(z, z2) * upow
        partial += term
        terms = k + 1
        mag = abs(term)
        if prev_mag is not None and prev_mag > 0:
            ratio = mag / prev_mag
        prev_mag = mag
        if mag < tol * max(abs(partial), 1e-300):
            small_streak += 1
            if small_streak >= 5:
                break
        else:
            small_streak = 0
        upow *= u
        if u == 0 and k == 0:
            break  # all higher terms vanish identically

    if u == 0:
        return FrcResult(complex(partial), terms, 0.0, True, None)

    converged = small_streak >= 5 or (prev_mag == 0.0)
    if ratio is not None and ratio < 1.0 and prev_mag is not None:
        tail = prev_mag * ratio / (1.0 - ratio)
    else:
        tail = math.inf if not converged else 0.0
    return FrcResult(complex(partial), terms, float(tail), converged,
                     None if ratio is None else float(ratio))


def frc_restriction_check(domain: HartogsDomain, z, z2, kernel_omega,
                          reference: KernelModel | None = None,
                          degree: int = 40,
                          scheme: QuadratureScheme | None = None) -> float:
    """Residual of the zero-fiber restriction identity.

    Compares K_Omega((z,0),(z',0)) -- where ``kernel_omega`` is any callable
    ((z,zeta),(z',zeta')) -> complex -- against (m!/pi^m) K_{D, p^m}(z, z').
    The reference weighted kernel is built from a Gram series at ``degree``
    unless one is supplied.  Returns the relative residual, or the absolute
    one when the reference vanishes.
    """
    m = domain.fiber_dim
    z = as_point(z, domain.base.dim)
    z2 = as_point(z2, domain.base.dim)
    zeros = np.zeros(m, dtype=complex)

    if reference is None:
        w = domain.weight.pow(m)
        try:
            gram = gram_exact(domain.base, w, degree)
        except ValueError:
            gram = gram_quadrature(domain.base, w, degree, scheme)
        reference = kernel_from_gram(gram)

    lhs = kernel_omega((z, zeros), (z2, zeros))
    ref = math.factorial(m) / math.pi ** m * reference.eval(z, z2)
    if abs(ref) < 1e-300:
        return abs(lhs - ref)
    return abs(lhs - ref) / abs(ref)


def ball_kernel(n: int):
    """Closed-form Bergman kernel of the unit ball in C^n (raw volume),
    K(Z, W) = n!/pi^n (1 - <Z, W>)^(-(n+1)); the oracle for the original
    Forelli-Rudin case, where the Hartogs domain over the disk with weight
    1 - |z|^2 is the ball of one dimension higher."""
    c = math.factorial(n) / math.pi ** n

    def kernel(Z, W) -> complex:
        Z = as_point(Z, n)
        W = as_point(W, n)
        return c * (1.0 - hermitian_inner(Z, W)) ** (-(n + 1))

    return kernel
