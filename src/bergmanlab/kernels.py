"""Evaluable reproducing-kernel models.

Two closed forms and one reconstruction:

* ``FockKernel(mu, n, scale)`` evaluates scale * exp(mu <z, w>); at
  scale 1 it is the reproducing kernel of entire functions
  square-integrable against the normalized Gaussian measure
  (mu/pi)^n exp(-mu |z|^2) dV.
* ``PowerKernel(domain, mu, scale)`` evaluates scale * N(z, w)^(-g - mu)
  on a bounded symmetric model domain with genus g, the weighted kernel of
  the generic-norm weight in its normalized-measure convention.
* ``RadialSeriesKernel(base, degree, c)`` evaluates the power series
  sum_{k <= degree} c_k <z, w>^k in one variable: the raw-dV weighted
  Bergman kernel at finite rank of a radial weight on the disk, the ball
  or C^n, built from the moments of a ``RadialGram``, whichever route
  (closed form, quadrature or Monte Carlo) gave them.  Every supported
  weight on those bases is radial, so this is the one way a Gram becomes a
  kernel; type-I bases have their closed form only.

Raw-measure closed forms carry their normalization in the ``scale`` field
of the closed form, so that exactly one measure convention (raw dV) is used
internally and normalized conventions appear only as explicitly stored
constants.

Every model has one evaluation path, ``eval_grid(zs, ws)``, which returns
K(z_i, w_j) with shape (len(zs), len(ws)) and validates each point set
once; points are (k, dim) rows, a single point one row.
Kernel models are immutable after construction; evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import (
    DomainKind,
    DomainSpec,
    as_points,
    full_space,
    hua_normalization,
    principal_log,
    GaussianPower,
    GenericNormPower,
    Weight,
)
from .moments import RadialGram, domain_from_json, domain_to_json


def _check_positive(what: str, value: float) -> None:
    """A closed-form kernel's constant and rate must be finite and
    positive, as a weight's are; a reproducing kernel has K(z, z) > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"kernel {what} must be finite and positive, "
                         f"not {value!r}")


@dataclass(frozen=True)
class FockKernel:
    """K(z, w) = scale * exp(mu <z, w>) on C^n."""

    mu: float
    n: int
    scale: float = 1.0

    def __post_init__(self):
        _check_positive("scale", self.scale)
        _check_positive("mu", self.mu)

    @property
    def domain(self) -> DomainSpec:
        return full_space(self.n)

    def eval_grid(self, zs, ws) -> np.ndarray:
        Z = as_points(zs, self.n)
        W = as_points(ws, self.n)
        return self.scale * np.exp(self.mu * (Z @ W.conj().T))


@dataclass(frozen=True)
class PowerKernel:
    """K(z, w) = scale * N(z, w)^(-g - mu), principal branch per factor."""

    base: DomainSpec
    mu: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.base.bounded:
            raise ValueError("power kernels need a bounded symmetric base")
        _check_positive("scale", self.scale)
        _check_positive("mu", self.mu)

    @property
    def domain(self) -> DomainSpec:
        return self.base

    @property
    def exponent(self) -> float:
        return self.base.genus + self.mu

    def eval_grid(self, zs, ws) -> np.ndarray:
        Z = as_points(zs, self.base.dim)
        W = as_points(ws, self.base.dim)
        if self.base.kind is DomainKind.TYPE_I_MATRIX_BALL:
            # N(z, w) = det(I - Z W*) = prod (1 - lambda) over the eigenvalues
            # of Z W*; one batched eigen-solve over every pair's product
            p, q = self.base.shape
            Zm = Z.reshape(len(Z), 1, p, q)
            Wh = W.reshape(1, len(W), p, q).conj().swapaxes(-1, -2)
            logs = principal_log(1.0 - np.linalg.eigvals(Zm @ Wh)).sum(axis=-1)
        else:
            logs = principal_log(1.0 - Z @ W.conj().T)
        return self.scale * np.exp(-self.exponent * logs)


_RADIAL_KINDS = (DomainKind.UNIT_BALL, DomainKind.FULL_SPACE)


@dataclass(frozen=True, eq=False)
class RadialSeriesKernel:
    """K(z, w) = sum_{k <= degree} c_k <z, w>^k on the disk, ball or C^n.

    A radial weight has the diagonal Gram matrix
    G_aa = pi^n a!/(|a|+n-1)! R_{|a|+n-1}, so by the multinomial theorem its
    orthonormal expansion sums to this series with
    c_k = (k+n-1)!/(pi^n k! R_{k+n-1}).  Evaluation is one Horner pass over
    c, on the matrix Z W* for a grid.
    """

    base: DomainSpec
    degree: int
    c: np.ndarray
    weight_label: str = ""

    def __post_init__(self):
        if self.base.kind not in _RADIAL_KINDS:
            raise ValueError("radial series kernels need a disk, ball or "
                             "C^n base")
        if self.degree < 0:
            raise ValueError(f"radial series degree must be >= 0, "
                             f"not {self.degree}")
        if np.shape(self.c) != (self.degree + 1,):
            raise ValueError(f"a degree-{self.degree} radial series needs "
                             f"{self.degree + 1} coefficients, not shape "
                             f"{np.shape(self.c)}")
        if not (np.isfinite(self.c).all() and (self.c > 0).all()):
            raise ValueError("radial series coefficients must be finite "
                             "and positive")

    @property
    def domain(self) -> DomainSpec:
        return self.base

    def eval_grid(self, zs, ws) -> np.ndarray:
        """K(z_i, w_j) for all pairs, shape (len(zs), len(ws))."""
        Z = as_points(zs, self.base.dim)
        W = as_points(ws, self.base.dim)
        return npoly.polyval(Z @ W.conj().T, self.c)

    def diagonal(self, zs) -> np.ndarray:
        """K(z_i, z_i) for all points, real, shape (len(zs),)."""
        Z = as_points(zs, self.base.dim)
        return npoly.polyval(np.sum(Z.real ** 2 + Z.imag ** 2, axis=1),
                             self.c)


KernelModel = FockKernel | PowerKernel | RadialSeriesKernel


def weighted_kernel_closed_form(weight: Weight) -> KernelModel:
    """Raw-dV weighted Bergman kernel of (base, weight) where one is known.

    Gaussian powers on C^n give (mu/pi)^n exp(mu <z, w>); generic-norm
    powers on a bounded symmetric base give N^(-g-mu) divided by the Hua
    normalization integral.  Rescaling the weight by c rescales the kernel
    by 1/c.  Raises ValueError when no closed form applies.
    """
    base, form, power = weight.base, weight.form, weight.power_exponent
    if isinstance(form, GaussianPower):
        mu_eff = form.mu * power
        n = base.dim
        return FockKernel(mu_eff, n, (mu_eff / math.pi) ** n / weight.scale)
    if isinstance(form, GenericNormPower):
        if not base.bounded:
            raise ValueError("generic-norm kernels need a bounded symmetric base")
        s = form.mu * power
        return PowerKernel(base, s,
                           1.0 / (weight.scale * hua_normalization(base, s)))
    raise ValueError("no closed-form weighted kernel for this weight")


# ---------------------------------------------------------------------------
# the series kernel of a radial Gram

def kernel_from_gram(gram: RadialGram) -> RadialSeriesKernel:
    """The ``RadialSeriesKernel`` of a radial Gram's moments,
    c_k = (k+n-1)!/(pi^n k! R_{k+n-1}).

    A radial Gram is diagonal and its diagonal is positive exactly when the
    moments R_{n-1}.. are, so positivity is the only check a factorization
    would make.  Where (k+n-1)!/k! or pi^n leaves the float range, c_k is
    formed in log space instead, and a c_k outside the float range is
    refused by name.
    """
    n, d = gram.domain.dim, gram.degree
    R = gram.moments[n - 1:d + n]
    if not (np.isfinite(R).all() and (R > 0).all()):
        raise ValueError("Gram diagonal is not strictly positive")
    k = np.arange(d + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):   # redone below
        # (k+n-1)!/k! as a product of n - 1 factors
        rising = np.prod(k[:, None] + np.arange(1.0, n)[None, :], axis=1)
        c = rising / (np.float64(math.pi) ** n * R)
    if not (np.isfinite(c) & (c > 0)).all():
        log_c = (np.array([math.lgamma(j + n) - math.lgamma(j + 1)
                           for j in range(d + 1)])
                 - n * math.log(math.pi) - np.log(R))
        with np.errstate(over="ignore"):
            c = np.exp(log_c)
        outside = ~(np.isfinite(c) & (c > 0))
        if outside.any():
            j = int(np.argmax(outside))
            raise ValueError(
                f"the radial series coefficient c_{j} = (k+n-1)!/(pi^n k! "
                f"R_(k+n-1)) at n = {n} is exp({log_c[j]:.1f}), outside "
                f"the float range")
    return RadialSeriesKernel(gram.domain, d, c,
                              weight_label=gram.weight_label)


# ---------------------------------------------------------------------------
# serialization

def kernel_to_json(model: KernelModel) -> dict:
    if isinstance(model, FockKernel):
        return {"form": "fock", "mu": model.mu, "n": model.n,
                "scale": model.scale}
    if isinstance(model, PowerKernel):
        return {"form": "power", "domain": domain_to_json(model.base),
                "mu": model.mu, "scale": model.scale}
    if isinstance(model, RadialSeriesKernel):
        return {"form": "radial", "domain": domain_to_json(model.base),
                "degree": model.degree, "c": model.c.tolist(),
                "weight": model.weight_label}
    raise TypeError(f"unknown kernel model {model!r}")


def kernel_from_json(obj: dict) -> KernelModel:
    """The model ``kernel_to_json`` wrote.  An ``n`` or ``degree`` that is
    not a whole number, and a ``mu`` or ``scale`` that is not a JSON number,
    is refused by name, not truncated or parsed."""
    form = obj["form"]

    def whole(field: str) -> int:
        value = obj[field]
        if type(value) is int or (type(value) is float
                                  and value.is_integer()):
            return int(value)
        raise ValueError(f"kernel JSON of form {form!r} has {field} "
                         f"{value!r}; it must be a whole number")

    def number(field: str) -> float:
        value = obj[field]
        if type(value) in (int, float):
            return float(value)
        raise ValueError(f"kernel JSON of form {form!r} has {field} "
                         f"{value!r}; it must be a number")

    scale = number("scale") if "scale" in obj else 1.0
    if form == "fock":
        return FockKernel(number("mu"), whole("n"), scale)
    if form == "power":
        return PowerKernel(domain_from_json(obj["domain"]), number("mu"),
                           scale)
    if form == "radial":
        return RadialSeriesKernel(domain_from_json(obj["domain"]),
                                  whole("degree"),
                                  np.array(obj["c"], dtype=float),
                                  weight_label=obj.get("weight", ""))
    raise ValueError(f"unknown kernel form {form!r}; supported forms: fock, "
                     "power, radial")
