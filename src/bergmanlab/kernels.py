"""Evaluable reproducing-kernel models.

Two closed forms and two reconstructions:

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
  or C^n, built from the moments of a ``RadialGram``.
* ``SeriesKernel`` is the truncated orthonormal expansion
  sum_k e_k(z) conj(e_k(w)) with e_k obtained by factorizing a dense
  ``GramMatrix``: a Monte Carlo estimate or a JSON-loaded Gram, which is
  the only way a type-I Gram arises.

Raw-measure closed forms carry their normalization in the ``scale`` field
of the closed form, so that exactly one measure convention (raw dV) is used
internally and normalized conventions appear only as explicitly stored
constants.

Every model has one evaluation path, ``eval_grid(zs, ws)``, which returns
K(z_i, w_j) with shape (len(zs), len(ws)) and validates each point set
once; ``eval(z, w)`` is its 1x1 view, the (0, 0) entry of a one-point grid.
Kernel models are immutable after construction; evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import solve_triangular

from .core import (
    DomainKind,
    DomainSpec,
    as_point,
    as_points,
    full_space,
    hermitian_inner,
    hua_normalization,
    monomial_values,
    multiindex_enumerate,
    principal_log,
    weight_radial_fn,
    GaussianPower,
    GenericNormPower,
    Weight,
)
from .moments import (
    PSD_TOL,
    Gram,
    RadialGram,
    _equilibrate,
    domain_from_json,
    domain_to_json,
    quadrature_points_1d,
)
from . import jsonio


def _grid_entry(model, z, w) -> complex:
    """K(z, w) as the (0, 0) entry of a 1x1 ``eval_grid``; each kernel
    model binds it as its ``eval``."""
    return complex(model.eval_grid(np.reshape(z, (1, -1)),
                                   np.reshape(w, (1, -1)))[0, 0])


def _check_scale(scale: float) -> None:
    """A closed-form kernel's constant must be finite and positive, as a
    weight's is; a reproducing kernel has K(z, z) > 0."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"kernel scale must be finite and positive, "
                         f"not {scale!r}")


@dataclass(frozen=True)
class FockKernel:
    """K(z, w) = scale * exp(mu <z, w>) on C^n."""

    mu: float
    n: int
    scale: float = 1.0

    def __post_init__(self):
        _check_scale(self.scale)

    @property
    def domain(self) -> DomainSpec:
        return full_space(self.n)

    eval = _grid_entry

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
        _check_scale(self.scale)

    @property
    def domain(self) -> DomainSpec:
        return self.base

    @property
    def exponent(self) -> float:
        return self.base.genus + self.mu

    eval = _grid_entry

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


@dataclass(frozen=True, eq=False)
class SeriesKernel:
    """Truncated orthonormal series from a Gram factorization.

    ``coeff`` holds the basis expansion row-wise: e_k = sum_a coeff[k, a] z^a
    over the grlex monomials of degree <= degree.
    """

    base: DomainSpec
    degree: int
    coeff: np.ndarray
    index_map: list[tuple[int, ...]]
    weight_label: str = ""
    dropped: int = 0
    psd_perturbation: float = 0.0

    @property
    def domain(self) -> DomainSpec:
        return self.base

    @property
    def rank(self) -> int:
        return self.coeff.shape[0]

    def basis_values(self, points) -> np.ndarray:
        """Values e_k(z) for all k, shape (npoints, rank)."""
        V = monomial_values(self.index_map, points)
        return V @ self.coeff.T

    eval = _grid_entry

    def eval_grid(self, zs, ws) -> np.ndarray:
        """K(z_i, w_j) for all pairs, shape (len(zs), len(ws))."""
        Z = as_points(zs, self.base.dim)
        W = as_points(ws, self.base.dim)
        # one monomial table for both point sets
        E = self.basis_values(np.concatenate([Z, W]))
        return E[:len(Z)] @ E[len(Z):].conj().T

    def diagonal(self, zs) -> np.ndarray:
        """K(z_i, z_i) for all points, real, shape (len(zs),), without the
        off-diagonal products of a full grid."""
        E = self.basis_values(as_points(zs, self.base.dim))
        return np.sum(E.real ** 2 + E.imag ** 2, axis=1)

    def eval_pairs(self, zs, ws) -> np.ndarray:
        """K(z_i, w_i) for paired rows, shape (len(zs),)."""
        Z = as_points(zs, self.base.dim)
        W = as_points(ws, self.base.dim)
        E = self.basis_values(np.concatenate([Z, W]))
        return np.sum(E[:len(Z)] * E[len(Z):].conj(), axis=1)


_RADIAL_KINDS = (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL,
                 DomainKind.FULL_SPACE)


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

    eval = _grid_entry

    def eval_grid(self, zs, ws) -> np.ndarray:
        """K(z_i, w_j) for all pairs, shape (len(zs), len(ws))."""
        Z = as_points(zs, self.base.dim)
        W = as_points(ws, self.base.dim)
        return npoly.polyval(Z @ W.conj().T, self.c)

    def eval_pairs(self, zs, ws) -> np.ndarray:
        """K(z_i, w_i) for paired rows, shape (len(zs),)."""
        Z = as_points(zs, self.base.dim)
        W = as_points(ws, self.base.dim)
        return npoly.polyval(hermitian_inner(Z, W), self.c)

    def diagonal(self, zs) -> np.ndarray:
        """K(z_i, z_i) for all points, real, shape (len(zs),)."""
        Z = as_points(zs, self.base.dim)
        return npoly.polyval(np.sum(Z.real ** 2 + Z.imag ** 2, axis=1),
                             self.c)


KernelModel = FockKernel | PowerKernel | RadialSeriesKernel | SeriesKernel


def fock_kernel(mu: float, n: int = 1) -> FockKernel:
    if mu <= 0:
        raise ValueError("mu must be positive")
    return FockKernel(mu, n)


def power_kernel(domain: DomainSpec, mu: float, scale: float = 1.0) -> PowerKernel:
    if mu <= 0:
        raise ValueError("mu must be positive")
    return PowerKernel(domain, mu, scale)


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
        if base.kind not in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL,
                             DomainKind.TYPE_I_MATRIX_BALL):
            raise ValueError("generic-norm kernels need a bounded symmetric base")
        s = form.mu * power
        return PowerKernel(base, s,
                           1.0 / (weight.scale * hua_normalization(base, s)))
    raise ValueError("no closed-form weighted kernel for this weight")


# ---------------------------------------------------------------------------
# series kernels from Gram matrices

# Relative size of the smallest unit-diagonal eigenvalue (or squared
# Cholesky pivot) below which a basis direction counts as numerically
# dependent and is dropped.
RANK_RTOL = 1e-13


def kernel_from_gram(gram: Gram) -> RadialSeriesKernel | SeriesKernel:
    """Orthonormalize the monomials against a Gram matrix.

    A ``RadialGram`` gives the ``RadialSeriesKernel`` of its moments.  A
    dense ``GramMatrix`` is factorized by Cholesky with an
    eigendecomposition fallback, after equilibration to unit diagonal; a
    Cholesky without collapsing pivots certifies positive definiteness
    outright.  Otherwise the scaled spectrum decides: below -PSD_TOL
    relative is rejected as indefinite, eigenvalues in (-PSD_TOL, 0) are
    clipped with the perturbation recorded, and directions below RANK_RTOL
    are dropped.  More than 10% dropped directions is a hard error.
    """
    if isinstance(gram, RadialGram):
        return _radial_kernel(gram)
    entries = gram.entries
    B = entries.shape[0]
    eq = _equilibrate(entries)
    if eq is None:
        raise ValueError("Gram diagonal is not strictly positive")
    scaled, s = eq

    coeff = None
    dropped = 0
    perturbation = 0.0
    try:
        L = np.linalg.cholesky(scaled)
        # a collapsing pivot means a basis direction is numerically
        # collinear with earlier ones; defer to the dropping route
        pivots = np.abs(np.diag(L)) ** 2
        if pivots.min() > RANK_RTOL * pivots.max():
            coeff = solve_triangular(L, np.eye(B, dtype=complex), lower=True)
            coeff = coeff * s[None, :]
    except np.linalg.LinAlgError:
        pass
    if coeff is None:
        eigs, vecs = np.linalg.eigh(scaled)
        lam_max = float(eigs[-1])
        if eigs[0] <= -PSD_TOL * max(lam_max, 1e-300):
            raise ValueError(
                f"Gram matrix indefinite: scaled lambda_min = {eigs[0]:.3e}")
        perturbation = max(0.0, float(-eigs[0]))
        keep = eigs > RANK_RTOL * max(lam_max, 1e-300)
        dropped = int(B - np.count_nonzero(keep))
        if dropped > 0.1 * B:
            raise ValueError(
                f"Gram matrix numerically singular: {dropped}/{B} directions dropped")
        lam = eigs[keep]
        U = vecs[:, keep]
        coeff = (U / np.sqrt(lam)).conj().T * s[None, :]

    return SeriesKernel(gram.domain, gram.degree, coeff, list(gram.index_map),
                        weight_label=gram.weight_label, dropped=dropped,
                        psd_perturbation=perturbation)


def _radial_kernel(gram: RadialGram) -> RadialSeriesKernel:
    """c_k = (k+n-1)!/(pi^n k! R_{k+n-1}) from the moments of a radial Gram.

    Its diagonal is positive exactly when the moments R_{n-1}.. are, and
    an equilibrated diagonal matrix is the identity, so positivity is the
    only check the dense route would make.
    """
    n, d = gram.domain.dim, gram.degree
    R = gram.moments[n - 1:d + n]
    if not (np.isfinite(R).all() and (R > 0).all()):
        raise ValueError("Gram diagonal is not strictly positive")
    k = np.arange(d + 1.0)
    # (k+n-1)!/k! as a product of n - 1 factors
    rising = np.prod(k[:, None] + np.arange(1.0, n)[None, :], axis=1)
    with np.errstate(over="ignore"):   # refused by name in the model
        c = rising / (math.pi ** n * R)
    return RadialSeriesKernel(gram.domain, d, c,
                              weight_label=gram.weight_label)


# ---------------------------------------------------------------------------
# evaluation helpers

def normalized_kernel(model: KernelModel, z, w) -> complex:
    """k_w(z) = K(z, w)/sqrt(K(w, w)); needs a positive diagonal at w."""
    kww = model.eval(w, w)
    if kww.real <= 0 or abs(kww.imag) > 1e-9 * abs(kww.real):
        raise ValueError("kernel diagonal is not positive at the center point")
    return model.eval(z, w) / math.sqrt(kww.real)


def reproducing_residual(model: RadialSeriesKernel | SeriesKernel,
                         poly: dict, z, weight: Weight) -> float:
    """| f(z) - integral f(w) K(z, w) p(w) dV(w) | for a polynomial f.

    ``poly`` maps exponent multi-indices to coefficients; its degree should
    stay at least two below the series cap so the truncated kernel still
    reproduces it.  The integral uses the same product rule as the Gram
    assembly for this (domain, weight, degree) triple.
    """
    base = model.base
    if base.dim != 1:
        raise ValueError("reproducing-property checks are wired for n = 1")
    if weight.base != base:
        raise ValueError("weight base mismatch")
    z = as_point(z, base.dim)

    pts, wq = quadrature_points_1d(base, weight, model.degree)
    pts2 = pts[:, None]

    terms = [(alpha[0] if isinstance(alpha, tuple) else int(alpha), c)
             for alpha, c in poly.items()]
    fvals = np.zeros(pts.shape[0], dtype=complex)
    for k, c in terms:
        fvals += c * pts ** k
    fz = complex(sum(c * complex(z[0]) ** k for k, c in terms))

    pvals = weight_radial_fn(weight)(np.abs(pts) ** 2)

    kzw = model.eval_grid(z[None, :], pts2)[0]  # K(z, w_s)

    integral = complex(np.sum(fvals * kzw * pvals * wq))
    return abs(fz - integral)


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
    if isinstance(model, SeriesKernel):
        return {"form": "series", "domain": domain_to_json(model.base),
                "degree": model.degree, "rank": model.rank,
                "coeff": jsonio.cmatrix(model.coeff),
                "weight": model.weight_label, "dropped": model.dropped,
                "psd_perturbation": model.psd_perturbation}
    raise TypeError(f"unknown kernel model {model!r}")


def kernel_from_json(obj: dict) -> KernelModel:
    form = obj["form"]
    if form == "fock":
        return FockKernel(float(obj["mu"]), int(obj["n"]),
                          float(obj.get("scale", 1.0)))
    if form == "power":
        return PowerKernel(domain_from_json(obj["domain"]), float(obj["mu"]),
                           float(obj.get("scale", 1.0)))
    if form == "radial":
        return RadialSeriesKernel(domain_from_json(obj["domain"]),
                                  int(obj["degree"]),
                                  np.array(obj["c"], dtype=float),
                                  weight_label=obj.get("weight", ""))
    if form == "series":
        domain = domain_from_json(obj["domain"])
        degree = int(obj["degree"])
        basis = multiindex_enumerate(domain.dim, degree)
        coeff = jsonio.as_cmatrix(obj["coeff"], (int(obj["rank"]), len(basis)))
        return SeriesKernel(domain, degree, coeff, basis,
                            weight_label=obj.get("weight", ""),
                            dropped=int(obj.get("dropped", 0)),
                            psd_perturbation=float(obj.get("psd_perturbation", 0.0)))
    raise ValueError(f"unknown kernel form {form!r}")
