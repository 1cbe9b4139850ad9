"""Evaluable reproducing-kernel models.

Two closed forms and one reconstruction:

* ``FockKernel(mu, n)`` evaluates exp(mu <z, w>), the reproducing kernel of
  entire functions square-integrable against the normalized Gaussian
  measure (mu/pi)^n exp(-mu |z|^2) dV.
* ``PowerKernel(domain, mu, scale)`` evaluates scale * N(z, w)^(-g - mu)
  on a bounded symmetric model domain with genus g, the weighted kernel of
  the generic-norm weight in its normalized-measure convention.
* ``SeriesKernel`` is the truncated orthonormal expansion
  sum_k e_k(z) conj(e_k(w)) with e_k obtained by factorizing a Gram matrix;
  it is the raw-dV weighted Bergman kernel at finite rank.

Raw-measure closed forms are expressed as ``ScaledKernel`` wrappers so that
exactly one measure convention (raw dV) is used internally and normalized
conventions appear only as explicitly stored constants.

Every model evaluates one pair with ``eval(z, w)`` and a whole grid with
``eval_grid(zs, ws)``, which returns K(z_i, w_j) with shape
(len(zs), len(ws)) and validates each point set once.  Kernel models are
immutable after construction; evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    DomainKind,
    DomainSpec,
    as_point,
    as_points,
    full_space,
    generic_norm_power,
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
    GramMatrix,
    QuadratureScheme,
    _reduce_weight,
    domain_from_json,
    domain_to_json,
    quadrature_points_1d,
)
from . import jsonio


@dataclass(frozen=True)
class FockKernel:
    """K(z, w) = exp(mu <z, w>) on C^n."""

    mu: float
    n: int

    @property
    def domain(self) -> DomainSpec:
        return full_space(self.n)

    def eval(self, z, w) -> complex:
        z = as_point(z, self.n)
        w = as_point(w, self.n)
        return complex(np.exp(self.mu * hermitian_inner(z, w)))

    def eval_grid(self, zs, ws) -> np.ndarray:
        Z = as_points(zs, self.n)
        W = as_points(ws, self.n)
        return np.exp(self.mu * (Z @ W.conj().T))


@dataclass(frozen=True)
class PowerKernel:
    """K(z, w) = scale * N(z, w)^(-g - mu), principal branch per factor."""

    base: DomainSpec
    mu: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.base.bounded:
            raise ValueError("power kernels need a bounded symmetric base")

    @property
    def domain(self) -> DomainSpec:
        return self.base

    @property
    def exponent(self) -> float:
        return self.base.genus + self.mu

    def eval(self, z, w) -> complex:
        return self.scale * generic_norm_power(self.base, z, w, -self.exponent)

    def eval_grid(self, zs, ws) -> np.ndarray:
        Z = as_points(zs, self.base.dim)
        W = as_points(ws, self.base.dim)
        if self.base.kind is DomainKind.TYPE_I_MATRIX_BALL:
            # N(z, w) = det(I - Z W*) needs an eigen-solve per pair
            out = np.empty((len(Z), len(W)), dtype=complex)
            for i, z in enumerate(Z):
                for j, w in enumerate(W):
                    out[i, j] = self.eval(z, w)
            return out
        factors = 1.0 - Z @ W.conj().T
        return self.scale * np.exp(-self.exponent * principal_log(factors))


@dataclass(frozen=True)
class ScaledKernel:
    """scale * inner(z, w)."""

    scale: float
    inner: "KernelModel"

    @property
    def domain(self) -> DomainSpec:
        return self.inner.domain

    def eval(self, z, w) -> complex:
        return self.scale * self.inner.eval(z, w)

    def eval_grid(self, zs, ws) -> np.ndarray:
        return self.scale * self.inner.eval_grid(zs, ws)


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

    def eval(self, z, w) -> complex:
        z = as_point(z, self.base.dim)
        w = as_point(w, self.base.dim)
        return complex(self.eval_grid(z[None, :], w[None, :])[0, 0])

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


KernelModel = FockKernel | PowerKernel | ScaledKernel | SeriesKernel


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
    scale_c, form, power = _reduce_weight(weight)
    base = weight.base
    if isinstance(form, GaussianPower):
        mu_eff = form.mu * power
        n = base.dim
        return ScaledKernel((mu_eff / math.pi) ** n / scale_c,
                            FockKernel(mu_eff, n))
    if isinstance(form, GenericNormPower):
        if base.kind not in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL,
                             DomainKind.TYPE_I_MATRIX_BALL):
            raise ValueError("generic-norm kernels need a bounded symmetric base")
        s = form.mu * power
        return PowerKernel(base, s, 1.0 / (scale_c * hua_normalization(base, s)))
    raise ValueError("no closed-form weighted kernel for this weight")


# ---------------------------------------------------------------------------
# series kernels from Gram matrices

def _equilibrate(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Symmetric scaling to unit diagonal; None when the diagonal is not
    strictly positive.  Gram diagonals span many orders of magnitude
    (Gaussian moments grow like k!), and eigenvalue computations are only
    trustworthy after this normalization."""
    d = np.real(np.diag(entries))
    if entries.size == 0 or np.any(d <= 0):
        return None
    s = 1.0 / np.sqrt(d)
    scaled = entries * s[:, None] * s[None, :]
    return (scaled + scaled.conj().T) / 2.0, s


def kernel_from_gram(gram: GramMatrix, method: str = "auto",
                     psd_tol: float = 1e-10,
                     rank_rtol: float = 1e-13) -> SeriesKernel:
    """Orthonormalize the monomials against a Gram matrix.

    ``method`` is "auto" (Cholesky with eigendecomposition fallback),
    "cholesky", or "eig".  The matrix is equilibrated to unit diagonal
    first; a successful Cholesky certifies positive definiteness outright.
    Otherwise the scaled spectrum decides: below -tol relative is rejected
    as indefinite, eigenvalues in (-tol, 0) are clipped with the
    perturbation recorded, and numerically singular directions are dropped.
    More than 10% dropped directions is a hard error.
    """
    if method not in ("auto", "cholesky", "eig"):
        raise ValueError(f"unknown factorization method {method!r}")
    entries = gram.entries
    B = entries.shape[0]
    eq = _equilibrate(entries)
    if eq is None:
        raise ValueError("Gram diagonal is not strictly positive")
    scaled, s = eq

    coeff = None
    dropped = 0
    perturbation = 0.0
    if method in ("auto", "cholesky"):
        try:
            L = np.linalg.cholesky(scaled)
            # a collapsing pivot means a basis direction is numerically
            # collinear with earlier ones; defer to the dropping route
            pivots = np.abs(np.diag(L)) ** 2
            if method == "cholesky" or pivots.min() > rank_rtol * pivots.max():
                coeff = solve_triangular(L, np.eye(B, dtype=complex), lower=True)
                coeff = coeff * s[None, :]
        except np.linalg.LinAlgError:
            if method == "cholesky":
                raise
    if coeff is None:
        eigs, vecs = np.linalg.eigh(scaled)
        lam_max = float(eigs[-1])
        if eigs[0] <= -psd_tol * max(lam_max, 1e-300):
            raise ValueError(
                f"Gram matrix indefinite: scaled lambda_min = {eigs[0]:.3e}")
        perturbation = max(0.0, float(-eigs[0]))
        keep = eigs > rank_rtol * max(lam_max, 1e-300)
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


# ---------------------------------------------------------------------------
# evaluation helpers

def normalized_kernel(model: KernelModel, z, w) -> complex:
    """k_w(z) = K(z, w)/sqrt(K(w, w)); needs a positive diagonal at w."""
    kww = model.eval(w, w)
    if kww.real <= 0 or abs(kww.imag) > 1e-9 * abs(kww.real):
        raise ValueError("kernel diagonal is not positive at the center point")
    return model.eval(z, w) / math.sqrt(kww.real)


def reproducing_residual(model: SeriesKernel, poly: dict, z, weight: Weight,
                         scheme: QuadratureScheme | None = None) -> float:
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

    pts, wq = quadrature_points_1d(base, weight, model.degree, scheme)
    pts2 = pts[:, None]

    terms = [(alpha[0] if isinstance(alpha, tuple) else int(alpha), c)
             for alpha, c in poly.items()]
    fvals = np.zeros(pts.shape[0], dtype=complex)
    for k, c in terms:
        fvals += c * pts ** k
    fz = complex(sum(c * complex(z[0]) ** k for k, c in terms))

    pvals = weight_radial_fn(weight)(np.abs(pts) ** 2)

    Ez = model.basis_values(z[None, :])[0]
    Ew = model.basis_values(pts2)
    kzw = Ew.conj() @ Ez  # K(z, w_s)

    integral = complex(np.sum(fvals * kzw * pvals * wq))
    return abs(fz - integral)


# ---------------------------------------------------------------------------
# serialization

def kernel_to_json(model: KernelModel) -> dict:
    if isinstance(model, FockKernel):
        return {"form": "fock", "mu": model.mu, "n": model.n}
    if isinstance(model, PowerKernel):
        return {"form": "power", "domain": domain_to_json(model.base),
                "mu": model.mu, "scale": model.scale}
    if isinstance(model, ScaledKernel):
        return {"form": "scaled", "scale": model.scale,
                "inner": kernel_to_json(model.inner)}
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
        return FockKernel(float(obj["mu"]), int(obj["n"]))
    if form == "power":
        return PowerKernel(domain_from_json(obj["domain"]), float(obj["mu"]),
                           float(obj.get("scale", 1.0)))
    if form == "scaled":
        return ScaledKernel(float(obj["scale"]), kernel_from_json(obj["inner"]))
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
