import math
import os
from pathlib import Path

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import core, kernels, moments


@pytest.fixture(scope="session")
def perturbed_gaussian_csv(tmp_path_factory):
    """Tabulated radial profile e^(-t)(1 + 0.1 t) on [0, 100]."""
    path = tmp_path_factory.mktemp("tables") / "perturbed.csv"
    knots = np.linspace(0.0, 100.0, 2501)
    vals = np.exp(-knots) * (1.0 + 0.1 * knots)
    lines = ["t,value"] + [f"{float(t)!r},{float(v)!r}"
                           for t, v in zip(knots, vals)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def perturbed_gaussian_weight(perturbed_gaussian_csv):
    return bl.load_radial_profile(perturbed_gaussian_csv, bl.full_space(1))


def monomial_rows(exponents, points) -> np.ndarray:
    """Evaluate basis monomials at points as rows, shape (nbasis, npoints):
    the rows of the dense Gram oracle and of the dense kernel oracle.

    ``exponents`` holds one multi-index per monomial, as a list of tuples
    or an (nbasis, n) integer array.  The coordinate power table is built
    once per call; each coordinate then contributes one fancy index into
    it, multiplied into the rows in place.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    npts, n = pts.shape
    A = np.asarray(exponents, dtype=np.intp).reshape(-1, n)
    # pows[j, k] = z_j^k per point
    pows = np.empty((n, int(A.max(initial=0)) + 1, npts), dtype=complex)
    pows[:, 0, :] = 1.0
    cols = np.ascontiguousarray(pts.T)
    for k in range(1, pows.shape[1]):
        np.multiply(pows[:, k - 1, :], cols, out=pows[:, k, :])
    rows = pows[0, A[:, 0]]
    for j in range(1, n):
        rows *= pows[j, A[:, j]]
    return rows


class dense_kernel:
    """The orthonormal expansion sum_k e_k(z) conj(e_k(w)) of a Gram's dense
    matrix (``matrix``, by default np.diag of the Gram's ``diagonal``): the
    Cholesky factor of the unit-diagonal matrix, inverted, over the
    monomial rows.  The oracle of the radial series."""

    def __init__(self, gram, matrix=None):
        self.base = self.domain = gram.domain
        self.index_map = gram.index_map
        G = (np.diag(gram.diagonal).astype(complex) if matrix is None
             else matrix)
        s = 1.0 / np.sqrt(np.real(np.diag(G)))
        scaled = G * s[:, None] * s[None, :]
        L = np.linalg.cholesky((scaled + scaled.conj().T) / 2.0)
        self.coeff = np.linalg.solve(L, np.eye(len(s), dtype=complex)) * s

    def basis_values(self, points):
        """e_k(z) for every point and k, shape (npoints, rank)."""
        pts = core.as_points(points, self.base.dim)
        return monomial_rows(self.index_map, pts).T @ self.coeff.T

    def eval_grid(self, zs, ws):
        return self.basis_values(zs) @ self.basis_values(ws).conj().T

    def diagonal(self, zs):
        E = self.basis_values(zs)
        return np.sum(E.real ** 2 + E.imag ** 2, axis=1)


def kernel_at(model, z, w) -> complex:
    """K(z, w) at one pair of points: the (0, 0) entry of a 1x1 grid."""
    return complex(model.eval_grid(np.reshape(z, (1, -1)), np.reshape(w, (1, -1)))[0, 0])


def fiber_term_model(domain, k):
    """The kernel model of K_{D, p^(k+m)}, the k-th term of the fiber
    series of a Hartogs domain, built for that term from the closed form
    of the weight p^(k+m): the per-term oracle of the series' tables."""
    return kernels.weighted_kernel_closed_form(
        domain.weight.pow(k + domain.fiber_dim))


# the equispaced angles of ``quadrature_points_1d`` number 2 * degree + this
# margin, enough to annihilate every angular frequency a monomial pair of
# degree <= degree can produce
ANGULAR_MARGIN = 8


def quadrature_points_1d(domain, weight, degree):
    """Explicit product-rule nodes z_s and plain-dV weights for n = 1: the
    radial nodes the Gram assembly integrates over (in t = |z|^2) times
    equispaced angles, so a reproducing-property check integrates against
    exactly the same radial discretization."""
    if domain.dim != 1:
        raise ValueError("explicit quadrature points are for n = 1 only")
    t, wt = moments._radial_rule(weight, degree)
    M = 2 * degree + ANGULAR_MARGIN
    thetas = 2.0 * np.pi * np.arange(M) / M
    pts = (np.sqrt(t)[:, None] * np.exp(1j * thetas)[None, :]).reshape(-1)
    # dV = dt d(theta) / 2 in t = |z|^2
    return pts, np.repeat(wt, M) * (math.pi / M)


def reproducing_residual(model, poly, z, weight):
    """| f(z) - integral f(w) K(z, w) p(w) dV(w) | for a polynomial f on
    a one-dimensional base: a correctness check of the series kernel.

    ``poly`` maps exponent multi-indices to coefficients; its degree should
    stay at least two below the series cap so the truncated kernel still
    reproduces it.  The integral uses the radial rule of the Gram assembly
    for this (domain, weight, degree) triple.
    """
    base = model.base
    if base.dim != 1:
        raise ValueError("reproducing-property checks are wired for n = 1")
    if weight.base != base:
        raise ValueError("weight base mismatch")
    z = core.as_points(np.reshape(z, (1, -1)), base.dim)[0]
    pts, wq = quadrature_points_1d(base, weight, model.degree)
    terms = [(alpha[0] if isinstance(alpha, tuple) else int(alpha), c)
             for alpha, c in poly.items()]
    fvals = np.zeros(pts.shape[0], dtype=complex)
    for k, c in terms:
        fvals += c * pts ** k
    fz = complex(sum(c * complex(z[0]) ** k for k, c in terms))
    pvals = core.weight_radial_fn(weight)(np.abs(pts) ** 2)
    kzw = model.eval_grid(z[None, :], pts[:, None])[0]  # K(z, w_s)
    return abs(fz - complex(np.sum(fvals * kzw * pvals * wq)))


def reference_montecarlo(domain, weight, degree, samples, seed):
    """Reference Monte Carlo moments: the draw calls and chunks of
    ``gram_montecarlo``, then one (samples, degree + 1) table of f t^k
    over all points, each column summed with math.fsum.  Returns the
    estimates of R_{n-1}..R_{degree+n-1} and their standard errors."""
    n = domain.dim
    rng = np.random.Generator(np.random.Philox(key=seed))
    chunk = max(1, min(200_000, moments.MC_CHUNK_BYTES // (48 * n + 64)))
    mu = None if domain.bounded else moments._gaussian_decay(weight)
    sigma2 = 1.0 / mu if mu is not None else 1.0
    draws = []
    for done in range(0, samples, chunk):
        m = min(chunk, samples - done)
        if domain.bounded:
            draws.append(core.sample_ball_polar(rng, n, 1.0, m))
        else:
            draws.append(np.sqrt(sigma2 / 2.0)
                         * (rng.standard_normal((m, n))
                            + 1j * rng.standard_normal((m, n))))
    t = np.sum(np.abs(np.concatenate(draws)) ** 2, axis=1)
    dens = (np.full(samples, math.factorial(n) / math.pi ** n)
            if domain.bounded
            else np.exp(-t / sigma2) / (np.pi * sigma2) ** n)
    f = core.weight_radial_fn(weight)(t) / dens
    X = f[:, None] * t[:, None] ** np.arange(degree + 1)
    mean = np.array([math.fsum(col) for col in X.T]) / samples
    second = np.array([math.fsum(col) for col in (X * X).T]) / samples
    var = np.maximum(second - mean ** 2, 0.0)
    c = math.factorial(n - 1) / math.pi ** n
    return c * mean, c * np.sqrt(var / samples)


def interior_disk_points(rng, count, radius=0.9):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            pts.append(z)
    return pts


def interior_ball_points(rng, n, count, radius=0.9):
    pts = []
    while len(pts) < count:
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        nz = np.sqrt(np.sum(np.abs(z) ** 2))
        if 0 < nz:
            z = z * (radius * rng.random() ** (1 / (2 * n)) / nz)
            pts.append(z)
    return pts


def child_env(threads):
    """Environment for a `python -m bergmanlab.cli` child process.

    The absolute root of the package this process imported goes first on
    `PYTHONPATH`, so the child runs the same code from any working
    directory (a relative `PYTHONPATH=src` does not resolve from a temp
    dir), from a source tree or an editable install alike.  Existing
    entries are kept; no empty entry is added, since that would put the
    child's cwd on `sys.path`.  Both BLAS thread counts are set to
    `threads`.
    """
    env = dict(os.environ)
    root = str(Path(bl.__file__).resolve().parents[1])
    entries = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([root, *entries])
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    return env
