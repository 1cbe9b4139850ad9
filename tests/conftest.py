import os
from pathlib import Path

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import core


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


class dense_kernel:
    """The orthonormal expansion sum_k e_k(z) conj(e_k(w)) of a Gram's dense
    ``entries``: the Cholesky factor of the unit-diagonal matrix, inverted,
    over ``core.monomial_values``.  The oracle of the radial series."""

    def __init__(self, gram):
        self.base = self.domain = gram.domain
        self.index_map = gram.index_map
        s = 1.0 / np.sqrt(np.real(np.diag(gram.entries)))
        scaled = gram.entries * s[:, None] * s[None, :]
        L = np.linalg.cholesky((scaled + scaled.conj().T) / 2.0)
        self.coeff = np.linalg.solve(L, np.eye(len(s), dtype=complex)) * s

    def basis_values(self, points):
        """e_k(z) for every point and k, shape (npoints, rank)."""
        pts = core.as_points(points, self.base.dim)
        return core.monomial_values(self.index_map, pts) @ self.coeff.T

    def eval_grid(self, zs, ws):
        return self.basis_values(zs) @ self.basis_values(ws).conj().T

    def eval(self, z, w):
        return complex(self.eval_grid(np.reshape(z, (1, -1)),
                                      np.reshape(w, (1, -1)))[0, 0])

    def diagonal(self, zs):
        E = self.basis_values(zs)
        return np.sum(E.real ** 2 + E.imag ** 2, axis=1)

    def eval_pairs(self, zs, ws):
        return np.sum(self.basis_values(zs) * self.basis_values(ws).conj(),
                      axis=1)


def one_table_montecarlo(domain, weight, degree, samples, seed):
    """Reference Monte Carlo Gram: the draw calls and chunks of
    ``gram_montecarlo``, each chunk reduced over one (samples, B) monomial
    table.  Returns the symmetrized mean and the standard errors."""
    from bergmanlab import moments
    n = domain.dim
    basis = core.multiindex_enumerate(n, degree)
    rng = np.random.Generator(np.random.Philox(key=seed))
    chunk = max(1, min(200_000, moments.MC_CHUNK_BYTES // (64 * len(basis))))
    mu = None if domain.bounded else moments._gaussian_decay(weight)
    sigma2 = 1.0 / mu if mu is not None else 1.0
    sum_x = sum_abs2 = 0.0
    for done in range(0, samples, chunk):
        m = min(chunk, samples - done)
        if domain.bounded:
            pts = core.sample_ball_polar(rng, n, 1.0, m)
        else:
            pts = np.sqrt(sigma2 / 2.0) * (rng.standard_normal((m, n))
                                           + 1j * rng.standard_normal((m, n)))
        t = np.sum(np.abs(pts) ** 2, axis=1)
        dens = (np.full(m, 1.0 / moments._ball_volume(n)) if domain.bounded
                else np.exp(-t / sigma2) / (np.pi * sigma2) ** n)
        f = core.weight_radial_fn(weight)(t) / dens
        V = core.monomial_values(basis, pts)
        sum_x = sum_x + (V * f[:, None]).T @ V.conj()
        A2 = np.abs(V) ** 2
        sum_abs2 = sum_abs2 + (A2 * f[:, None] ** 2).T @ A2
    mean = sum_x / samples
    var = np.maximum(sum_abs2 / samples - np.abs(mean) ** 2, 0.0)
    return (mean + mean.conj().T) / 2.0, np.sqrt(var / samples)


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
