import os
from pathlib import Path

import numpy as np
import pytest

import bergmanlab as bl


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


def dense_gram(gram):
    """A Gram's dense entries as a ``GramMatrix``, which ``kernel_from_gram``
    factorizes: the oracle of the radial series of a ``RadialGram``."""
    return bl.GramMatrix(gram.domain, gram.degree, gram.index_map,
                         gram.entries, gram.method,
                         weight_label=gram.weight_label)


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
