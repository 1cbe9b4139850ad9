"""The numerical rules the package owns, against independent oracles.

Gauss-Legendre and Gauss-Laguerre nodes and weights and the regularized
upper incomplete gamma function Q(a, x) are checked against mpmath at 30
or more digits; the monotone cubic of tabulated profiles against SciPy's
``PchipInterpolator``.  Each bound is a small multiple of the error the
float64 rule reaches.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab.core import _pchip_eval
from bergmanlab.moments import _gauss01, _gauss_laguerre, _log_gammaincc


def newton_refined(x0, n, terms, newton_step):
    """mpmath values from float starts: one Newton step (quadratic, so a
    float-accurate start becomes a 30-digit one), then the terms at the
    refined nodes."""
    with mp.workdps(34):
        x = [mp.mpf(float(v)) for v in x0]
        x = [v - newton_step(v, *terms(v, n)) for v in x]
        return x, [terms(v, n) for v in x]


def legendre_terms(x, n):
    """P_n(x), P_{n-1}(x)."""
    prev, p = mp.mpf(0), mp.mpf(1)
    for k in range(n):
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    return p, prev


def laguerre_terms(x, n):
    """L_n(x), L_{n-1}(x)."""
    prev, p = mp.mpf(0), mp.mpf(1)
    for k in range(n):
        prev, p = p, ((2 * k + 1 - x) * p - k * prev) / (k + 1)
    return p, prev


def legendre_reference(x0, n):
    """Nodes and weights 2 / ((1 - x^2) P_n'(x)^2) on [-1, 1]."""
    def step(x, p, prev):
        return p * (1 - x * x) / (n * (prev - x * p))
    xs, terms = newton_refined(x0, n, legendre_terms, step)
    with mp.workdps(34):
        ws = [2 * (1 - x * x) / (n * (prev - x * p)) ** 2
              for x, (p, prev) in zip(xs, terms)]
    return xs, ws


def laguerre_reference(x0, n):
    """Nodes and log(w) + x with w = x / (n L_{n-1}(x))^2."""
    def step(x, p, prev):
        return x * p / (n * (p - prev))
    xs, terms = newton_refined(x0, n, laguerre_terms, step)
    with mp.workdps(34):
        log_we = [mp.log(x / (n * (p - prev)) ** 2) + x
                  for x, (p, prev) in zip(xs, terms)]
    return xs, log_we


# nodes, absolute node error on [0, 1], relative weight error
LEGENDRE_BOUNDS = [(8, 2e-16, 2e-15), (64, 2e-16, 2e-13),
                   (256, 2e-16, 5e-13), (512, 2e-16, 5e-12)]


@pytest.mark.parametrize("nodes,node_tol,weight_tol", LEGENDRE_BOUNDS)
def test_gauss_legendre_against_mpmath(nodes, node_tol, weight_tol):
    s, w = _gauss01(nodes)
    assert s.shape == w.shape == (nodes,)
    assert np.all(np.diff(s) > 0)
    # the rule is symmetric about 1/2, bit for bit
    assert np.array_equal(s + s[::-1], np.ones(nodes))
    assert np.array_equal(w, w[::-1])
    # the upper half, where the weights are least accurate near s = 1; at
    # 512 nodes every 8th node and the outer 32
    upper = np.arange(nodes // 2, nodes)
    if nodes > 256:
        upper = np.union1d(upper[::8], upper[-32:])
    xs, ws = legendre_reference(2 * s[upper] - 1, nodes)
    node_err = max(abs(float(a - (x + 1) / 2)) for a, x in zip(s[upper], xs))
    weight_err = max(abs(float((a - v / 2) / (v / 2)))
                     for a, v in zip(w[upper], ws))
    assert node_err <= node_tol
    assert weight_err <= weight_tol


# nodes, relative node error, absolute error of log(w) + x
LAGUERRE_BOUNDS = [(8, 5e-16, 1e-14), (96, 5e-16, 3e-13),
                   (200, 5e-16, 1e-12)]


@pytest.mark.parametrize("nodes,node_tol,log_tol", LAGUERRE_BOUNDS)
def test_gauss_laguerre_against_mpmath(nodes, node_tol, log_tol):
    x, log_we = _gauss_laguerre(nodes)
    assert np.all(np.diff(x) > 0) and x[0] > 0
    # at 200 nodes the smallest weight is near e^-750, below the float
    # range: only its logarithm is kept
    assert np.all(np.isfinite(log_we))
    xs, refs = laguerre_reference(x, nodes)
    assert max(abs(float((a - r) / r)) for a, r in zip(x, xs)) <= node_tol
    assert max(abs(float(a - r)) for a, r in zip(log_we, refs)) <= log_tol


def test_rules_are_computed_once_and_read_only():
    for rule, nodes in ((_gauss01, 64), (_gauss_laguerre, 96)):
        first = rule(nodes)
        assert rule(nodes) is first
        for array in first:
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_gauss_legendre_integrates_its_degree():
    # 2n - 1 is the highest degree a rule of n nodes integrates exactly
    for nodes in (1, 2, 3, 7, 64):
        s, w = _gauss01(nodes)
        for j in (0, nodes, 2 * nodes - 1):
            assert float(np.sum(w * s ** j)) == pytest.approx(1 / (j + 1),
                                                              rel=1e-14)


def test_gauss_laguerre_integrates_its_degree():
    # integral_0^inf x^j e^-x dx = j!, exact up to j = 2n - 1
    x, log_we = _gauss_laguerre(96)
    for j in (0, 5, 40, 120, 191):
        got = math.fsum(np.exp(log_we - x + j * np.log(x)
                               - math.lgamma(j + 1)))
        assert got == pytest.approx(1.0, rel=1e-12)


Q_CASES = [(a, x) for a in (1, 2, 3, 10, 19, 20, 21, 64, 100, 500, 2200)
           for x in sorted({1e-300, 1e-8, 0.5, a / 10, a - 1.5, a - 1, a,
                            a + 0.5, a + math.sqrt(a), 2 * a,
                            a + 30 * math.sqrt(a) + 30}) if x > 0]


def test_log_gammaincc_against_mpmath():
    worst = 0.0
    with mp.workdps(40):
        for a, x in Q_CASES:
            ref = mp.gammainc(a, x, mp.inf, regularized=True)
            got = _log_gammaincc(a, x)
            if ref < mp.mpf("1e-300"):
                # far out in x >> a: compare logarithms
                assert abs(float(got - mp.log(ref))) <= 1e-12 * abs(got)
                continue
            worst = max(worst, abs(float((mp.exp(got) - ref) / ref)))
    assert worst <= 1e-11
    assert _log_gammaincc(5, 0.0) == 0.0


def random_table(rng, kind, count):
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0,
                                                         count - 1))])
    if kind == "decreasing":
        values = np.sort(rng.uniform(0.0, 1.0, count))[::-1]
    elif kind == "oscillating":
        values = np.exp(-knots) * (1.0 + 0.3 * np.sin(3.0 * knots))
    elif kind == "noise":
        values = rng.normal(size=count)
    else:   # repeated values: flat and sign-changing secants
        values = np.round(rng.normal(size=count), 1)
    return knots, values


@pytest.mark.parametrize("kind", ["decreasing", "oscillating", "noise",
                                  "plateaus"])
def test_pchip_against_scipy(kind):
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(["decreasing", "oscillating", "noise",
                                 "plateaus"].index(kind))
    for count in (4, 5, 17, 60):
        knots, values = random_table(rng, kind, count)
        profile = bl.RadialProfile(tuple(knots), tuple(values))
        t = np.concatenate([knots, rng.uniform(-0.5, knots[-1] + 0.5, 400),
                            [np.nan]])
        ref = PchipInterpolator(knots, values, extrapolate=False)(t)
        got = _pchip_eval(*profile._cubic, t)
        # NaN exactly outside [0, t_last]
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        inside = ~np.isnan(ref)
        scale = np.max(np.abs(values))
        np.testing.assert_allclose(got[inside], ref[inside], rtol=4e-16,
                                   atol=4e-16 * scale)
        assert np.array_equal(profile(knots[:-1]), values[:-1])
        with pytest.raises(ValueError, match="outside its table"):
            profile(knots[-1] + 0.1)
