import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import jsonio, moments
from bergmanlab.moments import describe_weight

from conftest import (monomial_rows, quadrature_points_1d,
                      reference_montecarlo)

DISK = bl.unit_disk()
C1 = bl.full_space(1)


def scale_matrix(diagonal):
    """Natural per-entry scale sqrt(G_aa G_bb) of the Gram with this
    diagonal: quadrature errors and off-diagonal leakage are meaningful
    relative to it, not absolutely, because Gaussian moments span many
    orders of magnitude."""
    d = np.sqrt(np.abs(diagonal))
    return np.outer(d, d)


def tensor_rule_gram(domain, weight, degree):
    """The dense Gram matrix of the monomials z^0..z^degree on a
    one-dimensional base by the product rule of ``quadrature_points_1d``
    (the radial nodes times equispaced angles): every entry, off-diagonal
    ones included, integrated over the plane rather than assumed."""
    pts, wq = quadrature_points_1d(domain, weight, degree)
    from bergmanlab.core import weight_radial_fn
    f = wq * weight_radial_fn(weight)(np.abs(pts) ** 2)
    V = pts[None, :] ** np.arange(degree + 1)[:, None]
    return (V * f) @ V.conj().T


def moment(weight, alpha):
    """<z^alpha, z^alpha> from the closed-form Gram of degree |alpha|, whose
    rule for a polynomial weight has the nodes of that top moment."""
    gram = bl.gram_exact(weight, sum(alpha))
    i = gram.index_map.index(tuple(alpha))
    return gram.diagonal[i]


class TestMomentExact:
    def test_gaussian_fourth_moment(self):
        got = moment(bl.gaussian_weight(1, 1.0), (2,))
        assert got == pytest.approx(2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("k", range(6))
    def test_disk_beta_moments(self, k):
        got = moment(bl.generic_norm_weight(DISK, 1.0), (k,))
        assert got.real == pytest.approx(math.pi / ((k + 1) * (k + 2)), rel=1e-14)

    def test_ball_moment(self):
        b2 = bl.unit_ball(2)
        got = moment(bl.generic_norm_weight(b2, 1.0), (1, 0))
        assert got.real == pytest.approx(math.pi ** 2 / 24, rel=1e-14)

    def test_radial_weights_have_zero_cross_moments(self):
        # the diagonal is the whole Gram: the plane rule's cross moment
        # <z, z^3> vanishes to roundoff, its diagonal is the closed form's
        w = bl.generic_norm_weight(DISK, 2.0)
        d = bl.gram_exact(w, 3).diagonal
        G = tensor_rule_gram(DISK, w, 3)
        assert abs(G[1, 3]) <= 1e-16 * math.sqrt(d[1] * d[3])
        assert np.max(np.abs(np.diag(G) - d) / d) <= 1e-14

    def test_polynomial_matches_norm_power_for_integer_exponent(self):
        poly = bl.polynomial_weight(DISK, [1.0, -2.0, 1.0])  # (1 - t)^2
        power = bl.generic_norm_weight(DISK, 2.0)
        for k in range(8):
            a = moment(poly, (k,))
            b = moment(power, (k,))
            assert a == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("s", [4, 8, 16, 24])
    def test_lazy_power_of_one_minus_t_against_mpmath(self, s):
        # the expanded coefficients of (1 - t)^s alternate in sign and
        # cancel in any sum over them; the moments are pi B(k+1, s+1)
        mpmath = pytest.importorskip("mpmath")
        G = bl.gram_exact(bl.polynomial_weight(DISK, [1.0, -1.0]).pow(s),
                          30)
        for k in range(31):
            with mpmath.workdps(40):
                ref = float(mpmath.pi * mpmath.beta(k + 1, s + 1))
            assert abs(G.diagonal[k] - ref) <= 1e-13 * ref

    def test_unsupported_pairs_raise(self):
        # the pairs without radial moments: a generic-norm power on a
        # type-I matrix ball, which is not radial in |z|^2, and a
        # polynomial on C^n, which is not integrable
        typeI = bl.matrix_ball(2, 2)
        with pytest.raises(ValueError, match="type-I"):
            bl.gram_exact(bl.generic_norm_weight(typeI, 1.0), 0)
        with pytest.raises(ValueError, match="not integrable on C\\^n"):
            bl.gram_exact(bl.polynomial_weight(C1, [1.0, -1.0]), 0)


class TestMomentsPastTheFactorialRange:
    """Closed-form moments are exact ratios of integers rounded once, so
    each equals the correctly rounded value, past j = 170 where j! leaves
    the float range and past the range of mu^(j+1) alike; the first one
    outside the normal float range is named."""

    @pytest.mark.parametrize("s", [0.5, 1.0, 7.25, 40.0])
    def test_generic_norm_moments_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        ball = bl.unit_ball(400)
        R = moments._exact_moments(bl.generic_norm_weight(ball, s), 420)
        with mpmath.workdps(60):
            ref = [float(mpmath.beta(j + 1, s + 1)) for j in range(421)]
        assert R.tolist() == ref

    # mu^(j+1) overflows from j = 153 at mu = 100, j! from j = 171
    @pytest.mark.parametrize("mu,top", [(3.0, 215), (100.0, 300)])
    def test_gaussian_moments_against_mpmath(self, mu, top):
        mpmath = pytest.importorskip("mpmath")
        R = moments._exact_moments(bl.gaussian_weight(2, mu), top)
        with mpmath.workdps(60):
            ref = [float(mpmath.factorial(j) / mpmath.mpf(mu) ** (j + 1))
                   for j in range(top + 1)]
        assert R.tolist() == ref

    # the scale and the power's rate m mu enter the ratio exactly: 0.1 is
    # not dyadic, and the float 3 * 0.1 is not 3 times it
    @pytest.mark.parametrize("spec,top", [
        ("scaled:0.3:gaussian:0.1", 120),
        ("scaled:1e-3:npower:7.1", 200),
    ])
    def test_scaled_powers_against_mpmath(self, spec, top):
        mpmath = pytest.importorskip("mpmath")
        from bergmanlab.cli import parse_weight
        gaussian = "gaussian" in spec
        base = C1 if gaussian else DISK
        weight = parse_weight(spec, base).pow(3)
        R = moments._exact_moments(weight, top)
        with mpmath.workdps(60):
            mu = weight.power_exponent * mpmath.mpf(weight.form.mu)
            ref = [float(mpmath.mpf(weight.scale)
                         * (mpmath.factorial(j) / mu ** (j + 1) if gaussian
                            else mpmath.beta(j + 1, mu + 1)))
                   for j in range(top + 1)]
        assert R.tolist() == ref

    @pytest.mark.parametrize("weight,j", [
        (bl.gaussian_weight(2, 3.0), 216),
        (bl.gaussian_weight(2, 1e-3), 70),
        (bl.generic_norm_weight(bl.unit_ball(2), 1e4), 132),
    ])
    def test_a_moment_outside_the_float_range_is_named(self, weight, j):
        label = re.escape(describe_weight(weight))
        with pytest.raises(ValueError, match=rf"^the moment R_{j} of {label} "
                           r"is exp\(-?\d+\.\d\), outside the float range$"):
            moments._exact_moments(weight, j + 5)


def cubic_moments_mpmath(weight, top):
    """R_0..R_top of scale * p^m, p the table's own piecewise cubic, in
    60-digit mpmath: on [t_i, t_i + h] the piece c0 + c1 u + ... + c3 u^3,
    u = s - t_i, is raised to the power m, and s^j = sum_k C(j, k)
    t_i^(j-k) u^k is integrated against it term by term, up to 1 on
    disk/ball and up to the last knot on C^n."""
    mpmath = pytest.importorskip("mpmath")
    knots, coef = weight.form._cubic
    end = 1.0 if weight.base.bounded else float(knots[-1])
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        R = [mpf(0)] * (top + 1)
        for i in range(len(knots) - 1):
            if knots[i] >= end:
                break
            a = mpf(knots[i])
            h = mpf(min(knots[i + 1], end)) - a
            piece = [mpf(c) for c in coef[::-1, i]]
            p = [mpf(1)]
            for _ in range(weight.power_exponent):
                p = [mpmath.fsum(p[l] * piece[r - l]
                                 for l in range(len(p)) if 0 <= r - l <= 3)
                     for r in range(len(p) + 3)]
            # g_k = integral_0^h u^k p(u)^m du
            g = [mpmath.fsum(c * h ** (k + l + 1) / (k + l + 1)
                             for l, c in enumerate(p))
                 for k in range(top + 1)]
            apow = [a ** e for e in range(top + 1)]
            for j in range(top + 1):
                R[j] += mpmath.fsum(math.comb(j, k) * apow[j - k] * g[k]
                                    for k in range(j + 1))
        return [float(weight.scale * r) for r in R]


def _table(base, knots, fn):
    return bl.Weight(base, bl.RadialProfile(tuple(knots),
                                            tuple(fn(t) for t in knots)))


# sqrt(1 - t) on 11 knots, exp(-3t) on 6 knots past t = 1 (cut inside an
# interval), and the perturbed Gaussian of the benchmark's characterize-fbh
# tables: 240 knots out to t = 100
TABLES = {
    "disk": _table(DISK, [k / 10 for k in range(11)],
                   lambda t: math.sqrt(1.0 - t)),
    "ball2": _table(bl.unit_ball(2), [0.3 * k for k in range(6)],
                    lambda t: math.exp(-3.0 * t)),
    "cn1": _table(C1, [100.0 * (k / 239) ** 1.5 for k in range(240)],
                  lambda t: math.exp(-t) * (1.0 + 0.3 * t / (1.0 + t))),
}


class TestTableMoments:
    """A tabulated profile is a cubic between its knots: one Gauss-Legendre
    rule per interval integrates s^j p(s)^m exactly, so the moments are
    those of the cubic itself, to roundoff."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("case", sorted(TABLES))
    def test_table_moments_against_mpmath(self, case, m):
        weight = TABLES[case].pow(m)
        top = 20
        got = moments._exact_moments(weight, top)
        ref = np.array(cubic_moments_mpmath(weight, top))
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    def test_a_table_tail_is_checked(self):
        knots = tuple(np.linspace(0.0, 10.0, 50))
        w = bl.Weight(C1, bl.RadialProfile(knots, tuple(1.0 for _ in knots)))
        with pytest.raises(ValueError, match="table does not decay"):
            bl.gram_exact(w, 4)


def test_power_sums_are_the_power_table_to_roundoff():
    # row j of the running products takes j roundings where s ** j takes
    # about one: each positive sum moves by at most (j + 2) eps
    rng = np.random.default_rng(3)
    s, f = rng.random(500), rng.random(500)
    top = 60
    got = moments._power_sums(s, f, top)
    ref = np.sum(s[None, :] ** np.arange(top + 1)[:, None] * f, axis=1)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - ref) <= (np.arange(top + 1) + 2) * eps * ref)


class TestGramQuadrature:
    @pytest.mark.parametrize("domain,weight", [
        (DISK, bl.generic_norm_weight(DISK, 1.0)),
        (DISK, bl.generic_norm_weight(DISK, 2.0)),
        (DISK, bl.polynomial_weight(DISK, [1.0, -1.0]).pow(2)),
        (C1, bl.gaussian_weight(1, 1.0)),
        (C1, bl.gaussian_weight(1, 2.0)),
        (bl.unit_ball(4), bl.generic_norm_weight(bl.unit_ball(4), 1.0)),
        (bl.full_space(3), bl.gaussian_weight(3, 1.0)),
        (bl.full_space(4), bl.gaussian_weight(4, 1.5)),
    ])
    def test_matches_exact_moments(self, domain, weight):
        q = bl.gram_quadrature(weight, 10).diagonal
        e = bl.gram_exact(weight, 10).diagonal
        defect = np.abs(q - e) / (1.0 + np.diag(scale_matrix(e)))
        assert defect.max() <= 1e-12

    def test_ball_two_dimensional(self):
        b2 = bl.unit_ball(2)
        w = bl.generic_norm_weight(b2, 1.0)
        q = bl.gram_quadrature(w, 6).diagonal
        e = bl.gram_exact(w, 6).diagonal
        defect = np.abs(q - e) / (1.0 + np.diag(scale_matrix(e)))
        assert defect.max() <= 1e-12

    # Diagonal relative errors, rounded to four digits, of the nested
    # tensor-product Legendre rule (64 nodes per coordinate over the simplex
    # of t_j = |z_j|^2) that the 1-D rule in s replaced, at both ends of the
    # degree ranges the benchmark assembles: fractional exponents put an
    # endpoint singularity in the integrand that no Gauss rule integrates
    # exactly.
    @pytest.mark.parametrize("n,mu,degree,nested_error", [
        (2, 0.5, 6, 8.450e-06), (2, 0.5, 16, 3.111e-05),
        (2, 0.77, 6, 8.338e-07), (2, 0.77, 16, 3.814e-06),
        (2, 1.5, 6, 9.225e-09), (2, 1.5, 16, 7.413e-08),
        (2, 2.9, 6, 4.613e-13), (2, 2.9, 16, 9.890e-12),
        (3, 0.5, 2, 2.519e-06), (3, 0.5, 4, 5.198e-06),
        (3, 0.77, 2, 2.071e-07), (3, 0.77, 4, 4.753e-07),
        (3, 1.5, 2, 1.455e-09), (3, 1.5, 4, 4.337e-09),
        (3, 2.9, 2, 4.436e-14), (3, 2.9, 4, 1.695e-13),
    ])
    def test_fractional_exponents_within_nested_rule_error(
            self, n, mu, degree, nested_error):
        ball = bl.unit_ball(n)
        w = bl.generic_norm_weight(ball, mu)
        q = bl.gram_quadrature(w, degree).diagonal
        e = bl.gram_exact(w, degree).diagonal
        assert np.max(np.abs(q - e) / e) <= nested_error

    def test_unit_weight_degree_zero_gives_area(self):
        G = bl.gram_quadrature(bl.polynomial_weight(DISK, [1.0]), 0)
        assert G.diagonal[0] == pytest.approx(math.pi, rel=1e-14)

    def test_gaussian_mass(self):
        G = bl.gram_quadrature(bl.gaussian_weight(1, 1.0), 6)
        assert abs(G.diagonal[0] - math.pi) <= 1e-12 * math.pi

    def test_hermitian_as_stored(self):
        # a real diagonal is all a radial Gram stores
        G = bl.gram_quadrature(bl.generic_norm_weight(DISK, 1.0), 8)
        assert G.diagonal.dtype == np.float64 and G.diagonal.shape == (9,)
        assert not G.diagonal.flags.writeable

    def test_radial_sparsity(self):
        # the plane rule's off-diagonal entries vanish against the scale of
        # the diagonal, and its diagonal is the 1-D rule's
        for domain, weight in ((DISK, bl.generic_norm_weight(DISK, 1.0)),
                               (C1, bl.gaussian_weight(1, 1.0))):
            d = bl.gram_quadrature(weight, 10).diagonal
            G = tensor_rule_gram(domain, weight, 10)
            rel = np.abs(G - np.diag(d)) / scale_matrix(d)
            assert rel.max() <= 1e-12

    def test_gram_scales_linearly_in_weight(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        G1 = bl.gram_quadrature(w, 6).diagonal
        G2 = bl.gram_quadrature(w.scaled(3.5), 6).diagonal
        assert np.max(np.abs(G2 - 3.5 * G1)) <= 1e-14 * np.max(np.abs(G2))

    def test_type_i_unsupported(self):
        dom = bl.matrix_ball(2, 2)
        with pytest.raises(ValueError, match="quadrature"):
            bl.gram_quadrature(bl.generic_norm_weight(dom, 1.0), 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tabulated_gaussian_on_higher_dimensional_full_space(self, n):
        # monotone-cubic interpolation at knot spacing 0.1 costs ~1e-6
        knots = np.linspace(0.0, 60.0, 601)
        w = bl.Weight(bl.full_space(n),
                      bl.RadialProfile(tuple(knots), tuple(np.exp(-knots))))
        q = bl.gram_quadrature(w, 6).diagonal
        e = bl.gram_exact(bl.gaussian_weight(n, 1.0), 6).diagonal
        assert np.max(np.abs(q - e) / e) <= 1e-5

    def test_nondecaying_fullspace_table_rejected(self):
        knots = tuple(np.linspace(0.0, 10.0, 50))
        prof = bl.RadialProfile(knots, tuple(1.0 for _ in knots))
        w = bl.Weight(C1, prof)
        with pytest.raises(ValueError, match="tail"):
            bl.gram_quadrature(w, 4)

    @pytest.mark.filterwarnings("error")
    def test_a_wide_table_tail_is_measured_against_its_largest_moment(self):
        # s^64 at the last knot t = 2e5 overflows, R_64 = 64! 2000^65 does
        # not: the tail beyond the table is weighed against R_64, not inf
        knots = np.linspace(0.0, 2e5, 801)
        w = bl.Weight(C1, bl.RadialProfile(tuple(knots),
                                           tuple(np.exp(-knots / 2000.0))))
        for build in (bl.gram_exact, bl.gram_quadrature):
            with pytest.raises(ValueError, match="relative tail exp"):
                build(w, 64)

    def test_quadrature_points_match_gram_mass(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        pts, wq = quadrature_points_1d(DISK, w, 4)
        from bergmanlab.core import weight_radial_fn
        mass = np.sum(wq * weight_radial_fn(w)(np.abs(pts) ** 2))
        assert mass == pytest.approx(math.pi / 2, rel=1e-13)


class TestRadialGram:
    def test_holds_only_its_moments(self):
        ball3 = bl.unit_ball(3)
        gram = bl.gram_exact(bl.generic_norm_weight(ball3, 1.0), 64)
        assert isinstance(gram, bl.RadialGram)
        assert gram.moments.shape == (64 + 3,)
        assert gram.size == math.comb(3 + 64, 3) == 47905
        assert "index_map" not in vars(gram) and "diagonal" not in vars(gram)
        with pytest.raises(ValueError, match="needs 47905 monomials"):
            gram.diagonal

    @pytest.mark.parametrize("weight", [
        bl.generic_norm_weight(bl.unit_ball(2), 1.5),
        bl.gaussian_weight(3, 0.7),
    ], ids=["ball2", "cn3"])
    def test_entries_are_the_shell_reduction(self, weight):
        gram = bl.gram_exact(weight, 6)
        assert gram.index_map == bl.multiindex_enumerate(weight.base.dim, 6)
        assert gram.size == len(gram.index_map)
        d = gram.diagonal
        assert gram.diagonal is d and d.shape == (gram.size,)
        n = weight.base.dim
        for i, a in enumerate(gram.index_map):
            assert d[i] == moment(weight, a)
            assert d[i] == (moments._shell_factor(a)
                            * gram.moments[sum(a) + n - 1])

    @pytest.mark.parametrize("build,weight,degree", [
        (bl.gram_exact, bl.polynomial_weight(bl.unit_ball(20000), [1.0, -1.0]),
         1),
        (bl.gram_quadrature,
         bl.polynomial_weight(bl.unit_ball(20000), [1.0, -1.0]), 1),
        (bl.gram_quadrature, bl.gaussian_weight(3100, 1.0), 1),
        (bl.gram_quadrature, bl.Weight(bl.full_space(18000), bl.RadialProfile(
            tuple(np.linspace(0.0, 60.0, 61)),
            tuple(np.exp(-np.linspace(0.0, 60.0, 61))))), 1),
        # 2000 intervals of 36 nodes, exact for s^64 cubic^2: 65 x 72000
        (bl.gram_exact, bl.Weight(DISK, bl.RadialProfile(
            tuple(np.linspace(0.0, 1.0, 2001)),
            tuple(np.linspace(2.0, 1.0, 2001)))).pow(2), 64),
    ], ids=["exact-poly", "legendre", "laguerre", "table", "exact-table"])
    def test_power_table_is_refused_before_its_nodes(self, monkeypatch,
                                                     build, weight, degree):
        # (d + n) x nodes powers beyond 2145^2 numbers: refused before the
        # Gauss nodes are computed
        def no_nodes(*args):
            raise AssertionError("nodes computed")
        monkeypatch.setattr(moments, "_gauss01", no_nodes)
        monkeypatch.setattr(moments, "_gauss_laguerre", no_nodes)
        with pytest.raises(ValueError, match="table of node powers; it may "
                                             "hold at most 4601025 numbers"):
            build(weight, degree)

    def test_auto_keeps_a_refused_closed_form(self):
        # (1 - t)^300000 at degree 30 needs 150016 exact nodes; the 128-node
        # quadrature rule would give a mass off by eight orders.  The exact
        # route is the one of ``gram --method auto``: no rule replaces it
        weight = bl.polynomial_weight(bl.unit_ball(2), [1.0, -1.0]).pow(300000)
        with pytest.raises(ValueError, match="a 32 x 150016 table"):
            bl.gram_exact(weight, 30)


def tensor_gram(domain, weight, degree):
    """The dense Gram matrix of the monomials of degree <= degree on the
    disk, a ball or C^n, every entry integrated by a tensor rule in the
    polar coordinates z_j = sqrt(t_j) e^(i theta_j) of each coordinate,
    dV = prod dt_j dtheta_j / 2, rather than by the shell reduction.

    (t_1..t_n) = s (v_1, (1 - v_1) v_2, ..., prod (1 - v_i)), with
    Jacobian s^(n-1) prod_i (1 - v_i)^(n-2-i); s takes a Gauss rule exact
    for s^j w(s), j <= degree + n - 1 (Legendre on [0, 1] for a weight of
    degree <= 10 in s, Laguerre for a Gaussian on C^n), each v_i
    Gauss-Legendre on [0, 1], each theta_j degree + 1 equispaced angles,
    which integrate every angular frequency of a monomial pair to zero."""
    n, top = domain.dim, degree + domain.dim - 1
    if domain.bounded:
        x, wx = np.polynomial.legendre.leggauss(top // 2 + 6)
        s, ws = (x + 1.0) / 2.0, wx / 2.0
    else:
        mu = weight.form.mu * weight.power_exponent
        x, wx = np.polynomial.laguerre.laggauss(top // 2 + 1)
        s, ws = x / mu, wx * np.exp(x) / mu
    ws = ws * moments.weight_radial_fn(weight)(s) * s ** (n - 1)
    v, wv = np.polynomial.legendre.leggauss(degree // 2 + n)
    v, wv = (v + 1.0) / 2.0, wv / 2.0
    M = degree + 1
    theta = 2.0 * np.pi * np.arange(M) / M
    grid = np.meshgrid(s, *[v] * (n - 1), *[theta] * n, indexing="ij")
    w = np.prod(np.meshgrid(ws, *[wv] * (n - 1), *[np.full(M, np.pi / M)] * n,
                            indexing="ij"), axis=0)
    t, rest = [], grid[0]
    for i, vi in enumerate(grid[1:n]):
        t.append(rest * vi)
        w = w * (1.0 - vi) ** (n - 2 - i)
        rest = rest * (1.0 - vi)
    t.append(rest)
    pts = np.stack([np.sqrt(tj) * np.exp(1j * th)
                    for tj, th in zip(t, grid[n:])], axis=-1).reshape(-1, n)
    V = monomial_rows(bl.multiindex_enumerate(n, degree), pts)
    return (V * w.reshape(-1)) @ V.conj().T


@pytest.mark.parametrize("domain,weight,degree", [
    (DISK, bl.generic_norm_weight(DISK, 1.0), 8),
    (bl.unit_ball(2), bl.polynomial_weight(bl.unit_ball(2), [1.0, -0.5]), 6),
    (bl.unit_ball(3), bl.polynomial_weight(bl.unit_ball(3), [1.0, 0.5]), 4),
    (bl.full_space(2), bl.gaussian_weight(2, 1.5), 5),
], ids=["disk", "ball2", "ball3", "cn2"])
def test_shell_reduction_is_the_dense_gram(domain, weight, degree):
    # G_aa = pi^n a!/(|a|+n-1)! R_(|a|+n-1), every other entry 0: the
    # dense Gram integrated entry by entry against the reduction of the
    # closed-form moments
    d = bl.gram_exact(weight, degree).diagonal
    G = tensor_gram(domain, weight, degree)
    assert np.all(np.abs(np.diag(G) - d) <= 1e-13 * d)
    off = G - np.diag(np.diag(G))
    assert np.all(np.abs(off) <= 1e-14 * scale_matrix(d))


class TestGramMonteCarlo:
    def test_disk_area_within_three_se(self):
        # weight 1 over the uniform density is constant: no sampling error
        G = bl.gram_montecarlo(bl.polynomial_weight(DISK, [1.0]), 0,
                               10 ** 6, seed=42)
        err = abs(G.diagonal[0] - math.pi)
        assert err <= max(3 * math.pi * G.stderr[0], 1e-12)

    def test_radial_offdiagonals_within_three_se(self):
        # the report's dense matrix holds the off-diagonal 0 the shell
        # reduction gives, and every moment is within three standard
        # errors of the closed form
        weight = bl.generic_norm_weight(DISK, 1.0)
        G = bl.gram_montecarlo(weight, 2, 10 ** 6, seed=7)
        obj = json.loads(jsonio.canonical_dumps(bl.gram_to_json(G)))
        dense = jsonio.as_cmatrix(obj["entries"], (G.size, G.size))
        assert np.array_equal(dense, np.diag(G.diagonal))
        exact = bl.gram_exact(weight, 2).moments
        assert np.all(np.abs(G.moments - exact) <= 3 * G.stderr)

    def test_gaussian_second_moment(self):
        G = bl.gram_montecarlo(bl.gaussian_weight(1, 2.0), 2, 10 ** 6,
                               seed=3)
        err = abs(G.diagonal[1] - math.pi / 4)
        assert err <= 3 * math.pi * G.stderr[1]

    def test_standard_error_scales_like_sqrt_n(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        se1 = bl.gram_montecarlo(w, 2, 200_000, seed=11).stderr
        se2 = bl.gram_montecarlo(w, 2, 400_000, seed=12).stderr
        assert se1.shape == se2.shape == (3,)
        ratio = np.mean(se1 / se2)
        assert abs(ratio - math.sqrt(2)) <= 0.1 * math.sqrt(2)

    def test_chunk_fits_the_byte_budget(self, monkeypatch):
        # 1 MiB holds 5 041 ball:3 samples at 48 * 3 + 64 bytes each, so
        # 60 000 samples take 12 chunks, each within the budget
        budget = 2 ** 20
        monkeypatch.setattr(moments, "MC_CHUNK_BYTES", budget)
        ball = bl.unit_ball(3)
        tracemalloc.start()
        try:
            G = bl.gram_montecarlo(bl.generic_norm_weight(ball, 1.0),
                                   20, 60_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.moments.shape == (23,)
        assert peak <= budget

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("bounded", [True, False],
                             ids=["ball", "full-space"])
    def test_t_is_the_numpy_row_sum_of_squares(self, n, bounded,
                                                monkeypatch):
        # t = |z|^2 is summed by columns, and must keep the bits of
        # np.add.reduce over the real and imaginary parts of the points
        # the seed's generator draws: the polar draw on the ball, real
        # parts then imaginary parts of complex normals on C^n
        domain = bl.unit_ball(n) if bounded else bl.full_space(n)
        weight = (bl.generic_norm_weight(domain, 1.5) if bounded
                  else bl.gaussian_weight(n, 1.5))
        ts = []
        radial_fn = moments.weight_radial_fn

        def record_t(w):
            fn = radial_fn(w)
            return lambda t: (ts.append(t.copy()), fn(t))[1]

        monkeypatch.setattr(moments, "weight_radial_fn", record_t)
        bl.gram_montecarlo(weight, 2, 3_001, seed=n)
        rng = np.random.Generator(np.random.Philox(key=n))
        if bounded:
            points = bl.core.sample_ball_polar(rng, n, 1.0, 3_001)
        else:
            c = math.sqrt(1.0 / 1.5 / 2.0)
            points = np.empty((3_001, n), dtype=complex)
            points.real = rng.standard_normal((3_001, n)) * c
            points.imag = rng.standard_normal((3_001, n)) * c
        x = points.view(float)
        assert np.concatenate(ts).tobytes() == \
            np.add.reduce(x * x, axis=1).tobytes()

    def test_deterministic_given_seed(self):
        a = bl.gram_montecarlo(bl.generic_norm_weight(DISK, 1.0), 2,
                               50_000, seed=9)
        b = bl.gram_montecarlo(bl.generic_norm_weight(DISK, 1.0), 2,
                               50_000, seed=9)
        assert a.moments.tobytes() == b.moments.tobytes()
        assert a.stderr.tobytes() == b.stderr.tobytes()

    def test_a_seed_outside_the_philox_key_range_is_refused(self):
        weight = bl.generic_norm_weight(DISK, 1.0)
        for seed in (-1, 2 ** 128):
            with pytest.raises(ValueError, match=rf"^seed {seed}: .* takes "
                                                 r"0 <= seed < 2\*\*128$"):
                bl.gram_montecarlo(weight, 2, 10, seed)
        G = bl.gram_montecarlo(weight, 2, 10, 2 ** 128 - 1)
        assert np.isfinite(G.moments).all()

    def test_lower_moments_are_not_estimated(self):
        # R_0 and R_1 of ball:3 would weight the samples by t^-2 and t^-1,
        # the first of infinite variance; neither is estimated
        ball = bl.unit_ball(3)
        G = bl.gram_montecarlo(bl.generic_norm_weight(ball, 1.0), 4,
                               1_000, seed=2)
        assert G.moments.shape == (7,) and G.stderr.shape == (5,)
        assert np.isnan(G.moments[:2]).all()
        assert np.isfinite(G.moments[2:]).all()
        assert np.isfinite(G.diagonal).all()

    def test_workload_moments_are_within_four_se(self, monkeypatch,
                                                 tmp_path):
        # every seed-5/13 Monte Carlo Gram of the benchmark: drawn in one
        # chunk, and each moment within 4 standard errors of the closed form
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                        / "verdictbench"))
        import workloads
        from bergmanlab.cli import parse_domain, parse_weight
        argvs = [v.argv for seed in (5, 13)
                 for v in workloads.generate("moment-assembly", seed,
                                             tmp_path).verdicts
                 if v.template == "gram-montecarlo"]
        assert len(argvs) == 20
        for argv in argvs:
            opt = dict(zip(argv[1::2], argv[2::2]))
            domain = parse_domain(opt["--domain"])
            weight = parse_weight(opt["--weight"], domain)
            degree, samples = int(opt["--degree"]), int(opt["--samples"])
            assert samples <= moments.MC_CHUNK_BYTES // (48 * domain.dim + 64)
            G = bl.gram_montecarlo(weight, degree, samples,
                                   int(opt["--seed"]))
            exact = bl.gram_exact(weight, degree).moments
            n = domain.dim
            assert np.all(np.abs(G.moments[n - 1:] - exact[n - 1:])
                          <= 4 * G.stderr), argv


# a draw budget of a few hundred samples per chunk
_CHUNK_BYTES = 2 ** 16


def _mc_block(domain):
    """The draw chunk of ``gram_montecarlo`` at the budget _CHUNK_BYTES."""
    return _CHUNK_BYTES // (48 * domain.dim + 64)


_MC_CASES = {"disk": (DISK, bl.generic_norm_weight(DISK, 1.0), 6),
             "ball2": (bl.unit_ball(2),
                       bl.generic_norm_weight(bl.unit_ball(2), 0.5), 5),
             "ball3": (bl.unit_ball(3),
                       bl.polynomial_weight(bl.unit_ball(3), [1.0, 0.5]), 3),
             "cn2": (bl.full_space(2), bl.gaussian_weight(2, 1.5), 4),
             # 1 - 3t changes sign at t = 1/3
             "disk-signed": (DISK, bl.polynomial_weight(DISK, [1.0, -3.0]),
                             5)}


class TestBlockedMonteCarlo:
    """The moments summed chunk by chunk against one reference table of
    f t^k over the same points, each moment summed exactly: they agree to
    roundoff (other samples would move them by about 1e-3)."""

    @staticmethod
    def _assert_matches_one_table(domain, weight, degree, samples):
        G = bl.gram_montecarlo(weight, degree, samples, seed=5)
        ref, se = reference_montecarlo(domain, weight, degree, samples, 5)
        n = domain.dim
        assert np.isnan(G.moments[:n - 1]).all()
        got = G.moments[n - 1:]
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
        # a standard error below 1e-7 of its moment is the roundoff of the
        # cancellation in E[x^2] - E[x]^2: one sample, or f constant
        # (Gaussian weight and proposal of one decay on C^n at k = 0)
        tiny = se <= 1e-7 * np.abs(ref)
        assert np.all(G.stderr[tiny] <= 1e-7 * np.abs(ref[tiny]))
        assert np.all(np.abs(G.stderr - se)[~tiny] <= 1e-10 * se[~tiny])
        if samples == 1:
            assert tiny.all()

    @pytest.mark.parametrize("case", sorted(_MC_CASES))
    @pytest.mark.parametrize("where", ["one", "block-1", "block+1",
                                       "ragged"])
    def test_matches_one_table(self, case, where, monkeypatch):
        monkeypatch.setattr(moments, "MC_CHUNK_BYTES", _CHUNK_BYTES)
        domain, weight, degree = _MC_CASES[case]
        block = _mc_block(domain)
        samples = {"one": 1, "block-1": block - 1, "block+1": block + 1,
                   "ragged": 2 * block + block // 3}[where]
        self._assert_matches_one_table(domain, weight, degree, samples)

    def test_matches_one_table_across_draw_chunks(self):
        # at the default budget a chunk holds the 200 000 samples of the
        # cap: 400 001 samples take three chunks
        self._assert_matches_one_table(DISK, bl.generic_norm_weight(DISK, 1.0),
                                       3, 400_001)

    def test_peak_memory_is_a_few_blocks(self):
        # one running power per chunk: the peak is a few chunk-sized
        # arrays and does not grow with the degree (a table of 20 000 x 861
        # monomial values at degree 40 would take 276 MB)
        ball = bl.unit_ball(2)
        weight = bl.generic_norm_weight(ball, 1.0)
        peaks = []
        for degree in (2, 40):
            tracemalloc.start()
            try:
                bl.gram_montecarlo(weight, degree, 20_000, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 ** 12
        assert peaks[1] <= 20_000 * (48 * 2 + 64)


def dense_diagnostics(G):
    """The health report of a dense Gram matrix G from its spectrum and a
    trial Cholesky factorization of its unit-diagonal rescaling (the raw
    spectrum spans too many orders for eigenvalue signs alone): the
    reference of the report a diagonal Gram reads off its entries."""
    H = (G + G.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(H)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    d = np.real(np.diag(G))
    ok = False
    if not np.any(d <= 0):
        s = 1.0 / np.sqrt(d)
        scaled = G * s[:, None] * s[None, :]
        scaled = (scaled + scaled.conj().T) / 2.0
        try:
            np.linalg.cholesky(scaled)
            ok = True
        except np.linalg.LinAlgError:
            se = np.linalg.eigvalsh(scaled)
            ok = bool(se[0] > -moments.PSD_TOL * max(float(se[-1]), 1e-300))
    return moments.GramDiagnostics(
        hermitian_defect=float(np.max(np.abs(G - G.conj().T))),
        lambda_min=lam_min,
        lambda_max=lam_max,
        condition=float(lam_max / lam_min) if lam_min > 0 else math.inf,
        radial_offdiag_max=float(np.max(np.abs(G - np.diag(np.diag(G))))),
        cholesky_ok=ok,
        psd_tol=moments.PSD_TOL,
    )


class TestGramValidate:
    def test_exact_disk_gram_clean(self):
        diag = bl.gram_validate(bl.gram_exact(bl.generic_norm_weight(DISK, 1.0), 4))
        assert diag.hermitian_defect == 0.0
        assert diag.lambda_min > 0
        assert diag.cholesky_ok
        assert diag.radial_offdiag_max == 0.0

    def test_identity_condition_one(self):
        # R_k = 1/pi on the disk: G_kk = pi R_k = 1
        G = bl.RadialGram(DISK, 2, np.full(3, 1.0 / math.pi), {"kind": "exact"})
        diag = bl.gram_validate(G)
        assert diag.condition == pytest.approx(1.0)

    def test_degree_30_gaussian_condition_finite(self):
        G = bl.gram_exact(bl.gaussian_weight(1, 1.0), 30)
        diag = bl.gram_validate(G)
        assert 1.0 < diag.condition < math.inf
        assert diag.cholesky_ok

    @pytest.mark.parametrize("build", [bl.gram_exact, bl.gram_quadrature])
    @pytest.mark.parametrize("domain,weight,degree", [
        ("disk", "npower:1.5", 12), ("disk", "poly:1,-3", 6),
        ("ball:2", "npower:0.7", 10), ("ball:3", "poly:1,0.5", 5),
        ("cn:1", "gaussian:1", 24), ("cn:2", "gaussian:1.5", 6),
    ])
    def test_diagonal_report_is_the_dense_one(self, build, domain, weight,
                                              degree):
        # read off the diagonal, bit for bit (repr keeps -0.0, NaN and the
        # type apart) what the spectrum and trial factorization of the dense
        # matrix give; poly:1,-3 has negative moments, so an infinite
        # condition and no factorization
        from bergmanlab.cli import parse_domain, parse_weight
        base = parse_domain(domain)
        G = build(parse_weight(weight, base), degree)
        got = bl.gram_validate(G)
        ref = dense_diagnostics(np.diag(G.diagonal).astype(complex))
        assert ({k: repr(v) for k, v in vars(got).items()}
                == {k: repr(v) for k, v in vars(ref).items()})
        if weight == "poly:1,-3":
            assert got.condition == math.inf and not got.cholesky_ok


class TestSerialization:
    def test_gram_round_trip(self):
        G = bl.gram_quadrature(bl.generic_norm_weight(DISK, 1.0), 6)
        obj = json.loads(jsonio.canonical_dumps(bl.gram_to_json(G)))
        assert np.array_equal(
            np.diag(G.diagonal),
            jsonio.as_cmatrix(obj["entries"], (G.size, G.size)))
        assert obj["degree"] == G.degree
        assert obj["domain"] == {"kind": "disk", "dim": 1}

    def test_montecarlo_round_trip_keeps_stderr(self):
        # one standard error per estimated moment, R_0 and R_1 on the disk
        G = bl.gram_montecarlo(bl.polynomial_weight(DISK, [1.0]), 1,
                               10_000, seed=1)
        obj = json.loads(jsonio.canonical_dumps(bl.gram_to_json(G)))
        assert obj["stderr"] == G.stderr.tolist() and len(obj["stderr"]) == 2
        assert np.array_equal(
            np.diag(G.diagonal),
            jsonio.as_cmatrix(obj["entries"], (G.size, G.size)))
        assert obj["method"] == {"kind": "montecarlo", "samples": 10_000,
                                 "seed": 1}
        assert obj["seed"] == 1

    def test_weight_description(self):
        w = bl.gaussian_weight(2, 1.5).pow(2).scaled(0.5)
        assert "exp" in describe_weight(w)


def mass(weight):
    """Total integral <1, 1> of the weight: the reciprocal of the scale
    that ``unit_mass_weight`` gives it."""
    return weight.scale / bl.unit_mass_weight(weight).scale


class TestMass:
    def test_weight_mass_exact(self):
        assert mass(bl.generic_norm_weight(DISK, 1.0)) == pytest.approx(
            math.pi / 2, rel=1e-14)

    def test_weight_mass_of_a_table(self):
        knots = np.linspace(0.0, 1.2, 25)
        prof = bl.RadialProfile(tuple(knots), tuple(np.exp(-knots)))
        w = bl.Weight(DISK, prof)
        got = mass(w)
        from scipy.integrate import quad
        ref = math.pi * quad(lambda t: math.exp(-t), 0, 1)[0]
        assert got == pytest.approx(ref, rel=1e-6)

    def test_unit_mass(self):
        w = bl.unit_mass_weight(bl.generic_norm_weight(DISK, 2.0))
        assert bl.gram_exact(w, 0).diagonal[0] == pytest.approx(
            1.0, rel=1e-13)
