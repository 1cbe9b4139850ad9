import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import jsonio, moments
from bergmanlab.moments import GramMatrix, describe_weight

from conftest import one_table_montecarlo, quadrature_points_1d

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
    gram = bl.gram_exact(weight.base, weight, sum(alpha))
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
        d = bl.gram_exact(DISK, w, 3).diagonal
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
        G = bl.gram_exact(DISK, bl.polynomial_weight(DISK, [1.0, -1.0]).pow(s),
                          30)
        for k in range(31):
            with mpmath.workdps(40):
                ref = float(mpmath.pi * mpmath.beta(k + 1, s + 1))
            assert abs(G.diagonal[k] - ref) <= 1e-13 * ref

    def test_unsupported_pairs_raise(self):
        with pytest.raises(ValueError):
            bl.gram_exact(DISK, bl.gaussian_weight(1, 1.0), 0)
        prof = bl.Weight(DISK, bl.RadialProfile((0, 0.5, 1.0, 1.5),
                                                (1, 1, 1, 1)))
        with pytest.raises(ValueError):
            bl.gram_exact(DISK, prof, 0)


class TestMomentsPastTheFactorialRange:
    """j! leaves the float range from j = 171, and mu^(j+1) or the j + 1
    factors of a generic-norm moment may leave it before: such Gaussian
    moments are formed in log space, such generic-norm moments by the
    recurrence R_j = R_(j-1) j/(s+j+1), and one outside the float range is
    named."""

    @staticmethod
    def tolerance(j, *log_terms):
        # j + 1 roundings of the product, or exp of a sum of lgamma values
        # each within a few ulps of its magnitude
        return 8 * sys.float_info.epsilon * (j + 1 + sum(map(abs, log_terms)))

    @pytest.mark.parametrize("s", [0.5, 1.0, 7.25, 40.0])
    def test_generic_norm_moments_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        ball = bl.unit_ball(400)
        R = moments._exact_moments(ball, bl.generic_norm_weight(ball, s), 420)
        denom = 1.0
        for j in range(421):
            denom *= s + j + 1
            if j <= 170 and denom < math.inf:
                # the product form, bit for bit where it holds
                assert R[j] == math.factorial(j) / denom
            with mpmath.workdps(40):
                ref = float(mpmath.beta(j + 1, s + 1))
            # a few roundings per factor or recurrence step; measured at
            # most 0.1 eps (j + 1) for these s
            tol = sys.float_info.epsilon * (j + 1) / 4
            assert abs(R[j] - ref) <= tol * ref, j

    # mu^(j+1) overflows from j = 153 at mu = 100, j! from j = 171
    @pytest.mark.parametrize("mu,top", [(3.0, 215), (100.0, 300)])
    def test_gaussian_moments_against_mpmath(self, mu, top):
        mpmath = pytest.importorskip("mpmath")
        cn = bl.full_space(2)
        R = moments._exact_moments(cn, bl.gaussian_weight(2, mu), top)
        for j in range(top + 1):
            with mpmath.workdps(40):
                ref = float(mpmath.factorial(j) / mpmath.mpf(mu) ** (j + 1))
            tol = self.tolerance(j, math.lgamma(j + 1),
                                 (j + 1) * math.log(mu))
            assert abs(R[j] - ref) <= tol * ref, j

    @pytest.mark.parametrize("weight,j", [
        (bl.gaussian_weight(2, 3.0), 216),
        (bl.gaussian_weight(2, 1e-3), 102),
        (bl.generic_norm_weight(bl.unit_ball(2), 1e4), 132),
    ])
    def test_a_moment_outside_the_float_range_is_named(self, weight, j):
        label = re.escape(describe_weight(weight))
        with pytest.raises(ValueError, match=rf"^the moment R_{j} of {label} "
                           r"is exp\(-?\d+\.\d\), outside the float range$"):
            moments._exact_moments(weight.base, weight, j + 5)


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
        q = bl.gram_quadrature(domain, weight, 10).diagonal
        e = bl.gram_exact(domain, weight, 10).diagonal
        defect = np.abs(q - e) / (1.0 + np.diag(scale_matrix(e)))
        assert defect.max() <= 1e-12

    def test_ball_two_dimensional(self):
        b2 = bl.unit_ball(2)
        w = bl.generic_norm_weight(b2, 1.0)
        q = bl.gram_quadrature(b2, w, 6).diagonal
        e = bl.gram_exact(b2, w, 6).diagonal
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
        q = bl.gram_quadrature(ball, w, degree).diagonal
        e = bl.gram_exact(ball, w, degree).diagonal
        assert np.max(np.abs(q - e) / e) <= nested_error

    def test_unit_weight_degree_zero_gives_area(self):
        G = bl.gram_quadrature(DISK, bl.polynomial_weight(DISK, [1.0]), 0)
        assert G.diagonal[0] == pytest.approx(math.pi, rel=1e-14)

    def test_gaussian_mass(self):
        G = bl.gram_quadrature(C1, bl.gaussian_weight(1, 1.0), 6)
        assert abs(G.diagonal[0] - math.pi) <= 1e-12 * math.pi

    def test_hermitian_as_stored(self):
        # a real diagonal is all a radial Gram stores
        G = bl.gram_quadrature(DISK, bl.generic_norm_weight(DISK, 1.0), 8)
        assert G.diagonal.dtype == np.float64 and G.diagonal.shape == (9,)
        assert not G.diagonal.flags.writeable

    def test_radial_sparsity(self):
        # the plane rule's off-diagonal entries vanish against the scale of
        # the diagonal, and its diagonal is the 1-D rule's
        for domain, weight in ((DISK, bl.generic_norm_weight(DISK, 1.0)),
                               (C1, bl.gaussian_weight(1, 1.0))):
            d = bl.gram_quadrature(domain, weight, 10).diagonal
            G = tensor_rule_gram(domain, weight, 10)
            rel = np.abs(G - np.diag(d)) / scale_matrix(d)
            assert rel.max() <= 1e-12

    def test_gram_scales_linearly_in_weight(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        G1 = bl.gram_quadrature(DISK, w, 6).diagonal
        G2 = bl.gram_quadrature(DISK, w.scaled(3.5), 6).diagonal
        assert np.max(np.abs(G2 - 3.5 * G1)) <= 1e-14 * np.max(np.abs(G2))

    def test_type_i_unsupported(self):
        dom = bl.matrix_ball(2, 2)
        with pytest.raises(ValueError, match="quadrature"):
            bl.gram_quadrature(dom, bl.generic_norm_weight(dom, 1.0), 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tabulated_gaussian_on_higher_dimensional_full_space(self, n):
        # monotone-cubic interpolation at knot spacing 0.1 costs ~1e-6
        knots = np.linspace(0.0, 60.0, 601)
        w = bl.Weight(bl.full_space(n),
                      bl.RadialProfile(tuple(knots), tuple(np.exp(-knots))))
        q = bl.gram_quadrature(w.base, w, 6).diagonal
        e = bl.gram_exact(w.base, bl.gaussian_weight(n, 1.0), 6).diagonal
        assert np.max(np.abs(q - e) / e) <= 1e-5

    def test_nondecaying_fullspace_table_rejected(self):
        knots = tuple(np.linspace(0.0, 10.0, 50))
        prof = bl.RadialProfile(knots, tuple(1.0 for _ in knots))
        w = bl.Weight(C1, prof)
        with pytest.raises(ValueError, match="tail"):
            bl.gram_quadrature(C1, w, 4)

    def test_quadrature_points_match_gram_mass(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        pts, wq = quadrature_points_1d(DISK, w, 4)
        from bergmanlab.core import weight_radial_fn
        mass = np.sum(wq * weight_radial_fn(w)(np.abs(pts) ** 2))
        assert mass == pytest.approx(math.pi / 2, rel=1e-13)


class TestRadialGram:
    def test_holds_only_its_moments(self):
        ball3 = bl.unit_ball(3)
        gram = bl.gram_auto(bl.generic_norm_weight(ball3, 1.0), 64)
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
        gram = bl.gram_exact(weight.base, weight, 6)
        assert gram.index_map == bl.multiindex_enumerate(weight.base.dim, 6)
        assert gram.size == len(gram.index_map)
        d = gram.diagonal
        assert gram.diagonal is d and d.shape == (gram.size,)
        n = weight.base.dim
        for i, a in enumerate(gram.index_map):
            assert d[i] == moment(weight, a)
            assert d[i] == (moments._shell_factor(a)
                            * gram.moments[sum(a) + n - 1])

    @pytest.mark.parametrize("build,weight", [
        (bl.gram_exact, bl.polynomial_weight(bl.unit_ball(20000), [1.0, -1.0])),
        (bl.gram_quadrature,
         bl.polynomial_weight(bl.unit_ball(20000), [1.0, -1.0])),
        (bl.gram_quadrature, bl.gaussian_weight(3100, 1.0)),
        (bl.gram_quadrature, bl.Weight(bl.full_space(18000), bl.RadialProfile(
            tuple(np.linspace(0.0, 60.0, 61)),
            tuple(np.exp(-np.linspace(0.0, 60.0, 61)))))),
    ], ids=["exact-poly", "legendre", "laguerre", "table"])
    def test_power_table_is_refused_before_its_nodes(self, monkeypatch,
                                                     build, weight):
        # (d + n) x nodes powers beyond 2145^2 numbers: refused before the
        # Gauss nodes are computed
        def no_nodes(*args):
            raise AssertionError("nodes computed")
        monkeypatch.setattr(moments, "_gauss01", no_nodes)
        monkeypatch.setattr(moments, "_gauss_laguerre", no_nodes)
        with pytest.raises(ValueError, match="table of node powers; it may "
                                             "hold at most 4601025 numbers"):
            build(weight.base, weight, 1)

    def test_auto_keeps_a_refused_closed_form(self):
        # (1 - t)^300000 at degree 30 needs 150016 exact nodes; the 128-node
        # quadrature rule would give a mass off by eight orders
        weight = bl.polynomial_weight(bl.unit_ball(2), [1.0, -1.0]).pow(300000)
        with pytest.raises(ValueError, match="a 32 x 150016 table"):
            bl.gram_auto(weight, 30)


class TestGramMonteCarlo:
    def test_disk_area_within_three_se(self):
        G = bl.gram_montecarlo(DISK, bl.polynomial_weight(DISK, [1.0]), 0,
                               10 ** 6, seed=42)
        err = abs(G.entries[0, 0].real - math.pi)
        assert err <= max(3 * G.stderr[0, 0], 1e-12)

    def test_radial_offdiagonals_within_three_se(self):
        G = bl.gram_montecarlo(DISK, bl.generic_norm_weight(DISK, 1.0), 2,
                               10 ** 6, seed=7)
        B = G.size
        for i in range(B):
            for j in range(B):
                if i != j:
                    assert abs(G.entries[i, j]) <= 3 * G.stderr[i, j] + 1e-12

    def test_gaussian_second_moment(self):
        G = bl.gram_montecarlo(C1, bl.gaussian_weight(1, 2.0), 2, 10 ** 6,
                               seed=3)
        err = abs(G.entries[1, 1].real - math.pi / 4)
        assert err <= 3 * G.stderr[1, 1]

    def test_standard_error_scales_like_sqrt_n(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        se1 = bl.gram_montecarlo(DISK, w, 2, 200_000, seed=11).stderr
        se2 = bl.gram_montecarlo(DISK, w, 2, 400_000, seed=12).stderr
        ratio = np.mean(se1 / se2)
        assert abs(ratio - math.sqrt(2)) <= 0.1 * math.sqrt(2)

    def test_chunk_fits_the_byte_budget(self, monkeypatch):
        # ball:2 at degree 20 has 231 monomials: one 8 000-sample chunk
        # would hold about 90 MB of per-sample arrays
        budget = 16 * 2 ** 20
        monkeypatch.setattr(moments, "MC_CHUNK_BYTES", budget)
        ball = bl.unit_ball(2)
        tracemalloc.start()
        try:
            G = bl.gram_montecarlo(ball, bl.generic_norm_weight(ball, 1.0),
                                   20, 8_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.size == 231
        assert peak <= budget + 8 * 2 ** 20

    def test_deterministic_given_seed(self):
        a = bl.gram_montecarlo(DISK, bl.generic_norm_weight(DISK, 1.0), 2,
                               50_000, seed=9)
        b = bl.gram_montecarlo(DISK, bl.generic_norm_weight(DISK, 1.0), 2,
                               50_000, seed=9)
        assert np.array_equal(a.entries, b.entries)
        assert np.array_equal(a.stderr, b.stderr)


def _mc_block(domain, degree):
    B = len(bl.multiindex_enumerate(domain.dim, degree))
    return max(4 * B, moments._MC_BLOCK_BYTES // (16 * B))


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
    """The block-summed estimate against one table per draw chunk: the
    same points, so entries agree to roundoff (other samples would move
    them by about 1e-3)."""

    @staticmethod
    def _assert_matches_one_table(domain, weight, degree, samples):
        G = bl.gram_montecarlo(domain, weight, degree, samples, seed=5)
        ref, se = one_table_montecarlo(domain, weight, degree, samples, 5)
        # the entries do not depend on whether standard errors are summed
        bare = bl.gram_montecarlo(domain, weight, degree, samples, seed=5,
                                  stderr=False)
        assert bare.stderr is None
        assert bare.entries.tobytes() == G.entries.tobytes()
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(G.entries - ref)) <= 1e-13 * scale
        if samples == 1:
            # one sample's variance is zero up to the roundoff of its
            # cancellation, in either grouping of the sums
            assert np.max(G.stderr) <= 1e-7 * scale
            assert np.max(se) <= 1e-7 * scale
        else:
            assert np.all(np.abs(G.stderr - se) <= 1e-12 * se)

    @pytest.mark.parametrize("case", sorted(_MC_CASES))
    @pytest.mark.parametrize("where", ["one", "block-1", "block+1",
                                       "ragged"])
    def test_matches_one_table(self, case, where):
        domain, weight, degree = _MC_CASES[case]
        block = _mc_block(domain, degree)
        samples = {"one": 1, "block-1": block - 1, "block+1": block + 1,
                   "ragged": 2 * block + block // 3}[where]
        self._assert_matches_one_table(domain, weight, degree, samples)

    def test_matches_one_table_across_draw_chunks(self):
        # 231 monomials: chunks of 18 157 draws, so three chunks
        ball = bl.unit_ball(2)
        self._assert_matches_one_table(ball, bl.generic_norm_weight(ball, 1.0),
                                       20, 40_000)

    def test_peak_memory_is_a_few_blocks(self):
        # one chunk-wide table of 18 157 x 231 values would take 67 MB
        ball = bl.unit_ball(2)
        tracemalloc.start()
        try:
            G = bl.gram_montecarlo(ball, bl.generic_norm_weight(ball, 1.0),
                                   20, 20_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.size == 231
        assert peak < 16 * 2 ** 20


class TestGramValidate:
    def test_exact_disk_gram_clean(self):
        diag = bl.gram_validate(bl.gram_exact(DISK, bl.generic_norm_weight(DISK, 1.0), 4))
        assert diag.hermitian_defect == 0.0
        assert diag.lambda_min > 0
        assert diag.cholesky_ok
        assert diag.radial_offdiag_max == 0.0

    def test_identity_condition_one(self):
        basis = bl.multiindex_enumerate(1, 2)
        G = GramMatrix(DISK, 2, basis, np.eye(3, dtype=complex), {"kind": "exact"})
        diag = bl.gram_validate(G)
        assert diag.condition == pytest.approx(1.0)

    def test_degree_30_gaussian_condition_finite(self):
        G = bl.gram_exact(C1, bl.gaussian_weight(1, 1.0), 30)
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
        G = build(base, parse_weight(weight, base), degree)
        dense = GramMatrix(base, degree, G.index_map,
                           np.diag(G.diagonal).astype(complex), G.method)
        got, ref = bl.gram_validate(G), bl.gram_validate(dense)
        assert ({k: repr(v) for k, v in vars(got).items()}
                == {k: repr(v) for k, v in vars(ref).items()})
        if weight == "poly:1,-3":
            assert got.condition == math.inf and not got.cholesky_ok


class TestSerialization:
    def test_gram_round_trip(self):
        G = bl.gram_quadrature(DISK, bl.generic_norm_weight(DISK, 1.0), 6)
        obj = json.loads(jsonio.canonical_dumps(bl.gram_to_json(G)))
        assert np.array_equal(
            np.diag(G.diagonal),
            jsonio.as_cmatrix(obj["entries"], (G.size, G.size)))
        assert obj["degree"] == G.degree
        assert obj["domain"] == {"kind": "disk", "dim": 1}

    def test_montecarlo_round_trip_keeps_stderr(self):
        G = bl.gram_montecarlo(DISK, bl.polynomial_weight(DISK, [1.0]), 1,
                               10_000, seed=1)
        obj = bl.gram_to_json(G)
        stderr = np.asarray(obj["stderr"], dtype=float).reshape(G.size, G.size)
        assert np.array_equal(G.stderr, stderr)
        assert obj["method"]["seed"] == 1

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

    def test_weight_mass_quadrature_fallback(self):
        knots = np.linspace(0.0, 1.2, 25)
        prof = bl.RadialProfile(tuple(knots), tuple(np.exp(-knots)))
        w = bl.Weight(DISK, prof)
        got = mass(w)
        from scipy.integrate import quad
        ref = math.pi * quad(lambda t: math.exp(-t), 0, 1)[0]
        assert got == pytest.approx(ref, rel=1e-6)

    def test_unit_mass(self):
        w = bl.unit_mass_weight(bl.generic_norm_weight(DISK, 2.0))
        assert bl.gram_auto(w, 0).diagonal[0] == pytest.approx(
            1.0, rel=1e-13)
