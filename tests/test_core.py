import math
import re

import numpy as np
import pytest
from scipy.integrate import quad, dblquad

import bergmanlab as bl
from bergmanlab.cli import parse_domain
from bergmanlab.core import (MAX_POINTS, _row_sums, hermitian_inner,
                             sample_ball, sample_ball_polar, weight_radial_fn)
from bergmanlab.moments import domain_from_json, domain_to_json

from conftest import interior_ball_points, interior_disk_points, monomial_rows


def grlex_key(alpha: tuple[int, ...]):
    """Sort key realizing the global grlex order."""
    return (sum(alpha), tuple(-a for a in alpha))


class TestMultiIndex:
    def test_one_variable(self):
        assert bl.multiindex_enumerate(1, 2) == [(0,), (1,), (2,)]

    def test_grlex_order_two_variables(self):
        assert bl.multiindex_enumerate(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_degree_two_count(self):
        out = bl.multiindex_enumerate(2, 2)
        assert len(out) == 6
        assert out == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("n,d", [(1, 7), (2, 5), (3, 4), (4, 3)])
    def test_binomial_count_and_strict_order(self, n, d):
        out = bl.multiindex_enumerate(n, d)
        assert len(out) == math.comb(n + d, n)
        keys = [grlex_key(a) for a in out]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_monomial_values(self):
        basis = bl.multiindex_enumerate(2, 2)
        z = np.array([[0.5 + 0.5j, 2.0]])
        vals = monomial_rows(basis, z).T[0]
        expected = [1, 0.5 + 0.5j, 2.0, (0.5 + 0.5j) ** 2, (0.5 + 0.5j) * 2, 4.0]
        assert np.allclose(vals, expected, rtol=0, atol=1e-15)


class TestGenericNorm:
    def test_disk_values(self):
        d = bl.unit_disk()
        assert bl.generic_norm(d, [[0]], [[0]])[0] == 1.0
        assert bl.generic_norm(d, [[0.5]], [[0.5]])[0] == pytest.approx(0.75, abs=0)

    def test_ball_inner_product(self):
        b = bl.unit_ball(2)
        z = np.array([0.3, 0.4j])
        assert bl.generic_norm(b, [z], [z])[0] == pytest.approx(0.75)

    def test_type_i_matches_determinant(self):
        dom = bl.matrix_ball(2, 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            Z = (rng.uniform(-0.4, 0.4, (2, 2))
                 + 1j * rng.uniform(-0.4, 0.4, (2, 2)))
            W = (rng.uniform(-0.4, 0.4, (2, 2))
                 + 1j * rng.uniform(-0.4, 0.4, (2, 2)))
            got = bl.generic_norm(dom, Z.reshape(1, -1), W.reshape(1, -1))[0]
            ref = np.linalg.det(np.eye(2) - Z @ W.conj().T)
            assert abs(got - ref) < 1e-13

    @pytest.mark.parametrize("domain,sampler", [
        (bl.unit_disk(), lambda rng: np.array(interior_disk_points(rng, 1))),
        (bl.unit_ball(2), lambda rng: interior_ball_points(rng, 2, 1)[0]),
        (bl.unit_ball(3), lambda rng: interior_ball_points(rng, 3, 1)[0]),
    ])
    def test_hermitian_symmetry_and_diagonal_range(self, domain, sampler):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = sampler(rng)
            w = sampler(rng)
            nzw = bl.generic_norm(domain, [z], [w])[0]
            nwz = bl.generic_norm(domain, [w], [z])[0]
            assert nzw == np.conj(nwz)
            nzz = bl.generic_norm(domain, [z], [z])[0]
            assert abs(nzz.imag) < 1e-15
            assert 0.0 < nzz.real <= 1.0
        zero = np.zeros((1, domain.dim))
        assert bl.generic_norm(domain, zero, zero)[0] == 1.0

    def test_type_i_diagonal_range(self):
        dom = bl.matrix_ball(2, 2)
        rng = np.random.default_rng(5)
        for _ in range(200):
            Z = (rng.uniform(-0.35, 0.35, 4) + 1j * rng.uniform(-0.35, 0.35, 4))
            if bl.contains(dom, [Z])[0] >= 0:
                continue
            nzz = bl.generic_norm(dom, [Z], [Z])[0]
            assert 0.0 < nzz.real <= 1.0 and abs(nzz.imag) < 1e-14

    def test_fullspace_has_no_norm(self):
        with pytest.raises(ValueError):
            bl.generic_norm(bl.full_space(1), [[0]], [[0]])


class TestGenus:
    def test_values(self):
        assert bl.unit_disk().genus == 2
        assert bl.unit_ball(3).genus == 4
        assert bl.matrix_ball(2, 2).genus == 4

    def test_fullspace_rejected(self):
        with pytest.raises(ValueError):
            bl.full_space(2).genus


class TestOneDisk:
    """The disk is the ball B^1: every spelling of it gives one value,
    written back as "disk"."""

    def test_every_spelling_is_one_domain(self):
        spellings = [bl.unit_disk(), bl.unit_ball(1), parse_domain("ball:1"),
                     domain_from_json({"kind": "ball", "dim": 1}),
                     domain_from_json({"kind": "disk", "dim": 1})]
        assert all(d == bl.unit_disk() for d in spellings)
        assert all(domain_to_json(d) == {"kind": "disk", "dim": 1}
                   for d in spellings)
        assert len(bl.DomainKind) == 3

    def test_ball_formulas_at_one_dimension(self):
        # the constants the disk had as a kind of its own, bit for bit
        d = bl.unit_disk()
        assert d.hua.coefficients == (1.0, 1.0)
        assert d.volume == math.pi

    def test_hua_polynomial_is_built_once_per_domain(self):
        d = bl.unit_disk()
        assert d.hua is d.hua


class TestHuaNormalization:
    def test_disk_closed_values(self):
        d = bl.unit_disk()
        assert bl.hua_normalization(d, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert bl.hua_normalization(d, 0.0) == pytest.approx(math.pi, rel=1e-15)

    def test_ball2_value(self):
        assert bl.hua_normalization(bl.unit_ball(2), 1.0) == pytest.approx(
            math.pi ** 2 / 6, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    def test_against_radial_quadrature(self, n, mu):
        # integral over the ball reduces to pi^n/(n-1)! * int_0^1 f(t) t^(n-1) dt
        domain = bl.unit_ball(n)
        val, err = quad(lambda t: (1 - t) ** mu * t ** (n - 1), 0.0, 1.0,
                        epsabs=1e-14, epsrel=1e-14)
        oracle = math.pi ** n / math.factorial(n - 1) * val
        got = bl.hua_normalization(domain, mu)
        assert abs(got - oracle) / oracle < 1e-10

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_type_i_2x2_against_eigenvalue_density(self, mu):
        # on 2x2 matrix balls the squared-singular-value pair has density
        # proportional to (l1 - l2)^2 on [0,1]^2
        def kernel(l1, l2, s):
            return (1 - l1) ** s * (1 - l2) ** s * (l1 - l2) ** 2

        num, _ = dblquad(lambda a, b: kernel(a, b, mu), 0, 1, 0, 1,
                         epsabs=1e-13)
        den, _ = dblquad(lambda a, b: kernel(a, b, 0.0), 0, 1, 0, 1,
                         epsabs=1e-13)
        dom = bl.matrix_ball(2, 2)
        oracle = num / den * dom.volume
        assert bl.hua_normalization(dom, mu) == pytest.approx(oracle, rel=1e-9)

    def test_hua_polynomial_normalized_at_zero(self):
        for dom in (bl.unit_disk(), bl.unit_ball(3), bl.matrix_ball(2, 3)):
            assert dom.hua(0.0) == pytest.approx(1.0, rel=1e-14)
            assert dom.hua(2.5) > 0


class TestWeightEval:
    def test_gaussian_at_origin(self):
        w = bl.gaussian_weight(1, 1.0)
        assert bl.weight_eval(w, [[0]])[0] == 1.0

    def test_norm_power_square(self):
        w = bl.generic_norm_weight(bl.unit_disk(), 2.0)
        assert bl.weight_eval(w, [[0.5]])[0] == pytest.approx(0.5625, rel=1e-15)

    def test_lazy_power(self):
        w = bl.gaussian_weight(1, 2.0).pow(3)
        assert bl.weight_eval(w, [[1.0]])[0] == pytest.approx(math.exp(-6), rel=1e-13)
        assert bl.weight_eval(w, [[1.0]])[0] == pytest.approx(
            math.exp(-2.0) ** 3, rel=1e-13)

    def test_power_is_pointwise_power(self):
        rng = np.random.default_rng(2)
        base = bl.generic_norm_weight(bl.unit_disk(), 1.5)
        cubed = base.pow(3)
        for z in interior_disk_points(rng, 25):
            v = bl.weight_eval(base, [[z]])[0]
            assert abs(bl.weight_eval(cubed, [[z]])[0] - v ** 3) <= 1e-14 * v ** 3

    def test_scaled(self):
        w = bl.polynomial_weight(bl.unit_disk(), [1.0, -1.0]).scaled(2.5)
        assert bl.weight_eval(w, [[0.5]])[0] == pytest.approx(2.5 * 0.75)

    def test_outside_domain_rejected(self):
        w = bl.generic_norm_weight(bl.unit_disk(), 1.0)
        with pytest.raises(ValueError):
            bl.weight_eval(w, [[1.2]])

    def test_nonpositive_table_rejected_on_eval(self):
        prof = bl.RadialProfile((0.0, 0.4, 0.8, 1.2), (1.0, 0.5, -0.2, -0.5))
        w = bl.Weight(bl.unit_disk(), prof)
        assert bl.weight_eval(w, [[0.1]])[0] > 0
        with pytest.raises(ValueError):
            bl.weight_eval(w, [[0.95]])


class TestWeightScale:
    """A weight is scale * form^power_exponent: ``scaled`` multiplies the
    scale, ``pow`` multiplies the power and raises the scale to it."""

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, c):
        w = bl.generic_norm_weight(bl.unit_disk(), 1.0)
        with pytest.raises(ValueError, match="scale"):
            w.scaled(c)
        with pytest.raises(ValueError, match="scale"):
            bl.Weight(w.base, w.form, 1, c)

    @pytest.mark.parametrize("c,flow", [(1e200, "overflows"),
                                        (1e-200, "underflows")])
    def test_power_out_of_float_range_is_named(self, c, flow):
        w = bl.gaussian_weight(1, 1.0).scaled(c)
        with pytest.raises(ValueError, match=re.escape(
                f"weight scale {c!r} {flow} at power 2")):
            w.pow(2)
        assert w.pow(1).scale == c

    def test_value_out_of_float_range_is_named(self):
        w = bl.polynomial_weight(bl.unit_disk(), [1e10]).scaled(1e300)
        with pytest.raises(ValueError, match="weight value overflows"):
            bl.weight_eval(w, [[0.1]])

    def test_fields(self):
        w = bl.gaussian_weight(1, 2.0).scaled(3.0).pow(2).scaled(0.5)
        assert w.form == bl.GaussianPower(2.0)
        assert (w.power_exponent, w.scale) == (2, 4.5)

    @pytest.mark.parametrize("weight", [
        bl.polynomial_weight(bl.unit_disk(), [1.0, -0.5, 0.2]),
        bl.generic_norm_weight(bl.unit_disk(), 1.5),
        bl.generic_norm_weight(bl.unit_ball(2), 0.7),
        bl.gaussian_weight(1, 1.3),
    ], ids=["poly-disk", "npower-disk", "npower-ball2", "gaussian-cn1"])
    def test_scaled_power_scaled(self, weight):
        a, m, b = 1.7, 3, 0.4
        w = weight.scaled(a).pow(m).scaled(b)
        c = b * a ** m
        G = bl.gram_exact(w, 6).diagonal
        ref = c * bl.gram_exact(weight.pow(m), 6).diagonal
        assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))
        t = np.linspace(0.0, 0.9, 7)
        got = weight_radial_fn(w)(t)
        ref = c * weight_radial_fn(weight)(t) ** m
        assert np.max(np.abs(got - ref) / ref) <= 1e-14
        rng = np.random.default_rng(4)
        n = w.base.dim
        pts = interior_disk_points(rng, 5) if n == 1 else \
            interior_ball_points(rng, n, 5)
        for z in pts:
            z = np.reshape(z, (1, -1))
            ref = c * bl.weight_eval(weight, z)[0] ** m
            assert abs(bl.weight_eval(w, z)[0] - ref) <= 1e-14 * ref

    def test_scaled_power_scaled_type_i(self):
        dom = bl.matrix_ball(2, 2)
        weight = bl.generic_norm_weight(dom, 1.5)
        a, m, b = 2.5, 2, 0.3
        w = weight.scaled(a).pow(m).scaled(b)
        z = np.array([0.3, 0.1j, -0.2, 0.25])
        nzz = np.linalg.det(np.eye(2) - z.reshape(2, 2)
                            @ z.reshape(2, 2).conj().T).real
        ref = b * a ** m * nzz ** (1.5 * m)
        assert abs(bl.weight_eval(w, [z])[0] - ref) <= 1e-14 * ref


class TestContains:
    def test_disk(self):
        d = bl.unit_disk()
        assert bl.contains(d, [[0]])[0] == -1.0
        assert bl.contains(d, [[1.0]])[0] == 0.0
        assert bl.contains(d, [[1.1]])[0] > 0

    def test_fullspace_everything_inside(self):
        assert bl.contains(bl.full_space(2), [[5.0, 3.0j]])[0] == -1.0

    def test_type_i_largest_singular_value(self):
        dom = bl.matrix_ball(2, 2)
        Z = np.diag([0.5, 0.9]).reshape(-1)
        assert bl.contains(dom, [Z])[0] == pytest.approx(0.81 - 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bl.contains(bl.unit_ball(2), [[0.1]])


class TestRowsOfPoints:
    """Each row of a (k, dim) array gives what its own one-row call
    gives."""

    @pytest.mark.parametrize("domain,weight", [
        (bl.unit_disk(), bl.generic_norm_weight(bl.unit_disk(), 1.5)),
        (bl.unit_ball(2), bl.polynomial_weight(bl.unit_ball(2), [1.0, -0.5])),
        (bl.matrix_ball(2, 2), bl.generic_norm_weight(bl.matrix_ball(2, 2), 2.0)),
        (bl.full_space(2), bl.gaussian_weight(2, 0.7).scaled(3.0).pow(2)),
    ], ids=["disk", "ball2", "typei", "cn2"])
    def test_rows_match_single_points(self, domain, weight):
        rng = np.random.default_rng(8)
        n = domain.dim
        Z = (rng.uniform(-1, 1, (6, n)) + 1j * rng.uniform(-1, 1, (6, n))) \
            * 0.3 / math.sqrt(n)
        W = Z[::-1].copy()
        defects = bl.contains(domain, Z)
        values = bl.weight_eval(weight, Z)
        inner = hermitian_inner(Z, W)
        for i in range(len(Z)):
            assert defects[i] == bl.contains(domain, Z[i:i + 1])[0]
            assert abs(values[i] - bl.weight_eval(weight, Z[i:i + 1])[0]) \
                <= 1e-15 * values[i]
            assert inner[i] == hermitian_inner(Z[i], W[i])
            assert inner[i] == np.conj(hermitian_inner(W[i], Z[i]))
        if domain.bounded:
            norms = bl.generic_norm(domain, Z, W)
            for i in range(len(Z)):
                assert abs(norms[i] - bl.generic_norm(domain, Z[i:i + 1],
                                                      W[i:i + 1])[0]) <= 1e-15


class TestRadialProfileCsv:
    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path / "w.csv",
                           "t,value\n0.0,1.0\n0.4,0.6\n0.8,0.3\n1.2,0.1\n")
        w = bl.load_radial_profile(path)
        assert w.base == bl.unit_disk()
        assert bl.weight_eval(w, [[0.0]])[0] == pytest.approx(1.0)
        assert 0.3 < bl.weight_eval(w, [[math.sqrt(0.5)]])[0] < 0.6

    def test_header_required(self, tmp_path):
        path = self._write(tmp_path / "w.csv", "x,y\n0,1\n0.5,1\n1,1\n1.5,1\n")
        with pytest.raises(ValueError, match="header"):
            bl.load_radial_profile(path)

    def test_strictly_increasing_required(self, tmp_path):
        path = self._write(tmp_path / "w.csv",
                           "t,value\n0,1\n0.5,1\n0.5,1\n1.5,1\n")
        with pytest.raises(ValueError, match="increasing"):
            bl.load_radial_profile(path)

    def test_domain_coverage_required(self, tmp_path):
        path = self._write(tmp_path / "w.csv",
                           "t,value\n0,1\n0.2,1\n0.4,1\n0.6,1\n")
        with pytest.raises(ValueError, match="cover"):
            bl.load_radial_profile(path)


class TestRowSums:
    """Column-wise row sums in numpy's own order: the same bits as
    ``np.add.reduce(x, axis=1)``, which sums each row on its own."""

    @pytest.mark.parametrize("width", range(1, 41))
    def test_bit_for_bit_numpy_row_sums(self, width):
        rng = np.random.default_rng(width)
        for rows in (0, 1, 2, 7, 300, 5000):
            # magnitudes 10^-6 .. 10^6 make the order of the additions
            # show in the last bits, and signed zeros in the sign of a zero
            x = rng.standard_normal((rows, width)) \
                * 10.0 ** rng.integers(-6, 7, (rows, width))
            x[rng.random((rows, width)) < 0.1] = -0.0
            x[::3] = -0.0
            x[1::5, ::2] = 0.0
            want = np.add.reduce(x, axis=1)
            assert _row_sums(x).tobytes() == want.tobytes()
            assert _row_sums(x * x).tobytes() == \
                np.add.reduce(x * x, axis=1).tobytes()


class TestSampleBall:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_uniform_in_the_ball(self, n):
        # uniform in the ball of radius r: P(|z| <= s) = (s/r)^(2n)
        count, r = 4000, 1.3
        rng = np.random.default_rng(n)
        pts = np.array(sample_ball(rng, n, r, count))
        assert pts.shape == (count, n)
        radii = np.sqrt(np.sum(np.abs(pts) ** 2, axis=1))
        assert radii.max() <= r
        for frac in (0.5, 0.7, 0.8, 0.9, 0.95):
            p = frac ** (2 * n)
            got = np.mean(radii <= frac * r)
            assert abs(got - p) <= 5 * math.sqrt(p * (1 - p) / count) + 1e-3
        # the whole ball is reached, not only the cube of half-width r/sqrt(n)
        edge = r / math.sqrt(n)
        assert np.abs(pts.real).max() > edge
        assert np.abs(pts.imag).max() > edge

    def test_disk_draws_keep_their_stream(self):
        # n = 1: Re, then Im, uniform in [-r, r], rejected outside the disk
        r = 0.9
        got = sample_ball(np.random.default_rng(7), 1, r, 50)
        rng = np.random.default_rng(7)
        want = []
        while len(want) < 50:
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * r
            if abs(z) <= r:
                want.append(z)
        assert [complex(p[0]) for p in got] == want

    @staticmethod
    def per_point_loop(rng, n, radius, count):
        # one candidate at a time: Re, then Im, from [-1, 1]^n, rejected
        # outside the unit ball, scaled once accepted
        pts = []
        while len(pts) < count:
            re_ = rng.uniform(-1.0, 1.0, n)
            im_ = rng.uniform(-1.0, 1.0, n)
            if np.sum(re_ ** 2 + im_ ** 2) <= 1.0:
                pts.append((re_ + 1j * im_) * radius)
        return np.array(pts, dtype=complex).reshape(count, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 7, 1000])
    def test_block_draws_are_the_per_point_draws(self, n, count):
        for seed, radius in ((0, 0.9), (1, 1.3), (2, 0.0)):
            got = sample_ball(np.random.default_rng(seed), n, radius, count)
            want = self.per_point_loop(np.random.default_rng(seed), n, radius,
                                       count)
            assert got.shape == (count, n) and got.dtype == np.complex128
            # bit for bit, signed zeros included
            assert got.tobytes() == want.tobytes()

    def test_an_oversized_draw_is_refused_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for n in (1, 5):
            with pytest.raises(ValueError, match="MAX_POINTS"):
                sample_ball(rng, n, 1.0, MAX_POINTS + 1)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", range(1, 9))
    def test_polar_draws_keep_the_monte_carlo_stream(self, n):
        # the Monte Carlo Gram's proposal: a normal direction, real parts
        # first, times U^(1/(2n)) in the unit ball
        key = 11
        for count in (0, 1, 500, 30_000):
            got = sample_ball_polar(
                np.random.Generator(np.random.Philox(key=key)), n, 1.0, count)
            rng = np.random.Generator(np.random.Philox(key=key))
            g = rng.standard_normal((count, 2 * n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            r = rng.random(count) ** (1.0 / (2 * n))
            pts = g * r[:, None]
            want = pts[:, :n] + 1j * pts[:, n:]
            assert got.tobytes() == want.tobytes()
