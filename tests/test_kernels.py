import cmath
import json
import math
import re
import typing

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import kernels
from bergmanlab.core import hermitian_inner, sample_ball

from conftest import dense_kernel, kernel_at, reproducing_residual

DISK = bl.unit_disk()
C1 = bl.full_space(1)


def fock_measure_weight(n, mu):
    """Gaussian weight carrying the (mu/pi)^n normalization of the
    Gaussian-measure Hilbert space, so its kernel is exp(mu <z,w>)."""
    return bl.gaussian_weight(n, mu).scaled((mu / math.pi) ** n)


class TestClosedForms:
    def test_fock_origin(self):
        K = bl.FockKernel(1.0, 1)
        assert kernel_at(K, [0], [0]) == 1.0

    def test_fock_growth_against_series(self):
        K = bl.FockKernel(2.0, 1)
        val = kernel_at(K, [1.0], [1.0])
        assert val.real == pytest.approx(math.e ** 2, rel=1e-12)
        series = bl.kernel_from_gram(bl.gram_exact(fock_measure_weight(1, 2.0), 30))
        assert kernel_at(series, [1.0], [1.0]).real == pytest.approx(val.real, rel=1e-10)

    def test_fock_complex_argument(self):
        K = bl.FockKernel(1.0, 1)
        assert kernel_at(K, [1.0], [1j]) == pytest.approx(cmath.exp(-1j), rel=1e-15)

    def test_power_kernel_pre_normalization(self):
        K = bl.PowerKernel(DISK, 1.0)
        assert kernel_at(K, [0], [0]) == 1.0
        assert kernel_at(K, [0.5], [0]) == 1.0  # N(z, 0) = 1

    def test_raw_weighted_kernel_constants(self):
        K = bl.weighted_kernel_closed_form(bl.generic_norm_weight(DISK, 1.0))
        assert kernel_at(K, [0], [0]).real == pytest.approx(2 / math.pi, rel=1e-15)
        Kg = bl.weighted_kernel_closed_form(bl.gaussian_weight(1, 1.0))
        assert kernel_at(Kg, [0], [0]).real == pytest.approx(1 / math.pi, rel=1e-15)

    def test_scaled_weight_scales_kernel_inversely(self):
        K = bl.weighted_kernel_closed_form(bl.generic_norm_weight(DISK, 1.0).scaled(4.0))
        assert kernel_at(K, [0], [0]).real == pytest.approx(0.5 / math.pi, rel=1e-14)

    def test_type_i_power_kernel_branch(self):
        dom = bl.matrix_ball(2, 2)
        K = bl.PowerKernel(dom, 1.0)
        Z = np.array([0.3, 0.1j, -0.2, 0.25])
        W = np.array([0.1, 0.2, 0.05j, -0.1])
        v = kernel_at(K, Z, W)
        ref = np.linalg.det(np.eye(2) - Z.reshape(2, 2) @ W.reshape(2, 2).conj().T) ** (-5.0)
        assert v == pytest.approx(ref, rel=1e-12)


class TestKernelFromGram:
    def test_fock_gram_value(self):
        G = bl.gram_exact(fock_measure_weight(1, 1.0), 25)
        K = bl.kernel_from_gram(G)
        assert abs(kernel_at(K, [0.5], [0.5]) - math.exp(0.25)) <= 1e-10

    def test_disk_weighted_origin(self):
        G = bl.gram_exact(bl.generic_norm_weight(DISK, 1.0), 30)
        K = bl.kernel_from_gram(G)
        assert kernel_at(K, [0], [0]).real == pytest.approx(2 / math.pi, rel=1e-13)

    def test_degree_zero_reproduces_constants(self):
        G = bl.gram_exact(bl.polynomial_weight(DISK, [1.0]), 0)
        K = bl.kernel_from_gram(G)
        assert kernel_at(K, [0.3], [0.1j]) == pytest.approx(1 / math.pi, rel=1e-15)


RADIAL_CASES = [
    (DISK, bl.generic_norm_weight(DISK, 1.0), 30, 0.6),
    (bl.unit_ball(2), bl.generic_norm_weight(bl.unit_ball(2), 1.0), 30, 0.6),
    (bl.unit_ball(3), bl.generic_norm_weight(bl.unit_ball(3), 1.0), 16, 0.6),
    (C1, bl.gaussian_weight(1, 1.0), 30, 1.5),
    (bl.full_space(2), bl.gaussian_weight(2, 1.0), 30, 1.5),
]
RADIAL_IDS = ["disk", "ball2", "ball3", "cn1", "cn2"]


class TestRadialSeriesKernel:
    """The 1-D series of a radial Gram against the dense orthonormal
    expansion of the same Gram."""

    @pytest.mark.parametrize("domain,weight,degree,radius", RADIAL_CASES,
                             ids=RADIAL_IDS)
    def test_matches_dense_oracle(self, domain, weight, degree, radius):
        gram = bl.gram_exact(weight, degree)
        K = bl.kernel_from_gram(gram)
        dense = dense_kernel(gram)
        assert isinstance(K, bl.RadialSeriesKernel)
        assert K.c.shape == (degree + 1,)
        n = domain.dim
        rng = np.random.default_rng(31)
        pts = np.concatenate([np.zeros((1, n), dtype=complex),
                              sample_ball(rng, n, radius, 7)])
        ref = dense.eval_grid(pts, pts)
        grid = K.eval_grid(pts, pts)
        assert np.all(np.abs(grid - ref) <= 1e-13 * np.abs(ref))
        diag, ref_diag = K.diagonal(pts), dense.diagonal(pts)
        assert diag.dtype == float
        assert np.all(np.abs(diag - ref_diag) <= 1e-13 * ref_diag)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("domain,weight,degree,radius", RADIAL_CASES[:2],
                             ids=RADIAL_IDS[:2])
    def test_bad_moment_is_refused(self, domain, weight, degree, radius, bad):
        gram = bl.gram_exact(weight, degree)
        gram.moments[domain.dim + 3] = bad
        with pytest.raises(ValueError,
                           match="Gram diagonal is not strictly positive"):
            bl.kernel_from_gram(gram)

    def test_unused_moments_are_not_read(self):
        # on ball:2 the series reads R_1.., so R_0 does not enter
        gram = bl.gram_exact(bl.generic_norm_weight(bl.unit_ball(2), 1.0), 4)
        gram.moments[0] = np.nan
        assert np.isfinite(bl.kernel_from_gram(gram).c).all()

    def test_a_montecarlo_gram_has_a_kernel(self):
        # a Monte Carlo Gram holds moments from R_(n-1) on, all the series
        # reads: its kernel is the series of those moments, near the
        # closed-form Gram's
        ball = bl.unit_ball(2)
        weight = bl.generic_norm_weight(ball, 1.0)
        mc = bl.gram_montecarlo(weight, 4, 200_000, 0)
        assert isinstance(mc, bl.RadialGram) and np.isnan(mc.moments[0])
        K = bl.kernel_from_gram(mc)
        exact = bl.kernel_from_gram(bl.gram_exact(weight, 4))
        assert K.c.shape == (5,)
        assert np.all(np.abs(K.c - exact.c) <= 0.02 * exact.c)


class TestSeriesAgainstClosedForm:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_fock_family(self, mu, n):
        G = bl.gram_exact(fock_measure_weight(n, mu), 30)
        K = bl.kernel_from_gram(G)
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            z *= 1.5 / max(1.0, float(np.sqrt(np.sum(np.abs(z) ** 2))))
            w = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            w *= 1.5 / max(1.0, float(np.sqrt(np.sum(np.abs(w) ** 2))))
            kv, rv = kernel_at(K, z, w), cmath.exp(mu * hermitian_inner(z, w))
            assert abs(kv - rv) / abs(rv) <= 1e-8

    # the degree-30 truncation supports 1e-8 relative accuracy out to radius
    # 0.6 on bounded domains (at 0.7 the exact tail itself exceeds it)
    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("domain", [DISK, bl.unit_ball(2)])
    def test_weighted_power_family(self, domain, s):
        G = bl.gram_exact(bl.generic_norm_weight(domain, s), 30)
        K = bl.kernel_from_gram(G)
        # the raw-dV kernel N(z, w)^(-g-s) / integral_D N(z, z)^s dV
        scale = 1.0 / bl.hua_normalization(domain, s)
        rng = np.random.default_rng(23)
        n = domain.dim
        for _ in range(20):
            z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            z *= 0.6 * rng.random() ** 0.5 / float(np.sqrt(np.sum(np.abs(z) ** 2)))
            w = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            w *= 0.6 / float(np.sqrt(np.sum(np.abs(w) ** 2)))
            kv = kernel_at(K, z, w)
            rv = scale * bl.generic_norm_power(domain, [z], [w],
                                               -(domain.genus + s))[0]
            assert abs(kv - rv) / abs(rv) <= 1e-8

    def test_diagonal_monotone_in_degree(self):
        pts = np.array([[0.2], [0.5 + 0.3j], [-0.6j], [0.65]])
        prev = None
        for d in (5, 10, 20, 30):
            K = bl.kernel_from_gram(
                bl.gram_exact(bl.generic_norm_weight(DISK, 1.0), d))
            diag = np.diagonal(K.eval_grid(pts, pts)).real
            if prev is not None:
                assert all(b >= a - 1e-15 for a, b in zip(prev, diag))
            prev = diag

    def test_pointwise_kernel_matrix_psd(self):
        K = bl.kernel_from_gram(
            bl.gram_exact(bl.generic_norm_weight(DISK, 1.0), 12))
        rng = np.random.default_rng(4)
        pts = []
        while len(pts) < 10:
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if abs(z) < 0.7:
                pts.append(np.array([z]))
        M = K.eval_grid(pts, pts)
        eigs = np.linalg.eigvalsh((M + M.conj().T) / 2)
        assert eigs[0] >= -1e-10 * np.linalg.norm(M)

    def test_factorization_independence(self, monkeypatch):
        # the radial series needs no factorization, and agrees with the
        # Cholesky expansion of the same Gram
        gram = bl.gram_quadrature(bl.generic_norm_weight(DISK, 1.0), 15)
        Kc = dense_kernel(gram)
        tried = []

        def failed_cholesky(a):
            tried.append(a.shape)
            raise np.linalg.LinAlgError("no factorization")
        monkeypatch.setattr(np.linalg, "cholesky", failed_cholesky)
        Ke = bl.kernel_from_gram(gram)
        assert tried == []
        rng = np.random.default_rng(8)
        for _ in range(25):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            a, b = kernel_at(Kc, [z], [w]), kernel_at(Ke, [z], [w])
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_hermitian_symmetry(self):
        K = bl.kernel_from_gram(
            bl.gram_exact(bl.generic_norm_weight(DISK, 2.0), 10))
        a = kernel_at(K, [0.3 + 0.2j], [0.1 - 0.5j])
        b = kernel_at(K, [0.1 - 0.5j], [0.3 + 0.2j])
        assert a == pytest.approx(np.conj(b), rel=1e-14)


def normalized_fock(mu, v):
    """k_v(z) = K(z, v)/sqrt(K(v, v)) of the Fock kernel exp(mu <z, w>):
    the fiber factor of the translation by v."""
    H = bl.HartogsDomain(C1, bl.gaussian_weight(1, mu), 1)
    return bl.make_fbh_map(H, "translation", v=v).fiber_factor


class TestNormalizedKernel:
    def test_fock_diagonal_halves_rate(self):
        got = normalized_fock(2.0, [[1.0]])(np.array([[1.0]]))[0]
        assert got == pytest.approx(math.e, rel=1e-14)

    def test_fock_offdiagonal_formula(self):
        got = normalized_fock(1.0, [[1.0]])(np.array([[0.0]]))[0]
        assert got == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_constant_center(self):
        K = bl.kernel_from_gram(bl.gram_exact(bl.polynomial_weight(DISK, [1.0]), 0))
        got = kernel_at(K, [0.4], [0.0]) / math.sqrt(kernel_at(K, [0.0], [0.0]).real)
        assert got == pytest.approx((1 / math.pi) / math.sqrt(1 / math.pi), rel=1e-14)

    def test_center_value_is_sqrt_of_diagonal(self):
        K = bl.FockKernel(1.3, 1)
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
            kww = kernel_at(K, w, w).real
            assert abs(normalized_fock(1.3, [w])(np.array([w]))[0]) == \
                pytest.approx(math.sqrt(kww), rel=4e-16)

    def test_rejects_nonpositive_center(self):
        # a model whose diagonal K(w, w) is not positive is refused when it
        # is built, so no normalization meets one
        gram = bl.RadialGram(DISK, 0, np.array([0.0]), {"kind": "exact"})
        with pytest.raises(ValueError, match="not strictly positive"):
            bl.kernel_from_gram(gram)


class TestReproducingResidual:
    def test_constants_reproduced(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        K = bl.kernel_from_gram(bl.gram_exact(w, 10))
        res = reproducing_residual(K, {(0,): 1.0}, [0.0], w)
        assert res <= 1e-12

    def test_cubic_in_gaussian_space(self):
        w = bl.gaussian_weight(1, 1.0)
        K = bl.kernel_from_gram(bl.gram_exact(w, 20))
        res = reproducing_residual(K, {(3,): 1.0}, [0.3], w)
        assert res <= 1e-10

    def test_full_degree_edge_reported(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        K = bl.kernel_from_gram(bl.gram_exact(w, 10))
        res = reproducing_residual(K, {(10,): 1.0}, [0.5], w)
        assert np.isfinite(res)  # reported, not asserted small


# kernels of every model, each written by kernel_to_json and read back
ROUND_TRIP = [
    lambda: bl.FockKernel(1.5, 2),
    lambda: bl.PowerKernel(DISK, 2.0, 0.5),
    lambda: bl.weighted_kernel_closed_form(bl.gaussian_weight(1, 2.0)),
    lambda: bl.kernel_from_gram(
        bl.gram_quadrature(bl.generic_norm_weight(DISK, 1.0), 8)),
    lambda: bl.kernel_from_gram(bl.gram_quadrature(
        bl.generic_norm_weight(bl.unit_ball(2), 1.0), 8)),
    lambda: bl.kernel_from_gram(
        bl.gram_exact(bl.gaussian_weight(2, 1.0), 12)),
]


class TestKernelSerialization:
    def test_fock_scale_round_trip(self):
        K = bl.weighted_kernel_closed_form(
            bl.gaussian_weight(2, 1.5).scaled(0.3))
        obj = bl.kernel_to_json(K)
        assert obj == {"form": "fock", "mu": 1.5, "n": 2,
                       "scale": (1.5 / math.pi) ** 2 / 0.3}
        assert bl.kernel_from_json(obj) == K
        assert bl.kernel_from_json({"form": "fock", "mu": 1.5, "n": 2}) \
            == bl.FockKernel(1.5, 2, 1.0)

    @pytest.mark.parametrize("obj", [
        {"form": "fock", "mu": 1.0, "n": 1, "scale": -1.0},
        {"form": "fock", "mu": 1.0, "n": 1, "scale": math.inf},
        {"form": "power", "domain": {"kind": "disk", "dim": 1}, "mu": 1.0,
         "scale": 0.0},
        {"form": "power", "domain": {"kind": "disk", "dim": 1}, "mu": 1.0,
         "scale": math.nan},
    ], ids=["fock-negative", "fock-inf", "power-zero", "power-nan"])
    def test_scale_must_be_finite_and_positive(self, obj):
        with pytest.raises(ValueError, match="kernel scale must be finite "
                                             "and positive"):
            bl.kernel_from_json(obj)

    def test_scaled_form_is_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel form"):
            bl.kernel_from_json({"form": "scaled", "scale": 2.0,
                                 "inner": {"form": "fock", "mu": 1.0, "n": 1}})

    @pytest.mark.parametrize("model", typing.get_args(kernels.KernelModel),
                             ids=lambda model: model.__name__)
    def test_every_model_round_trips(self, model):
        # a kernel model without a JSON form, or without a ROUND_TRIP entry
        # that makes one, fails here
        made = [K for K in (make() for make in ROUND_TRIP) if type(K) is model]
        assert made, f"no ROUND_TRIP entry makes a {model.__name__}"
        for K in made:
            obj = json.loads(json.dumps(bl.kernel_to_json(K)))
            assert bl.kernel_to_json(bl.kernel_from_json(obj)) == obj

    def test_refusal_lists_the_written_forms(self):
        with pytest.raises(ValueError) as info:
            bl.kernel_from_json({"form": "series", "degree": 2})
        found = re.fullmatch(r"unknown kernel form 'series'; supported "
                             r"forms: (.*)", str(info.value))
        written = {bl.kernel_to_json(make())["form"] for make in ROUND_TRIP}
        assert found.group(1).split(", ") == sorted(written)

    @pytest.mark.parametrize("make", ROUND_TRIP)
    def test_round_trip_evaluations(self, make):
        K = make()
        K2 = bl.kernel_from_json(json.loads(json.dumps(bl.kernel_to_json(K))))
        rng = np.random.default_rng(10)
        n = K.domain.dim
        for _ in range(10):
            z = (rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.4, 0.4, n))
            w = (rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.4, 0.4, n))
            a, b = kernel_at(K, z, w), kernel_at(K2, z, w)
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))

    def test_radial_form(self):
        K = bl.kernel_from_gram(
            bl.gram_exact(bl.generic_norm_weight(
                bl.unit_ball(2), 1.0), 5))
        obj = bl.kernel_to_json(K)
        assert obj == {"form": "radial", "domain": {"kind": "ball", "dim": 2},
                       "degree": 5, "c": K.c.tolist(), "weight": "N(z,z)^1"}
        K2 = bl.kernel_from_json(json.loads(json.dumps(obj)))
        assert isinstance(K2, bl.RadialSeriesKernel)
        assert np.array_equal(K2.c, K.c) and K2.base == K.base
        assert K2.weight_label == K.weight_label

    @pytest.mark.parametrize("change,message", [
        ({"c": [1.0, math.inf]}, "finite and positive"),
        ({"c": [1.0, math.nan]}, "finite and positive"),
        ({"c": [1.0, 0.0]}, "finite and positive"),
        ({"c": [1.0, -2.0]}, "finite and positive"),
        ({"c": [1.0, 2.0, 3.0]}, "degree-1 radial series needs 2 "
                                 "coefficients"),
        ({"c": [[1.0, 2.0]]}, "needs 2 coefficients"),
        ({"degree": -1, "c": []}, "degree must be >= 0"),
        ({"domain": {"kind": "typeI", "shape": [2, 2]}},
         "disk, ball or C\\^n base"),
        # coefficients and the label are read as JSON gave them, not parsed
        ({"c": ["1", "2"]}, "has c\\[0\\] '1'; it must be a number"),
        ({"c": [True, 2.0]}, "has c\\[0\\] True; it must be a number"),
        ({"c": [1.0, None]}, "has c\\[1\\] None; it must be a number"),
        ({"weight": 3}, "has weight 3; it must be a string"),
    ])
    def test_radial_form_is_checked(self, change, message):
        obj = {"form": "radial", "domain": {"kind": "disk", "dim": 1},
               "degree": 1, "c": [1.0, 2.0], "weight": ""}
        obj.update(change)
        with pytest.raises(ValueError, match=message):
            bl.kernel_from_json(obj)
