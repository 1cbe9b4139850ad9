import math

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab.hartogs import (
    ClosedFormFamily,
    HartogsDomain,
    ball_kernel,
    fiber_coefficients,
    frc_eval_pairs,
    frc_restriction_check,
    hartogs_contains,
)

from conftest import fiber_term_model, interior_disk_points, kernel_at

DISK = bl.unit_disk()
C1 = bl.full_space(1)


def fbh(n=1, m=1, mu=1.0):
    return HartogsDomain(bl.full_space(n), bl.gaussian_weight(n, mu), m)


def disk_hartogs(mu=1.0, m=1):
    return HartogsDomain(DISK, bl.generic_norm_weight(DISK, mu), m)


class TestContains:
    def test_fbh_center(self):
        assert hartogs_contains(fbh(), [[0]], [[0]])[0] == -1.0

    def test_fbh_fiber_boundary(self):
        got = hartogs_contains(fbh(), [[1.0]], [[math.exp(-0.5)]])[0]
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_thullen_boundary_and_interior(self):
        H1 = disk_hartogs(mu=1.0)
        assert hartogs_contains(H1, [[0.6]], [[0.8]])[0] == pytest.approx(0.0, abs=1e-15)
        H2 = disk_hartogs(mu=2.0)
        got = hartogs_contains(H2, [[0.6]], [[0.8]])[0]
        assert got == pytest.approx(0.64 - 0.4096, rel=1e-13)

    def test_empty_fiber_outside_base(self):
        with pytest.raises(ValueError):
            hartogs_contains(disk_hartogs(), [[1.5]], [[0.0]])

    @pytest.mark.parametrize("H", [disk_hartogs(mu=1.5, m=2), fbh(n=2, m=1)],
                             ids=["disk", "fbh"])
    def test_rows_keep_the_bits_of_weight_eval(self, H):
        rng = np.random.default_rng(3)
        n, m = H.base.dim, H.fiber_dim
        Z = rng.uniform(-0.4, 0.4, (50, n)) + 1j * rng.uniform(-0.4, 0.4, (50, n))
        ZETA = rng.uniform(-0.2, 0.2, (50, m)) + 0j
        want = np.sum(np.abs(ZETA) ** 2, axis=1) - bl.weight_eval(H.weight, Z)
        assert hartogs_contains(H, Z, ZETA).tobytes() == want.tobytes()
        assert hartogs_contains(H, Z[7:8], ZETA[7:8])[0] == want[7]

    def test_strictly_increasing_in_fiber_norm(self):
        H = fbh(m=2)
        rs = np.linspace(0.0, 1.2, 25)
        vals = [hartogs_contains(H, [[0.4]],
                                 [[r / math.sqrt(2), 1j * r / math.sqrt(2)]])[0]
                for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPochhammer:
    # (k+1)_m, the rising factorial in the k-th fiber-series factor
    @pytest.mark.parametrize("k,m,expected", [(0, 1, 1), (0, 2, 2), (2, 3, 60),
                                              (5, 1, 6), (3, 4, 840)])
    def test_values(self, k, m, expected):
        assert fiber_coefficients(m, k + 1)[k] == math.pi ** (-m) * expected

    def test_rejects_bad_arguments(self):
        # the series needs m >= 1; its term indices start at k = 0
        with pytest.raises(ValueError, match="fiber dimension"):
            HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 0)


class TestForelliRudinSeries:
    def test_origin_value_is_ball_kernel(self):
        H = disk_hartogs()
        fam = ClosedFormFamily(H)
        res = frc_eval_pairs(H, ([[0]], [[0]]), ([[0]], [[0]]), fam).pair(0)
        assert res.value.real == pytest.approx(2 / math.pi ** 2, rel=1e-14)
        assert res.converged

    def test_zero_fiber_collapses_to_first_term(self):
        H = fbh(m=2, mu=1.0)
        fam = ClosedFormFamily(H)
        z = np.array([0.4 + 0.1j])
        res = frc_eval_pairs(H, ([z], [[0, 0]]), ([z], [[0, 0]]), fam).pair(0)
        model = fiber_term_model(H, 0)
        ref = (math.factorial(2) / math.pi ** 2) * kernel_at(model, z, z)
        assert res.value == pytest.approx(ref, rel=1e-14)
        assert res.terms_used == 1

    def test_matches_ball_kernel_at_random_pairs(self):
        H = disk_hartogs()
        fam = ClosedFormFamily(H)
        oracle = ball_kernel(2)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            z, z2 = interior_disk_points(rng, 2, 0.9)
            r1, r2 = 0.7 * rng.random(2)
            th = 2 * np.pi * rng.random(2)
            zeta = [r1 * math.sqrt(1 - abs(z) ** 2) * np.exp(1j * th[0])]
            zeta2 = [r2 * math.sqrt(1 - abs(z2) ** 2) * np.exp(1j * th[1])]
            res = frc_eval_pairs(H, ([[z]], [zeta]), ([[z2]], [zeta2]), fam,
                                 tol=1e-14).pair(0)
            ref = oracle(np.array([[z, zeta[0]]]), np.array([[z2, zeta2[0]]]))[0]
            worst = max(worst, abs(res.value - ref) / abs(ref))
        assert worst <= 1e-8

    def test_observed_ratio_tracks_fiber_correlation(self):
        H = disk_hartogs()
        fam = ClosedFormFamily(H)
        rng = np.random.default_rng(3)
        for rho in (0.3, 0.45, 0.6):
            z, z2 = interior_disk_points(rng, 2, 0.7)
            r = math.sqrt(rho) * 0.995
            zeta = [r * math.sqrt(1 - abs(z) ** 2)]
            zeta2 = [r * math.sqrt(1 - abs(z2) ** 2)]
            # |<zeta, zeta'>| = 0.99 rho sqrt(p(z) p(z'))
            res = frc_eval_pairs(H, ([[z]], [zeta]), ([[z2]], [zeta2]), fam,
                                 tol=1e-12).pair(0)
            assert res.converged
            assert res.last_ratio is not None
            assert res.last_ratio <= rho + 0.1

    def test_nonconvergence_flagged(self):
        H = disk_hartogs()
        fam = ClosedFormFamily(H)
        z = [0.0]
        zeta = [0.97]
        res = frc_eval_pairs(H, ([z], [zeta]), ([z], [zeta]), fam,
                             max_terms=30).pair(0)
        assert not res.converged
        assert res.tail_estimate > 0

    def test_requires_interior_points(self):
        H = disk_hartogs()
        fam = ClosedFormFamily(H)
        with pytest.raises(ValueError):
            frc_eval_pairs(H, ([[0.6]], [[0.8]]), ([[0]], [[0]]), fam)


class TestRestrictionIdentity:
    def test_algebraic_collapse_at_origin(self):
        H = disk_hartogs()
        fam = ClosedFormFamily(H)
        res = frc_restriction_check(
            H, [[0]], [[0]],
            lambda a, b: frc_eval_pairs(H, a, b, fam).value)[0]
        assert res <= 1e-14

    def test_fbh_closed_family_vs_gram_reference(self):
        H = fbh(m=1)
        fam = ClosedFormFamily(H)
        res = frc_restriction_check(
            H, [[0.3]], [[0.3]],
            lambda a, b: frc_eval_pairs(H, a, b, fam).value,
            degree=30)[0]
        assert res <= 1e-10

    def test_disk_m2_series_reference(self):
        H = disk_hartogs(m=2)
        fam = ClosedFormFamily(H)
        res = frc_restriction_check(
            H, [[0.2]], [[0.1]],
            lambda a, b: frc_eval_pairs(H, a, b, fam).value,
            degree=40)[0]
        assert res <= 1e-8

    def test_absolute_residual_when_reference_vanishes(self):
        H = disk_hartogs()

        def zero_kernel(a, b):
            return 0.0 + 0.0j

        class NullModel:
            base = DISK
            def eval_grid(self, zs, ws):
                return np.zeros((len(zs), len(ws)), dtype=complex)

        res = frc_restriction_check(H, [[0.1]], [[0.2]], zero_kernel,
                                    reference=NullModel())[0]
        assert res == 0.0
