import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bergmanlab as bl
from bergmanlab.hartogs import HartogsDomain, hartogs_contains
from bergmanlab import automorphisms as am

from conftest import interior_ball_points, interior_disk_points

DISK = bl.unit_disk()
C1 = bl.full_space(1)


def fbh(n=1, m=1, mu=1.0):
    return HartogsDomain(bl.full_space(n), bl.gaussian_weight(n, mu), m)


def cartan_hartogs(domain, mu=1.0, m=1):
    return HartogsDomain(domain, bl.generic_norm_weight(domain, mu), m)


def random_phase_unitary(rng, dim):
    # diagonal phases composed with a random rotation stay exactly unitary
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q


class TestConstructors:
    def test_zero_translation_is_identity(self):
        H = fbh()
        tr = am.make_fbh_map(H, "translation", v=[[0.0]])
        z, zeta = am.apply(tr, ([[0.3 + 0.1j]], [[0.2]]))
        assert z[0, 0] == 0.3 + 0.1j and zeta[0, 0] == 0.2

    def test_identity_unitary(self):
        H = fbh(n=2)
        u = am.make_fbh_map(H, "base_unitary", matrix=np.eye(2))
        z, zeta = am.apply(u, ([[0.1, 0.2j]], [[0.5]]))
        assert np.allclose(z, [[0.1, 0.2j]], atol=0)

    def test_translation_fiber_factor(self):
        H = fbh()
        tr = am.make_fbh_map(H, "translation", v=[[0.4 + 0.3j]])
        z, zeta = am.apply(tr, ([[0.0]], [[1.0]]))
        assert z[0, 0] == pytest.approx(-(0.4 + 0.3j))
        assert zeta[0, 0] == pytest.approx(math.exp(-0.125), rel=1e-15)

    def test_non_unitary_rejected(self):
        H = fbh(n=2)
        with pytest.raises(ValueError, match="unitary"):
            am.make_fbh_map(H, "base_unitary", matrix=np.diag([1.0, 1.1]))

    def test_non_gaussian_target_rejected(self):
        H = cartan_hartogs(DISK)
        with pytest.raises(ValueError, match="Gaussian"):
            am.make_fbh_map(H, "translation", v=[[0.1]])

    def test_mobius_identity_at_zero_center(self):
        H = cartan_hartogs(DISK)
        mob = am.make_ch_map(H, [[0.0]])
        z, zeta = am.apply(mob, ([[0.3]], [[0.4]]))
        assert z[0, 0] == 0.3 and zeta[0, 0] == pytest.approx(0.4)

    def test_mobius_sends_center_to_origin(self):
        H = cartan_hartogs(DISK)
        mob = am.make_ch_map(H, [[0.5]])
        z, zeta = am.apply(mob, ([[0.5]], [[0.0]]))
        assert abs(z[0, 0]) == 0.0 and zeta[0, 0] == 0.0

    def test_mobius_fiber_factor_at_origin(self):
        # N(0, a) = 1, so the factor is N(a,a)^(mu/2) = 0.75 for mu = 2
        H = cartan_hartogs(DISK, mu=2.0)
        mob = am.make_ch_map(H, [[0.5]])
        z, zeta = am.apply(mob, ([[0.0]], [[1.0]]))
        assert z[0, 0] == pytest.approx(-0.5)
        assert zeta[0, 0] == pytest.approx(0.75, rel=1e-14)

    def test_mobius_center_must_be_interior(self):
        H = cartan_hartogs(DISK)
        with pytest.raises(ValueError, match="interior"):
            am.make_ch_map(H, [[1.0]])

    def test_thullen_requires_disk_fiber_one(self):
        with pytest.raises(ValueError):
            am.thullen_mobius(cartan_hartogs(DISK, m=2), 0.3)


class TestGroupLaws:
    @pytest.mark.parametrize("make", [
        lambda rng: (fbh(), lambda H: am.make_fbh_map(
            H, "translation", v=[[complex(rng.uniform(-0.7, 0.7),
                                          rng.uniform(-0.7, 0.7))]])),
        lambda rng: (fbh(n=2, m=2), lambda H: am.make_fbh_map(
            H, "base_unitary", matrix=random_phase_unitary(rng, 2))),
        lambda rng: (fbh(n=1, m=2), lambda H: am.make_fbh_map(
            H, "fiber_unitary", matrix=random_phase_unitary(rng, 2))),
        lambda rng: (cartan_hartogs(DISK), lambda H: am.thullen_mobius(
            H, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))),
        lambda rng: (cartan_hartogs(bl.unit_ball(2), mu=1.5),
                     lambda H: am.make_ch_map(
                         H, interior_ball_points(rng, 2, 1, 0.6),
                         random_phase_unitary(rng, 1))),
    ])
    def test_inverse_round_trip(self, make):
        rng = np.random.default_rng(13)
        H, build = make(rng)
        aut = build(H)
        inv = am.inverse(aut)
        n, m = H.base.dim, H.fiber_dim
        for _ in range(10):
            z = (rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n))
            pz = bl.weight_eval(H.weight, [z])[0]
            zeta = (rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.5, 0.5, m))
            zeta *= 0.8 * math.sqrt(pz) / max(1.0, float(np.linalg.norm(zeta)))
            x = ([z], [zeta])
            y = am.apply(inv, am.apply(aut, x))
            assert np.max(np.abs(y[0] - z)) <= 1e-12
            assert np.max(np.abs(y[1] - zeta)) <= 1e-12

    def test_composite_applies_left_to_right(self):
        H = fbh()
        t1 = am.make_fbh_map(H, "translation", v=[[0.2]])
        t2 = am.make_fbh_map(H, "translation", v=[[0.3j]])
        comp = am.Composite(H, (t1, t2))
        z, zeta = am.apply(comp, ([[0.0]], [[1.0]]))
        z_ref, zeta_ref = am.apply(t2, am.apply(t1, ([[0.0]], [[1.0]])))
        assert z[0, 0] == z_ref[0, 0] and zeta[0, 0] == zeta_ref[0, 0]

    def test_composite_inverse(self):
        H = fbh()
        comp = am.Composite(H, (
            am.make_fbh_map(H, "translation", v=[[0.2 + 0.1j]]),
            am.make_fbh_map(H, "base_unitary", matrix=[[np.exp(0.4j)]]),
        ))
        inv = am.inverse(comp)
        x = ([[0.3 - 0.2j]], [[0.25]])
        y = am.apply(inv, am.apply(comp, x))
        assert abs(y[0][0, 0] - x[0][0][0]) <= 1e-14
        assert abs(y[1][0, 0] - x[1][0][0]) <= 1e-14


class TestDomainPreservation:
    @pytest.mark.parametrize("setup", ["fbh", "thullen", "ball"])
    def test_interior_stays_interior(self, setup):
        rng = np.random.default_rng(21)
        if setup == "fbh":
            H = fbh(mu=1.0)
            aut = am.make_fbh_map(H, "translation", v=[[0.5 - 0.4j]])
        elif setup == "thullen":
            H = cartan_hartogs(DISK, mu=2.0)
            aut = am.thullen_mobius(H, 0.4 + 0.2j)
        else:
            H = cartan_hartogs(bl.unit_ball(2), mu=1.0)
            aut = am.make_ch_map(H, [[0.3, 0.2j]])
        n, m = H.base.dim, H.fiber_dim
        for _ in range(500):
            if H.base.bounded:
                z = interior_ball_points(rng, n, 1, 0.95)[0]
            else:
                z = rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(-1.2, 1.2, n)
            pz = bl.weight_eval(H.weight, [z])[0]
            zeta = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
            zeta *= math.sqrt(pz) * rng.random() ** 0.5 / float(np.linalg.norm(zeta))
            if hartogs_contains(H, [z], [zeta])[0] >= 0:
                continue
            zi, zetai = am.apply(aut, ([z], [zeta]))
            assert hartogs_contains(H, zi, zetai)[0] <= 0

    def test_boundary_maps_to_boundary(self):
        H = cartan_hartogs(DISK, mu=1.0)
        aut = am.thullen_mobius(H, 0.5)
        rng = np.random.default_rng(30)
        for _ in range(50):
            z = interior_disk_points(rng, 1, 0.9)[0]
            pz = 1.0 - abs(z) ** 2
            zeta = [[math.sqrt(pz) * np.exp(2j * np.pi * rng.random())]]
            assert abs(hartogs_contains(H, [[z]], zeta)[0]) <= 1e-10
            zi, zetai = am.apply(aut, ([[z]], zeta))
            assert abs(hartogs_contains(H, zi, zetai)[0]) <= 1e-8


class TestJacobians:
    def test_identity_is_one(self):
        H = fbh()
        u = am.make_fbh_map(H, "base_unitary", matrix=[[1.0]])
        assert am.jacobian_base_slice(u, [[0.3]])[0] == 1.0
        J, _ = am.jacobian_fd_matrix(u, ([[0.3]], [[0.0]]))
        assert abs(np.linalg.det(J[0]) - 1.0) <= 1e-10

    def test_translation_diagonal_matches_doubled_rate_kernel(self):
        # |J(phi_z, (z,0))|^2 = |k_z(z)^m|^2 = exp(m mu |z|^2) = K_{m mu}(z,z)
        mu, m = 1.3, 2
        H = fbh(n=1, m=m, mu=mu)
        rng = np.random.default_rng(14)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            tr = am.make_fbh_map(H, "translation", v=[[z]])
            jac = am.jacobian_base_slice(tr, [[z]])[0]
            ref = bl.FockKernel(m * mu, 1).eval_grid([[z]], [[z]])[0, 0].real
            assert abs(jac) ** 2 == pytest.approx(ref, rel=1e-13)

    def test_disk_mobius_jacobian_at_center(self):
        H = cartan_hartogs(DISK)
        mob = am.thullen_mobius(H, 0.5)
        dj = mob.base_jacobian(np.array([[0.5]]))[0]
        assert abs(dj) ** 2 == pytest.approx(16 / 9, rel=1e-14)

    @pytest.mark.parametrize("setup", ["translation", "base_unitary",
                                       "fiber_unitary", "thullen", "ball",
                                       "composite"])
    def test_finite_difference_oracle(self, setup):
        rng = np.random.default_rng(40)
        if setup == "translation":
            H = fbh(m=2)
            aut = am.make_fbh_map(H, "translation", v=[[0.3 - 0.2j]])
        elif setup == "base_unitary":
            H = fbh(n=2)
            aut = am.make_fbh_map(H, "base_unitary",
                                  matrix=random_phase_unitary(rng, 2))
        elif setup == "fiber_unitary":
            H = fbh(m=2)
            aut = am.make_fbh_map(H, "fiber_unitary",
                                  matrix=random_phase_unitary(rng, 2))
        elif setup == "thullen":
            H = cartan_hartogs(DISK, mu=1.5)
            aut = am.thullen_mobius(H, 0.35 + 0.15j)
        elif setup == "ball":
            H = cartan_hartogs(bl.unit_ball(2), mu=1.0, m=2)
            aut = am.make_ch_map(H, [[0.25, -0.2j]],
                                 random_phase_unitary(rng, 2))
        else:
            H = fbh()
            aut = am.Composite(H, (
                am.make_fbh_map(H, "translation", v=[[0.2 + 0.1j]]),
                am.make_fbh_map(H, "translation", v=[[-0.3j]]),
            ))
        n, m = H.base.dim, H.fiber_dim
        for _ in range(20):
            if H.base.bounded:
                z = interior_ball_points(rng, n, 1, 0.5)[0]
            else:
                z = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n)
            closed = am.jacobian_base_slice(aut, [z])[0]
            fd = np.linalg.det(
                am.jacobian_fd_matrix(aut, ([z], np.zeros((1, m))))[0][0])
            assert abs(closed - fd) <= 1e-6

    def test_block_structure_on_zero_section(self):
        H = fbh(n=1, m=2)
        tr = am.make_fbh_map(H, "translation", v=[[0.4 + 0.3j]])
        z = np.array([[0.3 + 0.1j]])
        (J,), (cr,) = am.jacobian_fd_matrix(tr, (z, [[0.0, 0.0]]))
        n, m = 1, 2
        assert np.max(np.abs(J[:n, n:])) <= 1e-8      # base does not see zeta
        kv = tr.fiber_factor(z)[0]
        assert np.max(np.abs(J[n:, n:] - kv * np.eye(m))) <= 1e-8
        assert cr <= 1e-8

    def test_nonholomorphic_maps_detected(self, monkeypatch):
        H = fbh()
        tr = am.make_fbh_map(H, "translation", v=[[0.1]])
        original = am.apply

        def conjugating(aut, point):
            z, zeta = original(aut, point)
            return np.conj(z), zeta

        monkeypatch.setattr(am, "apply", conjugating)
        with pytest.raises(ValueError, match="holomorphic"):
            am.jacobian_fd_matrix(tr, ([[0.2]], [[0.0]]))

    def test_step_margin_guard(self):
        H = cartan_hartogs(DISK)
        mob = am.thullen_mobius(H, 0.2)
        with pytest.raises(ValueError, match="margin"):
            am.jacobian_fd_matrix(mob, ([[0.999999]], [[0.0]]), h=1e-5)


class TestMobiusGenusRelation:
    @pytest.mark.parametrize("domain", [DISK, bl.unit_ball(2)])
    def test_det_squared_times_norm_power_is_one(self, domain):
        rng = np.random.default_rng(50)
        H = cartan_hartogs(domain)
        g = domain.genus
        for _ in range(50):
            a = interior_ball_points(rng, domain.dim, 1, 0.85)
            mob = am.make_ch_map(H, a)
            dj = mob.base_jacobian(np.asarray(a, dtype=complex))[0]
            nval = bl.generic_norm(domain, a, a)[0].real
            assert abs(dj) ** 2 * nval ** g == pytest.approx(1.0, abs=1e-12)


class TestTransformationLaw:
    def test_identity_map_residual_zero(self):
        H = fbh()
        u = am.make_fbh_map(H, "base_unitary", matrix=[[1.0]])
        K = bl.weighted_kernel_closed_form(H.weight)
        res = am.transform_residual(u, K, [[0.1], [0.4 - 0.2j], [0.7j]])
        assert res == 0.0

    def test_fbh_translation(self):
        H = fbh(mu=1.0)
        tr = am.make_fbh_map(H, "translation", v=[[0.4 + 0.3j]])
        K = bl.weighted_kernel_closed_form(H.weight)
        pts = [[0.1 + 0.2j], [0.5 - 0.3j], [-0.7j], [1.0], [0.25 + 0.55j]]
        assert am.transform_residual(tr, K, pts) <= 1e-9

    def test_thullen_mobius(self):
        H = cartan_hartogs(DISK, mu=1.0)
        mob = am.thullen_mobius(H, 0.3)
        K = bl.weighted_kernel_closed_form(H.weight)
        pts = [[0.1 + 0.2j], [0.5 - 0.3j], [-0.55j], [0.62], [0.25 + 0.55j]]
        assert am.transform_residual(mob, K, pts) <= 1e-9

    def test_series_kernel_side(self):
        # the law holds for the rank-d kernel when both sides converge
        H = cartan_hartogs(DISK, mu=1.0)
        mob = am.thullen_mobius(H, 0.2)
        K = bl.kernel_from_gram(
            bl.gram_exact(H.weight, 40))
        pts = [[0.1], [0.2 - 0.1j], [0.15j]]
        assert am.transform_residual(mob, K, pts) <= 1e-9


class TestMapSerialization:
    @pytest.mark.parametrize("build", [
        lambda H: am.make_fbh_map(H, "translation", v=[[0.4 + 0.3j]]),
        lambda H: am.make_fbh_map(H, "base_unitary", matrix=[[np.exp(0.3j)]]),
        lambda H: am.make_fbh_map(H, "fiber_unitary", matrix=[[np.exp(-0.8j)]]),
    ])
    def test_fbh_round_trip(self, build):
        H = fbh()
        aut = build(H)
        obj = json.loads(json.dumps(am.map_to_json(aut)))
        aut2 = am.map_from_json(obj, H)
        x = ([[0.2 - 0.3j]], [[0.4]])
        a, b = am.apply(aut, x), am.apply(aut2, x)
        assert abs(a[0][0, 0] - b[0][0, 0]) <= 1e-15
        assert abs(a[1][0, 0] - b[1][0, 0]) <= 1e-15

    def test_mobius_round_trip(self):
        H = cartan_hartogs(bl.unit_ball(2), mu=1.5, m=2)
        rng = np.random.default_rng(33)
        aut = am.make_ch_map(H, [[0.2, 0.1j]], random_phase_unitary(rng, 2))
        aut2 = am.map_from_json(am.map_to_json(aut), H)
        x = ([[0.1, -0.2j]], [[0.3, 0.05]])
        a, b = am.apply(aut, x), am.apply(aut2, x)
        assert np.max(np.abs(a[0] - b[0])) <= 1e-15
        assert np.max(np.abs(a[1] - b[1])) <= 1e-15

    def test_composite_round_trip(self):
        H = fbh()
        comp = am.Composite(H, (
            am.make_fbh_map(H, "translation", v=[[0.2]]),
            am.make_fbh_map(H, "fiber_unitary", matrix=[[1j]]),
        ))
        comp2 = am.map_from_json(am.map_to_json(comp), H)
        x = ([[0.1j]], [[0.2]])
        a, b = am.apply(comp, x), am.apply(comp2, x)
        assert abs(a[1][0, 0] - b[1][0, 0]) <= 1e-15


# ---------------------------------------------------------------------------
# stacks: a translation or Moebius map with k point rows is k maps

# the base of each stacked kind, its fiber dimension, and whether its rows
# are Moebius centers (drawn inside the ball) or translation vectors
STACK_KINDS = {"cn:1": (1, 1, False), "cn:2": (2, 2, False),
               "disk": (1, 1, True), "ball:2": (2, 2, True)}


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def _stack_and_singles(kind, rows, mu, phase):
    """The stack of the rows on the kind's domain and its single maps."""
    n, m, mobius = STACK_KINDS[kind]
    rows = np.asarray(rows, dtype=complex)
    if not mobius:
        H = fbh(n=n, m=m, mu=mu)
        return (am.make_fbh_map(H, "translation", v=rows),
                [am.make_fbh_map(H, "translation", v=[r]) for r in rows])
    base = DISK if n == 1 else bl.unit_ball(n)
    H = cartan_hartogs(base, mu=mu, m=m)
    # ball:2 carries a fiber unitary shared by the rows
    U = None if m == 1 else np.diag(np.exp([1j * phase, -2j * phase]))
    return (am.make_ch_map(H, rows, U),
            [am.make_ch_map(H, [r], U) for r in rows])


@st.composite
def stacks(draw):
    kind = draw(st.sampled_from(sorted(STACK_KINDS)))
    n, m, mobius = STACK_KINDS[kind]
    k = draw(st.integers(1, 5))
    # |a|^2 <= 2n * 0.35^2 < 1 keeps every center inside the ball
    coord = st.floats(-0.35, 0.35)
    pair = st.tuples(coord, coord).map(lambda p: complex(*p))
    row = st.lists(pair, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=k, max_size=k))
    if draw(st.booleans()):
        rows[draw(st.integers(0, k - 1))] = [0j] * n
    points = draw(st.lists(row, min_size=k, max_size=k))
    fibers = draw(st.lists(st.lists(pair, min_size=m, max_size=m),
                           min_size=k, max_size=k))
    return (kind, rows, points, fibers, draw(st.floats(0.5, 2.0)),
            draw(st.floats(-3.0, 3.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(stacks())
# a 1-row stack, and a row a = 0 beside others, on both Moebius kinds
@example(("disk", [[0.2 - 0.1j]], [[0.1j]], [[0.3]], 1.5, 0.0))
@example(("ball:2", [[0.3, -0.2j], [0j, 0j], [0.1j, 0.25]],
          [[0.1, 0.2j], [-0.3, 0.1], [0.05j, -0.2]],
          [[0.1, 0.2j], [0.3, 0.0], [0.0, -0.1j]], 1.0, 0.7))
@example(("cn:2", [[0j, 0j]], [[0.3, 0.1j]], [[0.2, 0.1]], 0.8, 0.0))
def test_a_stack_equals_its_single_maps_bit_for_bit(case):
    # row i of the k-row stack against one-row map i on the same point
    # rows, so that both see one ZETA @ U.T product (a matrix product's
    # rounding depends on its row count)
    kind, rows, points, fibers, mu, phase = case
    stack, singles = _stack_and_singles(kind, rows, mu, phase)
    k = len(singles)
    assert am.stack_rows(stack) == k and am.stack_rows(singles[0]) == 1
    x = np.asarray(points, complex), np.asarray(fibers, complex)

    def same_rows(f, maps=singles, of=stack, point=x):
        got = f(of, point)
        assert _bits(got) == _bits([f(s, point)[i]
                                    for i, s in enumerate(maps)])

    same_rows(lambda aut, p: am.apply(aut, p)[0])
    same_rows(lambda aut, p: am.apply(aut, p)[1])
    same_rows(lambda aut, p: am.base_apply(aut, p[0]))
    same_rows(lambda aut, p: am.jacobian_base_slice(aut, p[0]))
    assert _bits(am.zero_preimage(stack)) == _bits(
        np.concatenate([am.zero_preimage(s) for s in singles]))
    # one point row is mapped by every map row
    one = x[0][:1], x[1][:1]
    img = am.apply(stack, one)
    assert _bits(img[0]) == _bits(
        np.concatenate([am.apply(s, one)[0] for s in singles]))
    assert _bits(img[1]) == _bits(
        np.concatenate([am.apply(s, one)[1] for s in singles]))

    inverses = [am.inverse(s) for s in singles]
    inv = am.inverse(stack)
    assert _bits(am.zero_preimage(inv)) == _bits(
        np.concatenate([am.zero_preimage(s) for s in inverses]))
    same_rows(lambda aut, p: am.apply(aut, p)[0], inverses, inv)
    same_rows(lambda aut, p: am.apply(aut, p)[1], inverses, inv)


class TestStacks:
    def test_rows_must_pair_with_points(self):
        stack, _ = _stack_and_singles("disk", [[0.1], [0.2j]], 1.0, 0.0)
        with pytest.raises(ValueError, match="stack of 2 maps takes 2"):
            am.apply(stack, ([[0.1], [0.2], [0.3]], [[0.0]] * 3))

    def test_constructors_name_the_bad_row(self):
        H = cartan_hartogs(DISK)
        with pytest.raises(ValueError, match="center row 2 must be an "
                                             "interior base point"):
            am.make_ch_map(H, [[0.1], [0.5j], [1.2]])
        with pytest.raises(ValueError, match="translation row 1 has "
                                             "non-finite entries"):
            am.make_fbh_map(fbh(n=2), "translation",
                            v=[[0.1, 0.2], [np.nan, 0.0]])
        with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
            am.make_fbh_map(fbh(n=2), "translation", v=[[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize("kind", ["disk", "ball:2"])
    def test_a_zero_row_is_the_exact_identity(self, kind):
        n = STACK_KINDS[kind][0]
        rows = [[0.3] + [0.1j] * (n - 1), [0j] * n]
        stack, _ = _stack_and_singles(kind, rows, 1.5, 0.0)
        Z = np.array([[0.2 - 0.1j] * n, [0.4 + 0.3j] + [-0.2] * (n - 1)])
        assert np.array_equal(am.base_apply(stack, Z)[1], Z[1])
        assert am.jacobian_base_slice(stack, Z)[1] == 1.0
        assert am.base_apply(stack, Z)[0][0] != Z[0][0]

    def test_thullen_takes_k_centers(self):
        H = cartan_hartogs(DISK)
        stack = am.thullen_mobius(H, [0.3, -0.2j])
        assert am.stack_rows(stack) == 2
        assert am.stack_rows(am.thullen_mobius(H, 0.3)) == 1

    def test_composite_and_json_refuse_a_stack(self):
        H = fbh()
        stack = am.make_fbh_map(H, "translation", v=[[0.1], [0.2]])
        with pytest.raises(ValueError, match="part 1 is a stack of 2 "
                                             "FockTranslation rows"):
            am.Composite(H, (am.make_fbh_map(H, "translation", v=[[0.3]]),
                             stack))
        with pytest.raises(ValueError, match="stack of 2 FockTranslation"):
            am.map_to_json(stack)

    def test_repeat_rows_keeps_row_order(self):
        stack, _ = _stack_and_singles("cn:1", [[0.1], [0.2j]], 1.0, 0.0)
        rep = am.repeat_rows(stack, 3)
        assert np.array_equal(am.zero_preimage(rep),
                              [[0.1], [0.1], [0.1], [0.2j], [0.2j], [0.2j]])
        single = am.make_fbh_map(fbh(), "translation", v=[[0.1]])
        assert am.repeat_rows(single, 3) is single
