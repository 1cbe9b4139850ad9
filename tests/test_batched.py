"""The batched evaluation protocol: ``eval_grid`` on every kernel model and
the characterize verdicts built on it, against scalar-loop oracles."""

import math

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import automorphisms as am
from bergmanlab import characterize as ch
from bergmanlab.hartogs import HartogsDomain

from conftest import interior_ball_points, interior_disk_points

DISK = bl.unit_disk()
C1 = bl.full_space(1)


def _full_space_points(rng, n, count, radius=1.0):
    return [(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            * radius / math.sqrt(2 * n) for _ in range(count)]


def _type_i_points(rng, count):
    # operator norm <= Frobenius norm < 1 keeps every point interior
    pts = []
    while len(pts) < count:
        z = (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)) * 0.4
        if np.linalg.norm(z) < 0.9:
            pts.append(z)
    return pts


def _models():
    rng = np.random.default_rng(11)
    ball2 = bl.unit_ball(2)
    series_disk = bl.kernel_from_gram(
        bl.gram_exact(DISK, bl.generic_norm_weight(DISK, 1.0), 16))
    series_ball = bl.kernel_from_gram(
        bl.gram_exact(ball2, bl.generic_norm_weight(ball2, 2.0), 10))
    disk_pts = [np.array([z]) for z in interior_disk_points(rng, 5)]
    return [
        ("fock-n1", bl.fock_kernel(1.3, 1), _full_space_points(rng, 1, 5, 2.0)),
        ("fock-n2", bl.fock_kernel(0.7, 2), _full_space_points(rng, 2, 5, 2.0)),
        ("power-disk", bl.power_kernel(DISK, 1.5, 0.3), disk_pts),
        ("power-ball2", bl.power_kernel(ball2, 2.0),
         interior_ball_points(rng, 2, 5)),
        ("power-typei", bl.power_kernel(bl.matrix_ball(2, 2), 1.0),
         _type_i_points(rng, 4)),
        ("scaled", bl.weighted_kernel_closed_form(bl.gaussian_weight(2, 1.5)),
         _full_space_points(rng, 2, 5)),
        ("series-disk", series_disk, disk_pts),
        ("series-ball2", series_ball, interior_ball_points(rng, 2, 5, 0.6)),
    ]


MODELS = _models()
IDS = [name for name, _, _ in MODELS]


@pytest.mark.parametrize("name,model,pts", MODELS, ids=IDS)
def test_grid_equals_pairwise_eval(name, model, pts):
    zs, ws = pts, pts[1:] + pts[:2]
    grid = model.eval_grid(zs, ws)
    assert grid.shape == (len(zs), len(ws))
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            ref = model.eval(z, w)
            assert abs(grid[i, j] - ref) <= 1e-13 * abs(ref), (i, j)


def test_scalar_series_eval_matches_basis_expansion():
    _, model, pts = MODELS[IDS.index("series-ball2")]
    for z in pts:
        for w in pts:
            ez = model.basis_values(np.asarray(z)[None, :])[0]
            ew = model.basis_values(np.asarray(w)[None, :])[0]
            ref = complex(np.dot(ez, ew.conj()))
            assert abs(model.eval(z, w) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("name", ["series-disk", "series-ball2"])
def test_series_diagonal_equals_eval(name):
    _, model, pts = MODELS[IDS.index(name)]
    diag = model.diagonal(pts)
    assert diag.shape == (len(pts),) and diag.dtype == float
    for d, z in zip(diag, pts):
        ref = model.eval(z, z)
        assert abs(d - ref) <= 1e-13 * abs(ref)
    with pytest.raises(ValueError, match="non-finite"):
        model.diagonal([np.full(model.domain.dim, np.nan)])
    with pytest.raises(ValueError, match="shape"):
        model.diagonal(np.zeros((2, model.domain.dim + 1)))


@pytest.mark.parametrize("name,model,pts", MODELS, ids=IDS)
def test_empty_point_sets(name, model, pts):
    assert model.eval_grid([], pts).shape == (0, len(pts))
    assert model.eval_grid(pts, []).shape == (len(pts), 0)


@pytest.mark.parametrize("name,model,pts", MODELS, ids=IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_grid_rejects_non_finite_points(name, model, pts, bad):
    broken = [np.array(p, dtype=complex) for p in pts]
    broken[-1][0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        model.eval(broken[-1], pts[0])
    with pytest.raises(ValueError, match="non-finite"):
        model.eval_grid(broken, pts)
    with pytest.raises(ValueError, match="non-finite"):
        model.eval_grid(pts, broken)


@pytest.mark.parametrize("name,model,pts", MODELS, ids=IDS)
def test_grid_rejects_wrong_shapes(name, model, pts):
    dim = model.domain.dim
    with pytest.raises(ValueError):
        model.eval(np.zeros(dim + 1), pts[0])
    with pytest.raises(ValueError, match="shape"):
        model.eval_grid(np.zeros((3, dim + 1)), pts)
    with pytest.raises(ValueError, match="shape"):
        model.eval_grid(pts, np.zeros((2, 3, dim)))
    with pytest.raises(ValueError, match="shape"):
        model.eval_grid(pts[0], pts)       # one point is not a point set


@pytest.mark.parametrize("domain,mu", [(DISK, 1.0), (bl.unit_ball(2), 2.0),
                                       (bl.matrix_ball(2, 2), 1.0)],
                         ids=["disk", "ball2", "typei"])
def test_power_grid_rejects_branch_cut(domain, mu):
    # N(z, z) = 0 on the boundary: the factor 1 - |z|^2 sits on the cut
    K = bl.power_kernel(domain, mu)
    edge = np.zeros(domain.dim, dtype=complex)
    edge[0] = 1.0
    inner = np.zeros(domain.dim, dtype=complex)
    with pytest.raises(ValueError, match="branch cut"):
        K.eval(edge, edge)
    with pytest.raises(ValueError, match="branch cut"):
        K.eval_grid([inner, edge], [inner, edge])
    scaled = bl.ScaledKernel(2.0, K)
    with pytest.raises(ValueError, match="branch cut"):
        scaled.eval_grid([edge], [edge])


# ---------------------------------------------------------------------------
# the verdicts against the scalar loops they replace

def _scalar_series(series, z, w):
    ez = series.basis_values(np.asarray(z)[None, :])[0]
    ew = series.basis_values(np.asarray(w)[None, :])[0]
    return complex(np.dot(ez, ew.conj()))


def _oracle_proportionality(series, reference, points, match_tol,
                            mismatch_tol):
    zero = np.zeros(series.base.dim, dtype=complex)
    c = _scalar_series(series, zero, zero).real / reference.eval(zero, zero).real
    worst, worst_diag, worst_off, witness = 0.0, 0.0, 0.0, None
    devs = {}
    for i, z in enumerate(points):
        for j, w in enumerate(points):
            kv = _scalar_series(series, z, w)
            rv = c * reference.eval(z, w)
            dev = abs(kv - rv) / abs(rv)
            devs[i, j] = dev
            if dev > worst:
                worst, witness = dev, (i, j)
            if i == j:
                worst_diag = max(worst_diag, dev)
            else:
                worst_off = max(worst_off, dev)
    if worst <= match_tol:
        verdict = "match"
    elif worst > mismatch_tol:
        verdict = "mismatch"
    else:
        verdict = "inconclusive"
    return verdict, c, worst, worst_diag, worst_off, witness, devs


def _assert_same_report(rep, oracle, points):
    verdict, c, worst, worst_diag, worst_off, witness, devs = oracle
    assert rep.verdict == verdict
    assert rep.c == pytest.approx(c, rel=1e-13)
    assert abs(rep.max_deviation - worst) <= 1e-12
    residual = {s.name: s.residual for s in rep.checks}
    assert abs(residual["kernel_proportionality_diagonal"] - worst_diag) <= 1e-12
    assert abs(residual["kernel_proportionality_offdiagonal"] - worst_off) <= 1e-12
    if verdict == "match":
        assert rep.witness is None
        return
    i, j = witness
    # K(w, z) = conj K(z, w) on both kernels, so (z, w) and (w, z) tie in
    # exact arithmetic and rounding alone orders them
    pairs = [(i, j)]
    if abs(devs[j, i] - devs[i, j]) <= 1e-12 * devs[i, j]:
        pairs.append((j, i))
    assert any(np.array_equal(rep.witness[0], points[a])
               and np.array_equal(rep.witness[1], points[b])
               for a, b in pairs)


CH_CASES = [
    (DISK, bl.generic_norm_weight(DISK, 1.0), 1, 1.0, 30, "match"),
    (bl.unit_ball(2), bl.generic_norm_weight(bl.unit_ball(2), 0.5), 2, 0.5, 20,
     "match"),
    (DISK, bl.polynomial_weight(DISK, [1.0, -0.5]), 1, 1.0, 20, "mismatch"),
    (DISK, bl.generic_norm_weight(DISK, 1.0), 1, 2.0, 20, "mismatch"),
]


@pytest.mark.parametrize("base,q,m,mu,degree,expected", CH_CASES)
def test_characterize_ch_matches_scalar_oracle(base, q, m, mu, degree, expected):
    rep = ch.characterize_ch(q, m, mu, degree, seed=3)
    series = ch._series_kernel(q.pow(m), degree, None)
    reference = bl.PowerKernel(base, m * mu)
    points = ch._sample_points(base.dim, 0.55, 12, 3)
    oracle = _oracle_proportionality(series, reference, points, 1e-8, 1e-6)
    assert oracle[0] == expected
    _assert_same_report(rep, oracle, points)

    zero = np.zeros(base.dim, dtype=complex)
    k00 = _scalar_series(series, zero, zero).real
    expo = -(m * mu + base.genus)
    diag_worst = 0.0
    for z in points:
        lhs = _scalar_series(series, z, z).real
        rhs = k00 * bl.generic_norm(base, z, z).real ** expo
        diag_worst = max(diag_worst, abs(lhs - rhs) / abs(rhs))
    residual = {s.name: s.residual for s in rep.checks}
    assert abs(residual["diagonal_power_law"] - diag_worst) <= 1e-12


FBH_CASES = [
    (1, bl.gaussian_weight(1, 1.0), 1, 1.0, "match"),
    (2, bl.gaussian_weight(2, 0.5), 2, 0.5, "match"),
    (1, bl.gaussian_weight(1, 0.57), 1, 0.855, "mismatch"),
    (2, bl.gaussian_weight(2, 1.0), 1, 1.4, "mismatch"),
]


@pytest.mark.parametrize("n,p,m,mu,expected", FBH_CASES)
def test_characterize_fbh_matches_scalar_oracle(n, p, m, mu, expected):
    rep = ch.characterize_fbh(p, m, mu, 20, seed=297)
    series = ch._series_kernel(p.pow(m), 20, None)
    reference = bl.FockKernel(m * mu, n)
    points = ch._sample_points(n, 0.9 / math.sqrt(m * mu), 12, 297)
    oracle = _oracle_proportionality(series, reference, points, 1e-8, 1e-6)
    assert oracle[0] == expected
    _assert_same_report(rep, oracle, points)


def _fbh_family(n):
    H = HartogsDomain(bl.full_space(n), bl.gaussian_weight(n, 1.0), 1)
    rng = np.random.default_rng(4)
    maps = [am.make_fbh_map(H, "base_unitary", matrix=np.eye(n, dtype=complex))]
    maps += [am.make_fbh_map(H, "translation", v=v)
             for v in _full_space_points(rng, n, 5, 1.6)]
    return H, maps, 24


def _thullen_family():
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    rng = np.random.default_rng(9)
    return H, [am.thullen_mobius(H, a)
               for a in interior_disk_points(rng, 6, 0.6)], 34


@pytest.mark.parametrize("family", [lambda: _fbh_family(1),
                                    lambda: _fbh_family(2), _thullen_family],
                         ids=["fbh-n1", "fbh-n2", "thullen"])
def test_family_condition_matches_scalar_oracle(family):
    H, maps, degree = family()
    rep = ch.family_condition_check(H, maps, degree)
    series = ch._series_kernel(H.weight.pow(H.fiber_dim), degree, None)
    ratios = []
    for aut, rec in zip(maps, rep.maps):
        z0 = am.zero_preimage(aut)
        kdiag = _scalar_series(series, z0, z0).real
        assert np.array_equal(rec.z0, z0)
        assert rec.kernel_diag == pytest.approx(kdiag, rel=1e-13)
        ratios.append(abs(am.jacobian_base_slice(aut, z0)) ** 2 / kdiag)
    worst = max(abs(r / ratios[0] - 1.0) for r in ratios)
    assert rep.passed
    assert rep.constant == pytest.approx(ratios[0], rel=1e-13)
    assert abs(rep.max_relative_deviation - worst) <= 1e-12


def test_family_condition_validates_every_map_before_evaluating():
    H, maps, degree = _fbh_family(1)
    foreign = HartogsDomain(C1, bl.gaussian_weight(1, 2.0), 1)
    maps.append(am.make_fbh_map(foreign, "translation", v=[0.2]))
    with pytest.raises(ValueError, match="does not act"):
        ch.family_condition_check(H, maps, degree)
