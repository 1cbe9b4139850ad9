"""The batched evaluation protocol: ``eval_grid`` on every kernel model and
the verdicts built on it, against scalar-loop oracles.

``eval_grid`` is every model's one evaluation path, so the oracles take
their kernel values pair by pair from the closed forms in ``core``
(``generic_norm_power`` at one row, exp(mu <z, w>)) and from the
orthonormal basis expansion instead."""

import cmath
import math
import re

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import automorphisms as am
from bergmanlab import characterize as ch
from bergmanlab.core import hermitian_inner, sample_ball
from bergmanlab.hartogs import (
    HartogsDomain,
    frc_restriction_check,
    hartogs_contains,
)

from conftest import dense_kernel, interior_ball_points, interior_disk_points

DISK = bl.unit_disk()
C1 = bl.full_space(1)


def _full_space_points(rng, n, count, radius=1.0):
    return [(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            * radius / math.sqrt(2 * n) for _ in range(count)]


def _type_i_points(rng, count, dim=4):
    # operator norm <= Frobenius norm < 1 keeps every point interior
    pts = []
    while len(pts) < count:
        z = (rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)) * 0.4
        if np.linalg.norm(z) < 0.9:
            pts.append(z)
    return pts


# the dense orthonormal expansion of the same Gram for each radial series
# kernel: its oracle.  The "series-*" models below are these oracles, so
# the batched protocol is checked on them too.
DENSE = {}


def _series_pair(gram):
    """The radial series kernel of a radial Gram and its dense expansion."""
    radial = bl.kernel_from_gram(gram)
    DENSE[radial] = dense_kernel(gram)
    return radial, DENSE[radial]


def _models():
    rng = np.random.default_rng(11)
    ball2 = bl.unit_ball(2)
    radial_disk, series_disk = _series_pair(
        bl.gram_exact(bl.generic_norm_weight(DISK, 1.0), 16))
    radial_ball, series_ball = _series_pair(
        bl.gram_exact(bl.generic_norm_weight(ball2, 2.0), 10))
    disk_pts = [np.array([z]) for z in interior_disk_points(rng, 5)]
    models = [
        ("fock-n1", bl.FockKernel(1.3, 1), _full_space_points(rng, 1, 5, 2.0)),
        ("fock-n2", bl.FockKernel(0.7, 2), _full_space_points(rng, 2, 5, 2.0)),
        ("power-disk", bl.PowerKernel(DISK, 1.5, 0.3), disk_pts),
        ("power-ball2", bl.PowerKernel(ball2, 2.0),
         interior_ball_points(rng, 2, 5)),
        ("power-typei", bl.PowerKernel(bl.matrix_ball(2, 2), 1.0),
         _type_i_points(rng, 4)),
        # the raw-measure kernel of 0.3 exp(-1.5|z|^2): a FockKernel whose
        # scale field is (1.5/pi)^2 / 0.3
        ("scaled", bl.weighted_kernel_closed_form(
            bl.gaussian_weight(2, 1.5).scaled(0.3)),
         _full_space_points(rng, 2, 5)),
        ("series-disk", series_disk, disk_pts),
        ("series-ball2", series_ball, interior_ball_points(rng, 2, 5, 0.6)),
        ("power-typei2x3", bl.PowerKernel(bl.matrix_ball(2, 3), 0.5, 1.7),
         _type_i_points(rng, 4, 6)),
    ]
    points = {name: pts for name, _, pts in models}
    return models + [("radial-disk", radial_disk, points["series-disk"]),
                     ("radial-ball2", radial_ball, points["series-ball2"])]


MODELS = _models()
IDS = [name for name, _, _ in MODELS]


def _scalar_series(series, z, w):
    series = DENSE.get(series, series)
    ez = series.basis_values(np.asarray(z)[None, :])[0]
    ew = series.basis_values(np.asarray(w)[None, :])[0]
    return complex(np.dot(ez, ew.conj()))


def _reference(model, z, w) -> complex:
    """K(z, w) of one pair, computed without any ``eval_grid``."""
    if isinstance(model, bl.FockKernel):
        return model.scale * cmath.exp(model.mu * hermitian_inner(
            np.asarray(z), np.asarray(w)))
    if isinstance(model, bl.PowerKernel):
        return model.scale * bl.generic_norm_power(model.base, [z], [w],
                                                   -model.exponent)[0]
    return _scalar_series(model, z, w)


@pytest.mark.parametrize("name,model,pts", MODELS, ids=IDS)
def test_grid_equals_pairwise_eval(name, model, pts):
    zs, ws = pts, pts[1:] + pts[:2]
    grid = model.eval_grid(zs, ws)
    assert grid.shape == (len(zs), len(ws))
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            ref = _reference(model, z, w)
            assert abs(grid[i, j] - ref) <= 1e-13 * abs(ref), (i, j)


def test_scalar_series_eval_matches_basis_expansion():
    _, model, pts = MODELS[IDS.index("series-ball2")]
    grid = model.eval_grid(pts, pts)
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            ez = model.basis_values(np.asarray(z)[None, :])[0]
            ew = model.basis_values(np.asarray(w)[None, :])[0]
            ref = complex(np.dot(ez, ew.conj()))
            assert abs(grid[i, j] - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("name", ["series-disk", "series-ball2",
                                  "radial-disk", "radial-ball2"])
def test_series_diagonal_equals_eval(name):
    _, model, pts = MODELS[IDS.index(name)]
    diag = model.diagonal(pts)
    assert diag.shape == (len(pts),) and diag.dtype == float
    for d, z in zip(diag, pts):
        ref = _scalar_series(model, z, z)
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
        model.eval_grid(broken[-1:], pts[:1])
    with pytest.raises(ValueError, match="non-finite"):
        model.eval_grid(broken, pts)
    with pytest.raises(ValueError, match="non-finite"):
        model.eval_grid(pts, broken)


@pytest.mark.parametrize("name,model,pts", MODELS, ids=IDS)
def test_grid_rejects_wrong_shapes(name, model, pts):
    dim = model.domain.dim
    with pytest.raises(ValueError):
        model.eval_grid(np.zeros((1, dim + 1)), pts[:1])
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
    K = bl.PowerKernel(domain, mu)
    edge = np.zeros(domain.dim, dtype=complex)
    edge[0] = 1.0
    inner = np.zeros(domain.dim, dtype=complex)
    with pytest.raises(ValueError, match="branch cut"):
        K.eval_grid([edge], [edge])
    with pytest.raises(ValueError, match="branch cut"):
        K.eval_grid([inner, edge], [inner, edge])
    scaled = bl.PowerKernel(domain, mu, 2.0)
    with pytest.raises(ValueError, match="branch cut"):
        scaled.eval_grid([edge], [edge])


# ---------------------------------------------------------------------------
# the verdicts against the scalar loops they replace

def _verdict_points(n, rmax, npts, seed):
    """The points a characterize verdict samples: the origin, then npts - 1
    seeded draws from the ball of radius rmax."""
    rng = np.random.default_rng(seed)
    return [np.zeros(n, dtype=complex), *sample_ball(rng, n, rmax, npts - 1)]


def _oracle_proportionality(series, reference, points, match_tol,
                            mismatch_tol):
    zero = np.zeros(series.base.dim, dtype=complex)
    c = (_scalar_series(series, zero, zero).real
         / _reference(reference, zero, zero).real)
    worst, worst_diag, worst_off, witness = 0.0, 0.0, 0.0, None
    devs = {}
    for i, z in enumerate(points):
        for j, w in enumerate(points):
            kv = _scalar_series(series, z, w)
            rv = c * _reference(reference, z, w)
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
    series = dense_kernel(bl.gram_exact(q.pow(m), degree))
    reference = bl.PowerKernel(base, m * mu)
    points = _verdict_points(base.dim, 0.55, 12, 3)
    oracle = _oracle_proportionality(series, reference, points, 1e-8, 1e-6)
    assert oracle[0] == expected
    _assert_same_report(rep, oracle, points)

    zero = np.zeros(base.dim, dtype=complex)
    k00 = _scalar_series(series, zero, zero).real
    expo = -(m * mu + base.genus)
    diag_worst = 0.0
    for z in points:
        lhs = _scalar_series(series, z, z).real
        rhs = k00 * bl.generic_norm(base, [z], [z])[0].real ** expo
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
    series = dense_kernel(bl.gram_exact(p.pow(m), 20))
    reference = bl.FockKernel(m * mu, n)
    points = _verdict_points(n, 0.9 / math.sqrt(m * mu), 12, 297)
    oracle = _oracle_proportionality(series, reference, points, 1e-8, 1e-6)
    assert oracle[0] == expected
    _assert_same_report(rep, oracle, points)


@pytest.mark.parametrize("verdict", ["ch", "fbh"])
def test_verdict_grids_hold_npts_points(monkeypatch, verdict):
    # the sampled points start at the origin: npts points, one npts x npts
    # grid per kernel
    shapes = []
    for cls in (bl.RadialSeriesKernel, bl.PowerKernel, bl.FockKernel):
        def spy(self, zs, ws, original=cls.eval_grid):
            out = original(self, zs, ws)
            shapes.append(out.shape)
            return out
        monkeypatch.setattr(cls, "eval_grid", spy)
    if verdict == "ch":
        ch.characterize_ch(bl.generic_norm_weight(DISK, 1.0), 1, 1.0, 20,
                           npts=12)
    else:
        ch.characterize_fbh(bl.gaussian_weight(1, 1.0), 1, 1.0, 20, npts=12)
    assert shapes == [(12, 12), (12, 12)]


def test_radial_verdict_makes_no_factorization(monkeypatch, capsys):
    # a radial Gram gives its kernel as one series in <z, w>: no Cholesky,
    # no triangular inverse and no monomial table
    from bergmanlab import cli, core, moments
    calls = []
    for owner, name in ((np.linalg, "cholesky"), (np.linalg, "solve"),
                        (core, "multiindex_enumerate"),
                        (moments, "multiindex_enumerate"),
                        (moments, "_shell_factor")):
        def spy(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    # mismatch (1.45e-6): the degree-16 truncation tail exceeds the
    # mismatch tolerance
    assert cli.main(["characterize-ch", "--domain", "ball:3", "--weight",
                     "npower:1", "--degree", "16"]) == 1
    # at degree 64 the basis has 47905 monomials, which are never listed
    assert cli.main(["characterize-ch", "--domain", "ball:3", "--weight",
                     "npower:1", "--degree", "64"]) == 0
    assert cli.main(["characterize-fbh", "--n", "3", "--weight",
                     "gaussian:1", "--degree", "64"]) == 0
    assert calls == []
    capsys.readouterr()


def _fbh_family(n):
    H = HartogsDomain(bl.full_space(n), bl.gaussian_weight(n, 1.0), 1)
    rng = np.random.default_rng(4)
    maps = [am.make_fbh_map(H, "base_unitary", matrix=np.eye(n, dtype=complex))]
    maps += [am.make_fbh_map(H, "translation", v=[v])
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
    series = dense_kernel(bl.gram_exact(H.weight.pow(H.fiber_dim), degree))
    ratios = []
    for aut, rec in zip(maps, rep.maps):
        (z0,) = am.zero_preimage(aut)
        kdiag = _scalar_series(series, z0, z0).real
        assert np.array_equal(rec.z0, z0)
        assert rec.kernel_diag == pytest.approx(kdiag, rel=1e-13)
        ratios.append(abs(am.jacobian_base_slice(aut, [z0])[0]) ** 2 / kdiag)
    worst = max(abs(r / ratios[0] - 1.0) for r in ratios)
    assert rep.passed
    assert rep.constant == pytest.approx(ratios[0], rel=1e-13)
    assert abs(rep.max_relative_deviation - worst) <= 1e-12


def test_family_condition_validates_every_map_before_evaluating():
    H, maps, degree = _fbh_family(1)
    foreign = HartogsDomain(C1, bl.gaussian_weight(1, 2.0), 1)
    maps.append(am.make_fbh_map(foreign, "translation", v=[[0.2]]))
    with pytest.raises(ValueError, match="does not act"):
        ch.family_condition_check(H, maps, degree)


def _scalar_transform_residual(aut, kernel, points):
    """The pairwise loop of scalar kernel values that transform_residual
    replaced, each point mapped by its own one-row call."""
    m = aut.target.fiber_dim
    c = math.factorial(m) / math.pi ** m
    jacs = [am.jacobian_base_slice(aut, [p])[0] for p in points]
    imgs = [am.base_apply(aut, [p])[0] for p in points]
    worst = 0.0
    for i, zi in enumerate(points):
        for j, zj in enumerate(points):
            lhs = c * _reference(kernel, zi, zj)
            rhs = (jacs[i] * np.conj(jacs[j]) * c
                   * _reference(kernel, imgs[i], imgs[j]))
            if abs(lhs) >= 1e-300:
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def _transform_case(name):
    """(map, kernel of p^m, kernel of another weight, points) per base."""
    rng = np.random.default_rng(21)
    if name == "disk":
        H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.5), 2)
        aut = am.make_ch_map(H, [[0.3 - 0.2j]])
        pts = [[z] for z in interior_disk_points(rng, 7, 0.6)]
    elif name == "ball2":
        ball2 = bl.unit_ball(2)
        H = HartogsDomain(ball2, bl.generic_norm_weight(ball2, 2.0), 1)
        aut = am.make_ch_map(H, [[0.2 + 0.1j, -0.3j]])
        pts = interior_ball_points(rng, 2, 7, 0.6)
    else:
        H = HartogsDomain(bl.full_space(2), bl.gaussian_weight(2, 1.0), 2)
        aut = am.make_fbh_map(H, "translation", v=[[0.3 + 0.1j, -0.2]])
        pts = _full_space_points(rng, 2, 7, 1.5)
    same = bl.weighted_kernel_closed_form(H.weight.pow(H.fiber_dim))
    other = bl.weighted_kernel_closed_form(H.weight.pow(H.fiber_dim + 1))
    return aut, same, other, pts


@pytest.mark.parametrize("name", ["disk", "ball2", "cn2"])
def test_transform_residual_matches_scalar_oracle(name):
    aut, same, other, pts = _transform_case(name)
    # the law holds for the kernel of p^m: both sides sit at roundoff
    assert am.transform_residual(aut, same, pts) <= 1e-12
    assert _scalar_transform_residual(aut, same, pts) <= 1e-12
    # and fails for the kernel of p^(m+1), by the same amount either way
    got = am.transform_residual(aut, other, pts)
    ref = _scalar_transform_residual(aut, other, pts)
    assert ref > 1e-3
    assert abs(got - ref) <= 1e-13 * ref


def test_transform_residual_truncated_series_matches_scalar_oracle():
    aut, _, _, pts = _transform_case("disk")
    w = aut.target.weight.pow(aut.target.fiber_dim)
    series, dense = _series_pair(bl.gram_exact(w, 40))
    # the degree-40 truncation tail leaves a residual near 3e-8
    got = am.transform_residual(aut, series, pts)
    ref = _scalar_transform_residual(aut, dense, pts)
    assert abs(got - ref) <= 1e-13


# ---------------------------------------------------------------------------
# one point format: (k, dim) rows, a single point one row

DISK_H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
DISK_MAP = am.make_ch_map(DISK_H, [[0.3]])
# each call with the point under test in one slot and one row elsewhere
ROW_CALLS = {
    "contains": lambda p: bl.contains(DISK, p),
    "weight_eval": lambda p: bl.weight_eval(DISK_H.weight, p),
    "generic_norm": lambda p: bl.generic_norm(DISK, p, [[0.1]]),
    "hartogs_contains": lambda p: hartogs_contains(DISK_H, p, [[0.1]]),
    "frc_restriction_check": lambda p: frc_restriction_check(
        DISK_H, p, [[0.1]], lambda *_: 0.0,
        reference=bl.PowerKernel(DISK, 1.0)),
    "apply": lambda p: am.apply(DISK_MAP, (p, [[0.1]])),
    "base_apply": lambda p: am.base_apply(DISK_MAP, p),
    "jacobian_base_slice": lambda p: am.jacobian_base_slice(DISK_MAP, p),
    "jacobian_fd_matrix": lambda p: am.jacobian_fd_matrix(DISK_MAP,
                                                          (p, [[0.0]])),
}


@pytest.mark.parametrize("name", sorted(ROW_CALLS))
def test_a_bare_point_is_refused_by_shape(name):
    call = ROW_CALLS[name]
    with pytest.raises(ValueError, match=re.escape(
            "expected points of C^1 as shape (k, 1), got shape (1,)")):
        call([0.2])
    # its one-row form gives one entry in each result
    out = call([[0.2]])
    for part in out if isinstance(out, tuple) else (out,):
        assert len(part) == 1


@pytest.mark.parametrize("make", [
    lambda: am.make_fbh_map(HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 1),
                            "translation", v=[0.2]),
    lambda: am.make_ch_map(DISK_H, [0.2])], ids=["translation", "mobius"])
def test_a_map_parameter_is_refused_as_a_bare_point(make):
    with pytest.raises(ValueError, match=re.escape(
            "rows must have shape (k, 1) with k >= 1, got shape (1,)")):
        make()
