"""The fiber series and the automorphism action over point arrays, against
the per-term and per-point loops they replaced.

``_scalar_frc`` is the loop ``frc_eval`` ran before it became the one-pair
view of ``frc_eval_pairs``: one kernel ``eval`` per term and pair, the stop
rule applied term by term.  It stays here as the oracle.  The structural
tests count calls, not time, so the scalar loops cannot come back unseen."""

import math

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import automorphisms as am
from bergmanlab import cli, kernels
from bergmanlab.hartogs import (
    ClosedFormFamily,
    HartogsDomain,
    SeriesFamily,
    frc_eval,
    frc_eval_pairs,
    pochhammer,
)

DISK = bl.unit_disk()


def _scalar_frc(domain, point, point2, family, max_terms=200, tol=1e-12):
    """(value, terms_used, tail_estimate, converged, last_ratio) of one pair
    from the per-term loop."""
    (z, zeta), (z2, zeta2) = point, point2
    m = domain.fiber_dim
    u = complex(np.dot(zeta, np.conj(zeta2)))
    inv_pi_m = math.pi ** (-m)
    partial, upow = 0j, 1 + 0j
    streak, prev_mag, ratio, terms = 0, None, None, 0
    for k in range(max_terms):
        term = inv_pi_m * pochhammer(k, m) * family(k).eval(z, z2) * upow
        partial += term
        terms = k + 1
        mag = abs(term)
        if prev_mag is not None and prev_mag > 0:
            ratio = mag / prev_mag
        prev_mag = mag
        if mag < tol * max(abs(partial), 1e-300):
            streak += 1
            if streak >= 5:
                break
        else:
            streak = 0
        upow *= u
        if u == 0 and k == 0:
            break
    if u == 0:
        return partial, terms, 0.0, True, None
    converged = streak >= 5 or prev_mag == 0.0
    if ratio is not None and ratio < 1.0:
        tail = prev_mag * ratio / (1.0 - ratio)
    else:
        tail = math.inf if not converged else 0.0
    return partial, terms, tail, converged, ratio


def _interior_base_points(rng, base, count):
    n = base.dim
    if base.kind is bl.DomainKind.FULL_SPACE:
        return (rng.uniform(-1, 1, (count, n))
                + 1j * rng.uniform(-1, 1, (count, n))) / math.sqrt(n)
    pts = []
    while len(pts) < count:
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        # Frobenius norm < 0.8 bounds the operator norm of type-I points
        if np.linalg.norm(z) < 0.8:
            pts.append(z)
    return np.array(pts)


def _pairs(domain, count, seed):
    """count pairs of interior Hartogs points: fibers at up to 0.8 of the
    fiber radius with random phases; pairs 0-2 have <zeta, zeta'> = 0."""
    rng = np.random.default_rng(seed)
    m = domain.fiber_dim
    out = []
    for _ in range(2):
        Z = _interior_base_points(rng, domain.base, count)
        radius = np.sqrt(bl.weight_eval(domain.weight, Z))
        direction = rng.standard_normal((count, m)) \
            + 1j * rng.standard_normal((count, m))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        scale = 0.8 * rng.random(count) * radius
        out.append((Z, direction * scale[:, None]))
    (Z, ZETA), (Z2, ZETA2) = out
    ZETA2[0] = 0.0
    ZETA[1] = 0.0
    ZETA[2] = ZETA2[2] = 0.0
    return (Z, ZETA), (Z2, ZETA2)


def _case(name):
    ball2, typei = bl.unit_ball(2), bl.matrix_ball(2, 2)
    cases = {
        "disk-m1": (DISK, bl.generic_norm_weight(DISK, 1.0), 1),
        "disk-m2": (DISK, bl.generic_norm_weight(DISK, 1.5), 2),
        "disk-m3": (DISK, bl.generic_norm_weight(DISK, 0.7), 3),
        "ball2": (ball2, bl.generic_norm_weight(ball2, 2.0), 2),
        "gaussian-c1": (bl.full_space(1), bl.gaussian_weight(1, 1.0), 1),
        "gaussian-c2-scaled": (bl.full_space(2),
                               bl.gaussian_weight(2, 0.8).scaled(1.7), 2),
        "typei-2x2": (typei, bl.generic_norm_weight(typei, 1.0), 1),
        "series-disk": (DISK, bl.generic_norm_weight(DISK, 1.0), 1),
    }
    base, weight, m = cases[name]
    domain = HartogsDomain(base, weight, m)
    family = SeriesFamily(domain, 30) if name.startswith("series") \
        else ClosedFormFamily(domain)
    return domain, family


CASES = ["disk-m1", "disk-m2", "disk-m3", "ball2", "gaussian-c1",
         "gaussian-c2-scaled", "typei-2x2", "series-disk"]
# (max_terms, tol): converging sums, and cuts that stop before five small
# terms, one of them before any ratio exists (inf tails)
LIMITS = [(200, 1e-12), (200, 1e-14), (4, 1e-14), (1, 1e-12)]


@pytest.mark.parametrize("limits", LIMITS, ids=[f"{t}-{tol:g}"
                                                for t, tol in LIMITS])
@pytest.mark.parametrize("name", CASES)
def test_pairs_match_per_term_loop(name, limits):
    max_terms, tol = limits
    domain, family = _case(name)
    points, points2 = _pairs(domain, 12, seed=CASES.index(name))
    got = frc_eval_pairs(domain, points, points2, family, max_terms, tol)
    (Z, ZETA), (Z2, ZETA2) = points, points2
    for i in range(len(Z)):
        value, terms, tail, converged, ratio = _scalar_frc(
            domain, (Z[i], ZETA[i]), (Z2[i], ZETA2[i]), family, max_terms, tol)
        one = got.pair(i)
        assert one.terms_used == terms
        assert one.converged == converged
        assert math.isfinite(one.tail_estimate) == math.isfinite(tail)
        assert (one.last_ratio is None) == (ratio is None)
        assert abs(one.value - value) <= 1e-14 * abs(value)
        if math.isfinite(tail):
            # the last terms carry the roundoff of the whole sum
            assert abs(one.tail_estimate - tail) <= 1e-12 * tail \
                + 1e-14 * abs(value)
        # frc_eval is the one-pair view of the same sums
        view = frc_eval(domain, (Z[i], ZETA[i]), (Z2[i], ZETA2[i]), family,
                        max_terms, tol)
        assert view == one
    assert got.terms_used[:3].tolist() == [1, 1, 1]
    if max_terms == 1:
        assert np.isinf(got.tail_estimate[3:]).all()
        assert not got.converged[3:].any()


def test_term_out_of_float_range_raises_only_when_a_pair_needs_it():
    # scale 1e30: the weight of p^(k+1) leaves the float range from k = 10 on
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0).scaled(1e30), 1)
    family = ClosedFormFamily(H)
    z, z2 = np.array([[0.1]]), np.array([[0.2j]])
    near = frc_eval_pairs(H, (z, [[1e-4]]), (z2, [[1e-4]]), family)
    assert near.converged.all() and near.terms_used[0] < 10
    with pytest.raises(ValueError, match="overflows at power 11"):
        frc_eval_pairs(H, (np.vstack([z, z]), [[1e-4], [1e14]]),
                       (np.vstack([z2, z2]), [[1e-4], [1e14]]), family)
    with pytest.raises(ValueError, match="overflows at power 11"):
        _scalar_frc(H, (z[0], [1e14]), (z2[0], [1e14]), family)


def test_a_pass_past_the_term_table_limit_is_refused(monkeypatch):
    # four pairs fit a first pass of 16 terms, five do not
    from bergmanlab import hartogs
    monkeypatch.setattr(hartogs, "MAX_TERM_TABLE", 4 * 16)
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    family = ClosedFormFamily(H)
    z, zeta = np.full((5, 1), 0.3 + 0.1j), np.full((5, 1), 0.2j)
    got = frc_eval_pairs(H, (z[:4], zeta[:4]), (z[:4], zeta[:4]), family)
    assert got.converged.all()
    with pytest.raises(ValueError, match=r"^5 pairs x 16 terms exceed the "
                       r"MAX_TERM_TABLE = 64 entries"):
        frc_eval_pairs(H, (z, zeta), (z, zeta), family)


class _LeavesFloatRange:
    """A family whose kernels are inf from k = 3 on."""

    def __call__(self, k):
        return None

    def pair_values(self, Z, Z2, ks):
        ks = np.asarray(ks)
        return np.tile(np.where(ks < 3, 1.0, np.inf), (len(Z), 1))


def test_only_used_terms_must_stay_in_float_range():
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    z = np.array([[0.1]])
    with np.errstate(all="raise"):
        # <zeta, zeta'> = 0 uses the k = 0 term only; the terms evaluated
        # past it overflow unseen
        got = frc_eval_pairs(H, (z, [[0.5]]), (z, [[0.0]]), _LeavesFloatRange())
        assert got.pair(0) == bl.FrcResult(1 / math.pi, 1, 0.0, True, None)
        with pytest.raises(FloatingPointError, match="float range"):
            frc_eval_pairs(H, (z, [[0.5]]), (z, [[0.5]]), _LeavesFloatRange())


def test_pairs_need_as_many_points_on_each_side():
    domain, family = _case("disk-m1")
    (Z, ZETA), (Z2, ZETA2) = _pairs(domain, 4, seed=0)
    with pytest.raises(ValueError, match="as many points"):
        frc_eval_pairs(domain, (Z, ZETA), (Z2[:3], ZETA2[:3]), family)


# ---------------------------------------------------------------------------
# automorphisms over arrays

def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q


def _maps():
    rng = np.random.default_rng(3)
    fbh = HartogsDomain(bl.full_space(2), bl.gaussian_weight(2, 1.2), 2)
    disk = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.5), 2)
    ball = HartogsDomain(bl.unit_ball(2), bl.generic_norm_weight(
        bl.unit_ball(2), 1.0), 2)
    translation = am.make_fbh_map(fbh, "translation", v=[0.3 - 0.2j, 0.1j])
    return {
        "base-unitary": am.make_fbh_map(fbh, "base_unitary",
                                        matrix=_unitary(rng, 2)),
        "fiber-unitary": am.make_fbh_map(fbh, "fiber_unitary",
                                         matrix=_unitary(rng, 2)),
        "translation": translation,
        "mobius-disk": am.make_ch_map(disk, [0.35 + 0.15j], _unitary(rng, 2)),
        "mobius-disk-center": am.make_ch_map(disk, [0.0]),
        "mobius-ball": am.make_ch_map(ball, [0.25, -0.2j], _unitary(rng, 2)),
        "mobius-ball-center": am.make_ch_map(ball, [0.0, 0.0]),
        "composite-fbh": am.Composite(fbh, (
            translation,
            am.make_fbh_map(fbh, "base_unitary", matrix=_unitary(rng, 2)),
            am.make_fbh_map(fbh, "fiber_unitary", matrix=_unitary(rng, 2)))),
        "composite-disk": am.Composite(disk, (
            am.make_ch_map(disk, [0.2 - 0.1j]),
            am.make_ch_map(disk, [-0.3j], _unitary(rng, 2)))),
    }


MAPS = _maps()


def _rows(aut, count=9):
    rng = np.random.default_rng(17)
    n, m = aut.target.base.dim, aut.target.fiber_dim
    Z = _interior_base_points(rng, aut.target.base, count) * 0.7
    ZETA = 0.1 * (rng.standard_normal((count, m))
                  + 1j * rng.standard_normal((count, m)))
    return Z, ZETA


def _close(a, b, rtol):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rtol * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_action_over_rows_matches_per_point_calls(name):
    aut = MAPS[name]
    Z, ZETA = _rows(aut)
    out_z, out_zeta = am.apply(aut, (Z, ZETA))
    base = am.base_apply(aut, Z)
    jac = am.jacobian_base_slice(aut, Z)
    for i in range(len(Z)):
        one_z, one_zeta = am.apply(aut, (Z[i], ZETA[i]))
        _close(out_z[i], one_z, 1e-14)
        _close(out_zeta[i], one_zeta, 1e-14)
        _close(base[i], am.base_apply(aut, Z[i]), 1e-14)
        one_jac = am.jacobian_base_slice(aut, Z[i])
        assert isinstance(one_jac, complex)
        _close(jac[i], one_jac, 1e-14)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_fd_jacobians_over_rows_match_per_point_calls(name):
    aut = MAPS[name]
    Z, _ = _rows(aut)
    zeros = np.zeros((len(Z), aut.target.fiber_dim), dtype=complex)
    J, cr = am.jacobian_fd_matrix(aut, (Z, zeros))
    dim = aut.target.base.dim + aut.target.fiber_dim
    assert J.shape == (len(Z), dim, dim) and cr.shape == (len(Z),)
    closed = am.jacobian_base_slice(aut, Z)
    for i in range(len(Z)):
        one_J, one_cr = am.jacobian_fd_matrix(aut, (Z[i], zeros[i]))
        # a step of 1e-5 turns last-digit differences of the map into
        # differences near 1e-11 of the quotients
        _close(J[i], one_J, 1e-9)
        assert abs(cr[i] - one_cr) <= 1e-9
        assert abs(np.linalg.det(J[i]) - closed[i]) <= 1e-7


# ---------------------------------------------------------------------------
# structure: no scalar loops behind the verdicts

def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_frc_check_makes_no_scalar_kernel_call(monkeypatch, capsys):
    power = _count_calls(monkeypatch, kernels.PowerKernel, "eval")
    series = _count_calls(monkeypatch, cli, "frc_eval_pairs")
    for pairs in ("10", "50"):
        series.clear()
        assert cli.main(["frc-check", "--m", "2", "--pairs", pairs]) == 0
        # one call sums every pair, one every zero-fiber restriction pair
        assert len(series) == 2
    assert power == []
    capsys.readouterr()


@pytest.mark.parametrize("command", ["jacobian-check", "transform-check"])
def test_map_checks_apply_once_per_stage_not_per_point(command, monkeypatch,
                                                       capsys):
    calls = _count_calls(monkeypatch, am, "apply")
    aut = ('{"kind": "composite", "parts": [{"kind": "mobius", "a": '
           '[[0.2, 0.1]]}, {"kind": "mobius", "a": [[-0.1, 0.3]]}]}')
    counts = []
    for points in ("5", "20"):
        calls.clear()
        assert cli.main([command, "--domain", "disk", "--weight", "npower:1.5",
                         "--m", "2", "--map", aut, "--points", points]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    capsys.readouterr()
