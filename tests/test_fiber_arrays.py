"""The fiber series and the automorphism action over point arrays, against
the per-term and per-point loops they replaced.

``_scalar_frc`` is the loop the one-pair fiber series ran before
``frc_eval_pairs``: one kernel value per term and pair, each from a
model built for its term, the stop rule applied term by term.  It stays
here as the oracle.  The structural tests count calls, not time, so the
scalar loops cannot come back unseen."""

import math
from pathlib import Path

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import automorphisms as am
from bergmanlab import cli, core, hartogs, kernels
from bergmanlab.core import hermitian_inner, sample_ball
from bergmanlab.hartogs import (
    ClosedFormFamily,
    FrcPairs,
    HartogsDomain,
    fiber_coefficients,
    frc_eval_pairs,
)

from conftest import fiber_term_model, kernel_at

DISK = bl.unit_disk()


def _scalar_frc(domain, point, point2, family, max_terms=200, tol=1e-12):
    """(value, terms_used, tail_estimate, converged, last_ratio) of one pair
    from the per-term loop.  The terms come from ``fiber_term_model``, not
    from ``family``, the family under test."""
    (z, zeta), (z2, zeta2) = point, point2
    m = domain.fiber_dim
    u = complex(np.dot(zeta, np.conj(zeta2)))
    inv_pi_m = math.pi ** (-m)
    partial, upow = 0j, 1 + 0j
    streak, prev_mag, ratio, terms = 0, None, None, 0
    for k in range(max_terms):
        term = (inv_pi_m * math.perm(k + m, m)
                * kernel_at(fiber_term_model(domain, k), z, z2) * upow)
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
    }
    domain = HartogsDomain(*cases[name])
    return domain, ClosedFormFamily(domain)


CASES = ["disk-m1", "disk-m2", "disk-m3", "ball2", "gaussian-c1",
         "gaussian-c2-scaled", "typei-2x2"]
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
        # one pair alone sums as it does among the others
        view = frc_eval_pairs(domain, (Z[i:i + 1], ZETA[i:i + 1]),
                              (Z2[i:i + 1], ZETA2[i:i + 1]), family,
                              max_terms, tol).pair(0)
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
    # a zero-fiber pair is a row of the first pass like any other
    zero = zeta.copy()
    zero[4] = 0.0
    with pytest.raises(ValueError, match=r"^5 pairs x 16 terms exceed the "
                       r"MAX_TERM_TABLE = 64 entries"):
        frc_eval_pairs(H, (z, zero), (z, zeta), family)


class _LeavesFloatRange:
    """A family whose terms are <zeta, zeta'>^k up to k = 7 and inf from
    k = 8 on, all within the first pass of 16 terms."""

    def usable_terms(self, K):
        return K, None

    def bases(self, Z, Z2, u):
        return np.ones(len(u)), u

    def table(self, E, x, K):
        k = np.arange(K)
        return np.where(k < 8, x[:, None] ** k, np.inf)


def test_only_used_terms_must_stay_in_float_range():
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    z = np.array([[0.1]])
    with np.errstate(all="raise"):
        # <zeta, zeta'> = 0 uses the k = 0 term only
        got = frc_eval_pairs(H, (z, [[0.5]]), (z, [[0.0]]), _LeavesFloatRange())
        assert got.pair(0) == bl.FrcResult(1 / math.pi, 1, 0.0, True, None)
        # <zeta, zeta'> = 1e-6 stops at k = 7; the terms evaluated past it
        # overflow unseen
        got = frc_eval_pairs(H, (z, [[1e-3]]), (z, [[1e-3]]),
                             _LeavesFloatRange())
        assert got.terms_used.tolist() == [8] and got.converged.all()
        with pytest.raises(FloatingPointError, match="float range"):
            frc_eval_pairs(H, (z, [[0.5]]), (z, [[0.5]]), _LeavesFloatRange())


def test_pairs_need_as_many_points_on_each_side():
    domain, family = _case("disk-m1")
    (Z, ZETA), (Z2, ZETA2) = _pairs(domain, 4, seed=0)
    with pytest.raises(ValueError, match="as many points"):
        frc_eval_pairs(domain, (Z, ZETA), (Z2[:3], ZETA2[:3]), family)


def _zero_fiber_pair():
    """The disk with weight 1 - |z|^2 and m = 1 at z = 0.2, z' = 0.1,
    zeta = 0, zeta' = 0.3: a zero-fiber pair, whose series is its nonzero
    k = 0 term."""
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    return H, ([[0.2]], [[0.0]]), ([[0.1]], [[0.3]]), ClosedFormFamily(H)


@pytest.mark.parametrize("max_terms", [0, -1])
def test_fewer_than_one_term_is_refused(max_terms):
    H, points, points2, family = _zero_fiber_pair()
    with pytest.raises(ValueError, match=f"^max_terms must be >= 1, not "
                                         f"{max_terms}$"):
        frc_eval_pairs(H, points, points2, family, max_terms)
    # before the points are looked at
    with pytest.raises(ValueError, match="^max_terms must be >= 1"):
        frc_eval_pairs(H, ([[2.0]], [[0.0]]), points2, family, max_terms)


def test_one_term_sums_a_zero_fiber_pair():
    H, points, points2, family = _zero_fiber_pair()
    got = frc_eval_pairs(H, points, points2, family, 1)
    assert got.pair(0) == bl.FrcResult(0.21530396272458285 + 0j, 1, 0.0,
                                       True, None)
    empty = np.zeros((0, 1), dtype=complex)
    none = frc_eval_pairs(H, (empty, empty), (empty, empty), family)
    assert [(f.shape, f.dtype) for f in vars(none).values()] == [
        ((0,), np.dtype(t)) for t in (complex, int, float, bool, float)]


def _frc_check_pairs(m, count, seed):
    """count pairs drawn as frc-check draws them, and 20 restriction pairs
    of base points with zero fibers."""
    rng = np.random.default_rng(seed)
    z = sample_ball(rng, 1, 0.9, 2 * count).reshape(count, 2)
    ratio = 0.7 * rng.random((count, 2))
    phase = np.exp(2j * np.pi * rng.random((count, 2 * m))).reshape(count, 2, m)
    zeta = ((ratio * np.sqrt(1.0 - np.abs(z) ** 2))[:, :, None] * phase
            / math.sqrt(m))
    rest = sample_ball(rng, 1, 0.5, 40).reshape(20, 2)
    zeros = np.zeros((20, m), dtype=complex)
    return ((z[:, :1], zeta[:, 0]), (z[:, 1:], zeta[:, 1]),
            (rest[:, :1], zeros), (rest[:, 1:], zeros))


def _bits(res):
    return [field.tobytes() for field in (res.value, res.terms_used,
                                          res.tail_estimate, res.converged,
                                          res.last_ratio)]


def _joined(*parts):
    return FrcPairs(*(np.concatenate(fields)
                      for fields in zip(*(vars(p).values() for p in parts))))


@pytest.mark.parametrize("max_terms", [1, 2, 5, 16, 17, 33, 200])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_appended_zero_fiber_rows_sum_as_in_their_own_call(m, max_terms):
    """Pairs with zero-fiber rows appended give, field for field and bit
    for bit, what the pairs alone and the zero-fiber rows alone give."""
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), m)
    family = ClosedFormFamily(H)
    (Z, ZETA), (Z2, ZETA2), rest, rest2 = _frc_check_pairs(m, 60, seed=m)
    both = frc_eval_pairs(H, (np.concatenate([Z, rest[0]]),
                              np.concatenate([ZETA, rest[1]])),
                          (np.concatenate([Z2, rest2[0]]),
                           np.concatenate([ZETA2, rest2[1]])),
                          family, max_terms, 1e-14)
    alone = frc_eval_pairs(H, (Z, ZETA), (Z2, ZETA2), family, max_terms, 1e-14)
    zero = frc_eval_pairs(H, rest, rest2, family)
    assert _bits(both) == _bits(_joined(alone, zero))
    assert both.terms_used[60:].tolist() == [1] * 20


@pytest.mark.parametrize("max_terms", [1, 2, 5, 16, 17, 33, 200])
@pytest.mark.parametrize("name", CASES)
def test_sized_passes_give_what_doubling_gives(name, max_terms, monkeypatch):
    domain, family = _case(name)
    points, points2 = _pairs(domain, 40, seed=CASES.index(name))
    sized = frc_eval_pairs(domain, points, points2, family, max_terms, 1e-14)
    monkeypatch.setattr(hartogs, "_next_width", lambda width, *_: 2 * width)
    doubled = frc_eval_pairs(domain, points, points2, family, max_terms,
                             1e-14)
    assert _bits(sized) == _bits(doubled)


def test_sizing_saves_passes_but_no_refusal(monkeypatch):
    """The frc-check draw needs about 40 terms: doubling takes passes of
    16, 32 and 64 terms, the sized passes 16 and 64.  Under any table
    limit that holds the first pass, both give the bits of the default
    limit: a later pass past the limit is summed in row blocks, and none
    is refused."""
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    family = ClosedFormFamily(H)
    points, points2, _, _ = _frc_check_pairs(1, 30, seed=4)
    widths = []
    table = ClosedFormFamily.table

    def recording(family, E, x, K):
        widths.append(K)
        return table(family, E, x, K)

    def outcome():
        try:
            return _bits(frc_eval_pairs(H, points, points2, family, 200,
                                        1e-14))
        except ValueError as exc:
            return str(exc)

    monkeypatch.setattr(ClosedFormFamily, "table", recording)
    sized = outcome()
    assert widths == [16, 64]
    outcomes = []
    for limit in range(16 * 30, 64 * 30 + 1, 16):
        monkeypatch.setattr(hartogs, "MAX_TERM_TABLE", limit)
        outcomes.append(outcome())
    monkeypatch.setattr(hartogs, "_next_width", lambda width, *_: 2 * width)
    widths.clear()
    assert outcome() == sized and widths == [16, 32, 64]
    for i, limit in enumerate(range(16 * 30, 64 * 30 + 1, 16)):
        monkeypatch.setattr(hartogs, "MAX_TERM_TABLE", limit)
        assert outcome() == outcomes[i], limit
    assert outcomes == [sized] * len(outcomes)


# ---------------------------------------------------------------------------
# the closed-form term table

@pytest.mark.parametrize("name", CASES)
def test_closed_form_table_matches_per_term_models(name):
    """pi^(-m) (k+1)_m K_k(z, z') u^k from the table against the same term
    from a kernel model of weight p^(k+m) built for it."""
    domain, family = _case(name)
    (Z, ZETA), (Z2, ZETA2) = _pairs(domain, 12, seed=CASES.index(name))
    m, K = domain.fiber_dim, 24
    u = hermitian_inner(ZETA, ZETA2)
    got = fiber_coefficients(m, K) * family.table(*family.bases(Z, Z2, u), K)
    for k in range(K):
        model = fiber_term_model(domain, k)
        want = (math.pi ** -m * math.perm(k + m, m)
                * np.diagonal(model.eval_grid(Z, Z2)) * u ** k)
        assert (np.abs(got[:, k] - want) <= 1e-14 * np.abs(want)).all(), k


def _mpmath_series(term, u, tol=1e-32):
    """sum_k term(k) u^k in mpmath until five consecutive terms are below
    tol relative to the partial sum."""
    mp = pytest.importorskip("mpmath")
    total, small, k = mp.mpc(0), 0, 0
    while small < 5:
        t = term(k) * mp.mpc(u) ** k
        total += t
        small = small + 1 if abs(t) < tol * abs(total) else 0
        k += 1
    return total


@pytest.mark.parametrize("family_name", ["fbh-cn2", "ch-ball2"])
def test_fiber_series_against_an_mpmath_sum(family_name):
    """The summed table against the series in 40-digit arithmetic, with
    each term's kernel from its textbook formula: (s/pi)^n e^(s <z,z'>) for
    e^(-mu|z|^2) on C^n, and Gamma(n+s+1)/(pi^n Gamma(s+1))
    (1 - <z,z'>)^-(n+1+s) for (1-|z|^2)^mu on the ball, s = mu (k+m)."""
    mp = pytest.importorskip("mpmath")
    n, m, mu = 2, 2, 1.3
    if family_name == "fbh-cn2":
        domain = HartogsDomain(bl.full_space(n), bl.gaussian_weight(n, mu), m)
    else:
        ball = bl.unit_ball(n)
        domain = HartogsDomain(ball, bl.generic_norm_weight(ball, mu), m)
    (Z, ZETA), (Z2, ZETA2) = _pairs(domain, 8, seed=11)
    got = frc_eval_pairs(domain, (Z, ZETA), (Z2, ZETA2),
                         ClosedFormFamily(domain), tol=1e-15)
    assert got.converged.all()
    with mp.workdps(40):
        for i in range(len(Z)):
            L = mp.mpc(complex(np.vdot(Z2[i], Z[i])))
            u = complex(np.vdot(ZETA2[i], ZETA[i]))

            def term(k):
                s = mu * (k + m)
                if family_name == "fbh-cn2":
                    kernel = (s / mp.pi) ** n * mp.exp(s * L)
                else:
                    kernel = (mp.gamma(n + s + 1) / (mp.pi ** n
                                                     * mp.gamma(s + 1))
                              * (1 - L) ** -(n + 1 + s))
                return mp.rf(k + 1, m) / mp.pi ** m * kernel

            want = complex(_mpmath_series(term, u))
            assert abs(got.value[i] - want) <= 1e-13 * abs(want), i


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
    translation = am.make_fbh_map(fbh, "translation", v=[[0.3 - 0.2j, 0.1j]])
    return {
        "base-unitary": am.make_fbh_map(fbh, "base_unitary",
                                        matrix=_unitary(rng, 2)),
        "fiber-unitary": am.make_fbh_map(fbh, "fiber_unitary",
                                         matrix=_unitary(rng, 2)),
        "translation": translation,
        "mobius-disk": am.make_ch_map(disk, [[0.35 + 0.15j]], _unitary(rng, 2)),
        "mobius-disk-center": am.make_ch_map(disk, [[0.0]]),
        "mobius-ball": am.make_ch_map(ball, [[0.25, -0.2j]], _unitary(rng, 2)),
        "mobius-ball-center": am.make_ch_map(ball, [[0.0, 0.0]]),
        "composite-fbh": am.Composite(fbh, (
            translation,
            am.make_fbh_map(fbh, "base_unitary", matrix=_unitary(rng, 2)),
            am.make_fbh_map(fbh, "fiber_unitary", matrix=_unitary(rng, 2)))),
        "composite-disk": am.Composite(disk, (
            am.make_ch_map(disk, [[0.2 - 0.1j]]),
            am.make_ch_map(disk, [[-0.3j]], _unitary(rng, 2)))),
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
        (one_z,), (one_zeta,) = am.apply(aut, (Z[i:i + 1], ZETA[i:i + 1]))
        _close(out_z[i], one_z, 1e-14)
        _close(out_zeta[i], one_zeta, 1e-14)
        _close(base[i], am.base_apply(aut, Z[i:i + 1])[0], 1e-14)
        one_jac = am.jacobian_base_slice(aut, Z[i:i + 1])
        assert one_jac.shape == (1,)
        _close(jac[i], one_jac[0], 1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_unitaries_map_a_row_alone_as_inside_a_stack(dim):
    """A unitary maps each row of a stack bit for bit as it maps that row
    alone; a matrix product rounds a row by the size of its stack."""
    rng = np.random.default_rng(dim)
    ball = bl.unit_ball(dim)
    fbh = HartogsDomain(bl.full_space(dim), bl.gaussian_weight(dim, 1.0), dim)
    ch = HartogsDomain(ball, bl.generic_norm_weight(ball, 1.0), dim)
    for _ in range(20):
        count = int(rng.integers(2, 7))
        Z, ZETA = (0.4 / dim * (rng.standard_normal((count, dim))
                                + 1j * rng.standard_normal((count, dim)))
                   for _ in range(2))
        for aut in (am.make_fbh_map(fbh, "base_unitary",
                                    matrix=_unitary(rng, dim)),
                    am.make_fbh_map(fbh, "fiber_unitary",
                                    matrix=_unitary(rng, dim)),
                    am.make_ch_map(ch, np.full((1, dim), 0.1),
                                   _unitary(rng, dim))):
            stack = am.apply(aut, (Z, ZETA))
            for i in range(count):
                alone = am.apply(aut, (Z[i:i + 1], ZETA[i:i + 1]))
                for one, rows in zip(alone, stack):
                    assert one[0].tobytes() == rows[i].tobytes()


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
        (one_J,), (one_cr,) = am.jacobian_fd_matrix(
            aut, (Z[i:i + 1], zeros[i:i + 1]))
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
    power = _count_calls(monkeypatch, kernels.PowerKernel, "eval_grid")
    series = _count_calls(monkeypatch, hartogs, "frc_eval_pairs")
    for pairs in ("10", "50"):
        power.clear()
        series.clear()
        assert cli.main(["frc-check", "--m", "2", "--pairs", pairs]) == 0
        # one call sums every pair and every zero-fiber restriction pair,
        # and one grid gives every restriction pair's reference value
        assert len(series) == 1
        assert len(power) == 1
    capsys.readouterr()


@pytest.mark.parametrize("m", [1, 2])
def test_frc_eval_pairs_checks_each_side_in_its_base_once(m, monkeypatch):
    # each side's base is tested once and the weight evaluated on the rows
    # that have been checked
    calls = []
    original = core._contains_rows

    def counting(domain, Z):
        calls.append(len(Z))
        return original(domain, Z)

    monkeypatch.setattr(core, "_contains_rows", counting)
    monkeypatch.setattr(hartogs, "_contains_rows", counting)
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), m)
    rng = np.random.default_rng(m)
    Z, Z2 = sample_ball(rng, 1, 0.5, 30), sample_ball(rng, 1, 0.5, 30)
    ZETA, ZETA2 = sample_ball(rng, m, 0.3, 30), sample_ball(rng, m, 0.3, 30)
    frc_eval_pairs(H, (Z, ZETA), (Z2, ZETA2), ClosedFormFamily(H))
    assert calls == [30, 30]


@pytest.mark.parametrize("m", [1, 2])
def test_frc_eval_pairs_validates_each_point_array_once(m, monkeypatch):
    # the four point arrays once each, and the generic-norm factors' two
    # sides once each; the rows checked in the domain are not validated
    # again
    calls = []
    original = core.as_points

    def counting(zs, dim):
        calls.append(1)
        return original(zs, dim)

    monkeypatch.setattr(core, "as_points", counting)
    monkeypatch.setattr(hartogs, "as_points", counting)
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), m)
    family = ClosedFormFamily(H)
    rng = np.random.default_rng(m)
    Z, Z2 = sample_ball(rng, 1, 0.5, 30), sample_ball(rng, 1, 0.5, 30)
    ZETA, ZETA2 = sample_ball(rng, m, 0.3, 30), sample_ball(rng, m, 0.3, 30)
    frc_eval_pairs(H, (Z, ZETA), (Z2, ZETA2), family)
    assert len(calls) == 6


def test_frc_check_builds_no_kernel_per_term(monkeypatch, capsys):
    """The family's constructor builds the k = 0 model, which fails fast
    for a weight without closed kernels; every other term comes from the
    tables, and the 20 zero-fiber restriction pairs are rows of the first
    pass, whose bases are formed with the others'."""
    built = []
    for owner in (kernels, hartogs, cli):
        built.append(_count_calls(monkeypatch, owner,
                                  "weighted_kernel_closed_form"))
    tables, bases = [], _count_calls(monkeypatch, ClosedFormFamily, "bases")
    table = ClosedFormFamily.table

    def recording(family, E, x, K):
        tables.append((len(E), K))
        return table(family, E, x, K)

    monkeypatch.setattr(ClosedFormFamily, "table", recording)
    for argv, pairs in ((["frc-check"], 100),
                        (["frc-check", "--m", "3", "--pairs", "200"], 200)):
        for calls in built + [tables, bases]:
            calls.clear()
        assert cli.main(argv) == 0
        assert sum(map(len, built)) <= 1
        assert tables[0] == (pairs + 20, 16) and len(bases) == 1
    capsys.readouterr()


def test_seed_5_fiber_automorphism_verdicts_keep_their_exit_codes(
        monkeypatch, tmp_path, capsys):
    """Every verdict of one seed-5 pass of the benchmark's
    fiber-automorphism workload, and the inputs it checks apart as
    defects, exits with the code the workload expects."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "verdictbench"))
    import workloads
    work = workloads.generate("fiber-automorphism", 5, tmp_path)
    verdicts = work.verdicts + work.defects
    assert len(work.defects) > 0
    got = [cli.main(list(v.argv)) for v in verdicts]
    capsys.readouterr()
    assert got == [v.expect for v in verdicts]


@pytest.mark.parametrize("command", ["jacobian-check", "transform-check"])
def test_map_checks_apply_once_per_stage_not_per_point(command, monkeypatch,
                                                       capsys):
    # a stage maps its points through apply, or through base_apply when it
    # needs only the base component, as transform-check does
    calls = _count_calls(monkeypatch, am, "apply")
    base_calls = _count_calls(monkeypatch, am, "base_apply")
    aut = ('{"kind": "composite", "parts": [{"kind": "mobius", "a": '
           '[[0.2, 0.1]]}, {"kind": "mobius", "a": [[-0.1, 0.3]]}]}')
    counts = []
    for points in ("5", "20"):
        calls.clear()
        base_calls.clear()
        assert cli.main([command, "--domain", "disk", "--weight", "npower:1.5",
                         "--m", "2", "--map", aut, "--points", points]) == 0
        counts.append(len(calls) + len(base_calls))
    assert counts[0] == counts[1] > 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,entries", [
    (["--family", "fbh", "--n", "2", "--m", "2", "--degree", "30"], 2),
    (["--family", "thullen", "--mu", "1.5", "--degree", "40"], 1),
])
def test_family_check_maps_each_entry_once_whatever_its_points(
        argv, entries, monkeypatch, capsys):
    """fbh is [identity, k-row translation stack], thullen [k-row Moebius
    stack]: one apply and one jacobian_base_slice per entry, for any k."""
    applied = _count_calls(monkeypatch, am, "apply")
    jacobians = _count_calls(monkeypatch, am, "jacobian_base_slice")
    for points in ("2", "6", "40"):
        applied.clear()
        jacobians.clear()
        assert cli.main(["family-check", *argv, "--points", points]) == 0
        assert (len(applied), len(jacobians)) == (entries, entries)
    capsys.readouterr()
