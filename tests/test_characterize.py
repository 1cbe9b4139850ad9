import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

import bergmanlab as bl
from bergmanlab import characterize as ch
from bergmanlab.cli import main
from bergmanlab.hartogs import HartogsDomain
from bergmanlab import automorphisms as am

from conftest import interior_disk_points

DISK = bl.unit_disk()
C1 = bl.full_space(1)


class TestMomentMismatch:
    def test_identical_weights_vanish(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        res = ch.moment_mismatch(w, w, 6)
        assert res.frobenius == 0.0

    def test_scaled_weight_linearity(self):
        w = bl.generic_norm_weight(DISK, 1.0)
        c = 1.7
        res = ch.moment_mismatch(w.scaled(c), w, 8)
        table = ch.moment_table(w, 8).diagonal
        assert np.max(np.abs(res.difference - (c - 1.0) * table)) \
            <= 1e-14 * np.max(np.abs(table))

    def test_scaling_covariance(self):
        w1 = bl.generic_norm_weight(DISK, 1.0)
        w2 = bl.polynomial_weight(DISK, [1.0, -0.5])
        c = 2.25
        base = ch.moment_mismatch(w1, w2, 6)
        scaled = ch.moment_mismatch(w1.scaled(c), w2.scaled(c), 6)
        assert np.max(np.abs(scaled.difference - c * base.difference)) \
            <= 1e-14 * np.max(np.abs(scaled.difference))

    def test_unit_mass_pair_discriminated(self):
        w1 = bl.unit_mass_weight(bl.generic_norm_weight(DISK, 1.0))
        w2 = bl.unit_mass_weight(bl.generic_norm_weight(DISK, 2.0))
        res = ch.moment_mismatch(w1, w2, 8)
        assert res.norm > 0.1
        # frozen oracle: normalized Beta moments differ by 2k/((k+1)(k+2)(k+3))
        diag = res.difference
        ref = [2 * k / ((k + 1) * (k + 2) * (k + 3)) for k in range(9)]
        assert np.allclose(diag, ref, rtol=1e-12, atol=1e-15)

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ch.moment_mismatch(bl.generic_norm_weight(DISK, 1.0),
                               bl.gaussian_weight(1, 1.0), 4)


class TestRecoverWeight:
    def test_polynomial_profile_recovered_exactly(self):
        w = bl.polynomial_weight(DISK, [1.0, -2.0, 1.0])
        rec = ch.recover_weight(ch.moment_table(w, 6))
        mono = np.zeros(7)
        got = np.asarray(rec.weight.form.coefficients)
        mono[:got.size] = got
        ref = np.zeros(7)
        ref[:3] = [1.0, -2.0, 1.0]
        assert np.max(np.abs(mono - ref)) <= 1e-8
        assert rec.residual <= 1e-12

    def test_constant_profile(self):
        w = bl.polynomial_weight(DISK, [1.0])
        rec = ch.recover_weight(ch.moment_table(w, 3))
        coeffs = np.asarray(rec.weight.form.coefficients)
        assert coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(coeffs[1:])) <= 1e-12

    def test_gaussian_profile_in_laguerre_basis(self):
        rec = ch.recover_weight(ch.moment_table(bl.gaussian_weight(1, 1.0), 10))
        assert rec.basis == "laguerre"
        ts = np.linspace(0.0, 20.0, 4001)
        profile = ch._profile_from_coeffs(rec.basis, rec.coefficients, ts)
        err = np.trapezoid(np.abs(profile - np.exp(-ts)), ts)
        assert err <= 1e-6

    def test_recovery_discrimination_consistency(self):
        # weights whose moment tables agree to 1e-12 recover equal profiles
        w1 = bl.polynomial_weight(DISK, [1.0, -1.5, 0.6])
        w2 = bl.polynomial_weight(DISK, [1.0, -1.5, 0.6]).scaled(1.0)
        assert ch.moment_mismatch(w1, w2, 6).norm <= 1e-12
        r1 = ch.recover_weight(ch.moment_table(w1, 6))
        r2 = ch.recover_weight(ch.moment_table(w2, 6))
        assert np.max(np.abs(r1.coefficients - r2.coefficients)) <= 1e-8

    def test_condition_guard_suggests_ridge(self):
        # the shifted-Legendre system of degree 16 has condition 4.4e12,
        # above the fixed limit of 1e12
        w = bl.polynomial_weight(DISK, [1.0])
        table = ch.moment_table(w, 16)
        with pytest.raises(ValueError, match="ridge"):
            ch.recover_weight(table)
        rec = ch.recover_weight(table, ridge=1e-10)
        assert rec.residual < 1e-6

    def test_dimension_guard(self):
        b2 = bl.unit_ball(2)
        table = ch.moment_table(bl.generic_norm_weight(b2, 1.0), 3)
        with pytest.raises(ValueError, match="n = 1"):
            ch.recover_weight(table)


COEFFICIENTS = st.one_of(st.floats(-1e6, 1e6),
                         st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]))


@settings(max_examples=300, deadline=None)
@given(st.lists(COEFFICIENTS, min_size=1, max_size=65),
       st.integers(0, 64))
def test_legendre_to_monomial_is_numpys_conversion_bit_for_bit(coeffs,
                                                                trailing):
    """Coefficients of degree 0 to 64, exact zeros and trailing zeros
    included: the coefficients and their count are numpy's."""
    c = np.array((coeffs + [0.0] * trailing)[:65])
    want = legendre.Legendre(c, domain=[0.0, 1.0]).convert(
        kind=npoly.Polynomial, domain=[-1.0, 1.0], window=[-1.0, 1.0]).coef
    got = ch._legendre_to_monomial(c)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCharacterizeFbh:
    def test_gaussian_matches_with_reciprocal_pi_constant(self):
        rep = ch.characterize_fbh(bl.gaussian_weight(1, 1.0), 1, 1.0, 20)
        assert rep.verdict == "match"
        assert abs(rep.c - 1.0 / math.pi) <= 1e-9

    def test_rescaled_gaussian_rescales_constant(self):
        rep = ch.characterize_fbh(bl.gaussian_weight(1, 1.0).scaled(0.7),
                                  1, 1.0, 20)
        assert rep.verdict == "match"
        assert rep.c == pytest.approx(1.0 / (0.7 * math.pi), rel=1e-12)

    def test_perturbed_gaussian_mismatch(self, perturbed_gaussian_weight):
        rep = ch.characterize_fbh(perturbed_gaussian_weight, 1, 1.0, 20)
        assert rep.verdict == "mismatch"
        assert rep.max_deviation > 1e-3
        assert rep.witness is not None

    @pytest.mark.parametrize("degree", [10, 15, 20])
    def test_truncation_stability(self, degree):
        n, m, mu = 1, 2, 1.5
        rep = ch.characterize_fbh(bl.gaussian_weight(n, mu), m, mu, degree)
        assert rep.verdict == "match"
        assert abs(rep.c - (m * mu / math.pi) ** n) <= 1e-9

    def test_sub_checks_named(self):
        # a match is decided on the coefficients and draws no sample; a
        # mismatch adds the sampled residuals, which do not decide
        rep = ch.characterize_fbh(bl.gaussian_weight(1, 1.0), 1, 1.0, 12)
        assert [c.name for c in rep.checks] == [
            "series_coefficient_proportionality"]
        assert rep.checks[0].residual == rep.max_deviation
        rep = ch.characterize_fbh(bl.gaussian_weight(1, 1.0), 1, 1.5, 12)
        assert [c.name for c in rep.checks] == [
            "series_coefficient_proportionality",
            "kernel_proportionality_diagonal",
            "kernel_proportionality_offdiagonal"]
        assert all(c.identity for c in rep.checks)

    def test_bounded_base_rejected(self):
        with pytest.raises(ValueError):
            ch.characterize_fbh(bl.generic_norm_weight(DISK, 1.0), 1, 1.0, 10)


class TestCharacterizeCh:
    def test_disk_norm_weight_matches(self):
        rep = ch.characterize_ch(bl.generic_norm_weight(DISK, 1.0), 1, 1.0, 30)
        assert rep.verdict == "match"
        assert rep.c == pytest.approx(2.0 / math.pi, rel=1e-12)
        # the diagonal power law follows from the coefficients
        assert {c.name for c in rep.checks} == {
            "series_coefficient_proportionality"}

    def test_power_bookkeeping_square_root_weight(self):
        # q = (1-|z|^2)^(1/2) with m = 2 carries the same kernel exponent 3
        rep = ch.characterize_ch(bl.generic_norm_weight(DISK, 0.5), 2, 0.5, 30)
        assert rep.verdict == "match"
        assert rep.c == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_perturbed_weight_mismatch(self):
        q = bl.polynomial_weight(DISK, list(np.convolve([1, -1], [1, 0.2])))
        rep = ch.characterize_ch(q, 1, 1.0, 30)
        assert rep.verdict == "mismatch"
        assert rep.max_deviation > 1e-3

    def test_match_invariant_under_weight_rescaling(self):
        q = bl.generic_norm_weight(DISK, 1.0)
        c = 3.0
        rep1 = ch.characterize_ch(q, 2, 1.0, 25)
        rep2 = ch.characterize_ch(q.scaled(c), 2, 1.0, 25)
        assert rep1.verdict == rep2.verdict == "match"
        assert rep2.c == pytest.approx(rep1.c / c ** 2, rel=1e-11)

    def test_ball_base(self):
        b2 = bl.unit_ball(2)
        rep = ch.characterize_ch(bl.generic_norm_weight(b2, 1.0), 1, 1.0, 25)
        assert rep.verdict == "match"

    def test_report_serialization(self):
        rep = ch.characterize_ch(bl.generic_norm_weight(DISK, 1.0), 1, 1.0, 30)
        obj = rep.as_dict()
        assert obj["verdict"] == "match"
        assert all({"name", "identity", "residual"} <= set(c) for c in obj["checks"])


def _model_series(e_or_s: float, degree: int, pochhammer: bool) -> list:
    """a_0..a_d one product at a time: (e)_k/k! or s^k/k!."""
    a, out = 1.0, [1.0]
    for k in range(1, degree + 1):
        a *= ((e_or_s + (k - 1.0)) if pochhammer else e_or_s) / k
        out.append(a)
    return out


def test_seed_5_characterize_verdicts_keep_their_deviations(
        monkeypatch, tmp_path, capsys):
    """On the seed-5 characterize verdicts of the benchmark workloads, c is
    c_0 and the deviation is max_k |c_k/(c a_k) - 1| with a_k formed one
    product at a time; a verdict other than Match samples its points, and
    its residuals, with c = m 2^e, have the bits of |K - c R|/|c R|."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "verdictbench"))
    import workloads
    series_of, sampled = [], []
    build, checks = ch.kernel_from_gram, ch._sampled_checks

    def record_series(gram):
        series_of.append(build(gram))
        return series_of[-1]

    def record_checks(series, reference, c, points):
        out = checks(series, reference, c, points)
        sampled.append((series, reference, c, points, out))
        return out

    monkeypatch.setattr(ch, "kernel_from_gram", record_series)
    monkeypatch.setattr(ch, "_sampled_checks", record_checks)
    verdicts = []
    for name in ("series-verdicts", "moment-assembly"):
        work = workloads.generate(name, 5, tmp_path)
        verdicts += [v for v in work.verdicts + work.defects
                     if v.command.startswith("characterize")]
    reports = []
    for v in verdicts:
        assert main(list(v.argv)) == v.expect
        out = capsys.readouterr().out
        reports.append(json.loads(Path(v.out).read_text() if v.out else out))
    assert len(series_of) == len(verdicts) > 0
    assert len(sampled) == sum(r["verdict"] != "match" for r in reports) > 0
    for v, series, rep in zip(verdicts, series_of, reports):
        args = dict(zip(v.argv[1::2], v.argv[2::2]))
        rate = int(args.get("--m", 1)) * float(args["--mu"])
        if v.command == "characterize-ch":
            domain = args["--domain"]
            n = 1 if domain == "disk" else int(domain.split(":")[1])
            a = _model_series(rate + n + 1, series.degree, True)
        else:
            a = _model_series(rate, series.degree, False)
        c = series.c[0]
        assert rep["c"] == c
        assert rep["max_deviation"] == max(abs(ck / c / ak - 1.0)
                                           for ck, ak in zip(series.c, a))
    for series, reference, c, points, (got, _) in sampled:
        K = series.eval_grid(points, points)
        R = reference.eval_grid(points, points)
        assert c == K[0, 0].real / R[0, 0].real
        dev = np.abs(K - c * R) / np.abs(c * R)
        assert [check.residual for check in got] == [
            dev.diagonal().max(),
            dev[~np.eye(len(dev), dtype=bool)].max(initial=0.0)]


# ROADMAP item 20's table: (base, weight, m, mu, degree), verdict, bounds on
# the deviation and the witness k of a verdict other than Match.  The first
# five rows, model weights, were Mismatch or Inconclusive on the sampled
# grid, where the model's tail past rank d decided (npower:1 at m = 64 read
# 4.54e8); their coefficients agree to roundoff.  poly:1,-0.5 matched on
# the grid at rmax 1e-300.
def _fbh_table(eps, mu=1.0):
    """A Gaussian perturbed by 1 + eps t/(1 + t), tabulated as the
    benchmark's fbh-table inputs are."""
    knots = [100.0 / mu * (k / 239) ** 1.5 for k in range(240)]
    return bl.Weight(C1, bl.RadialProfile(
        tuple(knots),
        tuple(math.exp(-mu * t) * (1.0 + eps * t / (1.0 + t))
              for t in knots)))


B3 = bl.unit_ball(3)
ITEM_20 = [
    ("disk-npower-m16", "ch", bl.generic_norm_weight(DISK, 1.0), 16, 1.0, 30,
     "match", 0.0, 1e-14, None),
    ("disk-npower-m64", "ch", bl.generic_norm_weight(DISK, 1.0), 64, 1.0, 30,
     "match", 0.0, 1e-14, None),
    ("disk-npower-m96", "ch", bl.generic_norm_weight(DISK, 1.0), 96, 1.0, 30,
     "match", 0.0, 1e-14, None),
    ("disk-npower-m400", "ch", bl.generic_norm_weight(DISK, 1.0), 400, 1.0,
     60, "match", 0.0, 1e-14, None),
    ("ball3-npower", "ch", bl.generic_norm_weight(B3, 1.0), 1, 1.0, 16,
     "match", 0.0, 1e-14, None),
    ("disk-poly-m3", "ch", bl.polynomial_weight(DISK, [1.0, -1.0]), 3, 1.0,
     30, "match", 0.0, 1e-14, None),
    ("disk-poly-half", "ch", bl.polynomial_weight(DISK, [1.0, -0.5]), 1, 1.0,
     8, "mismatch", 0.72, 0.73, 1),
    ("disk-npower-1.001", "ch", bl.generic_norm_weight(DISK, 1.001), 4, 1.0,
     30, "mismatch", 7.4e-3, 7.6e-3, 1),
    ("disk-npower-1.0000001", "ch", bl.generic_norm_weight(DISK, 1.0000001),
     4, 1.0, 30, "inconclusive", 7.4e-7, 7.6e-7, 30),
    ("cn1-gaussian-m3", "fbh", bl.gaussian_weight(1, 1.2), 3, 1.2, 30,
     "match", 0.0, 1e-14, None),
    ("cn2-gaussian", "fbh", bl.gaussian_weight(2, 0.7), 1, 0.7, 20,
     "match", 0.0, 1e-14, None),
    ("cn1-gaussian-vs-1.8", "fbh", bl.gaussian_weight(1, 1.2), 1, 1.8, 20,
     "mismatch", 0.999, 1.0, 1),
    ("cn1-table", "fbh", _fbh_table(0.2), 1, 1.0, 20,
     "mismatch", 0.09, 0.1, 1),
]


@pytest.mark.parametrize(
    "kind,weight,m,mu,degree,verdict,low,high,witness_k",
    [row[1:] for row in ITEM_20], ids=[row[0] for row in ITEM_20])
def test_item_20_table(kind, weight, m, mu, degree, verdict, low, high,
                       witness_k):
    run = ch.characterize_ch if kind == "ch" else ch.characterize_fbh
    rep = run(weight, m, mu, degree)
    assert rep.verdict == verdict
    assert low <= rep.max_deviation <= high
    assert rep.witness_k == witness_k
    assert (rep.witness is None) == (verdict == "match")


@pytest.mark.parametrize("pochhammer", [True, False],
                         ids=["pochhammer", "exponential"])
def test_model_coefficients_against_mpmath(pochhammer):
    """a_k = (e)_k/k! and s^k/k! by their running products are within 2k
    ulp of the 50-digit values, for mu from 0.3 to 4e5 (e = mu + 2 on the
    disk, s = mu) and k <= 64."""
    import mpmath as mp
    rng = np.random.default_rng(20)
    for mu in [0.3, 1.0, 2.0, 3.0, 64.0, 400.0, 1.407, 0.7, 1e3, 4e5,
               *rng.uniform(0.5, 60.0, 12)]:
        model = (bl.PowerKernel(DISK, float(mu)) if pochhammer
                 else bl.FockKernel(float(mu), 1))
        a = ch._model_coefficients(model, 64)
        with mp.workdps(50):
            x = mp.mpf(model.exponent if pochhammer else model.mu)
            want = [mp.rf(x, k) / mp.factorial(k) if pochhammer
                    else x ** k / mp.factorial(k) for k in range(65)]
            for k, (got, ref) in enumerate(zip(a, want)):
                err = abs(mp.mpf(got) - ref) / mp.mpf(np.spacing(got))
                assert err <= 2 * k, (mu, k, float(err))


def test_a_model_coefficient_outside_the_float_range_is_named():
    weight = bl.gaussian_weight(1, 1e8).scaled(1e300)
    with pytest.raises(ValueError, match=r"the model series coefficient "
                       r"a_46 = s\^k/k! at s = 100000000.0 is exp\(714.4\), "
                       r"outside the float range"):
        ch.characterize_fbh(weight, 1, 1e8, 64)


def test_a_deviation_outside_the_float_range_is_named():
    # c_k/C = 1e8^k/k! against a_k = 1/k!: the deviation passes 1.8e308
    weight = bl.gaussian_weight(1, 1e8).scaled(1e300)
    with pytest.raises(ValueError, match=r"the deviation of c_39 from "
                       r"C \* a_39 \(C = 3.183e-293\) is outside the float "
                       r"range"):
        ch.characterize_fbh(weight, 1, 1.0, 64)


class TestBoundaryInequality:
    def _samples(self, count=40, radius=1.5, seed=5):
        rng = np.random.default_rng(seed)
        return [[complex(x, y)] for x, y in rng.uniform(-radius, radius,
                                                        (count, 2))]

    def test_gaussian_equality(self):
        rep = ch.boundary_inequality_check(bl.gaussian_weight(1, 2.0), 2.0,
                                           self._samples())
        assert rep.verdict == "equality"
        assert rep.max_residual <= 1e-12

    def test_polynomial_inflation_violated(self, perturbed_gaussian_weight):
        rep = ch.boundary_inequality_check(perturbed_gaussian_weight, 1.0,
                                           self._samples(radius=1.2))
        assert rep.verdict == "violated"
        assert rep.witness is not None

    def test_over_decay_inconclusive(self):
        rep = ch.boundary_inequality_check(bl.gaussian_weight(1, 4.0), 2.0,
                                           self._samples())
        assert rep.verdict == "inconclusive"

    @staticmethod
    def _per_sample(p, mu, samples, tol=1e-10):
        """The verdict one sample at a time: (p(0), worst, witness)."""
        n = p.base.dim
        p0 = bl.weight_eval(p, np.zeros((1, n), dtype=complex))[0]
        worst, witness, amount = 0.0, None, 0.0
        for z in samples:
            z = np.asarray(z, dtype=complex)
            g = bl.weight_eval(p, [z])[0] * math.exp(mu * float(np.sum(abs(z) ** 2)))
            worst = max(worst, abs(g - p0))
            if g > p0 * (1.0 + tol) and g - p0 > amount:
                amount, witness = g - p0, z
        return p0, worst, witness

    @pytest.mark.parametrize("case,verdict", [
        ("gaussian", "equality"), ("gaussian-c2", "equality"),
        ("table", "violated"), ("poly-c2", "violated"),
        ("over-decay", "inconclusive")])
    def test_matches_the_per_sample_loop(self, case, verdict,
                                         perturbed_gaussian_weight):
        weight, mu, n, radius = {
            "gaussian": (bl.gaussian_weight(1, 2.0), 2.0, 1, 1.5),
            "gaussian-c2": (bl.gaussian_weight(2, 1.0), 1.0, 2, 1.5),
            "table": (perturbed_gaussian_weight, 1.0, 1, 1.2),
            "poly-c2": (bl.polynomial_weight(bl.full_space(2), [1.0, 2.0]),
                        1.0, 2, 1.5),
            "over-decay": (bl.gaussian_weight(1, 4.0), 2.0, 1, 1.5)}[case]
        rng = np.random.default_rng(7)
        samples = (rng.uniform(-radius, radius, (500, n))
                   + 1j * rng.uniform(-radius, radius, (500, n)))
        rep = ch.boundary_inequality_check(weight, mu, samples)
        p0, worst, witness = self._per_sample(weight, mu, samples)
        assert rep.verdict == verdict
        # np.exp and math.exp may differ in the last place
        assert rep.max_residual == pytest.approx(worst, rel=1e-14,
                                                 abs=1e-15 * p0)
        if witness is None:
            assert rep.witness is None
        else:
            assert np.array_equal(rep.witness, witness)

    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1])
    def test_only_gaussian_decay_reaches_equality(self, eps):
        knots = np.linspace(0.0, 60.0, 1501)
        vals = np.exp(-knots) * (1.0 + eps * knots)
        w = bl.Weight(C1, bl.RadialProfile(tuple(knots), tuple(vals)))
        rep = ch.boundary_inequality_check(w, 1.0, self._samples(radius=1.2))
        assert rep.verdict != "equality"


class TestFamilyCondition:
    def test_fbh_generators_share_one_constant(self):
        H = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 1)
        maps = [am.make_fbh_map(H, "translation", v=[[v]])
                for v in (0.3 + 0.2j, -0.5j, 0.7, 0.2 - 0.6j, 0.05)]
        maps.append(am.make_fbh_map(H, "base_unitary", matrix=[[np.exp(0.9j)]]))
        maps.append(am.make_fbh_map(H, "fiber_unitary", matrix=[[np.exp(-0.4j)]]))
        rep = ch.family_condition_check(H, maps, 24)
        assert rep.passed
        assert rep.max_relative_deviation <= 1e-9
        assert rep.constant == pytest.approx(math.pi, rel=1e-12)
        assert rep.max_fiber_zero_defect == 0.0

    def test_thullen_family(self):
        H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
        rng = np.random.default_rng(9)
        maps = [am.thullen_mobius(H, a)
                for a in interior_disk_points(rng, 6, 0.6)]
        rep = ch.family_condition_check(H, maps, 34)
        assert rep.passed
        assert rep.max_relative_deviation <= 1e-9

    def test_composite_maps_supported(self):
        H = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 1)
        comp = am.Composite(H, (
            am.make_fbh_map(H, "base_unitary", matrix=[[np.exp(0.3j)]]),
            am.make_fbh_map(H, "translation", v=[[0.4]]),
        ))
        rep = ch.family_condition_check(H, [comp], 24)
        assert rep.passed

    @pytest.mark.parametrize("family", ["fbh", "thullen"])
    def test_stacks_give_the_records_of_their_single_maps(self, family):
        rng = np.random.default_rng(21)
        if family == "fbh":
            H = HartogsDomain(bl.full_space(2), bl.gaussian_weight(2, 0.7), 2)
            V = (rng.uniform(-0.5, 0.5, (6, 2))
                 + 1j * rng.uniform(-0.5, 0.5, (6, 2)))
            first = [am.make_fbh_map(H, "base_unitary", matrix=np.eye(2)),
                     am.make_fbh_map(H, "fiber_unitary",
                                     matrix=np.diag(np.exp([0.3j, -0.2j])))]
            last = [am.Composite(H, (am.make_fbh_map(H, "translation",
                                                     v=[[0.1, 0.2j]]),
                                     am.make_fbh_map(H, "translation",
                                                     v=[[-0.3j, 0.1]])))]
            stack = am.make_fbh_map(H, "translation", v=V)
            singles = [am.make_fbh_map(H, "translation", v=[v]) for v in V]
            degree = 30
        else:
            H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.3), 1)
            A = np.array(interior_disk_points(rng, 6, 0.6))
            first, last = [am.thullen_mobius(H, 0.0)], []
            stack = am.thullen_mobius(H, A)
            singles = [am.thullen_mobius(H, a) for a in A]
            degree = 40
        got = ch.family_condition_check(H, first + [stack] + last, degree)
        want = ch.family_condition_check(H, first + singles + last, degree)
        assert len(got.maps) == len(first) + 6 + len(last)
        assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())

    def test_foreign_map_rejected(self):
        H1 = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 1)
        H2 = HartogsDomain(C1, bl.gaussian_weight(1, 2.0), 1)
        tr = am.make_fbh_map(H2, "translation", v=[[0.2]])
        with pytest.raises(ValueError):
            ch.family_condition_check(H1, [tr], 10)

    def test_report_carries_rank(self):
        H = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 1)
        rep = ch.family_condition_check(
            H, [am.make_fbh_map(H, "translation", v=[[0.3]])], 18)
        assert rep.degree == 18
        assert "K_{D,p^m}" in rep.identity
