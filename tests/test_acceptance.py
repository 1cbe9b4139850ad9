"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to fixtures or
configuration.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import characterize as ch
from bergmanlab import automorphisms as am
from bergmanlab.hartogs import (
    ClosedFormFamily,
    HartogsDomain,
    ball_kernel,
    frc_eval_pairs,
    frc_restriction_check,
)
from bergmanlab.moments import describe_weight

from conftest import child_env, interior_disk_points, kernel_at

DISK = bl.unit_disk()
C1 = bl.full_space(1)


def report(cid: str, passed: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if passed else 'FAIL'} {detail}")


def nine_point_grid(radius: float):
    """Nine complex points with radii up to the given one, aligned phases
    included so the worst-case product |z conj(w)| = radius^2 is sampled."""
    radii = np.linspace(0.0, radius, 9)
    phases = np.exp(1j * np.pi * np.arange(9) / 4.5)
    return [np.array([r * p]) for r, p in zip(radii, phases)]


def fock_measure_weight(n, mu):
    return bl.gaussian_weight(n, mu).scaled((mu / math.pi) ** n)


def test_a1_fock_kernel_reconstruction():
    t0 = time.perf_counter()
    K = bl.kernel_from_gram(bl.gram_exact(C1, fock_measure_weight(1, 1.0), 25))
    ref = bl.FockKernel(1.0, 1)
    worst = 0.0
    for z in nine_point_grid(1.5):
        for w in nine_point_grid(1.5):
            kv, rv = kernel_at(K, z, w), kernel_at(ref, z, w)
            worst = max(worst, abs(kv - rv) / abs(rv))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report("A1", ok, f"Fock series vs exp(z conj(w)): rel err {worst:.3e} "
                     f"(<=1e-8), {elapsed:.2f}s (<1s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_a2_weighted_disk_kernel():
    t0 = time.perf_counter()
    worst_by_s = {}
    for s in (1.0, 2.0, 3.0):
        K = bl.kernel_from_gram(
            bl.gram_exact(DISK, bl.generic_norm_weight(DISK, s), 30))
        ref = bl.PowerKernel(DISK, s)
        zero = np.zeros(1, dtype=complex)
        c = kernel_at(K, zero, zero).real / kernel_at(ref, zero, zero).real
        worst = 0.0
        for z in nine_point_grid(0.7):
            for w in nine_point_grid(0.7):
                kv = kernel_at(K, z, w)
                rv = c * kernel_at(ref, z, w)
                worst = max(worst, abs(kv - rv) / abs(rv))
        worst_by_s[s] = worst
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"s={s:g}: {v:.3e}" for s, v in worst_by_s.items())
    ok = max(worst_by_s.values()) <= 1e-8 and elapsed < 2.0
    report("A2", ok, f"degree-30 series vs c*N^(-2-s) on |z|,|w|<=0.7: "
                     f"{detail} (<=1e-8), {elapsed:.2f}s (<2s)")
    assert elapsed < 2.0
    # Known spec defect: the exact degree-30 truncation tail at the aligned
    # corner |z| = |w| = 0.7 is 3.6e-8 (s=1), 2.2e-7 (s=2), 1.0e-6 (s=3),
    # so the stated tolerance is unattainable at the stated degree/radius.
    # The criterion is asserted as written; see the decisions ledger.
    assert max(worst_by_s.values()) <= 1e-8


def test_a3_quadrature_fidelity():
    # "entrywise <= 1e-12" is measured against the Cauchy-Schwarz scale
    # 1 + sqrt(G_aa G_bb): Gaussian moments reach 10! * pi, where an
    # absolute 1e-12 would demand relative accuracy below one ulp.
    worst = 0.0
    cases = [(DISK, bl.generic_norm_weight(DISK, 1.0), "disk s=1"),
             (DISK, bl.generic_norm_weight(DISK, 2.0), "disk s=2"),
             (C1, bl.gaussian_weight(1, 1.0), "gauss mu=1"),
             (C1, bl.gaussian_weight(1, 2.0), "gauss mu=2")]
    for domain, weight, _ in cases:
        Ge = bl.gram_exact(domain, weight, 10)
        Gq = bl.gram_quadrature(domain, weight, 10)
        # both Grams are diagonal; entry (a, a) has the scale d_a d_a
        d = np.sqrt(np.abs(Ge.diagonal))
        scale = 1.0 + d * d
        worst = max(worst,
                    float(np.max(np.abs(Gq.diagonal - Ge.diagonal) / scale)))
    ok = worst <= 1e-12
    report("A3", ok, f"gram_quadrature vs gram_exact, d<=10: "
                     f"max scaled defect {worst:.3e} (<=1e-12)")
    assert ok


def test_a4_forelli_rudin_identity():
    t0 = time.perf_counter()
    H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    fam = ClosedFormFamily(H)
    oracle = ball_kernel(2)
    rng = np.random.default_rng(2026)
    worst = 0.0
    pairs = 0
    while pairs < 100:
        z, z2 = interior_disk_points(rng, 2, 0.9)
        r1, r2 = rng.random(2)
        th = 2 * np.pi * rng.random(2)
        # fiber correlation ratio |<zeta,zeta'>|/sqrt(p p') = r1 r2 <= 0.5
        r1, r2 = math.sqrt(0.5) * r1, math.sqrt(0.5) * r2
        zeta = [r1 * math.sqrt(1 - abs(z) ** 2) * np.exp(1j * th[0])]
        zeta2 = [r2 * math.sqrt(1 - abs(z2) ** 2) * np.exp(1j * th[1])]
        res = frc_eval_pairs(H, ([[z]], [zeta]), ([[z2]], [zeta2]), fam,
                             tol=1e-14).pair(0)
        assert res.converged
        ref = oracle(np.array([[z, zeta[0]]]), np.array([[z2, zeta2[0]]]))[0]
        worst = max(worst, abs(res.value - ref) / abs(ref))
        pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report("A4", ok, f"fiber series vs ball kernel at 100 pairs: "
                     f"rel err {worst:.3e} (<=1e-8), {elapsed:.2f}s (<10s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_a5_restriction_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for s in (1.0, 2.0, 3.0):
        for m in (1, 2, 3):
            H = HartogsDomain(DISK, bl.generic_norm_weight(DISK, s), m)
            fam = ClosedFormFamily(H)
            reference = bl.kernel_from_gram(
                bl.gram_exact(DISK, H.weight.pow(m), 40))
            for _ in range(50):
                z, z2 = interior_disk_points(rng, 2, 0.5)
                res = frc_restriction_check(
                    H, [[z]], [[z2]],
                    lambda a, b: frc_eval_pairs(H, a, b, fam).value,
                    reference=reference)[0]
                worst = max(worst, res)
    for m in (1, 2, 3):
        H = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), m)
        fam = ClosedFormFamily(H)
        reference = bl.kernel_from_gram(bl.gram_exact(C1, H.weight.pow(m), 30))
        for _ in range(50):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            z2 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            res = frc_restriction_check(
                H, [[z]], [[z2]],
                lambda a, b: frc_eval_pairs(H, a, b, fam).value,
                reference=reference)[0]
            worst = max(worst, res)
    ok = worst <= 1e-8
    report("A5", ok, f"zero-fiber restriction, disk s in 1..3 and Gaussian, "
                     f"m<=3, 50 pairs each: residual {worst:.3e} (<=1e-8)")
    assert ok


def test_a6_transformation_law():
    Hf = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 1)
    tr = am.make_fbh_map(Hf, "translation", v=[[0.4 + 0.3j]])
    Kf = bl.weighted_kernel_closed_form(Hf.weight)
    pts = [[0.1 + 0.2j], [0.5 - 0.3j], [-0.7j], [1.0], [0.25 + 0.55j], [0.0]]
    r_fbh = am.transform_residual(tr, Kf, pts)

    Ht = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    mob = am.thullen_mobius(Ht, 0.3)
    Kt = bl.weighted_kernel_closed_form(Ht.weight)
    pts = [[0.1 + 0.2j], [0.5 - 0.3j], [-0.55j], [0.62], [0.25 + 0.55j], [0.0]]
    r_th = am.transform_residual(mob, Kt, pts)

    ok = r_fbh <= 1e-9 and r_th <= 1e-9
    report("A6", ok, f"transformation law: translation {r_fbh:.3e}, "
                     f"Moebius {r_th:.3e} (<=1e-9)")
    assert ok


def test_a7_jacobian_lemma():
    rng = np.random.default_rng(7)
    Hf1 = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 2)
    Hf2 = HartogsDomain(bl.full_space(2), bl.gaussian_weight(2, 1.0), 1)
    Ht = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    Hb = HartogsDomain(bl.unit_ball(2), bl.generic_norm_weight(bl.unit_ball(2), 1.0), 1)

    q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    cases = [
        ("translation", Hf1,
         am.make_fbh_map(Hf1, "translation", v=[[0.3 - 0.2j]])),
        ("base unitary", Hf2, am.make_fbh_map(Hf2, "base_unitary", matrix=q)),
        ("fiber unitary", Hf1,
         am.make_fbh_map(Hf1, "fiber_unitary", matrix=q)),
        ("disk Moebius", Ht, am.thullen_mobius(Ht, 0.35 + 0.15j)),
        ("ball Moebius", Hb, am.make_ch_map(Hb, [[0.25, -0.2j]])),
        ("composite", Hf1, am.Composite(Hf1, (
            am.make_fbh_map(Hf1, "translation", v=[[0.2 + 0.1j]]),
            am.make_fbh_map(Hf1, "translation", v=[[-0.3j]])))),
    ]
    worst = 0.0
    for name, H, aut in cases:
        n, m = H.base.dim, H.fiber_dim
        for _ in range(20):
            if H.base.bounded:
                z = (rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.4, 0.4, n))
            else:
                z = (rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n))
            closed = am.jacobian_base_slice(aut, [z])[0]
            (J,), _ = am.jacobian_fd_matrix(aut, ([z], np.zeros((1, m))),
                                            h=1e-5)
            fd = np.linalg.det(J)
            worst = max(worst, abs(closed - fd))

    # block structure of the full finite-difference Jacobian at (z, 0)
    tr = am.make_fbh_map(Hf1, "translation", v=[[0.4 + 0.3j]])
    z = np.array([[0.3 + 0.1j]])
    (J,), _ = am.jacobian_fd_matrix(tr, (z, np.zeros((1, 2))), h=1e-5)
    off = float(np.max(np.abs(J[:1, 1:])))
    kv = tr.fiber_factor(z)[0]
    lower = float(np.max(np.abs(J[1:, 1:] - kv * np.eye(2))))
    ok = worst <= 1e-6 and off <= 1e-8 and lower <= 1e-8
    report("A7", ok, f"closed-form vs FD Jacobians: diff {worst:.3e} (<=1e-6); "
                     f"off-block {off:.2e}, fiber block {lower:.2e} (<=1e-8)")
    assert ok


def test_a8_mobius_genus_relation():
    rng = np.random.default_rng(8)
    worst = 0.0
    for domain in (DISK, bl.unit_ball(2)):
        H = HartogsDomain(domain, bl.generic_norm_weight(domain, 1.0), 1)
        g = domain.genus
        count = 0
        while count < 50:
            a = (rng.uniform(-1, 1, domain.dim)
                 + 1j * rng.uniform(-1, 1, domain.dim))
            if math.sqrt(float(np.sum(np.abs(a) ** 2))) >= 0.9:
                continue
            mob = am.make_ch_map(H, [a])
            dj = mob.base_jacobian(np.asarray([a], dtype=complex))[0]
            nval = bl.generic_norm(domain, [a], [a])[0].real
            worst = max(worst, abs(abs(dj) ** 2 * nval ** g - 1.0))
            count += 1
    ok = worst <= 1e-12
    report("A8", ok, f"|det J(phi_a, a)|^2 N(a,a)^g = 1: defect {worst:.3e} "
                     f"(<=1e-12), disk and ball n=2, 50 centers each")
    assert ok


def test_a9_moment_discrimination():
    w1 = bl.unit_mass_weight(bl.generic_norm_weight(DISK, 1.0))
    w2 = bl.unit_mass_weight(bl.generic_norm_weight(DISK, 2.0))
    distinct = ch.moment_mismatch(w1, w2, 8).norm
    same = ch.moment_mismatch(w1, w1, 8).norm
    ok = distinct > 0.1 and same <= 1e-12
    report("A9", ok, f"unit-mass moment mismatch: distinct weights "
                     f"{distinct:.4f} (>0.1), identical {same:.1e} (<=1e-12)")
    assert ok


def test_a10_weight_recovery():
    w = bl.polynomial_weight(DISK, [1.0, -2.0, 1.0])  # (1 - t)^2
    rec = ch.recover_weight(ch.moment_table(w, 6), ridge=0.0)
    got = np.zeros(7)
    coeffs = np.asarray(rec.weight.form.coefficients)
    got[:coeffs.size] = coeffs
    ref = np.zeros(7)
    ref[:3] = [1.0, -2.0, 1.0]
    err = float(np.max(np.abs(got - ref)))
    ok = err <= 1e-8
    report("A10", ok, f"(1-t)^2 recovered from d=6 moments, ridge 0: "
                      f"coefficient error {err:.3e} (<=1e-8)")
    assert ok


def test_a11_fbh_characterization(perturbed_gaussian_weight):
    t0 = time.perf_counter()
    good = ch.characterize_fbh(bl.gaussian_weight(1, 1.0), 1, 1.0, 20)
    c_err = abs(good.c - 1.0 / math.pi)
    bad = ch.characterize_fbh(perturbed_gaussian_weight, 1, 1.0, 20)
    elapsed = time.perf_counter() - t0
    ok = (good.verdict == "match" and c_err <= 1e-9
          and bad.verdict == "mismatch" and bad.max_deviation > 1e-3
          and elapsed < 5.0)
    report("A11", ok, f"Gaussian: {good.verdict}, |c - 1/pi| = {c_err:.2e} "
                      f"(<=1e-9); perturbed: {bad.verdict}, deviation "
                      f"{bad.max_deviation:.2e} (>1e-3); {elapsed:.2f}s (<5s)")
    assert good.verdict == "match" and c_err <= 1e-9
    assert bad.verdict == "mismatch" and bad.max_deviation > 1e-3
    assert elapsed < 5.0


def test_a12_cartan_hartogs_characterization():
    good = ch.characterize_ch(bl.generic_norm_weight(DISK, 1.0), 1, 1.0, 30)
    q_bad = bl.polynomial_weight(DISK, list(np.convolve([1.0, -1.0],
                                                        [1.0, 0.2])))
    bad = ch.characterize_ch(q_bad, 1, 1.0, 30)
    ok = (good.verdict == "match" and bad.verdict == "mismatch"
          and bad.max_deviation > 1e-3)
    report("A12", ok, f"(1-|z|^2): {good.verdict} with c = {good.c:.6f} "
                      f"(kernel exponent -3); perturbed: {bad.verdict}, "
                      f"deviation {bad.max_deviation:.2e} (>1e-3)")
    assert good.verdict == "match"
    assert bad.verdict == "mismatch" and bad.max_deviation > 1e-3


def test_a13_boundary_inequality(perturbed_gaussian_weight):
    rng = np.random.default_rng(13)
    samples = [[complex(x, y)] for x, y in rng.uniform(-1.5, 1.5, (60, 2))]
    good = ch.boundary_inequality_check(bl.gaussian_weight(1, 2.0), 2.0,
                                        samples)
    bad = ch.boundary_inequality_check(perturbed_gaussian_weight, 1.0,
                                       samples)
    ok = (good.verdict == "equality" and good.max_residual <= 1e-12
          and bad.verdict == "violated")
    report("A13", ok, f"Gaussian: {good.verdict}, residual "
                      f"{good.max_residual:.2e} (<=1e-12); inflated weight: "
                      f"{bad.verdict}")
    assert good.verdict == "equality" and good.max_residual <= 1e-12
    assert bad.verdict == "violated"


def test_a14_family_condition():
    Hf = HartogsDomain(C1, bl.gaussian_weight(1, 1.0), 1)
    maps = [am.make_fbh_map(Hf, "translation", v=[[v]])
            for v in (0.3 + 0.2j, -0.5j, 0.7, 0.2 - 0.6j, 0.45 + 0.45j)]
    maps.append(am.make_fbh_map(Hf, "base_unitary", matrix=[[np.exp(0.9j)]]))
    maps.append(am.make_fbh_map(Hf, "fiber_unitary", matrix=[[np.exp(-0.4j)]]))
    rep_fbh = ch.family_condition_check(Hf, maps, 24, tol=1e-9)

    Ht = HartogsDomain(DISK, bl.generic_norm_weight(DISK, 1.0), 1)
    rng = np.random.default_rng(14)
    tmaps = [am.thullen_mobius(Ht, a)
             for a in interior_disk_points(rng, 6, 0.6)]
    rep_th = ch.family_condition_check(Ht, tmaps, 34, tol=1e-9)

    ok = rep_fbh.passed and rep_th.passed
    report("A14", ok, f"family condition: FBH generators deviation "
                      f"{rep_fbh.max_relative_deviation:.3e}, Thullen "
                      f"{rep_th.max_relative_deviation:.3e} (<=1e-9)")
    assert rep_fbh.passed
    assert rep_th.passed


def test_a15_determinism(tmp_path):
    configs = [
        ["frc-check", "--pairs", "40", "--seed", "2026",
         "--tolerance", "1e-8"],
        ["characterize-fbh", "--mu", "1", "--m", "1", "--weight",
         "gaussian:1", "--degree", "20", "--seed", "0"],
        ["gram", "--domain", "disk", "--weight", "npower:1", "--degree", "5",
         "--method", "montecarlo", "--samples", "5000", "--seed", "3"],
    ]
    ok = True
    for args in configs:
        outs = []
        for threads in ("1", "4"):
            proc = subprocess.run([sys.executable, "-m", "bergmanlab.cli",
                                   *args],
                                  capture_output=True, cwd=str(tmp_path),
                                  env=child_env(threads))
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            outs.append(proc.stdout)
        # same configuration, two fresh processes at 1 and 4 BLAS threads
        ok = ok and outs[0] == outs[1]
    report("A15", ok, "byte-identical reports across repeated runs and "
                      "thread counts (frc-check, characterize-fbh, "
                      "Monte Carlo gram)")
    assert ok
