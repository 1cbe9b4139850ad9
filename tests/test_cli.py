import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergmanlab as bl
from bergmanlab import cli, jsonio
from bergmanlab.cli import main, parse_domain, parse_weight, load_config, ConfigError
from bergmanlab.moments import domain_from_json

from conftest import child_env, dense_kernel, kernel_at


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDescriptors:
    def test_domains(self):
        assert parse_domain("disk") == bl.unit_disk()
        assert parse_domain("ball:3") == bl.unit_ball(3)
        assert parse_domain("typei:2x2") == bl.matrix_ball(2, 2)
        assert parse_domain("cn:2") == bl.full_space(2)
        with pytest.raises(ConfigError):
            parse_domain("cube")

    def test_weights(self):
        c1 = bl.full_space(1)
        w = parse_weight("gaussian:2", c1)
        assert bl.weight_eval(w, [[0]])[0] == 1.0
        w = parse_weight("npower:1.5", bl.unit_disk())
        assert bl.weight_eval(w, [[0.5]])[0] == pytest.approx(0.75 ** 1.5)
        w = parse_weight("poly:1,-1", bl.unit_disk())
        assert bl.weight_eval(w, [[0.5]])[0] == pytest.approx(0.75)
        w = parse_weight("scaled:2:poly:1", bl.unit_disk())
        assert bl.weight_eval(w, [[0.1]])[0] == pytest.approx(2.0)


    @pytest.mark.parametrize("spec,domain", [
        ("gaussian:1", "disk"), ("gaussian:0.5", "ball:2"),
        ("scaled:2:gaussian:1", "typei:2x2"),
    ])
    def test_a_gaussian_on_a_bounded_domain_is_refused(self, spec, domain):
        with pytest.raises(ConfigError) as exc:
            parse_weight(spec, parse_domain(domain))
        inner = spec.rpartition("scaled:2:")[2]
        assert str(exc.value) == (f"weight descriptor {inner!r} is a "
                                  f"Gaussian weight, which lives on C^n, not "
                                  f"on the bounded --domain {domain}")


@pytest.mark.parametrize("argv", [
    ["gram", "--domain", "disk", "--weight", "gaussian:1"],
    ["recover-weight", "--domain", "disk", "--weight", "scaled:3:gaussian:1"],
    ["moment-mismatch", "--domain", "disk", "--weight", "gaussian:1",
     "--weight2", "npower:1"],
], ids=lambda argv: argv[0])
def test_a_gaussian_on_a_bounded_domain_is_a_config_error(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == ("config error: weight descriptor 'gaussian:1' is a "
                   "Gaussian weight, which lives on C^n, not on the bounded "
                   "--domain disk\n")


class TestConfig:
    def test_defaults_applied(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"weight": "gaussian:1"}))
        code, out, _ = run_cli(["characterize-fbh", "--config", str(cfg)], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["degree"] == 20  # default

    def test_unknown_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"degre": 20}))
        code, out, err = run_cli(["gram", "--config", str(cfg),
                                  "--domain", "disk", "--weight", "npower:1"],
                                 capsys)
        assert code == 2
        assert "degre" in err

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"degree": 20, "weight": "gaussian:1"}))
        code, out, _ = run_cli(["characterize-fbh", "--config", str(cfg),
                                "--degree", "25"], capsys)
        assert code == 0
        assert json.loads(out)["degree"] == 25

    def test_range_validation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"degree": 100}))
        with pytest.raises(ConfigError, match="degree"):
            load_config(cfg)
        cfg.write_text(json.dumps({"tolerance": -1.0}))
        with pytest.raises(ConfigError, match="tolerance"):
            load_config(cfg)
        cfg.write_text(json.dumps({"degree": "big"}))
        with pytest.raises(ConfigError, match="type"):
            load_config(cfg)

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["gram", "--help"], capsys)
        assert code == 0
        assert "Gram" in out or "gram" in out


class TestVerdictExitCodes:
    def test_characterize_fbh_match_exits_zero(self, capsys):
        code, out, _ = run_cli(
            ["characterize-fbh", "--mu", "1", "--m", "1",
             "--weight", "gaussian:1", "--degree", "20"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "match"

    def test_characterize_fbh_table_mismatch_exits_one(
            self, capsys, perturbed_gaussian_csv):
        code, out, _ = run_cli(
            ["characterize-fbh", "--mu", "1", "--m", "1",
             "--weight", f"table:{perturbed_gaussian_csv}",
             "--degree", "20"], capsys)
        assert code == 1
        assert json.loads(out)["verdict"] == "mismatch"

    def test_boundary_check_codes(self, capsys, perturbed_gaussian_csv):
        code, out, _ = run_cli(
            ["boundary-check", "--weight", "gaussian:2", "--mu", "2"], capsys)
        assert code == 0 and json.loads(out)["verdict"] == "equality"
        code, out, _ = run_cli(
            ["boundary-check", "--weight", f"table:{perturbed_gaussian_csv}",
             "--mu", "1"], capsys)
        assert code == 1 and json.loads(out)["verdict"] == "violated"

    def test_boundary_check_overflow_names_mu(self, capsys):
        code, out, err = run_cli(
            ["boundary-check", "--weight", "gaussian:1", "--mu", "400"],
            capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: --mu 400.0 ")
        assert "largest exponent" in lines[0]

    def test_moment_mismatch_codes(self, capsys):
        code, out, _ = run_cli(
            ["moment-mismatch", "--domain", "disk", "--weight", "npower:1",
             "--weight2", "npower:1", "--degree", "6"], capsys)
        assert code == 0 and json.loads(out)["verdict"] == "match"
        code, out, _ = run_cli(
            ["moment-mismatch", "--domain", "disk", "--weight", "npower:1",
             "--weight2", "npower:2", "--degree", "6", "--normalize"], capsys)
        assert code == 1 and json.loads(out)["verdict"] == "mismatch"

    def test_frc_and_family_pass(self, capsys):
        code, out, _ = run_cli(["frc-check", "--pairs", "15",
                                "--tolerance", "1e-8"], capsys)
        assert code == 0 and json.loads(out)["passed"]
        code, out, _ = run_cli(["family-check", "--family", "fbh",
                                "--degree", "24", "--tolerance", "1e-9"],
                               capsys)
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_frc_passes_over_seeds_with_repeatable_bytes(self, m, capsys):
        for seed in range(20):
            argv = ["frc-check", "--m", str(m), "--pairs", "40",
                    "--seed", str(seed)]
            code, out, _ = run_cli(argv, capsys)
            rep = strict_json(out)
            assert code == 0 and rep["passed"] and rep["converged"], seed
            assert run_cli(argv, capsys)[1] == out

    def test_frc_restriction_reference_does_not_truncate(self, capsys):
        # a degree-40 Gram series of (1 - |z|^2)^30 left 2.3e-8 here
        code, out, _ = run_cli(["frc-check", "--m", "30", "--pairs", "5"],
                               capsys)
        rep = strict_json(out)
        assert code == 0 and rep["passed"]
        assert rep["max_restriction_residual"] <= 1e-14

    def test_transform_and_jacobian(self, capsys):
        mapjson = '{"kind":"translation","v":[[0.4,0.3]],"mu":1.0}'
        code, out, _ = run_cli(
            ["transform-check", "--domain", "cn:1", "--weight", "gaussian:1",
             "--m", "1", "--map", mapjson, "--tolerance", "1e-9"], capsys)
        assert code == 0
        code, out, _ = run_cli(
            ["jacobian-check", "--domain", "disk", "--weight", "npower:1",
             "--m", "1", "--map", '{"kind":"mobius","a":[[0.3,0.0]],"mu":1.0}',
             "--tolerance", "1e-6"], capsys)
        assert code == 0

    def test_recover_weight(self, capsys):
        code, out, _ = run_cli(
            ["recover-weight", "--domain", "disk", "--weight", "poly:1,-2,1",
             "--degree", "6"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["residual"] <= 1e-10

    def test_lazy_power_weight_matches_like_its_closed_form(self, capsys):
        # (1 - t)^12 through the lazy power of poly:1,-1 is npower:12
        code, out, _ = run_cli(
            ["characterize-ch", "--domain", "disk", "--weight", "poly:1,-1",
             "--m", "12", "--mu", "1.0", "--degree", "30", "--rmax", "0.44",
             "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["max_deviation"] <= 1e-11

    @pytest.mark.parametrize("argv", [
        # C(3+64, 3) = 47905 monomials: a 34 GiB dense Gram matrix
        ["gram", "--domain", "ball:3", "--weight", "npower:1",
         "--degree", "64"],
        pytest.param(["gram", "--domain", "ball:3", "--weight", "npower:1",
                      "--degree", "64", "--method", "montecarlo"],
                     id="gram-montecarlo"),
        pytest.param(["moment-mismatch", "--domain", "ball:3", "--weight",
                      "npower:1", "--weight2", "npower:2", "--degree", "64"],
                     id="moment-mismatch"),
    ])
    def test_oversized_basis_is_a_config_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        found = re.fullmatch(r"error: degree (\d+) in (\d+) complex dimensions "
                             r"needs (\d+) monomials; a monomial basis may "
                             r"have at most 2145", lines[0])
        d, n, size = (int(g) for g in found.groups())
        assert size == math.comb(n + d, n) > 2145

    @pytest.mark.parametrize("argv", [
        pytest.param(["characterize-fbh", "--n", "3", "--weight", "gaussian:1",
                      "--degree", "64"], id="characterize-fbh"),
        pytest.param(["family-check", "--family", "fbh", "--n", "3",
                      "--degree", "64"], id="family-check"),
        pytest.param(["characterize-ch", "--domain", "ball:3", "--weight",
                      "npower:1", "--degree", "30"], id="characterize-ch"),
    ])
    def test_radial_verdicts_are_not_refused(self, capsys, argv):
        # a radial verdict reads the d + n moments, not the C(n+d, n)
        # monomials of a dense basis, however many those are
        code, out, _ = run_cli(argv, capsys)
        rep = strict_json(out)
        assert code == 0
        assert rep.get("verdict", "match") == "match"
        assert rep["degree"] == int(argv[-1])

    def test_frc_reports_the_first_pair_with_the_most_terms(self, capsys):
        for seed in range(3):
            code, out, _ = run_cli(["frc-check", "--pairs", "12",
                                    "--seed", str(seed)], capsys)
            rep = strict_json(out)
            assert code == 0
            assert rep["worst_pair_evaluation"]["terms_used"] == \
                rep["max_terms_used"]

    def test_usage_error_exits_two(self, capsys):
        code, _, err = run_cli(["gram", "--domain", "disk"], capsys)
        assert code == 2  # missing --weight
        code, _, err = run_cli(["gram", "--domain", "disk",
                                "--weight", "martian:1"], capsys)
        assert code == 2


# inputs whose arithmetic overflows or divides by zero
ARITHMETIC_FAILURES = [
    # (1+m)!/pi^(1+m) of the ball-kernel oracle overflows a float
    ["frc-check", "--m", "200", "--pairs", "2"],
    # mu^(k+1) underflows to 0: the moments k!/mu^(k+1) leave the float range
    ["gram", "--domain", "cn:1", "--weight", "gaussian:1e-320",
     "--degree", "3"],
    # the model coefficient a_46 = (e)_46/46! of N^(-e), e = 1e8 + 2,
    # overflows, while the moments and the series coefficients do not
    ["characterize-ch", "--weight", "scaled:1e300:npower:100000000",
     "--mu", "100000000", "--degree", "64"],
    # the model coefficient a_46 = s^46/46! of exp(s <z, w>), s = 1e8,
    # overflows, while the moments and the series coefficients do not
    ["characterize-fbh", "--n", "1", "--weight",
     "scaled:1e300:gaussian:100000000", "--mu", "100000000",
     "--degree", "64"],
    # the closed Jacobian k_v(z)^2 = exp(2000 <z, v> - ...) overflows
    ["jacobian-check", "--domain", "cn:1", "--weight", "gaussian:1000",
     "--m", "2", "--map", '{"kind": "translation", "v": [[0.5, 0.0]]}'],
    # exp(2000 <z, w>) overflows in the kernel grid of the sample points
    ["transform-check", "--domain", "cn:1", "--weight", "gaussian:1000",
     "--m", "2", "--map", '{"kind": "translation", "v": [[0.5, 0.0]]}'],
    # the Gaussian moments 1e300 * k!/0.001^(k+1) overflow from R_2 on
    ["kernel-eval", "--domain", "cn:1", "--weight",
     "scaled:1e300:gaussian:0.001", "--degree", "4", "--grid", "2"],
]


# a NumPy warning on stderr would precede the error line, but pytest keeps
# warnings from capsys: turned into errors, they fail the test instead
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", ARITHMETIC_FAILURES,
                         ids=[a[0] for a in ARITHMETIC_FAILURES])
def test_arithmetic_failure_is_an_error_not_a_verdict(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_kernel_grid_that_overflows_is_refused_by_form(tmp_path, fmt):
    # exp(800 <z, w>) leaves the float range at z = w = 1: one error line
    # naming the kernel form and the overflow, with no numpy warning before
    # it on the stderr of a fresh process (a CSV report held inf and NaN
    # cells and exited 0)
    proc = subprocess.run(
        [sys.executable, "-m", "bergmanlab.cli", "kernel-eval", "--kernel",
         '{"form":"fock","mu":800,"n":1}', "--grid", "2", "--radius", "1",
         "--format", fmt],
        capture_output=True, text=True, env=child_env("1"),
        cwd=str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the fock kernel is not finite on these "
                           "points (overflow encountered in exp)\n")


@pytest.mark.parametrize("flags,flag", [
    (["--n", "3"], "--n 3"), (["--m", "2"], "--m 2"),
    (["--n", "1", "--m", "4"], "--m 4")])
def test_thullen_family_refuses_other_dimensions(capsys, tmp_path, flags,
                                                 flag):
    """The Thullen domain is the disk with one fiber dimension; another
    --n or --m, by flag or config key, is refused by name."""
    argv = ["family-check", "--family", "thullen", "--degree", "30"]
    code, out, err = run_cli(argv + flags, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {flag}: the thullen family is "
                          "fixed at n = m = 1")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({flags[-2][2:]: int(flags[-1])}))
    assert run_cli(argv + ["--config", str(config)], capsys)[:2] == (2, "")
    ok = run_cli(argv + ["--n", "1", "--m", "1"], capsys)
    assert ok[0] == 0 and ok[1] == run_cli(argv, capsys)[1]


@pytest.mark.parametrize("m", ["170", "171", "100000000000"])
def test_frc_check_refuses_a_fiber_dimension_past_the_float_range(capsys, m):
    code, out, err = run_cli(["frc-check", "--m", m, "--pairs", "3"], capsys)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: --m {m}: the ball oracle's constant "
                        r"\(m\+1\)!/pi\^\(m\+1\) [^\n]*float range[^\n]*"
                        r"--m up to 169\n", err)


def test_frc_check_at_m_169_keeps_its_partial_sum_refusal(capsys):
    code, out, err = run_cli(["frc-check", "--m", "169", "--pairs", "3"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == "error: a fiber-series partial sum leaves the float range\n"


# characterizations whose only sample point is the origin, where c is fitted
ORIGIN_ONLY = [
    (["characterize-ch", "--domain", "disk", "--weight", "poly:1,-0.5",
      "--degree", "8", "--rmax", "0", "--npts", "5"], "rmax"),
    (["characterize-ch", "--domain", "disk", "--weight", "poly:1,-0.5",
      "--degree", "8", "--npts", "1"], "npts"),
    (["characterize-fbh", "--n", "1", "--weight", "gaussian:1", "--mu", "2",
      "--degree", "8", "--rmax", "0"], "rmax"),
    (["characterize-fbh", "--n", "1", "--weight", "gaussian:1", "--mu", "2",
      "--degree", "8", "--npts", "1"], "npts"),
]


@pytest.mark.parametrize("argv,key", ORIGIN_ONLY,
                         ids=[f"{a[0]}-{k}" for a, k in ORIGIN_ONLY])
def test_a_characterization_at_the_origin_alone_is_refused(capsys, argv,
                                                           key):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: {key} = [^\n]*origin, where c is fitted"
                        rf"[^\n]*; {key} must be [^\n]*\n", err)


@pytest.mark.parametrize("argv,key", [
    (["characterize-ch", "--weight", "npower:1", "--rmax", "0"], "rmax"),
    (["characterize-ch", "--weight", "npower:1", "--npts", "1"], "npts"),
    (["characterize-fbh", "--weight", "gaussian:1", "--rmax", "0"], "rmax"),
    (["characterize-fbh", "--weight", "gaussian:1", "--npts", "1"], "npts"),
    (["characterize-fbh", "--weight", "gaussian:1", "--npts", "1025"],
     "npts"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
def test_a_sample_that_shows_nothing_is_refused_before_the_gram(
        capsys, monkeypatch, argv, key):
    # model weights match without drawing their sample, yet the sample's
    # flags are refused first, whatever the verdict would be
    from bergmanlab import characterize

    def no_gram(*args):
        raise AssertionError("a Gram was formed")

    monkeypatch.setattr(characterize, "gram_exact", no_gram)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} = ")


@pytest.mark.parametrize("domain", ["disk", "ball:2"])
@pytest.mark.parametrize("rmax", ["1", "1.0", "1.5", "1e300"])
def test_a_characterization_past_the_unit_ball_is_refused(capsys, domain,
                                                           rmax, monkeypatch):
    # the draws would reach the boundary, where the kernels blow up, or
    # leave the ball; refused before a point is drawn
    from bergmanlab import characterize

    def no_draw(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(characterize, "sample_ball", no_draw)
    code, out, err = run_cli(["characterize-ch", "--domain", domain,
                              "--weight", "npower:1", "--degree", "8",
                              "--rmax", rmax, "--npts", "5"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: rmax = {re.escape(repr(float(rmax)))} lets "
                        r"sample points reach the boundary of the unit "
                        r"ball[^\n]*; rmax must be < 1\n", err)


def test_a_radius_just_inside_the_unit_ball_still_gives_a_verdict(capsys):
    # the coefficients decide: the model weight matches whatever the
    # radius, and a non-model weight draws its witness pair from inside it
    argv = ["characterize-ch", "--domain", "disk", "--degree", "8",
            "--rmax", "0.999", "--npts", "5"]
    code, out, err = run_cli(argv + ["--weight", "npower:1"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] == "match"
    code, out, err = run_cli(argv + ["--weight", "poly:1,-0.5"], capsys)
    assert code == 1 and err == ""
    rep = strict_json(out)
    assert rep["verdict"] == "mismatch"
    for key in ("z", "w"):
        (re_, im), = rep["witness"][key]
        assert abs(complex(re_, im)) < 0.999


def test_a_model_weight_past_the_sampled_tail_matches(capsys):
    # N^(-66) at degree 30 is far from its rank-30 truncation on the sample,
    # but its d + 1 coefficients are the model's
    code, out, err = run_cli(["characterize-ch", "--domain", "disk",
                              "--weight", "npower:1", "--m", "64",
                              "--degree", "30"], capsys)
    assert (code, err) == (0, "")
    rep = strict_json(out)
    assert rep["verdict"] == "match" and rep["max_deviation"] <= 1e-13


def test_a_tiny_radius_does_not_match_by_construction(capsys):
    # the sampled deviations shrink like rmax^2; the coefficients do not
    code, out, err = run_cli(["characterize-ch", "--domain", "disk",
                              "--weight", "poly:1,-0.5", "--degree", "8",
                              "--rmax", "1e-300", "--npts", "5"], capsys)
    assert (code, err) == (1, "")
    rep = strict_json(out)
    assert rep["verdict"] == "mismatch" and rep["max_deviation"] > 0.7
    assert rep["witness"]["k"] == 1


def test_two_sample_points_still_give_a_verdict(capsys):
    code, out, err = run_cli(ORIGIN_ONLY[1][0][:-1] + ["2"], capsys)
    assert code == 1 and err == ""
    assert json.loads(out)["verdict"] == "mismatch"


# counts past what one draw or one verdict grid may hold
OVERSIZED_COUNTS = [
    (["frc-check", "--pairs", "1000000000"], "pairs"),
    (["characterize-ch", "--weight", "npower:1", "--npts", "1000000000"],
     "npts"),
    (["characterize-fbh", "--weight", "gaussian:1", "--npts", "1025"], "npts"),
    (["boundary-check", "--weight", "gaussian:1", "--samples", "1000000000"],
     "samples"),
    (["family-check", "--points", "1000000000"], "points"),
    (["jacobian-check", "--domain", "disk", "--weight", "npower:1", "--map",
      '{"kind": "mobius", "a": [[0.1, 0.0]]}', "--points", "1000000000"],
     "points"),
]


@pytest.mark.parametrize("argv,key", OVERSIZED_COUNTS,
                         ids=[a[0] for a, _ in OVERSIZED_COUNTS])
def test_an_oversized_count_is_refused_by_name(capsys, argv, key):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: {key} = \d+ [^\n]*MAX_\w+ = \d+[^\n]*\n",
                        err)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelEvalPairBound:
    """kernel-eval refuses more than MAX_EVAL_PAIRS (z, w) pairs by name,
    before its grid, its table or its report is built."""

    def test_an_oversized_grid_is_refused(self, capsys):
        # 200 000 grid points: 1.6 MB of abscissae, a 640 GB table
        code, peak = _traced_peak(lambda: main(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "4", "--grid", "200000"]))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: 200000 z and 200000 w points make 40000000000 "
                       "pairs; kernel-eval evaluates at most MAX_EVAL_PAIRS "
                       "= 1048576\n")
        assert peak < 2 ** 20

    def test_an_oversized_points_file_is_refused(self, capsys, tmp_path):
        # 1025 x 1025 pairs, one past the bound: a 16.8 MB table
        rng = np.random.default_rng(0)
        pts = [[[float(x), float(y)]] for x, y in rng.uniform(-0.5, 0.5,
                                                               (1025, 2))]
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"z": pts, "w": pts}))
        code, peak = _traced_peak(lambda: main(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "4", "--points-file", str(path)]))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: 1025 z and 1025 w points make 1050625 "
                            r"pairs; [^\n]*MAX_EVAL_PAIRS = 1048576\n", err)
        assert peak < 4 * 2 ** 20


class TestManyDimensions:
    """pi^n overflows from n = 621 and the factorial ratio of the shell
    factor leaves the normal float range from n = 172: such values are
    formed in log space, and one outside the float range is named."""

    def test_shell_factor_below_the_float_range_is_named(self, capsys):
        code, out, err = run_cli(["gram", "--domain", "ball:1500", "--weight",
                                  "poly:1,-1", "--degree", "1"], capsys)
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: the shell factor pi\^n "
                            r"alpha!/\(\|alpha\|\+n-1\)! at n = 1500, "
                            r"\|alpha\| = 0 is exp\(-\d+\.\d\), below the "
                            r"float range\n", err)

    def test_shell_factor_past_the_factorial_range(self, capsys):
        # 1/199! is below the float range, pi^200/199! * R_199 is not
        code, out, _ = run_cli(["gram", "--domain", "ball:200", "--weight",
                                "poly:1,-1", "--degree", "1"], capsys)
        assert code == 0
        diagonal = json.loads(out)["diagonal"]
        import mpmath as mp
        with mp.workdps(30):
            for i, top in ((0, 199), (1, 200)):
                # pi^n alpha!/(|alpha|+n-1)! * integral s^top (1 - s) ds
                ref = (mp.pi ** 200 / mp.factorial(top)
                       / ((top + 1) * (top + 2)))
                got = diagonal[i]
                assert abs(float((got - ref) / ref)) <= 1e-12
        # every factor is formed in log space, bit for bit the per-monomial
        # formula
        R = bl.gram_exact(parse_weight("poly:1,-1", bl.unit_ball(200)),
                          1).moments
        assert diagonal == [bl.moments._shell_factor(a) * R[sum(a) + 199]
                            for a in bl.multiindex_enumerate(200, 1)]

    def test_generic_norm_moments_past_the_factorial_range(self, capsys):
        # R_199 and R_200 need 199! and 200!, beyond the float range
        code, out, _ = run_cli(["gram", "--domain", "ball:200", "--weight",
                                "npower:1", "--degree", "1"], capsys)
        assert code == 0
        diagonal = json.loads(out)["diagonal"]
        import mpmath as mp
        with mp.workdps(30):
            for i, top in ((0, 199), (1, 200)):
                # pi^n alpha!/(|alpha|+n-1)! * B(top + 1, 2)
                ref = mp.pi ** 200 / mp.factorial(top) * mp.beta(top + 1, 2)
                got = diagonal[i]
                assert abs(float((got - ref) / ref)) <= 1e-11

    def test_characterize_past_the_factorial_range_is_named(self, capsys):
        # the moments exist; c_0 = 299!/(pi^300 R_299) does not
        code, out, err = run_cli(["characterize-ch", "--domain", "ball:300",
                                  "--weight", "npower:1", "--degree", "4"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: the radial series coefficient c_0 = ")
        assert len(err.splitlines()) == 1

    def test_deviation_from_an_unrepresentable_c_reference(self, capsys):
        # poly:1,-1 is the model weight N^1: c = 5.9e277 times the model's
        # coefficients, a match
        code, out, err = run_cli(["characterize-ch", "--domain", "ball:200",
                                  "--weight", "poly:1,-1", "--degree", "2"],
                                 capsys)
        assert (code, err) == (0, "")
        rep = strict_json(out)
        assert rep["verdict"] == "match" and 5e277 < rep["c"] < 6e277
        assert rep["max_deviation"] <= 1e-12
        # c = 5.8e275 and c * R overflows on the sample grid of the
        # mismatch's witness; K/(c R) does not
        code, out, err = run_cli(["characterize-ch", "--domain", "ball:200",
                                  "--weight", "poly:1,-0.5", "--degree", "2"],
                                 capsys)
        assert (code, err) == (1, "")
        rep = strict_json(out)
        assert rep["verdict"] == "mismatch" and 5e275 < rep["c"] < 6e275
        assert [c["name"] for c in rep["checks"]] == [
            "series_coefficient_proportionality",
            "kernel_proportionality_diagonal",
            "kernel_proportionality_offdiagonal"]
        assert all(math.isfinite(c["residual"]) for c in rep["checks"])

    def test_radial_coefficient_outside_the_float_range_is_named(self,
                                                                  capsys):
        code, out, err = run_cli(["characterize-ch", "--domain", "ball:400",
                                  "--weight", "poly:1,-1", "--degree", "2"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: the radial series coefficient c_0 = "
                              "(k+n-1)!/(pi^n k! R_(k+n-1)) at n = 400 is "
                              "exp(")
        assert len(err.splitlines()) == 1


class TestOutputs:
    def test_gram_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "disk", "--weight", "npower:1",
             "--degree", "3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,value"
        assert len(lines) == 1 + 4  # header + basis

    @pytest.mark.parametrize("argv,code", [
        (["gram", "--domain", "disk", "--weight", "npower:1"], 0),
        (["moment-mismatch", "--domain", "disk", "--weight", "npower:1",
          "--weight2", "npower:2"], 1),
    ])
    def test_matrix_csv_cells_are_plain_numbers(self, capsys, argv, code):
        got, out, _ = run_cli(argv + ["--degree", "2", "--format", "csv"],
                              capsys)
        assert got == code
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        for k, (i, value) in enumerate(rows):
            assert int(i) == k
            float(value)

    def test_kernel_grid_csv(self, capsys):
        code, out, _ = run_cli(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "10", "--grid", "10", "--radius", "0.5",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re(z),im(z),re(w),im(w),re(K),im(K)"
        assert len(lines) == 1 + 100

    def test_match_report_contains_verdict_text(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli(
            ["characterize-ch", "--domain", "disk", "--weight", "npower:1",
             "--mu", "1", "--m", "1", "--degree", "30",
             "--out", str(out_path)], capsys)
        assert code == 0
        assert '"verdict": "match"' in out_path.read_text()

    def test_csv_unsupported_for_verdicts(self, capsys):
        code, _, err = run_cli(
            ["characterize-fbh", "--weight", "gaussian:1",
             "--format", "csv"], capsys)
        assert code == 2
        assert "CSV" in err or "csv" in err

    def test_gram_round_trip_through_json(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "disk", "--weight", "npower:1",
             "--degree", "8", "--method", "quadrature"], capsys)
        obj = json.loads(out)
        G1 = bl.gram_quadrature(bl.generic_norm_weight(bl.unit_disk(), 1.0), 8)
        # the dense matrix rebuilt from the report, through the dense
        # monomial oracle
        matrix = np.diag(obj["diagonal"]).astype(complex)
        assert len(obj["moments"]) == 9 and obj["moments"] == \
            G1.moments.tolist()
        K1 = bl.kernel_from_gram(G1)
        K2 = dense_kernel(G1, matrix)
        for z in (0.1, 0.4 - 0.2j, 0.55j):
            a, b = kernel_at(K1, [z], [z]), kernel_at(K2, [z], [z])
            assert abs(a - b) <= 1e-15 * abs(a)

    @pytest.mark.parametrize("argv", [
        ["--domain", "ball:2", "--weight", "npower:1.3", "--degree", "6",
         "--method", "quadrature"],
        ["--domain", "ball:3", "--weight", "poly:1,0.5", "--degree", "4"],
        ["--domain", "cn:2", "--weight", "gaussian:1.5", "--degree", "5"],
    ], ids=lambda argv: argv[1])
    def test_report_diagonal_rebuilds_the_dense_oracle(self, capsys, argv):
        # np.diag of the reported diagonal through the dense monomial
        # oracle gives the radial series kernel of the same Gram
        code, out, _ = run_cli(["gram", *argv], capsys)
        assert code == 0
        obj = json.loads(out)
        domain = parse_domain(argv[1])
        weight = parse_weight(argv[3], domain)
        gram = (bl.gram_quadrature if "quadrature" in argv
                else bl.gram_exact)(weight, int(argv[5]))
        n = domain.dim
        assert obj["diagonal"] == gram.diagonal.tolist()
        assert obj["moments"] == gram.moments[n - 1:].tolist()
        assert len(obj["moments"]) == gram.degree + 1
        oracle = dense_kernel(gram, np.diag(obj["diagonal"]).astype(complex))
        series = bl.kernel_from_gram(gram)
        z = np.full((1, n), 0.3 - 0.1j) / math.sqrt(n)
        w = np.full((1, n), -0.2 + 0.25j) / math.sqrt(n)
        a, b = kernel_at(series, z, w), kernel_at(oracle, z, w)
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_montecarlo_report_is_strict_json_with_its_moments(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "ball:3", "--weight", "npower:1",
             "--degree", "4", "--method", "montecarlo", "--samples", "3000"],
            capsys)
        assert code == 0
        obj = strict_json(out)
        assert len(obj["moments"]) == len(obj["stderr"]) == 4 + 1
        assert all(math.isfinite(v) for v in obj["moments"])
        assert len(obj["diagonal"]) == math.comb(3 + 4, 3)

    def test_montecarlo_report_checks_its_moments_against_the_exact(
            self, capsys):
        # the largest |R^_j - R_j| / se_j and its j, the moments and the
        # standard errors of the library's routes; the exit code is 0
        code, out, _ = run_cli(
            ["gram", "--domain", "disk", "--weight", "npower:1.407",
             "--degree", "5", "--method", "montecarlo", "--samples",
             "27000", "--seed", "901"], capsys)
        assert code == 0
        weight = bl.generic_norm_weight(bl.unit_disk(), 1.407)
        G = bl.gram_montecarlo(weight, 5, 27_000, 901)
        ratio = np.abs(G.moments - bl.gram_exact(weight, 5).moments) \
            / G.stderr
        assert strict_json(out)["exact_check"] == {
            "j": int(np.argmax(ratio)), "max_se_ratio": float(ratio.max())}
        assert strict_json(out)["exact_check"]["j"] == 1

    @pytest.mark.parametrize("argv,check", [
        # f = w / dens is constant at k = 0 under a Gaussian weight's own
        # proposal, so se is 0; the 20 000 values sum to R_0 = 1 exactly,
        # the 1 000 values to 1 + 2 ulp
        (["--domain", "cn:1", "--weight", "gaussian:1", "--degree", "0",
          "--samples", "20000"], {"j": 0, "max_se_ratio": 0.0}),
        (["--domain", "cn:1", "--weight", "gaussian:1", "--degree", "0",
          "--samples", "1000"], {"j": 0, "max_se_ratio": "inf"}),
        # one sample states se 0 for an estimate that is not the moment
        (["--domain", "ball:2", "--weight", "npower:1", "--degree", "1",
          "--samples", "1"], {"j": 1, "max_se_ratio": "inf"}),
    ], ids=["equal", "roundoff", "one-sample"])
    def test_a_moment_of_se_zero_is_compared_exactly(self, capsys, argv,
                                                      check):
        code, out, _ = run_cli(["gram", *argv, "--method", "montecarlo"],
                               capsys)
        assert code == 0 and strict_json(out)["exact_check"] == check

    def test_an_exact_refusal_is_named_by_the_check(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "ball:2", "--weight", "poly:1,-1",
             "--m", "300000", "--degree", "30", "--method", "montecarlo",
             "--samples", "1000"], capsys)
        assert code == 0
        assert strict_json(out)["exact_check"] == {
            "refused": "the moments R_0..R_31 need a 32 x 150016 table of "
                       "node powers; it may hold at most 4601025 numbers"}

    def test_only_montecarlo_reports_check_against_the_exact(self, capsys):
        for method in ("auto", "quadrature"):
            _, out, _ = run_cli(
                ["gram", "--domain", "disk", "--weight", "npower:1",
                 "--degree", "3", "--method", method], capsys)
            assert "exact_check" not in strict_json(out)

    @pytest.mark.parametrize("argv,size", [
        (["gram", "--domain", "ball:2", "--weight", "npower:1",
          "--degree", "5"], math.comb(2 + 5, 2)),
        (["moment-mismatch", "--domain", "ball:3", "--weight", "npower:1",
          "--weight2", "npower:2", "--degree", "3"], math.comb(3 + 3, 3)),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_csv_has_one_line_per_monomial(self, capsys, argv, size):
        _, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        lines = out.splitlines()
        assert lines[0] == "i,value" and len(lines) == 1 + size
        assert [line.split(",")[0] for line in lines[1:]] == \
            [str(i) for i in range(size)]

    def test_a_degree_64_report_is_small(self, capsys):
        # 2 145 values and 65 moments, not the 2 145^2 cells of the matrix
        code, out, _ = run_cli(["gram", "--domain", "ball:2", "--weight",
                                "npower:1.3", "--degree", "64"], capsys)
        assert code == 0 and len(out) < 200_000
        assert len(json.loads(out)["diagonal"]) == bl.gram_exact(
            parse_weight("npower:1.3", bl.unit_ball(2)), 64).size

    def test_gram_quadrature_method_block(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "ball:2", "--weight", "npower:1",
             "--degree", "2", "--method", "quadrature"], capsys)
        assert code == 0
        assert json.loads(out)["method"] == {
            "kind": "quadrature",
            "scheme": {"radial_nodes": 64, "fullspace_nodes": 96,
                       "table_nodes": 256, "tail_rtol": 1e-12}}

    def test_a_table_gram_is_exact(self, capsys, tmp_path):
        # a tabulated profile has exact moments: the auto and exact
        # methods are one route, and the report says so
        table = tmp_path / "table.csv"
        table.write_text("t,value\n" + "".join(
            f"{k / 10!r},{math.exp(-k / 10)!r}\n" for k in range(13)))
        outs = []
        for method in ("auto", "exact"):
            code, out, err = run_cli(
                ["gram", "--domain", "disk", "--weight", f"table:{table}",
                 "--degree", "4", "--method", method, "--format", "json"],
                capsys)
            assert (code, err) == (0, "")
            assert json.loads(out)["method"] == {"kind": "exact"}
            outs.append(out)
        assert outs[0] == outs[1]

    def test_kernel_json_argument(self, capsys, tmp_path):
        kj = json.dumps(bl.kernel_to_json(bl.FockKernel(1.0, 1)))
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"z": [[0.0, 0.0]], "w": [[1.0, 0.0]]}))
        code, out, _ = run_cli(
            ["kernel-eval", "--kernel", kj, "--points-file", str(pts)], capsys)
        assert code == 0
        val = json.loads(out)["values"][0]["K"]
        assert val[0] == pytest.approx(1.0)


# the cheapest verdict of each benchmark workload, a tabulated weight's
# among them, with the package modules its command does not run; "TABLE"
# stands for the path of a CSV table
NO_SCIPY_VERDICTS = {
    "characterize-ch": (["characterize-ch", "--domain", "disk", "--weight",
                         "npower:1", "--degree", "16"],
                        {"automorphisms", "hartogs"}),
    "frc-check": (["frc-check", "--m", "1", "--pairs", "50"],
                  {"automorphisms", "characterize"}),
    "gram-quadrature": (["gram", "--domain", "cn:1", "--weight", "gaussian:1",
                         "--degree", "10", "--method", "quadrature"],
                        {"automorphisms", "hartogs", "characterize"}),
    "recover-weight": (["recover-weight", "--domain", "disk", "--weight",
                        "table:TABLE", "--degree", "4"],
                       {"automorphisms", "hartogs"}),
}


@pytest.mark.parametrize("argv,unused", NO_SCIPY_VERDICTS.values(),
                         ids=NO_SCIPY_VERDICTS.keys())
def test_verdict_process_loads_no_scipy(tmp_path, argv, unused):
    # a fresh verdict process imports numpy and the standard library only,
    # and of the package only the modules its command runs
    table = tmp_path / "table.csv"
    table.write_text("t,value\n" + "".join(
        f"{k / 20!r},{(1 - k / 20) ** 2 * (1 + k / 40)!r}\n"
        for k in range(21)))
    argv = [a.replace("TABLE", str(table)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; "
         "from bergmanlab.cli import main; code = main(sys.argv[1:]); "
         "loaded = sorted(sys.modules); "
         "print(json.dumps([m for m in loaded if m.split('.')[0] == 'scipy']),"
         " json.dumps([m.split('.')[1] for m in loaded"
         " if m.startswith('bergmanlab.')]), sep='\\n', file=sys.stderr); "
         "sys.exit(code)", *argv],
        capture_output=True, env=child_env("1"), cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    scipy, package = proc.stderr.decode().splitlines()
    assert json.loads(scipy) == []
    loaded = set(json.loads(package))
    assert "moments" in loaded and not loaded & unused, loaded


# public names deleted because no command ran them, by defining module
REMOVED_NAMES = {
    "core": ("monomial_values",),
    "moments": ("moment_exact", "weight_mass", "quadrature_points_1d"),
    "kernels": ("fock_kernel", "power_kernel", "normalized_kernel",
                "reproducing_residual"),
    "hartogs": ("SeriesFamily", "frc_eval", "pochhammer"),
    "automorphisms": ("jacobian_fd",),
}


def test_every_public_name_resolves_to_its_module():
    for module, names in bl._EXPORTS.items():
        defining = importlib.import_module(f"bergmanlab.{module}")
        for name in names:
            assert getattr(bl, name) is vars(defining)[name], name
    assert set(bl.__all__) == set(bl._MODULE_OF) <= set(dir(bl))
    for module, names in REMOVED_NAMES.items():
        defining = importlib.import_module(f"bergmanlab.{module}")
        for name in names:
            assert not hasattr(bl, name) and not hasattr(defining, name)
    assert not hasattr(bl.RecoveredWeight, "eval_profile")


# help, every command's help and usage errors: the parser built for the
# invoked command alone answers as the parser of every command does
PARSER_CASES = ([["--help"], ["-h", "gram"], [], ["bogus"], ["--degree", "3"],
                 ["gram", "--bogus"], ["gram", "extra"],
                 ["gram", "--degree", "x"], ["gram", "--method", "nope"],
                 ["frc-check", "--pairs"], ["family-check", "--fam", "x"],
                 ["gram", "--he"], ["gram", "--degree=3", "--bogus=1"],
                 ["gram", "--degree", "3", "--", "x"]]
                + [[cmd, "--help"] for cmd in cli._COMMANDS])


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=[" ".join(a) or "empty" for a in PARSER_CASES])
def test_parser_of_one_command_answers_as_the_whole_table(capsys, argv):
    try:
        cli._build_parser().parse_args(argv)
        expected_code = None
    except SystemExit as exc:
        expected_code = int(exc.code or 0)
    expected = capsys.readouterr()
    assert expected_code is not None
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (expected_code, expected.out, expected.err)


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys):
        args = ["characterize-fbh", "--mu", "1", "--m", "1",
                "--weight", "gaussian:1", "--degree", "15", "--seed", "3"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_identical_bytes_across_thread_counts(self, tmp_path):
        args = [sys.executable, "-m", "bergmanlab.cli", "frc-check",
                "--pairs", "12", "--seed", "5", "--tolerance", "1e-8"]
        outs = []
        for threads in ("1", "4"):
            proc = subprocess.run(args, capture_output=True,
                                  env=child_env(threads), cwd=str(tmp_path))
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


# reports written by the bulk encoders: Grams of every route (closed-form,
# quadrature, Monte Carlo with its standard errors), moment differences, a
# kernel grid and small verdict reports
EMISSION_ARGV = [
    ["gram", "--domain", "disk", "--weight", "npower:1.5", "--degree", "12"],
    ["gram", "--domain", "disk", "--weight", "npower:1.5", "--degree", "12",
     "--format", "csv"],
    ["gram", "--domain", "ball:2", "--weight", "npower:1.3", "--degree", "16"],
    ["gram", "--domain", "ball:2", "--weight", "npower:1.3", "--degree", "16",
     "--format", "csv"],
    ["gram", "--domain", "cn:1", "--weight", "gaussian:1", "--degree", "30",
     "--method", "quadrature"],
    ["gram", "--domain", "ball:2", "--weight", "npower:0.5", "--degree", "6",
     "--method", "quadrature"],
    ["gram", "--domain", "ball:2", "--weight", "npower:0.5", "--degree", "6",
     "--method", "quadrature", "--format", "csv"],
    ["gram", "--domain", "cn:2", "--weight", "gaussian:1.5", "--degree", "5",
     "--method", "quadrature"],
    ["gram", "--domain", "cn:2", "--weight", "gaussian:1.5", "--degree", "5",
     "--method", "quadrature", "--format", "csv"],
    ["gram", "--domain", "disk", "--weight", "npower:1", "--degree", "5",
     "--method", "montecarlo", "--samples", "5000", "--seed", "3"],
    ["gram", "--domain", "ball:2", "--weight", "npower:1", "--degree", "3",
     "--method", "montecarlo", "--samples", "5000", "--format", "csv"],
    ["moment-mismatch", "--domain", "disk", "--weight", "poly:1,-2,1",
     "--weight2", "npower:3", "--degree", "8", "--normalize"],
    ["moment-mismatch", "--domain", "disk", "--weight", "poly:1,-2,1",
     "--weight2", "npower:3", "--degree", "8", "--normalize",
     "--format", "csv"],
    ["moment-mismatch", "--domain", "disk", "--weight", "poly:1,-2,1",
     "--weight2", "npower:3", "--degree", "12", "--normalize",
     "--format", "csv"],
    ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
     "--degree", "6", "--grid", "5", "--format", "csv"],
    ["frc-check", "--pairs", "3", "--seed", "2"],
    ["characterize-ch", "--domain", "ball:2", "--weight", "npower:1",
     "--degree", "8", "--npts", "5"],
]


def _value_lines(values):
    """The CSV lines "i,repr(value)" of a diagonal, with their header."""
    return ["i,value"] + [f"{i},{v!r}" for i, v in enumerate(values.tolist())]


@pytest.mark.parametrize("argv", EMISSION_ARGV, ids=" ".join)
def test_reports_are_the_reference_encodings(capsys, monkeypatch, argv):
    """The emitted bytes are those of json.dumps(sort_keys, indent=2) of the
    report, or of the per-monomial CSV join over (i, repr(value)) of a
    diagonal, computed here from the same report objects."""
    seen = {}
    value_rows = cli._value_rows
    emit = cli.emit_report

    def record_values(values):
        seen["diagonal"] = np.array(values)
        return value_rows(values)

    def record_emit(report, fmt, path, csv_rows=None):
        seen["report"] = report
        emit(report, fmt, path, csv_rows)

    monkeypatch.setattr(cli, "_value_rows", record_values)
    monkeypatch.setattr(cli, "emit_report", record_emit)
    code, out, err = run_cli(argv, capsys)
    assert code in (0, 1) and err == ""
    if "csv" not in argv:
        expected = json.dumps(seen["report"], sort_keys=True, indent=2,
                              allow_nan=False)
    elif "diagonal" in seen:
        expected = "\n".join(_value_lines(seen["diagonal"]))
    else:
        # a kernel grid: one line per value of the report
        expected = "\n".join(["re(z),im(z),re(w),im(w),re(K),im(K)"] + [
            ",".join(map(repr, (*v["z"][0], *v["w"][0], *v["K"])))
            for v in seen["report"]["values"]])
    assert out == expected + "\n"


def test_csv_gram_builds_no_json_report(capsys, monkeypatch):
    """A CSV gram writes the diagonal alone: neither the JSON report nor the
    spectrum of its diagnostics is computed, and the bytes are the
    per-monomial join of the Gram's diagonal."""
    def refuse(*args):
        raise AssertionError("called for a CSV report")

    monkeypatch.setattr(cli, "gram_validate", refuse)
    monkeypatch.setattr(cli, "gram_to_json", refuse)
    for method, extra in (("auto", []), ("quadrature", []),
                          ("montecarlo", ["--samples", "2000"])):
        argv = ["gram", "--domain", "disk", "--weight", "npower:1.5",
                "--degree", "6", "--method", method, *extra,
                "--format", "csv"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        weight = bl.generic_norm_weight(bl.unit_disk(), 1.5)
        gram = {"auto": lambda: bl.gram_exact(weight, 6),
                "quadrature": lambda: bl.gram_quadrature(weight, 6),
                "montecarlo": lambda: bl.gram_montecarlo(
                    weight, 6, 2000, 0)}[method]()
        assert out == "\n".join(_value_lines(gram.diagonal)) + "\n"


def test_json_radial_gram_factors_nothing(capsys, monkeypatch):
    """A gram's diagnostics are read off its diagonal, whatever its route:
    its JSON report computes no spectrum and no Cholesky factor."""
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was factored")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for method in ("auto", "exact", "quadrature", "montecarlo"):
        code, out, err = run_cli(
            ["gram", "--domain", "ball:2", "--weight", "npower:1.5",
             "--degree", "8", "--method", method, "--samples", "2000"],
            capsys)
        assert (code, err) == (0, "")
        assert strict_json(out)["diagnostics"]["cholesky_ok"] is True


def strict_json(text):
    """Parse JSON that must hold no NaN/Infinity literals."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestKernelEvalGrid:
    def test_values_equal_pairwise_eval_in_row_order(self, capsys, tmp_path):
        model = bl.weighted_kernel_closed_form(
            bl.generic_norm_weight(bl.unit_ball(2), 1.5))
        zs = [[[0.1, 0.2], [0.0, -0.3]], [[0.4, 0.0], [0.1, 0.1]]]
        ws = [[[-0.2, 0.1], [0.3, 0.0]], [[0.0, 0.0], [0.0, 0.5]],
              [[0.2, 0.2], [-0.1, 0.0]]]
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"z": zs, "w": ws}))
        code, out, _ = run_cli(
            ["kernel-eval", "--domain", "ball:2", "--weight", "npower:1.5",
             "--closed-form", "--points-file", str(pts)], capsys)
        assert code == 0
        values = strict_json(out)["values"]
        pairs = [(z, w) for z in zs for w in ws]
        assert len(values) == len(pairs)
        for entry, (z, w) in zip(values, pairs):
            assert entry["z"] == z and entry["w"] == w
            ref = model.scale * bl.generic_norm_power(
                bl.unit_ball(2), [[complex(*c) for c in z]],
                [[complex(*c) for c in w]], -(3 + 1.5))[0]
            assert abs(complex(*entry["K"]) - ref) <= 1e-13 * abs(ref)

    def test_grid_csv_holds_plain_numbers(self, capsys):
        code, out, _ = run_cli(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "10", "--grid", "3", "--radius", "0.5",
             "--format", "csv"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        axis = [-0.5, 0.0, 0.5]
        assert [(float(r[0]), float(r[2])) for r in rows] == \
            [(x, y) for x in axis for y in axis]
        assert all(float(r[1]) == 0.0 and float(r[3]) == 0.0 for r in rows)

    def test_weight_kernel_is_written_in_radial_form(self, capsys):
        code, out, _ = run_cli(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "12", "--grid", "3"], capsys)
        assert code == 0
        kernel = strict_json(out)["kernel"]
        assert kernel["form"] == "radial" and "coeff" not in kernel
        assert len(kernel["c"]) == 13
        assert kernel["c"][0] == pytest.approx(2 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("domain,weight,error", [
        # R_0 = 0
        ("disk", "poly:1,-2", "Gram diagonal is not strictly positive"),
        # scale * R_2 = 1e300 * 2e9 overflows
        ("cn:1", "scaled:1e300:gaussian:0.001",
         "the moment R_2 of 1e+300*exp(-0.001|z|^2) is exp(712.2), outside "
         "the float range"),
    ], ids=["zero", "infinite"])
    def test_bad_moments_are_refused_by_name(self, capsys, domain, weight,
                                             error):
        code, out, err = run_cli(
            ["kernel-eval", "--domain", domain, "--weight", weight,
             "--degree", "4", "--grid", "2"], capsys)
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [f"error: {error}"]

    @pytest.mark.parametrize("c", ["[1, -1]", "[1, 2, 3]"])
    def test_radial_kernel_json_is_checked(self, capsys, c):
        kernel = ('{"form": "radial", "domain": {"kind": "disk", "dim": 1}, '
                  f'"degree": 1, "c": {c}}}')
        code, out, err = run_cli(["kernel-eval", "--kernel", kernel,
                                  "--grid", "2"], capsys)
        assert code == 2 and out == ""
        assert "radial series" in err and "Traceback" not in err

    def test_empty_point_lists(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"z": [], "w": [[0.1, 0.0]]}))
        code, out, _ = run_cli(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "6", "--points-file", str(pts)], capsys)
        assert code == 0
        assert strict_json(out)["values"] == []

    def test_points_of_the_wrong_dimension(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"z": [[[0.1, 0.0], [0.2, 0.0]]],
                                   "w": [[0.1, 0.0]]}))
        code, _, err = run_cli(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "6", "--points-file", str(pts)], capsys)
        assert code == 2
        assert "C^1" in err


def _exp_table(path, t_max, step):
    """CSV table of e^(-t) on [0, t_max]."""
    ts = np.arange(0.0, t_max + step / 2, step)
    path.write_text("t,value\n" + "".join(
        f"{t!r},{math.exp(-t)!r}\n" for t in ts.tolist()))
    return str(path)


class TestTabulatedFullSpace:
    def _tail(self, capsys, table, c, m):
        """Exit code and reported log relative tail (None on success) of
        the quadrature Gram of c * table^m on C^1 at degree 10."""
        code, _, err = run_cli(
            ["gram", "--domain", "cn:1", "--weight", f"scaled:{c}:table:{table}",
             "--m", str(m), "--degree", "10", "--method", "quadrature"],
            capsys)
        found = re.search(r"relative tail exp\((\S+)\)", err)
        return code, float(found.group(1)) if found else None

    def test_tail_check_ignores_the_scale(self, capsys, tmp_path):
        table = _exp_table(tmp_path / "exp40.csv", 40.0, 0.1)
        for m, expect in ((1, (2, -17.9)), (2, (0, None))):
            for c in ("1e-8", "1", "1e8"):
                assert self._tail(capsys, table, c, m) == expect, (c, m)

    def test_tail_check_follows_the_power(self, capsys, tmp_path):
        # e^(-mt) decays faster for larger m, so its relative tail is smaller
        table = _exp_table(tmp_path / "exp20.csv", 20.0, 0.1)
        code1, tail1 = self._tail(capsys, table, "1", 1)
        code2, tail2 = self._tail(capsys, table, "1", 2)
        assert code1 == code2 == 2
        assert tail2 < tail1

    def test_base_unitary_on_a_tabulated_target(self, capsys, tmp_path):
        table = _exp_table(tmp_path / "exp100.csv", 100.0, 0.25)
        for kind in ("base_unitary", "fiber_unitary"):
            code, out, err = run_cli(
                ["transform-check", "--domain", "cn:1", "--weight",
                 f"table:{table}", "--m", "1", "--map",
                 json.dumps({"kind": kind, "matrix": [[0.6, 0.8]]})], capsys)
            assert code == 0, err
            assert strict_json(out)["max_rel_residual"] <= 1e-14


class TestJsonArguments:
    """JSON files that hold something other than an object are
    configuration errors (exit 2), not tracebacks."""

    @pytest.fixture
    def list_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[[0.1, 0.0]]")
        return str(path)

    def test_points_file_list(self, capsys, list_file, tmp_path):
        scalar_z = tmp_path / "scalar-z.json"
        scalar_z.write_text('{"z": 1, "w": []}')
        object_z = tmp_path / "object-z.json"
        object_z.write_text('{"z": [{"re": 1}], "w": []}')
        for path, message in ((list_file, "JSON object"),
                              (str(scalar_z), "list of points"),
                              (str(object_z), "numbers")):
            code, _, err = run_cli(
                ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
                 "--degree", "6", "--points-file", path], capsys)
            assert code == 2
            assert message in err and "Traceback" not in err

    def test_scaled_kernel_form_is_unknown(self, capsys):
        kernel = {"form": "scaled", "scale": 2.0,
                  "inner": {"form": "fock", "mu": 1.0, "n": 1}}
        code, _, err = run_cli(["kernel-eval", "--kernel", json.dumps(kernel)],
                               capsys)
        assert code == 2
        assert "unknown kernel form" in err and "Traceback" not in err

    def test_series_kernel_form_is_unknown(self, capsys):
        # a form kernel_to_json does not write is refused, naming those it does
        kernel = {"form": "series", "domain": {"kind": "disk", "dim": 1},
                  "degree": 1, "rank": 1, "coeff": [[1.0, 0.0], [0.0, 0.0]]}
        code, out, err = run_cli(["kernel-eval", "--kernel",
                                  json.dumps(kernel), "--grid", "2"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: unknown kernel form 'series'; supported forms: fock, "
            "power, radial"]

    @pytest.mark.parametrize("kernel,error", [
        ({"form": "fock", "mu": "2", "n": 1}, "has mu '2'; it must be a number"),
        ({"form": "fock", "mu": 2.0, "n": 1.7},
         "has n 1.7; it must be a whole number"),
        ({"form": "fock", "mu": 2.0, "n": True},
         "has n True; it must be a whole number"),
        ({"form": "fock", "mu": 2.0, "n": 1, "scale": "1"},
         "has scale '1'; it must be a number"),
        ({"form": "power", "domain": {"kind": "disk", "dim": 1},
          "mu": [1.0]}, "has mu [1.0]; it must be a number"),
        ({"form": "radial", "domain": {"kind": "disk", "dim": 1},
          "degree": 1.9, "c": [1.0, 2.0]},
         "has degree 1.9; it must be a whole number"),
    ], ids=["fock-mu", "fock-n", "fock-n-bool", "fock-scale", "power-mu",
            "radial-degree"])
    def test_kernel_fields_are_checked(self, capsys, kernel, error):
        # a field is refused, not truncated (1.7 -> 1) or parsed ("2" -> 2.0)
        code, out, err = run_cli(["kernel-eval", "--kernel",
                                  json.dumps(kernel)], capsys)
        form = kernel["form"]
        assert (code, out) == (2, "")
        assert err == f"error: kernel JSON of form {form!r} {error}\n"

    def test_kernel_file_list(self, capsys, list_file):
        code, _, err = run_cli(["kernel-eval", "--kernel", list_file], capsys)
        assert code == 2
        assert "JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["transform-check", "jacobian-check"])
    def test_map_file_list(self, capsys, list_file, cmd):
        code, _, err = run_cli(
            [cmd, "--domain", "cn:1", "--weight", "gaussian:1", "--m", "1",
             "--map", list_file], capsys)
        assert code == 2
        assert "JSON object" in err and "Traceback" not in err

    def test_subprocess_has_no_traceback(self, tmp_path, list_file):
        proc = subprocess.run(
            [sys.executable, "-m", "bergmanlab.cli", "transform-check",
             "--domain", "cn:1", "--weight", "gaussian:1", "--map", list_file],
            capture_output=True, env=child_env("1"), cwd=str(tmp_path))
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr


# a closed-form kernel's scale read from JSON must be finite and positive
BAD_KERNEL_SCALES = [
    '{"form": "fock", "mu": 1, "n": 1, "scale": -1}',
    '{"form": "power", "domain": {"kind": "disk", "dim": 1}, "mu": 1, '
    '"scale": 0}',
]


@pytest.mark.parametrize("kernel", BAD_KERNEL_SCALES, ids=["fock", "power"])
def test_kernel_json_scale_is_checked(capsys, kernel):
    code, out, err = run_cli(["kernel-eval", "--kernel", kernel, "--grid", "2"],
                             capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: kernel scale must be finite and positive")


@pytest.mark.parametrize("mu", ["-1", "0"])
@pytest.mark.parametrize("form", [
    '"form": "fock", "n": 1',
    '"form": "power", "domain": {"kind": "disk", "dim": 1}',
], ids=["fock", "power"])
def test_kernel_json_mu_is_checked(capsys, form, mu):
    # a closed-form kernel's rate read from JSON must be positive, as the
    # rate of every weight is
    code, out, err = run_cli(["kernel-eval", "--kernel", f'{{{form}, "mu": '
                              f'{mu}}}', "--grid", "2"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: kernel mu must be finite and positive, not " \
                  f"{float(mu)!r}\n"


def test_weight_scale_overflow_is_named(capsys):
    code, out, err = run_cli(
        ["gram", "--domain", "cn:1", "--weight", "scaled:1e200:gaussian:1",
         "--m", "2", "--degree", "2"], capsys)
    assert code == 2 and out == ""
    assert err == "error: weight scale 1e+200 overflows at power 2\n"


def test_a_closed_form_moment_outside_the_float_range_is_named(capsys):
    # R_49 = 49!/0.00001^50 is the first past the float range; its
    # exponent log(49!) + 50 log(1e5) is named, finite
    code, out, err = run_cli(
        ["gram", "--domain", "cn:1", "--weight", "gaussian:0.00001",
         "--degree", "60", "--format", "csv"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: the moment R_49 of exp(-1e-05|z|^2) is "
                   "exp(720.2), outside the float range\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_quadrature_moment_outside_the_float_range_is_named(capsys, fmt):
    # R_64 = 64!/0.0004^65 = exp(713.7) is the first moment past the float
    # range, the one the exact route names too
    code, out, err = run_cli(
        ["gram", "--domain", "cn:1", "--weight", "gaussian:0.0004",
         "--degree", "64", "--method", "quadrature", "--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: the quadrature moment R_64 of exp(-0.0004|z|^2) "
                   "is inf, outside the float range\n")


def test_a_quadrature_moment_near_the_float_range_is_kept(capsys):
    # R_56 = 56!/0.001^57 = 7.1e245 is finite although the node power s^56
    # at the last Laguerre node is not: the weight keeps each product f s^j
    # in range, and every moment is within 4e-15 of the exact one
    code, out, err = run_cli(
        ["gram", "--domain", "cn:1", "--weight", "gaussian:0.001",
         "--degree", "64", "--method", "quadrature", "--format", "csv"],
        capsys)
    assert (code, err) == (0, "")
    got = np.array([float(row.split(",")[1])
                    for row in out.splitlines()[1:]])
    exact = bl.gram_exact(bl.gaussian_weight(1, 0.001), 64).diagonal
    assert got.shape == exact.shape
    assert np.all(np.abs(got - exact) <= 4e-15 * exact)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,error", [
    # R_2 = 2!/0.001^3 is finite; the scale 1e300 takes it, and the Monte
    # Carlo sums of the same weight, past the float range
    (["--domain", "cn:1", "--weight", "scaled:1e300:gaussian:0.001"],
     "the moment R_2 of 1e+300*exp(-0.001|z|^2) is exp(712.2), outside the "
     "float range"),
    (["--domain", "cn:1", "--weight", "scaled:1e300:gaussian:0.001",
      "--method", "montecarlo", "--samples", "100"],
     "the Monte Carlo sums of 1e+300*exp(-0.001|z|^2) at degree 2 leave the "
     "float range"),
    (["--domain", "disk", "--weight", "scaled:1e300:poly:1e10"],
     "the moment R_0 of 1e+300*poly(1e+10) is inf, outside the float range"),
    # R_0 = 1e308/1.0001 is finite, the shell factor pi takes it past
    (["--domain", "disk", "--weight", "scaled:1e308:npower:0.0001"],
     "the Gram entry at (0,) of 1e+308*N(z,z)^0.0001 is inf, outside the "
     "float range"),
], ids=["gaussian", "montecarlo", "polynomial", "shell-factor"])
def test_a_scaled_gram_outside_the_float_range_is_named(capsys, argv, error,
                                                         fmt):
    code, out, err = run_cli(["gram", *argv, "--degree", "2",
                              "--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


class TestNonFiniteDiagnostics:
    def test_rnum(self):
        assert jsonio.rnum(math.inf) == "inf"
        assert jsonio.rnum(-math.inf) == "-inf"
        assert jsonio.rnum(math.nan) == "nan"
        assert jsonio.rnum(np.float64(-np.inf)) == "-inf"
        assert jsonio.rnum(1.5) == 1.5
        assert jsonio.rnum(True) is True

    def test_infinite_imaginary_part(self, capsys, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = jsonio.as_cpoint([[0.0, math.inf]])
        assert z.tolist() == [complex(0.0, math.inf)]
        pts = tmp_path / "pts.json"
        pts.write_text('{"z": [[[0.0, Infinity]]], "w": [[[0.1, 0.0]]]}')
        code, _, err = run_cli(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--closed-form", "--points-file", str(pts)], capsys)
        assert code == 2
        assert "non-finite" in err

    def test_gram_inf_condition_reported(self, capsys):
        # 1 - 2t changes sign on the disk: R_j = -j/((j+1)(j+2)) < 0 for
        # j >= 1, so the Gram matrix has a negative eigenvalue
        code, out, _ = run_cli(
            ["gram", "--domain", "disk", "--weight", "poly:1,-2",
             "--method", "quadrature", "--degree", "4"], capsys)
        assert code == 0
        assert strict_json(out)["diagnostics"]["condition"] == "inf"

    def test_frc_inf_tail_fails_the_verdict(self, capsys):
        # one term leaves no ratio to extrapolate, so every pair's tail
        # estimate, the reported one's included, is inf
        code, out, _ = run_cli(
            ["frc-check", "--m", "2", "--pairs", "30", "--max-terms", "1",
             "--seed", "3"], capsys)
        assert code == 1
        rep = strict_json(out)
        assert rep["passed"] is False and rep["converged"] is False
        assert rep["worst_pair_evaluation"]["tail_estimate"] == "inf"


# ---------------------------------------------------------------------------
# the flag table: a command takes exactly the flags its handler reads

class _Recording(dict):
    """A configuration mapping that records every key looked up."""

    def __init__(self, cfg, seen):
        super().__init__(cfg)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.seen.add(key)
        return super().__contains__(key)


_ROTATION = '{"kind": "base_unitary", "matrix": [[0.6, 0.8]]}'
_MOBIUS = '{"kind": "mobius", "a": [[0.3, 0.0]], "mu": 1.0}'
_FOCK = '{"form": "fock", "mu": 1.0, "n": 1}'

# per command the paths that together read every key it takes; "OUT" and
# "POINTS" stand for an output path and a points file
READING_PATHS = {
    "gram": [
        ["--domain", "disk", "--weight", "npower:1", "--degree", "2"],
        ["--domain", "disk", "--weight", "npower:1", "--m", "2", "--degree",
         "2", "--method", "montecarlo", "--samples", "100", "--seed", "1",
         "--format", "csv", "--out", "OUT"]],
    "kernel-eval": [
        ["--domain", "disk", "--weight", "npower:1", "--m", "2", "--degree",
         "2", "--grid", "2", "--radius", "0.3"],
        ["--domain", "disk", "--weight", "npower:1", "--closed-form",
         "--points-file", "POINTS"],
        ["--kernel", _FOCK, "--points-file", "POINTS"]],
    "frc-check": [
        ["--m", "1", "--pairs", "2", "--max-terms", "50", "--seed", "1",
         "--tolerance", "1e-8"]],
    "transform-check": [
        # no closed kernel for poly:1,-1: the series path reads --degree
        ["--domain", "disk", "--weight", "poly:1,-1", "--m", "1", "--map",
         _ROTATION, "--degree", "10", "--points", "2", "--radius", "0.5",
         "--seed", "1", "--tolerance", "1e-6"]],
    "jacobian-check": [
        ["--domain", "disk", "--weight", "npower:1", "--m", "1", "--map",
         _MOBIUS, "--points", "2", "--step", "1e-5", "--radius", "0.5",
         "--seed", "1", "--tolerance", "1e-6"]],
    "moment-mismatch": [
        ["--domain", "disk", "--weight", "npower:1", "--weight2", "npower:2",
         "--degree", "2", "--normalize", "--tolerance", "1e-8"]],
    "recover-weight": [
        ["--domain", "disk", "--weight", "poly:1,-2,1", "--degree", "4",
         "--ridge", "0"]],
    "characterize-fbh": [
        ["--n", "1", "--weight", "gaussian:1", "--m", "1", "--mu", "1",
         "--degree", "10", "--rmax", "0.5", "--npts", "4", "--seed", "1"]],
    "characterize-ch": [
        ["--domain", "disk", "--weight", "npower:1", "--m", "1", "--mu", "1",
         "--degree", "10", "--rmax", "0.3", "--npts", "4", "--seed", "1"]],
    "boundary-check": [
        ["--n", "1", "--weight", "gaussian:1", "--mu", "1", "--samples", "4",
         "--radius", "1", "--seed", "1", "--tolerance", "1e-8"]],
    "family-check": [
        ["--family", "fbh", "--n", "1", "--m", "1", "--mu", "1", "--degree",
         "10", "--points", "2", "--seed", "1", "--tolerance", "1e-8"],
        ["--family", "thullen", "--mu", "1", "--degree", "10"]],
}


def test_reading_paths_cover_every_command():
    assert sorted(READING_PATHS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("cmd", sorted(READING_PATHS))
def test_every_key_a_command_takes_is_read(capsys, monkeypatch, tmp_path,
                                           cmd):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"z": [[0.1, 0.0]], "w": [[0.2, 0.1]]}))
    seen = set()
    effective = cli._effective
    monkeypatch.setattr(cli, "_effective",
                        lambda args: _Recording(effective(args), seen))
    for path in READING_PATHS[cmd]:
        argv = [cmd] + [{"OUT": str(tmp_path / "out"),
                         "POINTS": str(points)}.get(a, a) for a in path]
        code, _, err = run_cli(argv, capsys)
        assert code in (0, 1) and err == "", (argv, err)
    assert cli._keys(cmd) <= set(cli._SCHEMA)
    assert cli._keys(cmd) - seen == set()


# the (command, flag) pairs a command accepted without reading them
UNREAD = {
    "gram": ["--tolerance", "--n", "--mu"],
    "kernel-eval": ["--tolerance", "--seed", "--n", "--mu"],
    "frc-check": ["--domain", "--weight", "--degree", "--n", "--mu"],
    "transform-check": ["--n", "--mu", "--closed-form"],
    "jacobian-check": ["--degree", "--n", "--mu"],
    "moment-mismatch": ["--seed", "--m", "--n", "--mu"],
    "recover-weight": ["--tolerance", "--seed", "--m", "--n", "--mu"],
    "characterize-fbh": ["--domain", "--tolerance"],
    "characterize-ch": ["--n", "--tolerance"],
    "boundary-check": ["--domain", "--degree", "--m"],
    "family-check": ["--domain", "--weight"],
}
UNREAD_PAIRS = [(cmd, flag) for cmd, flags in UNREAD.items()
                for flag in flags]
# a value of each flag, on the command line and in a config file
VALUES = {"--domain": ("disk", "disk"), "--weight": ("npower:1", "npower:1"),
          "--degree": ("3", 3), "--tolerance": ("1e-8", 1e-8),
          "--seed": ("1", 1), "--m": ("1", 1), "--n": ("1", 1),
          "--mu": ("1", 1.0), "--closed-form": (None, False)}


@pytest.mark.parametrize("cmd,flag", UNREAD_PAIRS,
                         ids=[f"{c} {f}" for c, f in UNREAD_PAIRS])
def test_an_unread_flag_is_refused_by_name(capsys, tmp_path, cmd, flag):
    value, config_value = VALUES[flag]
    argv = [cmd, flag] + ([] if value is None else [value])
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}\n" in err

    key = flag[2:].replace("-", "_")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: config_value}))
    code, out, err = run_cli([cmd, "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {cmd} does not read configuration key " \
                  f"{key!r}\n"


def test_accepted_pairs_are_the_read_ones():
    # 150 (command, flag) pairs were accepted before the table named
    # exactly the flags each handler reads, 114 before recover-weight's
    # --basis, which could only repeat the base's own basis, was dropped
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    pairs = {(cmd, flag) for cmd, p in sub.choices.items()
             for a in p._actions for flag in a.option_strings[:1]
             if flag != "-h"}
    assert len(pairs) == 113
    assert not pairs & set(UNREAD_PAIRS)


# the commands that take --domain, with what else each needs to reach it
DOMAIN_COMMANDS = {
    "gram": ["--weight", "npower:1"],
    "transform-check": ["--weight", "npower:1", "--map", _ROTATION],
    "jacobian-check": ["--weight", "npower:1", "--map", _ROTATION],
    "moment-mismatch": ["--weight", "npower:1", "--weight2", "npower:2"],
    "recover-weight": ["--weight", "npower:1"],
    "characterize-ch": ["--weight", "npower:1"],
}


@pytest.mark.parametrize("cmd", sorted(DOMAIN_COMMANDS))
def test_a_matrix_ball_is_refused_by_command(capsys, cmd):
    code, out, err = run_cli([cmd, "--domain", "typei:2x2"]
                             + DOMAIN_COMMANDS[cmd], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"config error: {cmd} does not take the domain "
                        r"'typei:2x2'; its --domain is disk \| ball:[N1]"
                        r"( \| cn:[N1])?\n", err)


# the commands whose --domain takes one dimension only, with the domains of
# more dimensions they refuse
ONE_DIMENSION = {"recover-weight": ["ball:2", "cn:2", "ball:3"]}
ONE_DIMENSION_CASES = [(cmd, d) for cmd, ds in ONE_DIMENSION.items()
                       for d in ds]


@pytest.mark.parametrize("cmd,domain", ONE_DIMENSION_CASES,
                         ids=[" ".join(c) for c in ONE_DIMENSION_CASES])
def test_a_domain_of_more_dimensions_is_refused_by_command(capsys, cmd,
                                                          domain):
    # refused before the weight, which here would not parse, is read
    code, out, err = run_cli([cmd, "--domain", domain, "--weight",
                              "martian:1"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"config error: {cmd} does not take the domain "
                   f"{domain!r}; its --domain is disk | ball:1 | cn:1\n")


@pytest.mark.parametrize("domain,weight", [("ball:1", "npower:1"),
                                           ("cn:1", "gaussian:1")])
def test_recover_weight_takes_one_dimension(capsys, domain, weight):
    code, out, err = run_cli(["recover-weight", "--domain", domain,
                              "--weight", weight, "--degree", "4"], capsys)
    assert (code, err) == (0, "")
    assert strict_json(out)["command"] == "recover-weight"


def test_domain_commands_are_those_with_domain_kinds():
    takes = {cmd for cmd, c in cli._COMMANDS.items() if c.domains}
    assert takes == set(DOMAIN_COMMANDS) | {"kernel-eval"}
    assert "typei:PxQ" in cli._COMMANDS["kernel-eval"].domains


def test_characterize_ch_refuses_a_full_space(capsys):
    code, out, err = run_cli(["characterize-ch", "--domain", "cn:1",
                              "--weight", "gaussian:1"], capsys)
    assert (code, out) == (2, "")
    assert err == ("config error: characterize-ch does not take the domain "
                   "'cn:1'; its --domain is disk | ball:N\n")


def test_flags_are_not_abbreviated(capsys):
    # --n would otherwise read as --npts, and --m as --mu
    for argv in (["characterize-ch", "--weight", "npower:1", "--n", "2"],
                 ["boundary-check", "--weight", "gaussian:1", "--m", "2"],
                 ["moment-mismatch", "--n", "1"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestMissingJsonFields:
    """A JSON argument without a field its decoder needs is a configuration
    error naming the argument and the field."""

    @pytest.mark.parametrize("kernel,field", [
        ("{}", "form"), ('{"form": "fock", "mu": 1}', "n")])
    def test_kernel(self, capsys, kernel, field):
        code, out, err = run_cli(["kernel-eval", "--kernel", kernel,
                                  "--grid", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: kernel JSON has no field {field!r}\n"

    def test_map(self, capsys):
        code, out, err = run_cli(["transform-check", "--domain", "cn:1",
                                  "--weight", "gaussian:1", "--map", "{}"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == "config error: map JSON has no field 'kind'\n"

    def test_points_file(self, capsys, tmp_path):
        path = tmp_path / "points.json"
        path.write_text('{"z": [[0.1, 0.0]]}')
        code, out, err = run_cli(["kernel-eval", "--domain", "disk",
                                  "--weight", "npower:1", "--points-file",
                                  str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: points file {path} has no field 'w'\n"


# a 1x1 unitary of a map JSON nested wrongly, of the wrong size or holding
# no numbers
BAD_MATRICES = {"nested": [[[1, 0]]], "size": [[1, 0], [0, 0]],
                "flat": [1, 0], "text": [["x", 0]], "number": 7}
MATRIX_CASES = [(kind, field, name)
                for kind, field in [("base_unitary", "matrix"),
                                    ("fiber_unitary", "matrix"),
                                    ("mobius", "fiber_unitary")]
                for name in BAD_MATRICES]


@pytest.mark.parametrize("kind,field,name", MATRIX_CASES,
                         ids=[" ".join(c) for c in MATRIX_CASES])
def test_a_malformed_unitary_names_its_map_and_field(capsys, kind, field,
                                                    name):
    obj = {"kind": kind, field: BAD_MATRICES[name]}
    if kind == "mobius":
        obj["a"] = [[0.1, 0.0]]
    code, out, err = run_cli(["transform-check", "--domain", "disk",
                              "--weight", "npower:1", "--m", "1", "--map",
                              json.dumps(obj)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"config error: malformed JSON argument: {kind} map field "
                   f"{field!r} must be the 1x1 matrix as a row-major list of "
                   "1 [re, im] pairs\n")


@pytest.mark.parametrize("argv,message", [
    (["transform-check", "--domain", "cn:1", "--weight", "gaussian:1",
      "--map", '{"kind":"translation","v":[[[1,0]]]}'],
     "translation map field 'v'"),
    (["jacobian-check", "--domain", "disk", "--weight", "npower:1",
      "--map", '{"kind":"mobius","a":[1,2,3]}'],
     "mobius map field 'a'")], ids=["translation", "mobius"])
def test_a_malformed_map_point_names_its_map_and_field(capsys, argv,
                                                      message):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {message} must be [re, im] or a list of "
                   "[re, im] pairs\n")


@pytest.mark.parametrize("domain,weight,kind,field,point", [
    ("disk", "npower:1", "mobius", "a", [[0.3, 0.1], [0.1, 0.0]]),
    ("disk", "npower:1", "mobius", "a", [[math.inf, 0.1]]),
    ("cn:2", "gaussian:1", "translation", "v", [[0.3, 0.1]]),
    ("cn:2", "gaussian:1", "translation", "v", [[0.3, 0.1], [math.nan, 0]]),
], ids=["mobius-length", "mobius-inf", "translation-length",
        "translation-nan"])
def test_a_map_point_off_its_base_names_its_map_and_field(
        capsys, domain, weight, kind, field, point):
    n = 1 if domain == "disk" else 2
    code, out, err = run_cli(["transform-check", "--domain", domain,
                              "--weight", weight, "--map",
                              json.dumps({"kind": kind, field: point})],
                             capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {kind} map field {field!r} must be a point of "
                   f"C^{n}: {n} [re, im] pairs of finite numbers\n")


def test_a_malformed_file_point_names_its_file_and_field(capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text('{"z": [[0.1, 0.0]], "w": [[0.2, 0.0], [1, 2, 3]]}')
    code, out, err = run_cli(["kernel-eval", "--domain", "disk", "--weight",
                              "npower:1", "--points-file", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: points file {path} field 'w' entry 1 must be "
                   "[re, im] or a list of [re, im] pairs\n")


# a map's rate comes from the weight: a mu field must repeat it
RATE_CASES = [("cn:1", "gaussian:1", "translation", "v", mu)
              for mu in (5, -3, "x", True)] + \
             [("disk", "npower:1.5", "mobius", "a", 1.0)]


@pytest.mark.parametrize("domain,weight,kind,field,mu", RATE_CASES)
def test_a_map_rate_other_than_the_weights_is_refused(capsys, domain, weight,
                                                      kind, field, mu):
    obj = {"kind": kind, field: [[0.4, 0.3]], "mu": mu}
    rate = float(weight.split(":")[1])
    argv = ["transform-check", "--domain", domain, "--weight", weight,
            "--map", json.dumps(obj), "--tol", "1e-9"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {kind} map field 'mu' is {mu!r}, but the "
                   f"weight's rate is {rate!r}; give that rate or leave the "
                   "field out\n")
    # the rate itself, as map_to_json writes it, or no mu at all is taken
    for given in ({"mu": rate}, {}):
        obj = {"kind": kind, field: [[0.4, 0.3]], **given}
        argv[argv.index("--map") + 1] = json.dumps(obj)
        assert run_cli(argv, capsys)[0] == 0, given


def _transform_report(residual):
    return ('{\n  "command": "transform-check",\n  "max_rel_residual": '
            f'{residual},\n  "passed": true,\n  "points": 8,\n  "seed": 0,'
            '\n  "tolerance": 1e-08\n}\n')


# a JSON point is one map, read as a one-row stack; the reports are the
# bytes the one-point calling convention gave
@pytest.mark.parametrize("domain,weight,m,obj,residual", [
    ("cn:2", "gaussian:1", "2",
     {"kind": "translation", "v": [[0.4, 0.3], [-0.2, 0.1]]},
     "5.3766711343097e-16"),
    ("ball:2", "npower:1.5", "1",
     {"kind": "mobius", "a": [[0.3, 0.0], [0.0, -0.2]]},
     "2.235926778058378e-15"),
    ("disk", "npower:1", "1", {"kind": "mobius", "a": [0.3, 0.1]},
     "8.374456756625504e-16"),
    ("disk", "npower:1", "1",
     {"kind": "composite", "parts": [{"kind": "mobius", "a": [[0.3, 0.1]]},
                                     {"kind": "fiber_unitary",
                                      "matrix": [[0, 1]]}]},
     "8.374456756625504e-16"),
], ids=["translation-cn2", "mobius-ball2", "mobius-disk-pair", "composite"])
def test_a_json_map_point_keeps_its_report_bytes(capsys, domain, weight, m,
                                                 obj, residual):
    code, out, err = run_cli(["transform-check", "--domain", domain,
                              "--weight", weight, "--m", m, "--map",
                              json.dumps(obj)], capsys)
    assert (code, out, err) == (0, _transform_report(residual), "")


def test_a_composite_part_rate_is_checked(capsys):
    part = {"kind": "mobius", "a": [[0.3, 0.0]], "mu": 2.0}
    code, out, err = run_cli(
        ["transform-check", "--domain", "disk", "--weight", "npower:1",
         "--map", json.dumps({"kind": "composite", "parts": [part]})], capsys)
    assert (code, out) == (2, "")
    assert "mobius map field 'mu' is 2.0, but the weight's rate is 1.0" in err


@pytest.mark.parametrize("dim", [2, 0, "1"])
def test_a_disk_json_of_another_dimension_is_refused(capsys, dim):
    kernel = {"form": "power", "domain": {"kind": "disk", "dim": dim},
              "mu": 1.0}
    code, out, err = run_cli(["kernel-eval", "--kernel", json.dumps(kernel),
                              "--grid", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: domain JSON of kind 'disk' has dim {dim!r}; the "
                   "disk has dimension 1\n")


@pytest.mark.parametrize("domain,field,value", [
    ({"kind": "ball", "dim": 1.9}, "dim", 1.9),
    ({"kind": "fullspace", "dim": 2.5}, "dim", 2.5),
    ({"kind": "ball", "dim": "2"}, "dim", "2"),
    ({"kind": "typeI", "dim": 4, "shape": [2, 2.5]}, "shape", 2.5)],
    ids=["ball", "fullspace", "string", "typeI"])
def test_a_domain_json_size_that_is_not_whole_is_refused(capsys, domain,
                                                        field, value):
    kernel = {"form": "power", "domain": domain, "mu": 1.0}
    code, out, err = run_cli(["kernel-eval", "--kernel", json.dumps(kernel),
                              "--grid", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: domain JSON of kind {domain['kind']!r} has "
                   f"{field} {value!r}; it must be a whole number\n")
    # a whole float is the integer it spells
    assert domain_from_json({"kind": "ball", "dim": 2.0}) == bl.unit_ball(2)


@pytest.mark.parametrize("map_obj,unread,reads", [
    ({"kind": "base_unitary", "matrix": [[1, 0]], "mu": 7}, "mu",
     "kind, matrix"),
    ({"kind": "translation", "v": [[0.1, 0.2]], "a": [[0.1, 0.0]]}, "a",
     "kind, v, mu"),
    ({"kind": "composite", "parts": [], "mu": 1, "v": [[0, 0]]}, "mu, v",
     "kind, parts")], ids=["base_unitary", "translation", "composite"])
def test_a_map_field_its_kind_does_not_read_is_refused(capsys, map_obj,
                                                      unread, reads):
    code, out, err = run_cli(["transform-check", "--domain", "cn:1",
                              "--weight", "gaussian:1", "--map",
                              json.dumps(map_obj)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {map_obj['kind']} map has the field(s) "
                   f"{unread}, which it does not read; it reads {reads}\n")


@pytest.mark.parametrize("spec,form", [
    ("ball:1.5", "ball:N with integer N"), ("cn:2.0", "cn:N with integer N"),
    ("ball:", "ball:N with integer N"),
    ("typei:2x1.5", "typei:PxQ with integer P and Q"),
    ("typei:2", "typei:PxQ with integer P and Q")])
def test_a_domain_size_that_is_not_an_integer_is_a_config_error(capsys, spec,
                                                               form):
    with pytest.raises(ConfigError, match=re.escape(
            f"--domain {spec!r}: expected {form}")):
        parse_domain(spec)
    code, out, err = run_cli(["gram", "--domain", spec, "--weight",
                              "npower:1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: --domain {spec!r}: expected {form}\n"


@pytest.mark.parametrize("argv", [
    ["gram", "--weight", "npower:1.5", "--degree", "6"],
    ["characterize-ch", "--weight", "npower:1", "--degree", "30"],
    ["transform-check", "--weight", "npower:1", "--m", "2", "--map",
     '{"kind":"mobius","a":[[0.3,0.2]]}']], ids=lambda a: a[0])
def test_disk_and_ball_1_give_one_report(capsys, argv):
    disk = run_cli(argv + ["--domain", "disk"], capsys)
    ball = run_cli(argv + ["--domain", "ball:1"], capsys)
    assert disk[0] == 0 and disk[2] == ""
    assert ball == disk


def test_recover_weight_takes_no_basis(capsys, tmp_path):
    argv = ["recover-weight", "--domain", "disk", "--weight", "npower:1",
            "--degree", "4"]
    code, out, err = run_cli(argv + ["--basis", "laguerre"], capsys)
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --basis laguerre\n" in err
    config = tmp_path / "config.json"
    config.write_text('{"basis": "shifted-legendre"}')
    code, out, err = run_cli(argv + ["--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: unknown configuration key 'basis'\n"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["basis"] == "shifted_legendre"


# ---------------------------------------------------------------------------
# plain command lines, decoded from the flag table

def _own_actions():
    """Per command, its parser's flag words, -h among them, each with the
    action it triggers."""
    commands = cli._build_parser().commands
    return {cmd: {word: action for action in commands[cmd]._actions
                  for word in action.option_strings}
            for cmd in cli._COMMANDS}


_OWN = _own_actions()
_EVERY_FLAG = sorted({word for words in _OWN.values() for word in words})
# values its type takes, per flag type
_GOOD_VALUES = {int: ["0", "3", "64", " 2", "1_0"],
                float: ["0", "0.5", "1e-8", "3", "inf", "nan", "1e400"],
                None: ["npower:1", "disk", "x", " -1", "a b"]}
# values of every flag type, values a type or choices refuse, an empty
# one, and dash-led ones
_ANY_VALUES = ["3", "0.5", "nan", "x", "", "json", "csv", "xml", "auto",
               "montecarlo", "fbh", "thullen", "-1", "-0.5", "-x", "-",
               "--degree", "-h"]


@st.composite
def _command_lines(draw):
    """A command and a word list of its own flags, each with a value its
    type takes, where it takes one; half of them with one more chunk among
    the words: an unread or unknown flag, -h, --flag=value, a stray word,
    or a flag with a value of any kind (a bool flag then with a word)."""
    cmd = draw(st.sampled_from(sorted(cli._COMMANDS)))
    own = _OWN[cmd]
    words = []
    for flag in draw(st.lists(st.sampled_from(sorted(own)), max_size=8)):
        action = own[flag]
        if action.nargs != 0:
            good = list(action.choices or _GOOD_VALUES[action.type])
            words += [flag, draw(st.sampled_from(good))]
        elif flag not in ("-h", "--help") or draw(st.booleans()):
            words.append(flag)
    if draw(st.booleans()):
        flag = st.one_of(st.sampled_from(sorted(own)), st.sampled_from(
            _EVERY_FLAG + ["--bogus", "--deg", "--tol", "-d"]))
        value = st.sampled_from(_ANY_VALUES)
        chunk = draw(st.one_of(
            st.tuples(flag, value), st.tuples(flag), st.tuples(value),
            st.tuples(st.builds("{}={}".format, flag, value))))
        at = draw(st.integers(0, len(words)))
        words[at:at] = chunk
    return cmd, words


def _typed(args: argparse.Namespace) -> dict:
    # repr tells 1 from 1.0 and takes nan as itself
    return {key: repr(value) for key, value in vars(args).items()}


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_command_lines())
def test_the_decoder_declines_or_gives_the_parsers_namespace(line):
    cmd, words = line
    args = cli._decode_plain(cmd, words)
    if args is None:
        return
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            expected, rest = cli._build_parser().commands[
                cmd].parse_known_args(words, argparse.Namespace(cmd=cmd))
    except SystemExit:
        pytest.fail(f"decoded, but the parser refuses {words}: "
                    f"{stderr.getvalue()}")
    assert (rest, stderr.getvalue()) == ([], "")
    assert _typed(args) == _typed(expected)


def test_plain_benchmark_lines_build_no_parser(monkeypatch, tmp_path):
    """Every seed-5/13 benchmark command line is decoded from the flag
    table, to the namespace the whole parser gives, without building it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "verdictbench"))
    import workloads
    argvs = []
    for seed in (5, 13):
        for name in workloads.WORKLOADS:
            work = workloads.generate(name, seed, tmp_path)
            argvs += [v.argv for v in work.verdicts + work.defects]
            argvs.append(work.setup_argv)
    cli._build_parser.cache_clear()
    decoded = [cli._parse(list(argv)) for argv in argvs]
    info = cli._build_parser.cache_info()
    assert (info.hits, info.misses) == (0, 0)
    parser = cli._build_parser()
    for argv, args in zip(argvs, decoded):
        assert _typed(args) == _typed(parser.parse_args(argv)), argv


_MC_GRAM = ["gram", "--domain", "disk", "--weight", "npower:1", "--method",
            "montecarlo", "--samples", "10"]
_JACOBIAN = ["jacobian-check", "--domain", "disk", "--weight", "npower:1",
             "--map", _MOBIUS, "--points", "2"]


@pytest.mark.parametrize("argv,key,value,error", [
    (["frc-check", "--pairs", "3"], "seed", -1,
     "config error: key 'seed' must be >= 0"),
    (_MC_GRAM, "seed", -1, "config error: key 'seed' must be >= 0"),
    (_MC_GRAM, "seed", 2 ** 128,
     f"error: seed {2 ** 128}: the Monte Carlo draw keys its Philox "
     "generator by the seed, which takes 0 <= seed < 2**128"),
    (_JACOBIAN, "step", 0, "config error: key 'step' must be positive"),
    (_JACOBIAN, "step", 0.0, "config error: key 'step' must be positive"),
], ids=["frc-seed", "mc-seed", "mc-seed-2**128", "step-0", "step-0.0"])
def test_a_seed_or_step_out_of_range_is_refused_by_name(capsys, tmp_path,
                                                         argv, key, value,
                                                         error):
    code, out, err = run_cli(argv + [f"--{key}", str(value)], capsys)
    assert (code, out, err) == (2, "", error + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    code, out, err = run_cli(argv + ["--config", str(config)], capsys)
    assert (code, out, err) == (2, "", error + "\n")


# ---------------------------------------------------------------------------
# many verdicts in one process

def test_a_parser_is_built_once_per_command():
    assert cli._build_parser(("gram",)) is cli._build_parser(("gram",))
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser(("gram",)) is not cli._build_parser(
        ("frc-check",))


def test_reused_parsers_answer_as_fresh_ones(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"degree": 3}')
    sequence = [["frc-check", "--pairs", "3"], ["gram", "--bogus"],
                ["gram", "--help"], ["bogus"],
                ["frc-check", "--config", str(config)],
                ["frc-check", "--pairs", "3"]]
    first = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        first.append(run_cli(argv, capsys))
    assert [code for code, _, _ in first] == [0, 2, 0, 2, 2, 0]
    assert [run_cli(argv, capsys) for argv in sequence] == first


def _batch(tmp_path, capsys, lines):
    path = tmp_path / "batch.txt"
    path.write_text("".join(line + "\n" for line in lines))
    code, out, err = run_cli(["batch", str(path)], capsys)
    assert err == ""
    return code, [json.loads(line) for line in out.splitlines()]


def test_batch_refuses_a_line_and_goes_on(capsys, tmp_path):
    verdict = ["frc-check", "--pairs", "3"]
    code, records = _batch(tmp_path, capsys, [
        json.dumps(verdict), "", '["gram", 1]', "{", json.dumps(verdict),
        json.dumps(["batch", str(tmp_path / "batch.txt")]), "  ",
        json.dumps(verdict)])
    expected_code, report, _ = run_cli(verdict, capsys)
    assert (code, expected_code) == (2, 0)
    assert [(r["line"], r["exit_code"]) for r in records] == [
        (1, 0), (3, 2), (4, 2), (5, 0), (6, 2), (8, 0)]
    for r in records:
        assert sorted(r) == ["exit_code", "line", "stderr", "stdout"]
        if r["exit_code"] == 0:
            assert (r["stdout"], r["stderr"]) == (report, "")
        else:
            assert r["stdout"] == ""
    assert [r["stderr"] for r in records if r["exit_code"] == 2] == [
        "config error: batch line 3 is not a JSON list of strings\n",
        "config error: batch line 4 is not a JSON list of strings\n",
        "config error: batch line 6 is a batch itself\n"]


def test_batch_exits_with_the_largest_code(capsys, tmp_path):
    assert _batch(tmp_path, capsys, []) == (0, [])
    failed = ["frc-check", "--pairs", "3", "--tolerance", "1e-300"]
    code, records = _batch(tmp_path, capsys, [json.dumps(failed)] * 2)
    assert code == 1 and [r["exit_code"] for r in records] == [1, 1]


def test_batch_reads_standard_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('["bogus"]\n'))
    code, out, err = run_cli(["batch", "-"], capsys)
    assert (code, err) == (2, "")
    record = json.loads(out)
    assert (record["line"], record["exit_code"]) == (1, 2)
    assert "invalid choice: 'bogus'" in record["stderr"]


def test_batch_is_listed_and_refuses_a_missing_file(capsys, tmp_path):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0 and "batch" in out
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(["batch", str(missing)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read batch file {missing}: ")


def test_batch_equals_fresh_runs_of_every_workload_template(monkeypatch,
                                                            tmp_path):
    """One verdict of every template of the benchmark workloads at seed 5:
    each batch line holds the exit code, standard error and report of a
    fresh process, and the --out files it writes are the same bytes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "verdictbench"))
    import workloads
    verdicts = {}
    for name in workloads.WORKLOADS:
        work = workloads.generate(name, 5, tmp_path)
        for v in work.verdicts:
            verdicts.setdefault((name, v.template), v)
    fresh = []
    for v in verdicts.values():
        proc = subprocess.run([sys.executable, "-m", "bergmanlab.cli",
                               *v.argv], capture_output=True,
                              env=child_env("1"), cwd=str(tmp_path))
        out = Path(v.out).read_bytes() if v.out else None
        if v.out:
            Path(v.out).unlink()
        fresh.append((proc.returncode, proc.stdout.decode(),
                      proc.stderr.decode(), out))
    assert [f[0] for f in fresh] == [v.expect for v in verdicts.values()]

    lines = tmp_path / "batch.txt"
    lines.write_text("".join(json.dumps(v.argv) + "\n"
                             for v in verdicts.values()))
    proc = subprocess.run([sys.executable, "-m", "bergmanlab.cli", "batch",
                           str(lines)], capture_output=True,
                          env=child_env("1"), cwd=str(tmp_path))
    records = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert proc.stderr == b""
    assert proc.returncode == max(f[0] for f in fresh)
    assert len(records) == len(fresh)
    for number, (v, r, f) in enumerate(zip(verdicts.values(), records, fresh),
                                       1):
        out = Path(v.out).read_bytes() if v.out else None
        assert r["line"] == number
        assert (r["exit_code"], r["stdout"], r["stderr"], out) == f, v.argv


# ---------------------------------------------------------------------------
# report files

# (command line, exit code): JSON and CSV reports of gram, a Monte Carlo
# Gram and recover-weight
OUT_ARGV = [
    (["gram", "--domain", "disk", "--weight", "npower:1.5", "--degree", "6"],
     0),
    (["gram", "--domain", "ball:2", "--weight", "npower:1", "--degree", "8",
      "--format", "csv"], 0),
    (["gram", "--domain", "disk", "--weight", "npower:1", "--degree", "4",
      "--method", "montecarlo", "--samples", "2000", "--format", "csv"], 0),
    (["recover-weight", "--domain", "disk", "--weight", "poly:1,-0.5,0.25",
      "--degree", "6"], 0),
]


@pytest.mark.parametrize("argv,code", OUT_ARGV, ids=lambda a: " ".join(a)
                         if isinstance(a, list) else str(a))
def test_an_out_file_holds_the_bytes_written_to_stdout(capsys, tmp_path, argv,
                                                       code):
    path = tmp_path / "report"
    _, out, err = run_cli(argv, capsys)
    assert run_cli([*argv, "--out", str(path)], capsys) == (code, "", err)
    assert path.read_bytes() == out.encode()


def test_an_out_file_is_written_in_as_many_calls_as_it_takes(capsys, tmp_path,
                                                              monkeypatch):
    argv, _ = OUT_ARGV[0]
    _, out, _ = run_cli(argv, capsys)
    write = os.write
    calls = []

    def short_write(fd, data):
        calls.append(len(data))
        return write(fd, data[:7])

    monkeypatch.setattr(os, "write", short_write)
    path = tmp_path / "report.json"
    assert run_cli([*argv, "--out", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == out.encode()
    assert len(calls) == -(-len(out) // 7)


def test_an_existing_longer_out_file_is_truncated_and_keeps_its_mode(
        capsys, tmp_path):
    argv, _ = OUT_ARGV[1]
    _, out, _ = run_cli(argv, capsys)
    path = tmp_path / "report.csv"
    path.write_bytes(b"x" * (4 * len(out)))
    path.chmod(0o600)
    assert run_cli([*argv, "--out", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == out.encode()
    assert path.stat().st_mode & 0o777 == 0o600


def test_a_new_out_file_gets_the_mode_open_gives_it(capsys, tmp_path):
    argv, _ = OUT_ARGV[0]
    old = os.umask(0o027)
    try:
        assert run_cli([*argv, "--out", str(tmp_path / "r.json")],
                       capsys)[0] == 0
        with open(tmp_path / "o.json", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "r.json").stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "o.json").stat().st_mode & 0o777 == 0o640


def test_an_unwritable_out_path_is_an_error_line(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    argv, _ = OUT_ARGV[0]
    code, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_a_report_refused_for_a_non_finite_float_writes_no_file(capsys,
                                                                tmp_path):
    # exp(800) leaves the float range: the kernel value K would be inf,
    # and the kernel grid is refused before any report is built
    argv = ["kernel-eval", "--kernel", '{"form":"fock","mu":800,"n":1}',
            "--grid", "2", "--radius", "1"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_bytes(b"kept")
    for path in (new, old):
        code, out, err = run_cli([*argv, "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: the fock kernel is not finite on these "
                       "points (overflow encountered in exp)\n")
    # a report that canonical JSON refuses is refused before a file is
    # opened
    for path in (new, old):
        with pytest.raises(ValueError, match="^Out of range float values "
                                             "are not JSON compliant: inf$"):
            cli.emit_report({"K": math.inf}, "json", str(path))
    assert not new.exists()
    assert old.read_bytes() == b"kept"


# ---------------------------------------------------------------------------
# tabulated weights refused by file and line

def _table_verdict(capsys, tmp_path, text, argv=None):
    """Exit code, stdout and stderr of a verdict on the table ``text``,
    with every warning an error."""
    path = tmp_path / "t.csv"
    path.write_text(text)
    argv = argv or ["recover-weight", "--domain", "disk", "--degree", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (*run_cli([*argv, "--weight", f"table:{path}"], capsys), path)


@pytest.mark.parametrize("rows", [0, 3])
def test_a_table_of_fewer_than_four_rows_is_refused(capsys, tmp_path, rows):
    text = "t,value\n" + "".join(f"{k / 2},{1 - k / 4}\n" for k in range(rows))
    code, out, err, path = _table_verdict(capsys, tmp_path, text)
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: a radial profile needs at least 4 data "
                   f"rows, not {rows}\n")


def test_a_table_value_of_nan_is_refused_by_line(capsys, tmp_path):
    code, out, err, path = _table_verdict(
        capsys, tmp_path, "t,value\n0,1\n0.3,nan\n1,0.5\n2,0.1\n")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:3: expected two finite numbers, "
                   "not '0.3,nan'\n")


def test_a_table_value_of_inf_is_refused_by_line(capsys, tmp_path):
    code, out, err, path = _table_verdict(
        capsys, tmp_path, "t,value\n0,1\n0.3,inf\n1,0.5\n2,0.1\n")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:3: expected two finite numbers, "
                   "not '0.3,inf'\n")


def test_a_last_knot_of_inf_is_refused_by_line(capsys, tmp_path):
    code, out, err, path = _table_verdict(
        capsys, tmp_path, "t,value\n0,1\n0.3,0.5\n1,0.5\ninf,0.1\n",
        ["gram", "--domain", "disk", "--degree", "4", "--format", "csv"])
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:5: expected two finite numbers, "
                   "not 'inf,0.1'\n")


def test_a_table_cell_that_is_no_number_is_refused_by_line(capsys, tmp_path):
    code, out, err, path = _table_verdict(
        capsys, tmp_path, "t,value\n0,1\n0.3,0.5\n1,0.5\n2,x\n")
    assert (code, out) == (2, "")
    assert err == f"error: {path}:5: expected two finite numbers, not '2,x'\n"


def test_a_profile_of_non_finite_knots_or_values_is_refused():
    for knots, values in [((0.0, 0.5, 1.0, math.inf), (1.0, 1.0, 1.0, 1.0)),
                          ((0.0, 0.5, 1.0, 2.0), (1.0, math.nan, 1.0, 1.0))]:
        with pytest.raises(ValueError, match="^radial profile knots and "
                                             "values must be finite$"):
            bl.RadialProfile(knots, values)


# ---------------------------------------------------------------------------
# frc-check's first pass

@pytest.mark.parametrize("extra,pairs,first,most", [
    ((), 131053, 16, 131052),
    (("--max-terms", "8"), 262125, 8, 262124),
])
def test_frc_check_refuses_pairs_past_one_first_pass_before_drawing(
        capsys, monkeypatch, extra, pairs, first, most):
    def draw(*args):
        raise AssertionError("points were drawn")

    monkeypatch.setattr(cli, "sample_ball", draw)
    code, out, err = run_cli(["frc-check", "--pairs", str(pairs), *extra],
                             capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: --pairs {pairs} and the 20 zero-fiber "
                   f"restriction pairs make {pairs + 20} rows x {first} "
                   "terms, more than the MAX_TERM_TABLE = 2097152 entries "
                   "of the fiber series' first pass; frc-check takes "
                   f"--pairs up to {most}\n")


def test_frc_check_sums_a_later_pass_past_the_table_in_row_blocks(
        capsys, monkeypatch):
    # 2 020 rows fill the first pass of 16 terms at this limit, so every
    # later pass is wider than one table: its row blocks give the report
    # of the default limit, which sums each pass as one table
    from bergmanlab import hartogs
    argv = ["frc-check", "--m", "1", "--pairs", "2000"]
    code, expected, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    monkeypatch.setattr(hartogs, "MAX_TERM_TABLE", 16 * 2020)
    assert run_cli(argv, capsys) == (0, expected, "")
