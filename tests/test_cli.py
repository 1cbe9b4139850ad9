import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bergmanlab as bl
from bergmanlab import jsonio
from bergmanlab.cli import main, parse_domain, parse_weight, load_config, ConfigError

from conftest import child_env


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# a series-form kernel over a basis of C(2+1500, 2) monomials
SERIES_1500 = ('{"form": "series", "domain": {"kind": "ball", "dim": 2}, '
               '"degree": 1500, "rank": 1, "coeff": []}')


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
        assert bl.weight_eval(w, [0]) == 1.0
        w = parse_weight("npower:1.5", bl.unit_disk())
        assert bl.weight_eval(w, [0.5]) == pytest.approx(0.75 ** 1.5)
        w = parse_weight("poly:1,-1", bl.unit_disk())
        assert bl.weight_eval(w, [0.5]) == pytest.approx(0.75)
        w = parse_weight("scaled:2:poly:1", bl.unit_disk())
        assert bl.weight_eval(w, [0.1]) == pytest.approx(2.0)


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
        # 1 127 251 multi-indices before the coefficient shape is checked
        pytest.param(["kernel-eval", "--kernel", SERIES_1500, "--grid", "2"],
                     id="series-json"),
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
    # the moments k!/mu^(k+1) divide by a mu that underflows to 0
    ["gram", "--domain", "cn:1", "--weight", "gaussian:1e-320",
     "--degree", "3"],
    # N(z, z)^(-9002) overflows on the sample grid
    ["characterize-ch", "--weight", "npower:3000", "--mu", "3000",
     "--degree", "4", "--rmax", "0.55"],
    # exp(2000 <z, w>) overflows on the sample grid
    ["characterize-fbh", "--n", "1", "--weight", "gaussian:2000",
     "--mu", "2000", "--degree", "4", "--rmax", "0.9"],
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


class TestOutputs:
    def test_gram_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "disk", "--weight", "npower:1",
             "--degree", "3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,re,im"
        assert len(lines) == 1 + 16  # header + basis^2

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
        assert len(rows) == 9
        for i, j, re, im in rows:
            float(re), float(im)

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
        G2 = bl.gram_from_json(obj)
        G1 = bl.gram_quadrature(bl.unit_disk(),
                                bl.generic_norm_weight(bl.unit_disk(), 1.0), 8)
        K1 = bl.kernel_from_gram(G1)
        K2 = bl.kernel_from_gram(G2)
        for z in (0.1, 0.4 - 0.2j, 0.55j):
            a, b = K1.eval([z], [z]), K2.eval([z], [z])
            assert abs(a - b) <= 1e-15 * abs(a)

    def test_gram_quadrature_method_block(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "ball:2", "--weight", "npower:1",
             "--degree", "2", "--method", "quadrature"], capsys)
        assert code == 0
        assert json.loads(out)["method"] == {
            "kind": "quadrature",
            "scheme": {"radial_nodes": 64, "angular_margin": 8,
                       "fullspace_nodes": 96, "table_nodes": 256,
                       "tail_rtol": 1e-12}}

    def test_kernel_json_argument(self, capsys, tmp_path):
        kj = json.dumps(bl.kernel_to_json(bl.fock_kernel(1.0, 1)))
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"z": [[0.0, 0.0]], "w": [[1.0, 0.0]]}))
        code, out, _ = run_cli(
            ["kernel-eval", "--kernel", kj, "--points-file", str(pts)], capsys)
        assert code == 0
        val = json.loads(out)["values"][0]["K"]
        assert val[0] == pytest.approx(1.0)


def test_cli_import_leaves_scipy_interpolate_out(tmp_path):
    # only tabulated weights interpolate; the module is slow to import
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bergmanlab.cli; "
         "print('scipy.interpolate' in sys.modules)"],
        capture_output=True, env=child_env("1"), cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.decode().strip() == "False"


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
                bl.unit_ball(2), [complex(*c) for c in z],
                [complex(*c) for c in w], -(3 + 1.5))
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

    @pytest.mark.parametrize("domain,weight", [
        ("disk", "poly:1,-2"),                    # R_0 = 0
        ("cn:1", "scaled:1e300:gaussian:0.001"),  # R_1 = inf
    ], ids=["zero", "infinite"])
    def test_bad_moments_are_refused_by_name(self, capsys, domain, weight):
        code, out, err = run_cli(
            ["kernel-eval", "--domain", domain, "--weight", weight,
             "--degree", "4", "--grid", "2"], capsys)
        assert code == 2 and out == ""
        assert err.strip().splitlines()[-1] == \
            "error: Gram diagonal is not strictly positive"

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


def test_weight_scale_overflow_is_named(capsys):
    code, out, err = run_cli(
        ["gram", "--domain", "cn:1", "--weight", "scaled:1e200:gaussian:1",
         "--m", "2", "--degree", "2"], capsys)
    assert code == 2 and out == ""
    assert err == "error: weight scale 1e+200 overflows at power 2\n"


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
