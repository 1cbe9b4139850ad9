import json
import math
import subprocess
import sys

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

    def test_usage_error_exits_two(self, capsys):
        code, _, err = run_cli(["gram", "--domain", "disk"], capsys)
        assert code == 2  # missing --weight
        code, _, err = run_cli(["gram", "--domain", "disk",
                                "--weight", "martian:1"], capsys)
        assert code == 2


class TestOutputs:
    def test_gram_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "disk", "--weight", "npower:1",
             "--degree", "3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,re,im"
        assert len(lines) == 1 + 16  # header + basis^2

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

    def test_kernel_json_argument(self, capsys, tmp_path):
        kj = json.dumps(bl.kernel_to_json(bl.fock_kernel(1.0, 1)))
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"z": [[0.0, 0.0]], "w": [[1.0, 0.0]]}))
        code, out, _ = run_cli(
            ["kernel-eval", "--kernel", kj, "--points-file", str(pts)], capsys)
        assert code == 0
        val = json.loads(out)["values"][0]["K"]
        assert val[0] == pytest.approx(1.0)


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
            zc = [complex(*c) for c in z]
            wc = [complex(*c) for c in w]
            ref = model.eval(zc, wc)
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


class TestJsonArguments:
    """JSON files that hold something other than an object are
    configuration errors (exit 2), not tracebacks."""

    @pytest.fixture
    def list_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[[0.1, 0.0]]")
        return str(path)

    def test_points_file_list(self, capsys, list_file):
        code, _, err = run_cli(
            ["kernel-eval", "--domain", "disk", "--weight", "npower:1",
             "--degree", "6", "--points-file", list_file], capsys)
        assert code == 2
        assert "JSON object" in err and "Traceback" not in err

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


class TestNonFiniteDiagnostics:
    def test_rnum(self):
        assert jsonio.rnum(math.inf) == "inf"
        assert jsonio.rnum(-math.inf) == "-inf"
        assert jsonio.rnum(math.nan) == "nan"
        assert jsonio.rnum(np.float64(-np.inf)) == "-inf"
        assert jsonio.rnum(1.5) == 1.5
        assert jsonio.rnum(True) is True

    def test_gram_inf_condition_reported(self, capsys):
        code, out, _ = run_cli(
            ["gram", "--domain", "cn:1", "--weight", "gaussian:1",
             "--method", "quadrature", "--degree", "20"], capsys)
        assert code == 0
        assert strict_json(out)["diagnostics"]["condition"] == "inf"

    def test_frc_inf_tail_fails_the_verdict(self, capsys):
        code, out, _ = run_cli(
            ["frc-check", "--m", "2", "--pairs", "30", "--max-terms", "2",
             "--seed", "3"], capsys)
        assert code == 1
        rep = strict_json(out)
        assert rep["passed"] is False and rep["converged"] is False
        assert rep["worst_pair_evaluation"]["tail_estimate"] == "inf"
