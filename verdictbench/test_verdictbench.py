"""Self-tests of the verdict benchmark: generator, gate inputs, tracer and
the metric names BENCHMARK.json declares.  They run no timed loop."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEEDS = (0, 1, 7)

# the commands each workload is specified to issue
COMMANDS = {
    "series-verdicts": {"characterize-ch", "characterize-fbh", "family-check"},
    "moment-assembly": {"gram", "moment-mismatch", "characterize-fbh",
                        "recover-weight"},
    "fiber-automorphism": {"frc-check", "transform-check", "jacobian-check"},
}


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _portable(wl: workloads.Workload, workdir: Path) -> list:
    """The workload with its work directory replaced by a placeholder."""
    return [(tuple(a.replace(str(workdir), "<work>") for a in v.argv),
             v.expect, v.template, v.defect, v.ref,
             v.out.replace(str(workdir), "<work>"))
            for v in wl.verdicts + wl.defects]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = workloads.generate(name, 3, a)
    again = workloads.generate(name, 3, b)
    other = workloads.generate(name, 4, c)
    assert _portable(first, a) == _portable(again, b)
    assert _portable(first, a) != _portable(other, c)
    assert sorted(p.name for p in a.iterdir()) == \
        sorted(p.name for p in b.iterdir())
    for p in a.iterdir():
        assert p.read_bytes() == (b / p.name).read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_argv_passes_config_validation(name, cli, tmp_path):
    parser = cli._build_parser()
    for seed in SEEDS:
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        wl = workloads.generate(name, seed, workdir)
        for argv in [v.argv for v in wl.verdicts + wl.defects] \
                + [wl.setup_argv]:
            cfg = cli._effective(parser.parse_args(list(argv)))
            if "domain" in cfg:
                domain = cli.parse_domain(cfg["domain"])
                for key in ("weight", "weight2"):
                    if key in cfg:
                        cli.parse_weight(cfg[key], domain)
            if "map" in cfg:
                assert isinstance(json.loads(cfg["map"]), dict)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_issues_each_named_command(name, tmp_path):
    wl = workloads.generate(name, 0, tmp_path)
    assert {v.command for v in wl.verdicts} == COMMANDS[name]
    assert len(wl.verdicts) >= 100  # p90 needs ten verdicts beyond it
    assert {v.expect for v in wl.verdicts + wl.defects} == {0, 1}
    assert any(v.ref for v in wl.verdicts)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_defect_inputs_stay_out_of_the_measured_pass(name, tmp_path):
    wl = workloads.generate(name, 0, tmp_path)
    assert wl.defects
    assert all(v.defect is None for v in wl.verdicts)
    assert all(v.defect is not None for v in wl.defects)
    # every defect-checked template is also measured on inputs it spares
    assert {v.template for v in wl.defects} <= \
        {v.template for v in wl.verdicts} | {"frc-truncated"}


def test_truncation_tail_bounds_hold_for_match_inputs(tmp_path):
    """Every in-class characterize input sits where the rank-d tail is
    provably below the match tolerance."""
    wl = workloads.generate("series-verdicts", 0, tmp_path)
    for v in wl.verdicts:
        if v.command != "characterize-ch" or v.expect != 0:
            continue
        args = dict(zip(v.argv[1::2], v.argv[2::2]))
        n = 1 if args["--domain"] == "disk" else int(args["--domain"][5:])
        e = int(args["--m"]) * float(args["--mu"]) + n + 1
        r = float(args["--rmax"])
        bound = workloads.power_tail_bound(e, int(args["--degree"]), r * r)
        assert bound * workloads.TAIL_MARGIN <= workloads.MATCH_TOL


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == run.per_layer_names()
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    for name in e2e + layers:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _fake_package(monkeypatch):
    pkg = types.ModuleType("vbfake")
    cli = types.ModuleType("vbfake.cli")
    core = types.ModuleType("vbfake.core")

    def monomial_values(x):
        time.sleep(0.002)
        return x

    def main(x):
        time.sleep(0.001)
        return core.monomial_values(x) + cli.monomial_values(x)

    core.monomial_values = monomial_values
    cli.monomial_values = monomial_values   # a from-import re-binding
    cli.main = main
    for mod in (pkg, cli, core):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return cli, core


def test_tracer_catches_rebindings_and_lists_missing_names(monkeypatch):
    cli, core = _fake_package(monkeypatch)
    original = core.monomial_values
    tracer = tracing.Tracer(package="vbfake")
    assert "moments.gram_exact" in tracer.missing
    assert "kernels.SeriesKernel.eval" in tracer.missing
    tracer.verdict = 0
    tracer.install()
    try:
        assert cli.main(1) == 2
    finally:
        tracer.uninstall()
    assert core.monomial_values is original
    assert cli.monomial_values is original
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["core.monomial_values"]["calls"] == 2
    root = [s for s in tracer.spans if s[3] == "cli.main"][0]
    children = [s for s in tracer.spans if s[1] == root[0]]
    assert len(children) == 2
    # self times of a verdict's spans add up to its root span
    assert sum(tracer.self_seconds_by_verdict().values()) == \
        pytest.approx(root[5] - root[4], rel=1e-9)


def test_tracer_counts_raised_exceptions(monkeypatch):
    cli, core = _fake_package(monkeypatch)

    def monomial_values(x):
        raise ValueError("no")

    core.monomial_values = monomial_values
    cli.monomial_values = monomial_values
    tracer = tracing.Tracer(package="vbfake")
    tracer.install()
    try:
        with pytest.raises(ValueError):
            cli.main(1)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["core.monomial_values"]["raised"] == 1
    assert totals["cli.main"]["raised"] == 1


def test_harrell_davis_quantile():
    values = list(range(1, 1001))
    assert run.harrell_davis(values, 0.9) == pytest.approx(900.6, abs=0.5)
    # a gap between two clusters: the estimate stays between them
    gap = [1.0] * 89 + [100.0] * 11
    assert 1.0 < run.harrell_davis(gap, 0.9) < 100.0


def test_import_time_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       300 |        400 |   scipy.interpolate",
        "import time:        50 |         50 |   bergmanlab.jsonio",
        "import time:       200 |        650 | bergmanlab",
        "import time:        10 |         10 | argparse",
    ])
    entries = run.parse_importtime(stderr)
    assert run.import_ms(entries, None) == pytest.approx(0.66)
    assert run.import_ms(entries, "bergmanlab") == pytest.approx(0.65)
    assert run.import_ms(entries, "scipy") == pytest.approx(0.4)
    assert run.import_ms(entries, "scipy.interpolate") == pytest.approx(0.4)


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files it exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "verdictbench", tmp_path / "verdictbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "verdictbench/run.py", "--workload",
         "fiber-automorphism", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
