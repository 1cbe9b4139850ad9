"""The review tools under tools/, run on this checkout."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import report_diff  # noqa: E402


def test_report_diff_of_a_checkout_against_itself_is_empty():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_diff.py"), str(ROOT),
         str(ROOT)], capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    summary, *groups = run.stdout.splitlines()
    assert re.fullmatch(r"0 of \d+ argv differ, 0 in exit code", summary)
    assert groups and all(re.fullmatch(r"  \S+ \S+: 0 of \d+", g)
                          for g in groups)


def test_report_diff_names_the_paths_that_differ():
    old = {"c": 1.0, "checks": [{"residual": 1e-16}, {"residual": 2e-16},
                                {"residual": 3e-16}], "verdict": "Match"}
    new = {"c": 1.0, "checks": [{"residual": 1e-16}, {"residual": 3e-16},
                                {"residual": 4e-16}], "verdict": "Mismatch"}
    line = report_diff.describe("stdout", json.dumps(old).encode(),
                                json.dumps(new).encode())
    assert line == ("  stdout: 2 numbers differ, largest relative "
                    "difference 0.33: .checks[*].residual (2); 1 other "
                    "values differ: .verdict")
    csv = report_diff.describe("stdout", b"0,1.5\n1,2.5\n", b"0,1.5\n1,2\n")
    assert csv == ("  stdout: 1 numbers differ, largest relative difference "
                   "0.2: [1][1]")
