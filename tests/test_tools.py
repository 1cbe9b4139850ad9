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
                    "values differ: .verdict", 1 / 3)
    csv = report_diff.describe("stdout", b"0,1.5\n1,2.5\n", b"0,1.5\n1,2\n")
    assert csv == ("  stdout: 1 numbers differ, largest relative difference "
                   "0.2: [1][1]", 0.2)


def test_report_diff_summary_gives_each_groups_largest_difference(capsys):
    gram, other, mismatch = ((5, "wl", f"pass/{i}", "gram") for i in range(3))
    setup = (5, "wl", "setup", "recover-weight")
    old = [(gram, ("0", b'{"a": [1.0, 2.0]}', b"", None)),
           (other, ("0", b'{"a": [4.0]}', b"", None)),
           (mismatch, ("1", b"0,0,1.0,0.0\n", b"", None)),
           (setup, ("2", b"", b"", None))]
    new = [(gram, ("0", b'{"a": [1.0, 2.5]}', b"", None)),
           (other, ("0", b'{"a": [4.4]}', b"", None)),
           (mismatch, ("1", b"0,0,1.0,0.0\n", b"", None)),
           (setup, ("0", b"", b"", b"{}"))]
    assert report_diff.report(old, new) == 3
    assert capsys.readouterr().out.splitlines() == [
        "5 wl pass/0 gram exit 0 -> 0",
        "  stdout: 1 numbers differ, largest relative difference 0.2: .a[1]",
        "5 wl pass/1 gram exit 0 -> 0",
        "  stdout: 1 numbers differ, largest relative difference 0.091: "
        ".a[0]",
        "5 wl setup recover-weight exit 2 -> 0",
        "  report: written by NEW only",
        "3 of 4 argv differ, 1 in exit code",
        "  wl gram: 2 of 3, largest relative difference 0.2",
        "  wl recover-weight: 1 of 1",
    ]
