"""Alternating benchmark pairs: one workload of the committed benchmark run
in a parent and a change checkout, summarized as one ``BENCH_<pr>.json``
workload entry.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS [--seed N]

PARENT and CHANGE are the roots of two bergmanlab checkouts (fresh ``git
archive`` copies, say).  In each of PAIRS pairs the command of the
``BENCHMARK.json`` beside this script, ``verdictbench/run.py --workload
WORKLOAD --seed N --seconds S --trace 0`` with S its ``run_seconds`` and N
13 unless given, runs once in each checkout, from that checkout's root:
the parent first in the odd pairs, the change first in the even ones.

The entry goes to standard output as JSON: ``pairs``; per end-to-end
metric the ``summary`` of both sides, each side's median and quartiles
(``statistics.quantiles``, n = 4) and ``change_wins``, the pairs in which
the change is better in the metric's ``better`` direction (ties count for
neither side); and ``runs``, the last line of standard output of every
run, unedited, in the order the runs were made.  Progress goes to
standard error.  A run whose last line is not a JSON object stops the
script with exit 1.  Nothing under either checkout's ``verdictbench/``
and no ``BENCHMARK.json`` is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    """The last line of standard output of one benchmark run, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited "
                         f"{proc.returncode} without a JSON last line:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Medians, quartiles and change wins of every end-to-end metric."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs]
                  for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        entry = {}
        for side in SIDES:
            entry[f"{side}_median"] = statistics.median(values[side])
            entry[f"{side}_quartiles"] = statistics.quantiles(values[side],
                                                              n=4)
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in
                                   zip(values["parent"], values["change"]))
        entry["unit"] = metric["unit"]
        summary[name] = entry
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_pairs.py",
        description="alternating parent/change runs of one benchmark "
                    "workload, as one BENCH_<pr>.json workload entry")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("PAIRS must be at least 2, for quartiles")
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"BENCHMARK.json has no workload {args.workload!r}")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}

    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        run = {"pair": pair, "first": order[0]}
        for side in order:
            run[side] = run_once(checkouts[side], bench["command"],
                                 args.workload, args.seed,
                                 bench["run_seconds"])
            gmean = run[side]["metrics"]["verdict_gmean_probe"]["value"]
            print(f"pair {pair} {side}: verdict_gmean_probe {gmean}",
                  file=sys.stderr, flush=True)
        runs.append(run)
    entry = {"pairs": args.pairs,
             "summary": summarize(runs, bench["end_to_end"]), "runs": runs}
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
