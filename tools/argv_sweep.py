"""Byte sweep: every benchmark argv of seeds 5 and 13, run through a
checkout's ``bergmanlab.cli.main``, reduced to one line of digests each.

    python3 tools/argv_sweep.py CHECKOUT > sweep.txt

CHECKOUT is the root of a bergmanlab checkout; its ``src/`` is the program
under test.  The argv come from the ``verdictbench/workloads.py`` beside
this script, so two checkouts are swept over the same inputs: for each
seed and workload, the measured pass, the defect inputs and the set-up
argv.  Each argv runs in-process, in this order, with the BLAS threads
pinned to 1 before numpy loads, as ``verdictbench/run.py`` pins them.

One line per argv, space-separated: seed, workload, index (``pass/I``,
``defect/I`` or ``setup``), command, exit code (``raised`` when
``cli.main`` raised), and the sha256 of stdout, of stderr and of the
``--out`` file (``-`` where the argv names none or none was written).  The
temporary directory the tabulated weights and ``--out`` files live in is
replaced by ``<tmp>`` before anything is hashed.  Two checkouts keep every
seed-5/13 argv's bytes exactly when their outputs are identical.
"""

from __future__ import annotations

import os

# pinned before numpy loads, as verdictbench/run.py pins them
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "verdictbench"))

import workloads  # noqa: E402

SEEDS = (5, 13)
TMP_MASK = b"<tmp>"


def _capture(cli, argv: tuple[str, ...],
             tmp: bytes) -> tuple[str, bytes, bytes, bytes | None]:
    """Exit code, stdout, stderr and ``--out`` report (None where the argv
    names none or none was written) of one argv, the temporary directory
    masked."""
    out = argv[argv.index("--out") + 1] if "--out" in argv else ""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = str(cli.main(list(argv)))
    except Exception:  # the sweep records a traceback, it does not stop
        rc = "raised"
    report = None
    if out and Path(out).exists():
        report = Path(out).read_bytes().replace(tmp, TMP_MASK)
        Path(out).unlink()
    return (rc, stdout.getvalue().encode().replace(tmp, TMP_MASK),
            stderr.getvalue().encode().replace(tmp, TMP_MASK), report)


def outputs(checkout: Path):
    """(seed, workload, index, argv, captured) for every argv in sweep
    order, ``captured`` as ``_capture`` gives it, run through the
    checkout's ``cli.main``."""
    src = checkout.resolve() / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("bergmanlab.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bergmanlab.cli loaded from {cli.__file__}, "
                         f"not from {src}")
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                tmp = workdir.encode()
                wl = workloads.generate(name, seed, Path(workdir))
                runs = [(f"pass/{i}", v.argv)
                        for i, v in enumerate(wl.verdicts)]
                runs += [(f"defect/{i}", v.argv)
                         for i, v in enumerate(wl.defects)]
                runs.append(("setup", wl.setup_argv))
                for index, argv in runs:
                    yield seed, name, index, argv, _capture(cli, argv, tmp)


def sweep(checkout: Path) -> None:
    for seed, name, index, argv, (rc, *streams) in outputs(checkout):
        digests = ("-" if data is None else hashlib.sha256(data).hexdigest()
                   for data in streams)
        print(seed, name, index, argv[0], rc, *digests, flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/argv_sweep.py CHECKOUT", file=sys.stderr)
        return 2
    sweep(Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
