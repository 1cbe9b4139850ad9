"""Verdict benchmark: closed-loop bergmanlab CLI workloads with one client.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The loop is this one process calling
``bergmanlab.cli.main(argv)`` in-process; the next verdict is sent only
after the previous one returns.  Every verdict goes through the
correctness gate (expected exit code, byte-identical repeats, residuals
against independent references).

Inputs that a documented defect breaks are not in the measured loop: each
run checks them once, untimed, before the loop, and reports how many fail
as documented.

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same verdicts once untraced and once with spans around every layer and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of the last traced run of
a workload are written to ``.verdictbench/spans-<workload>.csv``.

Exits 2 without a result when the program cannot be loaded from ``src/`` or
the gate cannot run.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: a neighbour holding the other core stalls
# two-thread BLAS by orders of magnitude, so two threads would measure the
# scheduler rather than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".verdictbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 7     # timed fresh launches for setup_s
IMPORTTIME_LAUNCHES = 3
LAUNCH_TIMEOUT_S = 60
DIGITS_FLOOR = 1e-17   # residuals at or below this count as 17 digits

END_TO_END = {         # name -> unit
    "verdict_gmean_probe": "probe",
    "verdict_p90_probe": "probe",
    "loop_cost_probe": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "digits_p10": "digits",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# program loading and fresh launches

def load_cli():
    """Import bergmanlab.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "bergmanlab" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'bergmanlab'}")
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("bergmanlab.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import bergmanlab.cli: {exc}") from exc
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"bergmanlab.cli loaded from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def launch(argv, cwd: Path, importtime: bool = False) -> tuple[float, str]:
    """Run ``python -m bergmanlab.cli argv`` fresh; wall seconds, stderr."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-m", "bergmanlab.cli", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"launch timed out: {' '.join(argv)}") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up verdict exited {proc.returncode}: "
                         f"{' '.join(argv)}\n{proc.stderr[-2000:]}")
    return wall, proc.stderr


def parse_importtime(stderr: str) -> list[tuple[int, str, int]]:
    """(depth, module, cumulative microseconds) per ``-X importtime`` line,
    in the order the imports finished (children before their parent)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cum)))
    return entries


def import_ms(entries, package: str | None) -> float:
    """Milliseconds spent importing ``package`` and its submodules, counting
    each import chain once at its outermost module of the package; with
    ``package=None`` the whole import time of the launch."""
    def inside(name: str) -> bool:
        return package is None or name == package \
            or name.startswith(package + ".")

    parent = [None] * len(entries)
    pending: list[int] = []
    for i, (depth, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] > depth:
            parent[pending.pop()] = i
        pending.append(i)
    total = 0
    for i, (_, name, cum) in enumerate(entries):
        if not inside(name):
            continue
        a = parent[i]
        while a is not None and not inside(entries[a][1]):
            a = parent[a]
        if a is None:
            total += cum
    return total / 1e3


def measure_imports(argv, cwd: Path) -> dict[str, float]:
    runs = [parse_importtime(launch(argv, cwd, importtime=True)[1])
            for _ in range(IMPORTTIME_LAUNCHES)]

    def med(package: str | None) -> float:
        return statistics.median(import_ms(r, package) for r in runs)

    return {"setup.import_ms": med(None),
            "setup.import.bergmanlab_ms": med("bergmanlab"),
            "setup.import.scipy_ms": med("scipy"),
            "setup.import.scipy_interpolate_ms": med("scipy.interpolate")}


# ---------------------------------------------------------------------------
# machine probe

_PROBE_RNG = np.random.default_rng(12345)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((48, 48)) \
    + 1j * _PROBE_RNG.standard_normal((48, 48))
_PROBE_MATRIX = _PROBE_MATRIX @ _PROBE_MATRIX.conj().T + 48 * np.eye(48)
_PROBE_VECTOR = _PROBE_RNG.standard_normal(2048)


def probe() -> float:
    """Seconds for a fixed pure-Python plus numpy loop shaped like the
    program's work (scalar arithmetic, small complex linear algebra, vector
    maths); it contains no bergmanlab code."""
    start = time.perf_counter()
    acc = 0j
    for k in range(2000):
        acc += complex(k % 7, k % 5) ** 2 / (k + 1)
    for _ in range(10):
        L = np.linalg.cholesky(_PROBE_MATRIX)
        acc += complex(L[-1, -1])
    v = _PROBE_VECTOR
    for _ in range(50):
        v = np.sqrt(v * v + 1.0) - 0.5
    acc += float(v[0])
    if not math.isfinite(abs(acc)):
        raise BenchError("probe produced a non-finite value")
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# the closed loop and its correctness gate

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def release_free_memory() -> None:
    """Hand freed heap pages back to the system between verdicts.

    A user runs each verdict in a fresh process; without this, heap left
    fragmented by one verdict raises the resident set of a later one, and
    peak_rss_mb would depend on the order of the verdicts."""
    if _malloc_trim is not None:
        _malloc_trim(0)


@dataclass
class Sample:
    index: int             # position of the verdict in the pass
    latency_s: float
    rc: int | None         # None when cli.main raised
    probe_s: float = 0.0   # geometric mean of the probes around the verdict
    failure: str = ""      # "" when the verdict passed the gate
    known: bool = False    # failure is the input's documented defect
    detail: str = ""


@dataclass
class Loop:
    cli: object
    verdicts: list
    samples: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    digits: list = field(default_factory=list)
    report_bytes: int = 0
    busy_s: float = 0.0     # loop wall time minus probe time

    def call(self, index: int, tracer=None) -> Sample:
        """One verdict; with a tracer, spans are recorded for this call only."""
        v = self.verdicts[index]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.verdict = len(self.samples)
            tracer.install()
        rc, raised = None, ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = self.cli.main(list(v.argv))
        except Exception as exc:  # a traceback is a failed verdict, not a crash
            raised = f"{type(exc).__name__}: {exc}"
        finally:
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        sample = Sample(index, latency, rc)
        self._check(v, sample, raised, stdout.getvalue(), stderr.getvalue())
        self.samples.append(sample)
        return sample

    def _check(self, v, sample: Sample, raised: str, stdout: str,
               stderr: str) -> None:
        data = stdout.encode()
        if v.out:
            path = Path(v.out)
            if path.exists():
                data = path.read_bytes()
                path.unlink()
        self.report_bytes += len(data)
        if raised:
            sample.failure, sample.detail = "raised", raised
        elif sample.rc == 2:
            sample.failure, sample.detail = "exit-2", stderr.strip()[-300:]
        elif sample.rc != v.expect:
            sample.failure = "wrong-exit"
            sample.detail = f"exit {sample.rc}, expected {v.expect}"
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(sample.index, digest)
        if not sample.failure and digest != first:
            sample.failure = "nondeterministic"
            sample.detail = "report bytes differ from the first run of the input"
        if sample.failure in ("exit-2", "wrong-exit") and v.defect is not None:
            sample.known = sample.rc == v.defect.exit_code
        if v.ref and sample.rc in (0, 1) and not raised:
            try:
                residual = float(json.loads(data)[v.ref])
            except (ValueError, KeyError, TypeError) as exc:
                sample.failure = sample.failure or "bad-report"
                sample.detail = sample.detail or f"no {v.ref}: {exc}"
                return
            self.digits.append(-math.log10(max(abs(residual), DIGITS_FLOOR)))

    def step(self, index: int, tracer=None) -> Sample:
        """The verdict between two machine probes.  The shared host changes
        speed within seconds, so the probes on both sides bracket the
        speed the verdict met better than one before it does."""
        release_free_memory()
        before = probe()
        start = time.perf_counter()
        sample = self.call(index, tracer)
        self.busy_s += time.perf_counter() - start
        sample.probe_s = math.sqrt(before * probe())
        return sample


def pass_order(n: int, pass_number: int, seed: int) -> list[int]:
    """Pass 0 keeps the generated order; later passes rotate it, so that a
    verdict's neighbours differ from pass to pass."""
    shift = (pass_number * 37 + seed) % n if pass_number else 0
    return [(k + shift) % n for k in range(n)]


def warm_up(loop: Loop) -> None:
    """One verdict of each template, untimed, so lazy first-use imports and
    allocator growth are not charged to the first measured verdicts."""
    seen = set()
    for index, v in enumerate(loop.verdicts):
        if v.template not in seen:
            seen.add(v.template)
            loop.call(index)
    loop.samples.clear()
    loop.report_bytes = 0
    loop.digits.clear()


# ---------------------------------------------------------------------------
# metrics

def in_probe_units(samples) -> list[float]:
    """Each verdict's latency divided by the probe time around it."""
    return [s.latency_s / s.probe_s for s in samples]


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A workload's latencies cluster by verdict kind with
    gaps between clusters; a single order statistic jumps across a gap when
    a few verdicts change rank, while this estimate moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def per_input_median(samples) -> list[float]:
    """Median latency in probe units of each verdict of the pass."""
    by_input: dict[int, list[float]] = {}
    for s, r in zip(samples, in_probe_units(samples)):
        by_input.setdefault(s.index, []).append(r)
    return [statistics.median(v) for v in by_input.values()]


def gate_summary(samples) -> tuple[bool, int, int, dict]:
    """The measured loop holds no input a documented defect breaks, so any
    failure there makes the run incorrect."""
    failed = [s for s in samples if s.failure]
    kinds: dict[str, int] = {}
    for s in failed:
        kinds[s.failure] = kinds.get(s.failure, 0) + 1
    return bool(samples) and not failed, len(samples), len(failed), kinds


def check_defects(cli, defects) -> tuple[bool, list, dict]:
    """Run every input a documented defect breaks once, untimed.  Correct
    when each either passes (the defect is gone) or fails exactly as
    documented; returns that, the unexpected failures and the number of
    documented failures per defect."""
    loop = Loop(cli, defects)
    for index in range(len(defects)):
        loop.call(index)
    documented: dict[str, int] = {}
    unexpected = []
    for s in loop.samples:
        if s.known:
            name = defects[s.index].defect.name
            documented[name] = documented.get(name, 0) + 1
        elif s.failure:
            unexpected.append(s)
    return not unexpected, unexpected, documented


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    if len(loop.samples) < 100:
        raise BenchError(f"only {len(loop.samples)} verdicts ran; p90 needs 100")
    if len(loop.digits) < 2:
        raise BenchError("too few reference-checked verdicts completed")
    units = in_probe_units(loop.samples)
    _, attempted, failed, _ = gate_summary(loop.samples)
    return {
        "verdict_gmean_probe": geometric_mean(units),
        "verdict_p90_probe": harrell_davis(units, 0.9),
        "loop_cost_probe": sum(per_input_median(loop.samples)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": 1.0 - failed / attempted,
        # digits that nine in ten reference-checked verdicts reach
        "digits_p10": statistics.quantiles(loop.digits, n=10)[0],
    }


UNGATED = {"verdict_p50_ms": "ms", "verdict_p90_ms": "ms",
           "verdicts_per_s": "1/s", "verdict_p50_probe": "probe",
           "probe_ms": "ms", "fail_ratio": "ratio", "min_digits": "digits"}


def ungated(loop: Loop) -> dict[str, float]:
    """Figures printed for people but not gated: wall-clock ones move with
    the shared host's speed, and the median, fail_ratio and min_digits are
    unsteady across seeds or zero (see README.md)."""
    lat = [s.latency_s * 1e3 for s in loop.samples]
    _, attempted, failed, _ = gate_summary(loop.samples)
    return {
        "verdict_p50_ms": statistics.median(lat),
        "verdict_p90_ms": statistics.quantiles(lat, n=10)[8],
        "verdicts_per_s": len(lat) / loop.busy_s,
        "verdict_p50_probe": statistics.median(in_probe_units(loop.samples)),
        "probe_ms": geometric_mean(s.probe_s for s in loop.samples) * 1e3,
        "fail_ratio": failed / attempted,
        "min_digits": min(loop.digits),
    }


LAYER_COUNTERS = (
    "moments.exact_fallback_ratio", "moments.gram_entries", "kernels.dropped",
    "hartogs.fiber_terms", "hartogs.family_hit_ratio", "cli.report_bytes",
    "setup.import_ms", "setup.import.bergmanlab_ms", "setup.import.scipy_ms",
    "setup.import.scipy_interpolate_ms", "probe_ms", "trace_overhead_ratio",
    "trace.accounted_ratio", "trace.accounted_min_ratio", "trace.spans",
    "trace.missing_spans", "gate.defects_failing",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order the traced run reports them."""
    return [f"{name}.{stat}" for name in tracing.SPAN_NAMES
            for stat in ("calls", "self_ms", "raised")] + list(LAYER_COUNTERS)


def per_layer(tracer, untraced: Loop, traced: Loop, passes: int,
              imports: dict[str, float],
              defects_failing: int) -> dict[str, float]:
    """Per-layer metrics; calls, times and byte counts are per pass."""
    out: dict[str, float] = {}
    totals = tracer.layer_totals()
    for name in tracing.SPAN_NAMES:
        t = totals[name]
        out[f"{name}.calls"] = t["calls"] / passes
        out[f"{name}.self_ms"] = t["self_ms"] / passes
        out[f"{name}.raised"] = t["raised"] / passes
    exact = totals["moments.gram_exact"]
    out["moments.exact_fallback_ratio"] = \
        exact["raised"] / exact["calls"] if exact["calls"] else 0.0
    for counter in ("moments.gram_entries", "kernels.dropped",
                    "hartogs.fiber_terms"):
        out[counter] = tracer.counters[counter] / passes
    family = totals["hartogs.ClosedFormFamily.__call__"]["calls"]
    out["hartogs.family_hit_ratio"] = \
        tracer.counters["hartogs.family_hits"] / family if family else 0.0
    out["cli.report_bytes"] = traced.report_bytes / passes
    out.update(imports)
    out["probe_ms"] = geometric_mean(
        s.probe_s for s in untraced.samples + traced.samples) * 1e3
    traced_s = sum(s.latency_s for s in traced.samples)
    out["trace_overhead_ratio"] = \
        traced_s / sum(s.latency_s for s in untraced.samples)
    by_verdict = tracer.self_seconds_by_verdict()
    out["trace.accounted_ratio"] = sum(by_verdict.values()) / traced_s
    out["trace.accounted_min_ratio"] = min(
        by_verdict[i] / s.latency_s for i, s in enumerate(traced.samples))
    out["trace.spans"] = len(tracer.spans) / passes
    out["trace.missing_spans"] = len(tracer.missing)
    out["gate.defects_failing"] = defects_failing
    return {name: out[name] for name in per_layer_names()}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "cli.report_bytes" else "count"


# ---------------------------------------------------------------------------
# runs

def run_untraced(loop: Loop, seed: int, seconds: float, setup_argv,
                 cwd: Path) -> float:
    """Whole passes while the next one is expected to end within
    ``seconds`` of loop time, and at least one, so every ratio is over the
    same mix of verdicts whatever the machine's speed.  The fresh launches
    for ``setup_s`` are spread evenly over the run, so their median sees
    the same machine as the loop; the loop clock stops while one runs.
    Returns ``setup_s``."""
    launch(setup_argv, cwd)  # untimed: writes the bytecode caches (the build)
    walls: list[float] = []
    paused = 0.0
    start = time.perf_counter()
    n = len(loop.verdicts)
    p = 0
    while True:
        for index in pass_order(n, p, seed):
            elapsed = time.perf_counter() - start - paused
            if len(walls) < SETUP_LAUNCHES \
                    and elapsed >= len(walls) * seconds / SETUP_LAUNCHES:
                wall = launch(setup_argv, cwd)[0]
                walls.append(wall)
                paused += wall
            loop.step(index)
        p += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed * (p + 1) / p > seconds:
            break
    while len(walls) < SETUP_LAUNCHES:
        walls.append(launch(setup_argv, cwd)[0])
    return statistics.median(walls)


def run_traced(cli, verdicts, seed: int, seconds: float):
    """Whole passes in which every verdict runs twice back to back, once
    untraced and once traced, the order alternating; passes repeat while
    less than half of ``seconds`` has gone.  Pairing the calls makes the
    overhead ratio immune to the machine drifting between two runs."""
    untraced = Loop(cli, verdicts)
    warm_up(untraced)
    traced = Loop(cli, verdicts, digests=untraced.digests)
    tracer = tracing.Tracer()
    n = len(verdicts)
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds / 2:
        for k, index in enumerate(pass_order(n, passes, seed)):
            if k % 2 == 0:
                untraced.step(index)
                traced.step(index, tracer)
            else:
                traced.step(index, tracer)
                untraced.step(index)
        passes += 1
    return untraced, traced, tracer, passes


def format_lines(metrics: dict[str, float], units) -> list[str]:
    return [f"  {name:<48s} {value:>16.6g} {units(name)}"
            for name, value in metrics.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        cli = load_cli()
    except BenchError as exc:
        print(f"verdictbench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(cli, args, workdir)
    except BenchError as exc:
        print(f"verdictbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(cli, args, workdir: Path) -> int:
    wl = workloads.generate(args.workload, args.seed, workdir)
    blas = " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    print(f"# verdictbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"verdicts_per_pass={len(wl.verdicts)} client=1 closed-loop")
    print(f"# blas pinned: {blas}")
    defects_ok, unexpected, documented = check_defects(cli, wl.defects)
    defects_failing = sum(documented.values())
    print(f"# known defects, checked outside the loop: {len(wl.defects)} "
          f"inputs, {defects_failing} fail as documented {documented}, "
          f"{len(unexpected)} fail otherwise")
    for s in unexpected[:1]:
        print(f"# unexpected failure: {' '.join(wl.defects[s.index].argv)}"
              f" -> {s.failure}: {s.detail}")

    if args.trace:
        imports = measure_imports(wl.setup_argv, workdir)
        untraced, traced, tracer, passes = run_traced(
            cli, wl.verdicts, args.seed, args.seconds)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.csv")
        metrics = per_layer(tracer, untraced, traced, passes, imports,
                            defects_failing)
        samples = untraced.samples + traced.samples
        print(f"# traced {len(traced.samples)} verdicts in {passes} passes, "
              f"{len(tracer.spans)} spans; missing_spans: {tracer.missing}")
        ranked = sorted(((metrics[f"{n}.self_ms"], n)
                         for n in tracing.SPAN_NAMES if n != "cli.main"),
                        reverse=True)[:5]
        print("# largest self time per pass: " + ", ".join(
            f"{n} {ms:.0f} ms" for ms, n in ranked))
        units = per_layer_unit
    else:
        loop = Loop(cli, wl.verdicts)
        warm_up(loop)
        setup_s = run_untraced(loop, args.seed, args.seconds, wl.setup_argv,
                               workdir)
        metrics = end_to_end(loop, setup_s)
        print(f"# {len(loop.samples) // len(wl.verdicts)} passes, "
              f"{len(loop.digits)} reference-checked verdicts; not gated:")
        print("\n".join(format_lines(ungated(loop), UNGATED.get)))
        samples = loop.samples
        units = END_TO_END.get

    correct, attempted, failed, kinds = gate_summary(samples)
    correct = correct and defects_ok
    print(f"# gate: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4g} correct={correct} {kinds}")
    for s in samples:
        if s.failure:
            print(f"# unexpected failure: {' '.join(wl.verdicts[s.index].argv)}"
                  f" -> {s.failure}: {s.detail}")
            break
    print(f"# {'per-layer' if args.trace else 'gated end-to-end'} metrics:")
    print("\n".join(format_lines(metrics, units)))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
