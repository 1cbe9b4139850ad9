"""Report diff: the argv of ``tools/argv_sweep.py`` run through two
checkouts, and where the outputs of each argv differ.

    python3 tools/report_diff.py OLD NEW

OLD and NEW are the roots of two bergmanlab checkouts.  Both hold the
package ``bergmanlab``, so each runs in a fresh interpreter of its own,
through ``argv_sweep.outputs``: the argv, the in-process runner and the
masking of the byte sweep.

For each argv whose exit code, stdout, stderr or ``--out`` report
differs, one line names it (seed, workload, index, command) with its exit
codes OLD -> NEW, and one line follows per stream that differs: how many
numbers differ, the largest relative difference |a - b|/max(|a|, |b|)
among them, and their JSON paths.  Paths that differ only in their array
indices are listed once, the indices as ``[*]``, with their count.  A
stream that is not JSON (CSV rows, an error message) is read as lines of
comma-separated fields, its paths ``[line][field]``.  Values other than
numbers that differ, and arrays of different lengths, are counted and
listed as other values.  Last comes a summary: the argv that differ, of
all, by workload and command, with the largest relative difference among
the numbers of each group where one differs.  Exit status 0 when no
output differs, 1 otherwise, as with diff(1).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import re
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

STREAMS = ("stdout", "stderr", "report")


def _collect(checkout: str) -> list:
    """((seed, workload, index, command), captured) of every argv."""
    # imported in the worker only: the sweep pins the BLAS threads of the
    # interpreter that imports it, before numpy loads
    import argv_sweep
    return [((seed, name, index, argv[0]), captured) for
            seed, name, index, argv, captured in
            argv_sweep.outputs(Path(checkout))]


def run_checkout(checkout: Path) -> list:
    """``_collect`` in a fresh interpreter, where no other checkout's
    ``bergmanlab`` is loaded."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        return pool.submit(_collect, str(checkout)).result()


def _parse(data: bytes):
    """The stream as JSON, else as lines of comma-separated fields, each
    a float where it reads as one."""
    text = data.decode()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_field(f) for f in line.split(",")]
                for line in text.splitlines()]


def _field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def differences(old, new, path: str = ""):
    """(path, relative difference) of each number that differs between
    two parsed streams, and (path, None) of each other value that does."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            where = f"{path}.{key}"
            if key in old and key in new:
                yield from differences(old[key], new[key], where)
            else:
                yield where, None
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif _is_number(old) and _is_number(new):
        if old != new and not (math.isnan(old) and math.isnan(new)):
            yield path, _relative(old, new)
    elif old != new:
        yield path, None


def _paths(paths: list[str]) -> str:
    """The paths, those that differ only in array indices listed once."""
    groups: dict[str, list[str]] = {}
    for p in paths:
        groups.setdefault(re.sub(r"\[\d+\]", "[*]", p), []).append(p)
    return ", ".join(same[0] if len(same) == 1 else f"{g} ({len(same)})"
                     for g, same in groups.items())


def describe(stream: str, old: bytes | None,
             new: bytes | None) -> tuple[str, float]:
    """One line on how a stream that differs differs, and the largest
    relative difference among its numbers that differ (0 where none
    does)."""
    if old is None or new is None:
        return (f"  {stream}: written by {'OLD' if new is None else 'NEW'} "
                f"only", 0.0)
    found = list(differences(_parse(old), _parse(new)))
    numbers = [(p, r) for p, r in found if r is not None]
    others = [p for p, r in found if r is None]
    parts, largest = [], max((r for _, r in numbers), default=0.0)
    if numbers:
        parts.append(f"{len(numbers)} numbers differ, largest relative "
                     f"difference {largest:.2g}: "
                     f"{_paths([p for p, _ in numbers])}")
    if others:
        parts.append(f"{len(others)} other values differ: {_paths(others)}")
    # bytes that parse alike (spacing, key order) still differ as bytes
    return f"  {stream}: " + ("; ".join(parts) or "the same values, "
                              "other bytes"), largest


def report(old: list, new: list) -> int:
    """Print the differing argv and the summary; the count that differ."""
    if [key for key, _ in old] != [key for key, _ in new]:
        raise SystemExit("the two checkouts ran different argv")
    total, changed, largest, exits = Counter(), Counter(), Counter(), 0
    for (key, (rc_old, *a)), (_, (rc_new, *b)) in zip(old, new):
        group = key[1], key[3]      # workload, command
        total[group] += 1
        if (rc_old, *a) == (rc_new, *b):
            continue
        changed[group] += 1
        exits += rc_old != rc_new
        print(*key, f"exit {rc_old} -> {rc_new}")
        for stream, x, y in zip(STREAMS, a, b):
            if x != y:
                line, rel = describe(stream, x, y)
                print(line)
                largest[group] = max(largest[group], rel)
    print(f"{sum(changed.values())} of {sum(total.values())} argv differ, "
          f"{exits} in exit code")
    for group, count in total.items():
        rel = largest[group]
        print(f"  {' '.join(group)}: {changed[group]} of {count}"
              + (f", largest relative difference {rel:.2g}" if rel else ""))
    return sum(changed.values())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (run_checkout(Path(a)) for a in argv)
    return 1 if report(old, new) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
