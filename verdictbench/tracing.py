"""In-memory spans around bergmanlab's public callables.

The tracer wraps each name in ``SPAN_NAMES`` from outside the package.  A
module-level function is found by identity: every ``bergmanlab.*`` module
namespace that holds the same object gets the wrapper, so re-bindings such
as ``from .moments import gram_exact`` are caught.  A ``Class.method`` name
is patched on the class.  A name that no longer exists is listed in
``missing`` instead of failing the run.

A span records its name, start, end, parent span and the verdict it ran
under.  Self time is the span's duration minus the durations of its child
spans.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# <module>.<callable> for every wrapped layer boundary; the module is the
# bergmanlab submodule that defines the callable
SPAN_NAMES = (
    "cli.main",
    "cli.emit_report",
    "jsonio.canonical_dumps",
    "core.monomial_values",
    "core.load_radial_profile",
    "moments.gram_exact",
    "moments.gram_quadrature",
    "moments.gram_montecarlo",
    "moments.gram_validate",
    "kernels.kernel_from_gram",
    "kernels.SeriesKernel.eval",
    "kernels.SeriesKernel.eval_grid",
    "kernels.PowerKernel.eval",
    "kernels.FockKernel.eval",
    "kernels.ScaledKernel.eval",
    "hartogs.frc_eval",
    "hartogs.frc_restriction_check",
    "hartogs.ClosedFormFamily.__call__",
    "automorphisms.apply",
    "automorphisms.jacobian_base_slice",
    "automorphisms.jacobian_fd_matrix",
    "automorphisms.transform_residual",
    "characterize.characterize_ch",
    "characterize.characterize_fbh",
    "characterize.family_condition_check",
    "characterize.moment_mismatch",
    "characterize.recover_weight",
)


def _count_gram(counters: Counter, out) -> None:
    entries = getattr(out, "entries", None)
    counters["moments.gram_entries"] += int(getattr(entries, "size", 0))


def _count_dropped(counters: Counter, out) -> None:
    counters["kernels.dropped"] += int(getattr(out, "dropped", 0))


def _count_terms(counters: Counter, out) -> None:
    counters["hartogs.fiber_terms"] += int(getattr(out, "terms_used", 0))


def _count_family_hit(counters: Counter, args) -> None:
    family, k = args[0], args[1]
    counters["hartogs.family_hits"] += int(k in getattr(family, "_cache", {}))


# counters read from a wrapped call's result (AFTER) or arguments (BEFORE)
AFTER = {
    "moments.gram_exact": _count_gram,
    "moments.gram_quadrature": _count_gram,
    "moments.gram_montecarlo": _count_gram,
    "kernels.kernel_from_gram": _count_dropped,
    "hartogs.frc_eval": _count_terms,
}
BEFORE = {
    "hartogs.ClosedFormFamily.__call__": _count_family_hit,
}


class Tracer:
    """Records spans while installed; ``verdict`` tags the spans of a call.

    Create it after the package is imported.  ``install`` and ``uninstall``
    only swap prepared bindings, so tracing can be switched per call.
    """

    def __init__(self, package: str = "bergmanlab"):
        self.package = package
        # (span id, parent id, verdict, name, start, end, self seconds, raised)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.verdict = -1
        self._stack: list[list] = []   # [span id, seconds spent in children]
        self._next_id = 0
        # (owner, attribute, original, wrapper) for every binding to patch
        self._patches: list[tuple] = []
        self._prepare()

    # -- installation -------------------------------------------------------

    def _prepare(self) -> None:
        """Resolve every name and build its wrapper; nothing is patched yet."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for name in SPAN_NAMES:
            module_name, _, qualname = name.partition(".")
            module = sys.modules.get(f"{self.package}.{module_name}")
            owner_name, _, method = qualname.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name, None)
                fn = vars(cls).get(method) if isinstance(cls, type) else None
                if not callable(fn):
                    self.missing.append(name)
                    continue
                self._patches.append((cls, method, fn, self._wrap(name, fn)))
                continue
            fn = getattr(module, qualname, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter
        before = BEFORE.get(name)
        after = AFTER.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            if before is not None:
                before(counters, args)
            stack.append(frame)
            raised = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, parent, tracer.verdict, name, start, end,
                              duration - frame[1], raised))
            if after is not None:
                after(counters, out)
            return out

        return span

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_ms and raised per span name (zero when never called)."""
        totals = {n: {"calls": 0, "self_ms": 0.0, "raised": 0}
                  for n in SPAN_NAMES}
        for _, _, _, name, _, _, self_s, raised in self.spans:
            t = totals[name]
            t["calls"] += 1
            t["self_ms"] += self_s * 1e3
            t["raised"] += int(raised)
        return totals

    def self_seconds_by_verdict(self) -> Counter:
        out: Counter = Counter()
        for _, _, verdict, _, _, _, self_s, _ in self.spans:
            out[verdict] += self_s
        return out

    def write_spans(self, path) -> None:
        """CSV, one span a line; times in microseconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,verdict,name,start_us,end_us,self_us,raised\n")
            for sid, parent, verdict, name, start, end, self_s, raised in self.spans:
                fh.write(f"{sid},{parent},{verdict},{name},"
                         f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                         f"{self_s * 1e6:.1f},{int(raised)}\n")
