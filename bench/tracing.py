"""Outside-in tracing of the mmbands layers.

The tracer replaces each traced public function, in every package module
that holds a reference to it, by a wrapper that records a span (name, start,
end, parent span, op id).  Module globals are looked up at call time, so a
caller inside the package reaches the wrapper and every call is seen.
``uninstall`` puts the original objects back.  Spans stay in memory until
the run ends.  The package source is never modified.

Metric names follow the module that defines the function:
``<module>.<function>.<quantity>``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

PACKAGE = "mmbands"

# (defining module, function); core is left out because its calls take
# microseconds, and its import cost shows in setup_s
TRACED = (
    ("assembly", "assemble_full"),
    ("assembly", "block_decompose"),
    ("assembly", "block_for"),
    ("eigensolve", "general_eig"),
    ("dispersion", "sweep"),
    ("dispersion", "cutoffs"),
    ("dispersion", "classify_mode"),
    ("dispersion", "detect_asymptote"),
    ("bandgap", "default_omega_ceiling"),
    ("bandgap", "coverage"),
    ("bandgap", "gaps_from_coverage"),
    ("bandgap", "detect_gaps"),
    ("cli", "run"),
)

OP_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: type | None = None


class Tracer:
    """Span recorder; wrappers record only while an op is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        # per-op observations taken from results at the layer boundary
        self.sweep_keys: list[tuple[int, bytes]] = []
        self.k_samples = 0
        self.bins = 0

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for defining, func in TRACED:
            original = getattr(importlib.import_module(
                f"{PACKAGE}.{defining}"), func, None)
            if original is None:
                continue        # a refactor removed it: it reports 0 calls
            wrapper = self._wrap(f"{defining}.{func}", original)
            for module in modules:
                if getattr(module, func, None) is original:
                    self._patched.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        for module, func, original in self._patched:
            if getattr(module, func) is not original:
                raise RuntimeError(f"{module.__name__}.{func} not restored")
        self._patched.clear()

    def _wrap(self, name: str, fn):
        observe = {"dispersion.sweep": self._observe_sweep,
                   "bandgap.coverage": self._observe_coverage}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx].error = type(exc)
                raise
            finally:
                self._close(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _observe_sweep(self, curve) -> None:
        self.k_samples += len(curve.grid)
        key = b"".join(b.omegas.tobytes() for b in curve.branches)
        self.sweep_keys.append((self._op, key))

    def _observe_coverage(self, cov) -> None:
        self.bins += int(getattr(cov, "n_bins", 0))

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open(OP_SPAN)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = None

    def write(self, path) -> None:
        """Write every span as one JSON line, its index being its id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     "error": s.error and s.error.__name__})
                         + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    One caller runs the ops, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run, as name -> (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    op_spans = [s for s in spans if s.name == OP_SPAN]
    n_ops = len(op_spans)
    op_wall = sum(s.end - s.start for s in op_spans)

    solve_error = getattr(importlib.import_module(f"{PACKAGE}.eigensolve"),
                          "EigenSolveError", Exception)
    calls = {f"{d}.{f}": 0 for d, f in TRACED}
    self_s = dict.fromkeys(calls, 0.0)
    eig = "eigensolve.general_eig"
    eig_errors = 0
    for s, t in zip(spans, own):
        if s.name in calls:
            calls[s.name] += 1
            self_s[s.name] += t
        if s.name == eig and s.error and issubclass(s.error, solve_error):
            eig_errors += 1

    out = {}
    for name in calls:
        out[f"{name}.calls_per_op"] = (calls[name] / n_ops, "count")
        out[f"{name}.self_s_per_op"] = (self_s[name] / n_ops, "s")
        out[f"{name}.share"] = (self_s[name] / op_wall, "ratio")

    out[f"{eig}.us_per_call"] = (
        1e6 * self_s[eig] / calls[eig] if calls[eig] else 0.0, "us")
    out[f"{eig}.errors"] = (eig_errors, "count")
    out["dispersion.k_samples_per_op"] = (tracer.k_samples / n_ops, "count")
    seen: set = set()
    unique = 0
    for key in tracer.sweep_keys:
        unique += key not in seen
        seen.add(key)
    n_sweeps = len(tracer.sweep_keys)
    out["dispersion.sweep.unique_ratio"] = (
        unique / n_sweeps if n_sweeps else 0.0, "ratio")
    out["bandgap.coverage.bins_per_op"] = (tracer.bins / n_ops, "count")
    return out
