"""Outside-in layer timing: spans around the program's public functions.

The benchmark adds no instrumentation to the program.  :class:`LayerTracer`
temporarily replaces public functions and methods with wrappers that time a
span (nested in the span that called it) or bump a counter, and puts the originals
back on :meth:`LayerTracer.uninstall`.  Patches go where the callers look
the name up at call time (for example ``repro.engine.session.execute_plan``,
which the session module imported by name), so every call of interest passes
through a wrapper.

A span's *self time* is its duration minus the time covered by its child
spans.  Self times are kept in memory, per span name, and summarised when
the run ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict

#: (owner import path, attribute, span name) of every timed wrapper.  A span
#: name of ``None`` is chosen per call by ``_exec_span``.
TIMED = (
    ("repro.service.service:QueryService", "execute", "service.execute"),
    ("repro.service.service:QueryService", "execute_mutation", "service.execute_mutation"),
    ("repro.service.service:QueryService", "compact", "mutation.compact"),
    ("repro.sql", "parse_query_cached", "sql.parse"),
    ("repro.core.planner.base:PlannerContext", "for_query", "stats.context"),
    ("repro.core.planner.combined:TCombinedPlanner", "plan", "core.plan"),
    ("repro.baseline.planners:BDisjPlanner", "plan", "baseline.plan"),
    ("repro.engine.parallel", "compile_plan", "physical.compile"),
    ("repro.engine.session", "execute_plan", None),
    ("repro.engine.session", "apply_output_shaping", "engine.postprocess"),
    ("repro.engine.shard", "scatter_gather", "engine.shard"),
    ("repro.mutation.batch:MutationBatch", "commit", "mutation.commit"),
    ("repro.mutation.wal:WalWriter", "append_transaction", "mutation.wal_append"),
    ("repro.mutation.diskops", "apply_ops_to_saved_catalog", "mutation.apply"),
)

#: (owner import path, attribute, counter name) of every counting wrapper.
COUNTED = (
    ("repro.core.planner.base:TaggedPlanner", "plan", "core.candidates"),
    ("repro.core.tagmap", "generalize_tag", "core.generalize_calls"),
    ("repro.core.generalize", "implied_truth_value", "core.implication_calls"),
    ("repro.core.tagmap", "implied_truth_value", "core.implication_calls"),
    ("os", "fsync", "mutation.fsyncs"),
)

#: Spans that start an operation; their self time is the unattributed time.
ROOTS = ("service.execute", "service.execute_mutation", "mutation.compact")


def _resolve(path: str):
    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attribute) if attribute else owner


def _exec_span(args, kwargs) -> str:
    """``execute_plan(kind, plan, ..., shards=N)``: one span per model.

    Sharded executions get their own span: their coordinator-side self time
    is not comparable with a serial execution's.
    """
    if (kwargs.get("shards") or 1) > 1:
        return "engine.exec.sharded"
    return f"engine.exec.{args[0]}"


class LayerTracer:
    """Wraps layer entry points while installed; records spans and counts."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- patching
    def install(self) -> None:
        """Put the wrappers in place (idempotent)."""
        if self._saved:
            return
        for path, attribute, name in TIMED:
            self._patch(_resolve(path), attribute, self._timed(name))
        for path, attribute, name in COUNTED:
            self._patch(_resolve(path), attribute, self._counted(name))

    def uninstall(self) -> None:
        """Restore every original, in reverse order of patching."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, make_wrapper) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        self._saved.append((owner, attribute, original))
        if isinstance(original, classmethod):
            setattr(owner, attribute, classmethod(make_wrapper(original.__func__)))
        else:
            setattr(owner, attribute, make_wrapper(original))

    def _timed(self, name: str | None):
        stack = self._stack
        spans = self.spans

        def make(function):
            def wrapper(*args, **kwargs):
                span_name = name if name is not None else _exec_span(args, kwargs)
                frame = [0.0]  # time covered by child spans
                stack.append(frame)
                start = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    spans[span_name].append(duration - frame[0])

            return wrapper

        return make

    def _counted(self, name: str):
        counts = self.counts

        def make(function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        return make

    # ------------------------------------------------------------ results
    def self_ms(self, span: str) -> float:
        """Median self time of ``span`` in milliseconds (0 when never called)."""
        values = self.spans.get(span)
        return statistics.median(values) * 1000.0 if values else 0.0

    def total_self_s(self, span: str) -> float:
        """Summed self time of ``span`` in seconds."""
        return sum(self.spans.get(span, ()))

    def unattributed_ms(self) -> float:
        """Median self time of the operation roots: time no layer span covers."""
        values = [value for root in ROOTS for value in self.spans.get(root, ())]
        return statistics.median(values) * 1000.0 if values else 0.0


def directory_bytes(root) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for directory, _subdirs, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except FileNotFoundError:  # removed by a concurrent compaction
                continue
    return total
