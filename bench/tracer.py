"""Spans around qcw's public entry points, patched in from outside.

The tracer wraps the callables listed in ``STAGES`` and records one span per
call: name, start, end, parent span and job id.  It patches every binding of
a callable inside the ``qcw`` package (``from .x import y`` copies included),
and ``uninstall`` puts the originals back.  Only the stages marked
``peak=True`` run under ``tracemalloc``, and only when the tracer is made
with ``peaks=True``: tracemalloc slows every allocation, a pure-Python
stage by up to 16x, so peaks come from a pass of their own whose times are
not used.  ``semidirect_power_table`` is not one of them: its million-step
Python loop ran 12x slower (80 s instead of 6.4 s for the order-1024 wreath
job), which would not let a traced run end in time, so the size of the
table it returns is recorded instead.  The program itself is not edited.

``layer_metrics`` turns the spans and counters of one pass into the
per-layer metrics: self time per stage (span time minus time in child
spans), total time of the stages that call other stages, call counts and
sizes; ``peak_metrics`` reads the tracemalloc peaks.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass

MB = 1024 * 1024


@dataclass(frozen=True)
class Stage:
    """One traced callable: ``module.attr`` (attr may be ``Class.method``)."""

    name: str
    module: str
    attr: str
    peak: bool = False


STAGES = (
    Stage("presentations.parse_file", "qcw.presentations", "parse_file"),
    Stage("qcentral.third_quotient", "qcw.qcentral", "third_quotient"),
    Stage("qcentral.second_quotient", "qcw.qcentral", "second_quotient"),
    Stage("qcentral.to_table", "qcw.qcentral", "to_table", peak=True),
    Stage("qcentral.table_invariants", "qcw.qcentral", "group_record"),
    Stage("qcentral.table_invariants", "qcw.qcentral", "table_record"),
    Stage("qcentral.is_isomorphic", "qcw.qcentral", "is_isomorphic"),
    Stage("qcentral.series_step_oracle", "qcw.qcentral", "series_step_oracle"),
    Stage("cohom.h1", "qcw.cohom", "GroupCohomology.h1_space"),
    Stage("cohom.b2", "qcw.cohom", "GroupCohomology.coboundary_rows", peak=True),
    Stage("cohom.z2", "qcw.cohom", "GroupCohomology.z2_generators", peak=True),
    Stage("cohom.h2_module", "qcw.cohom", "GroupCohomology.h2_module"),
    Stage("cohom.dec_module", "qcw.cohom", "GroupCohomology.dec_module"),
    Stage("cohom.pairing", "qcw.cohom", "GroupCohomology.pairing"),
    Stage("cohom.pairings_equivalent", "qcw.cohom", "pairings_equivalent"),
    Stage("zqlinalg.diagonalize", "qcw.zqlinalg", "diagonalize"),
    Stage("zqlinalg.rowspace", "qcw.zqlinalg", "RowSpace.add_rows"),
    Stage("milnor.symbol_algebra", "qcw.milnor", "symbol_algebra"),
    Stage("milnor.pairing_gram", "qcw.milnor", "milnor_pairing_gram"),
    Stage("realizability.principle_check", "qcw.realizability", "principle_check"),
    Stage("realizability.wreath_construct", "qcw.realizability", "wreath_construct"),
    Stage(
        "realizability.semidirect_power_table", "qcw.realizability", "semidirect_power_table"
    ),
    Stage("cli", "qcw.cli", "main"),
)

# per-layer metrics derived from spans, in report order
SELF_TIMES = tuple(dict.fromkeys(s.name for s in STAGES))
# stages that call other stages: their span time includes their children's
TOTAL_TIMES = (
    "qcentral.table_invariants",
    "cohom.h1",
    "cohom.z2",
    "cohom.h2_module",
    "cohom.dec_module",
    "cohom.pairing",
    "cohom.pairings_equivalent",
    "milnor.symbol_algebra",
    "milnor.pairing_gram",
    "realizability.principle_check",
    "realizability.wreath_construct",
)
CALL_COUNTS = ("zqlinalg.diagonalize", "milnor.symbol_algebra")
PEAKS = tuple(s.name for s in STAGES if s.peak)
# counters recorded by the wrappers; each is summed over a pass
COUNTERS = (
    "qcentral.kernel_order",
    "qcentral.quotient_order",
    "cohom.width",
    "cohom.z2.equations_total",
    "zqlinalg.diagonalize.cells",
    "zqlinalg.rowspace.batches",
    "zqlinalg.rowspace.rows_in",
    "zqlinalg.rowspace.rows_grew",
    "realizability.semidirect_power_table.table_bytes",
)


class Tracer:
    """Records spans and counters; one instance per traced interpreter."""

    def __init__(self, peaks: bool = False):
        self.peaks = peaks
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._job: str | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._groups: list = []
        self._contexts: dict[int, object] = {}
        self._solved: dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    def begin_job(self, job_id: str) -> None:
        self._job = job_id
        self._stack = []
        self._groups, self._contexts, self._solved = [], {}, {}
        self.counters[job_id] = dict.fromkeys(COUNTERS, 0)

    def end_job(self) -> None:
        """Read the sizes that were cheap to read only after the job ran."""
        counts = self.counters[self._job]
        for g in self._groups:
            # the kernel set is cached by then: to_table or order built it
            kernel = len(g.kernel_set())
            counts["qcentral.kernel_order"] += kernel
            counts["qcentral.quotient_order"] += g.full_order // kernel
        counts["cohom.width"] += sum(ctx.width for ctx in self._contexts.values())
        counts["cohom.z2.equations_total"] += sum(
            (ctx.t.order - 1) ** 3 for ctx in self._solved.values()
        )
        self._groups, self._contexts, self._solved = [], {}, {}

    def count(self, key: str, amount: int) -> None:
        self.counters[self._job][key] += int(amount)

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "job": self._job,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "peak_bytes": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, stage: Stage, fn, args, kwargs):
        span = self.open(stage.name)
        measure = self.peaks and stage.peak and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if measure:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.close(span)
        self._observe(stage.name, args, result)
        return result

    def _observe(self, name: str, args, result) -> None:
        if name == "qcentral.third_quotient":
            self._groups.append(result)
        elif name.startswith("cohom.") and name != "cohom.pairings_equivalent":
            ctx = args[0]
            self._contexts[id(ctx)] = ctx
            if name == "cohom.z2":
                self._solved[id(ctx)] = ctx
        elif name == "zqlinalg.diagonalize":
            rows, cols = _shape(args[0])
            self.count("zqlinalg.diagonalize.cells", rows * cols)
        elif name == "zqlinalg.rowspace":
            self.count("zqlinalg.rowspace.batches", 1)
            self.count("zqlinalg.rowspace.rows_in", _shape(args[1])[0])
            self.count("zqlinalg.rowspace.rows_grew", result)
        elif name == "realizability.semidirect_power_table":
            self.count("realizability.semidirect_power_table.table_bytes", result.mult.nbytes)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every stage; qcw.cli must already be imported."""
        for stage in STAGES:
            owner, attr = _owner(stage)
            original = owner.__dict__[attr]
            wrapper = self._wrapper(stage, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "qcw" and not name.startswith("qcw."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrapper(self, stage: Stage, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(stage, fn, args, kwargs)

        return traced


def _owner(stage: Stage):
    module = sys.modules[stage.module]
    if "." in stage.attr:
        cls, attr = stage.attr.split(".")
        return getattr(module, cls), attr
    return module, stage.attr


def _shape(a) -> tuple[int, int]:
    """Rows and columns of a matrix given as an array or a list of rows."""
    shape = getattr(a, "shape", None)
    if shape is not None:
        return (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])
    rows = len(a)
    return rows, (len(a[0]) if rows else 0)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Children of one span run one after another (one thread), so the time
    they cover is the sum of their durations.
    """
    inside = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            inside[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - inside[s["id"]] for s in spans}


def layer_metrics(spans: list[dict], counters: dict[str, dict[str, int]]) -> dict[str, float]:
    """Self and total times, calls and sizes of one pass."""
    own = self_times(spans)
    out: dict[str, float] = {f"{name}.self_s": 0.0 for name in SELF_TIMES}
    out.update({f"{name}.total_s": 0.0 for name in TOTAL_TIMES})
    out.update({f"{name}.calls": 0 for name in CALL_COUNTS})
    out.update(dict.fromkeys(COUNTERS, 0))
    for s in spans:
        out[f"{s['name']}.self_s"] += own[s["id"]]
        if s["name"] in CALL_COUNTS:
            out[f"{s['name']}.calls"] += 1
        if s["name"] in TOTAL_TIMES:  # no stage calls itself, so no overlap
            out[f"{s['name']}.total_s"] += s["end"] - s["start"]
    for job_counts in counters.values():
        for key, value in job_counts.items():
            out[key] += value
    return out


def peak_metrics(spans: list[dict]) -> dict[str, float]:
    """Largest tracemalloc peak of each peak stage, in MB."""
    out = {f"{name}.peak_mb": 0.0 for name in PEAKS}
    for s in spans:
        if s["peak_bytes"] is not None:
            key = f"{s['name']}.peak_mb"
            out[key] = max(out[key], s["peak_bytes"] / MB)
    return out


def metric_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({f"{name}.total_s": "s" for name in TOTAL_TIMES})
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update({f"{name}.peak_mb": "MB" for name in PEAKS})
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["realizability.semidirect_power_table.table_bytes"] = "B"
    return units
