"""In-process span tracing for the pgfold benchmark.

For the length of one traced command, each layer's public functions are
replaced by span recorders.  ``cli``, ``emit`` and the package itself bind
most of these functions by name (``from .x import y``), so the wrapper is
installed in every ``pgfold`` module namespace that binds the original
object, not only in the defining module.  Spans stay in memory; the caller
writes them out when the traced run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def _write_run_directory_attrs(bound: dict, result) -> dict:
    return {"q": bound["plan"].q, "files": len(result["files"])}


def _simulate_attrs(bound: dict, result) -> dict:
    return {
        "iterations": result.iterations,
        "real_tokens": dict(result.real_tokens),
        "measured_full": result.measured_full,
    }


# span name -> (per-layer metric, [(module, function)], attribute recorder).
# Every time metric is the layer's self time: its spans minus their child
# spans.
LAYERS = {
    "galois.primitive_search": (
        "galois.primitive_search_s",
        [("galois", "find_primitive_polynomial")],
        None,
    ),
    "galois.field_build": ("galois.field_build_s", [("galois", "field_build")], None),
    "projective.build": ("projective.build_s", [("projective", "build_pg_graph")], None),
    "projective.incidence": (
        "projective.incidence_s",
        [("projective", "verify_pg_incidence")],
        None,
    ),
    "circulant.expand": (
        "circulant.expand_s",
        [("circulant", "expand_circulant"), ("circulant", "choose_alpha")],
        None,
    ),
    "folding.fold": (
        "folding.fold_s",
        [
            ("folding", "generate_folded_sequence"),
            ("folding", "cross_fold_endpoints"),
            ("folding", "compute_rho"),
        ],
        None,
    ),
    "folding.balance": ("folding.balance_s", [("folding", "verify_balance")], None),
    "schedule.write_schedule": (
        "schedule.write_schedule_s",
        [("schedule", "write_schedule")],
        None,
    ),
    "schedule.switch_luts": ("schedule.switch_luts_s", [("schedule", "switch_luts")], None),
    "schedule.netlist": ("schedule.netlist_s", [("schedule", "build_netlist")], None),
    "schedule.timing": ("schedule.timing_s", [("schedule", "full_timing")], None),
    "emit.write_lut_csv": ("emit.write_lut_csv_s", [("emit", "emit_write_lut_csv")], None),
    "emit.hdl": ("emit.hdl_s", [("emit", "emit_hdl")], None),
    "emit.check_hdl": ("emit.check_hdl_s", [("emit", "check_hdl")], None),
    "emit.access_trace": ("emit.access_trace_s", [("emit", "emit_access_trace")], None),
    "emit.write_run_directory": (
        "emit.write_run_directory_self_s",
        [("emit", "write_run_directory")],
        _write_run_directory_attrs,
    ),
    "simulator.simulate": (
        "simulator.simulate_s",
        [("simulator", "simulate")],
        _simulate_attrs,
    ),
    "simulator.dataflow": (
        "simulator.dataflow_s",
        [("simulator", "check_dataflow_equivalence")],
        None,
    ),
}

ROOT = "cli"

# Per-command layer metrics, in report order.  The counts and rates are
# derived from span attributes and the per_pmu call counter.
LAYER_METRICS = (
    [metric for metric, _, _ in LAYERS.values()]
    + [
        "schedule.per_pmu_calls",
        "emit.files",
        "simulator.real_tokens",
        "simulator.tokens_per_s",
        "simulator.sim_cycles",
        "cli.self_s",
    ]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counts of one traced command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, describe):
        signature = inspect.signature(fn) if describe else None

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if describe:
                bound = signature.bind(*args, **kwargs).arguments
                record.attrs = describe(bound, result)
            # Tracing cost of this call: everything the wrapper does outside
            # the span's own clock.
            self.overhead_s += (record.start - entered) + (time.perf_counter() - record.end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            self.counts[name] = self.counts.get(name, 0) + 1
            self.overhead_s += time.perf_counter() - entered
            return fn(*args, **kwargs)

        return wrapper

    def to_json_dict(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
            "overhead_s": self.overhead_s,
        }


def _pgfold_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "pgfold" or name.startswith("pgfold."))
    ]


def clear_caches() -> None:
    """Drop pgfold's memoised results so an in-process replay does the
    work a fresh CLI process would."""
    for module in _pgfold_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@contextmanager
def patched(recorder: Recorder):
    """Route every pgfold binding of a traced function through ``recorder``."""
    modules = _pgfold_modules()
    saved: list[tuple[object, str, object]] = []
    try:
        for name, (_, targets, describe) in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[f"pgfold.{module_name}"], attr)
                wrapper = recorder.wrap(name, original, describe)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, value))
                            setattr(module, key, wrapper)
        schedule_cls = sys.modules["pgfold.schedule"].WriteSchedule
        per_pmu = schedule_cls.__dict__["per_pmu"]
        saved.append((schedule_cls, "per_pmu", per_pmu))
        schedule_cls.per_pmu = recorder.counter("schedule.per_pmu_calls", per_pmu)
        yield
    finally:
        for owner, key, value in reversed(saved):
            setattr(owner, key, value)


def layer_metrics(recorder: Recorder) -> tuple[dict[str, float], list[str]]:
    """Self time per layer metric plus derived counts, and any accounting
    problems found.  The first span must be the command's root span."""
    spans = recorder.spans
    problems: list[str] = []
    if not spans or spans[0].name != ROOT or spans[0].parent is not None:
        return {}, ["trace has no root command span"]
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span.parent is None:
            if index:
                problems.append(f"span {index} ({span.name}) is outside the command")
            continue
        parent = spans[span.parent]
        if span.start < parent.start or span.end > parent.end:
            problems.append(f"span {index} ({span.name}) leaves its parent's interval")
        child_time[span.parent] += span.duration
    metric_of = {name: metric for name, (metric, _, _) in LAYERS.items()}
    metrics = {metric: 0.0 for metric in LAYER_METRICS}
    total_self = 0.0
    for index, span in enumerate(spans):
        self_time = span.duration - child_time[index]
        total_self += self_time
        if span.name == ROOT:
            metrics["cli.self_s"] += self_time
        else:
            metrics[metric_of[span.name]] += self_time
    command_s = spans[0].duration
    if abs(total_self - command_s) > 1e-6 * max(1.0, command_s):
        problems.append(
            f"layer self times sum to {total_self:.6f} s, command took {command_s:.6f} s"
        )
    metrics["schedule.per_pmu_calls"] = recorder.counts.get("schedule.per_pmu_calls", 0)
    simulations = [s for s in spans if s.name == "simulator.simulate"]
    metrics["emit.files"] = sum(
        s.attrs.get("files", 0) for s in spans if s.name == "emit.write_run_directory"
    )
    metrics["simulator.real_tokens"] = sum(
        sum(s.attrs.get("real_tokens", {}).values()) for s in simulations
    )
    simulate_s = metrics["simulator.simulate_s"]
    metrics["simulator.tokens_per_s"] = (
        metrics["simulator.real_tokens"] / simulate_s if simulate_s > 0 else 0.0
    )
    # The first replay is the folded design; verify's second one is the
    # unfolded q = 1 reference.  A call that raised recorded no attributes.
    metrics["simulator.sim_cycles"] = (
        simulations[0].attrs.get("measured_full", 0) if simulations else 0
    )
    return metrics, problems
