"""Folding a circulant bipartite graph onto F = J/q physical units.

A fold plan time-multiplexes q logical units onto each physical unit.  The
reader side's offset pairs (taken two at a time from the sorted offset set)
become folded access patterns; executing every pattern for every fold covers
each edge exactly once while every physical memory unit serves exactly two
accesses per step.  An odd degree leaves the last pattern one offset short;
its second access is the scheduling sentinel (None), "no transaction".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .circulant import (
    CirculantBipartiteGraph,
    SelfCheckError,
    divisors,
    json_int,
    json_value,
)

__all__ = [
    "FoldPlan",
    "FoldedPattern",
    "FoldedSequence",
    "BalanceReport",
    "reader_offsets",
    "generate_folded_sequence",
    "verify_balance",
    "cross_fold_endpoints",
    "switch_ports",
    "compute_rho",
]

PIPELINE_LEVELS = ("none", "writeback", "node", "graph")


@dataclass(frozen=True)
class FoldPlan:
    """Fold factor and design parameters for one synthesis run.

    design_option 1 runs all folds of a pattern before the next pattern;
    option 2 runs all patterns of a fold before the next fold (the order
    that admits graph-level pipelining).
    """

    q: int
    units_per_side: int
    design_option: int = 1
    T: int = 1
    delta: int = 1
    pipeline_level: str = "none"

    def __post_init__(self) -> None:
        if self.q < 1 or self.units_per_side < 1:
            raise ValueError("fold factor and unit count must be >= 1")
        if self.design_option not in (1, 2):
            raise ValueError("design option must be 1 or 2")
        if self.T < 1:
            raise ValueError("compute period T must be >= 1")
        if self.delta < 0:
            raise ValueError("interconnect latency must be >= 0")
        if self.pipeline_level not in PIPELINE_LEVELS:
            raise ValueError(
                f"pipeline level must be one of {PIPELINE_LEVELS}"
            )

    @property
    def order(self) -> int:
        return self.q * self.units_per_side

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "q": self.q,
            "units_per_side": self.units_per_side,
            "design_option": self.design_option,
            "T": self.T,
            "delta": self.delta,
            "pipeline_level": self.pipeline_level,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FoldPlan":
        """Inverse of ``to_json_dict``.  A missing field, or a value of the
        wrong JSON type or range, raises ValueError naming the field."""
        return cls(
            **{
                key: json_int(data, key)
                for key in ("q", "units_per_side", "design_option", "T", "delta")
            },
            pipeline_level=json_value(data, "pipeline_level"),
        )

    @classmethod
    def for_graph(
        cls,
        graph: CirculantBipartiteGraph,
        q: int,
        design_option: int = 1,
        T: int = 1,
        delta: int = 1,
        pipeline_level: str = "none",
    ) -> "FoldPlan":
        if q < 1 or graph.order % q != 0:
            options = divisors(graph.order)
            raise ValueError(
                f"fold factor {q} does not divide the graph order {graph.order}; "
                f"valid factors are {options} (or expand the graph order first)"
            )
        return cls(
            q=q,
            units_per_side=graph.order // q,
            design_option=design_option,
            T=T,
            delta=delta,
            pipeline_level=pipeline_level,
        )


@dataclass(frozen=True)
class FoldedPattern:
    """One parallel access step: a pair of base offsets taken modulo F."""

    index: int
    offsets: tuple[int | None, int | None]
    folded: tuple[int | None, int | None]
    doubled: bool

    @property
    def has_dummy(self) -> bool:
        return self.offsets[1] is None


@dataclass(frozen=True)
class FoldedSequence:
    """Ordered folded patterns plus the slot order of one side's reads."""

    side: str
    q: int
    units_per_side: int
    design_option: int
    patterns: tuple[FoldedPattern, ...]
    slots: tuple[tuple[int, int], ...]

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def slot_index(self, l: int, k: int) -> int:
        if self.design_option == 1:
            return l * self.q + k
        return k * self.pattern_count + l


def reader_offsets(graph: CirculantBipartiteGraph, side: str) -> tuple[int | None, ...]:
    """Sorted offsets a side's units read with, and the sentinel (None)
    last when the degree is odd, so that they pair into whole patterns."""
    if side == "row":
        base = graph.base_offsets
    elif side == "col":
        base = graph.col_offsets()
    else:
        raise ValueError("side must be 'row' or 'col'")
    return tuple(base) + (None,) * (graph.degree % 2)


def generate_folded_sequence(
    graph: CirculantBipartiteGraph, plan: FoldPlan, side: str = "row"
) -> FoldedSequence:
    """Folded access patterns and the slot order for one side's reads.

    In slot (l, k), physical unit i serves logical unit k*F + i and reads
    physical memories (D[2l] + i) mod F and (D[2l+1] + i) mod F; the fold
    index never changes the folded endpoints, which is what lets the
    interconnect stay static.
    """
    if plan.order != graph.order:
        raise ValueError("fold plan was built for a different graph order")
    offsets = reader_offsets(graph, side)
    f_units = plan.units_per_side
    patterns = []
    for l in range(len(offsets) // 2):
        d0, d1 = offsets[2 * l], offsets[2 * l + 1]
        f0 = d0 % f_units
        f1 = d1 % f_units if d1 is not None else None
        patterns.append(
            FoldedPattern(
                index=l,
                offsets=(d0, d1),
                folded=(f0, f1),
                doubled=f1 is not None and f0 == f1,
            )
        )
    pattern_count = len(patterns)
    if plan.design_option == 1:
        slots = tuple((l, k) for l in range(pattern_count) for k in range(plan.q))
    else:
        slots = tuple((l, k) for k in range(plan.q) for l in range(pattern_count))
    return FoldedSequence(
        side=side,
        q=plan.q,
        units_per_side=f_units,
        design_option=plan.design_option,
        patterns=tuple(patterns),
        slots=slots,
    )


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of the balance and coverage checks on a folded sequence."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_balance(
    sequence: FoldedSequence, graph: CirculantBipartiteGraph, plan: FoldPlan
) -> BalanceReport:
    """Check the two defining properties of a folded perfect access sequence.

    Unit i of slot (l, k) serves node k*F + i and reads memory (f + i) mod F
    for each folded offset f of pattern l, a rotation, so each port of a
    slot covers [0, F) once by construction.  What can fail is the pattern
    and slot arithmetic, checked without visiting a unit:

    - a folded offset that is not its edge's offset mod F: every unit of
      the slot misses the edge's endpoint, reported at unit 0;
    - an edge of a fold, that is of its F nodes, read other than exactly
      once: a (pattern, fold) slot missing or repeated, or a pattern that
      drops an edge;
    - a read the graph has no edge for: a dummy second access made real,
      or a fold out of range.
    """
    f_units = plan.units_per_side
    if plan.order != graph.order or sequence.units_per_side != f_units:
        return BalanceReport(
            ok=False,
            failures=(
                f"plan folds {plan.order} nodes onto {f_units} units; the graph has "
                f"{graph.order} nodes and the sequence {sequence.units_per_side} units",
            ),
        )
    failures: list[str] = []
    offsets = reader_offsets(graph, sequence.side)
    patterns = sequence.patterns
    reads: Counter[tuple[int, int]] = Counter()
    for l, k in sequence.slots:
        for port, f in enumerate(patterns[l].folded):
            if f is None:
                continue
            t = 2 * l + port
            d = offsets[t] if t < len(offsets) else None
            if d is not None and (f - d) % f_units:
                failures.append(
                    f"slot ({l},{k}): unit 0 access {port} hits memory "
                    f"{f % f_units}, edge endpoint folds to {d % f_units}"
                )
            reads[t, k] += 1
    for t in range(graph.degree):
        for k in range(plan.q):
            count = reads.pop((t, k), 0)
            if count != 1:
                failures.append(
                    f"edge (nodes {k * f_units}..{(k + 1) * f_units - 1}, index {t}) "
                    f"scheduled {count} times"
                )
    if reads:
        failures.append(f"unexpected scheduled edges (index, fold): {sorted(reads)[:4]}")
    return BalanceReport(ok=not failures, failures=tuple(failures))


def cross_fold_endpoints(
    graph: CirculantBipartiteGraph, plan: FoldPlan, side: str = "row"
) -> dict[tuple[int, int], int]:
    """Canonical folded endpoint per (serving unit, edge index).

    The folded endpoint of edge t at unit i is the same in every fold; this
    recomputes it per fold from absolute node labels and raises
    SelfCheckError on any disagreement (which would mean the folding
    arithmetic is broken, not a data problem).
    """
    offsets = [d for d in reader_offsets(graph, side) if d is not None]
    f_units = plan.units_per_side
    table: dict[tuple[int, int], int] = {}
    for i in range(f_units):
        for t, d in enumerate(offsets):
            endpoints = {
                ((k * f_units + i) + d) % graph.order % f_units
                for k in range(plan.q)
            }
            if len(endpoints) != 1:
                raise SelfCheckError(
                    f"cross-fold endpoint self-check failed on the {side} side: "
                    f"folded endpoint of (unit {i}, edge {t}) varies across "
                    f"folds: {sorted(endpoints)}"
                )
            table[(i, t)] = endpoints.pop()
    return table


def switch_ports(sequence: FoldedSequence) -> tuple[dict[int, int], dict[int, int], int]:
    """Switch port codes of one reader side's folded patterns.

    Distinct folded offsets take codes 0..rho-1 in ascending order; each
    doubled pattern takes one extra code after them, in pattern order.
    Returns ({folded offset: code}, {pattern index: extra code}, rho_hat).
    """
    deltas = sorted({f for p in sequence.patterns for f in p.folded if f is not None})
    port_of = {delta: code for code, delta in enumerate(deltas)}
    doubled = [p.index for p in sequence.patterns if p.doubled]
    extra_ports = {l: len(deltas) + n for n, l in enumerate(doubled)}
    return port_of, extra_ports, len(deltas) + len(doubled)


def compute_rho(
    graph: CirculantBipartiteGraph, plan: FoldPlan, side: str = "row"
) -> tuple[int, int, int]:
    """Switch sizing: distinct folded offsets rho, doubled patterns theta,
    and ports rho_hat = rho + theta for the given reader side."""
    port_of, extra_ports, rho_hat = switch_ports(
        generate_folded_sequence(graph, plan, side)
    )
    return len(port_of), len(extra_ports), rho_hat
