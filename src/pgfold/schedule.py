"""Concrete schedules for a folded plan.

Everything the hardware needs beyond the access patterns themselves: which
physical memories each unit pairs with, where every datum lives (bins and
addresses), when it is read, where and when results are written back,
switch port-selection tables, the static wire families, and the cycle of
every read and write for each pipelining level.

Data placement follows one rule: a producer writes each result into its own
collocated memory at the address the consumer's read counter will have
reached when the consumer's schedule gets to that edge.  Reads are then a
bare counter; all placement intelligence sits on the write side.
"""

from __future__ import annotations

from dataclasses import dataclass
from .circulant import CirculantBipartiteGraph
from .folding import (
    FoldPlan,
    generate_folded_sequence,
    reader_offsets,
    switch_ports,
)

__all__ = [
    "MemoryLayout",
    "WriteEntry",
    "WriteSchedule",
    "SwitchLUT",
    "Netlist",
    "TimingPlan",
    "INSTANCES",
    "other_side",
    "assign_memory_units",
    "layout_addresses",
    "read_cycle",
    "write_schedule",
    "edge_shift_replica",
    "switch_luts",
    "build_netlist",
    "full_timing",
]

INSTANCES = ("row_reads", "col_reads")


def other_side(side: str) -> str:
    if side == "row":
        return "col"
    if side == "col":
        return "row"
    raise ValueError("side must be 'row' or 'col'")


def reader_of(instance: str) -> str:
    """The side whose units read through this interconnect instance."""
    if instance not in INSTANCES:
        raise ValueError(f"unknown interconnect instance {instance!r}")
    return instance.split("_")[0]


# ---------------------------------------------------------------------------
# memory layout and addressing


@dataclass(frozen=True)
class MemoryLayout:
    """Addressing of every physical memory unit.

    Option 1 keeps one bin per pattern; option 2 one bin per fold.  Either
    way address(l, k, b) = 2 * slot_index + b, so a read port only ever
    needs a counter, and a memory holds two cells per slot.
    """

    design_option: int
    q: int
    pattern_count: int

    def slot_index(self, l: int, k: int) -> int:
        if not (0 <= l < self.pattern_count and 0 <= k < self.q):
            raise ValueError(f"slot ({l},{k}) out of range")
        if self.design_option == 1:
            return l * self.q + k
        return k * self.pattern_count + l

    def address(self, l: int, k: int, b: int) -> int:
        if b not in (0, 1):
            raise ValueError("port must be 0 or 1")
        return 2 * self.slot_index(l, k) + b


def layout_addresses(plan: FoldPlan, graph: CirculantBipartiteGraph) -> MemoryLayout:
    """Memory layout for the plan; pattern count includes the sentinel pad."""
    return MemoryLayout(
        design_option=plan.design_option,
        q=plan.q,
        pattern_count=graph.scheduled_degree // 2,
    )


def assign_memory_units(
    graph: CirculantBipartiteGraph, plan: FoldPlan, side: str = "row"
) -> dict[tuple[int, int, int], tuple[int, int | None]]:
    """Physical memory pair serving unit i of fold k in pattern l.

    Because F divides the graph order, (D[2l] + k*F + i) mod F loses the
    fold term, which is exactly why the wiring can be static.
    """
    offsets = reader_offsets(graph, side)
    f_units = plan.units_per_side
    table: dict[tuple[int, int, int], tuple[int, int | None]] = {}
    for l in range(len(offsets) // 2):
        d0, d1 = offsets[2 * l], offsets[2 * l + 1]
        for k in range(plan.q):
            for i in range(f_units):
                p0 = (d0 + k * f_units + i) % f_units
                p1 = (d1 + k * f_units + i) % f_units if d1 is not None else None
                table[(k, i, l)] = (p0, p1)
    return table


def read_cycle(t: int, k: int, plan: FoldPlan, pattern_count: int) -> int:
    """Clock cycle (1-based count) by which edge t of fold k has been read.

    Option 1: (q * floor(t/2) + k + 1) * T.  Option 2: (B*k + ceil(t/2)) * T;
    for even t this counts to the start of the slot window rather than its
    end, which the tests document.
    """
    if not 0 <= t < 2 * pattern_count:
        raise ValueError(f"edge index {t} outside [0, {2 * pattern_count})")
    if not 0 <= k < plan.q:
        raise ValueError(f"fold index {k} outside [0, {plan.q})")
    if plan.design_option == 1:
        return (plan.q * (t // 2) + k + 1) * plan.T
    return (pattern_count * k + (t + 1) // 2) * plan.T


# ---------------------------------------------------------------------------
# write schedule


@dataclass(frozen=True)
class WriteEntry:
    """One write transaction: a producer's edge result into its collocated
    memory, addressed by the consumer's future read position."""

    producer: int
    edge: int
    slot: int
    pmu: int
    port: int
    address: int
    producer_real: bool
    consumer: int | None
    consumer_rank: int | None


@dataclass(frozen=True)
class WriteSchedule:
    """All writes of one side's compute half, as parallel int columns.

    Write n = (slot * F + pmu) * 2 + port is the result of edge
    2 * l + port of producer k * F + pmu, where (l, k) = ``slots[slot]``.
    ``addresses[n]`` is the cell it lands in.  ``entries`` and
    ``per_pmu`` make ``WriteEntry`` views of the column on demand.
    """

    producer_side: str
    design_option: int
    order: int
    real_order: int
    units_per_side: int
    slots: tuple[tuple[int, int], ...]
    # Per edge t: the producer's offset (None for the sentinel) and the
    # edge's rank in its consumer's sorted offset order.
    offsets: tuple[int | None, ...]
    ranks: tuple[int | None, ...]
    addresses: list[int]

    def real_units(self, k: int) -> int:
        """How many producers of fold k are real nodes; they come first."""
        f_units = self.units_per_side
        return min(f_units, max(0, self.real_order - k * f_units))

    def unit_runs(self, slot: int, port: int) -> list[tuple[int, int, int]]:
        """(address, first unit, units) of each run of one address among all
        F producers' writes on ``port`` in ``slot``, dummy producers
        included, in unit order: the two runs ``write_schedule`` fills,
        merged when they share their address."""
        f_units = self.units_per_side
        l, _ = self.slots[slot]
        cut = f_units - (self.offsets[2 * l + port] or 0) % f_units
        start = 2 * f_units * slot + port
        first, second = self.addresses[start], self.addresses[start + 2 * f_units - 2]
        if cut == f_units or first == second:
            return [(first, 0, f_units)]
        return [(first, 0, cut), (second, cut, f_units - cut)]

    def address_runs(self, slot: int, port: int) -> list[tuple[int, int, int]]:
        """``unit_runs`` cut to the real producers."""
        units = self.real_units(self.slots[slot][1])
        return [
            (address, first, min(count, units - first))
            for address, first, count in self.unit_runs(slot, port)
            if first < units
        ]

    def _entry(self, n: int) -> WriteEntry:
        f_units = self.units_per_side
        slot, pmu, port = n // (2 * f_units), n // 2 % f_units, n % 2
        l, k = self.slots[slot]
        producer = k * f_units + pmu
        d = self.offsets[2 * l + port]
        return WriteEntry(
            producer=producer,
            edge=2 * l + port,
            slot=slot,
            pmu=pmu,
            port=port,
            address=self.addresses[n],
            producer_real=producer < self.real_order,
            consumer=None if d is None else (producer + d) % self.order,
            consumer_rank=self.ranks[2 * l + port],
        )

    @property
    def entries(self) -> tuple[WriteEntry, ...]:
        return tuple(map(self._entry, range(len(self.addresses))))

    def per_pmu(self) -> dict[int, list[WriteEntry]]:
        stride = 2 * self.units_per_side
        return {
            pmu: [
                self._entry(n)
                for first in range(2 * pmu, len(self.addresses), stride)
                for n in (first, first + 1)
            ]
            for pmu in range(self.units_per_side)
        }


def write_schedule(
    graph: CirculantBipartiteGraph, plan: FoldPlan, producer_side: str = "row"
) -> WriteSchedule:
    """All writes of one side's compute half, in producer slot order.

    Edge t of producer node h lands at the consumer-coordinate address
    (pattern, fold, port) = (rank//2, consumer//F, rank mod 2) where rank
    is the edge's position in the consumer's own sorted offset order.  The
    sentinel edge of a padded degree writes into the reserved cell of its
    producer's fold; dummy producer nodes stay idle (entries flagged).

    In slot (l, k) the F producers k*F + i of edge t reach the consumers
    (k*F + i + d) mod J, d = D[t]: those with i < F - d mod F lie in fold
    (k + d//F) mod q and the rest in the fold after it, so each slot and
    port fills its address column with two runs of one address each.
    """
    j_nodes = graph.order
    f_units = plan.units_per_side
    layout = layout_addresses(plan, graph)
    pattern_count = layout.pattern_count
    sequence = generate_folded_sequence(graph, plan, producer_side)
    offsets = reader_offsets(graph, producer_side)
    cons_offsets = [
        d for d in reader_offsets(graph, other_side(producer_side)) if d is not None
    ]
    rank_of = {d: idx for idx, d in enumerate(cons_offsets)}
    ranks = tuple(None if d is None else rank_of[(-d) % j_nodes] for d in offsets)
    addresses = [0] * (2 * f_units * sequence.slot_count)
    for slot, (l, k) in enumerate(sequence.slots):
        for port in (0, 1):
            column = slice(2 * f_units * slot + port, 2 * f_units * (slot + 1), 2)
            d, rank = offsets[2 * l + port], ranks[2 * l + port]
            if d is None:
                reserved = layout.address(pattern_count - 1, k, 1)
                addresses[column] = [reserved] * f_units
                continue
            fold = (k + d // f_units) % plan.q
            run = f_units - d % f_units
            first = layout.address(rank // 2, fold, rank % 2)
            second = layout.address(rank // 2, (fold + 1) % plan.q, rank % 2)
            addresses[column] = [first] * run + [second] * (f_units - run)
    return WriteSchedule(
        producer_side=producer_side,
        design_option=plan.design_option,
        order=j_nodes,
        real_order=graph.real_order,
        units_per_side=f_units,
        slots=sequence.slots,
        offsets=offsets,
        ranks=ranks,
        addresses=addresses,
    )


def edge_shift_replica(
    graph: CirculantBipartiteGraph, base: int, t: int, target: int
) -> int:
    """Endpoint of the shift-replica of base node's t-th edge at target.

    The t-th edge of a row is taken in ascending order of absolute column
    labels; the replica at another row of the same side ends t-independent
    shift further along.
    """
    points = sorted(graph.incidence_row(base))
    if not 0 <= t < len(points):
        raise ValueError(f"edge index {t} outside [0, {len(points)})")
    return (points[t] + (target - base)) % graph.order


# ---------------------------------------------------------------------------
# switches and netlist


@dataclass(frozen=True)
class SwitchLUT:
    """Port selection table of one interconnect instance.

    One row per pattern: the port codes of its two accesses.  Wire j of a
    memory-side (out) switch lands on port j of a unit-side (in) switch,
    so both switch sets run this one table, the in set one cycle after the
    out set.  A dummy second access carries the invalid code
    ``port_count``, which no wire carries.  The table is identical for
    every switch of the set; a unit's position only shifts which wire a
    port reaches, not the code.
    """

    instance: str
    rows: tuple[tuple[int, int], ...]
    port_count: int


def switch_luts(graph: CirculantBipartiteGraph, plan: FoldPlan) -> dict[str, SwitchLUT]:
    """The port-selection table of each interconnect instance."""
    out: dict[str, SwitchLUT] = {}
    for instance in INSTANCES:
        sequence = generate_folded_sequence(graph, plan, reader_of(instance))
        port_of, extra_ports, port_count = switch_ports(sequence)
        rows = []
        for pattern in sequence.patterns:
            f0, f1 = pattern.folded
            # A dummy second access (f1 None) carries the invalid code.
            j1 = extra_ports.get(pattern.index, port_of.get(f1, port_count))
            rows.append((port_of[f0], j1))
        out[instance] = SwitchLUT(instance=instance, rows=tuple(rows), port_count=port_count)
    return out


@dataclass(frozen=True)
class Netlist:
    """Static interconnect of the folded architecture as circulant wire
    families.

    ``offsets`` maps, per interconnect instance, each port code j to the
    folded offset delta of its family: the F wires ``<instance>_w_<m>_<j>``,
    m in [0, F), from port j of out switch m to port j of in switch
    (m - delta) mod F.  The codes are exactly [0, rho_hat): first one per
    distinct folded offset, then one per doubled pattern, so an instance's
    family count is its invalid switch code.  The units, switches and
    local channels follow from the plan's F and are not listed.
    """

    offsets: dict[str, dict[int, int]]

    def to_json_dict(self) -> dict:
        return {
            "format_version": 3,
            "wire_families": [
                {"instance": instance, "port": j, "folded_offset": delta}
                for instance in sorted(self.offsets)
                for j, delta in sorted(self.offsets[instance].items())
            ],
        }


def build_netlist(graph: CirculantBipartiteGraph, plan: FoldPlan) -> Netlist:
    """The wire families of both interconnects.

    For each memory m of the producing side and each distinct folded offset
    delta of the reading side, one wire runs from memory m's output switch
    port j(delta) to the input switch of reading unit (m - delta) mod F,
    same port code.  Doubled patterns add a second family between the same
    switch pairs on their extra port, which carries the pattern's first
    folded offset.
    """
    offsets: dict[str, dict[int, int]] = {}
    for instance in INSTANCES:
        sequence = generate_folded_sequence(graph, plan, reader_of(instance))
        port_of, extra_ports, _ = switch_ports(sequence)
        offsets[instance] = {j: delta for delta, j in port_of.items()}
        offsets[instance].update(
            (j, sequence.patterns[l].folded[0]) for l, j in extra_ports.items()
        )
    return Netlist(offsets=offsets)


# ---------------------------------------------------------------------------
# timing


@dataclass(frozen=True)
class TimingPlan:
    """Cycle-level plan of one iteration for a chosen pipelining level.

    half_length is the measured quantity the formulas predict: the span of
    the memory-access window (read side) for unpipelined levels, and the
    span up to the last write arrival for graph-level pipelining.
    side_span covers one side's complete activity; a full iteration is two
    sides back to back.  Slot s of a half is read at the half's base plus
    ``read_cycles[s]`` and written at its base plus ``write_cycles[s]``.
    """

    half_length: int
    side_span: int
    read_cycles: tuple[int, ...]
    write_cycles: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "format_version": 2,
            "half_length": self.half_length,
            "side_span": self.side_span,
            "read_cycles": list(self.read_cycles),
            "write_cycles": list(self.write_cycles),
        }


def full_timing(graph: CirculantBipartiteGraph, plan: FoldPlan) -> TimingPlan:
    """Slot-to-cycle mapping for the plan's pipeline level.

    none:      reads at the end of each T-cycle slot window, all writes in a
               separate writeback phase (one cycle per producer slot).
    writeback: each slot's writes land in the first cycle after its window.
    node:      one slot issued per cycle; results arrive T cycles later.
    graph:     option 2 only; reads delayed delta windows behind the
               producing stream and writes a further delta behind, giving
               the (B*q + 2*delta)*T half.
    """
    level = plan.pipeline_level
    if level == "graph" and plan.design_option != 2:
        raise ValueError(
            "graph-level pipelining requires design option 2; "
            "choose design option 2 or a different pipeline level"
        )
    T, delta = plan.T, plan.delta
    slots = graph.scheduled_degree // 2 * plan.q
    if level == "none":
        read_cycles = [(s + 1) * T - 1 for s in range(slots)]
        write_cycles = [slots * T + s for s in range(slots)]
        half_length = slots * T
        side_span = slots * T + slots
    elif level == "writeback":
        read_cycles = [(s + 1) * T - 1 for s in range(slots)]
        write_cycles = [(s + 1) * T for s in range(slots)]
        half_length = slots * T
        side_span = slots * T + 1
    elif level == "node":
        read_cycles = list(range(slots))
        write_cycles = [s + T for s in range(slots)]
        half_length = slots
        side_span = slots + T
    else:  # graph
        read_cycles = [(delta + s + 1) * T - 1 for s in range(slots)]
        write_cycles = [(2 * delta + s + 1) * T - 1 for s in range(slots)]
        half_length = (slots + 2 * delta) * T
        side_span = (slots + 2 * delta) * T
    return TimingPlan(
        half_length=half_length,
        side_span=side_span,
        read_cycles=tuple(read_cycles),
        write_cycles=tuple(write_cycles),
    )
