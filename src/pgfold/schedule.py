"""Concrete schedules for a folded plan.

Everything the hardware needs beyond the access patterns themselves: where
each result is written back, as runs of units writing one address,
switch port-selection tables, the static wire families, and the cycle of
every read and write for each pipelining level.

Data placement follows one rule: a producer writes each result into its own
collocated memory at the address the consumer's read counter will have
reached when the consumer's schedule gets to that edge.  A memory holds
two cells per slot of the folded sequence, 2 * slot + port, so reads are a
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
    "WriteSchedule",
    "SwitchLUT",
    "Netlist",
    "TimingPlan",
    "INSTANCES",
    "other_side",
    "reader_of",
    "write_schedule",
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
# write schedule

# The runs (address, first unit, units) of one slot and port.
Runs = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class WriteSchedule:
    """All writes of one side's compute half, as runs of one address.

    In slot (l, k) = ``slots[s]`` producer k * F + i writes the result of
    its edge 2 * l + b into its collocated memory i on port b.
    ``runs[s][b]`` covers the F units in order, dummy producers included,
    with one or two runs (address, first unit, units): these are the rows
    of write_lut_<side>.csv.
    """

    units_per_side: int
    real_order: int
    slots: tuple[tuple[int, int], ...]
    runs: tuple[tuple[Runs, Runs], ...]

    def real_units(self, k: int) -> int:
        """How many producers of fold k are real nodes; they come first."""
        f_units = self.units_per_side
        return min(f_units, max(0, self.real_order - k * f_units))

    def address_runs(self, slot: int, port: int) -> list[tuple[int, int, int]]:
        """``runs[slot][port]`` cut to the real producers."""
        units = self.real_units(self.slots[slot][1])
        return [
            (address, first, min(count, units - first))
            for address, first, count in self.runs[slot][port]
            if first < units
        ]

    def per_pmu(self) -> list[list[int]]:
        """Each unit's column of the write ROM: the address it writes on
        port 0, then on port 1, of each slot in turn."""
        # Unit m writes the first run's address when m < its units, else
        # the last run's.
        splits = [(runs[0][0], runs[0][2], runs[-1][0]) for ports in self.runs for runs in ports]
        return [
            [first if m < cut else second for first, cut, second in splits]
            for m in range(self.units_per_side)
        ]


def write_schedule(
    graph: CirculantBipartiteGraph, plan: FoldPlan, producer_side: str = "row"
) -> WriteSchedule:
    """All writes of one side's compute half, in producer slot order.

    Edge t of producer node h lands at address 2 * slot + rank mod 2 of
    its consumer, where rank is the edge's position in the consumer's own
    sorted offset order and slot is the consumer's slot of pattern
    rank // 2 in its fold.  The sentinel edge of an odd degree writes
    into the reserved cell of its producer's fold: port 1 of the last
    pattern, which no read reaches.

    In slot (l, k) the F producers k*F + i of edge t reach the consumers
    (k*F + i + d) mod J, d = D[t]: those with i < F - d mod F lie in fold
    (k + d//F) mod q and the rest in the fold after it, so each slot and
    port is one run of one address, or two.
    """
    j_nodes = graph.order
    f_units = plan.units_per_side
    sequence = generate_folded_sequence(graph, plan, producer_side)
    offsets = reader_offsets(graph, producer_side)
    cons_offsets = [
        d for d in reader_offsets(graph, other_side(producer_side)) if d is not None
    ]
    rank_of = {d: idx for idx, d in enumerate(cons_offsets)}

    def address(rank: int, fold: int) -> int:
        return 2 * sequence.slot_index(rank // 2, fold) + rank % 2

    runs = []
    for l, k in sequence.slots:
        ports = []
        for d in offsets[2 * l : 2 * l + 2]:
            if d is None:
                # The sentinel takes the last rank, 2B - 1, which no
                # consumer reads.
                ports.append(((address(2 * sequence.pattern_count - 1, k), 0, f_units),))
                continue
            rank, fold = rank_of[(-d) % j_nodes], (k + d // f_units) % plan.q
            first, second = address(rank, fold), address(rank, (fold + 1) % plan.q)
            cut = f_units - d % f_units
            if cut == f_units or first == second:
                ports.append(((first, 0, f_units),))
            else:
                ports.append(((first, 0, cut), (second, cut, f_units - cut)))
        runs.append(tuple(ports))
    return WriteSchedule(
        units_per_side=f_units,
        real_order=graph.real_order,
        slots=sequence.slots,
        runs=tuple(runs),
    )


# ---------------------------------------------------------------------------
# switches and netlist


@dataclass(frozen=True)
class SwitchLUT:
    """Port selection table of one interconnect instance.

    One row per pattern: the port codes of its two accesses.  Wire j of a
    memory-side (out) switch lands on port j of a unit-side (in) switch,
    so both switch sets run this one table, the in set one cycle after the
    out set.  A dummy second access carries the invalid code rho_hat,
    the instance's wire family count, which no wire carries.  The table
    is identical for every switch of the set; a unit's position only
    shifts which wire a port reaches, not the code.
    """

    instance: str
    rows: tuple[tuple[int, int], ...]


def switch_luts(graph: CirculantBipartiteGraph, plan: FoldPlan) -> dict[str, SwitchLUT]:
    """The port-selection table of each interconnect instance."""
    out: dict[str, SwitchLUT] = {}
    for instance in INSTANCES:
        sequence = generate_folded_sequence(graph, plan, reader_of(instance))
        port_of, extra_ports, rho_hat = switch_ports(sequence)
        rows = []
        for pattern in sequence.patterns:
            f0, f1 = pattern.folded
            # A dummy second access (f1 None) carries the invalid code.
            j1 = extra_ports.get(pattern.index, port_of.get(f1, rho_hat))
            rows.append((port_of[f0], j1))
        out[instance] = SwitchLUT(instance=instance, rows=tuple(rows))
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
