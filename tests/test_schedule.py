"""Write scheduling, switch tables, netlist, and timing.

Golden values for the 15-node running example (offsets 0,1,2,4,5,8,10
folded by q=3 onto 5 units) were derived by hand from the placement rule
and frozen here before the implementation existed.
"""

import re
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfold.circulant import CirculantBipartiteGraph, divisors, expand_circulant
from pgfold.emit import render_run_files
from pgfold.folding import (
    FoldPlan,
    compute_rho,
    generate_folded_sequence,
    reader_offsets,
)
from pgfold.schedule import (
    build_netlist,
    full_timing,
    other_side,
    switch_luts,
    write_schedule,
)

OFFSETS_15 = (0, 1, 2, 4, 5, 8, 10)


def running_example(q=3, design_option=1, **kwargs):
    graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
    plan = FoldPlan.for_graph(graph, q, design_option=design_option, **kwargs)
    return graph, plan


# Object views that the emitters no longer use: oracles for the tests.


def accesses(sequence, slot):
    """Per-unit accesses of one slot of a folded sequence.

    Each entry: {"ppu", "lpu", "edges": (t0, t1), "pmus": (p0, p1)};
    the second pmu is None for the dummy half of a padded pattern.
    """
    l, k = sequence.slots[slot]
    d0, d1 = sequence.patterns[l].folded
    f_units = sequence.units_per_side
    return [
        {
            "ppu": i,
            "lpu": k * f_units + i,
            "edges": (2 * l, 2 * l + 1),
            "pmus": ((d0 + i) % f_units, None if d1 is None else (d1 + i) % f_units),
        }
        for i in range(f_units)
    ]


def wires_of(netlist, f_units, instance=None):
    """The wires of a ``Netlist`` or of netlist.json's parsed data, or one
    instance's, as dicts: family (instance, j, delta) stands for the F =
    ``f_units`` wires <instance>_w_<m>_<j>, each from port j of out switch
    m to port j of in switch (m - delta) mod F."""
    data = netlist if isinstance(netlist, dict) else netlist.to_json_dict()
    return [
        {
            "name": f"{inst}_w_{m}_{j}",
            "instance": inst,
            "src": [f"{inst}_out_{m}", j],
            "dst": [f"{inst}_in_{(m - family['folded_offset']) % f_units}", j],
            "folded_offset": family["folded_offset"],
        }
        for family in data["wire_families"]
        if instance in (None, family["instance"])
        for inst, j in [(family["instance"], family["port"])]
        for m in range(f_units)
    ]


def wire_lookup(netlist, f_units):
    """Map (source switch, source port) -> wire."""
    return {tuple(w["src"]): w for w in wires_of(netlist, f_units)}


class Write(NamedTuple):
    """One write as ``oracle_writes`` derives it from the graph: producer
    node and edge t, the producer's slot, memory and port, the cell it
    lands in, and its consumer and rank (None for the sentinel)."""

    producer: int
    edge: int
    slot: int
    pmu: int
    port: int
    address: int
    consumer: int | None
    rank: int | None


def neighbours(graph, side, node):
    if side == "row":
        return graph.incidence_row(node)
    return graph.incidence_col(node)


def consumer_rank(graph, consumer_side, consumer, producer):
    """The place of the edge from ``producer`` among the offsets of
    ``consumer``, sorted."""
    order = graph.order
    offsets = sorted((h - consumer) % order for h in neighbours(graph, consumer_side, consumer))
    return offsets.index((producer - consumer) % order)


def oracle_writes(graph, plan, producer_side):
    """Every write of one side's compute half, one per producer and edge.

    Edge t of producer p, of offset d, goes to consumer (p + d) mod J, into
    p's collocated memory p mod F on port t mod 2, in the producer's slot
    of pattern t // 2 in fold p // F.  It lands at 2 * s + rank mod 2,
    where s is the consumer's slot of pattern rank // 2 in its own fold.
    The sentinel edge lands in port 1 of the consumer-side slot of the
    last pattern in the producer's fold: the reserved cell.
    """
    order, f_units = graph.order, plan.units_per_side
    consumer_side = other_side(producer_side)
    producing = generate_folded_sequence(graph, plan, producer_side)
    consuming = generate_folded_sequence(graph, plan, consumer_side)
    producer_slot = {lk: s for s, lk in enumerate(producing.slots)}
    consumer_slot = {lk: s for s, lk in enumerate(consuming.slots)}
    last = len(consuming.patterns) - 1
    writes = []
    for p in range(order):
        for t, d in enumerate(reader_offsets(graph, producer_side)):
            if d is None:
                consumer = rank = None
                address = 2 * consumer_slot[(last, p // f_units)] + 1
            else:
                consumer = (p + d) % order
                rank = consumer_rank(graph, consumer_side, consumer, p)
                address = 2 * consumer_slot[(rank // 2, consumer // f_units)] + rank % 2
            slot = producer_slot[(t // 2, p // f_units)]
            writes.append(Write(p, t, slot, p % f_units, t % 2, address, consumer, rank))
    return writes


def checked_writes(graph, plan, side):
    """``oracle_writes``, once the runs and the ROM columns of
    ``write_schedule`` are shown to hold exactly these writes."""
    f_units = plan.units_per_side
    schedule = write_schedule(graph, plan, side)
    writes = oracle_writes(graph, plan, side)
    expected = {(w.slot, w.pmu, w.port): w.address for w in writes}
    assert len(expected) == len(writes)
    expanded = {}
    for slot, ports in enumerate(schedule.runs):
        assert len(ports) == 2
        for port, runs in enumerate(ports):
            # One or two maximal runs that cover the units in order.
            assert 1 <= len(runs) <= 2
            assert [first for _, first, _ in runs] == [0, *(f + n for _, f, n in runs[:-1])]
            assert sum(units for _, _, units in runs) == f_units
            assert len({address for address, _, _ in runs}) == len(runs)
            for address, first, units in runs:
                expanded.update(((slot, m, port), address) for m in range(first, first + units))
    assert expanded == expected
    columns = schedule.per_pmu()
    assert len(columns) == f_units
    assert {
        (n // 2, m, n % 2): address
        for m, column in enumerate(columns)
        for n, address in enumerate(column)
    } == expected
    return writes


def reserved_cells(sequence):
    """The cells of a memory that no read of ``sequence`` reaches: port 1
    of each slot whose pattern's second access is the sentinel's."""
    return sorted(
        2 * s + 1 for s, (l, _) in enumerate(sequence.slots) if sequence.patterns[l].has_dummy
    )


def assert_bijective_addressing(graph, plan, side):
    """Each memory's real writes fill every cell its reads reach once, and
    its sentinel writes the reserved cells.  Returns the writes."""
    consuming = generate_folded_sequence(graph, plan, other_side(side))
    reserved = reserved_cells(consuming)
    cells = set(range(2 * consuming.slot_count)) - set(reserved)
    writes = checked_writes(graph, plan, side)
    by_pmu = {}
    for w in writes:
        by_pmu.setdefault(w.pmu, ([], []))[w.consumer is None].append(w.address)
    assert len(by_pmu) == plan.units_per_side
    for real, sentinel in by_pmu.values():
        assert sorted(real) == sorted(cells)
        assert sorted(sentinel) == reserved
    return writes


class TestWriteSchedule:
    def test_address_goldens(self):
        graph, plan = running_example()
        by_key = {(w.producer, w.edge): w for w in checked_writes(graph, plan, "row")}
        assert by_key[(0, 0)].address == 0
        assert by_key[(5, 6)].address == 1
        assert by_key[(0, 4)].address == 9

    def test_consumer_coordinates_of_goldens(self):
        graph, plan = running_example()
        by_key = {(w.producer, w.edge): w for w in checked_writes(graph, plan, "row")}
        entry = by_key[(0, 4)]
        assert entry.consumer == 5
        assert entry.rank == 3
        assert by_key[(5, 6)].consumer == 0
        assert by_key[(5, 6)].rank == 1

    @pytest.mark.parametrize("side", ["row", "col"])
    def test_port_is_edge_parity_and_writes_are_collocated(self, side):
        graph, plan = running_example()
        for w in checked_writes(graph, plan, side):
            assert w.port == w.edge % 2
            assert w.pmu == w.producer % plan.units_per_side

    @pytest.mark.parametrize("side", ["row", "col"])
    def test_census(self, side):
        graph, plan = running_example()
        writes = checked_writes(graph, plan, side)
        assert len(writes) == 15 * 8
        assert sum(1 for w in writes if w.consumer is not None) == 15 * 7
        assert all(w.producer < graph.real_order for w in writes)

    @pytest.mark.parametrize("option", [1, 2])
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_bijective_addressing(self, option, side):
        graph, plan = running_example(design_option=option)
        assert_bijective_addressing(graph, plan, side)

    def test_reserved_cells(self):
        # The sentinel writes of the padded degree fill the cells no read
        # reaches: two per slot, so 24 cells, of which one per fold.
        for option, cells in ((1, [19, 21, 23]), (2, [7, 15, 23])):
            graph, plan = running_example(design_option=option)
            assert reserved_cells(generate_folded_sequence(graph, plan, "col")) == cells
            sentinels = [w for w in checked_writes(graph, plan, "row") if w.consumer is None]
            assert sorted({w.address for w in sentinels}) == cells
        graph = CirculantBipartiteGraph.plain(8, (0, 4))
        plan = FoldPlan.for_graph(graph, 2)
        assert reserved_cells(generate_folded_sequence(graph, plan, "col")) == []

    @pytest.mark.parametrize("side", ["row", "col"])
    def test_sentinel_entries_flagged(self, side):
        graph, plan = running_example()
        sentinels = [w for w in checked_writes(graph, plan, side) if w.edge == 7]
        assert len(sentinels) == 15
        for w in sentinels:
            assert w.consumer is None
            assert w.port == 1
            assert w.address in (19, 21, 23)

    @pytest.mark.parametrize("option", [1, 2])
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_write_lands_where_consumer_reads(self, option, side):
        graph, plan = running_example(design_option=option)
        f_units = plan.units_per_side
        consuming = generate_folded_sequence(graph, plan, other_side(side))
        for w in checked_writes(graph, plan, side):
            if w.consumer is None:
                continue
            # The consumer reads the edge in its slot (rank // 2, its
            # fold), on port rank mod 2, from exactly the producer's
            # collocated memory, at the counter address 2 * slot + port.
            slot = consuming.slots.index((w.rank // 2, w.consumer // f_units))
            access = accesses(consuming, slot)[w.consumer % f_units]
            assert access["lpu"] == w.consumer
            assert access["pmus"][w.rank % 2] == w.pmu
            assert w.address == 2 * slot + w.rank % 2

    def test_full_fold_addresses_descend_cyclically(self):
        graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
        plan = FoldPlan.for_graph(graph, 1)
        checked_writes(graph, plan, "row")
        # With q = 1 slot l is pattern l, so a unit's ROM column is in edge
        # order; the last edge is the sentinel's.
        for column in write_schedule(graph, plan, "row").per_pmu():
            addrs = column[:7]
            assert addrs == [0, 6, 5, 4, 3, 2, 1]
            for prev, cur in zip(addrs, addrs[1:]):
                assert (prev - cur) % 7 == 1

    def test_expanded_graph_flags(self):
        base = CirculantBipartiteGraph.plain(13, (0, 1, 3, 9))
        graph = expand_circulant(base, 1)
        plan = FoldPlan.for_graph(graph, 2)
        writes = checked_writes(graph, plan, "row")
        assert len(writes) == 14 * 8
        real = [
            w
            for w in writes
            if w.consumer is not None and graph.is_real_edge(w.producer, w.consumer)
        ]
        assert len(real) == 13 * 4 and all(w.producer < graph.real_order for w in real)
        dummy_node = [w for w in writes if w.producer == 13]
        assert dummy_node and all(w.producer >= graph.real_order for w in dummy_node)

    def test_real_units_and_address_runs(self):
        # Only the real producers of each fold write; the dummy node 13
        # of the expanded J = 14 graph is the last unit of fold 1.
        base = CirculantBipartiteGraph.plain(13, (0, 1, 3, 9))
        graph = expand_circulant(base, 1)
        plan = FoldPlan.for_graph(graph, 2)
        schedule = write_schedule(graph, plan, "row")
        assert [schedule.real_units(k) for k in range(2)] == [7, 6]
        real = {
            (w.slot, w.pmu, w.port): w.address
            for w in oracle_writes(graph, plan, "row")
            if w.producer < graph.real_order
        }
        assert {
            (slot, m, port): address
            for slot in range(len(schedule.slots))
            for port in (0, 1)
            for address, first, units in schedule.address_runs(slot, port)
            for m in range(first, first + units)
        } == real


class TestConsumerRank:
    def test_spot_values(self):
        graph, _ = running_example()
        ranks = [consumer_rank(graph, "col", d % 15, 0) for d in OFFSETS_15]
        assert ranks[0] == 0
        assert ranks[6] == 1
        assert ranks[4] == 3

    def test_reciprocal(self):
        # Edge t of row node 0 has rank r at its consumer, whose edge r
        # has rank t back at row node 0.
        graph, _ = running_example()
        col_offsets = graph.col_offsets()
        for t, d in enumerate(OFFSETS_15):
            rank = consumer_rank(graph, "col", d, 0)
            assert (d + col_offsets[rank]) % 15 == 0
            assert consumer_rank(graph, "row", 0, d) == t


def family_count(graph, plan, instance):
    """rho_hat of an interconnect instance: its number of wire families."""
    return len(build_netlist(graph, plan).offsets[instance])


class TestSwitchLuts:
    def test_row_instance_rows(self):
        graph, plan = running_example()
        lut = switch_luts(graph, plan)["row_reads"]
        assert lut.rows == ((0, 1), (2, 4), (0, 3), (0, 5))
        assert family_count(graph, plan, "row_reads") == 5

    def test_col_instance_rows_with_doubled_pattern(self):
        graph, plan = running_example()
        lut = switch_luts(graph, plan)["col_reads"]
        assert lut.rows == ((0, 5), (2, 0), (1, 3), (4, 6))
        assert family_count(graph, plan, "col_reads") == 6

    def test_one_table_per_instance(self):
        # Wire j of an out switch lands on port j of an in switch, so the
        # two switch sets share one table; the invalid code is rho_hat,
        # the instance's family count.
        graph, plan = running_example()
        luts = switch_luts(graph, plan)
        assert sorted(luts) == ["col_reads", "row_reads"]
        for instance, lut in luts.items():
            assert lut.instance == instance
            codes = {code for row in lut.rows for code in row}
            assert codes <= set(range(family_count(graph, plan, instance) + 1))

    def test_port_counts_match_rho(self):
        graph, plan = running_example()
        for side in ("row", "col"):
            rho, theta, rho_hat = compute_rho(graph, plan, side)
            assert family_count(graph, plan, f"{side}_reads") == rho_hat

    def test_doubled_toy(self):
        graph = CirculantBipartiteGraph.plain(8, (0, 4))
        plan = FoldPlan.for_graph(graph, 2)
        luts = switch_luts(graph, plan)
        for instance in ("row_reads", "col_reads"):
            assert luts[instance].rows == ((0, 1),)
            assert family_count(graph, plan, instance) == 2


def top_port_maps(graph, plan):
    """Instance label -> (component, {formal: actual}) of hdl/top.vhd, where
    the units, switches and local channels of the netlist are instantiated.
    Each FOR GENERATE is expanded for every m: its statements become
    <side>_pmu_<m>, <side>_ppu_<m>, <instance>_out_<m> and <instance>_in_<m>,
    and an array element <name>(i, b) becomes the signal <name>_<i>_<b>."""
    top = render_run_files(graph, plan, ("hdl",))["hdl/top.vhd"]
    instances = {}
    for generate, last, body in re.findall(
        r"^  (\w+) : FOR m IN 0 TO (\d+) GENERATE\n(.*?)^  END GENERATE \1;",
        top,
        re.MULTILINE | re.DOTALL,
    ):
        prefix = generate.removesuffix("_units")
        for label, component, ports in re.findall(
            r"^    (\w+) : (\w+) PORT MAP \((.*?)\);", body, re.MULTILINE | re.DOTALL
        ):
            associations = re.findall(r"(\w+) => (.+?),?$", ports, re.MULTILINE)
            for m in range(int(last) + 1):
                instances[f"{prefix}_{label.removesuffix('_switch')}_{m}"] = (
                    component,
                    {formal: generated_actual(actual, m) for formal, actual in associations},
                )
    return instances


def generated_actual(actual, m):
    """``actual`` of generate step ``m``: m replaced by its value, and an
    array element <name>(m, b) or <name>((m + d) MOD F, b) by the signal
    <name>_<i>_<b> it selects."""

    def element(match):
        name, offset, units, b = match.groups()
        i = m if offset is None else (m + int(offset)) % int(units)
        return f"{name}_{i}_{b}"

    actual = re.sub(r"^(\w+)\((?:m|\(m \+ (\d+)\) MOD (\d+)), (\d+)\)$", element, actual)
    return actual.replace("TO_UNSIGNED(m,", f"TO_UNSIGNED({m},")


class TestNetlist:
    def test_component_census(self):
        graph, plan = running_example()
        instances = top_port_maps(graph, plan)
        kinds = Counter(component for component, _ in instances.values())
        assert kinds == {
            "processing_unit": 10,
            "memory_unit_row": 5,
            "memory_unit_col": 5,
            **{
                f"switch_{instance}_{kind}": 5
                for instance in ("row_reads", "col_reads")
                for kind in ("out", "in")
            },
        }
        for label in ("row_ppu_0", "col_pmu_4", "row_reads_out_0", "col_reads_in_3"):
            assert label in instances

    def test_switch_placement(self):
        graph, plan = running_example()
        instances = top_port_maps(graph, plan)
        # Row units read column memories, so the memory-side switches of
        # the row_reads instance sit at column memories.
        assert instances["row_reads_out_2"][1]["in0"] == "col_read_2_0"
        assert instances["col_pmu_2"][1]["data_out0"] == "col_read_2_0"
        assert instances["row_reads_in_2"][1]["out1"] == "row_operand_2_1"
        assert instances["row_ppu_2"][1]["data_in1"] == "row_operand_2_1"
        assert instances["col_reads_out_1"][1]["in1"] == "row_read_1_1"

    def test_wire_counts(self):
        graph, plan = running_example()
        net = build_netlist(graph, plan)
        assert len(wires_of(net, 5, "row_reads")) == 25
        assert len(wires_of(net, 5, "col_reads")) == 30
        assert len(wires_of(net, 5)) == 55
        # rho_hat ports, rho + theta: 5 + 0 for row_reads, 5 + 1 for col_reads
        assert {instance: sorted(ports) for instance, ports in net.offsets.items()} == {
            "row_reads": [0, 1, 2, 3, 4],
            "col_reads": [0, 1, 2, 3, 4, 5],
        }
        assert net.offsets["col_reads"][5] == net.offsets["col_reads"][0] == 0

    def test_wires_are_circulant_rotations(self):
        graph, plan = running_example()
        net = build_netlist(graph, plan)
        f_units = plan.units_per_side
        for wire in wires_of(net, f_units):
            src_sw, src_port = wire["src"]
            dst_sw, dst_port = wire["dst"]
            assert dst_port == src_port
            m = int(src_sw.rsplit("_", 1)[1])
            d = int(dst_sw.rsplit("_", 1)[1])
            assert d == (m - wire["folded_offset"]) % f_units

    def test_each_in_switch_port_fed_once(self):
        graph, plan = running_example()
        net = build_netlist(graph, plan)
        seen = {}
        for wire in wires_of(net, plan.units_per_side):
            key = tuple(wire["dst"])
            assert key not in seen
            seen[key] = wire
        for instance in ("row_reads", "col_reads"):
            ports = len(net.offsets[instance])
            count = sum(1 for k in seen if k[0].startswith(f"{instance}_in_"))
            assert count == plan.units_per_side * ports

    @pytest.mark.parametrize("q", [3, 5])
    def test_top_level_binds_each_family_wire(self, q):
        # hdl/top.vhd names each switch port's wire from the families: out
        # switch m port j drives <instance>_w_<m>_<j>, which in switch
        # (m - delta) mod F reads on port j.
        graph, plan = running_example(q=q)
        instances = top_port_maps(graph, plan)
        wires = wires_of(build_netlist(graph, plan), plan.units_per_side)
        for wire in wires:
            (src, j), (dst, _) = wire["src"], wire["dst"]
            assert instances[src][1][f"out{j}"] == instances[dst][1][f"in{j}"] == wire["name"]
        bound = [a for _, ports in instances.values() for a in ports.values() if "_w_" in a]
        assert len(bound) == 2 * len(wires)

    def test_local_channels(self):
        # Unit i of a side writes its collocated memory i over two ports.
        graph, plan = running_example()
        instances = top_port_maps(graph, plan)
        channels = [
            (side, i)
            for side in ("row", "col")
            for i in range(plan.units_per_side)
            for b in (0, 1)
            if instances[f"{side}_ppu_{i}"][1][f"data_out{b}"]
            == instances[f"{side}_pmu_{i}"][1][f"data_in{b}"]
            == f"{side}_write_{i}_{b}"
        ]
        assert len(set(channels)) == len(channels) // 2 == 10

    def test_lookup(self):
        graph, plan = running_example()
        net = build_netlist(graph, plan)
        wire = wire_lookup(net, 5)[("row_reads_out_0", 0)]
        assert wire["dst"] == ["row_reads_in_0", 0]

    def test_json_round_shape(self):
        graph, plan = running_example()
        data = build_netlist(graph, plan).to_json_dict()
        assert data["format_version"] == 3
        assert len(data["wire_families"]) == 11
        keys = [(family["instance"], family["port"]) for family in data["wire_families"]]
        assert keys == sorted(set(keys))
        assert len(wires_of(data, 5)) == 55


class TestTiming:
    def test_unpipelined(self):
        graph, plan = running_example(T=2)
        timing = full_timing(graph, plan)
        assert len(timing.read_cycles) == 12
        assert timing.half_length == 24
        assert timing.side_span == 36
        assert timing.read_cycles[0] == 1
        assert timing.read_cycles[-1] == 23
        assert list(timing.write_cycles) == list(range(24, 36))

    def test_writeback_overlap(self):
        graph, plan = running_example(T=2, pipeline_level="writeback")
        timing = full_timing(graph, plan)
        assert timing.half_length == 24
        assert timing.side_span == 25
        assert list(timing.write_cycles) == [2 * (s + 1) for s in range(12)]

    def test_node_level(self):
        graph, plan = running_example(T=4, pipeline_level="node")
        timing = full_timing(graph, plan)
        assert timing.half_length == 12
        assert timing.side_span == 16
        assert list(timing.read_cycles) == list(range(12))
        assert list(timing.write_cycles) == list(range(4, 16))

    def test_graph_level_requires_option2(self):
        graph, plan = running_example(design_option=1, pipeline_level="graph")
        with pytest.raises(ValueError, match="design option 2"):
            full_timing(graph, plan)

    def test_graph_level_example(self):
        graph, plan = running_example(
            design_option=2, T=2, delta=1, pipeline_level="graph"
        )
        timing = full_timing(graph, plan)
        assert timing.half_length == 28
        assert timing.side_span == 28

    def test_graph_level_golden_degree10(self):
        graph = CirculantBipartiteGraph.plain(21, tuple(range(10)))
        plan = FoldPlan.for_graph(
            graph, 7, design_option=2, T=1, delta=2, pipeline_level="graph"
        )
        timing = full_timing(graph, plan)
        assert len(timing.read_cycles) == 35
        assert timing.half_length == 39

    def test_half_length_ratio_is_fold_factor(self):
        graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
        base = full_timing(graph, FoldPlan.for_graph(graph, 1, T=3))
        for q in (3, 5, 15):
            folded = full_timing(graph, FoldPlan.for_graph(graph, q, T=3))
            assert folded.half_length == q * base.half_length

    def test_windows_follow_from_the_cycle_lists(self):
        # Half h spans [h * side_span, (h + 1) * side_span); its read and
        # write windows are its base plus the first and last cycle of each
        # list.
        graph, plan = running_example(T=2)
        timing = full_timing(graph, plan)
        reads, writes = timing.read_cycles, timing.write_cycles
        assert [h * timing.side_span for h in (0, 1, 2)] == [0, 36, 72]
        assert (reads[0], reads[-1] + 1) == (1, 24)
        assert (writes[0], writes[-1] + 1) == (24, 36)
        assert timing.side_span + reads[0] == 37

    @pytest.mark.parametrize("option", [1, 2])
    @pytest.mark.parametrize("T", [1, 2, 12])
    def test_read_window_of_each_edge(self, option, T):
        # Edge t of fold k is read in slot (t // 2, k), whose window ends
        # with cycle (q * (t // 2) + k + 1) * T under option 1 and
        # (B * k + t // 2 + 1) * T under option 2, for odd and even t.
        graph, plan = running_example(design_option=option, T=T)
        sequence = generate_folded_sequence(graph, plan, "row")
        reads = full_timing(graph, plan).read_cycles
        for t in range(8):
            for k in range(3):
                window = 3 * (t // 2) + k if option == 1 else 4 * k + t // 2
                assert reads[sequence.slot_index(t // 2, k)] + 1 == (window + 1) * T

    def test_serialization(self):
        graph, plan = running_example()
        data = full_timing(graph, plan).to_json_dict()
        assert data == {
            "format_version": 2,
            "half_length": 12,
            "side_span": 24,
            "read_cycles": list(range(12)),
            "write_cycles": list(range(12, 24)),
        }


@st.composite
def folded_graphs(draw):
    order = draw(st.integers(min_value=4, max_value=60))
    degree = draw(st.integers(min_value=2, max_value=min(8, order)))
    offsets = draw(
        st.lists(
            st.integers(min_value=0, max_value=order - 1),
            min_size=degree,
            max_size=degree,
            unique=True,
        )
    )
    graph = CirculantBipartiteGraph.plain(order, offsets)
    q = draw(st.sampled_from(divisors(order)))
    option = draw(st.sampled_from([1, 2]))
    return graph, FoldPlan.for_graph(graph, q, design_option=option)


@st.composite
def render_designs(draw):
    """A ``folded_graphs`` graph, expanded or not, folded by any divisor
    of its order (q = 1 included) under a random option, pipeline level,
    T and delta."""
    graph, _ = draw(folded_graphs())
    graph = CirculantBipartiteGraph.plain(graph.order, graph.base_offsets)
    if draw(st.booleans()):
        graph = expand_circulant(graph, draw(st.integers(min_value=1, max_value=8)))
    q = draw(st.sampled_from([1, *divisors(graph.order)]))
    option = draw(st.sampled_from([1, 2]))
    levels = ["none", "writeback", "node"] + (["graph"] if option == 2 else [])
    plan = FoldPlan.for_graph(
        graph,
        q,
        design_option=option,
        T=draw(st.integers(min_value=1, max_value=4)),
        delta=draw(st.integers(min_value=0, max_value=3)),
        pipeline_level=draw(st.sampled_from(levels)),
    )
    return graph, plan


class TestWriteScheduleProperties:
    @settings(max_examples=60, deadline=None)
    @given(folded_graphs())
    def test_bijective_and_reciprocal(self, case):
        graph, plan = case
        for side in ("row", "col"):
            cons = [
                d for d in reader_offsets(graph, other_side(side)) if d is not None
            ]
            for w in assert_bijective_addressing(graph, plan, side):
                if w.consumer is None:
                    continue
                assert (cons[w.rank] + w.consumer) % plan.units_per_side == w.pmu

    @settings(max_examples=80, deadline=None)
    @given(render_designs())
    def test_runs_are_the_oracle_writes(self, design):
        graph, plan = design
        for side in ("row", "col"):
            checked_writes(graph, plan, side)
