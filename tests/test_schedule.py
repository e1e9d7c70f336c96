"""Memory layout, write scheduling, switch tables, netlist, and timing.

Golden values for the 15-node running example (offsets 0,1,2,4,5,8,10
folded by q=3 onto 5 units) were derived by hand from the placement rule
and frozen here before the implementation existed.
"""

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfold.circulant import CirculantBipartiteGraph, divisors, expand_circulant
from pgfold.emit import render_run_files
from pgfold.folding import (
    FoldPlan,
    compute_rho,
    generate_folded_sequence,
    pad_dummy_offset,
    reader_offsets,
)
from pgfold.schedule import (
    MemoryLayout,
    assign_memory_units,
    build_netlist,
    edge_shift_replica,
    full_timing,
    layout_addresses,
    other_side,
    read_cycle,
    switch_luts,
    write_schedule,
)

OFFSETS_15 = (0, 1, 2, 4, 5, 8, 10)


def running_example(q=3, design_option=1, **kwargs):
    graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
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


def depth(layout):
    """The cells of a memory: two per slot."""
    return 2 * layout.pattern_count * layout.q


def reserved_cells(layout, degree):
    """The cells no read reaches because the sentinel pads an odd degree:
    the last pattern's port-1 cell of each fold."""
    if degree % 2 == 0:
        return []
    return [layout.address(layout.pattern_count - 1, k, 1) for k in range(layout.q)]


class TestMemoryLayout:
    def test_running_example_capacity(self):
        # Option 1 keeps a bin of 2q = 6 cells per pattern.
        graph, plan = running_example()
        layout = layout_addresses(plan, graph)
        assert layout.pattern_count == 4
        assert depth(layout) == 24
        assert [layout.address(l, 0, 0) for l in range(4)] == [0, 6, 12, 18]

    def test_option2_same_capacity_transposed_bins(self):
        # Option 2 keeps a bin of 2B = 8 cells per fold.
        graph, plan = running_example(design_option=2)
        layout = layout_addresses(plan, graph)
        assert depth(layout) == 24
        assert [layout.address(0, k, 0) for k in range(3)] == [0, 8, 16]

    def test_address_goldens_option1(self):
        graph, plan = running_example()
        layout = layout_addresses(plan, graph)
        assert layout.address(0, 0, 0) == 0
        assert layout.address(0, 0, 1) == 1
        assert layout.address(1, 1, 1) == 9
        assert layout.address(3, 2, 1) == 23

    def test_address_is_two_slot_plus_port_both_options(self):
        for option in (1, 2):
            graph, plan = running_example(design_option=option)
            layout = layout_addresses(plan, graph)
            seen = set()
            for l in range(layout.pattern_count):
                for k in range(layout.q):
                    for b in (0, 1):
                        addr = layout.address(l, k, b)
                        assert addr == 2 * layout.slot_index(l, k) + b
                        seen.add(addr)
            assert seen == set(range(depth(layout)))

    def test_reserved_cells(self):
        # The sentinel writes of the padded degree fill the cells no read
        # reaches.
        for option, cells in ((1, [19, 21, 23]), (2, [7, 15, 23])):
            graph, plan = running_example(design_option=option)
            layout = layout_addresses(plan, graph)
            assert reserved_cells(layout, graph.degree) == cells
            sentinels = [e for e in write_schedule(graph, plan).entries if e.consumer is None]
            assert sorted({e.address for e in sentinels}) == cells
        assert reserved_cells(layout, 8) == []

    def test_address_validation(self):
        graph, plan = running_example()
        layout = layout_addresses(plan, graph)
        with pytest.raises(ValueError):
            layout.address(4, 0, 0)
        with pytest.raises(ValueError):
            layout.address(0, 3, 0)
        with pytest.raises(ValueError):
            layout.address(0, 0, 2)


class TestAssignMemoryUnits:
    def test_goldens(self):
        graph, plan = running_example()
        table = assign_memory_units(graph, plan, "row")
        assert table[(0, 0, 1)] == (2, 4)
        assert table[(2, 3, 0)] == (3, 4)
        assert table[(0, 0, 0)] == (0, 1)

    def test_fold_invariance(self):
        graph, plan = running_example()
        table = assign_memory_units(graph, plan, "row")
        for (k, i, l), pair in table.items():
            assert table[(0, i, l)] == pair

    def test_matches_sequence_accesses(self):
        for side in ("row", "col"):
            graph, plan = running_example()
            table = assign_memory_units(graph, plan, side)
            sequence = generate_folded_sequence(graph, plan, side)
            for slot in range(sequence.slot_count):
                l, k = sequence.slots[slot]
                for access in accesses(sequence, slot):
                    assert table[(k, access["ppu"], l)] == access["pmus"]

    def test_sentinel_second_member(self):
        graph, plan = running_example()
        table = assign_memory_units(graph, plan, "row")
        for k in range(3):
            for i in range(5):
                p0, p1 = table[(k, i, 3)]
                assert p0 == (10 + i) % 5
                assert p1 is None


class TestReadCycle:
    def test_option1_golden(self):
        graph, plan = running_example(T=1)
        assert read_cycle(5, 0, plan, 4) == 7
        graph, plan = running_example(T=12)
        assert read_cycle(5, 0, plan, 4) == 84

    def test_option1_full_window_structure(self):
        graph, plan = running_example(T=2)
        for t in range(8):
            for k in range(3):
                assert read_cycle(t, k, plan, 4) == (3 * (t // 2) + k + 1) * 2

    def test_option2_formula_and_even_edge_quirk(self):
        graph, plan = running_example(design_option=2, T=1)
        assert read_cycle(5, 0, plan, 4) == 3
        assert read_cycle(7, 2, plan, 4) == 12
        # For an even edge index the count reaches only the start of its
        # slot window (slot index k*B + t/2), one window early.
        assert read_cycle(4, 0, plan, 4) == 2
        sequence = generate_folded_sequence(graph, plan, "row")
        assert sequence.slot_index(2, 0) == 2

    def test_domain_errors(self):
        graph, plan = running_example()
        with pytest.raises(ValueError):
            read_cycle(8, 0, plan, 4)
        with pytest.raises(ValueError):
            read_cycle(0, 3, plan, 4)


class TestWriteSchedule:
    def test_address_goldens(self):
        graph, plan = running_example()
        schedule = write_schedule(graph, plan, "row")
        by_key = {(e.producer, e.edge): e for e in schedule.entries}
        assert by_key[(0, 0)].address == 0
        assert by_key[(5, 6)].address == 1
        assert by_key[(0, 4)].address == 9

    def test_consumer_coordinates_of_goldens(self):
        graph, plan = running_example()
        schedule = write_schedule(graph, plan, "row")
        by_key = {(e.producer, e.edge): e for e in schedule.entries}
        entry = by_key[(0, 4)]
        assert entry.consumer == 5
        assert entry.consumer_rank == 3
        assert by_key[(5, 6)].consumer == 0
        assert by_key[(5, 6)].consumer_rank == 1

    def test_port_is_edge_parity(self):
        graph, plan = running_example()
        schedule = write_schedule(graph, plan, "row")
        for entry in schedule.entries:
            assert entry.port == entry.edge % 2

    def test_collocated_writes(self):
        graph, plan = running_example()
        for side in ("row", "col"):
            schedule = write_schedule(graph, plan, side)
            for entry in schedule.entries:
                assert entry.pmu == entry.producer % plan.units_per_side

    def test_census(self):
        graph, plan = running_example()
        schedule = write_schedule(graph, plan, "row")
        assert len(schedule.entries) == 15 * 8
        assert sum(1 for e in schedule.entries if e.consumer is not None) == 15 * 7
        assert all(e.producer_real for e in schedule.entries)

    def test_per_pmu_bijective_addressing(self):
        for option in (1, 2):
            for side in ("row", "col"):
                graph, plan = running_example(design_option=option)
                layout = layout_addresses(plan, graph)
                reserved = set(reserved_cells(layout, graph.degree))
                schedule = write_schedule(graph, plan, side)
                for pmu, entries in schedule.per_pmu().items():
                    real_addrs = [e.address for e in entries if e.consumer is not None]
                    dummy_addrs = [e.address for e in entries if e.consumer is None]
                    assert sorted(real_addrs) == sorted(set(range(depth(layout))) - reserved)
                    assert set(dummy_addrs) <= reserved
                    assert len(dummy_addrs) == len(reserved)

    def test_sentinel_entries_flagged(self):
        graph, plan = running_example()
        schedule = write_schedule(graph, plan, "row")
        sentinels = [e for e in schedule.entries if e.edge == 7]
        assert len(sentinels) == 15
        for e in sentinels:
            assert e.consumer is None
            assert e.port == 1
            assert e.address in (19, 21, 23)

    def test_slot_grouping(self):
        graph, plan = running_example()
        schedule = write_schedule(graph, plan, "row")
        sequence = generate_folded_sequence(graph, plan, "row")
        for slot in range(sequence.slot_count):
            group = [e for e in schedule.entries if e.slot == slot]
            assert len(group) == 2 * plan.units_per_side
            per_pmu = {}
            for e in group:
                per_pmu.setdefault(e.pmu, set()).add(e.port)
            assert all(ports == {0, 1} for ports in per_pmu.values())

    def test_write_lands_where_consumer_reads(self):
        for option in (1, 2):
            graph, plan = running_example(design_option=option)
            layout = layout_addresses(plan, graph)
            for side in ("row", "col"):
                schedule = write_schedule(graph, plan, side)
                cons = [
                    d
                    for d in reader_offsets(graph, other_side(side))
                    if d is not None
                ]
                for e in schedule.entries:
                    if e.consumer is None:
                        continue
                    rank = e.consumer_rank
                    # The consumer's read pairs its unit with exactly the
                    # producer's collocated memory...
                    read_pmu = (cons[rank] + e.consumer) % plan.units_per_side
                    assert read_pmu == e.pmu
                    # ...at the address its forward counter has reached.
                    assert e.address == layout.address(
                        rank // 2, e.consumer // plan.units_per_side, rank % 2
                    )

    def test_full_fold_addresses_descend_cyclically(self):
        graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
        plan = FoldPlan.for_graph(graph, 1)
        schedule = write_schedule(graph, plan, "row")
        for pmu, entries in schedule.per_pmu().items():
            addrs = [e.address for e in entries if e.consumer is not None]
            assert addrs == [0, 6, 5, 4, 3, 2, 1]
            for prev, cur in zip(addrs, addrs[1:]):
                assert (prev - cur) % 7 == 1

    def test_expanded_graph_flags(self):
        base = CirculantBipartiteGraph.plain(13, (0, 1, 3, 9))
        graph = pad_dummy_offset(expand_circulant(base, 1))
        plan = FoldPlan.for_graph(graph, 2)
        schedule = write_schedule(graph, plan, "row")
        assert len(schedule.entries) == 14 * 8
        real = [
            e
            for e in schedule.entries
            if e.consumer is not None and graph.is_real_edge(e.producer, e.consumer)
        ]
        assert len(real) == 13 * 4 and all(e.producer_real for e in real)
        dummy_node = [e for e in schedule.entries if e.producer == 13]
        assert dummy_node and all(not e.producer_real for e in dummy_node)


class TestConsumerRank:
    def test_spot_values(self):
        graph, plan = running_example()
        ranks = write_schedule(graph, plan, "row").ranks
        assert ranks[0] == 0
        assert ranks[6] == 1
        assert ranks[4] == 3

    def test_reciprocal(self):
        graph, plan = running_example()
        row = write_schedule(graph, plan, "row").ranks
        col = write_schedule(graph, plan, "col").ranks
        real = [t for t, rank in enumerate(row) if rank is not None]
        assert real == list(range(graph.degree))
        for t in real:
            assert col[row[t]] == t


class TestEdgeShiftReplica:
    def test_goldens(self):
        graph, _ = running_example()
        assert edge_shift_replica(graph, 1, 3, 1) == 5
        assert edge_shift_replica(graph, 1, 3, 12) == 1
        assert edge_shift_replica(graph, 12, 3, 12) == 7

    def test_identity_is_sorted_row(self):
        graph, _ = running_example()
        for base in range(15):
            row = sorted(graph.incidence_row(base))
            for t in range(7):
                assert edge_shift_replica(graph, base, t, base) == row[t]

    def test_domain(self):
        graph, _ = running_example()
        with pytest.raises(ValueError):
            edge_shift_replica(graph, 0, 7, 0)


class TestSwitchLuts:
    def test_row_instance_rows(self):
        graph, plan = running_example()
        lut = switch_luts(graph, plan)["row_reads"]
        assert lut.rows == ((0, 1), (2, 4), (0, 3), (0, 5))
        assert lut.port_count == 5

    def test_col_instance_rows_with_doubled_pattern(self):
        graph, plan = running_example()
        lut = switch_luts(graph, plan)["col_reads"]
        assert lut.rows == ((0, 5), (2, 0), (1, 3), (4, 6))
        assert lut.port_count == 6

    def test_one_table_per_instance(self):
        # Wire j of an out switch lands on port j of an in switch, so the
        # two switch sets share one table; the invalid code is rho_hat,
        # the instance's family count.
        graph, plan = running_example()
        luts = switch_luts(graph, plan)
        assert sorted(luts) == ["col_reads", "row_reads"]
        netlist = build_netlist(graph, plan)
        for instance, lut in luts.items():
            assert lut.instance == instance
            assert lut.port_count == len(netlist.offsets[instance])
            codes = {code for row in lut.rows for code in row}
            assert codes <= set(range(lut.port_count + 1))

    def test_port_counts_match_rho(self):
        graph, plan = running_example()
        luts = switch_luts(graph, plan)
        for side in ("row", "col"):
            rho, theta, rho_hat = compute_rho(graph, plan, side)
            assert luts[f"{side}_reads"].port_count == rho_hat

    def test_doubled_toy(self):
        graph = CirculantBipartiteGraph.plain(8, (0, 4))
        plan = FoldPlan.for_graph(graph, 2)
        luts = switch_luts(graph, plan)
        for instance in ("row_reads", "col_reads"):
            assert luts[instance].rows == ((0, 1),)
            assert luts[instance].port_count == 2


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
        graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
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
    graph = pad_dummy_offset(CirculantBipartiteGraph.plain(order, offsets))
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
    graph = pad_dummy_offset(graph)
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
        layout = layout_addresses(plan, graph)
        reserved = set(reserved_cells(layout, graph.degree))
        for side in ("row", "col"):
            schedule = write_schedule(graph, plan, side)
            cons = [
                d for d in reader_offsets(graph, other_side(side)) if d is not None
            ]
            for pmu, entries in schedule.per_pmu().items():
                real_addrs = sorted(
                    e.address for e in entries if e.consumer is not None
                )
                assert real_addrs == sorted(set(range(depth(layout))) - reserved)
            for e in schedule.entries:
                if e.consumer is None:
                    continue
                assert (cons[e.consumer_rank] + e.consumer) % plan.units_per_side == e.pmu
