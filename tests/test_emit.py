"""Serialization goldens: schedule table grid, netlist JSON, LUT and
address files, access traces, HDL skeleton, and the run directory.

FROZEN_SCHEDULE_GRID is the frozen 15-node, q=3, option-1 schedule grid, written
out by hand from the folded patterns before the emitter existed.
"""

import csv
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfold.circulant import CirculantBipartiteGraph
from pgfold.emit import (
    _json_text,
    check_hdl,
    decode_schedule_cell,
    emit_access_trace,
    emit_graph_json,
    emit_hdl,
    emit_incidence_csv,
    emit_netlist_json,
    emit_read_counter_params,
    emit_schedule_table,
    emit_switch_lut_csv,
    emit_write_lut_csv,
    parse_schedule_table,
    render_run_files,
    write_run_directory,
)
from pgfold.folding import FoldPlan, generate_folded_sequence, pad_dummy_offset
from pgfold.projective import PgParams, build_pg_graph
from pgfold.schedule import (
    build_netlist,
    full_timing,
    layout_addresses,
    switch_luts,
    write_schedule,
)

OFFSETS_15 = (0, 1, 2, 4, 5, 8, 10)

_P0 = '"[PU0 : MU0, MU1 ]","[PU1 : MU1, MU2 ]","[PU2 : MU2, MU3 ]","[PU3 : MU3, MU4 ]","[PU4 : MU4, MU0 ]"'
_P1 = '"[PU0 : MU2, MU4 ]","[PU1 : MU3, MU0 ]","[PU2 : MU4, MU1 ]","[PU3 : MU0, MU2 ]","[PU4 : MU1, MU3 ]"'
_P2 = '"[PU0 : MU0, MU3 ]","[PU1 : MU1, MU4 ]","[PU2 : MU2, MU0 ]","[PU3 : MU3, MU1 ]","[PU4 : MU4, MU2 ]"'
_P3 = '"[PU0 : MU0, D ]","[PU1 : MU1, D ]","[PU2 : MU2, D ]","[PU3 : MU3, D ]","[PU4 : MU4, D ]"'

FROZEN_SCHEDULE_GRID = (
    "Full Perfect Access Pattern 0\n"
    f"0,{_P0}\n"
    f"1,{_P0}\n"
    f"2,{_P0}\n"
    "Full Perfect Access Pattern 1\n"
    f"3,{_P1}\n"
    f"4,{_P1}\n"
    f"5,{_P1}\n"
    "Full Perfect Access Pattern 2\n"
    f"6,{_P2}\n"
    f"7,{_P2}\n"
    f"8,{_P2}\n"
    "Full Perfect Access Pattern 3\n"
    f"9,{_P3}\n"
    f"10,{_P3}\n"
    f"11,{_P3}\n"
)


def running_example(q=3, design_option=1, **kwargs):
    graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
    plan = FoldPlan.for_graph(graph, q, design_option=design_option, **kwargs)
    return graph, plan


class TestScheduleTable:
    def test_frozen_grid(self):
        graph, plan = running_example()
        sequence = generate_folded_sequence(graph, plan, "row")
        assert emit_schedule_table(sequence) == FROZEN_SCHEDULE_GRID

    def test_dummy_cell_in_row_9(self):
        graph, plan = running_example()
        text = emit_schedule_table(generate_folded_sequence(graph, plan, "row"))
        parsed = parse_schedule_table(text)
        rows = dict(parsed["rows"])
        assert rows[9][0] == (0, 0, None)
        raw = next(rec for rec in csv.reader(io.StringIO(text)) if rec[0] == "9")
        assert raw[1] == "[PU0 : MU0, D ]"

    def test_banner_census(self):
        graph, plan = running_example()
        text = emit_schedule_table(generate_folded_sequence(graph, plan, "row"))
        parsed = parse_schedule_table(text)
        assert [b for _, b in parsed["banners"]] == [
            f"Full Perfect Access Pattern {l}" for l in range(4)
        ]
        assert len(parsed["rows"]) == 12

    def test_option2_fold_banners(self):
        graph, plan = running_example(design_option=2)
        text = emit_schedule_table(generate_folded_sequence(graph, plan, "row"))
        parsed = parse_schedule_table(text)
        assert [b for _, b in parsed["banners"]] == ["Fold 0", "Fold 1", "Fold 2"]
        assert len(parsed["rows"]) == 12

    def test_unfolded_degenerate(self):
        graph, plan = running_example(q=1)
        text = emit_schedule_table(generate_folded_sequence(graph, plan, "row"))
        parsed = parse_schedule_table(text)
        assert len(parsed["rows"]) == 4
        assert all(len(cells) == 15 for _, cells in parsed["rows"])

    def test_round_trip_both_options(self):
        for option in (1, 2):
            graph, plan = running_example(design_option=option)
            for side in ("row", "col"):
                sequence = generate_folded_sequence(graph, plan, side)
                parsed = parse_schedule_table(emit_schedule_table(sequence))
                assert len(parsed["rows"]) == sequence.slot_count
                for slot, cells in parsed["rows"]:
                    expected = [
                        (a["ppu"], a["pmus"][0], a["pmus"][1])
                        for a in sequence.accesses(slot)
                    ]
                    assert cells == expected

    def test_cell_codec(self):
        assert decode_schedule_cell("[PU0 : MU0, MU1 ]") == (0, 0, 1)
        assert decode_schedule_cell("[PU4 : MU4, D ]") == (4, 4, None)
        with pytest.raises(ValueError):
            decode_schedule_cell("[PU0 : MU0, MU1]")


class TestFlatArtifacts:
    def test_netlist_json(self):
        graph, plan = running_example()
        data = json.loads(emit_netlist_json(build_netlist(graph, plan)))
        assert len(data["components"]) == 40
        switches = [c for c in data["components"] if c["kind"].startswith("switch")]
        assert len(switches) == 20
        assert len(data["wires"]) == 55
        assert data["annotations"]["instances"]["row_reads"]["rho_hat"] == 5

    def test_graph_json_round_trip(self):
        graph, _ = running_example()
        data = json.loads(emit_graph_json(graph))
        assert data["J"] == 15
        assert data["gamma"] == 7
        assert data["base_offsets"] == list(OFFSETS_15)

    def test_incidence_csv(self):
        graph, _ = running_example()
        lines = emit_incidence_csv(graph).splitlines()
        assert lines[0] == "node,edge0,edge1,edge2,edge3,edge4,edge5,edge6"
        assert lines[1] == "0,0,1,2,4,5,8,10"
        assert lines[6] == "5,5,6,7,9,10,13,0"

    def test_switch_lut_csv(self):
        graph, plan = running_example()
        text = emit_switch_lut_csv(switch_luts(graph, plan)["row_reads"]["out"])
        lines = text.splitlines()
        assert lines[0] == "slot,port0,port1"
        assert lines[1] == "0,0,1"
        assert lines[4] == "3,0,5"

    def test_read_counter_params(self):
        graph, plan = running_example()
        layout = layout_addresses(plan, graph)
        data = json.loads(emit_read_counter_params(layout, graph))
        assert data["start"] == 0
        assert data["stride"] == 1
        assert data["wrap"] == 24
        assert data["reserved_addresses"] == [19, 21, 23]

    def test_write_lut_csv(self):
        graph, plan = running_example()
        text = emit_write_lut_csv(write_schedule(graph, plan, "row"))
        lines = text.splitlines()
        assert lines[0] == "pmu,index,slot,port,address,real,producer_real"
        assert len(lines) == 1 + 120
        first = lines[1].split(",")
        assert first[0] == "0" and first[4] == "0"


class TestAccessTrace:
    def make(self, pmu_side, **kwargs):
        graph, plan = running_example(**kwargs)
        timing = full_timing(graph, plan)
        sequences = {
            s: generate_folded_sequence(graph, plan, s) for s in ("row", "col")
        }
        schedules = {s: write_schedule(graph, plan, s) for s in ("row", "col")}
        text = emit_access_trace(pmu_side, graph, plan, timing, sequences, schedules)
        return graph, plan, timing, text

    def test_header_and_census(self):
        graph, plan, timing, text = self.make("row")
        lines = text.splitlines()
        assert lines[0] == "cycle,pmu,port,address,rw"
        rows = [line.split(",") for line in lines[1:]]
        reads = [r for r in rows if r[4] == "R"]
        writes = [r for r in rows if r[4] == "W"]
        assert len(reads) == 15 * 7
        assert len(writes) == 15 * 8

    def test_write_then_read_cycles(self):
        graph, plan, timing, text = self.make("row")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        write_cycles = {int(r[0]) for r in rows if r[4] == "W"}
        read_cycles = {int(r[0]) for r in rows if r[4] == "R"}
        # Row memories: written during the row half, read during the col half.
        assert write_cycles == set(range(12, 24))
        assert read_cycles == set(range(24, 36))

    def test_addresses_within_capacity_and_counter_reads(self):
        for pmu_side in ("row", "col"):
            graph, plan, timing, text = self.make(pmu_side)
            rows = [line.split(",") for line in text.splitlines()[1:]]
            for r in rows:
                assert 0 <= int(r[3]) < 24
            for r in rows:
                if r[4] == "R":
                    assert int(r[3]) % 2 == int(r[2])

    def test_reads_cover_written_real_cells(self):
        graph, plan, timing, text = self.make("row")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        read_cells = {(r[1], r[3]) for r in rows if r[4] == "R"}
        write_cells = {(r[1], r[3]) for r in rows if r[4] == "W"}
        assert read_cells <= write_cells
        reserved = {(str(m), str(a)) for m in range(5) for a in (19, 21, 23)}
        assert write_cells - read_cells == reserved

    def test_no_port_conflicts_in_trace(self):
        for pmu_side in ("row", "col"):
            graph, plan, timing, text = self.make(pmu_side, design_option=2)
            seen = set()
            for line in text.splitlines()[1:]:
                cycle, pmu, port, _, _ = line.split(",")
                key = (cycle, pmu, port)
                assert key not in seen
                seen.add(key)


class TestHdl:
    def build(self, **kwargs):
        graph, plan = running_example(**kwargs)
        netlist = build_netlist(graph, plan)
        luts = switch_luts(graph, plan)
        schedules = {s: write_schedule(graph, plan, s) for s in ("row", "col")}
        layout = layout_addresses(plan, graph)
        return emit_hdl(plan, netlist, luts, schedules, layout)

    def test_file_set(self):
        files = self.build()
        assert set(files) == {
            "memory_unit_row.vhd",
            "memory_unit_col.vhd",
            "processing_unit.vhd",
            "switch_row_reads_out.vhd",
            "switch_row_reads_in.vhd",
            "switch_col_reads_out.vhd",
            "switch_col_reads_in.vhd",
            "top.vhd",
        }

    def test_memory_unit_widths(self):
        files = self.build()
        text = files["memory_unit_row.vhd"]
        assert "mu_width   : INTEGER := 3" in text
        assert "depth      : INTEGER := 24" in text
        assert "mu_id     : IN STD_LOGIC_VECTOR(mu_width-1 DOWNTO 0);" in text

    def test_switch_has_lut_constants(self):
        files = self.build()
        text = files["switch_row_reads_out.vhd"]
        assert "CONSTANT port0_lut" in text
        assert "CONSTANT port1_lut" in text

    def test_top_instance_count(self):
        files = self.build()
        assert files["top.vhd"].count("PORT MAP") == 40

    def test_self_check_passes(self):
        files = self.build()
        assert check_hdl(files) == []

    def test_self_check_catches_unbalanced_entity(self):
        files = self.build()
        files["memory_unit_row.vhd"] = files["memory_unit_row.vhd"].replace(
            "END memory_unit_row;", ""
        )
        problems = check_hdl(files)
        assert any("no matching end" in p for p in problems)

    def test_self_check_catches_missing_component(self):
        files = self.build()
        del files["processing_unit.vhd"]
        problems = check_hdl(files)
        assert any("missing component processing_unit" in p for p in problems)

    def test_self_check_catches_signal_used_only_as_prefix(self):
        files = self.build()
        declaration = "  SIGNAL row_write_0_0 : STD_LOGIC_VECTOR(7 DOWNTO 0);\n"
        assert declaration in files["top.vhd"]
        files["top.vhd"] = files["top.vhd"].replace(
            declaration,
            "  SIGNAL row_write_0 : STD_LOGIC_VECTOR(7 DOWNTO 0);\n" + declaration,
        )
        assert check_hdl(files) == [
            "top.vhd: signal row_write_0 declared but never used"
        ]

    def test_self_check_accepts_signal_used_once(self):
        files = self.build()
        files["top.vhd"] = (
            files["top.vhd"]
            .replace(
                "BEGIN\n",
                "  SIGNAL spare_0 : STD_LOGIC_VECTOR(7 DOWNTO 0);\nBEGIN\n",
            )
            .replace("END structural;", "  spare_0 <= row_write_0_0;\nEND structural;")
        )
        assert check_hdl(files) == []

    def test_single_unit_architecture(self):
        files = self.build(q=15)
        assert "mu_width   : INTEGER := 1" in files["memory_unit_row.vhd"]
        assert check_hdl(files) == []


_CLAUSE_RE = re.compile(r"(ENTITY|COMPONENT) (\w+) IS\n(.*?)\n\s*END", re.DOTALL)
_GENERIC_RE = re.compile(r"^\s*(\w+)\s+: INTEGER := (\d+)", re.MULTILINE)
_PORT_RE = re.compile(
    r"^\s*(\w+)\s+: (IN|OUT) STD_LOGIC(?:_VECTOR\((?:(\w+)-1|(\d+)) DOWNTO 0\))?;?$",
    re.MULTILINE,
)
_PORT_MAP_RE = re.compile(r"^  (\w+) : (\w+) PORT MAP \((.*?)\);", re.MULTILINE | re.DOTALL)


def hdl_interfaces(files):
    """Entity name -> [(port, mode, width)] of every ENTITY clause and of
    every COMPONENT declaration, with each generic resolved to its default."""
    entities, components = {}, {}
    for text in files.values():
        for kind, name, body in _CLAUSE_RE.findall(text):
            generics = {g: int(v) for g, v in _GENERIC_RE.findall(body)}
            ports = [
                (port, mode, generics[g] if g else int(top) + 1 if top else 1)
                for port, mode, g, top in _PORT_RE.findall(body)
            ]
            (entities if kind == "ENTITY" else components)[name] = ports
    return entities, components


def pg_design(geometry, q):
    graph = pad_dummy_offset(build_pg_graph(PgParams(*geometry)))
    return graph, FoldPlan.for_graph(graph, q)


class TestHdlInterfaces:
    """top.vhd declares each component exactly as its entity file does and
    binds every port of it in each instance, for designs of 1 to 20
    units per side and 4 to 11 switch ports."""

    @pytest.fixture(
        params=[
            ("J15-q3", lambda: running_example()),
            ("J15-q15", lambda: running_example(q=15)),
            ("J40-q2", lambda: pg_design((3, 3, 1), 2)),
            ("J91-q7", lambda: pg_design((2, 3, 2), 7)),
        ],
        ids=lambda param: param[0],
    )
    def hdl(self, request):
        graph, plan = request.param[1]()
        rendered = render_run_files(graph, plan, ("hdl",))
        return {name.removeprefix("hdl/"): text for name, text in rendered.items()}

    def test_components_declare_their_entity_ports(self, hdl):
        entities, components = hdl_interfaces(hdl)
        assert set(components) == set(entities) - {"folded_top"}
        for name, ports in components.items():
            assert ports == entities[name], name
            assert ports[:3] == [(c, "IN", 1) for c in ("clock", "reset", "enable")]

    def test_instances_bind_every_component_port_in_order(self, hdl):
        _, components = hdl_interfaces(hdl)
        instances = _PORT_MAP_RE.findall(hdl["top.vhd"])
        assert {component for _, component, _ in instances} == set(components)
        for label, component, body in instances:
            formals = re.findall(r"(\w+) =>", body)
            assert formals == [port for port, _, _ in components[component]], label

    def test_two_digit_switch_ports_align(self):
        graph, plan = pg_design((3, 3, 1), 2)
        files = render_run_files(graph, plan, ("hdl",))
        _, components = hdl_interfaces(files)
        names = [port for port, _, _ in components["switch_row_reads_in"]]
        assert names[-3:] == ["in10", "out0", "out1"]
        text = files["hdl/switch_row_reads_in.vhd"]
        assert "    in9       : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);\n" in text
        assert "    in10      : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);\n" in text


class TestRunDirectory:
    def test_contents_and_manifest(self, tmp_path):
        graph, plan = running_example()
        manifest = write_run_directory(tmp_path / "run", graph, plan)
        names = set(manifest["files"])
        for expected in (
            "graph.json",
            "plan.json",
            "fold_row.json",
            "fold_col.json",
            "layout.json",
            "netlist.json",
            "timing.json",
            "read_counter_params.json",
            "resource_report.json",
            "incidence.csv",
            "schedule_table_row.csv",
            "schedule_table_col.csv",
            "write_lut_row.csv",
            "write_lut_col.csv",
            "access_trace_row.csv",
            "access_trace_col.csv",
            "lut_row_reads_out.csv",
            "lut_row_reads_in.csv",
            "lut_col_reads_out.csv",
            "lut_col_reads_in.csv",
            "hdl/top.vhd",
        ):
            assert expected in names
        for name in names:
            assert (tmp_path / "run" / name).is_file()
        stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert stored == manifest

    def test_determinism(self, tmp_path):
        graph, plan = running_example()
        first = write_run_directory(tmp_path / "a", graph, plan)
        second = write_run_directory(tmp_path / "b", graph, plan)
        assert first == second
        for name in first["files"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_format_selection(self, tmp_path):
        graph, plan = running_example()
        manifest = write_run_directory(tmp_path / "run", graph, plan, ("json",))
        assert all(name.endswith(".json") for name in manifest["files"])

    def test_unknown_format_rejected(self):
        graph, plan = running_example()
        with pytest.raises(ValueError, match="unknown emission format 'vhdl'"):
            render_run_files(graph, plan, ("csv", "vhdl"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


@settings(max_examples=50, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_sorted_indented_dumps(data):
    assert _json_text(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_json_text_joins_a_long_chunk_stream_exactly():
    # ~90k encoder chunks: many batches, the last one partial.
    data = {"wires": [{"dst": ["x", i], "name": f"w{i}", "src": ["y", -i]} for i in range(5000)]}
    assert _json_text(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"
