"""Serialization goldens: netlist JSON, LUT and address files, access
traces, HDL skeleton, and the run directory.

FROZEN_SCHEDULE_GRID is the frozen 15-node, q=3, option-1 schedule grid, written
out by hand from the folded patterns; ``schedule_grid`` builds the same grid
from a folded sequence's per-unit accesses.
"""

import csv
import io
import json
import re

import pytest
from hypothesis import given, settings

from pgfold.circulant import CirculantBipartiteGraph
from pgfold.emit import (
    check_hdl,
    emit_access_trace,
    emit_graph_json,
    emit_hdl,
    emit_netlist_json,
    emit_switch_lut_csv,
    emit_write_lut_csv,
    render_run_files,
    write_run_directory,
)
from pgfold.folding import FoldPlan, generate_folded_sequence
from pgfold.projective import PgParams, build_pg_graph
from pgfold.schedule import (
    build_netlist,
    full_timing,
    other_side,
    switch_luts,
    write_schedule,
)

from .test_schedule import accesses, oracle_writes, render_designs, wires_of

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


def csv_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def format_schedule_cell(pu: int, first: int, second: int | None) -> str:
    """A cell of the schedule grid: "[PUi : MUa, MUb ]", with "D" in place
    of the dummy access."""
    if second is None:
        return f"[PU{pu} : MU{first}, D ]"
    return f"[PU{pu} : MU{first}, MU{second} ]"


def schedule_grid(sequence) -> str:
    """One side's schedule grid under design option 1, as CSV text: a
    banner row opening the q slots of each pattern, and a row of per-unit
    access cells per slot."""
    grid = []
    for slot, (l, _) in enumerate(sequence.slots):
        if slot % sequence.q == 0:
            grid.append([f"Full Perfect Access Pattern {l}"])
        cells = [format_schedule_cell(a["ppu"], *a["pmus"]) for a in accesses(sequence, slot)]
        grid.append([str(slot), *cells])
    return csv_text(grid)


def running_example(q=3, design_option=1, **kwargs):
    graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
    plan = FoldPlan.for_graph(graph, q, design_option=design_option, **kwargs)
    return graph, plan


class TestFlatArtifacts:
    def test_netlist_json(self):
        # One family per switch port of an instance: 5 row_reads ports and
        # 6 col_reads ports, the last the extra port of the doubled pattern,
        # for 55 wires.  The family count is each instance's rho_hat.
        graph, plan = running_example()
        data = json.loads(emit_netlist_json(build_netlist(graph, plan)))
        assert set(data) == {"format_version", "wire_families"}
        families = data["wire_families"]
        assert [set(f) for f in families] == [{"instance", "port", "folded_offset"}] * 11
        assert [(f["instance"], f["port"]) for f in families] == [
            *(("col_reads", j) for j in range(6)),
            *(("row_reads", j) for j in range(5)),
        ]
        assert len(wires_of(data, plan.units_per_side)) == 55

    def test_graph_json_round_trip(self):
        graph, _ = running_example()
        data = json.loads(emit_graph_json(graph))
        assert data["J"] == 15
        assert data["gamma"] == 7
        assert data["base_offsets"] == list(OFFSETS_15)

    def test_switch_lut_csv(self):
        graph, plan = running_example()
        text = emit_switch_lut_csv(switch_luts(graph, plan)["row_reads"])
        lines = text.splitlines()
        assert lines[0] == "slot,port0,port1"
        assert lines[1] == "0,0,1"
        assert lines[4] == "3,0,5"

    def test_memory_depth_is_two_cells_per_slot(self):
        # No file states the depth: gamma = 7 offsets make P = 4 patterns,
        # q = 3 folds make 12 slots and 24 cells, which the write LUT's
        # addresses fill.
        graph, plan = running_example()
        files = render_run_files(graph, plan, ("csv", "json"))
        assert "layout.json" not in files
        assert not any(name.startswith("fold_") for name in files)
        patterns = -(-json.loads(files["graph.json"])["gamma"] // 2)
        slots = patterns * json.loads(files["plan.json"])["q"]
        rows = files["write_lut_row.csv"].splitlines()[1:]
        assert {int(row.rsplit(",", 1)[1]) for row in rows} == set(range(2 * slots))
        assert slots == 12

    def test_write_lut_csv(self):
        # Slot 0 writes address 0 from all five units on port 0; on port 1
        # units 0-3 write address 18 and unit 4 address 20.  The 120 writes
        # are 36 runs.
        graph, plan = running_example()
        text = emit_write_lut_csv(write_schedule(graph, plan, "row"))
        lines = text.splitlines()
        assert lines[0] == "slot,pmu,units,port,address"
        assert lines[1:4] == ["0,0,5,0,0", "0,0,4,1,18", "0,4,1,1,20"]
        assert len(lines) == 1 + 36
        assert len(write_lut_writes(text)) == 120


def write_lut_writes(text):
    """The writes of a write LUT's runs, as (slot, pmu, port, address)
    tuples in file order."""
    header, *lines = text.splitlines()
    assert header == "slot,pmu,units,port,address"
    return [
        (slot, pmu, port, address)
        for slot, first, units, port, address in (map(int, line.split(",")) for line in lines)
        for pmu in range(first, first + units)
    ]


def trace_runs(text):
    """The rows of an access trace below its header, as (cycle, pmu, units,
    port, address, rw) tuples."""
    header, *lines = text.splitlines()
    assert header == "cycle,pmu,units,port,address,rw"
    return [(*map(int, line.split(",")[:5]), line.split(",")[5]) for line in lines]


def expand_runs(text):
    """The accesses of an access trace's runs, as (cycle, pmu, port,
    address, rw) tuples in file order."""
    return [
        (cycle, pmu, port, address, rw)
        for cycle, first, units, port, address, rw in trace_runs(text)
        for pmu in range(first, first + units)
    ]


class TestAccessTrace:
    def make(self, pmu_side, **kwargs):
        graph, plan = running_example(**kwargs)
        timing = full_timing(graph, plan)
        sequences = {
            s: generate_folded_sequence(graph, plan, s) for s in ("row", "col")
        }
        schedules = {s: write_schedule(graph, plan, s) for s in ("row", "col")}
        text = emit_access_trace(pmu_side, plan, timing, sequences, schedules)
        return graph, plan, timing, text

    def test_header_and_census(self):
        graph, plan, timing, text = self.make("row")
        rows = expand_runs(text)
        reads = [r for r in rows if r[4] == "R"]
        writes = [r for r in rows if r[4] == "W"]
        assert len(reads) == 15 * 7
        assert len(writes) == 15 * 8
        # Each slot reads all five memories on each of its ports, one run a
        # port: two in slots 0-8, one in the dummy-padded slots 9-11.
        read_runs = [r for r in trace_runs(text) if r[5] == "R"]
        assert len(read_runs) == 9 * 2 + 3
        assert read_runs[:2] == [(24, 0, 5, 0, 0, "R"), (24, 0, 5, 1, 1, "R")]

    def test_write_then_read_cycles(self):
        graph, plan, timing, text = self.make("row")
        rows = expand_runs(text)
        write_cycles = {r[0] for r in rows if r[4] == "W"}
        read_cycles = {r[0] for r in rows if r[4] == "R"}
        # Row memories: written during the row half, read during the col half.
        assert write_cycles == set(range(12, 24))
        assert read_cycles == set(range(24, 36))

    def test_addresses_within_capacity_and_counter_reads(self):
        for pmu_side in ("row", "col"):
            graph, plan, timing, text = self.make(pmu_side)
            rows = expand_runs(text)
            for r in rows:
                assert 0 <= r[3] < 24
            for r in rows:
                if r[4] == "R":
                    assert r[3] % 2 == r[2]

    def test_reads_cover_written_real_cells(self):
        graph, plan, timing, text = self.make("row")
        rows = expand_runs(text)
        read_cells = {(r[1], r[3]) for r in rows if r[4] == "R"}
        write_cells = {(r[1], r[3]) for r in rows if r[4] == "W"}
        assert read_cells <= write_cells
        reserved = {(m, a) for m in range(5) for a in (19, 21, 23)}
        assert write_cells - read_cells == reserved

    def test_no_port_conflicts_in_trace(self):
        for pmu_side in ("row", "col"):
            graph, plan, timing, text = self.make(pmu_side, design_option=2)
            seen = set()
            for cycle, pmu, port, _, _ in expand_runs(text):
                key = (cycle, pmu, port)
                assert key not in seen
                seen.add(key)


class TestHdl:
    def build(self, **kwargs):
        graph, plan = running_example(**kwargs)
        netlist = build_netlist(graph, plan)
        luts = switch_luts(graph, plan)
        schedules = {s: write_schedule(graph, plan, s) for s in ("row", "col")}
        return emit_hdl(plan, netlist, luts, schedules)

    def test_file_set(self):
        files = self.build()
        assert set(files) == {"folded_luts.vhd", "top.vhd"}

    def test_memory_unit_widths(self):
        files = self.build()
        text = files["top.vhd"]
        assert "      mu_id : IN STD_LOGIC_VECTOR(2 DOWNTO 0);\n" in text
        assert "      mu_id => STD_LOGIC_VECTOR(TO_UNSIGNED(m, 3)),\n" in text

    def test_switch_has_lut_constants(self):
        files = self.build()
        text = files["folded_luts.vhd"]
        assert "  CONSTANT lut_row_reads_port0 : integer_rom(0 TO 3) := (\n" in text
        assert "  CONSTANT lut_row_reads_port1 : integer_rom(0 TO 3) := (\n" in text
        assert "_out_port" not in text and "_in_port" not in text

    def test_write_lut_constant_is_the_csv_address_column(self):
        # The ROM holds the runs' addresses expanded, unit by unit, each
        # unit's in slot and port order.
        graph, plan = running_example()
        files = render_run_files(graph, plan)
        writes = sorted(write_lut_writes(files["write_lut_col.csv"]), key=lambda w: (w[1], w[0], w[2]))
        assert len(writes) == 120
        body = re.search(
            r"CONSTANT write_lut_col : integer_rom\(0 TO 119\) := \((.*?)\);",
            files["hdl/folded_luts.vhd"],
            re.DOTALL,
        )[1]
        assert [int(v) for v in body.split(",")] == [address for *_, address in writes]

    def test_top_generate_count(self):
        # One FOR GENERATE over the 5 units per side and one per instance,
        # whichever the unit count.
        files = self.build()
        assert re.findall(r"^  (\w+) : FOR m IN 0 TO 4 GENERATE$", files["top.vhd"], re.M) == [
            "row_units", "col_units", "row_reads", "col_reads"
        ]
        assert files["top.vhd"].count(" GENERATE\n") == 4

    def test_self_check_passes(self):
        files = self.build()
        assert check_hdl(files) == []

    def test_self_check_catches_unbalanced_entity(self):
        files = self.build()
        files["top.vhd"] = files["top.vhd"].replace("END folded_top;", "")
        assert check_hdl(files) == ["top.vhd: entity folded_top has no matching end"]

    def test_self_check_catches_unbalanced_package(self):
        files = self.build()
        files["folded_luts.vhd"] = files["folded_luts.vhd"].replace("END folded_luts;", "")
        assert check_hdl(files) == [
            "folded_luts.vhd: package folded_luts has no matching end"
        ]

    def test_self_check_catches_missing_component(self):
        files = self.build()
        files["top.vhd"] = files["top.vhd"].replace(
            "COMPONENT processing_unit IS", "COMPONENT processing_core IS"
        )
        problems = check_hdl(files)
        assert "top.vhd: instance ppu references missing component processing_unit" in problems

    def test_self_check_catches_signal_used_only_as_prefix(self):
        files = self.build()
        declaration = "  SIGNAL row_write : word_array(0 TO 4, 0 TO 1);\n"
        assert declaration in files["top.vhd"]
        files["top.vhd"] = files["top.vhd"].replace(
            declaration,
            "  SIGNAL row_writ : word_array(0 TO 4, 0 TO 1);\n" + declaration,
        )
        assert check_hdl(files) == [
            "top.vhd: signal row_writ declared but never used"
        ]

    def test_self_check_accepts_signal_used_once(self):
        files = self.build()
        files["top.vhd"] = (
            files["top.vhd"]
            .replace(
                "BEGIN\n",
                "  SIGNAL spare_0 : STD_LOGIC_VECTOR(7 DOWNTO 0);\nBEGIN\n",
            )
            .replace("END structural;", "  spare_0 <= row_write(0, 0);\nEND structural;")
        )
        assert check_hdl(files) == []

    @pytest.mark.parametrize("label", ["row_units", "col_reads"])
    def test_self_check_catches_generate_without_its_end(self, label):
        files = self.build()
        end = f"  END GENERATE {label};\n"
        assert end in files["top.vhd"]
        files["top.vhd"] = files["top.vhd"].replace(end, "")
        assert check_hdl(files) == [f"top.vhd: generate {label} has no matching end"]

    def test_single_unit_architecture(self):
        files = self.build(q=15)
        assert "      mu_id : IN STD_LOGIC_VECTOR(0 DOWNTO 0);\n" in files["top.vhd"]
        assert check_hdl(files) == []


_COMPONENT_RE = re.compile(r"COMPONENT (\w+) IS\n(.*?)\n\s*END COMPONENT;", re.DOTALL)
_PORT_RE = re.compile(
    r"^\s*(\w+) : (IN|OUT) STD_LOGIC(?:_VECTOR\((\d+) DOWNTO 0\))?;?$", re.MULTILINE
)
_PORT_MAP_RE = re.compile(r"^ +(\w+) : (\w+) PORT MAP \((.*?)\);", re.MULTILINE | re.DOTALL)


def hdl_interfaces(text):
    """Component name -> [(port, mode, width)] of every COMPONENT
    declaration in top.vhd's ``text``."""
    return {
        name: [
            (port, mode, int(high) + 1 if high else 1)
            for port, mode, high in _PORT_RE.findall(body)
        ]
        for name, body in _COMPONENT_RE.findall(text)
    }


def pg_design(geometry, q):
    graph = build_pg_graph(PgParams(*geometry))
    return graph, FoldPlan.for_graph(graph, q)


class TestHdlInterfaces:
    """hdl/ holds the ROM package and a structural top.vhd, which binds
    every port of each declared component in each instance, for designs of
    1 to 20 units per side and 4 to 11 switch ports."""

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

    def test_only_roms_and_structure(self, hdl):
        assert set(hdl) == {"folded_luts.vhd", "top.vhd"}
        for text in hdl.values():
            for word in ("ARCHITECTURE behavioral", "PROCESS", "rw0", "rw1"):
                assert word not in text

    def test_instances_bind_every_component_port_in_order(self, hdl):
        components = hdl_interfaces(hdl["top.vhd"])
        instances = _PORT_MAP_RE.findall(hdl["top.vhd"])
        assert {component for _, component, _ in instances} == set(components)
        for ports in components.values():
            assert ports[:3] == [(c, "IN", 1) for c in ("clock", "reset", "enable")]
        for label, component, body in instances:
            formals = re.findall(r"(\w+) =>", body)
            assert formals == [port for port, _, _ in components[component]], label

    def test_two_digit_switch_ports_align(self):
        graph, plan = pg_design((3, 3, 1), 2)
        top = render_run_files(graph, plan, ("hdl",))["hdl/top.vhd"]
        names = [port for port, _, _ in hdl_interfaces(top)["switch_row_reads_in"]]
        assert names[-3:] == ["in10", "out0", "out1"]
        assert "      in9 : IN STD_LOGIC_VECTOR(7 DOWNTO 0);\n" in top
        assert "      in10 : IN STD_LOGIC_VECTOR(7 DOWNTO 0);\n" in top
        assert "      in10 => row_reads_w((m + 18) MOD 20, 10),\n" in top


class TestRunDirectory:
    def test_contents_and_manifest(self, tmp_path):
        graph, plan = running_example()
        manifest = write_run_directory(tmp_path / "run", graph, plan)
        names = set(manifest["files"])
        assert names == {
            "graph.json",
            "plan.json",
            "netlist.json",
            "timing.json",
            "write_lut_row.csv",
            "write_lut_col.csv",
            "access_trace_row.csv",
            "access_trace_col.csv",
            "lut_row_reads.csv",
            "lut_col_reads.csv",
            "hdl/folded_luts.vhd",
            "hdl/top.vhd",
        }
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


class TestColumnWritersMatchObjectViews:
    """The writers read the write runs and the folded patterns
    arithmetically; each must write what the per-write and access-dict
    oracles of the same design give."""

    @settings(max_examples=80, deadline=None)
    @given(render_designs())
    def test_every_writer_matches_its_oracle(self, design):
        graph, plan = design
        for side in ("row", "col"):
            # The oracle's writes, run-length encoded: by slot, port and
            # unit, a run per stretch of units writing one address.
            writes = sorted(oracle_writes(graph, plan, side), key=lambda w: (w.slot, w.port, w.pmu))
            lut_rows = [["slot", "pmu", "units", "port", "address"]]
            for w in writes:
                last = lut_rows[-1]
                if last[0] == w.slot and last[3] == w.port and last[4] == w.address:
                    last[2] += 1
                else:
                    lut_rows.append([w.slot, w.pmu, 1, w.port, w.address])
            assert emit_write_lut_csv(write_schedule(graph, plan, side)) == csv_text(lut_rows)

    @settings(max_examples=80, deadline=None)
    @given(render_designs())
    def test_access_trace_runs_are_the_oracle_accesses(self, design):
        # Expanding the runs gives the accesses of the per-unit views, each
        # once; the rows are maximal runs in (cycle, port, address, rw,
        # pmu) order.
        graph, plan = design
        sides = ("row", "col")
        sequences = {s: generate_folded_sequence(graph, plan, s) for s in sides}
        schedules = {s: write_schedule(graph, plan, s) for s in sides}
        timing = full_timing(graph, plan)
        for side in sides:
            reader = other_side(side)
            read_base = 0 if reader == "row" else timing.side_span
            write_base = 0 if side == "row" else timing.side_span
            trace = []
            for slot in range(sequences[reader].slot_count):
                cycle = read_base + timing.read_cycles[slot]
                for access in accesses(sequences[reader], slot):
                    if access["lpu"] >= graph.real_order:
                        continue
                    p0, p1 = access["pmus"]
                    trace.append((cycle, p0, 0, 2 * slot, "R"))
                    if p1 is not None:
                        trace.append((cycle, p1, 1, 2 * slot + 1, "R"))
            trace += [
                (write_base + timing.write_cycles[w.slot], w.pmu, w.port, w.address, "W")
                for w in oracle_writes(graph, plan, side)
                if w.producer < graph.real_order
            ]
            text = emit_access_trace(side, plan, timing, sequences, schedules)
            assert sorted(expand_runs(text)) == sorted(trace)
            rows = trace_runs(text)
            assert all(units >= 1 for _, _, units, _, _, _ in rows)

            def order(row):
                cycle, pmu, _, port, address, rw = row
                return cycle, port, address, rw, pmu

            assert rows == sorted(rows, key=order)
            for a, b in zip(rows, rows[1:]):
                merges = order(a)[:4] == order(b)[:4] and a[1] + a[2] == b[1]
                assert not merges, (a, b)
