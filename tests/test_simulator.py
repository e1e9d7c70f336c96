"""File-driven simulator checks: conflict-free replay, token delivery,
census and utilization goldens, throughput bound, fault injection."""

import csv
import io
import json
import random
import re
import shutil
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfold import cli, simulator
from pgfold.circulant import CirculantBipartiteGraph, expand_circulant
from pgfold.cli import main
from pgfold.emit import emit_manifest_json, render_run_files, write_run_directory
from pgfold.folding import FoldPlan, generate_folded_sequence
from pgfold.projective import PgParams, build_pg_graph
from pgfold.simulator import (
    SimulationStructureError,
    check_dataflow_equivalence,
    measure_throughput,
    simulate,
    summarize,
)

from .test_schedule import render_designs

OFFSETS_15 = (0, 1, 2, 4, 5, 8, 10)
FANO_OFFSETS = (0, 1, 3)
OFFSETS_13 = (0, 1, 3, 9)

FLAT = ("csv", "json")


def build_run(out_dir, order, offsets, q, **plan_kwargs):
    graph = CirculantBipartiteGraph.plain(order, offsets)
    plan = FoldPlan.for_graph(graph, q, **plan_kwargs)
    write_run_directory(out_dir, graph, plan, FLAT)
    return out_dir


def expanded_design(q):
    graph = expand_circulant(CirculantBipartiteGraph.plain(13, OFFSETS_13), 1)
    return graph, FoldPlan.for_graph(graph, q)


def build_expanded_run(out_dir, q):
    write_run_directory(out_dir, *expanded_design(q), FLAT)
    return out_dir


def rewrite_csv(run_dir, name, mutate):
    path = run_dir / name
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        fieldnames = reader.fieldnames
        rows = list(reader)
    mutate(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def rewrite_timing(run_dir, mutate):
    timing = json.loads((run_dir / "timing.json").read_text())
    mutate(timing)
    (run_dir / "timing.json").write_text(json.dumps(timing))
    return timing


def first_row_write(run_dir):
    """(pmu, port, slot) of the first row-side write the replay performs:
    the first unit of the first run, every producer of J=15 being real."""
    with (run_dir / "write_lut_row.csv").open(newline="", encoding="utf-8") as handle:
        run = next(csv.DictReader(handle))
    return int(run["pmu"]), int(run["port"]), int(run["slot"])


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "base"
    return build_run(out, 15, OFFSETS_15, 3)


@pytest.fixture
def scratch_run(base_run, tmp_path):
    out = tmp_path / "scratch"
    shutil.copytree(base_run, out)
    return out


class TestRunningExample:
    def test_clean_replay(self, base_run):
        report = simulate(base_run)
        assert report.ok
        assert report.conflicts == []
        assert report.misroutes == []
        assert report.file_mismatches == []

    def test_token_census_is_order_times_degree(self, base_run):
        report = simulate(base_run)
        assert report.real_tokens == {"row": 105, "col": 105}

    def test_unit_busy_ratio_is_full(self, base_run):
        report = simulate(base_run)
        assert report.ppu_busy == {"row": 60, "col": 60}
        assert report.ppu_busy_ratio("row") == 1.0
        assert report.ppu_busy_ratio("col") == 1.0

    def test_port_utilization_seven_eighths(self, base_run):
        # One of eight port-slots per memory pair idles during the
        # sentinel pattern.
        report = simulate(base_run)
        assert report.pmu_port_reads == {"row": 105, "col": 105}
        assert report.pmu_port_utilization("row") == pytest.approx(7 / 8)
        assert report.pmu_port_utilization("col") == pytest.approx(7 / 8)

    def test_measured_lengths_match_timing_file(self, base_run):
        report = simulate(base_run)
        timing = json.loads((base_run / "timing.json").read_text())
        assert report.measured_half == {
            "row": timing["half_length"],
            "col": timing["half_length"],
        }
        assert report.measured_half["row"] == 12
        assert report.measured_full == 2 * timing["side_span"] == 48

    def test_dataflow_equivalence(self, base_run):
        report = simulate(base_run)
        verdict = check_dataflow_equivalence(report, base_run)
        assert verdict == {"ok": True, "failures": []}

    def test_multiple_iterations(self, base_run):
        report = simulate(base_run, iterations=3)
        assert report.ok
        assert report.real_tokens == {"row": 315, "col": 315}
        assert check_dataflow_equivalence(report, base_run)["ok"]

    def test_summary_text(self, base_run):
        report = simulate(base_run)
        text = summarize(report)
        assert "status: pass" in text
        assert "measured half (row/col): 12/12" in text

    def test_report_serialization(self, base_run):
        data = simulate(base_run).to_json_dict()
        assert data["ok"] is True
        assert data["pmu_port_utilization"]["row"] == pytest.approx(7 / 8)
        assert data["measured_full"] == 48


class TestVariants:
    def test_design_option_2(self, tmp_path):
        run = build_run(tmp_path / "opt2", 15, OFFSETS_15, 3, design_option=2)
        report = simulate(run)
        assert report.ok
        assert report.pmu_port_utilization("row") == pytest.approx(7 / 8)
        assert check_dataflow_equivalence(report, run)["ok"]

    def test_writeback_level_with_slow_compute(self, tmp_path):
        run = build_run(
            tmp_path / "wb", 15, OFFSETS_15, 3, T=2, pipeline_level="writeback"
        )
        report = simulate(run)
        assert report.ok
        assert report.measured_half == {"row": 24, "col": 24}

    def test_graph_level_pipelining(self, tmp_path):
        run = build_run(
            tmp_path / "gl",
            15,
            OFFSETS_15,
            3,
            design_option=2,
            delta=2,
            pipeline_level="graph",
        )
        report = simulate(run)
        assert report.ok
        timing = json.loads((run / "timing.json").read_text())
        assert report.measured_half["row"] == timing["half_length"] == 16

    def test_unfolded_fano_plane(self, tmp_path):
        run = build_run(tmp_path / "fano1", 7, FANO_OFFSETS, 1)
        report = simulate(run)
        assert report.ok
        assert report.measured_half == {"row": 2, "col": 2}
        assert report.real_tokens == {"row": 21, "col": 21}
        assert report.pmu_port_utilization("row") == pytest.approx(3 / 4)
        assert check_dataflow_equivalence(report, run)["ok"]

    def test_fully_folded_fano_plane(self, tmp_path):
        run = build_run(tmp_path / "fano7", 7, FANO_OFFSETS, 7)
        report = simulate(run)
        assert report.ok
        assert report.real_tokens == {"row": 21, "col": 21}
        assert check_dataflow_equivalence(report, run)["ok"]

    def test_expanded_graph_census(self, tmp_path):
        run = build_expanded_run(tmp_path / "exp2", 2)
        report = simulate(run)
        assert report.ok
        assert report.real_tokens == {"row": 52, "col": 52}
        assert report.ppu_busy == {"row": 52, "col": 52}
        assert report.ppu_busy_ratio("row") == pytest.approx(13 / 14)
        assert check_dataflow_equivalence(report, run)["ok"]

    def test_expanded_graph_other_fold(self, tmp_path):
        run = build_expanded_run(tmp_path / "exp7", 7)
        report = simulate(run)
        assert report.ok
        assert report.real_tokens == {"row": 52, "col": 52}
        assert check_dataflow_equivalence(report, run)["ok"]


class TestThroughput:
    def test_fold_ratio_bounded_by_fold_factor(self, base_run, tmp_path):
        unfolded = build_run(tmp_path / "q1", 15, OFFSETS_15, 1)
        folded = simulate(base_run)
        flat = simulate(unfolded)
        result = measure_throughput(folded, flat, q=3)
        assert result["folded_cycles"] == 48
        assert result["unfolded_cycles"] == 16
        assert result["ratio"] == pytest.approx(3.0)
        assert result["ok"]


def with_families(files, edit):
    """``files`` with netlist.json's wire families edited in place by
    ``edit``, then written as the emitter writes them."""
    data = json.loads(files["netlist.json"])
    edit(data["wire_families"])
    return {**files, "netlist.json": json.dumps(data, indent=2, sort_keys=True) + "\n"}


def raised_offset(index):
    """An edit of the families that raises family ``index``'s folded offset
    by 1 mod the 5 units of J = 15."""

    def edit(families):
        families[index]["folded_offset"] = (families[index]["folded_offset"] + 1) % 5

    return edit


class TestWireFamilyTamper:
    """Every token travels the wires that netlist.json's families stand
    for, so a family that points elsewhere misroutes or collides.  The
    J = 15 families are col_reads ports 0-5, port 5 the extra one, then
    row_reads ports 0-4."""

    @pytest.mark.parametrize("index", range(11))
    def test_raised_folded_offset_fails_the_replay(self, render15, index):
        report = simulate(with_families(render15, raised_offset(index)))
        assert report.misroutes or report.conflicts
        assert not report.ok

    @pytest.mark.parametrize(
        "first, second",
        [(a, b) for low in (0, 6) for a in range(low, low + 5) for b in range(a + 1, low + 5)],
    )
    def test_swapped_ports_fail_the_replay(self, render15, first, second):
        def edit(families):
            a, b = families[first], families[second]
            assert a["instance"] == b["instance"]
            a["port"], b["port"] = b["port"], a["port"]

        report = simulate(with_families(render15, edit))
        assert report.misroutes or report.conflicts
        assert not report.ok

    def test_changed_offset_fails_simulate(self, scratch_run, capsys):
        path = scratch_run / "netlist.json"
        files = with_families({"netlist.json": path.read_text()}, raised_offset(6))
        path.write_text(files["netlist.json"])
        assert main(["simulate", "--out", str(scratch_run)]) == 1
        assert "misrouted token" in capsys.readouterr().out

    def test_dropped_family_names_the_missing_port(self, render15):
        # An instance's ports are [0, rho_hat), rho_hat its family count.
        with pytest.raises(
            SimulationStructureError,
            match=r"^netlist.json:row_reads: 4 wire families, but none of port 2$",
        ):
            simulate(with_families(render15, lambda families: families.pop(8)))

    def test_switch_code_without_a_family_names_the_missing_wire(self, render15):
        # Code 6 is past row_reads' invalid code 5: no family carries it.
        files = edited(render15, "lut_row_reads.csv", "\n1,2,4\n", "\n1,2,6\n")
        with pytest.raises(
            SimulationStructureError,
            match=r"^switch table references missing wire at row_reads out switch 0 port 6 \(pattern 1\)$",
        ):
            simulate(files)


# The J = 15 switch tables: (instance, invalid code, rows), as both bases
# of the fault table emit them.
SWITCH_TABLES_15 = [
    ("row_reads", 5, [(0, 1), (2, 4), (0, 3), (0, 5)]),
    ("col_reads", 6, [(0, 5), (2, 0), (1, 3), (4, 6)]),
]
SWITCH_BASES_15 = {
    "opt1": {},
    "opt2-graph": {"design_option": 2, "delta": 2, "pipeline_level": "graph"},
}


@pytest.fixture(scope="module")
def switch_renders():
    graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
    return {
        base: render_run_files(graph, FoldPlan.for_graph(graph, 3, **kwargs), FLAT)
        for base, kwargs in SWITCH_BASES_15.items()
    }


@pytest.mark.parametrize(
    "base, instance, slot, port, code",
    [
        pytest.param(base, instance, slot, port, code, id=f"{base}-{instance}-{slot}-port{port}-{code}")
        for base in SWITCH_BASES_15
        for instance, invalid, rows in SWITCH_TABLES_15
        for slot, row in enumerate(rows)
        for port in (0, 1)
        for code in range(invalid + 1)
        if code != row[port]
    ],
)
def test_changed_switch_code_fails_the_replay(switch_renders, base, instance, slot, port, code):
    # Both switch sets run the one table, so a changed code fails the
    # replay, unless it selects another free family of the same folded
    # offset: col_reads' extra port 5 carries offset 0, as port 0 does,
    # and slot 1 uses port 0 alone.
    files = switch_renders[base]
    name = f"lut_{instance}.csv"
    rows = [line.split(",") for line in files[name].splitlines()]
    rows[1 + slot][1 + port] = str(code)
    files = {**files, name: "".join(",".join(row) + "\n" for row in rows)}
    try:
        report = simulate(files)
        passed = report.ok and check_dataflow_equivalence(report, files)["ok"]
    except SimulationStructureError:
        passed = False
    assert passed == ((instance, slot, port, code) == ("col_reads", 1, 1, 5))


class TestFaultInjection:
    def test_swapped_switch_ports_misroute(self, scratch_run):
        def mutate(rows):
            rows[1]["port0"], rows[1]["port1"] = rows[1]["port1"], rows[1]["port0"]

        rewrite_csv(scratch_run, "lut_row_reads.csv", mutate)
        report = simulate(scratch_run)
        assert report.misroutes
        assert not report.ok
        verdict = check_dataflow_equivalence(report, scratch_run)
        assert not verdict["ok"]
        assert verdict["failures"]
        assert "FAIL" in summarize(report)

    def test_out_of_range_port_aborts_with_locus(self, scratch_run):
        def mutate(rows):
            rows[1]["port0"] = "99"

        rewrite_csv(scratch_run, "lut_row_reads.csv", mutate)
        with pytest.raises(SimulationStructureError, match="missing wire"):
            simulate(scratch_run)

    def test_repeated_port_code_is_a_conflict(self, scratch_run):
        def mutate(rows):
            rows[1]["port0"] = rows[1]["port1"]

        rewrite_csv(scratch_run, "lut_row_reads.csv", mutate)
        report = simulate(scratch_run)
        assert any("double" in c for c in report.conflicts)
        assert not report.ok

    def test_corrupted_write_port_collides(self, scratch_run):
        # A port-0 run moved to port 1 overlaps that port's runs.
        def mutate(rows):
            target = next(r for r in rows if r["port"] == "0")
            target["port"] = "1"

        rewrite_csv(scratch_run, "write_lut_row.csv", mutate)
        report = simulate(scratch_run)
        assert any("pmu port double access" in c for c in report.conflicts)

    def test_corrupted_write_address_breaks_delivery(self, scratch_run):
        def mutate(rows):
            target = rows[0]
            target["address"] = "0" if target["address"] != "0" else "2"

        rewrite_csv(scratch_run, "write_lut_row.csv", mutate)
        report = simulate(scratch_run)
        assert report.misroutes
        assert report.file_mismatches
        assert not check_dataflow_equivalence(report, scratch_run)["ok"]

    def test_address_past_two_cells_per_slot_aborts(self, scratch_run):
        def mutate(rows):
            rows[0]["address"] = "24"

        rewrite_csv(scratch_run, "write_lut_row.csv", mutate)
        with pytest.raises(SimulationStructureError, match=r"address 24 outside \[0, 24\)"):
            simulate(scratch_run)

    def test_edited_trace_file_detected(self, scratch_run):
        def mutate(rows):
            rows[0]["address"] = str((int(rows[0]["address"]) + 2) % 24)

        rewrite_csv(scratch_run, "access_trace_row.csv", mutate)
        report = simulate(scratch_run)
        assert report.file_mismatches
        assert "access_trace_row.csv" in report.file_mismatches[0]
        assert not report.ok

    def test_truncated_timing_rejected(self, scratch_run):
        timing = json.loads((scratch_run / "timing.json").read_text())
        timing["read_cycles"] = timing["read_cycles"][:-1]
        (scratch_run / "timing.json").write_text(json.dumps(timing))
        with pytest.raises(SimulationStructureError, match=r"^timing\.json: read_cycles has 11"):
            simulate(scratch_run)

    def test_truncated_write_timing_rejected(self, scratch_run):
        rewrite_timing(scratch_run, lambda timing: timing["write_cycles"].pop())
        with pytest.raises(SimulationStructureError, match=r"^timing\.json: write_cycles has 11"):
            simulate(scratch_run)

    def test_late_write_collides_with_next_half_read(self, scratch_run):
        # Slot 0 of the col half reads both ports of every row memory.
        pmu, port, slot = first_row_write(scratch_run)

        def mutate(timing):
            timing["write_cycles"][slot] = (
                timing["side_span"] + timing["read_cycles"][0]
            )

        timing = rewrite_timing(scratch_run, mutate)
        report = simulate(scratch_run, iterations=2)
        span = timing["side_span"]
        for cycle in (span, 3 * span):
            assert (
                f"pmu port double access: side row pmu {pmu} port {port} "
                f"cycle {cycle + timing['read_cycles'][0]}"
            ) in report.conflicts

    def test_read_before_half_base_collides_with_earlier_write(self, scratch_run):
        pmu, port, slot = first_row_write(scratch_run)

        def mutate(timing):
            timing["read_cycles"][0] = (
                timing["write_cycles"][slot] - timing["side_span"]
            )

        timing = rewrite_timing(scratch_run, mutate)
        assert timing["read_cycles"][0] < 0
        report = simulate(scratch_run, iterations=2)
        for base in (0, 2 * timing["side_span"]):
            assert (
                f"pmu port double access: side row pmu {pmu} port {port} "
                f"cycle {base + timing['write_cycles'][slot]}"
            ) in report.conflicts

    def test_late_write_collides_in_every_iteration(self, scratch_run):
        # Each iteration is replayed at its own cycles, so the row half's
        # late write meets the col half's first read at every odd half
        # boundary, not only in the iterations a shortcut would replay.
        pmu, port, slot = first_row_write(scratch_run)

        def mutate(timing):
            timing["write_cycles"][slot] = (
                timing["side_span"] + timing["read_cycles"][0]
            )

        timing = rewrite_timing(scratch_run, mutate)
        report = simulate(scratch_run, iterations=5)
        span = timing["side_span"]
        for i in range(5):
            assert (
                f"pmu port double access: side row pmu {pmu} port {port} "
                f"cycle {span * (2 * i + 1) + timing['read_cycles'][0]}"
            ) in report.conflicts

    def test_census_grows_with_every_iteration(self, base_run):
        once = simulate(base_run).real_tokens
        assert simulate(base_run, iterations=5).real_tokens == {
            side: 5 * count for side, count in once.items()
        }

    def test_missing_artifact_rejected(self, scratch_run):
        (scratch_run / "netlist.json").unlink()
        with pytest.raises(SimulationStructureError, match="missing artifact"):
            simulate(scratch_run)


class TestLoadErrors:
    """Table values the replay cannot index end in a structural error that
    names the file, the line (the header is line 1) and the field."""

    @pytest.mark.parametrize(
        "name, index, column, value, locus",
        [
            ("write_lut_row.csv", 0, "pmu", "5", "write_lut_row.csv:2:pmu 5 outside [0, 5)"),
            ("write_lut_col.csv", 2, "pmu", "-1", "write_lut_col.csv:4:pmu -1 outside [0, 5)"),
            ("write_lut_row.csv", 1, "port", "2", "write_lut_row.csv:3:port 2 outside [0, 2)"),
            ("write_lut_col.csv", 1, "port", "-1", "write_lut_col.csv:3:port -1 outside [0, 2)"),
            ("write_lut_row.csv", 0, "address", "-1", "write_lut_row.csv:2:address -1 outside [0, 24)"),
            ("write_lut_row.csv", 3, "slot", "12", "write_lut_row.csv:5:slot 12 outside [0, 12)"),
            ("write_lut_row.csv", 0, "units", "0", "write_lut_row.csv:2:units 0 outside [1, 6)"),
            ("write_lut_col.csv", 1, "units", "6", "write_lut_col.csv:3:units 6 outside [1, 6)"),
            ("write_lut_row.csv", 2, "units", "2", "write_lut_row.csv:4:units 2 outside [1, 2)"),
            ("lut_row_reads.csv", 3, "port1", "0", "lut_row_reads.csv:5:port1 code 0 selects rank 7"),
            ("lut_col_reads.csv", 3, "port1", "2", "lut_col_reads.csv:5:port1 code 2 selects rank 7"),
            ("write_lut_row.csv", 0, "address", "x", "write_lut_row.csv:2:address 'x' is not an integer"),
            ("lut_row_reads.csv", 0, "slot", "-1", "lut_row_reads.csv:2:slot -1 outside [0, 4)"),
            ("lut_col_reads.csv", 3, "slot", "4", "lut_col_reads.csv:5:slot 4 outside [0, 4)"),
            ("lut_row_reads.csv", 2, "slot", "0", "lut_row_reads.csv:4:slot 0 repeats line 2"),
        ],
    )
    def test_rejected_with_locus(self, scratch_run, capsys, name, index, column, value, locus):
        def mutate(rows):
            rows[index][column] = value

        rewrite_csv(scratch_run, name, mutate)
        with pytest.raises(SimulationStructureError) as caught:
            simulate(scratch_run)
        assert str(caught.value).startswith(locus)
        for argv in (["simulate"], ["verify"]):
            assert main([*argv, "--out", str(scratch_run)]) in (1, 2)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert locus in captured.out + captured.err

    @pytest.mark.parametrize(
        "name, path, value, locus",
        [
            # The J = 15 families: col_reads ports 0-5, port 5 the extra
            # one, then row_reads ports 0-4; 11 families in all.
            ("netlist.json", ("wire_families", 0), 3, "netlist.json:wire_families[0]: expected a JSON object, got int"),
            (
                "netlist.json",
                ("wire_families", 0, "instance"),
                "rows",
                "netlist.json:wire_families[0]:instance 'rows' is not one of row_reads, col_reads",
            ),
            ("netlist.json", ("wire_families", 2, "port"), "2", "netlist.json:wire_families[2]: port must be an integer"),
            ("netlist.json", ("wire_families", 6, "port"), 11, "netlist.json:wire_families[6]:port 11 outside [0, 11)"),
            ("netlist.json", ("wire_families", 6, "port"), -1, "netlist.json:wire_families[6]:port -1 outside [0, 11)"),
            ("netlist.json", ("wire_families", 6, "port"), 5, "netlist.json:row_reads: 5 wire families, but none of port 0"),
            ("netlist.json", ("wire_families", 5, "port"), 7, "netlist.json:col_reads: 6 wire families, but none of port 5"),
            (
                "netlist.json",
                ("wire_families", 0, "folded_offset"),
                5,
                "netlist.json:wire_families[0]:folded_offset 5 outside [0, 5)",
            ),
            (
                "netlist.json",
                ("wire_families", 7, "port"),
                0,
                "netlist.json:wire_families[7]:port 0 of row_reads repeats",
            ),
        ],
    )
    def test_json_entry_rejected_with_locus(self, scratch_run, capsys, name, path, value, locus):
        data = json.loads((scratch_run / name).read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        (scratch_run / name).write_text(json.dumps(data))
        with pytest.raises(SimulationStructureError) as caught:
            simulate(scratch_run)
        assert str(caught.value).startswith(locus)
        for argv in (["simulate"], ["verify"]):
            assert main([*argv, "--out", str(scratch_run)]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert locus in captured.out + captured.err

    def test_per_write_lut_of_an_older_run_lacks_the_units_column(self, scratch_run, capsys):
        # Runs written before the write LUTs were runs held one row per write.
        path = scratch_run / "write_lut_row.csv"
        path.write_text("pmu,index,slot,port,address,real,producer_real\n0,0,0,0,0,1,1\n")
        locus = "write_lut_row.csv:1:units column missing"
        with pytest.raises(SimulationStructureError, match=f"^{locus}$"):
            simulate(scratch_run)
        for argv in (["simulate"], ["verify"]):
            assert main([*argv, "--out", str(scratch_run)]) == 1
            captured = capsys.readouterr()
            assert locus in captured.out + captured.err

    @pytest.mark.parametrize(
        "key, value, locus",
        [
            ("real_J", 99, "graph.json: real_J 99 outside [2, 15]"),
            ("real_J", 1, "graph.json: real_J 1 outside [2, 15]"),
            ("real_base_offsets", [0, 1, 15], "graph.json:real_base_offsets[2]:offset 15 outside [0, 15)"),
            ("real_base_offsets", [-1], "graph.json:real_base_offsets[0]:offset -1 outside [0, 15)"),
            ("gamma", 8, "graph.json: gamma 8 is not the 7 base offsets"),
        ],
    )
    def test_real_graph_fields_out_of_range(self, scratch_run, capsys, key, value, locus):
        # The replay derives its real producers and edges from these.
        graph = json.loads((scratch_run / "graph.json").read_text())
        graph[key] = value
        (scratch_run / "graph.json").write_text(json.dumps(graph))
        with pytest.raises(SimulationStructureError, match=f"^{re.escape(locus)}$"):
            simulate(scratch_run)
        for argv in (["simulate"], ["verify"]):
            assert main([*argv, "--out", str(scratch_run)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert locus in captured.out + captured.err

    def test_switch_table_without_a_pattern_row(self, scratch_run):
        rewrite_csv(scratch_run, "lut_col_reads.csv", lambda rows: rows.pop(1))
        with pytest.raises(
            SimulationStructureError,
            match=r"^lut_col_reads.csv: slot 1 missing, one row per pattern of 4$",
        ):
            simulate(scratch_run)

    @pytest.mark.parametrize(
        "key, edit, count",
        [("read_cycles", "last dropped", 11), ("write_cycles", "first repeated", 13)],
    )
    def test_timing_list_counts_disagree_with_the_slots(self, scratch_run, capsys, key, edit, count):
        # gamma = 7 offsets make P = 4 patterns, so q = 3 folds make 12 slots.
        def mutate(timing):
            cycles = timing[key]
            timing[key] = cycles[:-1] if edit == "last dropped" else [cycles[0], *cycles]

        rewrite_timing(scratch_run, mutate)
        locus = f"timing.json: {key} has {count} entries, not P · q = 4 · 3 = 12"
        with pytest.raises(SimulationStructureError, match=f"^{re.escape(locus)}$"):
            simulate(scratch_run)
        for argv in (["simulate"], ["verify"]):
            assert main([*argv, "--out", str(scratch_run)]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert locus in captured.out + captured.err

    @pytest.mark.parametrize("option", [0, 3])
    def test_design_option_out_of_range(self, scratch_run, capsys, option):
        plan = json.loads((scratch_run / "plan.json").read_text())
        plan["design_option"] = option
        (scratch_run / "plan.json").write_text(json.dumps(plan))
        locus = f"plan.json: design_option must be 1 or 2, got {option}"
        with pytest.raises(SimulationStructureError, match=f"^{locus}$"):
            simulate(scratch_run)
        assert main(["simulate", "--out", str(scratch_run)]) == 1
        assert locus in capsys.readouterr().err
        # verify reads the plan before it replays, and rejects it there.
        assert main(["verify", "--out", str(scratch_run)]) == 1
        assert "design: FAIL (plan.json: design option must be 1 or 2)" in capsys.readouterr().out

    def test_nonpositive_fold_factor(self, scratch_run):
        plan = json.loads((scratch_run / "plan.json").read_text())
        plan["q"], plan["units_per_side"] = -3, -5  # still J = 15
        (scratch_run / "plan.json").write_text(json.dumps(plan))
        with pytest.raises(SimulationStructureError, match=r"^plan\.json: q must be positive, got -3$"):
            simulate(scratch_run)


class TestDesignOption:
    """The replay orders the slots by plan.json's design option."""

    @pytest.mark.parametrize("option", [1, 2])
    def test_flipped_option_loses_tokens(self, tmp_path, capsys, option):
        # J = 15 folded by 3 has P = 4 patterns and q = 3 folds, so the two
        # orders differ: the write LUTs and the switch tables address the
        # slots of one order, and the replay runs the other.
        graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
        run = tmp_path / "run"
        write_run_directory(run, graph, FoldPlan.for_graph(graph, 3, design_option=option), FLAT)
        flip_design_option(run)
        assert main(["simulate", "--out", str(run)]) == 1
        out = capsys.readouterr().out
        assert "dataflow: iteration 0:" in out and out.endswith("simulate: FAIL\n")
        assert main(["verify", "--out", str(run)]) == 1
        assert "verify: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("offsets, q", [(OFFSETS_15, 1), ((0, 1), 3)], ids=["q1", "P1"])
    def test_flip_is_the_same_design_for_one_fold_or_pattern(self, tmp_path, capsys, offsets, q):
        # With q = 1 or P = 1 both orders list the same slots, so no
        # failure is expected: the flipped run is the run of the other
        # option, file for file.  The graph (15, {0, 1}) has P = 1 pattern.
        graph = CirculantBipartiteGraph.plain(15, offsets)
        run = tmp_path / "run"
        write_run_directory(run, graph, FoldPlan.for_graph(graph, q), FLAT)
        flip_design_option(run)
        assert main(["verify", "--out", str(run)]) == 0
        assert capsys.readouterr().out.endswith("verify: PASS\n")

    @pytest.mark.parametrize("q", [1, 3, 5, 15])
    @pytest.mark.parametrize("option", [1, 2])
    def test_derived_slots_are_the_folded_sequences(self, option, q):
        graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
        plan = FoldPlan.for_graph(graph, q, design_option=option)
        slots = simulator._load(render_run_files(graph, plan, FLAT)).slots
        for side in ("row", "col"):
            assert tuple(slots) == generate_folded_sequence(graph, plan, side).slots


def flip_design_option(run_dir):
    """Swap plan.json's design option 1 <-> 2 and rewrite the manifest to match."""
    path = run_dir / "plan.json"
    plan = json.loads(path.read_text())
    plan["design_option"] = 3 - plan["design_option"]
    path.write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n")
    files = {
        name: (run_dir / name).read_text()
        for name in json.loads((run_dir / "manifest.json").read_text())["files"]
    }
    (run_dir / "manifest.json").write_text(emit_manifest_json(files))


def test_run_written_with_fold_files_replays_but_fails_its_manifest(tmp_path, capsys):
    # run_with_fold_files/ was written by pgfold while runs still held
    # fold_row.json and fold_col.json, and graph.json a flag for the
    # sentinel of the odd degree: J = 15 by OFFSETS_15 folded by 3, CSV
    # and JSON, its manifest listing both fold files.  The replay ignores
    # the fold files and the flag; verify renders graph.json one line
    # shorter, every other file as stored, and finds the two extra.
    run = tmp_path / "run"
    shutil.copytree(Path(__file__).with_name("run_with_fold_files"), run)
    assert {"fold_row.json", "fold_col.json"} <= json.loads((run / "manifest.json").read_text())["files"].keys()
    assert simulate(run).ok
    assert main(["simulate", "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["verify", "--out", str(run)]) == 1
    out = capsys.readouterr().out
    assert "re-derivation: FAIL (differs: ['graph.json'])\n" in out
    assert "manifest: FAIL (['fold_col.json unexpected', 'fold_row.json unexpected'])\n" in out


class TestFileSource:
    """The replay reads a ``name → text`` mapping; a run directory is one."""

    @pytest.mark.parametrize(
        "design, iterations",
        [
            ("15-option1", 1),
            ("15-option2-graph", 3),
            ("13-expanded-to-14", 1),
        ],
    )
    def test_render_replays_like_its_directory(self, tmp_path, design, iterations):
        if design == "13-expanded-to-14":
            graph, plan = expanded_design(2)
        else:
            graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
            options = {"design_option": 2, "delta": 2, "pipeline_level": "graph"}
            plan = FoldPlan.for_graph(graph, 3, **(options if "graph" in design else {}))
        write_run_directory(tmp_path / "run", graph, plan, FLAT)
        render = render_run_files(graph, plan, FLAT)
        stored = simulate(tmp_path / "run", iterations)
        rendered = simulate(render, iterations)
        assert stored.ok
        assert rendered.to_json_dict() == stored.to_json_dict()
        assert (rendered.deliveries, rendered.lost) == (stored.deliveries, stored.lost)
        assert check_dataflow_equivalence(rendered, render) == {"ok": True, "failures": []}

    @settings(max_examples=100, deadline=None)
    @given(render_designs())
    def test_random_design_replays_end_to_end(self, design):
        render = LookedUp(render_run_files(*design))
        keys = {}  # JSON file -> the top-level keys looked up in it
        parse = simulator._parse_json

        def parse_recorded(name, text):
            data = parse(name, text)
            return LookedUp(data, keys.setdefault(name, set())) if isinstance(data, dict) else data

        with mock.patch.object(simulator, "_parse_json", parse_recorded):
            report = simulate(render, 2)
            assert report.ok, summarize(report)
            assert check_dataflow_equivalence(report, render) == {"ok": True, "failures": []}
        # Every emitted file is read by the replay or the dataflow check.
        assert render.keys() - render.names == set()
        # And every top-level field of a JSON file but these.
        unread = {
            (name.removesuffix(".json"), key)
            for name in render
            if name.endswith(".json")
            for key in json.loads(render[name]).keys() - keys[name]
        }
        assert unread == UNREAD_JSON_FIELDS


class LookedUp(dict):
    """A mapping that records the keys looked up in it: the names of the
    files of a render, or the fields of a parsed JSON object."""

    def __init__(self, data, names=None):
        super().__init__(data)
        self.names = set() if names is None else names

    def __getitem__(self, name):
        self.names.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.names.add(name)
        return super().get(name, default)


# The top-level fields of the emitted JSON files that neither the replay
# nor the dataflow check looks up.  The replay takes its timing from
# timing.json's cycle lists, not from plan.json's T and delta.
UNREAD_JSON_FIELDS = {
    *((name, "format_version") for name in ("graph", "plan", "netlist", "timing")),
    *(("plan", key) for key in ("T", "delta")),
    ("timing", "half_length"),
}


@pytest.fixture(scope="module")
def render15():
    graph = CirculantBipartiteGraph.plain(15, OFFSETS_15)
    return render_run_files(graph, FoldPlan.for_graph(graph, 3), FLAT)


# (file, path to the field, the kind of value it holds)
JSON_FIELDS = [
    ("graph.json", ("J",), "int"),
    ("graph.json", ("base_offsets",), "ints"),
    ("graph.json", ("gamma",), "int"),
    ("graph.json", ("real_J",), "int"),
    ("graph.json", ("real_base_offsets",), "ints"),
    ("plan.json", ("q",), "int"),
    ("plan.json", ("units_per_side",), "int"),
    ("plan.json", ("design_option",), "int"),
    ("plan.json", ("pipeline_level",), "level"),
    ("timing.json", ("read_cycles",), "ints"),
    ("timing.json", ("write_cycles",), "ints"),
    ("timing.json", ("side_span",), "int"),
    ("netlist.json", ("wire_families",), "list"),
    ("netlist.json", ("wire_families", 1, "instance"), "instance"),
    *(("netlist.json", ("wire_families", 1, key), "int") for key in ("port", "folded_offset")),
]
# A value of the right type for its field is not a type error.
RIGHT_TYPE = {"ints": [[1]], "list": [[1]], "str": ["x"]}


@pytest.mark.parametrize(
    "name, path, value",
    [
        pytest.param(name, path, value, id=f"{name}:{'.'.join(map(str, path))}={value!r}")
        for name, path, kind in JSON_FIELDS
        for value in ("x", True, None, [1])
        if value not in RIGHT_TYPE.get(kind, [])
    ],
)
def test_wrongly_typed_json_field_names_file_and_field(render15, name, path, value):
    data = json.loads(render15[name])
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    files = {**render15, name: json.dumps(data)}
    with pytest.raises(SimulationStructureError) as caught:
        simulate(files)
    message = str(caught.value)
    assert message.startswith(name)
    assert str(path[-1]) in message
    if name == "graph.json":
        with pytest.raises(SimulationStructureError, match=f"^graph.json: {path[-1]}"):
            check_dataflow_equivalence(simulate(render15), files)


def test_nonpositive_order_names_the_field(render15):
    graph = json.loads(render15["graph.json"])
    graph["J"] = 0
    files = {**render15, "graph.json": json.dumps(graph)}
    for replay in (simulate, lambda files: check_dataflow_equivalence(simulate(render15), files)):
        with pytest.raises(SimulationStructureError, match="^graph.json: J must be positive, got 0"):
            replay(files)


def test_order_disagreeing_with_plan_names_both_files(render15):
    graph = json.loads(render15["graph.json"])
    graph["J"] = 1000000
    files = {**render15, "graph.json": json.dumps(graph)}
    with pytest.raises(
        SimulationStructureError,
        match=r"^graph.json: J 1000000 disagrees with plan.json: q × units_per_side = 3 × 5 = 15$",
    ):
        simulate(files)


def test_sizes_past_64_bit_event_codes_name_the_files(render15):
    # The replay holds each write, token, delivery and trace row as a signed
    # 64-bit integer; sizes that do not fit are a structural error.
    data = json.loads(render15["timing.json"])
    data["side_span"] = 10**20
    with pytest.raises(
        SimulationStructureError,
        match=r"^timing.json: cycles up to \d+, 12 slots and J 15 are too large",
    ):
        simulate({**render15, "timing.json": json.dumps(data)})


ROM_FILE = "hdl/folded_luts.vhd"
ROM_NAMES = [
    "write_lut_row",
    "write_lut_col",
    *(f"lut_{instance}_port{b}" for instance in ("row_reads", "col_reads") for b in (0, 1)),
]
_ROM_RE = re.compile(r"  CONSTANT (\w+) : integer_rom\(0 TO (\d+)\) := \(([^;]*)\);\n")


def rom_values(text, name):
    """The integers of ROM array ``name``, in order."""
    body = next(m[3] for m in _ROM_RE.finditer(text) if m[1] == name)
    return [int(v) for v in body.removeprefix("0 =>").split(",")]


def with_rom(text, name, values):
    """``text`` with ROM array ``name`` holding ``values`` under its old
    declared range, or without the array for ``values`` None."""

    def edit(match):
        if match[1] != name:
            return match[0]
        if values is None:
            return ""
        return f"  CONSTANT {name} : integer_rom(0 TO {match[2]}) := ({', '.join(map(str, values))});\n"

    return _ROM_RE.sub(edit, text)


def csv_twin(name):
    """The LUT file column a ROM array mirrors, as mismatches name it."""
    if name.startswith("write_lut_"):
        return f"{name}.csv address"
    table, _, column = name.rpartition("_")
    return f"{table}.csv {column}"


@pytest.fixture(scope="module")
def hdl_renders():
    """In-memory renders with HDL: J=15 folded by 3, and J=40 folded by 2,
    whose switches have 11 ports."""
    graph15 = CirculantBipartiteGraph.plain(15, OFFSETS_15)
    graph40 = build_pg_graph(PgParams(3, 3, 1))
    renders = {}
    for design, graph, q in (("J15-q3", graph15, 3), ("J40-q2", graph40, 2)):
        files = render_run_files(graph, FoldPlan.for_graph(graph, q))
        renders[design] = {**files, "manifest.json": emit_manifest_json(files)}
    return renders


ROM_CASES = [
    pytest.param(design, name, id=f"{design}-{name}")
    for design in ("J15-q3", "J40-q2")
    for name in ROM_NAMES
]


class TestRomPackage:
    """The replay reads every integer of hdl/folded_luts.vhd and compares
    it with the LUT file column the array is named after."""

    def test_clean_renders_pass(self, hdl_renders):
        for files in hdl_renders.values():
            assert set(re.findall(r"CONSTANT (\w+)", files[ROM_FILE])) == set(ROM_NAMES)
            report = simulate(files)
            assert report.ok, summarize(report)

    def test_one_entry_arrays_are_read(self):
        # Degree 2 makes one pattern: each switch array is "(0 => code)".
        graph = CirculantBipartiteGraph.plain(4, (0, 1))
        files = render_run_files(graph, FoldPlan.for_graph(graph, 2))
        declaration = "  CONSTANT lut_col_reads_port1 : integer_rom(0 TO 0) := (0 => 1);\n"
        assert declaration in files[ROM_FILE]
        assert simulate(files).ok
        files[ROM_FILE] = files[ROM_FILE].replace(declaration, declaration.replace("=> 1", "=> 0"))
        assert simulate(files).file_mismatches == [
            f"{ROM_FILE}: lut_col_reads_port1(0) = 0, but lut_col_reads.csv port1(0) = 1 "
            "(1 of 1 values differ)"
        ]

    @pytest.mark.parametrize("design, name", ROM_CASES)
    def test_changed_integer_fails_with_its_locus(self, hdl_renders, design, name):
        files = dict(hdl_renders[design])
        values = rom_values(files[ROM_FILE], name)
        index = len(values) // 2
        old = values[index]
        values[index] += 1
        files[ROM_FILE] = with_rom(files[ROM_FILE], name, values)
        files["manifest.json"] = emit_manifest_json(
            {key: text for key, text in files.items() if key != "manifest.json"}
        )
        report = simulate(files)
        assert report.file_mismatches == [
            f"{ROM_FILE}: {name}({index}) = {old + 1}, but {csv_twin(name)}({index}) = {old} "
            f"(1 of {len(values)} values differ)"
        ]
        assert not (report.conflicts or report.misroutes)
        passed, checks = cli._verify_files(files, "the mutant", 1)
        assert not passed
        assert any(line.startswith("simulation: FAIL") for line in checks), checks

    @pytest.mark.parametrize(
        "new, value",
        [("\n0,4,1,1,22\n", 22), ("\n", -1)],
        ids=["run's address changed", "run dropped"],
    )
    def test_write_rom_is_compared_with_the_runs_expanded(self, hdl_renders, new, value):
        # Unit 4 writes address 20 on port 1 of slot 0: entry (4 · 12 + 0)
        # · 2 + 1 of the ROM, which holds each unit's 12 slots in turn.  A
        # unit that no run covers is compared as -1.
        files = edited(hdl_renders["J15-q3"], "write_lut_row.csv", "\n0,4,1,1,20\n", new)
        assert simulate(files).file_mismatches[0] == (
            f"{ROM_FILE}: write_lut_row(97) = 20, but write_lut_row.csv address(97) = {value} "
            "(1 of 120 values differ)"
        )

    def test_array_shorter_than_its_column_is_a_mismatch(self, hdl_renders):
        files = dict(hdl_renders["J15-q3"])
        values = rom_values(files[ROM_FILE], "write_lut_row")
        files[ROM_FILE] = with_rom(files[ROM_FILE], "write_lut_row", values[:-1]).replace(
            "write_lut_row : integer_rom(0 TO 119)", "write_lut_row : integer_rom(0 TO 118)"
        )
        assert simulate(files).file_mismatches == [
            f"{ROM_FILE}: write_lut_row holds 119 values, write_lut_row.csv address 120"
        ]

    @pytest.mark.parametrize("design, name", ROM_CASES)
    @pytest.mark.parametrize("edit", ["integer dropped", "constant missing"])
    def test_unreadable_array_exits_1_naming_it(
        self, hdl_renders, tmp_path, capsys, design, name, edit
    ):
        files = dict(hdl_renders[design])
        values = rom_values(files[ROM_FILE], name)
        if edit == "integer dropped":
            files[ROM_FILE] = with_rom(files[ROM_FILE], name, values[:-1])
            locus = f"{ROM_FILE}: constant {name} declares {len(values)} values but holds {len(values) - 1}"
        else:
            files[ROM_FILE] = with_rom(files[ROM_FILE], name, None)
            locus = f"{ROM_FILE}: constant {name} missing"
        with pytest.raises(SimulationStructureError, match=f"^{re.escape(locus)}$"):
            simulate(files)
        run = tmp_path / "run"
        for file_name, text in files.items():
            (run / file_name).parent.mkdir(parents=True, exist_ok=True)
            (run / file_name).write_text(text, encoding="utf-8")
        for argv in (["simulate"], ["verify"]):
            assert main([*argv, "--out", str(run)]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert locus in captured.out + captured.err

    @pytest.mark.parametrize("design", ["J15-q3", "J40-q2"])
    def test_missing_package_beside_top_exits_1(self, hdl_renders, tmp_path, capsys, design):
        run = tmp_path / "run"
        for file_name, text in hdl_renders[design].items():
            if file_name != ROM_FILE:
                (run / file_name).parent.mkdir(parents=True, exist_ok=True)
                (run / file_name).write_text(text, encoding="utf-8")
        locus = f"{ROM_FILE}: absent, but the run has hdl/ files"
        for argv in (["simulate"], ["verify"]):
            assert main([*argv, "--out", str(run)]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert locus in captured.out + captured.err

    @pytest.mark.parametrize(
        "edit, locus",
        [
            (("integer_rom(0 TO 3) := (\n    0, 2,", "integer_rom(0 TO 3) := (\n    0, x,"),
             "constant lut_row_reads_port0(1) 'x' is not an integer"),
            (("CONSTANT write_lut_col : integer_rom(0 TO 119)", "CONSTANT write_lut_col : rom(0 TO 119)"),
             "constant write_lut_col is not an integer_rom(0 TO n) aggregate"),
            (("END folded_luts;", "  CONSTANT spare : integer_rom(0 TO 0) := (0 => 1);\nEND folded_luts;"),
             "constant spare is not one LUT of the run"),
        ],
        ids=["not an integer", "not an integer_rom", "unknown array"],
    )
    def test_unparsable_package_names_the_array(self, hdl_renders, edit, locus):
        files = dict(hdl_renders["J15-q3"])
        assert edit[0] in files[ROM_FILE]
        files[ROM_FILE] = files[ROM_FILE].replace(edit[0], edit[1], 1)
        with pytest.raises(SimulationStructureError, match=f"^{re.escape(ROM_FILE)}: {re.escape(locus)}$"):
            simulate(files)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_byte_edit_ends_in_a_report_or_a_locus(self, hdl_renders, data):
        files = dict(hdl_renders["J15-q3"])
        text = files[ROM_FILE]
        index = data.draw(st.integers(0, len(text) - 1))
        byte = data.draw(st.sampled_from(sorted(set("0123456789-,:;() \n=>xCONSTANT"))))
        files[ROM_FILE] = text[:index] + byte + text[index + 1 :]
        try:
            simulate(files)
        except SimulationStructureError as exc:
            assert str(exc).startswith(ROM_FILE)


TOP_FILE = "hdl/top.vhd"
_IN_WIRE_RE = re.compile(r"      in(\d+) => (\w+)_w\(\(m \+ (\d+)\) MOD (\d+), \d+\),\n")


def in_wires(text, instance):
    """(port, folded offset, F, the line) of each in switch wire of the
    ``instance`` generate of top.vhd's ``text``."""
    return [
        (int(j), int(delta), int(units), match[0])
        for match in _IN_WIRE_RE.finditer(text)
        for j, name, delta, units in [match.groups()]
        if name == instance
    ]


def with_manifest(files):
    """``files`` with manifest.json rewritten to match the others."""
    rest = {key: text for key, text in files.items() if key != "manifest.json"}
    return {**rest, "manifest.json": emit_manifest_json(rest)}


TOP_CASES = [
    pytest.param(design, instance, id=f"{design}-{instance}")
    for design in ("J15-q3", "J40-q2")
    for instance in ("row_reads", "col_reads")
]


class TestTopLevel:
    """The replay reads hdl/top.vhd's generate statements and requires each
    instance's in switch wiring to equal netlist.json's wire families."""

    @pytest.mark.parametrize("design, instance", TOP_CASES)
    def test_generate_wiring_is_the_families(self, hdl_renders, design, instance):
        families = {
            family["port"]: family["folded_offset"]
            for family in json.loads(hdl_renders[design]["netlist.json"])["wire_families"]
            if family["instance"] == instance
        }
        wires = in_wires(hdl_renders[design][TOP_FILE], instance)
        assert {j: delta for j, delta, _, _ in wires} == families

    @pytest.mark.parametrize("design, instance", TOP_CASES)
    def test_changed_offset_fails_naming_file_and_label(self, hdl_renders, design, instance):
        files = dict(hdl_renders[design])
        j, delta, units, line = in_wires(files[TOP_FILE], instance)[-1]
        new = (delta + 1) % units
        files[TOP_FILE] = files[TOP_FILE].replace(line, line.replace(f"(m + {delta})", f"(m + {new})"))
        files = with_manifest(files)
        report = simulate(files)
        assert report.file_mismatches == [
            f"{TOP_FILE}: generate {instance}: port {j} reads offset {new}, but netlist.json's "
            f"family has folded offset {delta}"
        ]
        assert not (report.conflicts or report.misroutes)
        passed, checks = cli._verify_files(files, "the mutant", 1)
        assert not passed
        assert any(line.startswith("simulation: FAIL") for line in checks), checks

    def test_changed_range_fails_naming_the_label(self, hdl_renders):
        files = edited(hdl_renders["J15-q3"], TOP_FILE, "col_units : FOR m IN 0 TO 4", "col_units : FOR m IN 0 TO 3")
        assert simulate(files).file_mismatches == [
            f"{TOP_FILE}: generate col_units runs m over 0 TO 3, not 0 TO F - 1 = 4"
        ]

    def test_dropped_switch_port_fails_naming_the_label(self, hdl_renders):
        files = dict(hdl_renders["J15-q3"])
        *_, line = in_wires(files[TOP_FILE], "col_reads")[-1]
        files[TOP_FILE] = files[TOP_FILE].replace(line, "")
        assert simulate(files).file_mismatches == [
            f"{TOP_FILE}: generate col_reads: out_switch drives ports [0, 1, 2, 3, 4, 5], "
            "in_switch reads ports [0, 1, 2, 3, 4]"
        ]

    @pytest.mark.parametrize(
        "old, new, locus",
        [
            ("in1 => row_reads_w((m + 1) MOD 5, 1)", "in1 => row_reads_w((m + 1) MOD 4, 1)",
             "generate row_reads: in_switch in1 => row_reads_w((m + 1) MOD 4, 1), "
             "not row_reads_w((m + offset) MOD 5, 1)"),
            ("out2 => col_reads_w(m, 2)", "out2 => col_reads_w(m, 3)",
             "generate col_reads: out_switch out2 => col_reads_w(m, 3), not col_reads_w(m, 2)"),
            ("END GENERATE row_units;", "END GENERATE;", "generate row_units missing"),
            ("in_switch : switch_col_reads_in", "in_sw : switch_col_reads_in",
             "generate col_reads has no in_switch"),
        ],
        ids=["other modulus", "other port", "unlabelled end", "switch renamed"],
    )
    def test_unreadable_generate_exits_1_naming_it(self, hdl_renders, tmp_path, capsys, old, new, locus):
        files = edited(hdl_renders["J15-q3"], TOP_FILE, old, new)
        with pytest.raises(SimulationStructureError, match=f"^{re.escape(TOP_FILE)}: {re.escape(locus)}$"):
            simulate(files)
        run = tmp_path / "run"
        for file_name, text in with_manifest(files).items():
            (run / file_name).parent.mkdir(parents=True, exist_ok=True)
            (run / file_name).write_text(text, encoding="utf-8")
        assert main(["simulate", "--out", str(run)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert locus in captured.out + captured.err

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_byte_edit_ends_in_a_report_or_a_locus(self, hdl_renders, data):
        files = dict(hdl_renders["J15-q3"])
        text = files[TOP_FILE]
        index = data.draw(st.integers(0, len(text) - 1))
        byte = data.draw(st.sampled_from(sorted(set("0123456789+-,:;() \nmMODGENERATE_w"))))
        files[TOP_FILE] = text[:index] + byte + text[index + 1 :]
        try:
            simulate(files)
        except SimulationStructureError as exc:
            assert str(exc).startswith(TOP_FILE)

    def test_missing_top_beside_package_is_a_locus(self, hdl_renders):
        files = {key: text for key, text in hdl_renders["J15-q3"].items() if key != TOP_FILE}
        with pytest.raises(SimulationStructureError, match=f"^{TOP_FILE}: absent, but the run has hdl/ files$"):
            simulate(files)


class TestLossCensus:
    """The report keeps each side's compiled deliveries once, as a column of
    keys (producer · J + consumer) and a column of ranks, and, per
    iteration, only the indices of those that did not arrive."""

    def test_passing_run_keeps_nothing_per_iteration(self, render15):
        report = simulate(render15, 4)
        assert report.lost == {"row": {}, "col": {}}
        lengths = {
            side: tuple(map(len, report.deliveries[side])) for side in ("row", "col")
        }
        assert lengths == {"row": (105, 105), "col": (105, 105)}

    def test_replay_memory_does_not_grow_with_iterations(self, render15):
        def peak(iterations):
            tracemalloc.start()
            try:
                report = simulate(render15, iterations)
                assert check_dataflow_equivalence(report, render15)["ok"]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm caches
        # Keeping the 210 deliveries of each iteration would cost ~18 KiB
        # an iteration, ~880 KiB over the 49 extra ones.
        assert peak(50) - peak(1) < 64 * 1024

    def test_unfolded_replay_memory_is_bounded(self):
        # The q = 1 build is verify's throughput reference, with J units
        # and J·γ wires.  Its replay peaks at 0.24 MiB on Python 3.11: the
        # wires are a few families whose ids are computed, the access traces
        # are a few runs a slot, and every claim is an array column.  A name,
        # a dict entry and an int per wire and a tuple per access took it to
        # 0.75 MiB; an int object per trace row, write, token and delivery
        # then to 1.25 MiB.
        graph = build_pg_graph(PgParams(2, 3, 2))
        files = render_run_files(graph, FoldPlan.for_graph(graph, 1), FLAT)
        simulate(files)  # warm caches
        tracemalloc.start()
        try:
            assert simulate(files).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_reference_replay_memory_is_bounded(self):
        # verify's q = 1 reference for P(2, GF(9)) folded by 7, render and
        # replay, peaks at 0.25 MiB on Python 3.11: netlist.json is 20 wire
        # families, the access traces are a few runs a slot, the observed
        # accesses of a side's two halves are not concatenated, and claim
        # ids take 32 bits.  With one trace row per access, rendered whole
        # before the replay, it peaked at 0.39-0.42 MiB.
        graph = build_pg_graph(PgParams(2, 3, 2))
        plan = FoldPlan.for_graph(graph, 7)
        cli._reference_replay(graph, plan)  # warm caches
        tracemalloc.start()
        try:
            assert cli._reference_replay(graph, plan).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.37 * 2**20

    def test_loss_in_later_iterations_names_exactly_those(self, render15, monkeypatch):
        # Memory fault: from iteration 2 on, the cell feeding the row half's
        # first delivery is cleared before the half reads it.
        deliver = simulator._deliver
        calls = []

        def faulty(half, memory, *rest):
            if half.reading == "row" and len(calls) >= 4:  # two calls an iteration
                memory[half.cells[0]] = -1  # no token
            calls.append(half.reading)
            return deliver(half, memory, *rest)

        monkeypatch.setattr(simulator, "_deliver", faulty)
        report = simulate(render15, 4)
        monkeypatch.undo()
        assert report.lost == {"row": {2: (0,), 3: (0,)}, "col": {}}
        keys, ranks = report.deliveries["row"]
        producer, consumer = divmod(keys[0], 15)
        rank = ranks[0]
        expected = [
            f"missing token: row consumer {consumer} rank {rank} expected producer {producer}"
        ] * 2
        assert report.misroutes == expected
        assert report.real_tokens == {"row": 4 * 105 - 2, "col": 4 * 105}
        verdict = check_dataflow_equivalence(report, render15)
        assert verdict == {
            "ok": False,
            "failures": [
                f"iteration {iteration}: row consumer {consumer} "
                f"missing [({rank}, {producer})] unexpected []"
                for iteration in (2, 3)
            ],
        }


def edited(files, name, old, new):
    """``files`` with the first ``old`` in file ``name`` replaced by ``new``."""
    assert old in files[name]
    return {**files, name: files[name].replace(old, new, 1)}


class TestDecodedMessages:
    """Resource ids and tokens are integers; the messages decode them back
    into the switch, wire, memory port, producer and edge they stand for.
    Slot s of the J=15 q=3 render reads at cycle s, pattern 0 runs in
    slots 0-2 and pattern 1 in slots 3-5, and the row half writes slot 0
    at cycle 12."""

    def test_memory_port_conflict(self, render15):
        # The first row write moves to port 1, which the second one uses.
        files = edited(render15, "write_lut_row.csv", "\n0,0,5,0,0\n", "\n0,0,1,1,0\n0,1,4,0,0\n")
        assert simulate(files).conflicts == [
            "pmu port double access: side row pmu 0 port 1 cycle 12"
        ]

    @pytest.mark.parametrize(
        "runs, conflicts",
        [
            # A second run over unit 2 on port 0 of slot 0.
            ("0,0,5,0,0\n0,2,1,0,2", [(2, 0)]),
            # Runs that overlap on unit 2 and leave out unit 4, as many
            # writes as units.
            ("0,0,3,0,0\n0,2,2,0,0", [(2, 0)]),
            # Two units written twice: the conflicts come in (unit, port)
            # order, as a file of one row per write, unit by unit, gave them.
            ("0,0,5,0,0\n0,1,1,0,0\n0,0,1,1,18", [(0, 1), (1, 0)]),
            # Unit 0 writes each port twice, port 0 last at the higher address.
            ("0,0,5,0,0\n0,0,1,0,22\n0,0,1,1,18", [(0, 0), (0, 1)]),
        ],
    )
    def test_overlapping_write_runs_are_a_conflict(self, render15, runs, conflicts):
        files = edited(render15, "write_lut_row.csv", "\n0,0,5,0,0\n", f"\n{runs}\n")
        assert simulate(files).conflicts == [
            f"pmu port double access: side row pmu {pmu} port {port} cycle 12"
            for pmu, port in conflicts
        ]

    def test_unit_no_write_run_covers_loses_its_token(self, render15):
        # Unit 4 writes nothing on port 0 of slot 0: its consumer's token
        # is missing, and the dataflow check fails.
        files = edited(render15, "write_lut_row.csv", "\n0,0,5,0,0\n", "\n0,0,4,0,0\n")
        report = simulate(files)
        assert not report.conflicts
        assert any(m.startswith("missing token: col consumer") for m in report.misroutes)
        assert not check_dataflow_equivalence(report, files)["ok"]

    def test_switch_codes_past_the_id_range_name_the_table(self, render15):
        # Resource ids are signed 64-bit integers: a code that would take a
        # switch's id range past them fails the compile with the table named.
        files = edited(render15, "lut_row_reads.csv", "\n0,0,1\n", f"\n0,{2**70},1\n")
        with pytest.raises(
            SimulationStructureError,
            match=f"^lut_row_reads.csv: codes 0 to {2**70} are too many to replay$",
        ):
            simulate(files)

    def test_out_switch_port_conflict(self, render15):
        # Pattern 0 drives code 0 from both ports: the out switch port and
        # its wire are claimed twice.
        files = edited(render15, "lut_row_reads.csv", "\n0,0,1\n", "\n0,0,0\n")
        conflicts = simulate(files).conflicts
        assert conflicts[:2] == [
            "switch port double select: row_reads out 0 port 0 cycle 0",
            "wire double drive: row_reads_w_0_0 cycle 0",
        ]
        out = [c for c in conflicts if " row_reads in " not in c]
        assert len(out) == 2 * 5 * 3  # two per unit, three slots

    def test_in_switch_port_conflict(self, render15):
        # The in switches run the same codes a cycle later, so they select
        # code 0 on both ports.
        files = edited(render15, "lut_row_reads.csv", "\n0,0,1\n", "\n0,0,0\n")
        conflicts = [c for c in simulate(files).conflicts if " row_reads in " in c]
        assert conflicts == [
            f"switch port double select: row_reads in {unit} port 0 cycle {slot + 1}"
            for slot in range(3)
            for unit in range(5)
        ]

    def test_misroute_names_producer_and_edge(self, render15):
        # Pattern 1's codes swapped: its out switches put memory port 0,
        # rank 2's, on rank 3's wire, which its in switches select for rank
        # 2.  So row consumer 0 gets the port 0 token of column memory d3:
        # column producer d3's token for row consumer d3 - d2, whose edge is
        # the rank of -d2 among the column side's reader offsets.
        files = edited(render15, "lut_row_reads.csv", "\n1,2,4\n", "\n1,4,2\n")
        producer = OFFSETS_15[3] % 15
        edge = sorted((-d) % 15 for d in OFFSETS_15).index((-OFFSETS_15[2]) % 15)
        assert (producer, edge) == (4, 5)
        assert simulate(files).misroutes[0] == (
            f"misrouted token: row consumer 0 rank 2 expected producer {OFFSETS_15[2]}, "
            f"got producer {producer} edge {edge}"
        )

    @pytest.mark.parametrize(
        "old, new, counts",
        [
            # The accesses as sets agree; the file holds five of them twice.
            (
                "\n12,0,5,0,0,W\n",
                "\n12,0,5,0,0,W\n12,0,5,0,0,W\n",
                "0 missing, 0 extra, sample []",
            ),
            # The file lacks five accesses the replay makes.
            (
                "\n12,0,5,0,0,W\n",
                "\n",
                "0 missing, 5 extra, sample [(12, 0, 0, 0, 'W'), (12, 1, 0, 0, 'W'), "
                "(12, 2, 0, 0, 'W')]",
            ),
            # A run one unit short, and one unit long into the next run.
            (
                "\n12,0,4,1,18,W\n",
                "\n12,0,3,1,18,W\n",
                "0 missing, 1 extra, sample [(12, 3, 1, 18, 'W')]",
            ),
            (
                "\n12,0,4,1,18,W\n",
                "\n12,0,5,1,18,W\n",
                "1 missing, 0 extra, sample [(12, 4, 1, 18, 'W')]",
            ),
            # A run one unit long past the last unit, and one shifted down a unit.
            (
                "\n12,4,1,1,20,W\n",
                "\n12,4,2,1,20,W\n",
                "1 missing, 0 extra, sample [(12, 5, 1, 20, 'W')]",
            ),
            (
                "\n12,4,1,1,20,W\n",
                "\n12,3,1,1,20,W\n",
                "1 missing, 1 extra, sample [(12, 3, 1, 20, 'W'), (12, 4, 1, 20, 'W')]",
            ),
        ],
    )
    def test_trace_runs_compare_as_multisets_of_accesses(self, render15, old, new, counts):
        # The port-1 writes at cycle 12 go to address 18 for units 0-3 and
        # to 20 for unit 4.
        files = edited(render15, "access_trace_row.csv", old, new)
        assert simulate(files).file_mismatches == [
            f"access_trace_row.csv disagrees with simulated traffic ({counts})"
        ]

    @pytest.mark.parametrize("units", [0, -1, 6])
    def test_run_of_no_or_too_many_units_names_its_locus(self, render15, units):
        files = edited(
            render15, "access_trace_row.csv", "\n12,0,5,0,0,W\n", f"\n12,0,{units},0,0,W\n"
        )
        with pytest.raises(
            SimulationStructureError,
            match=rf"^access_trace_row.csv:2:units {units} outside \[1, 5\]$",
        ):
            simulate(files)

    def test_emitted_trace_is_compared_as_text(self, render15, monkeypatch):
        # An emitted trace file is the observed runs' own text: it is not parsed.
        read_csv = simulator._read_csv

        def read_no_trace(files, name, *columns):
            assert not name.startswith("access_trace"), name
            return read_csv(files, name, *columns)

        monkeypatch.setattr(simulator, "_read_csv", read_no_trace)
        assert simulate(render15, 2).ok

    @pytest.mark.parametrize(
        "edit, mismatches",
        [
            pytest.param(
                lambda header, rows: [header, *random.Random(5).sample(rows, len(rows))],
                [],
                id="permuted rows",
            ),
            pytest.param(
                lambda header, rows: [line + "\r" for line in (header, *rows)],
                [],
                id="CRLF line endings",
            ),
            pytest.param(
                lambda header, rows: [header, "012" + rows[0][2:], *rows[1:]],
                [],
                id="zero-padded integer",
            ),
            pytest.param(
                lambda header, rows: [",".join(line.split(",")[::-1]) for line in (header, *rows)],
                [],
                id="reordered columns",
            ),
            pytest.param(
                lambda header, rows: [header, rows[0][:-1] + "R", *rows[1:]],
                [
                    "access_trace_row.csv disagrees with simulated traffic (5 missing, "
                    "5 extra, sample [(12, 0, 0, 0, 'R'), (12, 0, 0, 0, 'W'), "
                    "(12, 1, 0, 0, 'R')])"
                ],
                id="flipped rw",
            ),
            pytest.param(
                lambda header, rows: [header, "12,0,2,0,0,W", "12,2,3,0,0,W", *rows[1:]],
                [],
                id="run split in two",
            ),
        ],
    )
    def test_trace_text_that_differs_compares_as_multisets(self, render15, edit, mismatches):
        # A trace file that is not the observed runs' own text is parsed and
        # compared as a multiset of accesses: any file with the same
        # accesses passes.
        name = "access_trace_row.csv"
        header, *rows = render15[name].splitlines()
        assert rows[0] == "12,0,5,0,0,W"
        text = "\n".join(edit(header, rows)) + "\n"
        assert text != render15[name]
        assert simulate({**render15, name: text}).file_mismatches == mismatches


def _int_leaves(data, path=()):
    """Paths of the integer leaves of parsed JSON."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return [path] if type(data) is int else []
    return [leaf for key, value in items for leaf in _int_leaves(value, (*path, key))]


@st.composite
def mutants(draw, files):
    """``files`` with one field or one byte edited: a CSV cell, a switch
    table code, an integer of a JSON file, the port, folded offset or copy
    of a netlist wire family, or any byte."""
    kind = draw(st.sampled_from(["csv", "code", "json", "port", "byte"]))
    names = sorted(files)
    if kind in ("csv", "code"):
        name = draw(
            st.sampled_from([n for n in names if n.startswith("lut_")])
            if kind == "code"
            else st.sampled_from([n for n in names if n.endswith(".csv")])
        )
        rows = list(csv.reader(io.StringIO(files[name])))
        row = draw(st.integers(1, len(rows) - 1))
        header = rows[0]
        column = (
            header.index(draw(st.sampled_from(["port0", "port1"])))
            if kind == "code"
            else draw(st.integers(0, len(header) - 1))
        )
        rows[row][column] = draw(
            st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["", "x", "R", "W"]))
        )
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return {**files, name: buffer.getvalue()}
    if kind in ("json", "port"):
        name = "netlist.json" if kind == "port" else draw(
            st.sampled_from([n for n in names if n.endswith(".json")])
        )
        data = json.loads(files[name])
        if kind == "port":
            family = draw(st.integers(0, len(data["wire_families"]) - 1))
            key = draw(st.sampled_from(["port", "folded_offset"]))
            path = ("wire_families", family, key)
        else:
            path = draw(st.sampled_from(_int_leaves(data)))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = draw(st.integers(-2, 40))
        return {**files, name: json.dumps(data, indent=2, sort_keys=True) + "\n"}
    name = draw(st.sampled_from(names))
    text = files[name]
    index = draw(st.integers(0, len(text) - 1))
    byte = draw(st.sampled_from(sorted(set('0123456789-,:[]{}" \nxRW'))))
    return {**files, name: text[:index] + byte + text[index + 1 :]}


class TestMutatedRender:
    """Malformed input ends in a report or a SimulationStructureError,
    never in another exception, and verify rejects any changed byte."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_single_edit(self, render15, data):
        stored = {**render15, "manifest.json": emit_manifest_json(render15)}
        files = data.draw(mutants(stored))
        try:
            report = simulate(files)
            check_dataflow_equivalence(report, files)
        except SimulationStructureError:
            pass
        if files != stored:
            passed, checks = cli._verify_files(files, "the mutant", 1)
            assert not passed, checks
