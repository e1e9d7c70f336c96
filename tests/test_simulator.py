"""File-driven simulator checks: conflict-free replay, token delivery,
census and utilization goldens, throughput bound, fault injection."""

import csv
import io
import json
import shutil
import tracemalloc

import pytest

from pgfold.circulant import CirculantBipartiteGraph, expand_circulant
from pgfold.cli import main
from pgfold.emit import render_run_files, write_run_directory
from pgfold import simulator
from pgfold.folding import FoldPlan, pad_dummy_offset
from pgfold.simulator import (
    SimulationStructureError,
    check_dataflow_equivalence,
    measure_throughput,
    simulate,
    summarize,
)

OFFSETS_15 = (0, 1, 2, 4, 5, 8, 10)
FANO_OFFSETS = (0, 1, 3)
OFFSETS_13 = (0, 1, 3, 9)

FLAT = ("csv", "json")


def build_run(out_dir, order, offsets, q, **plan_kwargs):
    graph = pad_dummy_offset(CirculantBipartiteGraph.plain(order, offsets))
    plan = FoldPlan.for_graph(graph, q, **plan_kwargs)
    write_run_directory(out_dir, graph, plan, FLAT)
    return out_dir


def expanded_design(q):
    graph = pad_dummy_offset(
        expand_circulant(CirculantBipartiteGraph.plain(13, OFFSETS_13), 1)
    )
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
    """(pmu, port, slot) of the first row-side write the replay performs."""
    with (run_dir / "write_lut_row.csv").open(newline="", encoding="utf-8") as handle:
        entry = next(r for r in csv.DictReader(handle) if r["producer_real"] == "1")
    return int(entry["pmu"]), int(entry["port"]), int(entry["slot"])


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
        assert report.measured_full == timing["full_iteration"] == 48

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


class TestFaultInjection:
    def test_swapped_switch_ports_misroute(self, scratch_run):
        def mutate(rows):
            rows[1]["port0"], rows[1]["port1"] = rows[1]["port1"], rows[1]["port0"]

        rewrite_csv(scratch_run, "lut_row_reads_in.csv", mutate)
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

        rewrite_csv(scratch_run, "lut_row_reads_out.csv", mutate)
        with pytest.raises(SimulationStructureError, match="missing wire"):
            simulate(scratch_run)

    def test_repeated_port_code_is_a_conflict(self, scratch_run):
        def mutate(rows):
            rows[1]["port0"] = rows[1]["port1"]

        rewrite_csv(scratch_run, "lut_row_reads_out.csv", mutate)
        report = simulate(scratch_run)
        assert any("double" in c for c in report.conflicts)
        assert not report.ok

    def test_corrupted_write_port_collides(self, scratch_run):
        def mutate(rows):
            target = next(r for r in rows if r["port"] == "0" and r["real"] == "1")
            target["port"] = "1"

        rewrite_csv(scratch_run, "write_lut_row.csv", mutate)
        report = simulate(scratch_run)
        assert any("pmu port double access" in c for c in report.conflicts)

    def test_corrupted_write_address_breaks_delivery(self, scratch_run):
        def mutate(rows):
            target = next(r for r in rows if r["real"] == "1")
            target["address"] = "0" if target["address"] != "0" else "2"

        rewrite_csv(scratch_run, "write_lut_row.csv", mutate)
        report = simulate(scratch_run)
        assert report.misroutes
        assert report.file_mismatches
        assert not check_dataflow_equivalence(report, scratch_run)["ok"]

    def test_address_outside_capacity_aborts(self, scratch_run):
        def mutate(rows):
            rows[0]["address"] = "24"

        rewrite_csv(scratch_run, "write_lut_row.csv", mutate)
        with pytest.raises(SimulationStructureError, match="capacity"):
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
        with pytest.raises(SimulationStructureError, match="slot count"):
            simulate(scratch_run)

    def test_truncated_write_timing_rejected(self, scratch_run):
        rewrite_timing(scratch_run, lambda timing: timing["write_cycles"].pop())
        with pytest.raises(SimulationStructureError, match="slot count"):
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
            ("write_lut_row.csv", 0, "address", "-1", "write_lut_row.csv:2:address -1 outside capacity 24"),
            ("write_lut_row.csv", 3, "slot", "12", "write_lut_row.csv:5:slot 12 outside [0, 12)"),
            ("lut_row_reads_in.csv", 3, "port1", "0", "lut_row_reads_in.csv:5:port1 code 0 selects rank 7"),
            ("lut_col_reads_in.csv", 3, "port1", "2", "lut_col_reads_in.csv:5:port1 code 2 selects rank 7"),
            ("write_lut_row.csv", 0, "address", "x", "write_lut_row.csv:2:address 'x' is not an integer"),
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
            ("fold_row.json", ("slots", 0), [9, 0], "fold_row.json:slots[0]:pattern 9 outside [0, 4)"),
            ("fold_col.json", ("slots", 2), [-1, 0], "fold_col.json:slots[2]:pattern -1 outside [0, 4)"),
            ("fold_row.json", ("slots", 1), [0, 3], "fold_row.json:slots[1]:fold 3 outside [0, 3)"),
            ("fold_row.json", ("slots", 1), [0], "fold_row.json:slots[1] [0] is not a (pattern, fold) pair"),
            (
                "netlist.json",
                ("wires", 0, "dst", 0),
                "row_reads_in_x",
                "netlist.json:wires[0]:dst 'row_reads_in_x' does not end in a unit number",
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
            graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
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


@pytest.fixture(scope="module")
def render15():
    graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
    return render_run_files(graph, FoldPlan.for_graph(graph, 3), FLAT)


# (file, path to the field, the kind of value it holds)
JSON_FIELDS = [
    ("graph.json", ("J",), "int"),
    ("graph.json", ("base_offsets",), "ints"),
    ("graph.json", ("real_J",), "int"),
    ("graph.json", ("real_base_offsets",), "ints"),
    ("plan.json", ("q",), "int"),
    ("plan.json", ("units_per_side",), "int"),
    ("plan.json", ("pipeline_level",), "level"),
    ("layout.json", ("capacity",), "int"),
    ("timing.json", ("read_cycles",), "ints"),
    ("timing.json", ("write_cycles",), "ints"),
    ("timing.json", ("side_span",), "int"),
    *(
        (f"fold_{side}.json", (key,), kind)
        for side in ("row", "col")
        for key, kind in (("F", "int"), ("patterns", "list"), ("slots", "pairs"))
    ),
    *(
        ("netlist.json", ("annotations", "instances", instance, "rho_hat"), "int")
        for instance in ("row_reads", "col_reads")
    ),
    ("netlist.json", ("wires", 1, "src"), "pair"),
    ("netlist.json", ("wires", 1, "dst"), "pair"),
    ("netlist.json", ("wires", 1, "name"), "str"),
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


class TestLossCensus:
    """The report keeps each side's compiled deliveries once and, per
    iteration, only the indices of those that did not arrive."""

    def test_passing_run_keeps_nothing_per_iteration(self, render15):
        report = simulate(render15, 4)
        assert report.lost == {"row": {}, "col": {}}
        assert {side: len(report.deliveries[side]) for side in ("row", "col")} == {
            "row": 105,
            "col": 105,
        }

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

    def test_loss_in_later_iterations_names_exactly_those(self, render15, monkeypatch):
        # Memory fault: from iteration 2 on, the cell feeding the row half's
        # first delivery is cleared before the half reads it.
        deliver = simulator._deliver
        calls = []

        def faulty(half, memory, *rest):
            if half.reading == "row" and len(calls) >= 4:  # two calls an iteration
                memory[half.deliveries[0][0]] = None
            calls.append(half.reading)
            return deliver(half, memory, *rest)

        monkeypatch.setattr(simulator, "_deliver", faulty)
        report = simulate(render15, 4)
        monkeypatch.undo()
        assert report.lost == {"row": {2: (0,), 3: (0,)}, "col": {}}
        consumer, rank, producer = report.deliveries["row"][0]
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
