"""Acceptance suite: ten release criteria, each ending in a single
visible PASS/FAIL verdict line.

Verdict lines are collected in VERDICTS and echoed after the run by the
terminal-summary hook in conftest.py, so they stay visible under output
capture; timing limits are asserted inside the tests that carry them.
"""

import random
import shutil
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from pgfold.circulant import (
    CirculantBipartiteGraph,
    apply_affine,
    divisors,
    expand_circulant,
    expand_matrix_oracle,
    normalize_offsets,
)
from pgfold.cli import main as cli_main
from pgfold.emit import write_run_directory
from pgfold.folding import (
    FoldPlan,
    compute_rho,
    cross_fold_endpoints,
    generate_folded_sequence,
    verify_balance,
)
from pgfold.projective import PgParams, build_pg_graph
from pgfold.schedule import full_timing
from pgfold.simulator import simulate

from .test_emit import FROZEN_SCHEDULE_GRID, schedule_grid
from .test_projective import INCIDENCE_15, REFERENCE_OFFSETS_15
from .test_schedule import accesses, checked_writes

GEOMETRIES = ((2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 3, 2))
REFERENCE_PROTOTYPE_CYCLES = 63

VERDICTS: list = []


def _announce(line: str) -> None:
    VERDICTS.append(line)
    print(line)


@contextmanager
def verdict(number: int, summary: str, detail: list | None = None):
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    extra = f" ({detail[0]})" if detail else ""
    _announce(f"ACCEPTANCE {number}: PASS - {summary}{extra}")


def running_example(q=3, design_option=1, **kwargs):
    graph = build_pg_graph(PgParams(3, 2, 1))
    plan = FoldPlan.for_graph(graph, q, design_option=design_option, **kwargs)
    return graph, plan


# ---------------------------------------------------------------------------
# shared simulation sweep (used by criteria 7, 8, 9)


def _sweep_subjects():
    subjects = []
    for n, p, s in GEOMETRIES:
        graph = build_pg_graph(PgParams(n, p, s))
        subjects.append((f"P({n},GF({p}^{s}))", graph))
    expanded = expand_circulant(build_pg_graph(PgParams(2, 3, 1)), 1)
    subjects.append(("P(2,GF(3^1))+1", expanded))
    return subjects


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Emit and simulate every (graph, fold factor, option, level) combo."""
    root = tmp_path_factory.mktemp("acceptance_sweep")
    flat = ("csv", "json")
    results = []
    started = time.monotonic()
    index = 0
    for label, graph in _sweep_subjects():
        for q in divisors(graph.order):
            for option in (1, 2):
                levels = ("none", "writeback", "node") + (
                    ("graph",) if option == 2 else ()
                )
                for level in levels:
                    plan = FoldPlan.for_graph(
                        graph, q, design_option=option, pipeline_level=level
                    )
                    out = root / f"run{index:03d}"
                    index += 1
                    write_run_directory(out, graph, plan, flat)
                    report = simulate(out)
                    results.append(
                        {
                            "label": label,
                            "graph": graph,
                            "q": q,
                            "option": option,
                            "level": level,
                            "B": graph.scheduled_degree // 2,
                            "report": report,
                        }
                    )
                    shutil.rmtree(out)
    return {"results": results, "elapsed": time.monotonic() - started}


# ---------------------------------------------------------------------------
# criteria


class TestAcceptance:
    def test_criterion_01_geometry_golden(self):
        with verdict(
            1,
            "geometry construction reproduces the 15-node incidence exactly",
        ):
            started = time.monotonic()
            graph = build_pg_graph(PgParams(3, 2, 1))
            assert graph.order == 15
            assert graph.degree == 7
            mapping = normalize_offsets(
                graph.base_offsets, 15, REFERENCE_OFFSETS_15
            )
            assert mapping is not None
            relabeled = CirculantBipartiteGraph.plain(
                15, apply_affine(graph.base_offsets, 15, *mapping)
            )
            assert relabeled.base_offsets == REFERENCE_OFFSETS_15
            for j, expected in enumerate(INCIDENCE_15):
                assert relabeled.incidence_row(j) == expected
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"

    def test_criterion_02_folding_golden(self):
        with verdict(
            2,
            "15-node fold-by-3 schedule table matches the frozen grid "
            "cell for cell",
        ):
            graph, plan = running_example()
            sequence = generate_folded_sequence(graph, plan, "row")
            assert sequence.slot_count == 12
            assert len(sequence.patterns) == 4
            assert schedule_grid(sequence) == FROZEN_SCHEDULE_GRID
            for slot in (9, 10, 11):
                for access in accesses(sequence, slot):
                    assert access["pmus"][1] is None

    def test_criterion_03_address_goldens(self):
        with verdict(
            3,
            "read cycle 7T, write addresses 0/1/9, capacity 24, "
            "five switch ports",
        ):
            graph, plan = running_example()
            # Edge 5 of fold 0 is read in slot (2, 0); its window ends
            # with cycle 7T.
            slot = generate_folded_sequence(graph, plan, "row").slot_index(2, 0)
            assert full_timing(graph, plan).read_cycles[slot] + 1 == 7
            slow = FoldPlan.for_graph(graph, 3, T=12)
            assert full_timing(graph, slow).read_cycles[slot] + 1 == 7 * 12
            by_edge = {(w.producer, w.edge): w.address for w in checked_writes(graph, plan, "row")}
            assert by_edge[(0, 0)] == 0
            assert by_edge[(5, 6)] == 1
            assert by_edge[(0, 4)] == 9
            # Capacity is two cells per slot, and the writes fill them.
            assert 2 * generate_folded_sequence(graph, plan, "row").slot_count == 24
            assert set(by_edge.values()) == set(range(24))
            assert compute_rho(graph, plan, "row") == (5, 0, 5)

    def test_criterion_04_edge_replica_golden(self):
        with verdict(
            4,
            "shifting node 1 by 11 maps its point-5 edge endpoint to point 1",
        ):
            graph, _ = running_example()
            assert sorted(graph.incidence_row(1))[3] == 5
            assert (5 + 11) % 15 in graph.incidence_row((1 + 11) % 15)

    def test_criterion_05_expansion(self):
        with verdict(
            5,
            "worked expansions match and 200 random expansions equal the "
            "matrix oracle",
        ):
            started = time.monotonic()
            small = CirculantBipartiteGraph.plain(5, (0, 2, 4))
            grown = expand_circulant(small, 1)
            assert grown.order == 6
            assert grown.degree == 5
            assert grown.base_offsets == (0, 2, 3, 4, 5)
            fano = CirculantBipartiteGraph.plain(7, (0, 1, 3))
            fano_grown = expand_circulant(fano, 1)
            assert fano_grown.adjacency_matrix() == expand_matrix_oracle(fano, 1)
            rng = random.Random(20260822)
            for _ in range(200):
                order = rng.randint(2, 100)
                alpha = rng.randint(1, 128 - order) if order < 128 else 1
                degree = rng.randint(1, min(order, 10))
                offsets = tuple(sorted(rng.sample(range(order), degree)))
                g = CirculantBipartiteGraph.plain(order, offsets)
                assert (
                    expand_circulant(g, alpha).adjacency_matrix()
                    == expand_matrix_oracle(g, alpha)
                )
            elapsed = time.monotonic() - started
            assert elapsed < 10.0, f"took {elapsed:.3f}s, limit 10s"

    def test_criterion_06_schedule_invariants(self):
        detail: list = []
        with verdict(
            6,
            "balance, coverage, cross-fold endpoint invariance, and the "
            "switch-port bound hold for every geometry and fold factor",
            detail,
        ):
            started = time.monotonic()
            combos = 0
            for n, p, s in GEOMETRIES:
                graph = build_pg_graph(PgParams(n, p, s))
                gamma = len(graph.real_base_offsets)
                for q in divisors(graph.order):
                    plan = FoldPlan.for_graph(graph, q)
                    for side in ("row", "col"):
                        sequence = generate_folded_sequence(graph, plan, side)
                        result = verify_balance(sequence, graph, plan)
                        assert result.ok, result.failures[:3]
                        cross_fold_endpoints(graph, plan, side)
                        rho, theta, rho_hat = compute_rho(graph, plan, side)
                        assert rho <= min(gamma, graph.order // q)
                        assert rho_hat == rho + theta
                    combos += 1
            elapsed = time.monotonic() - started
            assert elapsed < 60.0, f"took {elapsed:.3f}s, limit 60s"
            detail.append(f"{combos} graph/fold combos in {elapsed:.1f}s")

    def test_criterion_07_simulator_conflict_freedom(self, sweep):
        detail: list = []
        with verdict(
            7,
            "zero conflicts, full busy units outside dummy folds, and exact "
            "token census across the whole sweep",
            detail,
        ):
            results = sweep["results"]
            assert len(results) == 112
            for item in results:
                report = item["report"]
                graph = item["graph"]
                context = f"{item['label']} q={item['q']} " \
                    f"option={item['option']} level={item['level']}"
                assert report.conflicts == [], context
                assert report.misroutes == [], context
                assert report.file_mismatches == [], context
                busy = graph.real_order * item["B"]
                assert report.ppu_busy == {"row": busy, "col": busy}, context
                tokens = graph.real_order * len(graph.real_base_offsets)
                assert report.real_tokens == {
                    "row": tokens,
                    "col": tokens,
                }, context
            elapsed = sweep["elapsed"]
            assert elapsed < 120.0, f"sweep took {elapsed:.1f}s, limit 120s"
            detail.append(f"{len(results)} runs simulated in {elapsed:.1f}s")

    def test_criterion_08_timing_formulas(self, sweep, tmp_path):
        detail: list = []
        with verdict(
            8,
            "measured half-iteration lengths equal the closed forms, "
            "including the 39-cycle worked case",
            detail,
        ):
            for item in sweep["results"]:
                half = item["report"].measured_half
                if item["level"] == "none":
                    expected = item["B"] * item["q"]
                elif item["level"] == "graph":
                    expected = item["B"] * item["q"] + 2
                else:
                    continue
                assert half == {"row": expected, "col": expected}, (
                    f"{item['label']} q={item['q']} option={item['option']} "
                    f"level={item['level']}"
                )
            flat = ("csv", "json")
            graph, slow_plan = running_example(T=12)
            out = tmp_path / "slow"
            write_run_directory(out, graph, slow_plan, flat)
            assert simulate(out).measured_half == {"row": 144, "col": 144}
            wide = CirculantBipartiteGraph.plain(70, tuple(range(10)))
            wide_plan = FoldPlan.for_graph(
                wide, 7, design_option=2, delta=2, pipeline_level="graph"
            )
            out = tmp_path / "wide"
            write_run_directory(out, wide, wide_plan, flat)
            measured = simulate(out).measured_half
            assert measured == {"row": 39, "col": 39}
            detail.append("degree-10 fold-by-7 graph-pipelined half is 39 cycles")

    def test_criterion_09_throughput_bound(self, sweep, tmp_path):
        detail: list = []
        with verdict(
            9,
            "folded/unfolded cycle ratio stays within the fold factor, and "
            "the slow-compute pipelined ratio lands in [1.5, 3)",
            detail,
        ):
            baselines = {}
            for item in sweep["results"]:
                if item["q"] == 1:
                    key = (item["label"], item["option"], item["level"])
                    baselines[key] = item["report"].measured_full
            for item in sweep["results"]:
                key = (item["label"], item["option"], item["level"])
                ratio = Fraction(item["report"].measured_full, baselines[key])
                assert ratio <= item["q"], (
                    f"{item['label']} q={item['q']} option={item['option']} "
                    f"level={item['level']}: ratio {float(ratio):.2f}"
                )
            flat = ("csv", "json")
            measured = {}
            for q in (3, 1):
                graph, plan = running_example(
                    q=q, design_option=2, T=12, delta=1, pipeline_level="graph"
                )
                out = tmp_path / f"pipelined_q{q}"
                write_run_directory(out, graph, plan, flat)
                measured[q] = simulate(out).measured_full
            ratio = Fraction(measured[3], measured[1])
            assert Fraction(3, 2) <= ratio < 3
            detail.append(
                f"pipelined fold-by-3 iteration: {measured[3]} cycles, ratio "
                f"{float(ratio):.2f} (reference prototype iteration: "
                f"{REFERENCE_PROTOTYPE_CYCLES} cycles)"
            )

    def test_criterion_10_determinism_and_file_driven_verdicts(self, tmp_path):
        detail: list = []
        with verdict(
            10,
            "identical runs are byte-identical and the file-driven replay "
            "reproduces the in-memory verdicts",
            detail,
        ):
            trees = {}
            for name in ("first", "second"):
                out = tmp_path / name
                code = cli_main(
                    ["run", "--geometry", "3,2,1", "--q", "3", "--out", str(out)]
                )
                assert code == 0
                trees[name] = {
                    str(p.relative_to(out)): p.read_bytes()
                    for p in out.rglob("*")
                    if p.is_file()
                }
            assert trees["first"] == trees["second"]
            report = simulate(tmp_path / "first")
            assert report.ok
            assert report.file_mismatches == []
            assert cli_main(["verify", "--out", str(tmp_path / "first")]) == 0
            detail.append(f"{len(trees['first'])} files hash-identical")
