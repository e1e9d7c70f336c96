"""Tests for fold plans, folded sequences, and their balance properties."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfold.circulant import CirculantBipartiteGraph, divisors, expand_circulant
from pgfold.folding import (
    FoldPlan,
    compute_rho,
    cross_fold_endpoints,
    generate_folded_sequence,
    reader_offsets,
    verify_balance,
)
from pgfold.projective import PgParams, build_pg_graph

from .test_schedule import accesses, folded_graphs


def graph_15() -> CirculantBipartiteGraph:
    return CirculantBipartiteGraph.plain(15, (0, 1, 2, 4, 5, 8, 10), geometry=(3, 2, 1))


class TestFoldPlan:
    def test_for_graph(self):
        plan = FoldPlan.for_graph(graph_15(), 3)
        assert plan.units_per_side == 5
        assert plan.order == 15

    def test_non_divisor_rejected_with_choices(self):
        with pytest.raises(ValueError, match=r"\[1, 3, 5, 15\]"):
            FoldPlan.for_graph(graph_15(), 4)

    def test_bad_option(self):
        with pytest.raises(ValueError):
            FoldPlan(q=3, units_per_side=5, design_option=3)

    def test_bad_pipeline_level(self):
        with pytest.raises(ValueError):
            FoldPlan(q=3, units_per_side=5, pipeline_level="full")


class TestPadding:
    def test_odd_degree_sentinel_derived(self):
        # The sentinel comes from the degree's parity: a plain odd-degree
        # graph folds into whole patterns as it is.
        g = CirculantBipartiteGraph.plain(15, (0, 1, 2, 4, 5, 8, 10))
        assert g.degree == 7
        assert g.scheduled_degree == 8
        for side in ("row", "col"):
            offsets = reader_offsets(g, side)
            assert len(offsets) == 8
            assert offsets[-1] is None
            assert None not in offsets[:-1]
            seq = generate_folded_sequence(g, FoldPlan.for_graph(g, 3), side)
            assert seq.pattern_count == 4
            assert [p.has_dummy for p in seq.patterns] == [False, False, False, True]

    def test_even_degree_untouched(self):
        g = CirculantBipartiteGraph.plain(11, (0, 1, 3, 7))
        assert g.scheduled_degree == g.degree == 4
        assert reader_offsets(g, "row") == (0, 1, 3, 7)

    def test_fano_two_patterns(self):
        g = CirculantBipartiteGraph.plain(7, (0, 1, 3))
        plan = FoldPlan.for_graph(g, 1)
        seq = generate_folded_sequence(g, plan)
        assert seq.pattern_count == 2
        assert seq.patterns[1].has_dummy

    def test_col_reader_offsets(self):
        g = graph_15()
        assert reader_offsets(g, "col") == (0, 5, 7, 10, 11, 13, 14, None)


class TestSequenceGolden:
    def test_slot_0_units(self):
        seq = generate_folded_sequence(graph_15(), FoldPlan.for_graph(graph_15(), 3))
        entries = accesses(seq, 0)
        assert [(e["ppu"], e["pmus"]) for e in entries] == [
            (0, (0, 1)),
            (1, (1, 2)),
            (2, (2, 3)),
            (3, (3, 4)),
            (4, (4, 0)),
        ]

    def test_pattern_2_folding(self):
        seq = generate_folded_sequence(graph_15(), FoldPlan.for_graph(graph_15(), 3))
        # offsets (5, 8) fold to (0, 3)
        assert seq.patterns[2].folded == (0, 3)
        slot = seq.slot_index(2, 0)
        assert accesses(seq, slot)[0]["pmus"] == (0, 3)

    def test_pattern_3_dummy(self):
        seq = generate_folded_sequence(graph_15(), FoldPlan.for_graph(graph_15(), 3))
        assert seq.patterns[3].offsets == (10, None)
        assert seq.patterns[3].folded == (0, None)
        slot = seq.slot_index(3, 0)
        assert accesses(seq, slot)[0]["pmus"] == (0, None)

    def test_option_orders(self):
        g = graph_15()
        seq1 = generate_folded_sequence(g, FoldPlan.for_graph(g, 3, design_option=1))
        seq2 = generate_folded_sequence(g, FoldPlan.for_graph(g, 3, design_option=2))
        assert seq1.slots[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))
        assert seq2.slots[:5] == ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1))
        assert seq1.slot_count == seq2.slot_count == 12

    def test_same_access_multiset_across_options(self):
        g = graph_15()
        gathered = []
        for option in (1, 2):
            seq = generate_folded_sequence(g, FoldPlan.for_graph(g, 3, design_option=option))
            triples = set()
            for slot in range(seq.slot_count):
                for e in accesses(seq, slot):
                    triples.add((e["lpu"], e["edges"][0], e["pmus"][0]))
                    if e["pmus"][1] is not None:
                        triples.add((e["lpu"], e["edges"][1], e["pmus"][1]))
            gathered.append(triples)
        assert gathered[0] == gathered[1]


class TestBalance:
    @pytest.mark.parametrize("q", [1, 3, 5, 15])
    def test_15_all_divisors(self, q):
        g = graph_15()
        plan = FoldPlan.for_graph(g, q)
        for side in ("row", "col"):
            seq = generate_folded_sequence(g, plan, side)
            report = verify_balance(seq, g, plan)
            assert report.ok, report.failures

    def test_corrupted_offset_fails_with_slot(self):
        g = graph_15()
        plan = FoldPlan.for_graph(g, 3)
        seq = generate_folded_sequence(g, plan)
        bad_pattern = dataclasses.replace(seq.patterns[1], folded=(2, 2))
        patterns = list(seq.patterns)
        patterns[1] = bad_pattern
        bad_seq = dataclasses.replace(seq, patterns=tuple(patterns))
        report = verify_balance(bad_seq, g, plan)
        assert not report.ok
        assert any("(1," in f for f in report.failures)

    def test_expanded_graph_balanced(self):
        g = expand_circulant(CirculantBipartiteGraph.plain(13, (0, 1, 3, 9)), 1)
        plan = FoldPlan.for_graph(g, 2)
        for side in ("row", "col"):
            seq = generate_folded_sequence(g, plan, side)
            assert verify_balance(seq, g, plan).ok


def balance_by_walk(sequence, graph, plan) -> bool:
    """Whether a sequence is balanced, by the unit-by-unit walk that
    ``verify_balance`` replaces: every unit's accesses of every slot, each
    slot's port coverage, and a count of every (node, edge) pair read."""
    f_units = plan.units_per_side
    full = set(range(f_units))
    offsets = reader_offsets(graph, sequence.side)
    ok = True
    seen: dict[tuple[int, int], int] = {}
    for slot in range(sequence.slot_count):
        entries = accesses(sequence, slot)
        for e in entries:
            for which in (0, 1):
                t = e["edges"][which]
                d = offsets[t] if t < len(offsets) else None
                pmu = e["pmus"][which]
                if d is not None and pmu is not None:
                    ok = ok and pmu == (e["lpu"] + d) % graph.order % f_units
        first = [e["pmus"][0] for e in entries]
        second = [e["pmus"][1] for e in entries if e["pmus"][1] is not None]
        ok = ok and {e["ppu"] for e in entries} == full
        ok = ok and set(first) == full and len(first) == f_units
        ok = ok and (not second or (set(second) == full and len(second) == f_units))
        for e in entries:
            t0, t1 = e["edges"]
            seen[(e["lpu"], t0)] = seen.get((e["lpu"], t0), 0) + 1
            if e["pmus"][1] is not None:
                seen[(e["lpu"], t1)] = seen.get((e["lpu"], t1), 0) + 1
    for node in range(graph.order):
        for t in range(graph.degree):
            ok = ok and seen.pop((node, t), 0) == 1
    return ok and not any(seen.values())


CORRUPTIONS = (
    "none",
    "folded offset",
    "duplicated slot",
    "dropped slot",
    "dummy access",
    "dropped edge",
)


@st.composite
def balance_cases(draw):
    """A folded sequence of a ``folded_graphs`` design, as generated or
    with one corruption."""
    graph, plan = draw(folded_graphs())
    sequence = generate_folded_sequence(graph, plan, draw(st.sampled_from(["row", "col"])))
    patterns, slots = list(sequence.patterns), list(sequence.slots)
    kind = draw(st.sampled_from(CORRUPTIONS))
    l = draw(st.integers(min_value=0, max_value=len(patterns) - 1))
    f0, f1 = patterns[l].folded
    if kind == "folded offset":
        changed = draw(st.integers(min_value=0, max_value=2 * plan.units_per_side - 1))
        folded = (changed, f1) if f1 is None or draw(st.booleans()) else (f0, changed)
        patterns[l] = dataclasses.replace(patterns[l], folded=folded)
    elif kind == "duplicated slot":
        slots.insert(draw(st.integers(0, len(slots))), draw(st.sampled_from(slots)))
    elif kind == "dropped slot":
        del slots[draw(st.integers(0, len(slots) - 1))]
    elif kind == "dummy access" and patterns[-1].has_dummy:
        dummy = patterns[-1]
        extra = draw(st.integers(min_value=0, max_value=plan.units_per_side - 1))
        patterns[-1] = dataclasses.replace(dummy, folded=(dummy.folded[0], extra))
    elif kind == "dropped edge":
        patterns[l] = dataclasses.replace(patterns[l], folded=(f0, None))
    corrupted = dataclasses.replace(sequence, patterns=tuple(patterns), slots=tuple(slots))
    return graph, plan, corrupted


@settings(max_examples=300, deadline=None)
@given(balance_cases())
def test_balance_agrees_with_the_unit_walk(case):
    graph, plan, sequence = case
    assert verify_balance(sequence, graph, plan).ok == balance_by_walk(sequence, graph, plan)


class TestCrossFold:
    def test_endpoints_constant_15(self):
        g = graph_15()
        plan = FoldPlan.for_graph(g, 3)
        table = cross_fold_endpoints(g, plan)
        # Same columns down every full pattern: unit 0, edges 0 and 1 hit 0, 1.
        assert table[(0, 0)] == 0
        assert table[(0, 1)] == 1
        assert table[(0, 4)] == 0  # offset 5 folds to 0

    def test_full_fold_single_unit(self):
        g = graph_15()
        plan = FoldPlan.for_graph(g, 15)
        table = cross_fold_endpoints(g, plan)
        assert set(table.values()) == {0}

    def test_fano_full_fold(self):
        g = CirculantBipartiteGraph.plain(7, (0, 1, 3))
        plan = FoldPlan.for_graph(g, 7)
        table = cross_fold_endpoints(g, plan)
        assert set(table.values()) == {0}


class TestRho:
    def test_15_row_golden(self):
        g = graph_15()
        plan = FoldPlan.for_graph(g, 3)
        assert compute_rho(g, plan, "row") == (5, 0, 5)

    def test_15_col_has_doubled_pattern(self):
        g = graph_15()
        plan = FoldPlan.for_graph(g, 3)
        # col offsets {0,5,7,10,11,13,14}: pattern (0,5) folds to (0,0)
        assert compute_rho(g, plan, "col") == (5, 1, 6)

    def test_full_fold(self):
        g = graph_15()
        plan = FoldPlan.for_graph(g, 15)
        rho, theta, rho_hat = compute_rho(g, plan)
        assert rho == 1

    def test_toy_doubled(self):
        g = CirculantBipartiteGraph.plain(6, (0, 1, 3, 4))
        plan = FoldPlan.for_graph(g, 2)
        # F=3: patterns (0,1)->(0,1) and (3,4)->(0,1); no doubles
        assert compute_rho(g, plan) == (2, 0, 2)
        plan3 = FoldPlan.for_graph(g, 3)
        # F=2: patterns (0,1)->(0,1), (3,4)->(1,0); no doubles
        assert compute_rho(g, plan3) == (2, 0, 2)

    def test_rho_bound_over_desk_matrix(self):
        from pgfold.circulant import divisors as divisors_of

        for params in [PgParams(2, 2, 1), PgParams(3, 2, 1), PgParams(2, 3, 1), PgParams(2, 3, 2)]:
            g = build_pg_graph(params)
            for q in divisors_of(g.order):
                plan = FoldPlan.for_graph(g, q)
                rho, theta, rho_hat = compute_rho(g, plan)
                assert rho <= min(g.degree, plan.units_per_side)
