"""Tests for projective incidence construction and its counting functions."""

from __future__ import annotations

import itertools
import math
import time
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfold.circulant import (
    CirculantBipartiteGraph,
    apply_affine,
    normalize_offsets,
)
from pgfold.projective import (
    PgParams,
    build_pg_graph,
    enumerate_pg_incidence,
    phi,
    point_count,
    verify_pg_incidence,
)

# Incidence of the 15-node example, frozen: row j lists the columns of
# hyperplane j in base-offset order.
REFERENCE_OFFSETS_15 = (0, 1, 2, 4, 5, 8, 10)
INCIDENCE_15 = [
    [0, 1, 2, 4, 5, 8, 10],
    [1, 2, 3, 5, 6, 9, 11],
    [2, 3, 4, 6, 7, 10, 12],
    [3, 4, 5, 7, 8, 11, 13],
    [4, 5, 6, 8, 9, 12, 14],
    [5, 6, 7, 9, 10, 13, 0],
    [6, 7, 8, 10, 11, 14, 1],
    [7, 8, 9, 11, 12, 0, 2],
    [8, 9, 10, 12, 13, 1, 3],
    [9, 10, 11, 13, 14, 2, 4],
    [10, 11, 12, 14, 0, 3, 5],
    [11, 12, 13, 0, 1, 4, 6],
    [12, 13, 14, 1, 2, 5, 7],
    [13, 14, 0, 2, 3, 6, 8],
    [14, 0, 1, 3, 4, 7, 9],
]


class TestCounts:
    def test_point_counts(self):
        assert point_count(2, 2) == 7
        assert point_count(0, 5) == 1
        assert point_count(2, 9) == 91

    def test_phi_goldens(self):
        assert phi(2, 0, 2) == 7
        assert phi(3, 0, 2) == 15
        assert phi(3, 1, 2) == 35

    def test_phi_against_subspace_enumeration(self):
        # Count 2-dimensional vector subspaces of GF(2)^4 by brute force:
        # these are the projective lines of P(3, GF(2)).
        vectors = [v for v in itertools.product((0, 1), repeat=4) if any(v)]
        subspaces = set()
        for a, b in itertools.combinations(vectors, 2):
            span = {
                tuple((x * i + y * j) % 2 for x, y in zip(a, b))
                for i in (0, 1)
                for j in (0, 1)
            }
            span.discard((0, 0, 0, 0))
            if len(span) == 3:
                subspaces.add(frozenset(span))
        assert len(subspaces) == phi(3, 1, 2)

    def test_phi_duality(self):
        for n, s in [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3)]:
            assert phi(n, n - 1, s) == phi(n, 0, s)

    def test_phi_domain(self):
        with pytest.raises(ValueError):
            phi(2, 3, 2)
        with pytest.raises(ValueError):
            phi(2, -1, 2)

    def test_params_sizes(self):
        params = PgParams(2, 3, 2)
        assert params.q == 9
        assert params.nodes_per_side == 91
        assert params.node_degree == 10


class TestBuildGraph:
    def test_15_node_golden(self):
        start = time.monotonic()
        graph = build_pg_graph(PgParams(3, 2, 1))
        elapsed = time.monotonic() - start
        assert graph.order == 15
        assert graph.degree == 7
        mapping = normalize_offsets(graph.base_offsets, 15, REFERENCE_OFFSETS_15)
        assert mapping is not None
        normalized = apply_affine(graph.base_offsets, 15, *mapping)
        assert normalized == REFERENCE_OFFSETS_15
        assert elapsed < 1.0

    def test_15_node_incidence_rows(self):
        graph = build_pg_graph(PgParams(3, 2, 1))
        mapping = normalize_offsets(graph.base_offsets, 15, REFERENCE_OFFSETS_15)
        relabeled = CirculantBipartiteGraph.plain(
            15, apply_affine(graph.base_offsets, 15, *mapping)
        )
        for j, expected in enumerate(INCIDENCE_15):
            assert relabeled.incidence_row(j) == expected

    def test_fano(self):
        graph = build_pg_graph(PgParams(2, 2, 1))
        assert graph.order == 7
        assert graph.degree == 3

    def test_91_node(self):
        graph = build_pg_graph(PgParams(2, 3, 2))
        assert graph.order == 91
        assert graph.degree == 10

    def test_13_node(self):
        graph = build_pg_graph(PgParams(2, 3, 1))
        assert graph.order == 13
        assert graph.degree == 4


class TestVerifyIncidence:
    @pytest.mark.parametrize(
        "params",
        [PgParams(2, 2, 1), PgParams(3, 2, 1), PgParams(2, 3, 1), PgParams(2, 3, 2), PgParams(2, 2, 2)],
    )
    def test_built_graphs_pass(self, params):
        graph = build_pg_graph(params)
        report = verify_pg_incidence(graph, params)
        assert report.ok, report.failures

    def test_pairwise_intersections_15(self):
        graph = build_pg_graph(PgParams(3, 2, 1))
        rows = [set(graph.incidence_row(i)) for i in range(15)]
        for a, b in itertools.combinations(range(15), 2):
            assert len(rows[a] & rows[b]) == 3

    def test_fano_line_intersections(self):
        graph = build_pg_graph(PgParams(2, 2, 1))
        rows = [set(graph.incidence_row(i)) for i in range(7)]
        for a, b in itertools.combinations(range(7), 2):
            assert len(rows[a] & rows[b]) == 1

    def test_perturbed_graph_fails(self):
        # A graph that is circulant but not a projective incidence: the
        # difference multiset check catches it.
        bad = CirculantBipartiteGraph.plain(7, (0, 1, 2))
        report = verify_pg_incidence(bad, PgParams(2, 2, 1))
        assert not report.ok
        assert report.failures

    def test_perturbed_solid_fails(self):
        # P(3, GF(2)) offsets with 10 moved to 11: order and degree still
        # fit, but rows 0 and 2 now share 2 points instead of 3.
        bad = CirculantBipartiteGraph.plain(15, (0, 1, 2, 4, 5, 8, 11))
        report = verify_pg_incidence(bad, PgParams(3, 2, 1))
        assert not report.ok
        assert report.failures == ("rows 0 and 2 share 2 points, expected 3",)
        assert not brute_force_incidence_ok(bad, PgParams(3, 2, 1))


PROPERTY_GEOMETRIES = (PgParams(2, 2, 1), PgParams(3, 2, 1), PgParams(2, 3, 1))


@cache
def _singer_offsets(params: PgParams) -> tuple[int, ...]:
    return build_pg_graph(params).base_offsets


def brute_force_incidence_ok(graph: CirculantBipartiteGraph, params: PgParams) -> bool:
    """Reference verdict: size checks, every row and column degree, and
    the meet of every pair of rows."""
    j_nodes, gamma = params.nodes_per_side, params.node_degree
    meet = point_count(params.n - 2, params.q)
    if graph.order != j_nodes:
        return False
    rows = [set(graph.incidence_row(i)) for i in range(graph.order)]
    if any(len(row) != gamma for row in rows):
        return False
    col_degree = [0] * graph.order
    for row in rows:
        for c in row:
            col_degree[c] += 1
    if any(d != gamma for d in col_degree):
        return False
    return all(len(a & b) == meet for a, b in itertools.combinations(rows, 2))


@st.composite
def offset_graphs(draw):
    """A geometry with a candidate graph: an affine image of its Singer
    offsets, that image with one offset moved, dropped or added, or a
    random offset set of degree gamma - 1, gamma or gamma + 1; the order
    is J or a wrong J - 1 or J + 1."""
    params = draw(st.sampled_from(PROPERTY_GEOMETRIES))
    j_nodes, gamma = params.nodes_per_side, params.node_degree
    order = draw(st.sampled_from((j_nodes,) * 3 + (j_nodes - 1, j_nodes + 1)))
    kind = draw(st.sampled_from(("singer",) * 2 + ("moved", "dropped", "added", "random")))
    if kind == "random":
        size = draw(st.sampled_from((gamma - 1, gamma, gamma + 1)))
        offsets = draw(
            st.sets(st.integers(0, order - 1), min_size=size, max_size=size)
        )
        return params, CirculantBipartiteGraph.plain(order, offsets)
    units = [u for u in range(1, j_nodes) if math.gcd(u, j_nodes) == 1]
    u = draw(st.sampled_from(units))
    c = draw(st.integers(0, j_nodes - 1))
    offsets = {d % order for d in apply_affine(_singer_offsets(params), j_nodes, u, c)}
    outside = sorted(set(range(order)) - offsets)
    if kind in ("moved", "dropped"):
        offsets.discard(draw(st.sampled_from(sorted(offsets))))
    if kind in ("moved", "added"):
        offsets.add(draw(st.sampled_from(outside)))
    return params, CirculantBipartiteGraph.plain(order, offsets)


class TestIncidenceProperty:
    @settings(max_examples=300, deadline=None)
    @given(offset_graphs())
    def test_histogram_matches_pairwise_reference(self, case):
        params, graph = case
        report = verify_pg_incidence(graph, params)
        assert report.ok == brute_force_incidence_ok(graph, params), report.failures

    def test_affine_images_of_singer_offsets_pass(self):
        for params in PROPERTY_GEOMETRIES:
            j_nodes = params.nodes_per_side
            for u in range(1, j_nodes):
                if math.gcd(u, j_nodes) != 1:
                    continue
                offsets = apply_affine(_singer_offsets(params), j_nodes, u, 1)
                graph = CirculantBipartiteGraph.plain(j_nodes, offsets)
                assert verify_pg_incidence(graph, params).ok
                assert brute_force_incidence_ok(graph, params)


class TestOracle:
    @pytest.mark.parametrize(
        "params",
        [PgParams(2, 2, 1), PgParams(3, 2, 1), PgParams(2, 3, 1), PgParams(2, 2, 2), PgParams(2, 3, 2)],
    )
    def test_circulant_rows_match_coordinate_oracle(self, params):
        graph = build_pg_graph(params)
        oracle = enumerate_pg_incidence(params)
        j_nodes = graph.order
        circulant_rows = {
            frozenset((j + d) % j_nodes for d in graph.base_offsets)
            for j in range(j_nodes)
        }
        assert oracle["points"] == j_nodes
        assert oracle["hyperplanes"] == j_nodes
        assert set(oracle["rows"]) == circulant_rows

    def test_duality_counts(self):
        oracle = enumerate_pg_incidence(PgParams(3, 2, 1))
        assert oracle["points"] == oracle["hyperplanes"] == 15
