"""Circulant balanced bipartite graphs: data model, expansion, equivalence.

A circulant balanced bipartite graph has J nodes per side and a base offset
set D: row i is adjacent to columns (i + d) mod J for every d in D.  After
order expansion some nodes and edges are padding; real_order and
real_base_offsets keep enough information to tell real edges from dummies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "CirculantBipartiteGraph",
    "from_incidence_lists",
    "divisors",
    "expand_circulant",
    "expand_matrix_oracle",
    "choose_alpha",
    "offsets_equivalent",
    "normalize_offsets",
    "apply_affine",
    "is_int",
    "json_value",
    "json_int",
    "json_ints",
    "SelfCheckError",
]


class SelfCheckError(AssertionError):
    """An invariant that the code itself guarantees did not hold; the
    message names the invariant and where it failed."""


def is_int(value: object) -> bool:
    """An integer that is not a bool (JSON ``true`` and ``false``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_value(data: object, key: str, default: object = None) -> object:
    """``data[key]`` of a parsed JSON object; a missing key gives ``default``.
    A missing required key (no default) raises ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if key in data:
        return data[key]
    if default is None:
        raise ValueError(f"{key} missing")
    return default


def json_int(data: object, key: str, default: int | None = None) -> int:
    value = json_value(data, key, default)
    if not is_int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def json_ints(data: object, key: str, default: list | None = None) -> tuple[int, ...]:
    value = json_value(data, key, default)
    if not (isinstance(value, list) and all(is_int(v) for v in value)):
        raise ValueError(f"{key} must be a list of integers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class CirculantBipartiteGraph:
    """Immutable circulant balanced bipartite graph.

    order: current number of nodes per side (possibly expanded).
    base_offsets: sorted distinct offsets of row 0, in [0, order).
    real_order: nodes >= real_order on either side are dummies.
    real_base_offsets: offset set of the graph before expansion, used to
        decide which edges are real.
    dummy_offset_padded: a sentinel offset has been appended for scheduling
        (odd degree); it never appears in base_offsets.
    geometry: optional (n, p, s) provenance when built from a projective
        space.
    """

    order: int
    base_offsets: tuple[int, ...]
    real_order: int
    real_base_offsets: tuple[int, ...]
    dummy_offset_padded: bool = False
    geometry: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("graph order must be >= 2")
        offsets = self.base_offsets
        if not offsets:
            raise ValueError("base offset set is empty")
        if list(offsets) != sorted(set(offsets)):
            raise ValueError("base offsets must be sorted and distinct")
        if offsets[0] < 0 or offsets[-1] >= self.order:
            raise ValueError("base offsets must lie in [0, order)")
        if not 2 <= self.real_order <= self.order:
            raise ValueError("real_order must lie in [2, order]")
        real = self.real_base_offsets
        if list(real) != sorted(set(real)):
            raise ValueError("real base offsets must be sorted and distinct")
        if real and (real[0] < 0 or real[-1] >= self.real_order):
            raise ValueError("real base offsets must lie in [0, real_order)")

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Node degree, not counting the scheduling sentinel."""
        return len(self.base_offsets)

    @property
    def scheduled_degree(self) -> int:
        """Degree including the sentinel pad, always even when padded."""
        return self.degree + (1 if self.dummy_offset_padded else 0)

    @property
    def scheduled_offsets(self) -> tuple[int | None, ...]:
        """Base offsets plus the sentinel (None) when padded."""
        if self.dummy_offset_padded:
            return self.base_offsets + (None,)
        return self.base_offsets

    @property
    def is_expanded(self) -> bool:
        return self.real_order < self.order

    def col_offsets(self) -> tuple[int, ...]:
        """Offset set seen from the column side: col j touches rows j + d'."""
        return tuple(sorted((-d) % self.order for d in self.base_offsets))

    def incidence_row(self, i: int) -> list[int]:
        """Columns adjacent to row i, in base-offset order (unsorted wrap)."""
        return [(i + d) % self.order for d in self.base_offsets]

    def incidence_col(self, j: int) -> list[int]:
        """Rows adjacent to column j, in column-offset order."""
        return [(j + d) % self.order for d in self.col_offsets()]

    @cached_property
    def _offset_set(self) -> frozenset[int]:
        return frozenset(self.base_offsets)

    @cached_property
    def _real_offset_set(self) -> frozenset[int]:
        return frozenset(self.real_base_offsets)

    def has_edge(self, row: int, col: int) -> bool:
        return (col - row) % self.order in self._offset_set

    def is_real_edge(self, row: int, col: int) -> bool:
        """True when the edge existed before any expansion."""
        if not self.has_edge(row, col):
            return False
        if not self.is_expanded:
            return True
        if row >= self.real_order or col >= self.real_order:
            return False
        return (col - row) % self.real_order in self._real_offset_set

    def adjacency_matrix(self) -> list[list[int]]:
        offsets = self._offset_set
        n = self.order
        return [[1 if (j - i) % n in offsets else 0 for j in range(n)] for i in range(n)]

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        data = {
            "format_version": 1,
            "J": self.order,
            "gamma": self.degree,
            "base_offsets": list(self.base_offsets),
            "real_J": self.real_order,
            "real_base_offsets": list(self.real_base_offsets),
            "dummy_offset_padded": self.dummy_offset_padded,
        }
        if self.geometry is not None:
            data["geometry"] = list(self.geometry)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "CirculantBipartiteGraph":
        """Inverse of ``to_json_dict``.  A missing field, or a value of the
        wrong JSON type or range, raises ValueError naming the field."""
        order = json_int(data, "J")
        base_offsets = json_ints(data, "base_offsets")
        padded = json_value(data, "dummy_offset_padded", False)
        if not isinstance(padded, bool):
            raise ValueError(
                f"dummy_offset_padded must be true or false, got {padded!r}"
            )
        geometry = None
        if data.get("geometry") is not None:
            geometry = json_ints(data, "geometry")
            if len(geometry) != 3:
                raise ValueError(
                    f"geometry must be three integers n, p, s, got {list(geometry)!r}"
                )
        return cls(
            order=order,
            base_offsets=base_offsets,
            real_order=json_int(data, "real_J", order),
            real_base_offsets=json_ints(data, "real_base_offsets", list(base_offsets)),
            dummy_offset_padded=padded,
            geometry=geometry,
        )

    @classmethod
    def plain(cls, order: int, base_offsets, geometry=None) -> "CirculantBipartiteGraph":
        """An unexpanded graph where every node and edge is real."""
        offsets = tuple(sorted(set(base_offsets)))
        return cls(
            order=order,
            base_offsets=offsets,
            real_order=order,
            real_base_offsets=offsets,
            geometry=geometry,
        )


def from_incidence_lists(lists) -> CirculantBipartiteGraph:
    """Recover (J, D) from incidence lists under the given labeling.

    Row i+1 must be row i shifted by +1 mod J; anything else is rejected
    with the first violating row index (general relabeling is out of scope).
    """
    rows = [sorted(row) for row in lists]
    if not rows:
        raise ValueError("no incidence rows supplied")
    order = len(rows)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has degree {len(row)}, expected {width}")
        if len(set(row)) != len(row):
            raise ValueError(f"row {i} repeats a column")
        if row and (row[0] < 0 or row[-1] >= order):
            raise ValueError(f"row {i} references columns outside [0, {order})")
    base = set(rows[0])
    for i, row in enumerate(rows):
        expected = {(d + i) % order for d in base}
        if set(row) != expected:
            raise ValueError(
                f"not circulant under this labeling: row {i} is not row 0 "
                f"shifted by {i}"
            )
    return CirculantBipartiteGraph.plain(order, base)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def expand_circulant(graph: CirculantBipartiteGraph, alpha: int) -> CirculantBipartiteGraph:
    """Grow the graph order by alpha dummy nodes per side, staying circulant.

    Every original edge survives with its absolute endpoints.  Edges that
    wrapped modulo the old order now sit on the shifted diagonal d + alpha,
    so each offset d >= 1 contributes two offset classes and offset 0 one;
    the remaining cells of those diagonals are dummy edges.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if graph.is_expanded or graph.dummy_offset_padded:
        raise ValueError("only an unexpanded, unpadded graph can be expanded")
    old_order = graph.order
    new_order = old_order + alpha
    offsets = set(graph.base_offsets)
    offsets.update(d + alpha for d in graph.base_offsets if d >= 1)
    return CirculantBipartiteGraph(
        order=new_order,
        base_offsets=tuple(sorted(offsets)),
        real_order=old_order,
        real_base_offsets=graph.base_offsets,
        geometry=graph.geometry,
    )


def expand_matrix_oracle(graph: CirculantBipartiteGraph, alpha: int) -> list[list[int]]:
    """Literal diagonal-completion view of order expansion (oracle only).

    Embeds the original adjacency matrix in the top-left corner of the
    enlarged matrix and fills every partially occupied wrap-around diagonal
    completely.  Used to certify expand_circulant, never in the pipeline.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    old_order = graph.order
    new_order = old_order + alpha
    if new_order > 512:
        raise ValueError("oracle supports expanded orders up to 512")
    matrix = [[0] * new_order for _ in range(new_order)]
    old = graph.adjacency_matrix()
    for i in range(old_order):
        for j in range(old_order):
            matrix[i][j] = old[i][j]
    if alpha == 0:
        return matrix
    for delta in range(new_order):
        cells = [(i, (i + delta) % new_order) for i in range(new_order)]
        filled = sum(matrix[i][j] for i, j in cells)
        if 0 < filled < new_order:
            for i, j in cells:
                matrix[i][j] = 1
    return matrix


def choose_alpha(
    graph: CirculantBipartiteGraph,
    target_f: tuple[int, int],
    max_alpha: int | None = None,
) -> list[dict]:
    """Feasible expansion sizes for a target physical-unit range.

    Returns candidates ascending by alpha.  A candidate is feasible when
    the expanded order has a divisor q > 1 whose F = order/q lies in
    target_f.  Each entry reports the fold factors available and the
    expanded degree, so callers may prefer alphas whose offset classes
    coincide (smaller hardware).
    """
    lo, hi = target_f
    if lo < 1 or hi < lo:
        raise ValueError("target F range must satisfy 1 <= lo <= hi")
    if max_alpha is None:
        max_alpha = graph.order
    found = []
    for alpha in range(1, max_alpha + 1):
        new_order = graph.order + alpha
        q_options = [
            q for q in divisors(new_order) if q > 1 and lo <= new_order // q <= hi
        ]
        if not q_options:
            continue
        offsets = set(graph.base_offsets)
        offsets.update(d + alpha for d in graph.base_offsets if d >= 1)
        found.append(
            {
                "alpha": alpha,
                "order": new_order,
                "fold_factors": q_options,
                "expanded_degree": len(offsets),
            }
        )
    return found


def apply_affine(offsets, order: int, u: int, c: int) -> tuple[int, ...]:
    """Relabel an offset set by the node map i -> u*i + c mod order."""
    if math.gcd(u, order) != 1:
        raise ValueError("multiplier must be a unit modulo the order")
    return tuple(sorted((u * d + c) % order for d in offsets))


def normalize_offsets(offsets, order: int, target) -> tuple[int, int] | None:
    """Affine map (u, c) with u*D + c == target mod order, or None.

    Offset sets of relabeled circulant graphs differ exactly by such maps,
    so golden comparisons go through this normalization.
    """
    base = tuple(sorted(offsets))
    goal = set(t % order for t in target)
    if len(base) != len(goal):
        return None
    for u in range(1, order):
        if math.gcd(u, order) != 1:
            continue
        mapped = [(u * d) % order for d in base]
        for c in range(order):
            if {(m + c) % order for m in mapped} == goal:
                return (u, c)
    return None


def offsets_equivalent(a, order: int, b) -> bool:
    """True when the offset sets are equal up to an affine relabeling."""
    return normalize_offsets(a, order, b) is not None
