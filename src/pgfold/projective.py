"""Projective point-hyperplane incidence as a circulant bipartite graph.

The space P(n, GF(q)) with q = p^s is realized through the cyclic labeling
induced by a generator of GF(q^(n+1)): point i is the projective class of
alpha^i, and hyperplane 0 is the trace-zero kernel, so hyperplane j touches
exactly the points (j + d) mod J for the fixed offset set D of hyperplane 0.

An independent oracle (enumerate_pg_incidence) rebuilds the same incidence
from homogeneous coordinates and linear-form kernels, without the trace, so
the construction is certified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circulant import CirculantBipartiteGraph
from .galois import FiniteField, field_build

__all__ = [
    "PgParams",
    "phi",
    "point_count",
    "build_pg_graph",
    "verify_pg_incidence",
    "IncidenceReport",
    "enumerate_pg_incidence",
]


def point_count(d: int, s: int) -> int:
    """Number of points of a d-dimensional projective space over GF(s)."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    if s < 2:
        raise ValueError("field order must be >= 2")
    return (s ** (d + 1) - 1) // (s - 1)


def phi(n: int, l: int, s: int) -> int:
    """Number of l-dimensional projective subspaces of P(n, GF(s))."""
    if not 0 <= l <= n:
        raise ValueError(f"subspace dimension {l} outside [0, {n}]")
    if s < 2:
        raise ValueError("field order must be >= 2")
    numerator = 1
    denominator = 1
    for i in range(l + 1):
        numerator *= s ** (n + 1 - i) - 1
        denominator *= s ** (i + 1) - 1
    assert numerator % denominator == 0
    return numerator // denominator


@dataclass(frozen=True)
class PgParams:
    """Parameters of P(n, GF(p^s)) and the derived graph sizes."""

    n: int
    p: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("projective dimension must be >= 2")
        if self.s < 1:
            raise ValueError("extension exponent must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def nodes_per_side(self) -> int:
        """J: points on one side, hyperplanes on the other."""
        return point_count(self.n, self.q)

    @property
    def node_degree(self) -> int:
        """gamma: points per hyperplane and hyperplanes per point."""
        return point_count(self.n - 1, self.q)


def build_pg_graph(params: PgParams) -> CirculantBipartiteGraph:
    """Build the point-hyperplane incidence of P(n, GF(p^s)) as a circulant
    graph whose base offset set is the point set of hyperplane 0."""
    q = params.q
    m = params.n + 1
    big = field_build(params.p, params.s * m)
    j_nodes = params.nodes_per_side
    offsets = []
    for i in range(j_nodes):
        element = big.element_of_exponent(i)
        if big.trace_to_subfield(element, q) == 0:
            offsets.append(i)
    if len(offsets) != params.node_degree:
        raise AssertionError(
            f"construction self-check failed: |D| = {len(offsets)}, "
            f"expected {params.node_degree}"
        )
    return CirculantBipartiteGraph.plain(
        j_nodes, offsets, geometry=(params.n, params.p, params.s)
    )


@dataclass(frozen=True)
class IncidenceReport:
    """Outcome of the structural incidence checks."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_pg_incidence(graph: CirculantBipartiteGraph, params: PgParams) -> IncidenceReport:
    """Check order, degree and the Singer difference-set property.

    Rows 0 and s of a circulant graph meet in |D ∩ (D + s)| points, the
    number of base-offset pairs (a, b) with a - b = s mod J.  Any two
    hyperplanes of P(n, GF(q)) meet in lambda = point_count(n - 2, q)
    points, so every nonzero residue must occur lambda times among the
    gamma^2 differences (Singer 1938; planes are lambda = 1).  Row and
    column regularity hold by the circulant data model.  Violations are
    reported, not raised."""
    failures: list[str] = []
    if graph.order != params.nodes_per_side:
        failures.append(f"order {graph.order} != {params.nodes_per_side}")
    if graph.degree != params.node_degree:
        failures.append(f"degree {graph.degree} != {params.node_degree}")
    expected_meet = point_count(params.n - 2, params.q)
    counts = [0] * graph.order
    for a in graph.base_offsets:
        for b in graph.base_offsets:
            counts[(a - b) % graph.order] += 1
    wrong = next((s for s in range(1, graph.order) if counts[s] != expected_meet), None)
    if wrong is not None:
        failures.append(
            f"rows 0 and {wrong} share {counts[wrong]} points, expected {expected_meet}"
        )
    return IncidenceReport(ok=not failures, failures=tuple(failures))


def enumerate_pg_incidence(params: PgParams) -> dict:
    """Independent incidence oracle from homogeneous coordinates.

    Vectors over GF(q) are represented with coordinates in the subfield
    copy of GF(q) inside GF(q^(n+1)); points and hyperplanes are the
    projective classes of vectors and linear-form normals, incidence is a
    vanishing dot product.  No trace computation is involved.

    Returns {"points": J, "hyperplanes": J, "rows": list of frozensets of
    point labels, "point_label_of_class": mapping}.  Point labels are the
    generator exponents mod J, so rows are directly comparable with the
    circulant construction.
    """
    q = params.q
    m = params.n + 1
    big = field_build(params.p, params.s * m)
    j_nodes = params.nodes_per_side
    scalars = big.subfield_elements(q)
    nonzero_scalars = scalars[1:]
    scalar_inv = {c: big.inv(c) for c in nonzero_scalars}

    def class_label(vector_value: int) -> int:
        """Generator exponent mod J of a nonzero field element."""
        return big.log(vector_value) % j_nodes

    # Enumerate projective points: normalize each coordinate tuple by the
    # inverse of its first nonzero coordinate.
    points: dict[tuple[int, ...], int] = {}
    basis = [big.element_of_exponent(i) for i in range(m)]

    def tuples(depth: int):
        if depth == 0:
            yield ()
            return
        for rest in tuples(depth - 1):
            for c in scalars:
                yield rest + (c,)

    for coords in tuples(m):
        first = next((c for c in coords if c != 0), None)
        if first is None:
            continue
        inv = scalar_inv[first]
        normalized = tuple(big.mul(inv, c) for c in coords)
        if normalized in points:
            continue
        value = 0
        for c, b in zip(normalized, basis):
            value = big.add(value, big.mul(c, b))
        if value == 0:
            raise AssertionError("independent basis produced a zero vector")
        points[normalized] = class_label(value)
    if len(points) != j_nodes:
        raise AssertionError(f"oracle found {len(points)} points, expected {j_nodes}")
    labels = sorted(points.values())
    if labels != list(range(j_nodes)):
        raise AssertionError("projective classes do not biject with labels mod J")

    # Hyperplanes: kernels of normalized linear forms.
    rows = []
    for normal in points:
        member_labels = []
        for coords, label in points.items():
            dot = 0
            for u, w in zip(normal, coords):
                dot = big.add(dot, big.mul(u, w))
            if dot == 0:
                member_labels.append(label)
        rows.append(frozenset(member_labels))
    if len(rows) != j_nodes:
        raise AssertionError("oracle hyperplane count mismatch")
    return {
        "points": j_nodes,
        "hyperplanes": len(rows),
        "rows": rows,
    }
