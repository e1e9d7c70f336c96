"""Projective point-hyperplane incidence as a circulant bipartite graph.

The space P(n, GF(q)) with q = p^s is realized through the cyclic labeling
induced by a generator of GF(q^(n+1)): point i is the projective class of
alpha^i, and hyperplane 0 is the trace-zero kernel, so hyperplane j touches
exactly the points (j + d) mod J for the fixed offset set D of hyperplane 0.
``build_pg_graph`` finds D without building GF(q^(n+1)): the traces of the
powers of alpha obey a linear recurrence whose taps are the coefficients of
the primitive modulus, so D costs J steps of O(k) work per tap, with
k = s(n + 1).

An independent oracle (enumerate_pg_incidence) rebuilds the same incidence
from homogeneous coordinates and linear-form kernels over the tabulated
field, without the trace, so the construction is certified rather than
assumed.  The oracle shares only the modulus with the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circulant import CirculantBipartiteGraph, SelfCheckError
from .galois import field_build, find_primitive_polynomial, x_power_mod

__all__ = [
    "PgParams",
    "phi",
    "point_count",
    "build_pg_graph",
    "SelfCheckError",
    "verify_pg_incidence",
    "IncidenceReport",
    "enumerate_pg_incidence",
]

# The largest J × degree incidence that build_pg_graph constructs; the
# files a build writes grow with it.  P(2, GF(128)) has 2,130,177 cells.
MAX_INCIDENCE_CELLS = 2**22


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
    graph whose base offset set is the point set of hyperplane 0.

    The base offsets are the i in [0, J) with Tr(alpha^i) = 0, where alpha
    is a root of the primitive modulus f of GF(p^k), k = s(n + 1), and Tr
    is the trace down to GF(q).  Tr is GF(p)-linear and
    alpha^k = -sum f_t alpha^t, so Tr(alpha^(i+k)) = -sum f_t Tr(alpha^(i+t)).
    The k seeds Tr(alpha^t) = sum_j x^(t q^j) mod f are coefficient
    vectors; the recurrence then takes J steps of O(k) work per nonzero
    tap, and the field is never built.  A geometry of more than
    MAX_INCIDENCE_CELLS incidence cells raises ValueError."""
    p, q, m = params.p, params.q, params.n + 1
    k = params.s * m
    j_nodes = params.nodes_per_side
    cells = j_nodes * params.node_degree
    if cells > MAX_INCIDENCE_CELLS:
        raise ValueError(
            f"P({params.n}, GF({p}^{params.s})) has J × degree = {j_nodes} × "
            f"{params.node_degree} = {cells} incidence cells, beyond the "
            f"supported {MAX_INCIDENCE_CELLS} (2^22)"
        )
    coeffs = find_primitive_polynomial(p, k).coefficients
    taps = [(t, (-c) % p) for t, c in enumerate(coeffs[:k]) if c]
    traces = []
    for t in range(k):
        total = [0] * k
        for j in range(m):
            total = [a + b for a, b in zip(total, x_power_mod(t * q**j, coeffs, p))]
        traces.append([c % p for c in total])
    for i in range(j_nodes - k):
        total = [0] * k
        for t, c in taps:
            total = [a + c * b for a, b in zip(total, traces[i + t])]
        traces.append([a % p for a in total])
    offsets = [i for i in range(j_nodes) if not any(traces[i])]
    if len(offsets) != params.node_degree:
        raise SelfCheckError(
            f"construction self-check failed for P({params.n}, GF({params.p}^{params.s})): "
            f"|D| = {len(offsets)}, expected {params.node_degree}"
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
