"""Valid-presentation certificates and the explicit finiteness constant.

A presentation pairs a graph decomposition with one nonnegative balanced
weight per map. It certifies finiteness of the HBL constant for a datum when
every per-map weight has total mass equal to its exponent and the summary
weight (the per-edge sum over maps that move the edge's endpoints to unequal
images) is balanced with total mass one. The certificate also induces an
explicit constant, kept in exact factored form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hblcert.data import HBLDatum
from hblcert.flowgraph import (
    GraphDecomposition,
    WeightFunction,
    total_mass,
    unbalanced_vertices,
    validate_graph,
)
from hblcert.linalg import Matrix, Subspace, image, norm_sq

THETA_NEGATIVE = "theta-negative"
THETA_BALANCE = "theta-balance"
THETA_MASS = "theta-mass"
SIGMA_BALANCE = "sigma-balance"
SIGMA_MASS = "sigma-mass"
GRAPH = "graph"
STRUCTURE = "structure"


@dataclass(frozen=True)
class Presentation:
    graph: GraphDecomposition
    theta: WeightFunction

    def __post_init__(self) -> None:
        if len(self.theta.values) != len(self.graph.edges):
            raise ValueError("theta does not match the edge list")


def _distinguishing(datum: HBLDatum, graph: GraphDecomposition
                    ) -> tuple[list[list[Subspace]], list[tuple[int, ...]]]:
    """Vertex images images[i][k] = pi_i(vertex k), and for each edge the map
    indices under which its endpoints have unequal images."""
    images = [[image(m, v) for v in graph.vertices] for m in datum.maps]
    dist = [tuple(i for i in range(datum.n_maps) if images[i][a] != images[i][b])
            for (a, b) in graph.edges]
    return images, dist


def _summary(theta: WeightFunction, dist: list[tuple[int, ...]]) -> WeightFunction:
    return WeightFunction.scalar(
        [sum((row[i] for i in maps), Fraction(0)) for row, maps in zip(theta.values, dist)])


def summary_weight(datum: HBLDatum, pres: Presentation) -> WeightFunction:
    """Scalar weight sigma(e) = sum of theta_i(e) over maps distinguishing e."""
    if datum.dim != pres.graph.ambient:
        raise ValueError("datum dimension does not match graph ambient")
    if pres.theta.width != datum.n_maps:
        raise ValueError("theta width does not match the number of maps")
    return _summary(pres.theta, _distinguishing(datum, pres.graph)[1])


@dataclass(frozen=True)
class MapCheck:
    name: str
    nonnegative: bool
    balanced: bool
    mass: Fraction
    expected_mass: Fraction

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.balanced and self.mass == self.expected_mass


@dataclass(frozen=True)
class VerificationReport:
    graph_violations: tuple[str, ...]
    map_checks: tuple[MapCheck, ...]
    sigma: tuple[Fraction, ...]
    sigma_balanced: bool
    sigma_mass: Fraction
    problems: tuple[str, ...]
    valid: bool


def verify_presentation(datum: HBLDatum, pres: Presentation) -> VerificationReport:
    """Full certificate check; every failure lands in the report, none raise."""
    return _verify(datum, pres)[0]


def _verify(datum: HBLDatum, pres: Presentation
            ) -> tuple[VerificationReport, list[list[Subspace]], list[tuple[int, ...]]]:
    """The verification report, with the vertex images and distinguishing maps
    it was computed from (empty on a structure or vertex-ambient mismatch)."""
    problems: list[str] = []
    if datum.dim != pres.graph.ambient:
        problems.append(
            f"{STRUCTURE}: datum dimension {datum.dim} != graph ambient {pres.graph.ambient}"
        )
    if pres.theta.width != datum.n_maps:
        problems.append(
            f"{STRUCTURE}: theta width {pres.theta.width} != {datum.n_maps} maps"
        )
    if problems:
        return VerificationReport((), (), (), False, Fraction(0), tuple(problems), False), [], []

    graph = pres.graph
    graph_violations = tuple(validate_graph(graph))
    for v in graph_violations:
        problems.append(f"{GRAPH}: {v}")

    masses = total_mass(graph, pres.theta)
    unbalanced = list(unbalanced_vertices(graph, pres.theta))
    map_checks = []
    for i, name in enumerate(datum.names):
        nonneg = all(row[i] >= 0 for row in pres.theta.values)
        off = [(k, into[i], outof[i]) for k, into, outof in unbalanced if into[i] != outof[i]]
        check = MapCheck(name, nonneg, not off, masses[i], datum.exponents[i])
        map_checks.append(check)
        if not nonneg:
            problems.append(f"{THETA_NEGATIVE}: map {name} has a negative weight")
        for k, into, outof in off:
            problems.append(
                f"{THETA_BALANCE}: map {name} unbalanced at {graph.describe_vertex(k)} "
                f"(in {into}, out {outof})"
            )
        if check.mass != check.expected_mass:
            problems.append(
                f"{THETA_MASS}: map {name} has total mass {check.mass}, expected {check.expected_mass}"
            )

    if any(v.ambient != graph.ambient for v in graph.vertices):
        # validate_graph has named these vertices; the maps cannot take them.
        report = VerificationReport(graph_violations, tuple(map_checks), (), False,
                                    Fraction(0), tuple(problems), False)
        return report, [], []

    images, dist = _distinguishing(datum, graph)
    sigma = _summary(pres.theta, dist)
    sigma_off = list(unbalanced_vertices(graph, sigma))
    for k, (into,), (outof,) in sigma_off:
        problems.append(
            f"{SIGMA_BALANCE}: summary weight unbalanced at {graph.describe_vertex(k)} "
            f"(in {into}, out {outof})"
        )
    sigma_mass = total_mass(graph, sigma)[0]
    if sigma_mass != 1:
        problems.append(f"{SIGMA_MASS}: summary weight has total mass {sigma_mass}, expected 1")

    report = VerificationReport(
        graph_violations=graph_violations,
        map_checks=tuple(map_checks),
        sigma=sigma.component(0),
        sigma_balanced=not sigma_off,
        sigma_mass=sigma_mass,
        problems=tuple(problems),
        valid=not problems,
    )
    return report, images, dist


def edge_norm_squared(datum: HBLDatum, pres: Presentation, i: int, edge: int) -> Fraction:
    """Squared scale factor relating an edge's new direction to its image direction.

    With w any nonzero vector of V2 cap V1-perp (one-dimensional, so unique up
    to sign) the value is |P-perp pi_i(w)|^2 / |w|^2, where P-perp projects
    onto the complement of pi_i(V1). The ratio is scale-invariant in w, so the
    rational basis vector works and no square roots appear.
    """
    a, b = pres.graph.edges[edge]
    m = datum.maps[i]
    low = image(m, pres.graph.vertices[a])
    if low == image(m, pres.graph.vertices[b]):
        raise ValueError(f"map {datum.names[i]} does not distinguish the endpoints of edge {edge}")
    return _norm_squared(m, low, _new_direction(pres, edge))


def _new_direction(pres: Presentation, edge: int) -> tuple[Fraction, ...]:
    """A basis vector of V2 cap V1-perp for the edge V1 -> V2."""
    a, b = pres.graph.edges[edge]
    new_dir = pres.graph.vertices[b] & pres.graph.vertices[a].perp()
    if new_dir.dim != 1:
        raise ValueError(f"edge {edge} does not raise dimension by one")
    return new_dir.basis.row(0)


def _norm_squared(m: Matrix, low: Subspace, w: tuple[Fraction, ...]) -> Fraction:
    """|P-perp m(w)|^2 / |w|^2, with P-perp projecting off `low`."""
    u = m.apply(w)
    proj = low.projector()
    residual = tuple(x - y for x, y in zip(u, proj.apply(u)))
    return norm_sq(residual) / norm_sq(w)


@dataclass(frozen=True)
class BoundFactor:
    map_index: int
    edge: int
    base: Fraction      # squared edge norm
    exponent: Fraction  # -theta_i(e)/2, so base**exponent = |pi_i . e|^(-theta_i(e))


@dataclass(frozen=True)
class BoundCertificate:
    """The finiteness constant as an exact product of rational powers.

    `value` is the floating-point evaluation; factors are sorted by
    (map index, base, exponent), which also fixes the float accumulation
    order, so equal factored forms produce bit-identical values.
    """

    factors: tuple[BoundFactor, ...]
    value: float
    exact_one: bool

    def invariant_key(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        """Factors without edge indices; identical for transported certificates."""
        return tuple((f.map_index, f.base, f.exponent) for f in self.factors)


def bound_constant(datum: HBLDatum, pres: Presentation) -> BoundCertificate:
    """Certificate constant prod over defined (i, e) of |pi_i . e|^(-theta_i(e)).

    Factors with theta_i(e) = 0 contribute 1 and are omitted. Requires a
    valid presentation.
    """
    report, images, dist = _verify(datum, pres)
    if not report.valid:
        raise ValueError("bound_constant requires a valid presentation: " + "; ".join(report.problems))
    factors = []
    for k, (a, _) in enumerate(pres.graph.edges):
        weighted = [i for i in dist[k] if pres.theta.values[k][i] != 0]
        if not weighted:
            continue
        w = _new_direction(pres, k)
        for i in weighted:
            base = _norm_squared(datum.maps[i], images[i][a], w)
            factors.append(BoundFactor(i, k, base, -pres.theta.values[k][i] / 2))
    factors.sort(key=lambda f: (f.map_index, f.base, f.exponent, f.edge))
    value = 1.0
    for f in factors:
        value *= float(f.base) ** float(f.exponent)
    exact_one = all(f.base == 1 for f in factors)
    return BoundCertificate(tuple(factors), value, exact_one)


def export_dot(datum: HBLDatum, pres: Presentation) -> str:
    """Deterministic DOT rendering; starred entries mark distinguishing maps."""
    graph = pres.graph
    try:
        dist = _distinguishing(datum, graph)[1]
    except ValueError:
        dist = [()] * len(graph.edges)
    lines = ["digraph presentation {", "  rankdir=LR;"]
    for i in range(len(graph.vertices)):
        label = graph.describe_vertex(i)
        lines.append(f'  v{i} [label="{label}"];')
    for k, (a, b) in enumerate(graph.edges):
        parts = []
        for i in range(pres.theta.width):
            mark = "*" if i in dist[k] else ""
            parts.append(f"{pres.theta.values[k][i]}{mark}")
        lines.append(f'  v{a} -> v{b} [label="({",".join(parts)})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
