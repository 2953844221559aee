"""Valid-presentation certificates and the explicit finiteness constant.

A presentation pairs a graph decomposition with one nonnegative balanced
weight per map. It certifies finiteness of the HBL constant for a datum when
every per-map weight has total mass equal to its exponent and the summary
weight (the per-edge sum over maps under which the edge's endpoints have
images of unequal dimension) is balanced with total mass one. The
certificate also induces an explicit constant, kept in exact factored form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from hblcert.data import HBLDatum
from hblcert.flowgraph import (
    GraphDecomposition,
    WeightFunction,
    total_mass,
    unbalanced_vertices,
    validate_graph,
)
from hblcert.linalg import Subspace, off_image_ratio

THETA_NEGATIVE = "theta-negative"
THETA_BALANCE = "theta-balance"
THETA_MASS = "theta-mass"
SIGMA_BALANCE = "sigma-balance"
SIGMA_MASS = "sigma-mass"
GRAPH = "graph"


class _PresentationFields(NamedTuple):
    graph: GraphDecomposition
    theta: WeightFunction


class Presentation(_PresentationFields):
    __slots__ = ()

    def __new__(cls, graph: GraphDecomposition, theta: WeightFunction) -> Presentation:
        if len(theta.values) != len(graph.edges):
            raise ValueError("theta does not match the edge list")
        return super().__new__(cls, graph, theta)

    @staticmethod
    def from_edges(ambient: int, width: int, vertices: Iterable[Subspace],
                   weights: Mapping[tuple[Subspace, Subspace], Sequence[Fraction]]
                   ) -> Presentation:
        """The canonical graph on `vertices` with one edge per (low, high) key
        of `weights`, each edge carrying its value as theta row."""
        graph = GraphDecomposition.build(ambient, vertices, weights)
        rows = tuple(tuple(weights[graph.vertices[a], graph.vertices[b]]) for a, b in graph.edges)
        return Presentation(graph, WeightFunction(width, rows))


def _distinguishing(datum: HBLDatum, graph: GraphDecomposition) -> list[tuple[int, ...]]:
    """For each edge V1 -> V2, the map indices i with dim pi_i(V1) != dim pi_i(V2),
    read off the datum's image-dimension table. On a nested edge, where
    pi_i(V1) is inside pi_i(V2), these are the maps that move its endpoints
    to unequal images."""
    dims = [datum.image_dims(v) for v in graph.vertices]
    return [tuple(i for i, (low, high) in enumerate(zip(dims[a], dims[b])) if low != high)
            for a, b in graph.edges]


def _require_match(datum: HBLDatum, pres: Presentation) -> None:
    """Raise ValueError unless the presentation is over the datum's space and maps."""
    if datum.dim != pres.graph.ambient:
        raise ValueError("datum dimension does not match graph ambient")
    if pres.theta.width != datum.n_maps:
        raise ValueError("theta width does not match the number of maps")


def summary_weight(datum: HBLDatum, pres: Presentation) -> WeightFunction:
    """Scalar weight sigma(e) = sum of theta_i(e) over maps distinguishing e,
    each edge's sum taken in theta's integer form and put over its D."""
    _require_match(datum, pres)
    den, rows = pres.theta.integral
    dist = _distinguishing(datum, pres.graph)
    return WeightFunction(1, tuple((Fraction(sum(row[i] for i in maps), den),)
                                   for row, maps in zip(rows, dist)))


class VerificationReport(NamedTuple):
    map_masses: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]
    sigma_mass: Fraction
    problems: tuple[str, ...]
    valid: bool


def verify_presentation(datum: HBLDatum, pres: Presentation) -> VerificationReport:
    """Full certificate check. A pair not over one space and one set of maps
    is the wrong input and raises ValueError (`_require_match`); every
    failure of a matched pair lands in the report, and none raises."""
    _require_match(datum, pres)
    problems: list[str] = []
    graph = pres.graph
    for v in validate_graph(graph):
        problems.append(f"{GRAPH}: {v}")

    masses = total_mass(graph, pres.theta)
    unbalanced = list(unbalanced_vertices(graph, pres.theta))
    negative = {i for row in pres.theta.integral[1] for i, x in enumerate(row) if x < 0}
    for i, name in enumerate(datum.names):
        if i in negative:
            problems.append(f"{THETA_NEGATIVE}: map {name} has a negative weight")
        for k, into, outof in unbalanced:
            if into[i] != outof[i]:
                problems.append(
                    f"{THETA_BALANCE}: map {name} unbalanced at {graph.describe_vertex(k)} "
                    f"(in {into[i]}, out {outof[i]})"
                )
        if masses[i] != datum.exponents[i]:
            problems.append(
                f"{THETA_MASS}: map {name} has total mass {masses[i]}, expected {datum.exponents[i]}"
            )

    if any(v.ambient != graph.ambient for v in graph.vertices):
        # validate_graph has named these vertices; the maps cannot take them.
        return VerificationReport(masses, (), Fraction(0), tuple(problems), False)

    sigma = summary_weight(datum, pres)
    for k, (into,), (outof,) in unbalanced_vertices(graph, sigma):
        problems.append(
            f"{SIGMA_BALANCE}: summary weight unbalanced at {graph.describe_vertex(k)} "
            f"(in {into}, out {outof})"
        )
    sigma_mass = total_mass(graph, sigma)[0]
    if sigma_mass != 1:
        problems.append(f"{SIGMA_MASS}: summary weight has total mass {sigma_mass}, expected 1")

    return VerificationReport(
        map_masses=masses,
        sigma=tuple(x for (x,) in sigma.values),
        sigma_mass=sigma_mass,
        problems=tuple(problems),
        valid=not problems,
    )


def edge_norm_squared(datum: HBLDatum, pres: Presentation, i: int, edge: int) -> Fraction:
    """Squared scale factor relating an edge's new direction to its image direction.

    With w any nonzero vector of V2 cap V1-perp (one-dimensional, so unique up
    to sign) the value is |P-perp pi_i(w)|^2 / |w|^2, where P-perp projects
    onto the complement of pi_i(V1). The ratio is scale-invariant in w, so the
    line's primitive integer vector works and no square roots appear, and
    `off_image_ratio` takes it as a ratio of Gram determinants. The map must
    distinguish the edge: its endpoints' image dimensions, read off the
    datum's table, must differ.
    """
    a, b = pres.graph.edges[edge]
    v1, v2 = pres.graph.vertices[a], pres.graph.vertices[b]
    if datum.image_dims(v1)[i] == datum.image_dims(v2)[i]:
        raise ValueError(f"map {datum.names[i]} does not distinguish the endpoints of edge {edge}")
    return off_image_ratio(datum.maps[i], v1, _new_direction(v1, v2))


def _new_direction(low: Subspace, high: Subspace) -> tuple[int, ...]:
    """A primitive integer vector spanning the line high cap low-perp."""
    line = low.perp_in(high)
    if line.dim != 1:
        raise ValueError("edge does not raise dimension by one")
    return line.echelon[0]


class BoundFactor(NamedTuple):
    map_index: int
    edge: int
    base: Fraction      # squared edge norm
    exponent: Fraction  # -theta_i(e)/2, so base**exponent = |pi_i . e|^(-theta_i(e))


class BoundCertificate(NamedTuple):
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
    report = verify_presentation(datum, pres)
    if not report.valid:
        raise ValueError("bound_constant requires a valid presentation: " + "; ".join(report.problems))
    return _certificate(datum, pres)


def _certificate(datum: HBLDatum, pres: Presentation) -> BoundCertificate:
    """bound_constant on a presentation that verify_presentation has found valid.

    Each weighted edge takes its primitive new direction w once; each weighted
    map's base is then one Gram-determinant ratio in integers
    (`off_image_ratio`), with no image subspace or image line formed.
    """
    graph, theta = pres.graph, pres.theta
    factors = []
    for k, ((a, b), maps) in enumerate(zip(graph.edges, _distinguishing(datum, graph))):
        weighted = [i for i in maps if theta.values[k][i] != 0]
        if not weighted:
            continue
        v1 = graph.vertices[a]
        w = _new_direction(v1, graph.vertices[b])
        for i in weighted:
            factors.append(BoundFactor(i, k, off_image_ratio(datum.maps[i], v1, w),
                                       -theta.values[k][i] / 2))
    factors.sort(key=lambda f: (f.map_index, f.base, f.exponent, f.edge))
    value = 1.0
    for f in factors:
        value *= float(f.base) ** float(f.exponent)
    exact_one = all(f.base == 1 for f in factors)
    return BoundCertificate(tuple(factors), value, exact_one)


def export_dot(datum: HBLDatum, pres: Presentation) -> str:
    """Deterministic DOT rendering; starred entries mark distinguishing maps.
    Raises ValueError on a presentation not over the datum's space and maps."""
    _require_match(datum, pres)
    graph = pres.graph
    dist = _distinguishing(datum, graph)
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
