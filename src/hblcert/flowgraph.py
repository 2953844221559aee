"""Graph decompositions of a vector space and balanced edge weights.

A graph decomposition is a directed graph whose vertices are subspaces,
containing {0} and the full space, where every edge raises dimension by
exactly one with containment and every intermediate vertex has both an
incoming and an outgoing edge. Balanced weights on such graphs decompose
exactly into nonnegative combinations of maximal-chain indicators, and both
graphs and weights can be pushed forward through a linear map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from hblcert.linalg import Matrix, Subspace, frac, image, ordered


class _GraphFields(NamedTuple):
    ambient: int
    vertices: tuple[Subspace, ...]
    edges: tuple[tuple[int, int], ...]


class GraphDecomposition(_GraphFields):
    """Directed graph on subspaces, canonically ordered.

    Vertices are sorted by (dimension, lexicographic basis) and edges by
    (from, to) index, so isomorphic inputs produce identical values.
    """

    @staticmethod
    def build(
        ambient: int,
        vertices: Iterable[Subspace],
        edge_pairs: Iterable[tuple[Subspace, Subspace]] = (),
    ) -> GraphDecomposition:
        """Canonical graph from subspaces and (source, target) subspace pairs."""
        unique = ordered(set(vertices))
        idx = {v: i for i, v in enumerate(unique)}
        edges = set()
        for a, b in edge_pairs:
            if a not in idx or b not in idx:
                raise ValueError("edge endpoint is not a vertex")
            edges.add((idx[a], idx[b]))
        return GraphDecomposition(ambient, tuple(unique), tuple(sorted(edges)))

    @cached_property
    def incoming(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in self.vertices]
        for k, (_, b) in enumerate(self.edges):
            inc[b].append(k)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def outgoing(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.vertices]
        for k, (a, _) in enumerate(self.edges):
            out[a].append(k)
        return tuple(tuple(x) for x in out)

    @cached_property
    def zero_vertex(self) -> int | None:
        for i, v in enumerate(self.vertices):
            if v.is_zero():
                return i
        return None

    @cached_property
    def full_vertex(self) -> int | None:
        for i, v in enumerate(self.vertices):
            if v.is_full():
                return i
        return None

    def describe_vertex(self, i: int) -> str:
        v = self.vertices[i]
        if v.is_zero():
            return "0"
        if v.is_full():
            return f"R^{v.ambient}"
        rows = ["[" + " ".join(str(x) for x in r) + "]" for r in v.basis_rows()]
        return "span{" + ",".join(rows) + "}"


def validate_graph(graph: GraphDecomposition) -> list[str]:
    """All graph-decomposition axiom violations, empty iff the graph is valid."""
    problems: list[str] = []
    for i, v in enumerate(graph.vertices):
        if v.ambient != graph.ambient:
            problems.append(f"vertex {i} has ambient {v.ambient}, graph has {graph.ambient}")
    if graph.zero_vertex is None:
        problems.append("missing the zero subspace")
    if graph.full_vertex is None:
        problems.append("missing the full space")
    if len(set(graph.vertices)) != len(graph.vertices):
        problems.append("duplicate vertices")
    if len(set(graph.edges)) != len(graph.edges):
        problems.append("duplicate edges")
    for k, (a, b) in enumerate(graph.edges):
        va, vb = graph.vertices[a], graph.vertices[b]
        if vb.dim != va.dim + 1:
            problems.append(
                f"edge {k} ({graph.describe_vertex(a)} -> {graph.describe_vertex(b)}) "
                f"jumps dimension {va.dim} to {vb.dim}"
            )
        elif va.ambient == vb.ambient and not va <= vb:
            problems.append(
                f"edge {k} ({graph.describe_vertex(a)} -> {graph.describe_vertex(b)}) "
                "source is not contained in target"
            )
    for i, v in enumerate(graph.vertices):
        if not v.is_zero() and not graph.incoming[i]:
            problems.append(f"vertex {graph.describe_vertex(i)} lacks an incoming edge")
        if not v.is_full() and not graph.outgoing[i]:
            problems.append(f"vertex {graph.describe_vertex(i)} lacks an outgoing edge")
    return problems


class _WeightFields(NamedTuple):
    width: int
    values: tuple[tuple[Fraction, ...], ...]


class WeightFunction(_WeightFields):
    """Vector-valued edge weights; scalar weights have width 1."""

    def __new__(cls, width: int, values: tuple[tuple[Fraction, ...], ...]) -> WeightFunction:
        values = tuple(tuple(map(frac, vec)) for vec in values)
        for vec in values:
            if len(vec) != width:
                raise ValueError("weight vector width mismatch")
        return super().__new__(cls, width, values)

    @staticmethod
    def scalar(values: Sequence) -> WeightFunction:
        return WeightFunction(1, tuple((x,) for x in values))

    @cached_property
    def integral(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, rows): D the lcm of the entries' denominators and rows the
        entries times D, the integer form the sums and checks run on."""
        den = lcm(*(x.denominator for vec in self.values for x in vec))
        return den, tuple(tuple(x.numerator * (den // x.denominator) for x in vec)
                          for vec in self.values)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for vec in self.integral[1] for x in vec)


def _check_sizes(graph: GraphDecomposition, weight: WeightFunction) -> None:
    if len(weight.values) != len(graph.edges):
        raise ValueError(
            f"weight has {len(weight.values)} entries for {len(graph.edges)} edges"
        )


def _edge_sum(rows: Sequence[Sequence[int]], edges: Sequence[int], width: int) -> tuple[int, ...]:
    """The componentwise sum of the integer rows of the given edges."""
    return tuple(map(sum, zip(*(rows[k] for k in edges)))) if edges else (0,) * width


def unbalanced_vertices(graph: GraphDecomposition, weight: WeightFunction
                        ) -> Iterator[tuple[int, tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """(vertex, in-sum, out-sum) at each vertex other than {0} and H where the
    componentwise sums differ, in vertex order; the sums are taken over the
    weight's integer form and only the differing ones become Fractions."""
    _check_sizes(graph, weight)
    den, rows = weight.integral
    for i, v in enumerate(graph.vertices):
        if v.is_zero() or v.is_full():
            continue
        into = _edge_sum(rows, graph.incoming[i], weight.width)
        outof = _edge_sum(rows, graph.outgoing[i], weight.width)
        if into != outof:
            yield (i, tuple(Fraction(x, den) for x in into),
                   tuple(Fraction(x, den) for x in outof))


def is_balanced(graph: GraphDecomposition, weight: WeightFunction) -> bool:
    """True iff in-sum equals out-sum at every vertex other than {0} and H."""
    return next(unbalanced_vertices(graph, weight), None) is None


def _require_balanced(graph: GraphDecomposition, weight: WeightFunction) -> None:
    """Raise naming the first graph axiom violation, else the first vertex
    where in-sum and out-sum differ."""
    problems = validate_graph(graph)
    if problems:
        raise ValueError("not a graph decomposition: " + problems[0])
    off = next(unbalanced_vertices(graph, weight), None)
    if off is not None:
        raise ValueError(f"weight is not balanced at {graph.describe_vertex(off[0])}")


def total_mass(graph: GraphDecomposition, weight: WeightFunction) -> tuple[Fraction, ...]:
    """Componentwise sum of the weight over edges outgoing from {0}."""
    _check_sizes(graph, weight)
    den, rows = weight.integral
    z = graph.zero_vertex
    mass = _edge_sum(rows, () if z is None else graph.outgoing[z], weight.width)
    return tuple(Fraction(x, den) for x in mass)


class ChainTerm(NamedTuple):
    component: int
    coefficient: Fraction
    edges: tuple[int, ...]  # edge indices ordered from {0} to the full space


class ChainDecomposition(NamedTuple):
    terms: tuple[ChainTerm, ...]


def decompose_flow(graph: GraphDecomposition, weight: WeightFunction) -> ChainDecomposition:
    """Write a balanced nonnegative weight as chain indicators times coefficients.

    Repeatedly subtracts the globally minimal positive entry along a maximal
    chain through its edge; every step zeroes at least one entry, and the
    reconstruction sum(coefficient over terms of component j containing e)
    equals the weight exactly. The peeling runs on the weight's integer rows
    (`integral`), and only the coefficients become Fractions.

    Tie-breaking is deterministic: among equal minimal entries the lowest
    edge index wins, then the lowest component, and chain extension picks
    the lowest-index eligible edge.
    """
    _check_sizes(graph, weight)
    if not weight.is_nonnegative():
        raise ValueError("weight has a negative entry")
    _require_balanced(graph, weight)
    den, rows = weight.integral
    values = [list(vec) for vec in rows]
    terms: list[ChainTerm] = []
    while True:
        least = min(((x, k, j) for k, vec in enumerate(values) for j, x in enumerate(vec)
                     if x > 0), default=None)
        if least is None:
            break
        delta, k0, j = least
        chain = [k0]
        tail, head = graph.edges[k0]
        # Extend backward to {0} along positive j-components.
        while not graph.vertices[tail].is_zero():
            k = next(e for e in graph.incoming[tail] if values[e][j] > 0)
            chain.insert(0, k)
            tail = graph.edges[k][0]
        # Extend forward to the full space.
        while not graph.vertices[head].is_full():
            k = next(e for e in graph.outgoing[head] if values[e][j] > 0)
            chain.append(k)
            head = graph.edges[k][1]
        for k in chain:
            values[k][j] -= delta
        terms.append(ChainTerm(j, Fraction(delta, den), tuple(chain)))
    return ChainDecomposition(tuple(terms))


def _surjective_chart(map_: Matrix) -> Matrix:
    """Compose the map with the pivot chart of its image.

    The result has full row rank and the same effect on all dimension counts;
    for surjective maps it is the map itself.
    """
    img = image(map_, Subspace.full(map_.cols))
    if img.is_full():
        return map_
    return Matrix.from_rows([map_.row(p) for p in img.pivots], map_.cols)


def project_graph(graph: GraphDecomposition, map_: Matrix
                  ) -> tuple[GraphDecomposition, tuple[int | None, ...]]:
    """Pushforward graph decomposition of the image space.

    Vertices are the distinct images of the original vertices, and two
    unequal images are joined when some original edge joins preimages of
    them. The image space is expressed in its pivot chart so the result is a
    graph decomposition in its own right. The second return value maps each
    original edge to its projected edge, or None when the endpoints project
    to the same subspace.
    """
    if map_.cols != graph.ambient:
        raise ValueError("map domain does not match graph ambient")
    surj = _surjective_chart(map_)
    images = [image(surj, v) for v in graph.vertices]
    pairs = [(images[a], images[b]) for a, b in graph.edges]
    projected = GraphDecomposition.build(surj.rows, images, [p for p in pairs if p[0] != p[1]])
    at = {v: k for k, v in enumerate(projected.vertices)}
    edge_at = {e: k for k, e in enumerate(projected.edges)}
    return projected, tuple(None if u == w else edge_at[(at[u], at[w])] for u, w in pairs)


def pushforward(graph: GraphDecomposition, weight: WeightFunction, map_: Matrix
                ) -> tuple[GraphDecomposition, tuple[int | None, ...], WeightFunction]:
    """project_graph(graph, map) and the summed pushforward of a balanced
    weight onto it.

    The input must be balanced; balance and total mass are then preserved,
    and checked on the result. A rank-zero map is the one degenerate
    exception: its image graph is the single vertex {0} = H with no edges,
    so the pushforward is empty and carries no mass.
    """
    # A map of the wrong domain is reported before any problem of the graph.
    projected, edge_map = project_graph(graph, map_)
    _require_balanced(graph, weight)
    den, rows = weight.integral
    sums = [(0,) * weight.width for _ in projected.edges]
    for k, target in enumerate(edge_map):
        if target is not None:
            sums[target] = tuple(map(add, sums[target], rows[k]))
    result = WeightFunction(weight.width, tuple(tuple(Fraction(x, den) for x in v) for v in sums))
    if not is_balanced(projected, result):
        raise ValueError("projected weight lost balance")
    if projected.ambient > 0 and total_mass(projected, result) != total_mass(graph, weight):
        raise ValueError("projected weight changed total mass")
    return projected, edge_map, result


def project_weight(graph: GraphDecomposition, weight: WeightFunction, map_: Matrix
                   ) -> WeightFunction:
    """The weight of pushforward(graph, weight, map)."""
    return pushforward(graph, weight, map_)[2]
