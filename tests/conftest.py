"""Shared deterministic generators for randomized suites."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hblcert.builder import (
    BuildError,
    _tight,
    as_point,
    polytope_from_candidates,
)
from hblcert.data import HBLDatum, subspace_slack, transform_datum
from hblcert.fixtures import loomis_whitney_datum
from hblcert.flowgraph import GraphDecomposition, WeightFunction, validate_graph
from hblcert.linalg import (
    Matrix,
    Subspace,
    _echelon,
    _null_space,
    canonicalize,
    frac,
    image,
    kernel,
)
from hblcert.presentation import BoundCertificate, BoundFactor, VerificationReport


def apply(m: Matrix, vec) -> tuple[Fraction, ...]:
    """Reference matrix-vector product m(vec), entry by entry in Fractions."""
    if len(vec) != m.cols:
        raise ValueError("vector length does not match column count")
    return tuple(sum((m[i, k] * vec[k] for k in range(m.cols)), Fraction(0))
                 for i in range(m.rows))


def product(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """Reference matrix product a b, entry by entry in Fractions."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
            for i in range(a.rows)]


def reference_extremes(poly) -> tuple[tuple[Fraction, ...], ...]:
    """Reference vertex enumeration: solve every n-subset of rows that holds
    the equality rows, and keep the solutions that satisfy every row."""
    n = poly.n
    eq_rows = [r for r in poly.rows if r.equality][:n]  # more are redundant or infeasible
    ineq_rows = [r for r in poly.rows if not r.equality]
    points = set()
    for combo in itertools.combinations(ineq_rows, n - len(eq_rows)):
        reduced, pivots = _echelon([(*r.coeffs, r.rhs) for r in eq_rows + list(combo)], n + 1)
        if len(reduced) != n or pivots != list(range(n)):
            continue  # singular, or no solution
        tau = tuple(Fraction(row[n], row[i]) for i, row in enumerate(reduced))
        if poly.member(tau) is None:
            points.add(tau)
    return tuple(sorted(points))


def fraction_slack(datum, v) -> Fraction:
    """Reference slack sum_i tau_i dim pi_i(V) - dim V, one Fraction product per map."""
    return sum((t * image(m, v).dim for t, m in zip(datum.exponents, datum.maps)),
               Fraction(0)) - v.dim


def check_scaling(datum: HBLDatum) -> tuple[bool, Fraction, Fraction]:
    """Scaling equality dim H = sum_i tau_i rank(pi_i); returns (holds, lhs, rhs)."""
    slack = subspace_slack(datum, Subspace.full(datum.dim))
    return slack == 0, Fraction(datum.dim), datum.dim + slack


def reference_violation(datum, lattice) -> tuple[Subspace, Fraction] | None:
    """Reference violation: H and its slack if the scaling equality fails,
    else the first member of negative slack in stored order, or None."""
    full = Subspace.full(datum.dim)
    if fraction_slack(datum, full) != 0:
        return full, fraction_slack(datum, full)
    slacks = ((v, fraction_slack(datum, v)) for v in lattice.subspaces)
    return next(((v, slack) for v, slack in slacks if slack < 0), None)


def reference_critical(datum, lattice) -> list[Subspace]:
    """Reference critical subspaces: the proper nonzero members of zero
    slack, sorted by dimension, then by their Fraction RREF basis entries."""
    return sorted((v for v in lattice.subspaces
                   if 0 < v.dim < datum.dim and fraction_slack(datum, v) == 0),
                  key=lambda v: (v.dim, v.basis.entries))


def scan(datum, lattice) -> tuple[tuple[Subspace, Fraction] | None, list[Subspace]]:
    """The candidate polytope's row scan at the datum's exponents, in the
    references' terms: the first violated row's subspace and slack, or None,
    and the subspaces of its critical rows."""
    poly = polytope_from_candidates(datum, lattice)
    point = as_point(datum.exponents)
    gaps = list(poly.gaps(point))
    violated = poly.violated(gaps)
    if violated is not None:
        row, gap = violated
        violated = row.subspace, Fraction(gap, point[0])
    return violated, [row.subspace for row in poly.criticals(gaps)]


def reference_summary(datum, pres) -> tuple[tuple[Fraction], ...]:
    """Reference summary weight: per edge, theta_i(e) summed over the maps
    under which the endpoints' image subspaces are unequal."""
    graph = pres.graph
    return tuple(
        (sum((row[i] for i, m in enumerate(datum.maps)
              if image(m, graph.vertices[a]) != image(m, graph.vertices[b])), Fraction(0)),)
        for (a, b), row in zip(graph.edges, pres.theta.values))


def reference_certificate(datum, pres) -> BoundCertificate:
    """Reference constant by the image-line formula, in Fractions. For a map
    with theta_i(e) != 0 whose images of the endpoints V1 < V2 differ, the
    residual of pi_i(w) off pi_i(V1), w spanning V2 cap V1-perp, lies on the
    image edge's line d = pi_i(V2) cap pi_i(V1)-perp, so the base is
    (pi_i(w) . d)^2 / (|d|^2 |w|^2). Factors are sorted and multiplied as
    `bound_constant` does."""
    graph, theta = pres.graph, pres.theta
    factors = []
    for k, (a, b) in enumerate(graph.edges):
        v1, v2 = graph.vertices[a], graph.vertices[b]
        w = (v2 & v1.perp()).basis.row(0)
        for i, m in enumerate(datum.maps):
            low, high = image(m, v1), image(m, v2)
            if low == high or theta.values[k][i] == 0:
                continue
            d = (high & low.perp()).basis.row(0)
            along = sum((x * y for x, y in zip(apply(m, w), d)), Fraction(0))
            factors.append(BoundFactor(i, k, along * along / (norm_sq(d) * norm_sq(w)),
                                       -theta.values[k][i] / 2))
    factors.sort(key=lambda f: (f.map_index, f.base, f.exponent, f.edge))
    value = 1.0
    for f in factors:
        value *= float(f.base) ** float(f.exponent)
    return BoundCertificate(tuple(factors), value, all(f.base == 1 for f in factors))


def reference_convex_combine(terms) -> dict:
    """Reference mix of edge tables, entry by entry in Fractions: each part's
    rows times its coefficient, added into the rows met so far, with an
    edge absent from a part contributing zero."""
    mixed = {}
    for c, edges in terms:
        c = Fraction(c)
        for edge, row in edges.items():
            mixed[edge] = tuple(a + c * x for a, x in zip(mixed.get(edge, (0,) * len(row)), row))
    return mixed


def fraction_point(point) -> tuple[Fraction, ...]:
    """The builder's exponent point (D, N) as the vector of Fractions N / D."""
    den, nums = point
    return tuple(Fraction(x, den) for x in nums)


def fraction_terms(decomposition) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    """The terms of a Caratheodory decomposition, each point as its Fraction vector."""
    return tuple((c, fraction_point(p)) for c, p in decomposition.terms)


def reference_reduce(n: int, terms) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Reference trimming of a convex combination of Fraction points: merge
    equal points, sort them, and eliminate affine dependences, in Fractions,
    until at most n+1 terms are left."""
    merged: dict[tuple[Fraction, ...], Fraction] = {}
    for c, p in terms:
        if c != 0:
            merged[p] = merged.get(p, Fraction(0)) + c
    points = sorted(merged)
    coeffs = [merged[p] for p in points]
    while len(points) > n + 1:
        mat = Matrix.from_rows([list(p) + [Fraction(1)] for p in points], cols=n + 1)
        dep = kernel(mat.transpose())
        if dep.dim == 0:
            raise BuildError("more than n+1 vertices without an affine dependence")
        lam = list(dep.basis.row(0))
        step = min(c / l for c, l in zip(coeffs, lam) if l > 0)
        coeffs = [c - step * l for c, l in zip(coeffs, lam)]
        keep = [k for k, c in enumerate(coeffs) if c != 0]
        points = [points[k] for k in keep]
        coeffs = [coeffs[k] for k in keep]
    return list(zip(coeffs, points))


def reference_caratheodory(poly, tau) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    """Reference Caratheodory terms of a member point, in Fractions: the
    bisection, each end point's row gaps and tight rows formed afresh from
    the polytope, then the reference trimming of the combination."""
    tau = tuple(Fraction(t) for t in tau)

    def split(point):
        ints = as_point(point)
        den, gaps = ints[0], list(poly.gaps(ints))
        null = _null_space(*_tight(poly, gaps), poly.n)
        if null.dim == 0:
            return [(Fraction(1), point)]
        direction = null.echelon[0]

        def max_step(sign):
            limits = [Fraction(gap, -speed * den) for row, gap in zip(poly.rows, gaps)
                      if not row.equality and gap != 0
                      for speed in [sign * sum(c * d for c, d in zip(row.coeffs, direction))]
                      if speed < 0]
            if not limits:
                raise BuildError("unbounded direction in exponent polytope")
            return min(limits)

        s_plus, s_minus = max_step(+1), max_step(-1)
        hi = tuple(t + s_plus * d for t, d in zip(point, direction))
        lo = tuple(t - s_minus * d for t, d in zip(point, direction))
        lam = s_minus / (s_plus + s_minus)
        return [(weight * c, vertex) for weight, end in ((lam, hi), (1 - lam, lo))
                for c, vertex in split(end)]

    return tuple(reference_reduce(poly.n, split(tau)))


def reference_total_mass(graph, weight) -> tuple[Fraction, ...]:
    """Reference total mass: the Fraction rows of the edges out of {0}, summed."""
    mass = (Fraction(0),) * weight.width
    if graph.zero_vertex is not None:
        for k in graph.outgoing[graph.zero_vertex]:
            mass = tuple(a + b for a, b in zip(mass, weight.values[k]))
    return mass


def reference_decompose_flow(graph, weight) -> list[tuple[int, Fraction, tuple[int, ...]]]:
    """Reference chain peeling in Fractions: (component, coefficient, edges)
    per step, taking the least positive entry, the first such in edge-major
    order, and extending its chain along the lowest-index positive edges."""
    values = [list(vec) for vec in weight.values]
    terms = []
    while any(x > 0 for vec in values for x in vec):
        delta = min(x for vec in values for x in vec if x > 0)
        k0, j = next((k, j) for k, vec in enumerate(values)
                     for j, x in enumerate(vec) if x == delta)
        chain = [k0]
        tail, head = graph.edges[k0]
        while not graph.vertices[tail].is_zero():
            chain.insert(0, next(e for e in graph.incoming[tail] if values[e][j] > 0))
            tail = graph.edges[chain[0]][0]
        while not graph.vertices[head].is_full():
            chain.append(next(e for e in graph.outgoing[head] if values[e][j] > 0))
            head = graph.edges[chain[-1]][1]
        for k in chain:
            values[k][j] -= delta
        terms.append((j, delta, tuple(chain)))
    return terms


def reference_unbalanced(graph, weight) -> list[tuple[int, tuple, tuple]]:
    """Reference (vertex, in-sum, out-sum) at each unbalanced inner vertex, in Fractions."""
    out = []
    for i, v in enumerate(graph.vertices):
        if v.is_zero() or v.is_full():
            continue
        into = outof = (Fraction(0),) * weight.width
        for k in graph.incoming[i]:
            into = tuple(a + b for a, b in zip(into, weight.values[k]))
        for k in graph.outgoing[i]:
            outof = tuple(a + b for a, b in zip(outof, weight.values[k]))
        if into != outof:
            out.append((i, into, outof))
    return out


def reference_verify(datum, pres) -> VerificationReport:
    """Reference verification report, every sum and test in Fractions, with
    the problem strings of `verify_presentation`."""
    if datum.dim != pres.graph.ambient or pres.theta.width != datum.n_maps:
        raise ValueError("reference_verify takes presentations over the datum's space and maps")
    graph, theta = pres.graph, pres.theta
    problems = [f"graph: {v}" for v in validate_graph(graph)]
    masses = reference_total_mass(graph, theta)
    unbalanced = reference_unbalanced(graph, theta)
    for i, name in enumerate(datum.names):
        if any(row[i] < 0 for row in theta.values):
            problems.append(f"theta-negative: map {name} has a negative weight")
        problems += [f"theta-balance: map {name} unbalanced at {graph.describe_vertex(k)} "
                     f"(in {into[i]}, out {outof[i]})"
                     for k, into, outof in unbalanced if into[i] != outof[i]]
        if masses[i] != datum.exponents[i]:
            problems.append(f"theta-mass: map {name} has total mass {masses[i]}, "
                            f"expected {datum.exponents[i]}")
    sigma = WeightFunction(1, reference_summary(datum, pres))
    problems += [f"sigma-balance: summary weight unbalanced at {graph.describe_vertex(k)} "
                 f"(in {into}, out {outof})"
                 for k, (into,), (outof,) in reference_unbalanced(graph, sigma)]
    sigma_mass = reference_total_mass(graph, sigma)[0]
    if sigma_mass != 1:
        problems.append(f"sigma-mass: summary weight has total mass {sigma_mass}, expected 1")
    return VerificationReport(masses, sigma.component(0), sigma_mass,
                              tuple(problems), not problems)


def norm_sq(v) -> Fraction:
    """Reference squared Euclidean length, in Fractions."""
    return sum((Fraction(x) * x for x in v), Fraction(0))


def identity(n: int) -> Matrix:
    """The n x n identity matrix."""
    return Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def weight_rows(rows, width: int) -> WeightFunction:
    """A weight function from rows of ints, Fractions or strings like "1/2"."""
    return WeightFunction(width, tuple(tuple(frac(x) for x in row) for row in rows))


def zero_weights(n_edges: int, width: int) -> WeightFunction:
    """The weight function that is zero on every edge."""
    return WeightFunction(width, ((Fraction(0),) * width,) * n_edges)


def rand_fraction(rng: random.Random, lo: int = -3, hi: int = 3, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_nonneg_fraction(rng: random.Random, hi: int = 3, den: int = 4) -> Fraction:
    return Fraction(rng.randint(0, hi), rng.randint(1, den))


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int = -2, hi: int = 2) -> Matrix:
    return Matrix.from_rows(
        [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_invertible(rng: random.Random, n: int, shears: int = 6) -> Matrix:
    """Unimodular matrix built from row shears and swaps; det is +-1."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[0] = [-x for x in rows[0]]
    return Matrix.from_rows(rows, cols=n)


def transformed_lw4(seed: int = 7) -> HBLDatum:
    """Loomis-Whitney in R^5 under a seeded unimodular change of variables
    and of each map's codomain."""
    rng = random.Random(seed)
    t = random_invertible(rng, 5, shears=10)
    s_list = [random_invertible(rng, 4, shears=4) for _ in range(5)]
    return transform_datum(loomis_whitney_datum(4), t, s_list)


def random_signed_permutation(rng: random.Random, n: int) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for i in range(n):
        sign = rng.choice([Fraction(1), Fraction(-1)])
        rows.append([sign if j == perm[i] else Fraction(0) for j in range(n)])
    return Matrix.from_rows(rows, cols=n)


def random_subspace(rng: random.Random, ambient: int, max_dim: int | None = None) -> Subspace:
    k = rng.randint(0, max_dim if max_dim is not None else ambient)
    return canonicalize(random_matrix(rng, k, ambient)) if k else Subspace.zero(ambient)


def random_flag(rng: random.Random, ambient: int) -> list[Subspace]:
    """Complete flag {0} = V_0 < V_1 < ... < V_m = full space."""
    while True:
        t = random_invertible(rng, ambient, shears=ambient + 3)
        if kernel(t).dim == 0:
            break
    rows = [t.row(i) for i in range(t.rows)]
    return [canonicalize(Matrix.from_rows(rows[:k], cols=ambient)) if k else Subspace.zero(ambient)
            for k in range(ambient + 1)]


def random_flag_graph(rng: random.Random, ambient: int, n_flags: int
                      ) -> tuple[GraphDecomposition, list[list[Subspace]]]:
    """Union of complete flags; always a graph decomposition."""
    flags = [random_flag(rng, ambient) for _ in range(n_flags)]
    vertices = {v for flag in flags for v in flag}
    pairs = [(flag[k], flag[k + 1]) for flag in flags for k in range(ambient)]
    return GraphDecomposition.build(ambient, vertices, pairs), flags


def random_balanced_weight(rng: random.Random, graph: GraphDecomposition,
                           flags: list[list[Subspace]], width: int) -> WeightFunction:
    """Nonnegative combination of flag-chain indicators, hence balanced."""
    values = [[Fraction(0)] * width for _ in graph.edges]
    for flag in flags:
        for j in range(width):
            c = rand_nonneg_fraction(rng)
            if c == 0:
                continue
            for k in range(len(flag) - 1):
                a = graph.vertex_index[flag[k]]
                b = graph.vertex_index[flag[k + 1]]
                values[graph.edge_index[(a, b)]][j] += c
    return WeightFunction(width, tuple(tuple(v) for v in values))
