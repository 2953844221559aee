"""Constructs a valid presentation from data satisfying the dimension
inequalities over a candidate family.

The construction is a recursion on ambient dimension: dimension one is a
single edge carrying the exponents; a non-extreme exponent vector is split
into extreme points of the candidate polytope and the results convexly
combined; at an extreme point a critical subspace (zero slack, proper) pivots
the problem into a restriction to V and a quotient onto V-perp whose
presentations concatenate. The top-level result is verified exactly, so an
impoverished candidate family can only cause an explicit failure, never a
wrong certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from hblcert.data import (
    CandidateLattice,
    HBLDatum,
    check_scaling,
    find_critical,
    find_violation,
    generate_lattice,
    quotient_datum,
    restrict_datum,
    subspace_slack,
)
from hblcert.flowgraph import GraphDecomposition, WeightFunction
from hblcert.linalg import (
    Matrix,
    Subspace,
    _echelon,
    _over_common_denominator,
    image,
    kernel,
    span,
)
from hblcert.presentation import Presentation, verify_presentation


class BuildError(Exception):
    """Raised when no certificate can be constructed; message says why."""


@dataclass(frozen=True)
class PolytopeRow:
    """The constraint coeffs . tau >= rhs (== rhs if `equality`), in integers."""

    coeffs: tuple[int, ...]
    rhs: int
    equality: bool
    provenance: str

    def _gap(self, scaled: tuple[int, tuple[int, ...]]) -> int:
        """D * (coeffs . tau - rhs), for tau = n / D given as scaled = (D, n)."""
        den, nums = scaled
        return sum(map(mul, self.coeffs, nums)) - self.rhs * den

    def _holds(self, scaled: tuple[int, tuple[int, ...]]) -> bool:
        gap = self._gap(scaled)
        return gap == 0 if self.equality else gap >= 0

    def evaluate(self, tau) -> Fraction:
        den, nums = _over_common_denominator(tau)
        return Fraction(sum(map(mul, self.coeffs, nums)), den)

    def satisfied(self, tau) -> bool:
        return self._holds(_over_common_denominator(tau))

    def tight(self, tau) -> bool:
        return self._gap(_over_common_denominator(tau)) == 0


@dataclass(frozen=True)
class ExponentPolytope:
    n: int
    rows: tuple[PolytopeRow, ...]

    def member(self, tau) -> PolytopeRow | None:
        """None if tau satisfies every row, else the first violated row."""
        scaled = _over_common_denominator(tau)
        for row in self.rows:
            if not row._holds(scaled):
                return row
        return None


@dataclass(frozen=True)
class ExtremeSet:
    points: tuple[tuple[Fraction, ...], ...]
    truncated: bool

    @property
    def infeasible(self) -> bool:
        return not self.points and not self.truncated


@dataclass(frozen=True)
class ExtremeDecomposition:
    terms: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]  # (coefficient, extreme tau)


def polytope_from_candidates(datum: HBLDatum, candidates: CandidateLattice) -> ExponentPolytope:
    """One >=-row per proper candidate, an =-row for H, and box rows 0<=tau<=1."""
    n = datum.n_maps
    rows: list[PolytopeRow] = []
    for v in candidates.subspaces:
        if v.dim == 0:
            continue  # vacuous row
        rows.append(PolytopeRow(datum.image_dims(v), v.dim, v.is_full(),
                                f"dim-{v.dim} candidate"))
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        rows.append(PolytopeRow(unit, 0, False, f"tau{i + 1} >= 0"))
        neg = tuple(-1 if j == i else 0 for j in range(n))
        rows.append(PolytopeRow(neg, -1, False, f"tau{i + 1} <= 1"))
    return ExponentPolytope(n, tuple(rows))


def _solve_square(rows: list[PolytopeRow], n: int) -> tuple[Fraction, ...] | None:
    """Exact solution of n tight rows, or None when the system is singular."""
    reduced, pivots = _echelon([(*r.coeffs, r.rhs) for r in rows], n + 1)
    if len(reduced) != n or pivots != list(range(n)):
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(reduced))


def enumerate_extremes(poly: ExponentPolytope, cap: int = 200_000) -> ExtremeSet:
    """Exact vertex enumeration by solving all n-subsets of tight rows.

    Subsets must contain every equality row; cap bounds how many subsets are
    examined and is reported through `truncated`.
    """
    n = poly.n
    eq_rows = [r for r in poly.rows if r.equality]
    ineq_rows = [r for r in poly.rows if not r.equality]
    if len(eq_rows) > n:
        eq_rows = eq_rows[:n]  # extra equalities are either redundant or infeasible
    need = n - len(eq_rows)
    points: set[tuple[Fraction, ...]] = set()
    examined = 0
    truncated = False
    for combo in itertools.combinations(range(len(ineq_rows)), need):
        examined += 1
        if examined > cap:
            truncated = True
            break
        rows = eq_rows + [ineq_rows[k] for k in combo]
        tau = _solve_square(rows, n)
        if tau is None:
            continue
        if poly.member(tau) is None:
            points.add(tau)
    return ExtremeSet(tuple(sorted(points)), truncated)


def _tight_rank(poly: ExponentPolytope, tau) -> int:
    scaled = _over_common_denominator(tau)
    return len(_echelon([r.coeffs for r in poly.rows if r._gap(scaled) == 0], poly.n)[1])


def is_extreme(poly: ExponentPolytope, tau) -> bool:
    """tau is a vertex iff its tight rows span the full exponent space."""
    if poly.member(tau) is not None:
        raise ValueError("tau is not a member of the polytope")
    return _tight_rank(poly, tau) == poly.n


def caratheodory(poly: ExponentPolytope, tau) -> ExtremeDecomposition:
    """Exact convex decomposition of a member point into at most n+1 vertices.

    Walks tight-set bisections down to vertices, then trims the combination
    by eliminating affine dependences; every step is rational arithmetic and
    the reconstruction sum c_k tau_k = tau is verified before returning.
    """
    tau = tuple(Fraction(t) for t in tau)
    violated = poly.member(tau)
    if violated is not None:
        raise ValueError(
            f"tau violates constraint {violated.provenance}: "
            f"{violated.evaluate(tau)} vs {violated.rhs}"
        )
    raw = _decompose_point(poly, tau)
    terms = _reduce_caratheodory(poly.n, raw)
    total = sum((c for c, _ in terms), Fraction(0))
    recon = tuple(
        sum((c * p[i] for c, p in terms), Fraction(0)) for i in range(poly.n)
    )
    if total != 1 or recon != tau:
        raise BuildError("convex decomposition failed to reconstruct the exponents")
    return ExtremeDecomposition(tuple(terms))


def _decompose_point(poly: ExponentPolytope, tau) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    scaled = _over_common_denominator(tau)
    gaps = [row._gap(scaled) for row in poly.rows]
    tight = [row.coeffs for row, gap in zip(poly.rows, gaps) if gap == 0]
    null = kernel(Matrix.from_rows(tight, cols=poly.n)) if tight else Subspace.full(poly.n)
    if null.dim == 0:
        return [(Fraction(1), tau)]
    # A positive integer multiple of the RREF direction: the step lengths
    # shrink by the same factor, so the end points and lam do not change.
    direction = null._integer_basis[0]

    def max_step(sign: int) -> Fraction:
        best: Fraction | None = None
        for row, gap in zip(poly.rows, gaps):
            if row.equality or gap == 0:
                continue
            speed = sign * sum(map(mul, row.coeffs, direction))
            if speed < 0:
                limit = Fraction(gap, -speed * scaled[0])
                if best is None or limit < best:
                    best = limit
        if best is None:
            raise BuildError("unbounded direction in exponent polytope")
        return best

    s_plus = max_step(+1)
    s_minus = max_step(-1)
    if s_plus <= 0 or s_minus <= 0:
        raise BuildError("Caratheodory step along a tight direction has zero length")
    hi = tuple(t + s_plus * d for t, d in zip(tau, direction))
    lo = tuple(t - s_minus * d for t, d in zip(tau, direction))
    lam = s_minus / (s_plus + s_minus)
    out = []
    for c, point in _decompose_point(poly, hi):
        out.append((lam * c, point))
    for c, point in _decompose_point(poly, lo):
        out.append(((1 - lam) * c, point))
    return out


def _reduce_caratheodory(n: int, terms):
    """Merge duplicates and eliminate affine dependences until <= n+1 terms."""
    merged: dict[tuple[Fraction, ...], Fraction] = {}
    for c, p in terms:
        if c != 0:
            merged[p] = merged.get(p, Fraction(0)) + c
    points = sorted(merged)
    coeffs = [merged[p] for p in points]
    while len(points) > n + 1:
        # Rows are the points with a trailing 1; a kernel vector is an
        # affine dependence sum lam_k p_k = 0, sum lam_k = 0.
        mat = Matrix.from_rows([list(p) + [Fraction(1)] for p in points], cols=n + 1)
        dep = kernel(mat.transpose())
        if dep.dim == 0:
            raise BuildError("more than n+1 vertices without an affine dependence")
        lam = list(dep.basis.row(0))
        step: Fraction | None = None
        for c, l in zip(coeffs, lam):
            if l > 0 and (step is None or c / l < step):
                step = c / l
        if step is None:
            lam = [-x for x in lam]
            for c, l in zip(coeffs, lam):
                if l > 0 and (step is None or c / l < step):
                    step = c / l
        if step is None:
            raise BuildError("affine dependence with no positive coefficient")
        coeffs = [c - step * l for c, l in zip(coeffs, lam)]
        keep = [k for k, c in enumerate(coeffs) if c != 0]
        points = [points[k] for k in keep]
        coeffs = [coeffs[k] for k in keep]
    return list(zip(coeffs, points))


def base_case_dim1(datum: HBLDatum) -> Presentation:
    """Single edge {0} -> H carrying the exponents; needs the scaling equality."""
    if datum.dim != 1:
        raise ValueError("base case needs ambient dimension 1")
    holds, lhs, rhs = check_scaling(datum)
    if not holds:
        raise BuildError(f"scaling equality fails in dimension 1: {lhs} != {rhs}")
    zero = Subspace.zero(1)
    full = Subspace.full(1)
    graph = GraphDecomposition.build(1, [zero, full], [(zero, full)])
    theta = WeightFunction(datum.n_maps, (tuple(datum.exponents),))
    return Presentation(graph, theta)


def concatenate(datum: HBLDatum, v: Subspace, p_low: Presentation,
                p_high: Presentation) -> Presentation:
    """Splice a presentation of the restriction to V with one of the quotient.

    Low vertices embed through the chart of V and high vertices W become
    V + W through the chart of V-perp, the charts restrict_datum and
    quotient_datum use; edges and weights are inherited. The result is not
    verified here: build_presentation verifies the top-level result. With
    V = {0} the low part is the trivial single-vertex presentation and the
    result is the re-embedded high part.
    """
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    low_embed, high_embed = v.chart(), v.perp().chart()
    if p_low.graph.ambient != v.dim or p_high.graph.ambient != datum.dim - v.dim:
        raise ValueError("part presentations do not match the split dimensions")

    def low_vertex(w: Subspace) -> Subspace:
        return image(low_embed, w)

    def high_vertex(w: Subspace) -> Subspace:
        return image(high_embed, w) + v

    weighted: dict[tuple[Subspace, Subspace], tuple[Fraction, ...]] = {}
    vertices: set[Subspace] = set()
    for w in p_low.graph.vertices:
        vertices.add(low_vertex(w))
    for w in p_high.graph.vertices:
        vertices.add(high_vertex(w))
    for k, (a, b) in enumerate(p_low.graph.edges):
        key = (low_vertex(p_low.graph.vertices[a]), low_vertex(p_low.graph.vertices[b]))
        weighted[key] = p_low.theta.values[k]
    for k, (a, b) in enumerate(p_high.graph.edges):
        key = (high_vertex(p_high.graph.vertices[a]), high_vertex(p_high.graph.vertices[b]))
        weighted[key] = p_high.theta.values[k]

    graph = GraphDecomposition.build(datum.dim, vertices, list(weighted))
    rows = [weighted[(graph.vertices[a], graph.vertices[b])] for (a, b) in graph.edges]
    return Presentation(graph, WeightFunction(datum.n_maps, tuple(rows)))


def convex_combine(terms) -> Presentation:
    """Union the graphs and mix the weights; absent edges contribute zero.

    Coefficients must be nonnegative and sum to one; callers verify the
    result against the mixed exponents.
    """
    terms = [(Fraction(c), p) for c, p in terms]
    if not terms:
        raise ValueError("nothing to combine")
    total = sum((c for c, _ in terms), Fraction(0))
    if total != 1 or any(c < 0 for c, _ in terms):
        raise ValueError(f"coefficients must be nonnegative with sum 1, got sum {total}")
    ambient = terms[0][1].graph.ambient
    width = terms[0][1].theta.width
    for _, p in terms:
        if p.graph.ambient != ambient or p.theta.width != width:
            raise ValueError("presentations must share ambient and width")
    vertices: set[Subspace] = set()
    mixed: dict[tuple[Subspace, Subspace], list[Fraction]] = {}
    for c, p in terms:
        vertices.update(p.graph.vertices)
        for k, (a, b) in enumerate(p.graph.edges):
            key = (p.graph.vertices[a], p.graph.vertices[b])
            acc = mixed.setdefault(key, [Fraction(0)] * width)
            for i in range(width):
                acc[i] += c * p.theta.values[k][i]
    graph = GraphDecomposition.build(ambient, vertices, list(mixed))
    rows = [tuple(mixed[(graph.vertices[a], graph.vertices[b])]) for (a, b) in graph.edges]
    return Presentation(graph, WeightFunction(width, tuple(rows)))


def vertex_count_bound(n_maps: int, dim: int) -> int:
    """Worst-case vertex count of the recursive construction."""
    return ((n_maps + 1) ** dim - 1) // n_maps + 1


def _codim1_critical(datum: HBLDatum, i: int) -> Subspace:
    """For tau_i = 1 on a positive-rank map: the preimage of a codimension-1
    subspace of the image (the last RREF basis vector dropped)."""
    m = datum.maps[i]
    img = image(m, Subspace.full(datum.dim))
    w_basis = img.basis_rows()[:-1]
    w = span(w_basis, m.rows)
    p_off = Matrix.identity(m.rows) - w.projector()
    return kernel(p_off @ m)


def _map_candidates_low(candidates: CandidateLattice, v: Subspace) -> list[Subspace]:
    retract = v.retraction()
    out = []
    for u in candidates.subspaces:
        out.append(image(retract, u & v))
    return out


def _map_candidates_high(candidates: CandidateLattice, v: Subspace) -> list[Subspace]:
    vperp = v.perp()
    retract = vperp.retraction()
    out = []
    for u in candidates.subspaces:
        out.append(image(retract, (u + v) & vperp))
    return out


def build_presentation(datum: HBLDatum, candidates: CandidateLattice, *,
                       max_lattice: int = 512,
                       trace: list[str] | None = None) -> Presentation:
    """Recursive certificate construction; the output always verifies.

    Raises BuildError when the scaling equality fails, a candidate violates
    the dimension inequality, or no critical subspace can be found among the
    candidates (candidate set insufficient).
    """

    def log(msg: str) -> None:
        if trace is not None:
            trace.append(msg)

    def recurse(datum: HBLDatum, candidates: CandidateLattice, depth: int) -> Presentation:
        indent = "  " * depth
        holds, lhs, rhs = check_scaling(datum)
        if not holds:
            raise BuildError(f"scaling equality fails: {lhs} != {rhs}")
        violation = find_violation(datum, candidates)
        if violation is not None:
            raise BuildError(
                f"candidate subspace violates the dimension inequality "
                f"(dim {violation.subspace.dim}, slack {violation.slack})"
            )
        if datum.dim == 1:
            log(f"{indent}dim 1 base case")
            return base_case_dim1(datum)

        poly = polytope_from_candidates(datum, candidates)
        tau = datum.exponents
        if _tight_rank(poly, tau) < poly.n:
            log(f"{indent}tau {tuple(map(str, tau))} not extreme; splitting")
            decomp = caratheodory(poly, tau)
            parts = []
            for c, point in decomp.terms:
                log(f"{indent}  extreme {tuple(map(str, point))} with weight {c}")
                sub = recurse(datum.with_exponents(point), candidates, depth + 1)
                parts.append((c, sub))
            return convex_combine(parts)

        criticals = find_critical(datum, candidates)
        if criticals:
            v = criticals[0].subspace
            log(f"{indent}critical subspace of dim {v.dim}")
        else:
            v = None
            for i, t in enumerate(tau):
                if t == 1 and datum.ranks[i] > 0:
                    cand = _codim1_critical(datum, i)
                    if subspace_slack(datum, cand).slack == 0:
                        v = cand
                        log(f"{indent}tau{i + 1}=1 branch: codim-1 critical subspace")
                        break
            if v is None:
                raise BuildError(
                    "candidate set insufficient: extreme exponents admit no "
                    "critical subspace among the candidates"
                )
        low_datum, _ = restrict_datum(datum, v)
        high_datum, _ = quotient_datum(datum, v)
        low_candidates = generate_lattice(
            low_datum, seeds=_map_candidates_low(candidates, v), max_size=max_lattice
        )
        high_candidates = generate_lattice(
            high_datum, seeds=_map_candidates_high(candidates, v), max_size=max_lattice
        )
        p_low = recurse(low_datum, low_candidates, depth + 1)
        p_high = recurse(high_datum, high_candidates, depth + 1)
        return concatenate(datum, v, p_low, p_high)

    pres = recurse(datum, candidates, 0)
    report = verify_presentation(datum, pres)
    if not report.valid:
        raise BuildError("constructed presentation failed verification: "
                         + "; ".join(report.problems))
    bound = vertex_count_bound(datum.n_maps, datum.dim)
    if len(pres.graph.vertices) > bound:
        raise BuildError(f"vertex count {len(pres.graph.vertices)} exceeds bound {bound}")
    return pres
