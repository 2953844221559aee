"""The four workloads: seeded inputs, operations and their checks.

Operations call hblcert through its modules (`builder.build_presentation`),
so the tracer's wrappers, installed on those modules, see every call.

Every pass of a workload runs the same fixed list of operations on fresh
inputs made from (workload seed, pass index), so a cache that outlives one
operation cannot turn later passes into replays of the first. Inputs are
made outside the timed region; each check runs right after its operation,
also outside it.

An operation's `check` returns nothing when the output is right, raises
`Wrong` when it is not, and raises `KnownFault` for the one fault the
benchmark keeps on purpose (the `"theta": 5` presentation of `cli`).
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from hblcert import builder, data, flowgraph, oracle, presentation
from hblcert.data import HBLDatum, transform_datum
from hblcert.fixtures import (
    fourmap_r6_datum,
    fourmap_r6_presentation,
    loomis_whitney_datum,
    loomis_whitney_presentation,
)
from hblcert.flowgraph import GraphDecomposition, WeightFunction
from hblcert.linalg import Matrix, Subspace, span
from hblcert.oracle import GaussianInput, GridFunction
from hblcert.presentation import Presentation

import checker

HERE = Path(__file__).resolve().parent


class Wrong(Exception):
    """An operation's output failed its check."""


class KnownFault(Exception):
    """The kept fault showed, as it does on every run."""


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


# -- seeded building blocks --------------------------------------------------

def pass_rng(seed: int, p: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{p}:{tag}")


def permutation_matrix(perm) -> Matrix:
    n = len(perm)
    return Matrix.from_rows([[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)], cols=n)


def signed_permutation(rng: random.Random, n: int) -> Matrix:
    perm = rng.sample(range(n), n)
    return Matrix.from_rows(
        [[rng.choice((1, -1)) if c == perm[r] else 0 for c in range(n)] for r in range(n)], cols=n)


def unimodular(rng: random.Random, n: int, shears: int) -> Matrix:
    """Integer matrix of determinant +-1: row shears by -2..2, a row shuffle
    and an optional sign flip."""
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[0] = [-x for x in rows[0]]
    return Matrix.from_rows(rows, cols=n)


def move_subspace(t: Matrix, v: Subspace) -> Subspace:
    """T(V) for a square T, from the basis rows of V."""
    if v.dim == 0:
        return v
    rows = [[sum((t[i, k] * b[k] for k in range(t.cols)), Fraction(0)) for i in range(t.rows)]
            for b in v.basis_rows()]
    return span(rows, t.rows)


def transport(pres: Presentation, t: Matrix) -> Presentation:
    """The certificate moved by the change of variables x -> T x."""
    moved = {v: move_subspace(t, v) for v in pres.graph.vertices}
    weights = {}
    for k, (a, b) in enumerate(pres.graph.edges):
        weights[(moved[pres.graph.vertices[a]], moved[pres.graph.vertices[b]])] = pres.theta.values[k]
    graph = GraphDecomposition.build(pres.graph.ambient, moved.values(), list(weights))
    rows = [weights[(graph.vertices[a], graph.vertices[b])] for a, b in graph.edges]
    return Presentation(graph, WeightFunction(pres.theta.width, tuple(rows)))


def coordinate_datum(dim: int, subsets, exponents, names) -> HBLDatum:
    maps = tuple(
        Matrix.from_rows([[1 if c == j else 0 for c in range(dim)] for j in sorted(s)], cols=dim)
        for s in subsets)
    return HBLDatum(dim, maps, tuple(names), tuple(Fraction(t) for t in exponents))


def relabelled_lw(d: int, rng: random.Random) -> HBLDatum:
    """Loomis-Whitney on R^(d+1) with coordinates relabelled and maps shuffled."""
    m = d + 1
    perm = rng.sample(range(m), m)
    subsets = [[perm[j] for j in range(m) if j != i] for i in range(m)]
    rng.shuffle(subsets)
    rows = [[[1 if c == j else 0 for c in range(m)] for j in s] for s in subsets]
    maps = tuple(Matrix.from_rows(r, cols=m) for r in rows)
    return HBLDatum(m, maps, tuple(f"pi{i + 1}" for i in range(m)), (Fraction(1, d),) * m)


def dense_lw(d: int, rng: random.Random) -> HBLDatum:
    """Loomis-Whitney under a unimodular change of variables on both sides."""
    m = d + 1
    t = unimodular(rng, m, 2 * m)
    return transform_datum(loomis_whitney_datum(d), t, [unimodular(rng, d, d) for _ in range(m)])


def signed_r6(rng: random.Random) -> tuple[HBLDatum, Subspace]:
    """The R^6 four-map datum moved by a signed permutation, with the moved
    lattice seed span{e1..e4}."""
    r6 = fourmap_r6_datum()
    t = signed_permutation(rng, 6)
    moved = transform_datum(r6, t, [signed_permutation(rng, m.rows) for m in r6.maps])
    seed = span([[1 if c == j else 0 for c in range(6)] for j in range(4)], 6)
    return moved, move_subspace(t, seed)


# Coordinate-subset templates: (dim, subsets, feasible exponent points). The
# exponents used are the mean of the points, which is feasible (the
# constraint set is convex) and not extreme, so the build takes the
# Caratheodory and convex-combination path. Relabelling the coordinates
# leaves the builder's work about the same for these three.
SUBSET_TEMPLATES = (
    (3, ((0, 1), (1, 2), (0, 2), (0,), (1,), (2,)),
     ((Fraction(1, 2),) * 3 + (0,) * 3, (0,) * 3 + (1,) * 3)),
    (4, ((0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2, 3)),
     ((Fraction(1, 3),) * 4 + (0,), (0,) * 4 + (1,))),
    (4, ((0, 1), (2, 3), (0, 2), (1, 3)), ((1, 1, 0, 0), (0, 0, 1, 1))),
)
# Relabelled copies per pass. The second template costs about half of lw4
# and twice the small data; three copies of it fill the middle of the
# pass's eleven operations, so op_p50_ms rests on three samples a pass.
SUBSET_COPIES = (1, 3, 1)


def interior_subset_datum(template, rng: random.Random) -> HBLDatum:
    dim, subsets, points = template
    tau = [sum((Fraction(p[i]) for p in points), Fraction(0)) / len(points)
           for i in range(len(subsets))]
    perm = rng.sample(range(dim), dim)
    order = rng.sample(range(len(subsets)), len(subsets))
    moved = [[perm[j] for j in subsets[k]] for k in order]
    return coordinate_datum(dim, moved, [tau[k] for k in order],
                            ["s" + "".join(map(str, sorted(s))) for s in moved])


def lw_chain_certificate(d: int, perms, coeffs) -> Presentation:
    """Convex combination of coordinate-flag chains of Loomis-Whitney d: the
    chain of each permutation carries coefficient * 1/d for every map."""
    m = d + 1
    weights: dict = {}
    vertices = set()
    for perm, c in zip(perms, coeffs):
        flag = [span([[1 if x == j else 0 for x in range(m)] for j in perm[:k]], m)
                if k else Subspace.zero(m) for k in range(m + 1)]
        vertices.update(flag)
        for k in range(m):
            key = (flag[k], flag[k + 1])
            weights[key] = weights.get(key, Fraction(0)) + c / d
    graph = GraphDecomposition.build(m, vertices, list(weights))
    rows = [(weights[(graph.vertices[a], graph.vertices[b])],) * m for a, b in graph.edges]
    return Presentation(graph, WeightFunction(m, tuple(rows)))


def mutate(pres: Presentation, rng: random.Random) -> Presentation:
    """One theta entry moved by +-1/4."""
    rows = [list(v) for v in pres.theta.values]
    edge = rng.randrange(len(rows))
    comp = rng.randrange(pres.theta.width)
    rows[edge][comp] += rng.choice((Fraction(1, 4), Fraction(-1, 4)))
    return Presentation(pres.graph, WeightFunction(pres.theta.width, tuple(map(tuple, rows))))


# -- workloads ---------------------------------------------------------------

class Workload:
    """Base: `prepare(p)` returns the operations of pass p. The runner empties
    `certs` and `child_raw` before each `prepare`; checks record there the
    certificates they saw, as (constant or None, vertex count), and for
    `cli` the children's raw trace counters."""

    traced_children = False

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.certs: list[tuple[float, int]] = []
        self.child_raw: list[dict] = []
        self.child_rss_kb = 0

    def prepare(self, p: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run a few small operations once: lazy imports and first calls."""
        raise NotImplementedError


class Build(Workload):
    """Datum -> lattice -> certificate -> verification -> constant."""

    def prepare(self, p):
        rng = pass_rng(self.seed, p, "build")
        items = [(f"lw{d}", relabelled_lw(d, rng), (), True) for d in (2, 3, 4, 5)]
        items.append(("dense-lw4", dense_lw(4, rng), (), True))
        r6, r6_seed = signed_r6(rng)
        items.append(("r6", r6, (r6_seed,), False))
        for k, template in enumerate(SUBSET_TEMPLATES):
            for copy in range(SUBSET_COPIES[k]):
                items.append((f"subsets{k}-{copy}", interior_subset_datum(template, rng), (), False))
        gauss = np.random.default_rng([self.seed, p & 0xFFFFFFFF, 1])
        return [Op(name, self._runner(datum, seeds), self._checker(datum, lw, gauss))
                for name, datum, seeds, lw in items]

    def warm_up(self):
        rng = pass_rng(self.seed, -1, "build")
        datum = relabelled_lw(2, rng)
        op = Op("lw2", self._runner(datum, ()),
                self._checker(datum, True, np.random.default_rng(0)))
        op.check(op.run())
        self.certs.clear()

    @staticmethod
    def _runner(datum, seeds):
        def run():
            lattice = data.generate_lattice(datum, seeds=seeds)
            pres = builder.build_presentation(datum, lattice)
            return (pres, presentation.verify_presentation(datum, pres),
                    presentation.bound_constant(datum, pres))
        return run

    def _checker(self, datum, loomis_whitney: bool, gauss):
        def check(result):
            pres, report, cert = result
            expect(report.valid, f"program rejects its own build: {report.problems}")
            problems = checker.check_program_certificate(datum, pres)
            expect(not problems, f"independent check rejects the build: {problems[:3]}")
            maps_f = checker.float_maps(datum)
            for _ in range(8):
                mats = checker.random_gaussians(datum.ranks, gauss)
                ratio = checker.gaussian_ratio(maps_f, datum.exponents, mats)
                expect(ratio <= cert.value * (1 + 1e-9),
                       f"Gaussian ratio {ratio} exceeds the constant {cert.value}")
            if loomis_whitney:
                expect(cert.value >= 1 - 1e-9, f"Loomis-Whitney constant {cert.value} < 1")
            self.certs.append((cert.value, len(pres.graph.vertices)))
        return check


# Chain templates of the verify workload: fixed permutation sets, so the
# certificate's shape (vertex and edge counts) is the same for every seed;
# the seed relabels the coordinates and orders the coefficients.
_TEMPLATE_RNG = random.Random(20240)
CHAIN_TEMPLATES = {d: [_TEMPLATE_RNG.sample(range(d + 1), d + 1) for _ in range(k)]
                   for d, k in ((4, 4), (5, 9), (6, 14))}
# The form each Loomis-Whitney certificate is checked in, and in how many
# relabelled copies. Fixed, so every pass costs the same; the biggest one
# gets the signed permutation, whose cost does not depend on the seed.
LW_FORMS = {4: ("coordinates", 3), 5: ("unimodular", 1), 6: ("signed-permutation", 1)}
# Single-entry mutants per certificate. With the R^6 one, four operations
# are cheaper than the d = 4 checks and four dearer, so the three d = 4
# copies fill the middle of the pass's eleven operations.
LW_MUTANTS = {4: 1, 6: 2}


class Verify(Workload):
    """Large certificates checked, bounded, decomposed and projected."""

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        r6, r6_pres = fourmap_r6_datum(), fourmap_r6_presentation()
        self.r6 = (r6, r6_pres, presentation.bound_constant(r6, r6_pres))

    def _lw_certificate(self, d, rng):
        m = d + 1
        relabel = rng.sample(range(m), m)
        perms = [[relabel[j] for j in perm] for perm in CHAIN_TEMPLATES[d]]
        k = len(perms)
        coeffs = [Fraction(j + 1, k * (k + 1) // 2) for j in range(k)]
        rng.shuffle(coeffs)
        return loomis_whitney_datum(d), lw_chain_certificate(d, perms, coeffs)

    @staticmethod
    def _moved(datum, pres, form, rng):
        if form == "coordinates":
            return datum, pres
        m = datum.dim
        if form == "signed-permutation":
            t = signed_permutation(rng, m)
            s_list = [signed_permutation(rng, mp.rows) for mp in datum.maps]
        else:
            t = unimodular(rng, m, m)
            s_list = [unimodular(rng, mp.rows, mp.rows) for mp in datum.maps]
        return transform_datum(datum, t, s_list), transport(pres, t)

    def prepare(self, p):
        rng = pass_rng(self.seed, p, "verify")
        ops = []
        mutants = []
        for d, (form, copies) in LW_FORMS.items():
            for copy in range(copies):
                datum, pres = self._lw_certificate(d, rng)
                moved, moved_pres = self._moved(datum, pres, form, rng)
                ops.append(Op(f"lw{d}-{form}-{copy}", self._runner(moved, moved_pres, rng),
                              self._checker(moved, moved_pres, form, None)))
            mutants += [(f"lw{d}-{k}", moved, moved_pres) for k in range(LW_MUTANTS.get(d, 0))]
        r6, r6_pres, r6_cert = self.r6
        for form in ("signed-permutation", "unimodular"):
            moved, moved_pres = self._moved(r6, r6_pres, form, rng)
            ops.append(Op(f"r6-{form}", self._runner(moved, moved_pres, rng),
                          self._checker(moved, moved_pres, form, r6_cert)))
            if form == "signed-permutation":
                mutants.append(("r6", moved, moved_pres))
        for name, datum, pres in mutants:
            bad = mutate(pres, rng)
            ops.append(Op(f"{name}-mutant",
                          lambda d=datum, b=bad: presentation.verify_presentation(d, b),
                          self._mutant_checker(datum, bad)))
        return ops

    def warm_up(self):
        r6, r6_pres, r6_cert = self.r6
        rng = random.Random(0)
        self._checker(r6, r6_pres, "coordinates", r6_cert)(self._runner(r6, r6_pres, rng)())
        self.certs.clear()

    @staticmethod
    def _runner(datum, pres, rng):
        map_index = rng.randrange(datum.n_maps)

        def run():
            report = presentation.verify_presentation(datum, pres)
            cert = presentation.bound_constant(datum, pres)
            chains = flowgraph.decompose_flow(pres.graph, pres.theta)
            pushed = flowgraph.project_weight(pres.graph, pres.theta, datum.maps[map_index])
            return report, cert, chains, pushed, map_index
        return run

    def _checker(self, datum, pres, form, base_cert):
        def check(result):
            report, cert, chains, pushed, map_index = result
            expect(report.valid, f"valid certificate rejected: {report.problems[:3]}")
            problems = checker.check_program_certificate(datum, pres)
            expect(not problems, f"independent check rejects: {problems[:3]}")
            if base_cert is None:       # coordinate Loomis-Whitney chains: C = 1
                base_value = 1.0
                base_key = self._unit_key(datum, pres)
            else:
                base_value, base_key = base_cert.value, base_cert.invariant_key()
            if form == "coordinates":
                expect(cert.invariant_key() == base_key and cert.value == base_value,
                       f"constant {cert.value}, expected exactly {base_value}")
                if base_cert is None:
                    expect(cert.exact_one, "coordinate chain constant is not exactly 1")
            elif form == "signed-permutation":
                expect(cert.invariant_key() == base_key and cert.value == base_value,
                       "signed-permutation transport changed the factored constant")
            else:
                expect(abs(cert.value - base_value) <= 1e-9 * base_value,
                       f"unimodular transport moved C from {base_value} to {cert.value}")
            rebuilt = [[Fraction(0)] * pres.theta.width for _ in pres.graph.edges]
            for term in chains.terms:
                for k in term.edges:
                    rebuilt[k][term.component] += term.coefficient
            expect(tuple(map(tuple, rebuilt)) == pres.theta.values,
                   "chain decomposition does not rebuild theta")
            # A balanced weight on a graph whose edges climb one dimension at
            # a time carries its whole mass across every level, so the
            # pushforward's edge total is rank * mass.
            rank = int(np.linalg.matrix_rank(checker.integer_rows(
                [datum.maps[map_index].row(r) for r in range(datum.maps[map_index].rows)],
                datum.dim)))
            for j, tau in enumerate(datum.exponents):
                total = sum((row[j] for row in pushed.values), Fraction(0))
                expect(total == rank * tau, f"pushforward mass {total} != {rank} * {tau}")
            self.certs.append((cert.value, len(pres.graph.vertices)))
        return check

    @staticmethod
    def _unit_key(datum, pres):
        """The factored constant of a chain certificate whose every edge norm
        is 1: one factor (i, 1, -theta_i(e)/2) per distinguishing map."""
        maps = [[m.row(r) for r in range(m.rows)] for m in datum.maps]
        bases = [checker.integer_rows(v.basis_rows(), datum.dim) for v in pres.graph.vertices]
        map_t = [checker.integer_rows(m, datum.dim).T for m in maps]
        key = []
        for (a, b), row in zip(pres.graph.edges, pres.theta.values):
            for i, mt in enumerate(map_t):
                if row[i] and np.linalg.matrix_rank(bases[b] @ mt) \
                        != (np.linalg.matrix_rank(bases[a] @ mt) if bases[a].size else 0):
                    key.append((i, Fraction(1), -row[i] / 2))
        return tuple(sorted(key))

    @staticmethod
    def _mutant_checker(datum, bad):
        def check(report):
            expect(not report.valid, "mutated certificate accepted")
            expect(any(p.startswith(checker.PROBLEM_CODES) for p in report.problems),
                   f"mutation rejected without a named problem: {report.problems[:2]}")
            expect(checker.check_program_certificate(datum, bad),
                   "independent check accepts the mutation")
        return check


ASCENT_ITERATIONS = 60
ASCENT_STARTS = (0, 1, 2)


class Oracle(Workload):
    """Float-side probes: Gaussian ascent and ratios, quadrature, grids."""

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.fixtures = []
        for d in (2, 3, 4, 5):
            datum, pres = loomis_whitney_datum(d), loomis_whitney_presentation(d)
            self.fixtures.append((f"lw{d}", datum, presentation.bound_constant(datum, pres).value,
                                  len(pres.graph.vertices)))
        r6, r6_pres = fourmap_r6_datum(), fourmap_r6_presentation()
        self.fixtures.append(("r6", r6, presentation.bound_constant(r6, r6_pres).value,
                              len(r6_pres.graph.vertices)))
        self.violating = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
        self.lw_graph = loomis_whitney_presentation(2).graph

    def prepare(self, p):
        gauss = np.random.default_rng([self.seed, p & 0xFFFFFFFF, 2])
        # The probes are checked against these constants.
        self.certs.extend((c, v) for _, _, c, v in self.fixtures)
        ops = []
        # The ascent's cost is bimodal in its start (a few dozen evaluations
        # or the whole budget), so each slot keeps one start in every pass
        # and run; three starts per datum.
        for name, datum, c, _ in self.fixtures:
            for start in ASCENT_STARTS:
                ops.append(Op(f"ascent-{name}-{start}",
                              lambda d=datum, s=start: oracle.gaussian_ascent(
                                  d, ASCENT_ITERATIONS, s),
                              self._ascent_check(name, c)))
        ops.append(Op("ascent-violating",
                      lambda: oracle.gaussian_ascent(self.violating, ASCENT_ITERATIONS, 0),
                      self._divergence_check))
        for name, datum, c, _ in self.fixtures:
            inputs = [GaussianInput.random(datum, gauss) for _ in range(40)]
            ops.append(Op(f"ratios-{name}",
                          lambda d=datum, xs=inputs: [oracle.gaussian_ratio(d, g) for g in xs],
                          self._ratio_check(datum, inputs, c)))
        lw2 = self.fixtures[0][1]
        for k in range(3):
            fs = [GridFunction(((0.0, 1.0),) * 2,
                               gauss.uniform(0.0, 1.5, (8, 8)).repeat(8, 0).repeat(8, 1))
                  for _ in range(3)]
            ops.append(Op(f"quadrature-{k}",
                          lambda fs=fs: oracle.quadrature_check(lw2, 1.0, fs,
                                                                box=((0.0, 1.0),) * 3,
                                                                resolution=64),
                          self._quadrature_check(fs)))
        phi = WeightFunction.scalar([1, 1, 1])
        for k in range(3):
            values = gauss.uniform(0.0, 2.0, (8, 8, 8)).repeat(4, 0).repeat(4, 1).repeat(4, 2)
            f = GridFunction(((0.0, 1.0),) * 3, values)
            ops.append(Op(f"grid-{k}", lambda f=f: oracle.grid_factorize(f, self.lw_graph, phi),
                          self._grid_check))
        return ops

    def warm_up(self):
        for op in self.prepare(-1):
            if op.label in ("ascent-violating", "ratios-lw2", "quadrature-0", "grid-0"):
                op.check(op.run())
        self.certs.clear()

    def _ascent_check(self, name, c):
        def check(result):
            sup, diverged = result
            expect(not diverged, f"ascent diverged on feasible {name}")
            if name.startswith("lw"):
                expect(abs(sup - 1.0) <= 1e-6, f"{name}: sup {sup} is not 1")
            else:
                expect(sup <= c * (1 + 1e-9), f"{name}: sup {sup} exceeds C = {c}")
        return check

    def _divergence_check(self, result):
        sup, diverged = result
        expect(diverged and sup > 1e6, f"violating exponents: sup {sup} did not diverge")

    @staticmethod
    def _ratio_check(datum, inputs, c):
        def check(ratios):
            expect(max(ratios) <= c * (1 + 1e-9), f"Gaussian ratio {max(ratios)} exceeds C = {c}")
            mine = checker.gaussian_ratio(checker.float_maps(datum), datum.exponents,
                                          inputs[0].matrices)
            expect(abs(mine - ratios[0]) <= 1e-9 * mine,
                   f"Gaussian ratio {ratios[0]} disagrees with the determinant formula {mine}")
        return check

    @staticmethod
    def _quadrature_check(fs):
        def check(result):
            lhs, _, ratio = result
            # Loomis-Whitney d = 2 on aligned 64^3 cells, summed directly.
            h = 1.0 / 64
            roots = [np.sqrt(g.values) for g in fs]
            mine = float(np.einsum("jk,ik,ij->", *roots)) * h ** 3
            expect(abs(mine - lhs) <= 1e-9 * mine, f"quadrature lhs {lhs} != {mine}")
            expect(ratio <= 1 + 1e-6, f"quadrature ratio {ratio} exceeds 1")
        return check

    @staticmethod
    def _grid_check(result):
        edge_functions, err = result
        expect(err <= 1e-9, f"grid factorization error {err}")
        for k, g in enumerate(edge_functions):
            line = g.values.sum(axis=k) / g.values.shape[k]
            expect(float(line.max()) <= 1 + 1e-12, f"edge {k} line sums exceed 1")


# -- cli ---------------------------------------------------------------------

def _datum_json(datum: HBLDatum) -> str:
    return json.dumps({
        "dim": datum.dim,
        "maps": [{"name": name, "rows": [[str(x) for x in m.row(r)] for r in range(m.rows)]}
                 for name, m in zip(datum.names, datum.maps)],
        "exponents": [str(t) for t in datum.exponents],
    })


def _presentation_obj(pres: Presentation) -> dict:
    return {
        "vertices": [{"id": f"v{k}", "basis": [[str(x) for x in row] for row in v.basis_rows()]}
                     for k, v in enumerate(pres.graph.vertices)],
        "edges": [{"from": f"v{a}", "to": f"v{b}", "theta": [str(x) for x in pres.theta.values[k]]}
                  for k, (a, b) in enumerate(pres.graph.edges)],
    }


def read_certificate(path: Path):
    """Vertices, edges and theta of a presentation file, read without hblcert."""
    obj = json.loads(path.read_text())
    index = {v["id"]: k for k, v in enumerate(obj["vertices"])}
    vertices = [[[Fraction(x) for x in row] for row in v["basis"]] for v in obj["vertices"]]
    edges = [(index[e["from"]], index[e["to"]]) for e in obj["edges"]]
    theta = [[Fraction(x) for x in e["theta"]] for e in obj["edges"]]
    return vertices, edges, theta


class Cli(Workload):
    """One `hblcert` process per command, one at a time (closed loop, one
    client), through `cli_child.py`, which times the import and `main`."""

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.schema = json.loads((HERE.parent / "src" / "hblcert" / "report_schema.json").read_text())
        import jsonschema
        self.validate = jsonschema.validate

    def _files(self, p):
        rng = pass_rng(self.seed, p, "cli")
        folder = self.tmp / f"pass{p}"
        folder.mkdir(parents=True, exist_ok=True)
        # Loomis-Whitney d = 2 under permutations of both sides, which keep
        # cells on cells for the quadrature command.
        perm = rng.sample(range(3), 3)
        t = permutation_matrix(perm)
        lw = transform_datum(loomis_whitney_datum(2), t,
                             [permutation_matrix(rng.sample(range(2), 2)) for _ in range(3)])
        lw_pres = transport(loomis_whitney_presentation(2), t)
        r6, r6_pres = fourmap_r6_datum(), fourmap_r6_presentation()
        t6 = signed_permutation(rng, 6)
        r6m = transform_datum(r6, t6, [signed_permutation(rng, m.rows) for m in r6.maps])
        r6m_pres = transport(r6_pres, t6)
        lines = [span([[1 if c == j else 0 for c in range(6)]], 6) for j in range(4)]
        cand = "\n".join(" ".join(str(x) for x in move_subspace(t6, v).basis_rows()[0])
                         for v in lines) + "\n"
        violating = lw.with_exponents((Fraction(3, 4), Fraction(3, 4), Fraction(0)))
        # The ascent probe gets the fixture's own violating datum: on
        # relabelled copies its verdict depends on the start seed.
        fixture_violating = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
        bad_theta = _presentation_obj(lw_pres)
        bad_theta["edges"][rng.randrange(len(bad_theta["edges"]))]["theta"] = 5
        bad_rational = json.loads(_datum_json(lw))
        bad_rational["exponents"][0] = "1/2x"
        files = {
            "lw.datum.json": _datum_json(lw),
            "lw.presentation.json": json.dumps(_presentation_obj(lw_pres)),
            "lw.mutant.json": json.dumps(_presentation_obj(mutate(lw_pres, rng))),
            "violating.datum.json": _datum_json(violating),
            "fixture-violating.datum.json": _datum_json(fixture_violating),
            "r6.datum.json": _datum_json(r6m),
            "r6.presentation.json": json.dumps(_presentation_obj(r6m_pres)),
            "r6.candidates.txt": cand,
            "broken.datum.json": _datum_json(lw)[:-7],
            "rational.datum.json": json.dumps(bad_rational),
            "theta5.presentation.json": json.dumps(bad_theta),
        }
        for name, text in files.items():
            (folder / name).write_text(text)
        return folder, rng, lw

    def prepare(self, p):
        folder, rng, lw = self._files(p)
        f = lambda name: str(folder / name)  # noqa: E731
        built = folder / "built.json"
        r6_c = 2 ** -0.5
        lw_pair = ["--data", f("lw.datum.json"), "--presentation", f("lw.presentation.json")]
        r6_pair = ["--data", f("r6.datum.json"), "--presentation", f("r6.presentation.json")]
        map_index = rng.randrange(3)
        commands = [
            ("verify", ["verify", *lw_pair], 0, self._bound_is(1.0)),
            ("verify-mutant", ["verify", "--data", f("lw.datum.json"),
                               "--presentation", f("lw.mutant.json")], 1, self._named_problems),
            ("check-data", ["check-data", "--data", f("lw.datum.json")], 0,
             lambda r: expect(r["verdict"] == "feasible", "lw2 not feasible")),
            ("check-data-violating", ["check-data", "--data", f("violating.datum.json")], 1,
             lambda r: expect(r["violation"]["slack"] == "-1/4", "slack is not -1/4")),
            ("polytope", ["polytope", "--data", f("r6.datum.json"),
                          "--candidates", f("r6.candidates.txt")], 0,
             lambda r: expect(r["vertices"] == [["1/2"] * 4], f"vertices {r['vertices']}")),
            ("build", ["build", "--data", f("lw.datum.json"), "--out", str(built)], 0,
             self._built_checker(lw, built)),
            ("bound", ["bound", *r6_pair], 0, self._bound_is(r6_c)),
            ("decompose-flow", ["decompose-flow", "--presentation", f("r6.presentation.json")], 0,
             self._chains_carry_mass),
            ("project", ["project", *lw_pair, "--map-index", str(map_index)], 0,
             lambda r: expect(r["masses"] == ["1/2"] * 3, f"masses {r['masses']}")),
            ("gaussian", ["gaussian", "--data", f("r6.datum.json"),
                          "--seed", str(rng.randrange(10 ** 6))], 0,
             lambda r: expect(r["verdict"] == "bounded" and r["sup_estimate"] <= r6_c * (1 + 1e-9),
                              f"r6 sup {r['sup_estimate']}")),
            ("gaussian-violating", ["gaussian", "--data", f("fixture-violating.datum.json"),
                                    "--seed", str(rng.randrange(10 ** 6))], 1,
             lambda r: expect(r["verdict"] == "diverged" and r["sup_estimate"] > 1e6,
                              "violating exponents did not diverge")),
            ("quadrature", ["quadrature", *lw_pair, "--seed", str(rng.randrange(10 ** 6))], 0,
             lambda r: expect(r["verdict"] == "dominated" and r["worst_ratio"] <= 1 + 1e-6,
                              f"worst ratio {r['worst_ratio']}")),
            ("export-dot", ["export-dot", *lw_pair], 0,
             lambda r: expect(r["dot"].startswith("digraph"), "no DOT text")),
            ("malformed-json", ["verify", "--data", f("broken.datum.json"),
                                "--presentation", f("lw.presentation.json")], 2, None),
            ("missing-file", ["check-data", "--data", f("absent.datum.json")], 2, None),
            ("malformed-rational", ["check-data", "--data", f("rational.datum.json")], 2, None),
            ("theta-int", ["verify", "--data", f("lw.datum.json"),
                           "--presentation", f("theta5.presentation.json")], 2, "known"),
        ]
        return [Op(label, self._runner(argv, folder / f"{label}.stats.json"),
                   self._checker(status, semantic))
                for label, argv, status, semantic in commands]

    def warm_up(self):
        op = self.prepare(-1)[2]
        op.check(op.run())
        self.certs.clear()
        self.child_raw.clear()

    def _runner(self, argv, stats_path):
        env = dict(os.environ, HBLBENCH_STATS=str(stats_path),
                   HBLBENCH_TRACE="1" if self.traced_children else "0")
        cmd = [sys.executable, str(HERE / "cli_child.py"), *argv, "--format", "json"]

        def run():
            t0 = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  cwd=HERE.parent, timeout=150)
            return proc, stats_path, perf_counter() - t0
        return run

    def _checker(self, status, semantic):
        def check(result):
            proc, stats_path, process_s = result
            stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
            stats_path.unlink(missing_ok=True)
            self.child_rss_kb = max(self.child_rss_kb, stats.get("maxrss_kb", 0))
            self.child_raw.append(stats.get("raw", {}))
            self.child_raw.append({"cli.import_s": stats.get("import_s", 0.0),
                                   "cli.command_s": stats.get("command_s", 0.0),
                                   "cli.process_s": process_s})
            clean = proc.returncode == status and "Traceback" not in proc.stderr
            if semantic == "known":
                if not clean:
                    raise KnownFault(f"exit {proc.returncode}, expected {status}")
                return
            expect(clean, f"exit {proc.returncode}, expected {status}: {proc.stderr[-300:]}")
            if status == 2:
                expect(proc.stderr.startswith("error:") and not proc.stdout,
                       "malformed input without an error line")
                return
            report = json.loads(proc.stdout)
            self.validate(report, self.schema)
            semantic(report)
        return check

    def _bound_is(self, value):
        def check(report):
            expect(report["verdict"] in ("valid", "ok"), f"verdict {report['verdict']}")
            got = report["bound"]["value"]
            expect(abs(got - value) <= 1e-12 * value, f"constant {got}, expected {value}")
            self.certs.append((got, 0))
        return check

    @staticmethod
    def _named_problems(report):
        expect(report["verdict"] == "invalid", "mutant accepted")
        expect(any(p.startswith(checker.PROBLEM_CODES) for p in report["problems"]),
               "mutant rejected without a named problem")

    @staticmethod
    def _chains_carry_mass(report):
        mass = [Fraction(0)] * 4
        for term in report["terms"]:
            mass[term["component"]] += Fraction(term["coefficient"])
        expect([str(x) for x in mass] == report["masses"] == ["1/2"] * 4,
               f"chain coefficients sum to {mass}")

    def _built_checker(self, datum, path):
        def check(report):
            vertices, edges, theta = read_certificate(path)
            maps = [[m.row(r) for r in range(m.rows)] for m in datum.maps]
            problems = checker.check_certificate(datum.dim, maps, datum.exponents,
                                                 vertices, edges, theta)
            expect(not problems, f"independent check rejects the built file: {problems[:3]}")
            expect(report["vertices"] == len(vertices), "report and file disagree")
            self.certs.append((None, len(vertices)))
        return check


WORKLOADS = {"build": Build, "verify": Verify, "oracle": Oracle, "cli": Cli}


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
