"""Certificate checks that do not rest on the code under test.

Masses, balances and the summary weight are summed here in exact rationals
(`fractions.Fraction`). Dimensions, containment and which maps distinguish
an edge's endpoints come from numpy ranks of the bases, with each row
scaled to integers first; the benchmark's inputs have small entries, so
these float ranks are exact. The Gaussian ratio is recomputed with numpy
from the determinant formula.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

PROBLEM_CODES = ("theta-negative", "theta-balance", "theta-mass",
                 "sigma-balance", "sigma-mass")


def integer_rows(rows, width: int) -> np.ndarray:
    """Float array of the rows, each scaled by the lcm of its denominators."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        den = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
        out[i] = [float(Fraction(x) * den) for x in row]
    return out


def _rank(a: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(a)) if a.size else 0


def check_certificate(dim: int, maps, exponents, vertices, edges, theta) -> list[str]:
    """All failed certificate conditions; an empty list means valid.

    `maps` are lists of rational rows of width `dim`, `vertices` lists of
    basis rows, `edges` (tail, head) vertex indices and `theta` one rational
    vector per edge with one entry per map.
    """
    n = len(maps)
    bases = [integer_rows(v, dim) for v in vertices]
    dims = [_rank(b) for b in bases]
    zero = [k for k, d in enumerate(dims) if d == 0]
    full = [k for k, d in enumerate(dims) if d == dim]
    problems = []
    if len(zero) != 1 or len(full) != 1:
        return [f"structure: {len(zero)} zero and {len(full)} full vertices"]
    zero, full = zero[0], full[0]
    for k, (a, b) in enumerate(edges):
        if dims[b] != dims[a] + 1:
            problems.append(f"graph: edge {k} goes from dim {dims[a]} to {dims[b]}")
        elif _rank(np.vstack([bases[a], bases[b]])) != dims[b]:
            problems.append(f"graph: edge {k} tail is not inside its head")
    if problems:
        return problems

    theta = [tuple(Fraction(x) for x in row) for row in theta]
    if any(len(row) != n for row in theta):
        return ["structure: theta width differs from the number of maps"]
    # image dimension of every vertex under every map
    map_t = [integer_rows(m, dim).T for m in maps]
    image_dim = [[_rank(b @ mt) for mt in map_t] for b in bases]
    sigma = [sum((row[i] for i in range(n) if image_dim[b][i] != image_dim[a][i]), Fraction(0))
             for (a, b), row in zip(edges, theta)]

    if any(x < 0 for row in theta for x in row):
        problems.append("theta-negative: a weight is negative")
    inner = [k for k in range(len(vertices)) if k not in (zero, full)]
    for i in range(n):
        weight = [row[i] for row in theta]
        problems += [f"theta-balance: map {i} at vertex {k}"
                     for k in _unbalanced(inner, edges, weight)]
        mass = sum((w for (a, _), w in zip(edges, weight) if a == zero), Fraction(0))
        if mass != Fraction(exponents[i]):
            problems.append(f"theta-mass: map {i} has mass {mass}, expected {exponents[i]}")
    problems += [f"sigma-balance: vertex {k}" for k in _unbalanced(inner, edges, sigma)]
    sigma_mass = sum((s for (a, _), s in zip(edges, sigma) if a == zero), Fraction(0))
    if sigma_mass != 1:
        problems.append(f"sigma-mass: summary mass {sigma_mass}")
    return problems


def _unbalanced(inner, edges, weight) -> list[int]:
    flux = {k: Fraction(0) for k in inner}
    for (a, b), w in zip(edges, weight):
        if a in flux:
            flux[a] -= w
        if b in flux:
            flux[b] += w
    return [k for k, f in flux.items() if f != 0]


def check_program_certificate(datum, pres) -> list[str]:
    """`check_certificate` on hblcert's datum and presentation objects."""
    maps = [[m.row(r) for r in range(m.rows)] for m in datum.maps]
    vertices = [v.basis_rows() for v in pres.graph.vertices]
    return check_certificate(datum.dim, maps, datum.exponents, vertices,
                             pres.graph.edges, pres.theta.values)


def float_maps(datum) -> list[np.ndarray]:
    return [np.array([[float(x) for x in m.row(r)] for r in range(m.rows)]).reshape(m.rows, m.cols)
            for m in datum.maps]


def gaussian_ratio(maps_f, exponents, mats) -> float:
    """sqrt(prod det(A_i)^tau_i / det(sum tau_i B_i^T A_i B_i)), B_i an
    orthonormal chart of map i (the map itself when it is onto)."""
    dim = maps_f[0].shape[1]
    total = np.zeros((dim, dim))
    log_num = 0.0
    for m, tau, a in zip(maps_f, exponents, mats):
        t = float(tau)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        r = int(np.sum(s > 1e-9 * max(s.max(initial=0.0), 1.0)))
        chart = m if r == m.shape[0] else u[:, :r].T @ m
        if t == 0.0 or r == 0:
            continue
        log_num += t * np.linalg.slogdet(a)[1]
        total += t * (chart.T @ a @ chart)
    sign, logdet = np.linalg.slogdet(total)
    if sign <= 0:
        return math.inf
    return math.exp(0.5 * (log_num - logdet))


def random_gaussians(ranks, rng: np.random.Generator) -> list[np.ndarray]:
    """Positive-definite W W^T + 0.1 I, one per map, sized by its rank."""
    out = []
    for r in ranks:
        w = rng.normal(size=(r, r))
        out.append(w @ w.T + 0.1 * np.eye(r))
    return out
