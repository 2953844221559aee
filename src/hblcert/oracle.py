"""Floating-point cross-checks for the exact machinery.

Three independent probes: the Gaussian ratio (the inequality's two sides
evaluated on centered Gaussians, where the integrals collapse to
determinants); `gaussian_ascent`, a heuristic infeasibility probe that walks
the Gaussian family towards its sup by alternating operator scaling
(Garg-Gurvits-Oliveira-Wigderson) for at most 8 * iterations + 100 steps,
stopping early once the ratio diverges or the maps are scaled to geometric;
and direct grid quadrature of the inequality and of the edge-function
factorization in low dimension.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from hblcert.data import HBLDatum
from hblcert.flowgraph import (
    GraphDecomposition,
    WeightFunction,
    _surjective_chart,
    is_balanced,
    total_mass,
)
from hblcert.linalg import Matrix, Subspace, image

# gaussian_ascent reports divergence once the ratio estimate exceeds this.
DIVERGENCE_THRESHOLD = 1e6
# gaussian_ascent stops once the scaled maps are this close to geometric;
# the ratio's shortfall is of the same order, far below rounding.
SCALING_TOLERANCE = 1e-20


def _float_matrix(m: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in m.row(i)] for i in range(m.rows)], dtype=float) \
        if m.rows else np.zeros((0, m.cols))


def orthonormal_forms(datum: HBLDatum) -> list[np.ndarray]:
    """Each map composed with an orthonormal chart of its image.

    The chart is the QR orthonormalization of the image's RREF basis, so it
    is deterministic, and being orthonormal it preserves the codomain volume
    normalization that the certificate constant refers to. A surjective map
    is returned as it is, with no QR.
    """
    out = []
    for m in datum.maps:
        mf = _float_matrix(m)
        img = image(m, Subspace.full(datum.dim))
        if img.dim == 0:
            out.append(np.zeros((0, datum.dim)))
            continue
        if img.is_full():
            out.append(mf)
            continue
        basis = _float_matrix(img.basis)          # r x codomain
        q, _ = np.linalg.qr(basis.T)              # codomain x r, orthonormal columns
        out.append(q.T @ mf)
    return out


class GaussianInput(NamedTuple):
    """One positive-definite matrix per map, sized by the map's rank."""

    matrices: tuple[np.ndarray, ...]

    @staticmethod
    def identity(datum: HBLDatum) -> GaussianInput:
        return GaussianInput(tuple(np.eye(r) for r in datum.ranks))

    @staticmethod
    def random(datum: HBLDatum, rng: np.random.Generator) -> GaussianInput:
        mats = []
        for r in datum.ranks:
            w = rng.normal(size=(r, r))
            mats.append(w @ w.T + 0.1 * np.eye(r))
        return GaussianInput(tuple(mats))


def _check_gaussian(datum: HBLDatum, g: GaussianInput) -> None:
    if len(g.matrices) != datum.n_maps:
        raise ValueError("need one matrix per map")
    for a, r in zip(g.matrices, datum.ranks):
        if a.shape != (r, r):
            raise ValueError(f"matrix shape {a.shape} does not match rank {r}")
        if not np.allclose(a, a.T):
            raise ValueError("Gaussian input matrix is not symmetric")
        try:
            np.linalg.cholesky(a) if r else None
        except np.linalg.LinAlgError:
            raise ValueError("Gaussian input matrix is not positive definite") from None


def _log_ratio(datum: HBLDatum, forms: list[np.ndarray], mats) -> float:
    """log of (prod det(A_i)^tau_i / det(sum tau_i B_i^T A_i B_i))^(1/2)."""
    m = datum.dim
    total = np.zeros((m, m))
    acc = 0.0
    for tau, b, a in zip(datum.exponents, forms, mats):
        t = float(tau)
        if b.shape[0] == 0:
            continue
        sign, logdet = np.linalg.slogdet(a)
        if sign <= 0:
            raise ValueError("Gaussian input matrix is not positive definite")
        if t == 0.0:
            continue
        acc += t * logdet
        total += t * (b.T @ a @ b)
    sign, logdet = np.linalg.slogdet(total)
    if sign <= 0:
        return math.inf
    return 0.5 * (acc - logdet)


def gaussian_ratio(datum: HBLDatum, g: GaussianInput) -> float:
    """Ratio of the inequality's two sides at f_i(y) = exp(-pi y . A_i y).

    Both integrals are Gaussian, so the ratio collapses to
    (prod det(A_i)^tau_i / det(sum tau_i B_i^T A_i B_i))^(1/2) with B_i the
    orthonormally charted maps; +inf when the sum matrix is singular (the
    left side diverges).
    """
    _check_gaussian(datum, g)
    forms = orthonormal_forms(datum)
    lr = _log_ratio(datum, forms, g.matrices)
    return math.inf if lr == math.inf else math.exp(lr)


def ascent_log_ratio(datum: HBLDatum, forms) -> float:
    """_log_ratio at A_i = I; gaussian_ascent calls it once a step."""
    return _log_ratio(datum, forms, map(np.eye, datum.ranks))


def _inverse_sqrt(s: np.ndarray) -> tuple[np.ndarray, float]:
    """S^(-1/2) and log det S for a positive-definite S."""
    w, v = np.linalg.eigh(s)
    return (v / np.sqrt(w)) @ v.T, float(np.sum(np.log(w)))


def gaussian_ascent(datum: HBLDatum, iterations: int = 400, seed: int = 0) -> tuple[float, bool]:
    """Sup of the Gaussian ratio by alternating operator scaling.

    Each step rescales the charted maps B_i with tau_i > 0 and positive rank
    on the right by M^(-1/2), M = sum tau_i B_i^T B_i, then each on the left
    by (B_i B_i^T)^(-1/2), and evaluates the ratio once; the running maximum
    is the sup estimate. With C_i the product of the left factors (from a
    random start drawn from `seed`) and T that of the right ones, the log
    ratio at A_i = C_i^T C_i is the scaled maps' at A_i = I plus
    sum tau_i log|det C_i| + log|det T|. Only these logarithms are kept:
    C_i and T grow without bound on divergent data. Equal maps scale as one,
    with their summed exponent: scaled apart, rounding would break their exact
    parallelism and let the iterate escape to a feasible perturbation.

    Stops on a ratio above DIVERGENCE_THRESHOLD or +inf (singular sum):
    diverged; on sum tau_i |B_i B_i^T - I|^2 < SCALING_TOLERANCE: converged;
    or after 8 * iterations + 100 steps. Returns (sup_estimate, diverged),
    the estimate capped at exp(700). A heuristic probe: a diverged run shows
    an infinite constant up to rounding, but a bounded run proves nothing.
    """
    rng = np.random.default_rng(seed)
    forms = orthonormal_forms(datum)
    eyes = [np.eye(r) for r in datum.ranks]
    first: dict[Matrix, int] = {}
    rep = [first.setdefault(m, i) if tau and r else i
           for i, (m, tau, r) in enumerate(zip(datum.maps, datum.exponents, datum.ranks))]
    active = [(float(sum(tau for tau, k in zip(datum.exponents, rep) if k == i)), i)
              for i in first.values()]
    scaled, offset = list(forms), 0.0
    for t, i in active:
        w = 0.1 * rng.normal(size=eyes[i].shape)
        scaled[i] = (np.tril(w, -1) + np.diag(np.exp(np.diag(w)))) @ forms[i]
        offset += t * float(np.trace(w))
    log_threshold = math.log(DIVERGENCE_THRESHOLD)
    best = offset + ascent_log_ratio(datum, [scaled[k] for k in rep])
    for _ in range(8 * iterations + 100):
        if best > log_threshold:
            break
        right, logdet = _inverse_sqrt(sum(t * scaled[i].T @ scaled[i] for t, i in active))
        offset -= 0.5 * logdet
        error = 0.0
        for t, i in active:
            b = scaled[i] @ right
            gram = b @ b.T
            error += t * float(np.sum((gram - eyes[i]) ** 2))
            left, logdet = _inverse_sqrt(gram)
            offset -= 0.5 * t * logdet
            scaled[i] = left @ b
        best = max(best, offset + ascent_log_ratio(datum, [scaled[k] for k in rep]))
        if error < SCALING_TOLERANCE:
            break
    return math.exp(min(best, 700.0)), bool(best > log_threshold)


class _GridFields(NamedTuple):
    bounds: tuple[tuple[float, float], ...]
    values: np.ndarray


class GridFunction(_GridFields):
    """Finite nonnegative samples on a regular cell grid over a box, m <= 3."""

    __slots__ = ()

    def __new__(cls, bounds: tuple[tuple[float, float], ...], values) -> GridFunction:
        values = np.asarray(values, dtype=float)
        if values.ndim != len(bounds):
            raise ValueError("bounds and value axes disagree")
        if values.ndim > 3:
            raise ValueError("grids beyond three dimensions are unsupported")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        if np.any(values < 0):
            raise ValueError("grid values must be nonnegative")
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("grid box bounds must be finite")
            if not hi > lo:
                raise ValueError("degenerate grid box")
        return super().__new__(cls, bounds, values)

    def steps(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.bounds, self.values.shape))

    def mass(self) -> float:
        return float(self.values.sum()) * float(np.prod(self.steps()))


def _coordinate_axes(v: Subspace) -> tuple[int, ...]:
    """Axis set of a coordinate subspace; raises if V is not one."""
    axes = []
    for row in v.basis_rows():
        nonzero = [j for j, x in enumerate(row) if x != 0]
        if len(nonzero) != 1 or row[nonzero[0]] != 1:
            raise ValueError("vertex is not a coordinate subspace of the grid axes")
        axes.append(nonzero[0])
    return tuple(axes)


def grid_factorize(f: GridFunction, graph: GraphDecomposition,
                   phi: WeightFunction) -> tuple[list[GridFunction], float]:
    """Realize the edge-function factorization of f on the grid.

    Each vertex V gets the axis-summed marginal f_V, each edge the quotient
    f_V1 / f_V2 guarded on the support of f_V2. Verifies that line sums along
    each edge's new axis stay below 1 + 1e-12, raising FloatingPointError
    when rounding pushes one above, and that f^tau = mass^tau * prod
    f_e^phi(e) on cells where f > 0; returns the edge functions and the worst
    relative factorization error.
    """
    if phi.width != 1:
        raise ValueError("factorization uses a scalar weight")
    if len(phi.values) != len(graph.edges):
        raise ValueError("weight does not match the edge list")
    if not phi.is_nonnegative() or not is_balanced(graph, phi):
        raise ValueError("weight must be balanced and nonnegative")
    if graph.ambient != f.values.ndim:
        raise ValueError("graph ambient does not match grid dimension")
    axes = [_coordinate_axes(v) for v in graph.vertices]
    steps = f.steps()

    marginals = []
    for ax in axes:
        if ax:
            vol = float(np.prod([steps[a] for a in ax]))
            marginals.append(f.values.sum(axis=ax, keepdims=True) * vol)
        else:
            marginals.append(f.values)

    edge_arrays = []
    for k, (a, b) in enumerate(graph.edges):
        num, den = marginals[a], marginals[b]
        quotient = np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape),
                             where=den > 0)
        new_axis = (set(axes[b]) - set(axes[a])).pop()
        line = quotient.sum(axis=new_axis, keepdims=True) * steps[new_axis]
        if float(line.max(initial=0.0)) > 1 + 1e-12:
            raise FloatingPointError(f"edge {k} line sums exceed 1: {float(line.max())}")
        edge_arrays.append(quotient)

    tau = float(total_mass(graph, phi)[0])
    lhs = np.where(f.values > 0, f.values ** tau, 0.0)
    rhs = np.full_like(f.values, f.mass() ** tau if f.mass() > 0 else 0.0)
    for k in range(len(graph.edges)):
        w = float(phi.values[k][0])
        if w:
            rhs = rhs * np.where(edge_arrays[k] > 0, edge_arrays[k], 1.0) ** w
    support = f.values > 0
    if support.any():
        err = float(np.max(np.abs(rhs[support] - lhs[support]) / lhs[support]))
    else:
        err = 0.0
    edge_functions = [
        GridFunction(f.bounds, np.broadcast_to(arr, f.values.shape).copy())
        for arr in edge_arrays
    ]
    return edge_functions, err


def quadrature_check(datum: HBLDatum, c: float, fs, *,
                     box, resolution: int = 64) -> tuple[float, float, float]:
    """Tensor quadrature of both sides of the inequality on a box.

    Each f_i is a grid function of the pivot coordinates y of its map's
    image, whose RREF basis B carries y to the point B^T y. lhs integrates
    prod f_i(pi_i x)^tau_i over the box by the midpoint rule; rhs is c times
    the product of the f_i masses raised to tau_i, each mass taken in the
    image's own Lebesgue measure, sqrt(det B B^T) dy, the measure the
    constant refers to (see orthonormal_forms); for a surjective map that is
    dy. Pullback values are looked up per cell, which is exact when the maps
    carry cell centers onto cell centers (coordinate-style maps over aligned
    grids).
    """
    m = datum.dim
    if m > 3:
        raise ValueError("quadrature beyond dimension 3 is unsupported")
    fs = list(fs)
    if len(fs) != datum.n_maps:
        raise ValueError("need one grid function per map")
    forms = [_float_matrix(_surjective_chart(mat)) for mat in datum.maps]
    bases = [_float_matrix(image(mat, Subspace.full(m)).basis) for mat in datum.maps]
    volumes = [math.sqrt(float(np.linalg.det(b @ b.T))) for b in bases]  # 1.0 when B = I

    axes_centers = []
    for k in range(m):
        lo, hi = box[k]
        h = (hi - lo) / resolution
        axes_centers.append(lo + h * (np.arange(resolution) + 0.5))
    mesh = np.meshgrid(*axes_centers, indexing="ij")
    points = np.stack([mm.ravel() for mm in mesh])  # m x cells
    cell_vol = float(np.prod([(hi - lo) / resolution for lo, hi in box]))

    integrand = np.ones(points.shape[1])
    for tau, form, g in zip(datum.exponents, forms, fs):
        t = float(tau)
        if t == 0.0:
            continue
        if g.values.ndim != form.shape[0]:
            raise ValueError("grid function dimension does not match map rank")
        y = form @ points  # rank x cells
        vals = np.zeros(points.shape[1])
        inside = np.ones(points.shape[1], dtype=bool)
        idx = []
        for ya, (lo, _), h, n in zip(y, g.bounds, g.steps(), g.values.shape):
            ia = np.floor((ya - lo) / h).astype(int)
            inside &= (ia >= 0) & (ia < n)
            idx.append(np.clip(ia, 0, n - 1))
        vals[inside] = g.values[tuple(i[inside] for i in idx)]
        integrand = integrand * np.where(vals > 0, vals, 0.0) ** t

    lhs = float(integrand.sum()) * cell_vol
    rhs = float(c) * float(np.prod([(g.mass() * vol) ** float(t)
                                    for g, vol, t in zip(fs, volumes, datum.exponents)]))
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    return lhs, rhs, ratio
