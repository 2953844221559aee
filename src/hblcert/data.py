"""HBL data model: exponent/map bundles, candidate families and data transforms.

A datum is an ambient dimension m, a list of named rational maps out of Q^m,
and one exponent in [0,1] per map. The dimension inequalities
dim V <= sum_i tau_i dim pi_i(V), with equality at V = H, are checked over
finite candidate families of subspaces generated by lattice closure, by the
row scan of the candidate polytope (builder.ExponentPolytope); the verifier
downstream, not the lattice, is the source of truth.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from hblcert.linalg import (
    Matrix,
    Subspace,
    _over_common_denominator,
    image,
    image_rank,
    kernel,
    quotient_rank,
    sum_and_intersection,
)

@dataclass(frozen=True)
class HBLDatum:
    dim: int
    maps: tuple[Matrix, ...]
    names: tuple[str, ...]
    exponents: tuple[Fraction, ...]
    # V -> (dim pi_i(V))_i. The dimensions depend on the maps alone, so data
    # that differ only in their exponents share one table.
    _image_dims: dict[Subspace, tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False, kw_only=True)

    def __post_init__(self) -> None:
        n = len(self.maps)
        if n < 1:
            raise ValueError("datum needs at least one map")
        if len(self.names) != n or len(self.exponents) != n:
            raise ValueError("maps, names and exponents must have equal length")
        for m in self.maps:
            if m.cols != self.dim:
                raise ValueError("map domain does not match ambient dimension")
        for t in self.exponents:
            if not (0 <= t <= 1):
                raise ValueError(f"exponent {t} outside [0,1]")

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        return self.image_dims(Subspace.full(self.dim))

    @cached_property
    def kernels(self) -> tuple[Subspace, ...]:
        return tuple(map(kernel, self.maps))

    def with_exponents(self, exponents: tuple[Fraction, ...]) -> HBLDatum:
        return HBLDatum(self.dim, self.maps, self.names, tuple(exponents),
                        _image_dims=self._image_dims)

    def image_dims(self, v: Subspace) -> tuple[int, ...]:
        """(dim pi_i(V))_i, computed once per subspace V."""
        dims = self._image_dims.get(v)
        if dims is None:
            dims = tuple(image_rank(m, v) for m in self.maps)
            self._image_dims[v] = dims
        return dims


def check_scaling(datum: HBLDatum) -> tuple[bool, Fraction, Fraction]:
    """Scaling equality dim H = sum_i tau_i rank(pi_i); returns (holds, lhs, rhs)."""
    slack = subspace_slack(datum, Subspace.full(datum.dim))
    return slack == 0, Fraction(datum.dim), datum.dim + slack


def subspace_slack(datum: HBLDatum, v: Subspace) -> Fraction:
    """Exact slack sum_i tau_i dim pi_i(V) - dim V of one subspace."""
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    den, nums = _over_common_denominator(datum.exponents)  # tau = nums / den
    return Fraction(sum(map(mul, nums, datum.image_dims(v))) - den * v.dim, den)


@dataclass(frozen=True)
class CandidateLattice:
    """Finite surrogate for "all subspaces": a deduplicated family with provenance.

    Order is insertion order ({0}, H, kernels, seeds, then closure
    products), and iterating a family gives its members in that order;
    `closed` records whether sum/intersection closure reached a fixpoint
    before the size cap. `order` is the inclusion order of the members,
    complete when the family is closed.
    """

    subspaces: tuple[Subspace, ...]
    closed: bool
    generation_log: tuple[str, ...]
    order: _Inclusions = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.subspaces)) != len(self.subspaces):
            raise ValueError("duplicate subspaces in candidate lattice")

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.subspaces)

    @staticmethod
    def from_subspaces(ambient: int, subspaces) -> CandidateLattice:
        subs: list[Subspace] = [Subspace.zero(ambient), Subspace.full(ambient)]
        log = ["zero", "full"]
        for s in subspaces:
            if s not in subs:
                subs.append(s)
                log.append("given")
        order = _related(subs)
        return CandidateLattice(tuple(subs), order.closed(), tuple(log), order)

    def meet_image_dims(self, kernels: tuple[Subspace, ...]) -> dict[Subspace, tuple[int, ...]]:
        """(dim U - dim(U cap K_i))_i for each member U, each meet's dimension
        read off the kept order; on a closed family holding each K_i = ker
        pi_i, this is (dim pi_i(U))_i, with no rank computed."""
        order = self.order
        at = [self.subspaces.index(k) for k in kernels]
        return {u: tuple(u.dim - order.meet_dim(i, k) for k in at)
                for i, u in enumerate(self.subspaces)}


class _Inclusions:
    """The inclusion order of a family of distinct subspaces, as bitmasks.

    Bit k of up[i] says subs[i] <= subs[k], bit k of down[i] says
    subs[k] <= subs[i], and bydim[d] has the bit of each member of dimension
    d. The masks of a member are complete once it is related to every other.
    """

    def __init__(self, ambient: int) -> None:
        self.subs: list[Subspace] = []
        self.up: list[int] = []
        self.down: list[int] = []
        self.bydim = [0] * (ambient + 1)

    def add(self, s: Subspace) -> None:
        bit = 1 << len(self.subs)
        self.subs.append(s)
        self.up.append(bit)
        self.down.append(bit)
        self.bydim[s.dim] |= bit

    def relate(self, i: int, others: range) -> None:
        """Record how subs[i] compares with each subs[k], k in others.

        Distinct members of equal dimension are incomparable.
        """
        a = self.subs[i]
        da = a.dim
        for k in others:
            b = self.subs[k]
            db = b.dim
            if da < db:
                if a <= b:
                    self.up[i] |= 1 << k
                    self.down[k] |= 1 << i
            elif db < da and b <= a:
                self.up[k] |= 1 << i
                self.down[i] |= 1 << k

    def meet_dim(self, i: int, j: int) -> int:
        """The highest dimension of a member below subs[i] and subs[j], or -1:
        dim(subs[i] & subs[j]) when that meet is a member and the masks of
        both are complete."""
        below = self.down[i] & self.down[j]
        for d in range(min(self.subs[i].dim, self.subs[j].dim), -1, -1):
            if below & self.bydim[d]:
                return d
        return -1

    def closes(self, i: int, j: int) -> bool:
        """Whether subs[i] + subs[j] and subs[i] & subs[j] are both members.

        Exact once i and j are related to every member. Let l be the lowest
        dimension of a member above A and B, and h the highest of one below
        both. Each member above both contains A + B, so l >= dim(A + B), with
        equality exactly when A + B is a member; dually h <= dim(A & B).
        Hence both are members exactly when l + h = dim A + dim B and
        r = dim(A + B) - dim A equals l - dim A. When A and B are not
        comparable, l > dim A, dim B > h, and r >= max(1, dim B - dim A + 1);
        as r <= l - dim A, no rank is computed when those two bounds meet.
        """
        up, bydim = self.up, self.bydim
        if (up[i] | self.down[i]) >> j & 1:
            return True  # comparable: the sum and the meet are the pair itself
        a, b = self.subs[i], self.subs[j]
        da, db = a.dim, b.dim
        above = up[i] & up[j]
        for lowest in range(max(da, db) + 1, len(bydim)):
            if above & bydim[lowest]:
                break
        else:
            return False
        highest = self.meet_dim(i, j)
        if highest < 0 or lowest + highest != da + db:
            return False
        r = lowest - da
        return r == max(1, db - da + 1) or quotient_rank(a, b) == r

    def closed(self) -> bool:
        """Whether every pairwise sum and intersection is a member; exact
        once the masks are complete."""
        return all(self.closes(i, j) for i in range(len(self.subs)) for j in range(i))


def _related(subs: list[Subspace]) -> _Inclusions:
    """The complete inclusion order of a family of distinct subspaces."""
    order = _Inclusions(subs[0].ambient)
    for i, s in enumerate(subs):
        order.add(s)
        order.relate(i, range(i))
    return order


def generate_lattice(datum: HBLDatum, seeds=(), max_size: int = 512,
                     interval: tuple[Subspace, Subspace] | None = None) -> CandidateLattice:
    """Close {0}, H, all kernels and the seeds under pairwise sum and intersection.

    An `interval` (A, B), A <= B, puts A, B and the kernels (ker pi_i + A) cap B
    of the maps on B/A in place of {0}, H and the kernels: with seeds in
    [A, B], that is the lattice of B/A, member for member and in order. Stops
    at a fixpoint or once max_size subspaces have been collected; the
    truncated case is reported through closed=False, not as an error.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    low, high = interval or (Subspace.zero(datum.dim), Subspace.full(datum.dim))
    kernels = datum.kernels if interval is None else [(k + low) & high for k in datum.kernels]
    order = _Inclusions(datum.dim)
    subs = order.subs
    log: list[str] = []
    seen: set[Subspace] = set()
    overflow = False
    processed = related = 0

    def push(s: Subspace, why: str) -> None:
        nonlocal overflow
        if s in seen:
            return
        if len(subs) >= max_size:
            overflow = True
            return
        order.add(s)
        order.relate(len(subs) - 1, range(related))
        log.append(why)
        seen.add(s)

    push(low, "zero")
    push(high, "full")
    for name, k in zip(datum.names, kernels):
        push(k, f"kernel of {name}")
    for k, s in enumerate(seeds):
        if s.ambient != datum.dim:
            raise ValueError("seed ambient does not match datum dimension")
        push(s, f"seed[{k}]")

    # Each unordered pair is examined exactly once, when its later element
    # becomes the processed one. Pairs with A (index 0), B (index 1) or the
    # element itself only give back subspaces already present, so they are
    # skipped: pushing those would change nothing. So is a pair whose sum and
    # meet the inclusion order already holds. That test needs the masks of
    # both members complete: each member is related to every later one when
    # its turn comes, and each new one to those whose turn has come, which
    # costs O(processed * |L|) comparisons, not O(|L|^2), when the cap is hit.
    while processed < len(subs) and not overflow:
        order.relate(processed, range(processed + 1, len(subs)))
        related = processed + 1
        a = subs[processed]
        for j in range(2, processed):
            if order.closes(processed, j):
                continue
            for kind, s in zip(("sum", "intersect"), sum_and_intersection(a, subs[j])):
                if s not in seen:  # no log entry is formed for a duplicate
                    push(s, f"{kind}({j},{processed})")
            if overflow:
                break
        processed += 1
    return CandidateLattice(tuple(subs), not overflow, tuple(log), order)


def is_ready(datum: HBLDatum, candidates: CandidateLattice) -> bool:
    """Closed and holding {0}, H and every kernel, hence the lattice the
    kernels generate: if the dimension inequalities hold there, they hold
    everywhere (Bennett-Carbery-Christ-Tao, 2010)."""
    return candidates.closed and {Subspace.zero(datum.dim), Subspace.full(datum.dim),
                                  *datum.kernels} <= set(candidates.subspaces)


def restrict_datum(datum: HBLDatum, v: Subspace) -> tuple[HBLDatum, Matrix]:
    """Datum obtained by integrating over V instead of H.

    The new ambient space is Q^(dim V) via the chart whose columns are the
    RREF basis of V; maps compose with the chart and exponents are unchanged.
    Dimension counts of images agree with the originals on corresponding
    subspaces, which is all downstream consumers use.
    """
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    if v.dim == 0:
        raise ValueError("cannot restrict to the zero subspace")
    embedding = v.chart()
    maps = tuple(m @ embedding for m in datum.maps)
    return HBLDatum(v.dim, maps, datum.names, datum.exponents), embedding


def quotient_datum(datum: HBLDatum, v: Subspace) -> tuple[HBLDatum, Matrix]:
    """Datum on the orthogonal complement of V with maps taken modulo pi_i(V).

    Each map becomes C_i pi_i restricted to V-perp, where the rows of C_i are
    the RREF basis of pi_i(V)-perp, so C_i has kernel pi_i(V); this realizes
    dim C_i pi_i(W) = dim pi_i(W + V) - dim pi_i(V) for W inside V-perp.
    Kernels, ranks and image dimensions are all the recursion reads, and any
    map with kernel pi_i(V) in place of C_i gives the same ones.
    """
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    if v.is_full():
        raise ValueError("cannot quotient by the full space")
    vperp = v.perp()
    embedding = vperp.chart()
    maps = tuple(image(m, v).perp().basis @ m @ embedding for m in datum.maps)
    return HBLDatum(vperp.dim, maps, datum.names, datum.exponents), embedding


def transform_datum(datum: HBLDatum, t: Matrix, s_list) -> HBLDatum:
    """Change of variables: maps become S_i pi_i T^-1, exponents unchanged."""
    if t.rows != datum.dim or t.cols != datum.dim:
        raise ValueError("T must be square of the ambient dimension")
    t_inv = t.inverse()
    s_list = list(s_list)
    if len(s_list) != datum.n_maps:
        raise ValueError("need one codomain transform per map")
    maps = []
    for m, s in zip(datum.maps, s_list):
        if s.rows != m.rows or s.cols != m.rows:
            raise ValueError("codomain transform has the wrong shape")
        s.inverse()  # raises on singular input
        maps.append(s @ m @ t_inv)
    return HBLDatum(datum.dim, tuple(maps), datum.names, datum.exponents)
