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
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

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


class _DatumFields(NamedTuple):
    dim: int
    maps: tuple[Matrix, ...]
    names: tuple[str, ...]
    exponents: tuple[Fraction, ...]


class HBLDatum(_DatumFields):
    def __new__(cls, dim: int, maps: tuple[Matrix, ...], names: tuple[str, ...],
                exponents: tuple[Fraction, ...], *,
                _image_dims: dict[Subspace, tuple[int, ...]] | None = None) -> HBLDatum:
        n = len(maps)
        if n < 1:
            raise ValueError("datum needs at least one map")
        if len(names) != n or len(exponents) != n:
            raise ValueError("maps, names and exponents must have equal length")
        for m in maps:
            if m.cols != dim:
                raise ValueError("map domain does not match ambient dimension")
        for t in exponents:
            if not (0 <= t <= 1):
                raise ValueError(f"exponent {t} outside [0,1]")
        self = super().__new__(cls, dim, maps, names, exponents)
        # V -> (dim pi_i(V))_i. The dimensions depend on the maps alone, so data
        # that differ only in their exponents share one table. It is not a
        # field, so `==`, `hash` and `repr` leave it out.
        self._image_dims = {} if _image_dims is None else _image_dims
        return self

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


def subspace_slack(datum: HBLDatum, v: Subspace) -> Fraction:
    """Exact slack sum_i tau_i dim pi_i(V) - dim V of one subspace."""
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    den, nums = _over_common_denominator(datum.exponents)  # tau = nums / den
    return Fraction(sum(map(mul, nums, datum.image_dims(v))) - den * v.dim, den)


class _LatticeFields(NamedTuple):
    subspaces: tuple[Subspace, ...]
    closed: bool
    generation_log: tuple[str, ...]


class CandidateLattice(_LatticeFields):
    """Finite surrogate for "all subspaces": a deduplicated family with provenance.

    Order is insertion order ({0}, H, kernels, seeds, then closure
    products), and iterating a family gives its members in that order;
    `closed` records whether sum/intersection closure reached a fixpoint
    before the size cap. `order` is the inclusion order of the members,
    complete when the family is closed; it is not a field, so `==`, `hash`
    and `repr` leave it out.
    """

    def __new__(cls, subspaces: tuple[Subspace, ...], closed: bool,
                generation_log: tuple[str, ...], order: _Inclusions) -> CandidateLattice:
        if len(set(subspaces)) != len(subspaces):
            raise ValueError("duplicate subspaces in candidate lattice")
        self = super().__new__(cls, subspaces, closed, generation_log)
        self.order = order
        return self

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


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _insert_mod2(basis: list[int], x: int) -> None:
    """Add the row x, as a bitmask over F_2, to a basis kept in descending
    order, whose leading bits are therefore distinct, unless x is in its span."""
    for b in basis:
        if x ^ b < x:  # x holds the leading bit of b
            x ^= b
    if x:
        basis.append(x)
        basis.sort(reverse=True)


class _Inclusions:
    """The inclusion order of a family of distinct subspaces, as bitmasks.

    Bit k of up[i] says subs[i] <= subs[k], bit k of down[i] says
    subs[k] <= subs[i], and bydim[d] has the bit of each member of dimension
    d. The masks of a member are complete once it is related to every other.

    A member made by a closure as S = P + Q or S = P & Q records its parents,
    and `relate` reads its order off theirs wherever that is exact:
    - S = P + Q lies in X exactly when P and Q do, so up[S] = up[P] & up[Q];
      X <= P or X <= Q gives X <= S; and X <= S is impossible when a member
      Y known to lie above S does not lie above X, as X <= S <= Y gives X <= Y.
    - S = P & Q dually: down[S] = down[P] & down[Q]; P <= X or Q <= X gives
      S <= X; and S <= X is impossible when a member known to lie below S
      does not lie below X.
    `Subspace.__le__` compares only the pairs these rules leave open, and
    those of members without parents: {0}, H, kernels, seeds and given
    families. Each member also keeps an F_2 basis of its integer echelon
    rows reduced mod 2, for the one-sided rank proof of `unclosed`.
    """

    def __init__(self, ambient: int) -> None:
        self.subs: list[Subspace] = []
        self.up: list[int] = []
        self.down: list[int] = []
        self.bydim = [0] * (ambient + 1)
        self.parents: list[tuple[bool, int, int] | None] = []  # (is a sum, P, Q)
        self.mod2: list[list[int]] = []

    def add(self, s: Subspace, parents: tuple[bool, int, int] | None = None) -> None:
        bit = 1 << len(self.subs)
        self.subs.append(s)
        self.up.append(bit)
        self.down.append(bit)
        self.bydim[s.dim] |= bit
        self.parents.append(parents)
        basis: list[int] = []
        for row in s.echelon:
            _insert_mod2(basis, sum(1 << c for c, x in enumerate(row) if x & 1))
        self.mod2.append(basis)

    def relate(self, i: int, others: range) -> None:
        """Record how subs[i] compares with each subs[k], k in others: either
        subs[i] is new and the others are complete, or the others come after
        i at its turn, when i and every parent of theirs are related to all
        members before i. Distinct members of equal dimension are incomparable.
        """
        up, down, bydim = self.up, self.down, self.bydim
        d, bit = self.subs[i].dim, 1 << i
        span = (1 << others.stop) - (1 << others.start)
        lower = span & sum(bydim[:d])  # the dimension classes are disjoint
        higher = span & sum(bydim[d + 1:])
        if self.parents[i]:
            is_sum, p, q = self.parents[i]
            if is_sum:
                ups, higher = up[p] & up[q] & higher, 0
                downs = (down[p] | down[q]) & lower
            else:
                downs, lower = down[p] & down[q] & lower, 0
                ups = (up[p] | up[q]) & higher
            higher &= ~ups
            lower &= ~downs
            up[i] |= ups
            down[i] |= downs
            for k in _bits(ups):
                down[k] |= bit
            for k in _bits(downs):
                up[k] |= bit
        # The others of a new member are complete but for it; at its turn, i
        # is related to the members before it. Each pair is recorded once
        # decided, in ascending order, so when subs[k] comes, i is related to
        # every member before k that a rule of k's parents reads.
        known = (1 << i) - 1 if others.start > i else ~bit
        for k in _bits(higher):
            if self._le(i, k, i, known):
                up[i] |= 1 << k
                down[k] |= bit
        for k in _bits(lower):
            if self._le(k, i, i, known):
                down[i] |= 1 << k
                up[k] |= bit

    def _le(self, a: int, b: int, i: int, known: int) -> bool:
        """subs[a] <= subs[b], for dim a < dim b and i one of a and b: by the
        parent rules of both, reading the relations of i's rules in `known`
        and those of the other's with the members before it, and by
        comparison where they leave it open."""
        up, down = self.up, self.down
        for k in (i, a + b - i):
            if not self.parents[k]:
                continue
            is_sum, p, q = self.parents[k]
            mask = known if k == i else (1 << k) - 1
            if k == b and is_sum:
                if (down[p] | down[q]) >> a & 1:
                    return True
                above = up[p] & up[q] & mask
                if up[a] & above != above:
                    return False
            elif k == b:
                return (down[p] & down[q]) >> a & 1 == 1
            elif is_sum:
                return (up[p] & up[q]) >> b & 1 == 1
            else:
                if (up[p] | up[q]) >> b & 1:
                    return True
                below = down[p] & down[q] & mask
                if down[b] & below != below:
                    return False
        return self.subs[a] <= self.subs[b]

    def meet_dim(self, i: int, j: int) -> int:
        """The highest dimension of a member below subs[i] and subs[j], or -1:
        dim(subs[i] & subs[j]) when that meet is a member and the masks of
        both are complete."""
        below = self.down[i] & self.down[j]
        for d in range(min(self.subs[i].dim, self.subs[j].dim), -1, -1):
            if below & self.bydim[d]:
                return d
        return -1

    def unclosed(self, i: int, js: int) -> int:
        """The members j in the mask js for which subs[i] + subs[j] or
        subs[i] & subs[j] is not a member; exact once i and each j are
        related to every member.

        Let A = subs[i], B = subs[j] be incomparable (a comparable pair gives
        back itself), l the lowest dimension of a member above both and h the
        highest of one below both. Each member above both contains A + B, so
        l >= dim(A + B), with equality exactly when A + B is a member; dually
        h <= dim(A & B). Both are members exactly when l + h = dim A + dim B
        and dim(A + B) = l. One pass over the members above and below A
        gives l and h for every j at once: OR the down masks of the members
        above A by dimension, and the up masks of those below. In a class
        (l, h) with dim B = l + h - dim A, dim(A + B) = l follows from the
        bound dim(A + B) >= max(dim A, dim B) + 1 when that meets l;
        otherwise from an F_2 rank of the rows of A and B that reaches l,
        since the F_2 rank of an integer matrix never exceeds its rational
        rank; and otherwise `quotient_rank` decides.
        """
        up, down, bydim, subs = self.up, self.down, self.bydim, self.subs
        js &= ~(up[i] | down[i])
        if not js:
            return 0
        da = subs[i].dim
        above, below = [0] * len(bydim), [0] * len(bydim)
        for k in _bits(up[i]):
            above[subs[k].dim] |= down[k]
        for k in _bits(down[i]):
            below[subs[k].dim] |= up[k]
        out = 0
        for l in range(da + 1, len(bydim)):
            at_l = js & above[l]
            if not at_l:
                continue
            js ^= at_l
            for h in range(da - 1, -1, -1):
                at_lh = at_l & below[h]
                if not at_lh:
                    continue
                at_l ^= at_lh
                db = l + h - da
                fits = at_lh & bydim[db]
                out |= at_lh ^ fits
                if fits and l - da != max(1, db - da + 1):
                    out |= sum(1 << j for j in _bits(fits) if not self._spans(i, j, l))
            out |= at_l
        return out | js

    def _spans(self, i: int, j: int, l: int) -> bool:
        """dim(subs[i] + subs[j]) == l, given a member of dimension l above both."""
        basis = list(self.mod2[i])
        for x in self.mod2[j]:
            _insert_mod2(basis, x)
        return len(basis) >= l or quotient_rank(self.subs[i], self.subs[j]) == l - self.subs[i].dim

    def closed(self) -> bool:
        """Whether every pairwise sum and intersection is a member; exact
        once the masks are complete."""
        return not any(self.unclosed(i, (1 << i) - 1) for i in range(len(self.subs)))


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

    Three exact one-sided proofs spare most comparisons and eliminations,
    and the exact computation decides what they leave open, so the output is
    that of testing every pair: a product reads its order off its parents'
    (`_Inclusions`); a pair's sum and meet are both members exactly when the
    dimensions of the nearest members above and below both add up to theirs,
    found for all of a member's pairs in one pass; and a mod-2 rank of a
    pair's rows that reaches the dimension of the nearest member above both
    proves their sum is that member, a rank mod 2 never exceeding the
    rational rank (`_Inclusions.unclosed`).
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

    def push(s: Subspace, why: str, parents: tuple[bool, int, int] | None = None) -> None:
        nonlocal overflow
        if s in seen:
            return
        if len(subs) >= max_size:
            overflow = True
            return
        order.add(s, parents)
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
    # One pass finds the pairs of a turn that are not closed; once the turn
    # has pushed a member, each of the rest is tested again as it comes.
    while processed < len(subs) and not overflow:
        order.relate(processed, range(processed + 1, len(subs)))
        related = processed + 1
        a, before = subs[processed], len(subs)
        for j in _bits(order.unclosed(processed, ((1 << processed) - 1) & ~3)):
            if len(subs) > before and not order.unclosed(processed, 1 << j):
                continue
            for kind, s in zip(("sum", "intersect"), sum_and_intersection(a, subs[j])):
                if s not in seen:  # no log entry is formed for a duplicate
                    push(s, f"{kind}({j},{processed})", (kind == "sum", j, processed))
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
