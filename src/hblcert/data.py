"""HBL data model: exponent/map bundles, slack checks and data transforms.

A datum is an ambient dimension m, a list of named rational maps out of Q^m,
and one exponent in [0,1] per map. The dimension inequalities
dim V <= sum_i tau_i dim pi_i(V), with equality at V = H, are checked over
finite candidate families of subspaces generated by lattice closure; the
verifier downstream, not the lattice, is the source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from hblcert.linalg import (
    Matrix,
    Rows,
    Subspace,
    _from_rows,
    _over_common_denominator,
    _zassenhaus,
    image,
    image_rank,
    kernel,
)

VIOLATING = "violating"
CRITICAL = "critical"
SCALING = "scaling"
SLACK_POSITIVE = "slack-positive"


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
        return tuple(m.rank for m in self.maps)

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


@dataclass(frozen=True)
class SlackReport:
    subspace: Subspace
    slack: Fraction
    classification: str


def check_scaling(datum: HBLDatum) -> tuple[bool, Fraction, Fraction]:
    """Scaling equality dim H = sum_i tau_i rank(pi_i); returns (holds, lhs, rhs)."""
    lhs = Fraction(datum.dim)
    rhs = sum(
        (t * r for t, r in zip(datum.exponents, datum.ranks)), Fraction(0)
    )
    return lhs == rhs, lhs, rhs


def subspace_slack(datum: HBLDatum, v: Subspace) -> SlackReport:
    """Exact slack sum_i tau_i dim pi_i(V) - dim V with its classification."""
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    slack = sum(
        (t * d for t, d in zip(datum.exponents, datum.image_dims(v))), Fraction(0)
    ) - v.dim
    if v.is_full():
        cls = SCALING
    elif slack < 0:
        cls = VIOLATING
    elif slack == 0 and 0 < v.dim < datum.dim:
        cls = CRITICAL
    else:
        cls = SLACK_POSITIVE
    return SlackReport(v, slack, cls)


@dataclass(frozen=True)
class CandidateLattice:
    """Finite surrogate for "all subspaces": a deduplicated family with provenance.

    Order is insertion order ({0}, H, kernels, seeds, then closure products);
    `closed` records whether sum/intersection closure reached a fixpoint
    before the size cap.
    """

    subspaces: tuple[Subspace, ...]
    closed: bool
    generation_log: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.subspaces)) != len(self.subspaces):
            raise ValueError("duplicate subspaces in candidate lattice")

    @staticmethod
    def from_subspaces(ambient: int, subspaces, closed: bool | None = None) -> CandidateLattice:
        subs: list[Subspace] = [Subspace.zero(ambient), Subspace.full(ambient)]
        log = ["zero", "full"]
        for s in subspaces:
            if s not in subs:
                subs.append(s)
                log.append("given")
        if closed is None:
            closed = _is_closed(subs)
        return CandidateLattice(tuple(subs), closed, tuple(log))


def _is_closed(subs: list[Subspace]) -> bool:
    present = {s._integer_basis for s in subs}
    return all(rows in present
               for i, a in enumerate(subs) for b in subs[: i + 1]
               for rows, _ in _zassenhaus(a, b))


def generate_lattice(datum: HBLDatum, seeds=(), max_size: int = 512) -> CandidateLattice:
    """Close {0}, H, all kernels and the seeds under pairwise sum and intersection.

    Stops at a fixpoint or once max_size subspaces have been collected; the
    truncated case is reported through closed=False, not as an error.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    subs: list[Subspace] = []
    log: list[str] = []
    # Keyed on the normalized integer rows that Subspace hashes, so a
    # duplicate sum or intersection is dropped before its Fraction basis and
    # its log entry are formed.
    seen: set[Rows] = set()
    overflow = False

    def push(s: Subspace, why: str) -> None:
        nonlocal overflow
        if s._integer_basis in seen:
            return
        if len(subs) >= max_size:
            overflow = True
            return
        subs.append(s)
        log.append(why)
        seen.add(s._integer_basis)

    push(Subspace.zero(datum.dim), "zero")
    push(Subspace.full(datum.dim), "full")
    for name, m in zip(datum.names, datum.maps):
        push(kernel(m), f"kernel of {name}")
    for k, s in enumerate(seeds):
        if s.ambient != datum.dim:
            raise ValueError("seed ambient does not match datum dimension")
        push(s, f"seed[{k}]")

    # Each unordered pair is examined exactly once, when its later element
    # becomes the processed one. Pairs with {0} (index 0), H (index 1) or the
    # element itself only give back subspaces already present, so they are
    # skipped: pushing those would change nothing.
    processed = 0
    while processed < len(subs) and not overflow:
        a = subs[processed]
        for j in range(2, processed):
            for kind, (rows, pivots) in zip(("sum", "intersect"), _zassenhaus(a, subs[j])):
                if rows not in seen:
                    push(_from_rows(datum.dim, rows, pivots), f"{kind}({j},{processed})")
            if overflow:
                break
        processed += 1
    return CandidateLattice(tuple(subs), not overflow, tuple(log))


def _scaled_slack(datum: HBLDatum, v: Subspace, scaled: tuple[int, tuple[int, ...]]) -> int:
    """D * slack(V) = sum_i n_i dim pi_i(V) - D dim V, for the exponents tau = n / D.

    One common D for all maps, so this is an integer with the sign of the slack.
    """
    den, nums = scaled
    return sum(map(mul, nums, datum.image_dims(v))) - den * v.dim


def find_violation(datum: HBLDatum, candidates: CandidateLattice) -> SlackReport | None:
    """First scaling failure or negative-slack candidate in stored order, if any."""
    holds, _, _ = check_scaling(datum)
    if not holds:
        return subspace_slack(datum, Subspace.full(datum.dim))
    scaled = _over_common_denominator(datum.exponents)
    for v in candidates.subspaces:
        if _scaled_slack(datum, v, scaled) < 0:
            return subspace_slack(datum, v)
    return None


def find_critical(datum: HBLDatum, candidates: CandidateLattice) -> list[SlackReport]:
    """All zero-slack proper candidates, sorted by dimension then basis."""
    scaled = _over_common_denominator(datum.exponents)
    criticals = [subspace_slack(datum, v) for v in candidates.subspaces
                 if 0 < v.dim < datum.dim and _scaled_slack(datum, v, scaled) == 0]
    criticals.sort(key=lambda r: r.subspace.sort_key)
    return criticals


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
    """Datum on the orthogonal complement of V with maps projected off pi_i(V).

    Each map becomes P_i pi_i restricted to V-perp, where P_i is orthogonal
    projection onto the complement of pi_i(V); this realizes the identity
    dim P_i pi_i(W) = dim pi_i(W + V) - dim pi_i(V) for W inside V-perp.
    """
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    if v.is_full():
        raise ValueError("cannot quotient by the full space")
    vperp = v.perp()
    embedding = vperp.chart()
    maps = []
    for m in datum.maps:
        img = image(m, v)
        p_perp = Matrix.identity(m.rows) - img.projector()
        maps.append(p_perp @ m @ embedding)
    return HBLDatum(vperp.dim, tuple(maps), datum.names, datum.exponents), embedding


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
