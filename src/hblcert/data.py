"""HBL data model: exponent/map bundles, their dimension inequalities and
data transforms.

A datum is an ambient dimension m, a list of named rational maps out of Q^m,
and one exponent in [0,1] per map. The dimension inequalities
dim V <= sum_i tau_i dim pi_i(V), with equality at V = H, are read here one
subspace at a time (subspace_slack); the finite candidate families they are
checked over are lattice closures (hblcert.lattice), scanned row by row in
the candidate polytope (builder.ExponentPolytope). The verifier downstream,
not the lattice, is the source of truth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from hblcert.linalg import (Matrix, Subspace, _over_common_denominator, frac, image, image_rank,
                            kernel)


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
        exponents = tuple(map(frac, exponents))
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
        return HBLDatum(self.dim, self.maps, self.names, exponents,
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
    vperp = v.perp
    embedding = vperp.chart()
    maps = tuple(image(m, v).perp.basis @ m @ embedding for m in datum.maps)
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


def __getattr__(name: str):
    # The candidate family lives in hblcert.lattice, which only construction
    # imports. The benchmark (bench/) calls data.generate_lattice and its
    # tracer wraps that name, so it resolves here on first use, until bench/
    # reads it from hblcert.lattice.
    if name == "generate_lattice":
        from hblcert import lattice

        return lattice.generate_lattice
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
