"""The package's records compare and hash as the tuple of their fields,
leave shared state out of `==`, and keep their constructor errors."""

from fractions import Fraction

import pytest

from hblcert.builder import as_point, build_presentation, caratheodory, polytope_from_candidates
from hblcert.data import HBLDatum
from hblcert.fixtures import fourmap_r6_datum, loomis_whitney_datum
from hblcert.flowgraph import GraphDecomposition, WeightFunction, decompose_flow
from hblcert.lattice import CandidateLattice, generate_lattice
from hblcert.linalg import Matrix, Subspace
from hblcert.oracle import GaussianInput, GridFunction
from hblcert.presentation import Presentation, bound_constant, verify_presentation


def _samples() -> dict:
    """One record of each kind, from the R^6 datum, with its field names."""
    datum = fourmap_r6_datum()
    lattice = generate_lattice(datum)
    pres = build_presentation(datum, lattice)
    chains = decompose_flow(pres.graph, pres.theta)
    cert = bound_constant(datum, pres)
    poly = polytope_from_candidates(datum, lattice)
    return {
        "HBLDatum": (datum, ("dim", "maps", "names", "exponents")),
        "CandidateLattice": (lattice, ("subspaces", "closed", "generation_log")),
        "Presentation": (pres, ("graph", "theta")),
        "GraphDecomposition": (pres.graph, ("ambient", "vertices", "edges")),
        "WeightFunction": (pres.theta, ("width", "values")),
        "ChainDecomposition": (chains, ("terms",)),
        "ChainTerm": (chains.terms[0], ("component", "coefficient", "edges")),
        "VerificationReport": (verify_presentation(datum, pres), (
            "map_masses", "sigma", "sigma_mass", "problems", "valid")),
        "BoundCertificate": (cert, ("factors", "value", "exact_one")),
        "BoundFactor": (cert.factors[0], ("map_index", "edge", "base", "exponent")),
        "ExponentPolytope": (poly, ("n", "rows")),
        "ExtremeDecomposition": (caratheodory(poly, as_point(datum.exponents)), ("terms",)),
        "GaussianInput": (GaussianInput.identity(datum), ("matrices",)),
        "GridFunction": (GridFunction(((0.0, 1.0),), [1.0, 2.0]), ("bounds", "values")),
    }


SAMPLES = _samples()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_records_hash_is_the_hash_of_its_fields(name):
    # Set and dict orders, and so every output, depend on these hashes.
    record, fields = SAMPLES[name]
    assert type(record).__name__ == name
    values = tuple(getattr(record, f) for f in fields)
    if name in ("GaussianInput", "GridFunction"):  # numpy arrays do not hash
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(values)


def test_equality_leaves_out_the_image_table_and_the_order():
    datum = loomis_whitney_datum(2)
    datum.image_dims(Subspace.full(3))
    fresh = HBLDatum(datum.dim, datum.maps, datum.names, datum.exponents)
    assert datum._image_dims and not fresh._image_dims
    assert fresh == datum and hash(fresh) == hash(datum)
    shared = datum.with_exponents((Fraction(1, 2),) * 3)
    assert shared._image_dims is datum._image_dims
    lattice = generate_lattice(datum)
    other = CandidateLattice(lattice.subspaces, lattice.closed, lattice.generation_log, None)
    assert other == lattice and hash(other) == hash(lattice)
    assert "order" not in repr(lattice) and "_image_dims" not in repr(datum)


LINE = Subspace(2, ((1, 0),))
LW2 = loomis_whitney_datum(2)
EDGE = GraphDecomposition.build(1, [Subspace.zero(1), Subspace.full(1)],
                                [(Subspace.zero(1), Subspace.full(1))])


@pytest.mark.parametrize("make, message", [
    (lambda: Matrix(-1, 0, 1, ()), "negative matrix dimension"),
    (lambda: Matrix(1, 2, 1, ((1,),)), "matrix needs 1 rows of 2 entries"),
    (lambda: Subspace(3, ((1, 0),)), "echelon row width does not match ambient dimension"),
    (lambda: HBLDatum(2, (), (), ()), "datum needs at least one map"),
    (lambda: HBLDatum(3, LW2.maps, LW2.names[:2], LW2.exponents),
     "maps, names and exponents must have equal length"),
    (lambda: HBLDatum(2, LW2.maps, LW2.names, LW2.exponents),
     "map domain does not match ambient dimension"),
    (lambda: LW2.with_exponents((Fraction(3, 2), 0, 0)), "exponent 3/2 outside [0,1]"),
    (lambda: CandidateLattice((LINE, LINE), True, ("given", "given"), None),
     "duplicate subspaces in candidate lattice"),
    (lambda: WeightFunction(2, ((Fraction(1),),)), "weight vector width mismatch"),
    (lambda: Presentation(EDGE, WeightFunction(1, ())), "theta does not match the edge list"),
    (lambda: GridFunction(((0.0, 1.0),), [[1.0]]), "bounds and value axes disagree"),
    (lambda: GridFunction(((0.0, 1.0),) * 4, [[[[1.0]]]]),
     "grids beyond three dimensions are unsupported"),
    (lambda: GridFunction(((0.0, 1.0),), [float("nan")]), "grid values must be finite"),
    (lambda: GridFunction(((0.0, 1.0),), [float("inf")]), "grid values must be finite"),
    (lambda: GridFunction(((0.0, 1.0),), [-1.0]), "grid values must be nonnegative"),
    (lambda: GridFunction(((1.0, 1.0),), [1.0]), "degenerate grid box"),
    (lambda: GridFunction(((0.0, float("inf")),), [1.0]), "grid box bounds must be finite"),
    (lambda: GridFunction(((float("-inf"), 0.0),), [1.0]), "grid box bounds must be finite"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_constructors_keep_their_error_texts(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message
