"""Graph certificates for finiteness of Holder-Brascamp-Lieb constants."""

from hblcert.data import (
    CandidateLattice,
    HBLDatum,
    generate_lattice,
    quotient_datum,
    restrict_datum,
    subspace_slack,
    transform_datum,
)
from hblcert.flowgraph import (
    GraphDecomposition,
    WeightFunction,
    decompose_flow,
    is_balanced,
    project_graph,
    project_weight,
    total_mass,
    validate_graph,
)
from hblcert.linalg import Matrix, Subspace, canonicalize, image, kernel, span
from hblcert.presentation import (
    BoundCertificate,
    Presentation,
    VerificationReport,
    bound_constant,
    edge_norm_squared,
    export_dot,
    summary_weight,
    verify_presentation,
)

__all__ = [
    "BoundCertificate", "BuildError", "CandidateLattice", "GraphDecomposition",
    "HBLDatum", "Matrix", "Presentation", "Subspace", "VerificationReport",
    "WeightFunction", "bound_constant", "build_presentation", "canonicalize",
    "decompose_flow", "edge_norm_squared", "export_dot", "generate_lattice", "image",
    "is_balanced", "kernel", "project_graph", "project_weight", "quotient_datum",
    "restrict_datum", "span", "subspace_slack", "summary_weight", "total_mass",
    "transform_datum", "validate_graph", "verify_presentation",
]


def __getattr__(name: str):
    # The builder is imported on first use: of the command-line tools only
    # those that build need it, and the others never compile it.
    if name in ("BuildError", "build_presentation"):
        from hblcert import builder

        return getattr(builder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
