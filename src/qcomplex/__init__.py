"""Spectral theory of pure simplicial complexes: signless Laplacians,
exact Betti numbers, Perron vectors, and extremal search over
2-complexes with prescribed top Betti number."""

from .complex_core import (
    Face,
    SimplicialComplex,
    canonical_form,
    face,
    from_facets,
    read_facets,
    write_facets,
)
from .chains import (
    apply_q_down,
    apply_q_up,
    boundary_sums,
    laplacian,
    quadratic_form,
)
from .homology import (
    BasicHoleReport,
    BettiProfile,
    betti_profile,
    check_basic_hole_properties,
    euler_characteristic,
    hodge_betti,
    integer_rank,
    is_basic_hole,
)
from .spectra import (
    SpectralResult,
    perron_vector,
    rayleigh_quotient,
    second_order_identity_check,
    spectral_radius,
    transfer_to_down,
)
from .families import (
    delta_sphere,
    random_pure2,
    rhombic,
    simplex_skeleton,
    tent_plus_common_edge,
    tent_plus_faces,
    tented,
)
from .extremal import (
    ApexResult,
    AsymptoticRow,
    InspectorReport,
    PerronProfile,
    SearchReport,
    asymptotic_check,
    detect_apex,
    facet_bound,
    max_facets_search,
    max_spectral_search,
    perron_profile,
    proof_inspector,
    spectral_bound,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Face", "SimplicialComplex", "canonical_form", "face", "from_facets",
    "read_facets", "write_facets",
    "apply_q_down", "apply_q_up", "boundary_sums", "laplacian",
    "quadratic_form",
    "BasicHoleReport", "BettiProfile", "betti_profile",
    "check_basic_hole_properties", "euler_characteristic", "hodge_betti",
    "integer_rank", "is_basic_hole",
    "SpectralResult", "perron_vector",
    "rayleigh_quotient", "second_order_identity_check", "spectral_radius",
    "transfer_to_down",
    "delta_sphere", "random_pure2", "rhombic", "simplex_skeleton",
    "tent_plus_common_edge", "tent_plus_faces", "tented",
    "ApexResult", "AsymptoticRow", "InspectorReport", "PerronProfile",
    "SearchReport", "asymptotic_check", "detect_apex", "facet_bound",
    "max_facets_search", "max_spectral_search", "perron_profile",
    "proof_inspector", "spectral_bound",
    "errors",
    "__version__",
]
