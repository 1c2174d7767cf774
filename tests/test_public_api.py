import qcomplex
from qcomplex import errors


def test_public_names_are_pinned():
    # any change to the public API must show up here, deliberately
    assert sorted(qcomplex.__all__) == [
        "ApexResult", "AsymptoticRow", "BasicHoleReport", "BettiProfile",
        "Face", "InspectorReport", "PerronProfile", "SearchReport",
        "SimplicialComplex", "SpectralResult", "__version__",
        "apply_q_down", "apply_q_up", "asymptotic_check", "betti_profile",
        "boundary_sums", "canonical_form", "check_basic_hole_properties",
        "delta_sphere", "detect_apex",
        "enumerate_pure2", "errors", "euler_characteristic", "face",
        "facet_bound", "from_facets", "hodge_betti", "integer_rank",
        "is_basic_hole", "laplacian", "max_facets_search",
        "max_spectral_search", "perron_profile", "perron_vector",
        "proof_inspector", "quadratic_form", "random_pure2",
        "rayleigh_quotient", "read_facets", "rhombic",
        "second_order_identity_check", "simplex_skeleton", "spectral_bound",
        "spectral_radius", "tent_plus_common_edge", "tent_plus_faces",
        "tented", "transfer_to_down", "write_facets",
    ]


def test_error_names_are_pinned():
    # the error set, and which errors are usage errors (CLI exit code 2)
    assert sorted(errors.__all__) == [
        "BadParams", "BadVertexId", "BettiMismatch", "BudgetExhausted",
        "DimensionOutOfRange", "DuplicateFace", "FaceContainsApex",
        "LengthMismatch", "NoApex", "NoConvergence", "NotBasicHole",
        "NotPathConnected", "NotPure", "PrecisionInsufficient",
        "QComplexError", "ResidualTooLarge", "SpectrumAmbiguous", "TooLarge",
        "USAGE_ERRORS",
    ]
    assert sorted(e.__name__ for e in errors.USAGE_ERRORS) == [
        "BadParams", "BadVertexId", "DimensionOutOfRange", "DuplicateFace",
        "FaceContainsApex", "LengthMismatch", "NoApex", "NotBasicHole",
        "NotPathConnected", "NotPure", "TooLarge",
    ]
