import inspect

import numpy as np
import pytest

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
        "errors", "euler_characteristic", "face",
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
        "BadParams", "BadVertexId", "BudgetExhausted",
        "DimensionOutOfRange", "DuplicateFace", "FaceContainsApex",
        "LengthMismatch", "NoApex", "NoConvergence", "NotBasicHole",
        "NotPathConnected", "NotPure", "PrecisionInsufficient",
        "QComplexError", "ResidualTooLarge", "SpectrumAmbiguous", "TooLarge",
        "UsageError",
    ]
    assert sorted(name for name in errors.__all__ if name != "UsageError"
                  and issubclass(getattr(errors, name), errors.UsageError)) == [
        "BadParams", "BadVertexId", "DimensionOutOfRange", "DuplicateFace",
        "FaceContainsApex", "LengthMismatch", "NoApex", "NotBasicHole",
        "NotPathConnected", "NotPure", "TooLarge",
    ]


BOOL_ARGUMENTS = {
    "facet_bound": lambda: qcomplex.facet_bound(6, 2, True),
    "spectral_bound": lambda: qcomplex.spectral_bound(True, 2, 1),
    "max_facets_search": lambda: qcomplex.max_facets_search(5, True),
    "max_spectral_search": lambda: qcomplex.max_spectral_search(6, True),
    "asymptotic_check t": lambda: qcomplex.asymptotic_check(True, [60]),
    "asymptotic_check n": lambda: qcomplex.asymptotic_check(1, [True]),
    "simplex_skeleton": lambda: qcomplex.simplex_skeleton(6, True),
    "tented": lambda: qcomplex.tented(True),
    "delta_sphere": lambda: qcomplex.delta_sphere(True),
    "rhombic": lambda: qcomplex.rhombic(True),
    "tent_plus_common_edge": lambda: qcomplex.tent_plus_common_edge(6, True),
    "tent_plus_faces": lambda: qcomplex.tent_plus_faces(True, [(1, 2, 3)]),
    "random_pure2 n": lambda: qcomplex.random_pure2(True),
    "random_pure2 target_t": lambda: qcomplex.random_pure2(5, target_t=True),
    "random_pure2 seed": lambda: qcomplex.random_pure2(5, seed=True),
    "spectral_radius seed": lambda: qcomplex.spectral_radius(
        qcomplex.tented(5), 1, seed=True),
    "from_facets": lambda: qcomplex.from_facets(True, [(0,)]),
}


@pytest.mark.parametrize("call", BOOL_ARGUMENTS.values(), ids=BOOL_ARGUMENTS)
def test_bool_is_not_an_integer_parameter(call):
    # bool is an int subclass; as a count or a Betti number it is refused
    # like any other non-integer, before numpy sees it
    with pytest.raises(errors.BadParams, match="True"):
        call()


_TENT = qcomplex.tented(5)
#: Array arguments numpy cannot cast: a string, or a ragged nesting.
MALFORMED_ARRAYS = {
    "apply_q_up": lambda: qcomplex.apply_q_up(_TENT, 1, "abc"),
    "apply_q_down": lambda: qcomplex.apply_q_down(_TENT, 1, [[1.0], [2.0, 3.0]]),
    "boundary_sums": lambda: qcomplex.boundary_sums(_TENT, 1, "abc"),
    "quadratic_form": lambda: qcomplex.quadratic_form(_TENT, 1, "abc", "abc"),
    "rayleigh_quotient": lambda: qcomplex.rayleigh_quotient(_TENT, 1, [[1.0], []]),
    "integer_rank": lambda: qcomplex.integer_rank([[1, 2], [3]]),
    "from_facets": lambda: qcomplex.from_facets(3, arrays=[[[0, 1, 2], [0, 1]]]),
}


@pytest.mark.parametrize("call", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS)
def test_malformed_array_is_refused(call):
    # numpy's ValueError on the cast becomes a typed refusal
    with pytest.raises(errors.BadParams):
        call()


def test_no_entry_point_takes_a_tolerance():
    # the residual gate and the witness window are fixed constants
    # (spectra.RESIDUAL_TOL, extremal.EPS_MAXIMIZER), not parameters
    for name in qcomplex.__all__:
        obj = getattr(qcomplex, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert "tol" not in inspect.signature(obj).parameters, name


def _with_entry(i, x):
    """A vector over the i-faces of the tent, 1.0 but for its last entry x."""
    v = np.ones(_TENT.n_faces(i))
    v[-1] = x
    return v


#: Every entry point whose vector argument goes through `chains._as_vector`.
VECTOR_CALLS = {
    "apply_q_up": lambda x: qcomplex.apply_q_up(_TENT, 1, _with_entry(1, x)),
    "apply_q_down": lambda x: qcomplex.apply_q_down(_TENT, 1, _with_entry(1, x)),
    "boundary_sums": lambda x: qcomplex.boundary_sums(_TENT, 1, _with_entry(1, x)),
    "quadratic_form": lambda x: qcomplex.quadratic_form(
        _TENT, 1, _with_entry(1, x), np.zeros(_TENT.n_faces(1))),
    "rayleigh_quotient": lambda x: qcomplex.rayleigh_quotient(
        _TENT, 1, _with_entry(1, x)),
    "down_neighbor_sum": lambda x: qcomplex.chains.down_neighbor_sum(
        _TENT, 2, _with_entry(2, x)),
}


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", VECTOR_CALLS.values(), ids=VECTOR_CALLS)
def test_non_finite_vector_is_refused(call, x):
    # a NaN or an infinity would answer NaN, not a number
    with pytest.raises(errors.BadParams, match="finite"):
        call(x)
