"""Exception types shared across the package.

Every error carries a stable ``code`` string used by the CLI to render
machine-readable diagnostics. Errors split into two groups: usage errors
(bad input, out-of-range parameters), the subclasses of `UsageError`, and
computation errors (convergence, precision, internal contract failures);
the CLI maps them to exit codes 2 and 1 respectively.
"""

from __future__ import annotations

__all__ = [
    "QComplexError",
    "UsageError",
    "NotPure",
    "BadVertexId",
    "TooLarge",
    "DimensionOutOfRange",
    "LengthMismatch",
    "NoConvergence",
    "NotPathConnected",
    "ResidualTooLarge",
    "SpectrumAmbiguous",
    "NotBasicHole",
    "BadParams",
    "FaceContainsApex",
    "DuplicateFace",
    "BudgetExhausted",
    "NoApex",
    "PrecisionInsufficient",
]


class QComplexError(Exception):
    """Base class for all package errors."""

    code = "error"


class UsageError(QComplexError):
    """Invalid usage rather than a failed computation (CLI exit code 2)."""


class NotPure(UsageError):
    """Facets of mixed dimension where a pure complex is required."""

    code = "not_pure"


class BadVertexId(UsageError):
    """Vertex id negative or outside [0, n_vertices)."""

    code = "bad_vertex_id"


class TooLarge(UsageError):
    """Instance exceeds the documented brute-force/desk-scale limits."""

    code = "too_large"


class DimensionOutOfRange(UsageError):
    code = "dimension_out_of_range"


class LengthMismatch(UsageError):
    """Vector length does not match the face-space dimension."""

    code = "length_mismatch"


class NoConvergence(QComplexError):
    """Iterative eigensolve failed to reach the requested residual."""

    code = "no_convergence"

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NotPathConnected(UsageError):
    code = "not_path_connected"


class ResidualTooLarge(QComplexError):
    """Input eigenpair residual above the documented threshold."""

    code = "residual_too_large"


class SpectrumAmbiguous(QComplexError):
    """An eigenvalue fell inside the zero-test guard band."""

    code = "spectrum_ambiguous"


class NotBasicHole(UsageError):
    code = "not_basic_hole"


class BadParams(UsageError):
    """Parameter outside its documented range."""

    code = "bad_params"


class FaceContainsApex(UsageError):
    code = "face_contains_apex"


class DuplicateFace(UsageError):
    code = "duplicate_face"


class BudgetExhausted(QComplexError):
    """Rejection sampling ran out of attempts."""

    code = "budget_exhausted"


class NoApex(UsageError):
    code = "no_apex"


class PrecisionInsufficient(QComplexError):
    """Eigenvalue error bound too large for the quantity being measured."""

    code = "precision_insufficient"
