"""Exception types shared across the package.

Every error carries a stable ``code`` string used by the CLI to render
machine-readable diagnostics. A subclass's code is its class name in
snake case, set when the class is defined (``BadVertexId`` has the code
``bad_vertex_id``); the base class has the code ``error``. Errors split
into two groups: usage errors (bad input, out-of-range parameters), the
subclasses of `UsageError`, and computation errors (convergence,
precision, internal contract failures); the CLI maps them to exit codes
2 and 1 respectively.
"""

from __future__ import annotations

import re

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

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


class UsageError(QComplexError):
    """Invalid usage rather than a failed computation (CLI exit code 2)."""


class NotPure(UsageError):
    """Facets of mixed dimension where a pure complex is required."""


class BadVertexId(UsageError):
    """Vertex id negative or outside [0, n_vertices)."""


class TooLarge(UsageError):
    """Instance exceeds the documented brute-force/desk-scale limits."""


class DimensionOutOfRange(UsageError):
    """A dimension index that is no integer or names no faces."""


class LengthMismatch(UsageError):
    """Vector length does not match the face-space dimension."""


class NoConvergence(QComplexError):
    """Iterative eigensolve failed to reach the requested residual."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NotPathConnected(UsageError):
    """A complex whose i-faces are not linked through shared (i+1)-faces."""


class ResidualTooLarge(QComplexError):
    """Input eigenpair residual above the documented threshold."""


class SpectrumAmbiguous(QComplexError):
    """An eigenvalue fell inside the zero-test guard band."""


class NotBasicHole(UsageError):
    """A complex that is not a basic hole."""


class BadParams(UsageError):
    """Parameter outside its documented range."""


class FaceContainsApex(UsageError):
    """An added face that contains the apex of the tent."""


class DuplicateFace(UsageError):
    """A face listed twice."""


class BudgetExhausted(QComplexError):
    """Rejection sampling ran out of attempts."""


class NoApex(UsageError):
    """No vertex is joined to every pair of the other vertices."""


class PrecisionInsufficient(QComplexError):
    """Eigenvalue error bound too large for the quantity being measured."""
