"""Largest eigenvalue and Perron vector of the up signless Laplacian.

The face count alone picks the solver. Instances with at most
`chains.DENSE_LIMIT` faces, the one dense-size limit of the package, take
a full symmetric eigensolve of the dense `chains.laplacian`. Larger ones
take implicitly restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) for the top two Ritz pairs, applying
Q_up = B B^T by `chains.apply_q_up`: gathers and one scatter over the
cached boundary index table, with no matrix formed. On either path the
gap between the top two eigenvalues is the measured gap behind
``degenerate``, and a pair whose residual is above `RESIDUAL_TOL` is
refused; the eigenpair checks downstream of it read the same gate.
The final eigenvalue is always re-evaluated with compensated summation
so that the asymptotic runs at n = 240 keep absolute accuracy near 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import chains
from .complex_core import SimplicialComplex, check_seed, is_integer
from .errors import (
    BadParams,
    DimensionOutOfRange,
    NoConvergence,
    NotPathConnected,
    ResidualTooLarge,
)

#: Top eigenvalues closer than this are reported as numerically multiple.
DEGENERACY_GAP = 1e-9

#: A top eigenpair whose residual is above this is refused. Both solvers
#: run to machine precision whatever its value, so it only gates.
RESIDUAL_TOL = 1e-10

#: Lanczos raises `NoConvergence` after max(LANCZOS_MIN_APPLICATIONS,
#: LANCZOS_APPLICATIONS_PER_FACE * |S_i|) applications of Q_up.
LANCZOS_MIN_APPLICATIONS = 100
LANCZOS_APPLICATIONS_PER_FACE = 10

NORMALIZATIONS = ("unit_norm", "max_boundary_sum_one")


@dataclass(frozen=True)
class SpectralResult:
    """Converged top eigenpair of an up signless Laplacian.

    ``residual`` is ||Q f - value f||_2 / ||f||_2. ``iterations`` counts
    Lanczos operator applications (0 for a dense solve). ``degenerate``
    flags a numerically multiple top eigenvalue, in which case the vector
    is not a trustworthy Perron direction.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    degenerate: bool = False


def _residual(K: SimplicialComplex, i: int, f: np.ndarray, value: float) -> float:
    return float(np.linalg.norm(chains.apply_q_up(K, i, f) - value * f))


def _lanczos_top2(K: SimplicialComplex, i: int, seed: int):
    """Top Ritz vector (unit norm), the gap between the top two Ritz
    values, and the number of applications of `chains.apply_q_up`, which
    reads the boundary index table and forms no matrix. The start vector
    is seeded and positive. More applications than the cap raise
    `NoConvergence`."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    n_i = K.n_faces(i)
    v0 = np.random.default_rng(seed).uniform(0.5, 1.5, n_i)
    cap = max(LANCZOS_MIN_APPLICATIONS, LANCZOS_APPLICATIONS_PER_FACE * n_i)
    applied = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal applied
        y = chains.apply_q_up(K, i, x)
        if applied >= cap:
            residual = float(np.linalg.norm(y - (x @ y) / (x @ x) * x)
                             / np.linalg.norm(x))
            raise NoConvergence(f"Lanczos vector residual {residual:.3e} after "
                                f"{cap} operator applications",
                                iterations=cap, residual=residual)
        applied += 1
        return y

    # tol=0 asks ARPACK for machine-precision Ritz pairs; each restart costs
    # at least one application, so the application cap binds before maxiter
    ritz, vecs = eigsh(LinearOperator((n_i, n_i), matvec=matvec, dtype=float),
                       k=2, which="LA", v0=v0, tol=0, maxiter=cap, rng=seed)
    return vecs[:, 1], float(ritz[1] - ritz[0]), applied


def spectral_radius(K: SimplicialComplex, i: int, seed: int = 0) -> SpectralResult:
    """Largest eigenvalue of the i-up signless Laplacian.

    Up to `chains.DENSE_LIMIT` faces this is a full eigensolve; above it,
    the top two Ritz pairs by restarted Lanczos from a seeded positive start.
    The value is the Rayleigh quotient of the returned vector, evaluated
    in compensated summation. A pair whose residual exceeds `RESIDUAL_TOL`,
    or a Lanczos run past its application cap, raises `NoConvergence`,
    with ``iterations`` 0 for a dense solve. The returned vector has unit norm
    and entries summing to at least zero. ``degenerate`` is set when the
    measured gap to the second eigenvalue is below `DEGENERACY_GAP`.
    """
    check_seed(seed)
    if not (is_integer(i) and 0 <= i < K.dim):
        raise DimensionOutOfRange(
            f"q_{i} needs 0 <= i < dim = {K.dim} so that S_(i+1) is nonempty")
    n_i = K.n_faces(i)

    if n_i <= chains.DENSE_LIMIT:
        eigs, vecs = np.linalg.eigh(chains.laplacian(K, i, "Q_up"))
        f, iterations = vecs[:, -1], 0
        gap = float(eigs[-1] - eigs[-2]) if n_i >= 2 else math.inf
    else:
        f, gap, iterations = _lanczos_top2(K, i, seed)
    if f.sum() < 0:
        f = -f
    value = rayleigh_quotient(K, i, f)
    # a dense pair's residual is taken at its eigh value, a Lanczos one at
    # the Rayleigh quotient
    residual = _residual(K, i, f, value if iterations else float(eigs[-1]))
    if residual > RESIDUAL_TOL:
        raise NoConvergence(
            f"residual {residual:.3e} above tol {RESIDUAL_TOL:.1e} "
            f"({iterations} Lanczos operator applications)",
            iterations=iterations, residual=residual)
    return SpectralResult(value, f, residual, iterations, gap < DEGENERACY_GAP)


def perron_vector(K: SimplicialComplex, i: int, normalization: str = "unit_norm",
                  seed: int = 0) -> SpectralResult:
    """Strictly positive top eigenvector of an i-path-connected complex."""
    if normalization not in NORMALIZATIONS:
        raise BadParams(f"normalization must be one of {NORMALIZATIONS}")
    check_seed(seed)
    if not chains.is_path_connected(K, i):
        raise NotPathConnected(f"complex is not {i}-path connected")
    res = spectral_radius(K, i, seed=seed)
    f = res.vector
    if not res.degenerate and f.min() <= 0.0:
        raise NoConvergence(
            "Perron vector has nonpositive entries despite connectivity",
            iterations=res.iterations, residual=res.residual)
    if normalization == "max_boundary_sum_one":
        f = f / chains.boundary_sums(K, i, f).max()
    else:
        f = f / np.linalg.norm(f)
    return replace(res, vector=f)


def rayleigh_quotient(K: SimplicialComplex, i: int, f) -> float:
    """Sum of the squared boundary sums of f over the squared norm of f,
    both accumulated exactly (`math.fsum`) before the one division."""
    s = chains.boundary_sums(K, i, f)
    v = np.asarray(f, dtype=np.float64)
    if not (norm := math.fsum((v * v).tolist())):
        raise BadParams("the Rayleigh quotient of the zero vector is undefined")
    return math.fsum((s * s).tolist()) / norm


def _require_residual(result: SpectralResult) -> None:
    if not isinstance(result, SpectralResult):
        raise BadParams(f"need a SpectralResult, got {type(result).__name__}")
    if not result.residual <= RESIDUAL_TOL:
        raise ResidualTooLarge(f"eigenpair residual {result.residual:.3e} "
                               f"exceeds {RESIDUAL_TOL:.1e}")


def transfer_to_down(K: SimplicialComplex, i: int,
                     result: SpectralResult) -> np.ndarray:
    """Push an eigenvector of the i-up operator to the (i+1)-down operator.

    The boundary-sum vector of an eigenpair is an eigenvector of the down
    operator one dimension up, at the same eigenvalue.
    """
    _require_residual(result)
    return chains.boundary_sums(K, i, result.vector)


def second_order_identity_check(K: SimplicialComplex, i: int,
                                result: SpectralResult) -> float:
    """Max absolute defect of the squared-eigenvalue expansion.

    For each (i+1)-face, value^2 * g must equal
    (i+2)^2 g + 2(i+2) (N g) + N(N g), where g is the boundary-sum vector
    and N sums over down neighbors. Returns the largest absolute
    discrepancy over all (i+1)-faces.
    """
    _require_residual(result)
    g = chains.boundary_sums(K, i, result.vector)
    k = i + 2  # vertices per (i+1)-face
    ng = chains.down_neighbor_sum(K, i + 1, g)
    nng = chains.down_neighbor_sum(K, i + 1, ng)
    lhs = (result.value ** 2) * g
    rhs = (k * k) * g + 2 * k * ng + nng
    return float(np.abs(lhs - rhs).max())

