"""The incidence between faces, and the Laplace operators on it.

Faces are oriented by ascending vertex order, so the signed boundary of a
column face carries the sign (-1)^j on the row face obtained by omitting
its j-th vertex. The signless variants replace every sign with +1.

Each complex holds one incidence per dimension, cached on it, and no other
form of the boundary maps: the face-index table `boundary_index_table`
(one `SimplicialComplex.row_index` search of the vertex-omitted face rows;
no face tuple is made) and its transpose `coface_index`, the signed coface
lists that the deletion connectivity test, `homology` and the proof
inspector read. On top of them sit

* up-connectivity of the i-faces: `is_path_connected`, and
  `up_connected_after_deletion` with each (i+1)-face left out;
* operator applications (`boundary_sums`, `apply_q_up`, `apply_q_down`)
  that never form a matrix: B^T f is `boundary_sums`, a gather per table
  column, and B s one `np.bincount` scatter of the table. The eigensolvers
  and the check battery run on these;
* the dense `laplacian`, up to `DENSE_LIMIT` faces: the one size limit of
  every dense solve (`spectra`, `homology`). ``L_down`` is D^T D for the
  dense boundary D of `dense_boundary`, which the exact ranks and the
  search's triangle space read too; the check battery composes two
  tables for d_(j-1) d_j (`acceptance`).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array

from .complex_core import SimplicialComplex, is_integer
from .errors import DimensionOutOfRange, LengthMismatch, TooLarge, BadParams

#: Dense matrices are formed, and dense eigensolves run, only on at most
#: this many faces: `laplacian` and `homology.hodge_betti` refuse above
#: it, and `spectra.spectral_radius` takes Lanczos instead.
DENSE_LIMIT = 512

LAPLACIAN_KINDS = ("L_up", "L_down", "Q_up")


def boundary_index_table(K: SimplicialComplex, i: int) -> np.ndarray:
    """Array of shape (|S_i|, i+1): row k lists the indices (in S_{i-1})
    of the boundary faces of the k-th i-face, in vertex-omission order.

    Cached on the complex; `coface_index`, the operator applications,
    `dense_boundary`, the dense `laplacian` and the chain identity read it.
    """
    if not (is_integer(i) and 1 <= i <= K.dim):
        raise DimensionOutOfRange(f"boundary map needs 1 <= i <= {K.dim}, got {i}")
    key = ("btab", i)
    tab = K._cache.get(key)
    if tab is None:
        keep = [[c for c in range(i + 1) if c != j] for j in range(i + 1)]
        omitted = K.rows(i)[:, keep].reshape(-1, i)
        tab = K._cache[key] = K.row_index(omitted).reshape(-1, i + 1)
        tab.setflags(write=False)
    return tab


def coface_index(K: SimplicialComplex, i: int) -> tuple[np.ndarray, ...]:
    """``(ptr, cof, pos)`` for 0 <= i < dim: the (i+1)-faces on the i-face
    x are ``cof[ptr[x]:ptr[x + 1]]``, ascending, and x omits their
    ``pos``-th vertex, so its sign in their boundaries is (-1)^pos. One
    stable argsort of `boundary_index_table` (K, i + 1), cached on K."""
    if not (is_integer(i) and 0 <= i < K.dim):
        raise DimensionOutOfRange(f"cofaces need 0 <= i < {K.dim}, got {i}")
    key = ("cofaces", i)
    index = K._cache.get(key)
    if index is None:
        flat = boundary_index_table(K, i + 1).ravel()
        ptr = np.bincount(flat + 1, minlength=K.n_faces(i) + 1).cumsum()
        cof, pos = np.divmod(np.argsort(flat, kind="stable"), i + 2)
        index = K._cache[key] = (ptr, cof, pos)
        for a in index:
            a.setflags(write=False)
    return index


def dense_boundary(K: SimplicialComplex, i: int, keep=None) -> np.ndarray:
    """Dense signed int64 i-th boundary, one scatter of the index table.
    With ``keep`` (a bool mask per dimension) its columns and rows are the
    marked i- and (i-1)-faces; without, all i-faces and the (i-1)-faces
    that bound one of them: the rows left out are zero, so the rank, the
    kernel and D^T D are the whole boundary's."""
    tab = boundary_index_table(K, i)
    if keep is None:
        rows_kept = np.bincount(tab.ravel(), minlength=K.n_faces(i - 1)) > 0
    else:
        tab, rows_kept = tab[keep[i]], keep[i - 1]
    rows = np.cumsum(rows_kept) - 1
    cols, js = np.nonzero(rows_kept[tab])
    D = np.zeros((int(rows_kept.sum()), tab.shape[0]), dtype=np.int64)
    D[rows[tab[cols, js]], cols] = 1 - 2 * (js & 1)
    return D


def laplacian(K: SimplicialComplex, i: int, kind: str) -> np.ndarray:
    """Dense float64 operator of the requested kind on the i-faces: the up
    Laplacian ``L_up`` and the down Laplacian ``L_down`` of the signed
    boundary, or the up signless Laplacian ``Q_up``.

    ``L_down`` is D^T D for D = `dense_boundary`(K, i). For the up kinds
    each pair of i-faces in one (i+1)-face adds its sign product in one
    `np.bincount` of the boundary index table. Both are exact: small
    integer sums. More than `DENSE_LIMIT` i-faces raise `TooLarge`.
    """
    if kind not in LAPLACIAN_KINDS:
        raise BadParams(f"kind must be one of {LAPLACIAN_KINDS}, got {kind!r}")
    if not (is_integer(i) and 0 <= i <= K.dim):
        raise DimensionOutOfRange(f"i={i} outside [0, {K.dim}]")
    down = kind == "L_down"
    if down and i < 1:
        raise DimensionOutOfRange(f"{kind} needs i >= 1")
    if not down and i >= K.dim:
        raise DimensionOutOfRange(f"{kind} needs i < dim = {K.dim}")
    n_i = K.n_faces(i)
    if n_i > DENSE_LIMIT:
        raise TooLarge(f"dense form refused for shape {(n_i, n_i)}")
    if down:
        D = dense_boundary(K, i).astype(np.float64)
        return D.T @ D
    tab = boundary_index_table(K, i + 1)
    s = (-1) ** np.arange(i + 2) if kind == "L_up" else np.ones(i + 2, np.int64)
    flat = (tab[:, :, None] * n_i + tab[:, None, :]).ravel()
    weights = np.tile(np.outer(s, s).ravel(), len(tab))
    dense = np.bincount(flat, weights, minlength=n_i * n_i)
    return dense.astype(np.float64, copy=False).reshape(n_i, n_i)


# -- up-connectivity ----------------------------------------------------------


def is_path_connected(K: SimplicialComplex, i: int) -> bool:
    """Connectivity of the up-neighbor graph on the i-faces, in which
    each (i+1)-face links its first boundary face to its others."""
    from scipy.sparse.csgraph import connected_components

    if not (is_integer(i) and 0 <= i < K.dim):
        raise DimensionOutOfRange(f"path connectivity needs 0 <= i < dim, got {i}")
    tab, n = boundary_index_table(K, i + 1), K.n_faces(i)
    links = (np.repeat(tab[:, 0], i + 1), tab[:, 1:].ravel())
    graph = coo_array((np.ones(len(links[0]), np.int8), links), shape=(n, n))
    return connected_components(graph, directed=False)[0] == 1


def up_connected_after_deletion(K: SimplicialComplex, i: int) -> np.ndarray:
    """Boolean vector over S_{i+1}: whether the i-faces stay connected
    through shared (i+1)-faces once that (i+1)-face is left out.

    All False when the i-faces are not connected to begin with. Otherwise
    every component of the bipartite incidence graph with an (i+1)-face
    left out holds an i-face (each (i+1)-face has i+2 of them), so leaving
    it out disconnects the i-faces exactly when it is an articulation
    point. One iterative depth-first search from the first i-face finds
    them all by low points (Hopcroft and Tarjan).
    """
    ptr, cof, _ = coface_index(K, i)
    n_low = len(ptr) - 1
    ptr, up = ptr.tolist(), (cof + n_low).tolist()
    adj = ([up[ptr[k]:ptr[k + 1]] for k in range(n_low)]
           + boundary_index_table(K, i + 1).tolist())
    disc, low = [0] * len(adj), [0] * len(adj)
    cut = [False] * (len(adj) - n_low)
    disc[0] = low[0] = clock = 1
    stack = [(0, iter(adj[0]))]
    while stack:
        u, todo = stack[-1]
        for w in todo:
            if not disc[w]:
                clock += 1
                disc[w] = low[w] = clock
                stack.append((w, iter(adj[w])))
                break
            low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[u])
                if parent >= n_low and low[u] >= disc[parent]:
                    cut[parent - n_low] = True
    if not all(disc[:n_low]):
        return np.zeros(len(cut), dtype=bool)
    return ~np.array(cut, dtype=bool)


# -- operator applications ----------------------------------------------------


def _as_vector(K: SimplicialComplex, i: int, f) -> np.ndarray:
    try:
        v = np.asarray(f, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, text, 10**400
        raise BadParams(f"expected a real vector over S_{i}: {exc}") from None
    want = K.n_faces(i)
    if v.shape != (want,):
        raise LengthMismatch(f"expected length {want} over S_{i}, got {v.shape}")
    if not np.isfinite(v).all():
        raise BadParams(f"expected finite entries over S_{i}")
    return v


def boundary_sums(K: SimplicialComplex, i: int, f) -> np.ndarray:
    """Vector over S_{i+1} of boundary sums, B^T f for the signless
    boundary: entry F-bar is the sum of f over the i-faces of F-bar.

    Column j of the boundary index table omits vertex j, so the columns
    run in descending face order; they are added from the last, so that
    each sum runs in ascending face order as in the CSR product
    ``B.T @ f``, bit for bit.
    """
    v = _as_vector(K, i, f)
    tab = boundary_index_table(K, i + 1)
    s = v[tab[:, -1]]
    for j in range(tab.shape[1] - 2, -1, -1):
        s += v[tab[:, j]]
    return s


def _apply_b(tab: np.ndarray, s: np.ndarray, n_rows: int) -> np.ndarray:
    """B s for the boundary with index table ``tab`` and ``n_rows`` rows:
    one `np.bincount` of the row-major table, which adds the cofaces of
    each face in ascending order from 0.0, as the CSR product ``B @ s``
    does, bit for bit."""
    return np.bincount(tab.ravel(), np.repeat(s, tab.shape[1]),
                       minlength=n_rows)


def apply_q_up(K: SimplicialComplex, i: int, f) -> np.ndarray:
    """Application of the i-up signless Laplace operator as B (B^T f),
    straight from the boundary index table.

    Entry F of the result is the sum, over the (i+1)-faces containing F,
    of the boundary sum of ``f`` on that coface. Bit-identical to the CSR
    products with the signless boundary.
    """
    s = boundary_sums(K, i, f)  # checks i before i + 1 is taken
    return _apply_b(boundary_index_table(K, i + 1), s, K.n_faces(i))


def apply_q_down(K: SimplicialComplex, i: int, g) -> np.ndarray:
    """Application of the i-down signless Laplace operator as B^T (B g),
    straight from the boundary index table; bit-identical to the CSR
    products."""
    s = _apply_b(boundary_index_table(K, i), _as_vector(K, i, g), K.n_faces(i - 1))
    return boundary_sums(K, i - 1, s)


def down_neighbor_sum(K: SimplicialComplex, i: int, x) -> np.ndarray:
    """Sum of ``x`` over the down neighbours of each i-face: Q_down adds the
    face itself i + 1 times. Exact on small integer vectors."""
    v = _as_vector(K, i, x)
    return apply_q_down(K, i, v) - (i + 1) * v


def quadratic_form(K: SimplicialComplex, i: int, f, g) -> float:
    """Sum over the (i+1)-faces of the product of boundary sums of f and g.

    Coincides with the inner product of ``Q_i_up f`` against ``g``.
    """
    sf = boundary_sums(K, i, f)
    sg = boundary_sums(K, i, g)
    return float(sf @ sg)
