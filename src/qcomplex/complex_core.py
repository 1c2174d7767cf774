"""Simplicial complexes built from their facets, addressed by face index.

A complex is stored as a vertex count plus its inclusion-maximal faces
(facets); every lower face is derived by closure. The i-faces are sorted int64
vertex rows, keyed by (rank of ``row[:-1]`` among the (i-1)-faces) * n +
``row[-1]``. Key order is lexicographic order, and a face's position is its
index in every matrix; `SimplicialComplex.row_index` finds it for given rows.
The facet tuples are built on first read; the incidence between faces is
`chains.boundary_index_table` and `chains.coface_index`, and connectivity
is read from it in `chains`.
"""

from __future__ import annotations

import numbers
import operator
import os
import re
import warnings
from itertools import chain, combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParams, BadVertexId, DimensionOutOfRange, NotPure, TooLarge

Face = tuple[int, ...]

#: Most int64 cells a construction may list before duplicates are dropped:
#: the closure of its candidate facets, whose faces on k of a facet's w
#: vertices are rows of k cells, w * 2^(w-1) cells in all. `from_facets`
#: and `families.subset_rows` refuse more with `TooLarge`
#: (`require_cells_fit`) before they build anything. 12 * floor(2^24 / 7):
#: the 2,190-vertex tent, 2,394,766 triangles, lists 28,737,192 cells.
CELL_BUDGET = 12 * ((1 << 24) // 7)

#: Brute-force canonical form limit: the permutation search takes about
#: 0.7 s at 8 vertices and grows by a factor n with each vertex.
ISO_MAX_VERTICES = 8


def is_integer(x) -> bool:
    """Whether ``x`` is an integer (`numbers.Integral`, not `bool`). A
    Python int is tested first: the ABC check costs about a microsecond,
    and `SimplicialComplex.rows` makes it on every face count."""
    return type(x) is int or type(x) is not bool and isinstance(x, numbers.Integral)


def require_int(**values) -> None:
    """Refuse with `BadParams` each named value that is not an integer."""
    for name, value in values.items():
        if not is_integer(value):
            raise BadParams(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Refuse a seed that is not a nonnegative integer."""
    if not (is_integer(seed) and seed >= 0):
        raise BadParams(f"seed must be a nonnegative integer, got {seed!r}")


def require_cells_fit(shapes: Iterable[tuple[int, int]], what: str) -> None:
    """Refuse with `TooLarge` candidate facets, given as (count, width)
    pairs, whose closure lists more than `CELL_BUDGET` cells: count * w *
    2^(w-1) for each pair. The sum is taken in Python ints, so a numpy
    integer count or width cannot wrap it."""
    # one facet on as many vertices as the budget has bits is over the
    # budget by itself: capping w there keeps the shift small
    cap = CELL_BUDGET.bit_length()
    cells = 0
    for count, w in shapes:
        w = min(operator.index(w), cap)
        cells += operator.index(count) * w << w
    if cells >> 1 > CELL_BUDGET:
        raise TooLarge(f"the closure of {what} lists more int64 cells than "
                       f"the cell budget of {CELL_BUDGET}")


def face(vertices: Iterable[int]) -> Face:
    """Normalize an iterable of vertex ids into a face tuple.

    Vertices are sorted; ids that are no integer (`bool` included), are
    negative or repeat are rejected.
    """
    try:
        vs = tuple(vertices)
    except TypeError:
        raise BadParams(f"a face is an iterable of vertex ids, got {vertices!r}") from None
    if not all(map(is_integer, vs)):
        raise BadVertexId(f"vertex ids in {vs!r} are not integers")
    vs = tuple(sorted(vs))
    if not vs:
        raise BadParams("a face needs at least one vertex")
    if vs[0] < 0:
        raise BadVertexId(f"negative vertex id in {vs}")
    if any(a == b for a, b in zip(vs, vs[1:])):
        raise BadParams(f"repeated vertex in face {vertices!r}")
    return vs


class SimplicialComplex:
    """Immutable simplicial complex on vertices ``0..n_vertices-1``.

    Construct through :func:`from_facets`; the constructor assumes its
    arguments are already validated and closed. The facets are kept as
    sorted int64 row arrays, one per width, until read as tuples.
    """

    __slots__ = ("n_vertices", "dim", "_maximal", "_rows", "_keys", "_cache")

    def __init__(self, n_vertices: int, maximal: tuple[np.ndarray, ...],
                 rows: list[np.ndarray], keys: list[np.ndarray]):
        self.n_vertices = n_vertices
        self.dim = len(rows) - 1
        self._maximal, self._rows, self._keys = maximal, rows, keys
        self._cache: dict = {}  # facet tuples; chains and homology results

    @property
    def facets(self) -> tuple[Face, ...]:
        """The inclusion-maximal faces as sorted tuples, built on first read."""
        if "facets" not in self._cache:
            fs = [f for m in self._maximal for f in map(tuple, m.tolist())]
            self._cache["facets"] = tuple(sorted(fs) if len(self._maximal) > 1 else fs)
        return self._cache["facets"]

    # -- basic queries ----------------------------------------------------

    def rows(self, i: int) -> np.ndarray:
        """All i-faces as a sorted (|S_i|, i+1) int64 array."""
        if not (is_integer(i) and 0 <= i <= self.dim):
            raise DimensionOutOfRange(f"no faces of dimension {i} (dim={self.dim})")
        return self._rows[i]

    def n_faces(self, i: int) -> int:
        return len(self.rows(i))

    def row_index(self, rows: np.ndarray) -> np.ndarray:
        """Indices among the i-faces of (m, i+1) sorted vertex rows of faces."""
        keys = _prefix_keys(rows, self._keys, self.n_vertices)
        return np.searchsorted(self._keys[rows.shape[1] - 1], keys)

    def is_pure(self) -> bool:
        return len(self._maximal) == 1

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.n_vertices == other.n_vertices
                and len(self._maximal) == len(other._maximal)
                and all(map(np.array_equal, self._maximal, other._maximal)))

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.facets))

    def __repr__(self) -> str:
        return (f"SimplicialComplex(n={self.n_vertices}, dim={self.dim}, "
                f"facets={sum(map(len, self._maximal))})")


def from_facets(n: int, facets: Iterable[Iterable[int]] = (), require_pure: bool = False,
                *, arrays: Sequence[np.ndarray] = ()) -> SimplicialComplex:
    """Build a complex from candidate facets: the vertex iterables in
    ``facets`` and the rows of the 2-D int64 ``arrays``, in any vertex order.

    Non-maximal candidates are dropped; with ``require_pure`` the surviving
    facets must all share one dimension. The i-faces are the distinct keys of
    the candidates' (i+1)-column combinations; a candidate is maximal unless
    its key is among those of the longer candidates.
    """
    if not (is_integer(n) and n > 0):
        raise BadParams(f"n_vertices must be a positive integer, got {n!r}")
    n = operator.index(n)  # a numpy integer would wrap the key-range check
    if n >= 2 ** 63:
        raise TooLarge("n_vertices must be below 2^63, the range of the int64 "
                       "face keys")
    groups: dict[int, list] = {}
    try:
        for f in map(tuple, facets):
            groups.setdefault(len(f), []).append(f)
        arrays = [np.asarray(a) for a in arrays]
    except (TypeError, ValueError) as exc:  # no iterable, or a ragged nesting
        raise BadParams("candidate facets must be iterables of vertex ids and "
                        f"candidate arrays 2-D: {exc}") from None
    try:  # operator.index and a safe cast refuse what int64 would truncate,
        # but let bool through, which is no vertex id either
        if any(a.dtype == bool for a in arrays) or any(
                bool in map(type, chain.from_iterable(g)) for g in groups.values()):
            raise TypeError
        blocks = [np.fromiter(map(operator.index, chain.from_iterable(group)),
                              np.int64, size * len(group)).reshape(len(group), size)
                  for size, group in groups.items()] + [
            a.astype(np.int64, casting="safe", copy=False) for a in arrays]
    except (TypeError, OverflowError):
        bad = next((f for group in groups.values() for f in group if not all(
            is_integer(v) and -2 ** 63 <= v < 2 ** 63 for v in f)), "an array")
        raise BadVertexId(f"vertex ids in {bad!r} are not int64 integers") from None
    if any(a.ndim != 2 for a in blocks):
        raise BadParams("candidate arrays must be 2-D, one candidate per row")
    require_cells_fit(((len(a), a.shape[1]) for a in blocks), "the facets")
    sizes = sorted({a.shape[1] for a in blocks if len(a)})
    if not sizes or sizes[0] == 0:
        raise BadParams("a face needs at least one vertex" if sizes
                        else "facet list is empty")
    cand = {}
    for size in sizes:
        listed = np.concatenate([a for a in blocks if a.shape[1] == size])
        a = cand[size] = np.sort(listed, axis=1)
        if a[:, 0].min() < 0:
            bad = tuple(listed[a[:, 0].argmin()].tolist())
            raise BadVertexId(f"negative vertex id in {bad}")
        repeated = (a[:, 1:] == a[:, :-1]).any(axis=1)
        if repeated.any():
            bad = tuple(listed[repeated.argmax()].tolist())
            raise BadParams(f"repeated vertex in face {bad!r}")
    if (top_vertex := max(int(a[:, -1].max()) for a in cand.values())) >= n:
        raise BadVertexId(f"vertex {top_vertex} outside [0, {n})")
    rows, keys, maximal = [], [], []
    for i in range(max(cand)):
        if i and len(keys[-1]) * n >= 2 ** 63:
            raise TooLarge(f"{len(keys[-1])} faces times n={n} overflow the int64 keys")
        listed = cand.get(i + 1, np.zeros((0, i + 1), np.int64))
        sub = [a[:, list(combinations(range(size), i + 1))].reshape(-1, i + 1)
               for size, a in cand.items() if size > i + 1]
        k = _prefix_keys(np.concatenate(sub + [listed]), keys, n)
        u = np.sort(k)  # sort and mask: np.unique costs more on small arrays
        keys.append(u[np.concatenate(([True], u[1:] != u[:-1]))])
        q, r = np.divmod(keys[i], n)
        rows.append(r[:, None] if i == 0 else
                    np.concatenate((rows[-1][q], r[:, None]), axis=1))
        if len(listed):
            covered = k[:len(k) - len(listed)]
            top = ~np.isin(keys[i], covered) if covered.size else slice(None)
            if len(m := rows[i][top]):
                maximal.append(m)
    if require_pure and len(maximal) > 1:
        raise NotPure(f"facet dimensions {[m.shape[1] - 1 for m in maximal]} are mixed")
    return SimplicialComplex(n, tuple(maximal), rows, keys)


def _prefix_keys(rows: np.ndarray, keys: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Keys of (m, i+1) vertex rows: the rank of ``row[:-1]`` among the sorted
    (i-1)-face keys ``keys[i-1]``, times n, plus ``row[-1]``. Below |S_(i-1)|·n."""
    k = rows[:, 0]
    for j in range(1, rows.shape[1]):
        k = np.searchsorted(keys[j - 1], k) * n + rows[:, j]
    return k


# -- canonical form -----------------------------------------------------------

def canonical_form(K: SimplicialComplex) -> tuple[Face, ...]:
    """Lexicographically least facet list over all vertex permutations.

    Unused vertex ids cannot appear in the minimum, so two complexes have
    equal canonical forms exactly when some bijection of their used
    vertices maps facets onto facets.
    """
    if (n := K.n_vertices) > ISO_MAX_VERTICES:
        raise TooLarge(f"canonical form is brute force; n={n} > {ISO_MAX_VERTICES}")
    support, facets = K.rows(0)[:, 0].tolist(), K.facets
    relabels = (dict(zip(support, perm)) for perm in permutations(range(len(support))))
    return min(tuple(sorted(tuple(sorted(relabel[v] for v in f)) for f in facets))
               for relabel in relabels)


# -- .facets text format ------------------------------------------------------

def read_facets(path) -> SimplicialComplex:
    """Load a complex from the ``.facets`` text format.

    Lines starting with '#' are comments; the first content line is
    ``n <count>``; every following non-empty line is one facet, parsed by
    `np.loadtxt`. The count and the labels are int64 in signed ASCII
    decimal, and a path that is no path is refused. Labels already
    inside [0, n) are kept verbatim (so written files round-trip
    byte-identically); otherwise the distinct labels are remapped onto
    0..k-1 in sorted order.
    """
    path = _as_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise BadParams(f"{path}: not UTF-8 text") from None
    content = [ln for ln in map(str.strip, lines) if ln and ln[0] != "#"]
    if not content or not content[0].startswith("n "):
        raise BadParams(f"{path}: expected leading 'n <integer>' line")
    head = content[0].split()
    if len(head) != 2 or (n := _label(head[1])) is None:
        raise BadParams(f"{path}: malformed header {content[0]!r}")
    if not (body := content[1:]):
        raise BadParams(f"{path}: no facets")
    by_width: dict[int, list[str]] = {}
    for ln in body:
        by_width.setdefault(len(ln.split()), []).append(ln)
    try:
        with warnings.catch_warnings():  # older numpy reads "2.7" as 2, with a warning
            warnings.simplefilter("error", DeprecationWarning)
            arrays = [np.loadtxt(group, np.int64, comments=None, ndmin=2)
                      for group in by_width.values()]
    except ValueError:  # name the first line with a token that is no int64 label
        bad = next((ln for ln in body for t in ln.split() if _label(t) is None),
                   None)
        raise BadParams(f"{path}: malformed facet line {bad!r}") from None
    if (low := min(int(a.min()) for a in arrays)) < 0:
        raise BadVertexId(f"{path}: negative vertex label {low}")
    if max(int(a.max()) for a in arrays) >= n:
        labels = np.unique(np.concatenate([a.ravel() for a in arrays]))
        if len(labels) > n:
            raise BadVertexId(f"{path}: {len(labels)} distinct labels exceed n={n}")
        arrays = [np.searchsorted(labels, a) for a in arrays]
    return from_facets(n, arrays=arrays)


def _label(token: str) -> int | None:
    """The value of a `.facets` label, an int64 in signed ASCII decimal, or
    None when ``token`` is none."""
    m = re.fullmatch(r"([+-]?)0*([0-9]{1,19})", token)
    if m and -2 ** 63 <= (value := int(m[1] + m[2])) < 2 ** 63:
        return value
    return None


def _as_path(path):
    """``path`` as a file system path, or refused with `BadParams`: an
    object that is no path (an int would name a file descriptor), or a
    name that no file can have."""
    try:
        if b"\0" not in os.fsencode(path):
            return os.fspath(path)
    except (TypeError, ValueError):
        pass
    raise BadParams(f"expected a file system path, got {path!r}")


def open_for_writing(path):
    """``path`` opened to write UTF-8 text, or refused with `BadParams`."""
    path = _as_path(path)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise BadParams(f"{path}: cannot write ({exc.strerror})") from None


def write_facets(K: SimplicialComplex, path) -> None:
    """Write the ``.facets`` format in canonical sorted order to a path,
    or to ``path`` itself when it is an open text stream."""
    if not hasattr(path, "write"):
        with open_for_writing(path) as fh:
            return write_facets(K, fh)
    width = K.dim + 1  # pad short rows with -1: they sort first, as tuples do
    rows = np.concatenate([np.pad(m, ((0, 0), (0, width - m.shape[1])),
                                  constant_values=-1) for m in K._maximal])
    if len(K._maximal) > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    line = " ".join(["%d"] * width) + "\n"  # one %-format pass for all rows
    path.write(f"n {K.n_vertices}\n" + (line * len(rows) % tuple(
        rows.ravel().tolist())).replace(" -1", ""))
