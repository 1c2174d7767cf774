from itertools import combinations

import pytest
from hypothesis import strategies as st

from qcomplex import from_facets


@pytest.fixture
def triangle():
    return from_facets(3, [(0, 1, 2)])


@pytest.fixture
def delta4():
    """Boundary of the tetrahedron: all four triples of {0,1,2,3}."""
    return from_facets(4, list(combinations(range(4), 3)))


@pytest.fixture
def two_triangles():
    return from_facets(6, [(0, 1, 2), (3, 4, 5)])


def suspension(m):
    """The suspension of an m-gon: 2m triangles forming a 2-sphere."""
    ring = [tuple(sorted((i, (i + 1) % m))) for i in range(m)]
    return from_facets(m + 2, [e + (apex,) for e in ring
                               for apex in (m, m + 1)])


@st.composite
def pure2_complexes(draw, min_n=4, max_n=6, max_facets=12):
    """Random nonempty triangle subsets on a small labeled vertex set."""
    n = draw(st.integers(min_n, max_n))
    triangles = list(combinations(range(n), 3))
    picks = draw(st.sets(st.integers(0, len(triangles) - 1),
                         min_size=1, max_size=min(max_facets, len(triangles))))
    return from_facets(n, [triangles[k] for k in picks])


@st.composite
def mixed_candidates(draw, max_n=6):
    """Vertex count and candidate faces of mixed dimensions (1 to 3)."""
    n = draw(st.integers(4, max_n))
    faces = []
    for size in (2, 3, 4):
        pool = list(combinations(range(n), size))
        picks = draw(st.sets(st.integers(0, len(pool) - 1), max_size=5))
        faces.extend(pool[k] for k in picks)
    if not faces:
        faces = [(0, 1)]
    return n, faces


def mixed_complexes(max_n=6):
    """Random complexes with facets of mixed dimensions (1 to 3)."""
    return mixed_candidates(max_n).map(lambda c: from_facets(*c))
