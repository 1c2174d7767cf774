"""Workload inputs, reference answers and answer checks.

Everything here is independent of the code under test: inputs are written
from the seed with the standard library, and references come from closed
forms, from byte digests recorded at the baseline commit, or from numpy and
scipy applied to boundary matrices this module builds itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

WORKLOADS = ("search-n6", "large-tents", "small-corpus")

#: Complexes per small-corpus pass.
CORPUS_SIZE = 1000
#: Probability that a small-corpus complex keeps a given triangle.
TRIANGLE_P = 0.5
#: Probability of each tetrahedron in every fourth small-corpus complex.
TETRA_P = 0.02

#: Relative agreement of an eigenvalue with its reference. The references
#: are accurate to about 1e-14 relative; text output carries 12 digits.
VALUE_RTOL = 1e-10
#: Absolute agreement of a spectral excess q1 - (2n - 3) with its reference.
EXCESS_ATOL = 1e-9
#: Absolute agreement of a printed Perron entry with the reference vector.
VECTOR_ATOL = 1e-8
#: Gap below which the CLI must flag the top eigenvalue as multiple.
DEGENERACY_GAP = 1e-9

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


# -- complexes, built here and not by the code under test ---------------------


def tent_facets(n: int, t: int) -> list[tuple[int, ...]]:
    """Tent on n vertices (apex 0) plus t facets through the edge {1, 2}."""
    return ([(0, a, b) for a, b in combinations(range(1, n), 2)]
            + [(1, 2, x) for x in range(3, 3 + t)])


def twin_tent_facets(n: int = 40) -> list[tuple[int, ...]]:
    """Two disjoint n-vertex tents; the second one gets one extra face.

    Its top two eigenvalues differ by about 1.6e-4 at n = 40.
    """
    first = [(0, a, b) for a, b in combinations(range(1, n), 2)]
    second = [(n, n + a, n + b) for a, b in combinations(range(1, n), 2)]
    return first + second + [(n + 1, n + 2, n + 3)]


def closure(facets) -> list[list[tuple[int, ...]]]:
    """Sorted faces of each dimension of the complex the facets span."""
    top = max(len(f) for f in facets) - 1
    by_dim = [set() for _ in range(top + 1)]
    for f in facets:
        for i in range(len(f)):
            by_dim[i].update(combinations(f, i + 1))
    return [sorted(s) for s in by_dim]


def boundary(lower, upper, signed: bool) -> sp.csr_matrix:
    """Boundary matrix from the faces ``upper`` onto the faces ``lower``."""
    index = {f: k for k, f in enumerate(lower)}
    rows, cols, vals = [], [], []
    for c, F in enumerate(upper):
        for j in range(len(F)):
            rows.append(index[F[:j] + F[j + 1:]])
            cols.append(c)
            vals.append((-1.0) ** j if signed else 1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(lower), len(upper)))


def q_up(faces, i: int) -> sp.csr_matrix:
    """Up signless Laplacian on the i-faces."""
    B = boundary(faces[i], faces[i + 1], signed=False)
    return (B @ B.T).tocsr()


def top_pair_sparse(Q: sp.csr_matrix):
    """Top two eigenvalues (descending) and the unit, positive top vector."""
    w, v = sla.eigsh(Q, k=2, which="LA", tol=0)
    order = np.argsort(w)[::-1]
    vec = v[:, order[0]]
    return w[order], vec if vec.sum() > 0 else -vec


def is_pure(listed) -> bool:
    """Whether the maximal listed faces all have one dimension."""
    proper = {c for f in listed for i in range(1, len(f))
              for c in combinations(f, i)}
    return len({len(f) for f in listed if f not in proper}) == 1


# -- inputs -------------------------------------------------------------------


def write_facets(path: Path, n: int, facets, rng: random.Random) -> None:
    """Write a ``.facets`` file with its lines in a seeded random order."""
    lines = [" ".join(map(str, f)) for f in facets]
    rng.shuffle(lines)
    path.write_text(f"# written by perfbench\nn {n}\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")


def corpus(seed: int, count: int = CORPUS_SIZE):
    """Seeded random complexes: (n, listed faces) pairs.

    Each keeps every triangle on 5..12 vertices with probability
    TRIANGLE_P; every fourth one also lists sparse tetrahedra (at least
    one), so dimensions 2 and 3 mix and some complexes are not pure.
    Vertex counts cycle in blocks of four, so every seed has the same mix
    of sizes and only the faces drawn differ; that keeps the slowest
    percent of jobs comparable between seeds.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 5 + (k // 4) % 8
        tris = []
        while not tris:
            tris = [t for t in combinations(range(n), 3)
                    if rng.random() < TRIANGLE_P]
        faces = tris
        if k % 4 == 3:
            tets = [q for q in combinations(range(n), 4)
                    if rng.random() < TETRA_P]
            faces = tris + (tets or [tuple(sorted(rng.sample(range(n), 4)))])
        out.append((n, faces))
    return out


def prepare(workload: str, seed: int, work: Path):
    """Write the workload's input files into ``work``.

    Returns the job list (JSON-ready dicts) and the reference answers
    keyed by job id. The same seed gives byte-identical files.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search-n6":
        jobs = [{"id": f"search-{mode}", "kind": "cli",
                 "argv": ["search", "--mode", mode, "--n", "6", "--t", "1"]}
                for mode in ("facets", "spectral")]
        tent = q_up(closure(tent_facets(6, 1)), 1).toarray()
        return jobs, {"search-spectral": float(np.linalg.eigvalsh(tent)[-1])}

    if workload == "large-tents":
        return _prepare_large_tents(seed, work, rng)

    jobs, refs = [], {}
    for k, (n, faces) in enumerate(corpus(seed)):
        path = work / f"c{k:04d}.facets"
        write_facets(path, n, faces, rng)
        jobs.append({"id": f"c{k:04d}", "kind": "battery", "file": str(path),
                     "seed": seed})
        refs[f"c{k:04d}"] = _corpus_reference(faces)
    return jobs, refs


def _prepare_large_tents(seed: int, work: Path, rng: random.Random):
    files = {"t50_2": (50, tent_facets(50, 2)),
             "t40_1": (40, tent_facets(40, 1)),
             "t240_2": (240, tent_facets(240, 2)),
             "twin40": (80, twin_tent_facets(40))}
    for name, (n, facets) in files.items():
        write_facets(work / f"{name}.facets", n, facets, rng)

    def path(name):
        return str(work / f"{name}.facets")

    s = str(seed)
    jobs = [
        {"id": "betti-t50_2", "kind": "cli", "argv": ["betti", path("t50_2")]},
        {"id": "inspect-t40_1", "kind": "cli",
         "argv": ["inspect", path("t40_1")]},
        {"id": "perron-t240_2", "kind": "cli",
         "argv": ["spectra", path("t240_2"), "--dim", "1", "--perron",
                  "--seed", s]},
        {"id": "asymptotic-t1", "kind": "cli",
         "argv": ["asymptotic", "--t", "1", "--n", "60,120,240", "--seed", s]},
        {"id": "asymptotic-t2", "kind": "cli",
         "argv": ["asymptotic", "--t", "2", "--n", "60,120,240", "--seed", s]},
        {"id": "spectra-twin40", "kind": "cli",
         "argv": ["spectra", path("twin40"), "--dim", "1", "--seed", s]},
    ]
    faces240 = closure(tent_facets(240, 2))
    values, vec = top_pair_sparse(q_up(faces240, 1))
    refs = {
        "perron-t240_2": {"values": values.tolist(), "vector": vec,
                          "edges": faces240[1], "n": 240, "t": 2},
        "spectra-twin40": {"values": top_pair_sparse(
            q_up(closure(twin_tent_facets(40)), 1))[0].tolist()},
    }
    for t in (1, 2):
        refs[f"asymptotic-t{t}"] = {
            n: top_pair_sparse(q_up(closure(tent_facets(n, t)), 1))[0][0]
            for n in (60, 120, 240)}
    return jobs, refs


def _corpus_reference(listed) -> dict:
    faces = closure(listed)
    dim = len(faces) - 1
    signed = [boundary(faces[i - 1], faces[i], True).toarray()
              for i in range(1, dim + 1)]
    ranks = [0] + [int(np.linalg.matrix_rank(A)) for A in signed] + [0]
    betti = [len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(dim + 1)]
    B = boundary(faces[dim - 1], faces[dim], signed=False).toarray()
    q1 = float(np.linalg.eigvalsh(B @ B.T)[-1])
    hole = None
    if is_pure(listed):
        top = signed[-1]
        hole = betti[dim] == 1
        if hole:
            z = np.linalg.svd(top)[2][-1]
            hole = bool((np.abs(z) > 1e-8 * np.abs(z).max()).all())
    return {"betti": betti, "q1": q1, "B": B, "basic_hole": hole}


# -- checks -------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(x: float, ref: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def check(job: dict, output, ref) -> str | None:
    """Why the output of a completed job is wrong, or None if it is right.

    Output that cannot be parsed raises KeyError, ValueError, IndexError or
    TypeError; the caller counts that as wrong too.
    """
    if job["kind"] == "battery":
        return _check_battery(output, ref)
    jid = job["id"]
    if jid in EXPECTED and digest(output) != EXPECTED[jid]:
        return "output differs from the baseline bytes"
    if jid.startswith("search-"):
        return _check_search(jid, json.loads(output), ref)
    if jid == "betti-t50_2":
        return None if output == "1 0 2  chi=3\n" else "betti numbers != (1,0,2)"
    if jid == "inspect-t40_1":
        rows = [ln.split(",") for ln in output.splitlines()]
        row = dict(zip(rows[0], rows[1]))
        return None if row.get("betti_top") == "1" else "betti_top != 1"
    if jid.startswith("asymptotic-"):
        return _check_asymptotic(int(jid[-1]), output, ref)
    return _check_spectra(jid, output, ref)


def _check_search(jid: str, report: dict, ref) -> str | None:
    if report["bound_violations"] or report["tent_attains_max"] is not True:
        return "bound violation or tent not extremal"
    if jid == "search-facets":
        # C(n-1, 2) + t at n = 6, t = 1
        return None if report["max_facets"] == 11 else "max_facets != 11"
    if not _close(report["max_q1"], ref, 1e-12):
        return f"max_q1 {report['max_q1']!r} != tent value {ref!r}"
    return None


def _parse_value_line(line: str) -> dict:
    return {k: float(v) for k, v in (kv.split("=") for kv in line.split())}


def _check_spectra(jid: str, text: str, ref: dict) -> str | None:
    lines = text.splitlines()
    head = _parse_value_line(lines[0])
    values = ref["values"]
    if not _close(head["value"], values[0]):
        return f"value {head['value']!r} != reference {values[0]!r}"
    if head["residual"] > 1e-10:
        return "residual above the requested tolerance"
    warned = len(lines) > 1 and lines[1].startswith("warning=")
    if warned != (values[0] - values[1] < DEGENERACY_GAP):
        return "degeneracy warning disagrees with the reference gap"
    if jid != "perron-t240_2":
        return None if len(lines) == 1 + warned else "unexpected extra lines"
    n, t = ref["n"], ref["t"]
    if not 2 * n - 3 <= head["value"] <= 2 * n - 3 + t:
        return "q1 outside [2n-3, 2n-3+t]"
    body = lines[1 + warned:]
    if len(body) != len(ref["edges"]):
        return f"{len(body)} Perron lines for {len(ref['edges'])} edges"
    labels = [tuple(map(int, ln.split()[0].split(","))) for ln in body]
    if labels != ref["edges"]:
        return "Perron lines not in lexicographic edge order"
    entries = np.array([float(ln.split()[1]) for ln in body])
    if np.abs(entries - ref["vector"]).max() > VECTOR_ATOL:
        return "Perron vector differs from the reference"
    return None


def _check_asymptotic(t: int, text: str, ref: dict) -> str | None:
    rows = [ln.split(",") for ln in text.splitlines()]
    if rows[0] != ["n", "q1", "excess", "g", "error_bound"]:
        return "unexpected CSV header"
    if [int(r[0]) for r in rows[1:]] != sorted(ref):
        return "unexpected n column"
    for r in rows[1:]:
        n, q1, excess, g, err = int(r[0]), *map(float, r[1:])
        base = 2 * n - 3
        if not (_close(q1, ref[n]) and abs(excess - (ref[n] - base)) <= EXCESS_ATOL):
            return f"q1 at n={n} differs from the reference"
        if not 0 < excess <= t:
            return f"excess at n={n} outside (0, t]"
        if not _close(g, excess * n ** 3 / (9 * t), 1e-9):
            return f"g at n={n} inconsistent with the excess"
        if not 0 <= err <= 0.05 * 9 * t / n ** 3:
            return f"error bound at n={n} above 5% of the signal"
    return None


def _check_battery(out: dict, ref: dict) -> str | None:
    if out["betti"] != ref["betti"]:
        return f"betti {out['betti']} != reference {ref['betti']}"
    if out["hodge"] != ref["betti"]:
        return f"hodge betti {out['hodge']} != reference {ref['betti']}"
    q1 = out["q1"]
    if not _close(q1, ref["q1"], 1e-9):
        return f"q1 {q1!r} != reference {ref['q1']!r}"
    if out["residual"] > 1e-8:
        return "eigenpair residual above 1e-8"
    B = ref["B"]
    g = np.array(out["transfer"])
    if not np.linalg.norm(B.T @ (B @ g) - q1 * g) <= 1e-7 * np.linalg.norm(g):
        return "transferred vector is not a Q_down eigenvector"
    if not 0 <= out["second_order"] <= 1e-6 * q1 * q1:
        return "second-order identity defect too large"
    if out["basic_hole"] != ref["basic_hole"]:
        return f"is_basic_hole {out['basic_hole']} != {ref['basic_hole']}"
    return None


def output_digest(output) -> str:
    """Digest of one job's output, for comparing passes with each other."""
    return digest(output if isinstance(output, str)
                  else json.dumps(output, sort_keys=True))

