"""Acceptance suite: every exit criterion the package must satisfy.

Each criterion function returns a :class:`CriterionResult` with the
measured numbers, so the CLI can render a pass/fail table and archive a
JSON report, and the test suite can assert each criterion at its stated
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import chains, extremal, families, homology, spectra
from .errors import NotBasicHole, QComplexError


@dataclass
class CriterionResult:
    id: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.id}: {self.name}"


def criterion_1_tented_formula() -> CriterionResult:
    """q_1 of the 2-dimensional tent equals 2n-3 within 1e-8 for n=4..20."""
    worst = 0.0
    for n in range(4, 21):
        res = spectra.spectral_radius(families.tented(n, 2), 1)
        worst = max(worst, abs(res.value - (2 * n - 3)))
    return CriterionResult(1, "tented spectral formula", worst <= 1e-8,
                           {"max_abs_error": worst})


def criterion_2_facet_maximum() -> CriterionResult:
    """Exhaustive facet maximum equals the closed form, tent among witnesses."""
    details = {}
    ok = True
    for n in (5, 6):
        for t in (0, 1, 2):
            rep = extremal.max_facets_search(n, t)
            want = extremal.facet_bound(n, 2, t)
            good = (rep.max_facets == want and rep.tent_attains_max
                    and not rep.bound_violations)
            details[f"n={n},t={t}"] = {"max_facets": rep.max_facets,
                                       "bound": want,
                                       "tent_attains_max": rep.tent_attains_max}
            ok = ok and good
    return CriterionResult(2, "facet maximum", ok, details)


def criterion_3_spectral_bound() -> CriterionResult:
    """No enumerated complex exceeds the closed-form spectral bound."""
    details = {}
    ok = True
    for n in (4, 5, 6):
        for t in (0, 1, 2):
            if t > n - 3:
                continue
            rep = extremal.max_spectral_search(n, t)
            details[f"n={n},t={t}"] = {
                "enumerated": rep.enumerated_count,
                "max_q1": rep.max_q1,
                "violations": len(rep.bound_violations)}
            ok = ok and not rep.bound_violations
    return CriterionResult(3, "universal spectral bound", ok, details)


def criterion_4_beta0_extremal() -> CriterionResult:
    """At t=0 the unique spectral maximizer up to isomorphism is the tent."""
    details = {}
    ok = True
    for n in (5, 6):
        rep = extremal.max_spectral_search(n, 0)
        unique = rep.tent_attains_max and len(rep.spectral_witnesses) == 1
        details[f"n={n}"] = {"witness_classes": len(rep.spectral_witnesses),
                             "is_tent": unique, "max_q1": rep.max_q1}
        ok = ok and unique
    return CriterionResult(4, "beta2=0 spectral extremal", ok, details)


def criterion_5_asymptotic_law() -> CriterionResult:
    """g(n) near 1 and contracting toward it along doublings."""
    details = {}
    ok = True
    for t in (1, 2):
        rows = extremal.asymptotic_check(t, [60, 120, 240])
        gs = [r.g for r in rows]
        in_window = all(0.7 <= g <= 1.3 for g in gs)
        contracting = all(abs(gs[i + 1] - 1) < abs(gs[i] - 1)
                          for i in range(len(gs) - 1))
        details[f"t={t}"] = {"g": gs, "in_window": in_window,
                             "contracting": contracting}
        ok = ok and in_window and contracting
    return CriterionResult(5, "asymptotic law", ok, details)


def _random_corpus(count: int, seed_base: int):
    for i in range(count):
        yield families.random_pure2(4 + i % 5, seed=seed_base + i)


def criterion_6_hodge_crosscheck() -> CriterionResult:
    """Kernel dimension of the full Laplacian equals the exact Betti number."""
    mismatches = 0
    checked = 0
    try:
        for K in _random_corpus(200, seed_base=0):
            profile = homology.betti_profile(K)
            for i in range(K.dim + 1):
                checked += 1
                if homology.hodge_betti(K, i) != profile.betti[i]:
                    mismatches += 1
    except QComplexError as exc:
        return CriterionResult(6, "Hodge cross-check", False,
                               {"error": str(exc)})
    return CriterionResult(6, "Hodge cross-check", mismatches == 0,
                           {"complexes": 200, "checked_dimensions": checked,
                            "mismatches": mismatches})


class OperatorIdentities(NamedTuple):
    """The operator identities of a complex of dimension at least 1, as
    measured at i = dim - 1."""

    chain_products: tuple[int, ...]  # max |entry| of d_(j-1) d_j, j = 2..dim
    quadratic_rel: float      # quadratic form against <Q_up f, g>
    transfer_residual: float  # up-to-down transfer of the top eigenpair
    second_order_error: float
    second_order_scaled: float  # second_order_error / q^2

    @property
    def passes(self) -> dict[str, bool]:
        """Each identity within its fixed tolerance, keyed by its
        ``qcomplex check`` line name."""
        out = {f"chain_identity_d{j - 1}d{j}": nz == 0
               for j, nz in enumerate(self.chain_products, start=2)}
        out.update(quadratic_form=self.quadratic_rel <= 1e-10,
                   transfer_residual=self.transfer_residual <= 1e-7,
                   second_order_identity=self.second_order_scaled <= 1e-6)
        return out


def _chain_product_max(K, j: int) -> int:
    """max |entry| of d_(j-1) d_j from the two boundary index tables: the
    j-face c reaches the (j-2)-face inner[c, p, q] by omitting its p-th
    vertex, then the q-th, with sign (-1)^(p+q). Exact."""
    tab = chains.boundary_index_table(K, j)
    inner = chains.boundary_index_table(K, j - 1)[tab]
    sign = (-1) ** np.add.outer(np.arange(j + 1), np.arange(j))
    keys = np.arange(len(tab))[:, None, None] * K.n_faces(j - 2) + inner
    _, entry = np.unique(keys, return_inverse=True)
    sums = np.bincount(entry.ravel(), np.broadcast_to(sign, inner.shape).ravel())
    return int(np.abs(sums).max())


def operator_identities(K, seed: int) -> OperatorIdentities:
    """Measure the quadratic form, up/down transfer, second-order and chain
    identities of K, with random test vectors and eigensolve seeded by
    ``seed``."""
    chain_products = tuple(_chain_product_max(K, j) for j in range(2, K.dim + 1))
    i = K.dim - 1
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(K.n_faces(i))
    g = rng.standard_normal(K.n_faces(i))
    lhs = chains.quadratic_form(K, i, f, g)
    rhs = float(chains.apply_q_up(K, i, f) @ g)

    res = spectra.spectral_radius(K, i, seed=seed)
    gdown = spectra.transfer_to_down(K, i, res)
    dres = float(np.linalg.norm(
        chains.apply_q_down(K, i + 1, gdown) - res.value * gdown)
        / np.linalg.norm(gdown))
    err = spectra.second_order_identity_check(K, i, res)
    return OperatorIdentities(chain_products,
                              abs(lhs - rhs) / max(1.0, abs(rhs)), dres,
                              err, err / res.value ** 2)


def criterion_7_operator_identities() -> CriterionResult:
    """Quadratic form, up/down transfer, second-order identity, chain identity."""
    worst = {"quadratic_rel": 0.0, "transfer_residual": 0.0,
             "second_order_scaled": 0.0, "chain_product": 0}
    ok = True
    for idx, K in enumerate(_random_corpus(50, seed_base=1000)):
        ids = operator_identities(K, idx)
        for key in ("quadratic_rel", "transfer_residual", "second_order_scaled"):
            worst[key] = max(worst[key], getattr(ids, key))
        worst["chain_product"] = max(worst["chain_product"], *ids.chain_products)
        ok = ok and all(ids.passes.values())
    return CriterionResult(7, "operator identities", ok, worst)


def criterion_8_euler_identity() -> CriterionResult:
    """Euler identity on the corpus and the telescoping binomial identity."""
    corpus = [families.delta_sphere(r) for r in (1, 2, 3)]
    corpus += [families.rhombic(r) for r in (1, 2, 3)]
    corpus += [families.tented(n, 2) for n in range(4, 9)]
    corpus += [families.tent_plus_common_edge(n, t)
               for n in (6, 7, 8) for t in (1, 2)]
    corpus += list(_random_corpus(20, seed_base=2000))
    euler_ok = True
    for K in corpus:
        profile = homology.betti_profile(K)
        chi_faces = homology.euler_characteristic(K)
        chi_betti = sum((-1) ** i * b for i, b in enumerate(profile.betti))
        euler_ok = euler_ok and chi_faces == chi_betti == profile.euler
    telescoping_ok = all(
        sum((-1) ** (i + 1) * math.comb(n, i) for i in range(1, r + 1))
        + (-1) ** (r + 2) * math.comb(n - 1, r) == 1
        for n in range(2, 31) for r in range(1, n)
    )
    return CriterionResult(8, "Euler and telescoping identities",
                           euler_ok and telescoping_ok,
                           {"corpus_size": len(corpus),
                            "euler_ok": euler_ok,
                            "telescoping_ok": telescoping_ok})


def criterion_9_basic_holes() -> CriterionResult:
    """The two minimal sphere families are basic holes with all properties."""
    details = {}
    ok = True
    for name, K in (("delta_sphere_2", families.delta_sphere(2)),
                    ("rhombic_2", families.rhombic(2))):
        try:
            rep = homology.check_basic_hole_properties(K)
        except NotBasicHole:
            details[name] = {"basic_hole": False}
            ok = False
        else:
            details[name] = {"basic_hole": True,
                             "path_connected": rep.path_connected,
                             "min_degree_two": rep.min_degree_two,
                             "deletion_path_connected": rep.deletion_path_connected}
            ok = ok and rep.all_pass
    return CriterionResult(9, "basic holes", ok, details)


def criterion_10_perron_profile() -> CriterionResult:
    """Perron entries match the asymptotic predictions and tighten with n."""
    prof100 = extremal.perron_profile(families.tent_plus_common_edge(100, 1))
    dev100 = prof100.max_rel_dev
    small = extremal.perron_profile(families.tent_plus_common_edge(20, 1))
    large = extremal.perron_profile(families.tent_plus_common_edge(200, 1))
    decreasing = bool(large.overall_max_rel_dev < small.overall_max_rel_dev)
    ok = (dev100["missing_apex_faces"] <= 0.20
          and dev100["apex_edges"] <= 0.02 and decreasing)
    return CriterionResult(10, "Perron profile", ok,
                           {"n100_missing_apex_faces":
                            float(dev100["missing_apex_faces"]),
                            "n100_apex_edges": float(dev100["apex_edges"]),
                            "n20_max": float(small.overall_max_rel_dev),
                            "n200_max": float(large.overall_max_rel_dev),
                            "decreasing": decreasing})


CRITERIA = (
    criterion_1_tented_formula,
    criterion_2_facet_maximum,
    criterion_3_spectral_bound,
    criterion_4_beta0_extremal,
    criterion_5_asymptotic_law,
    criterion_6_hodge_crosscheck,
    criterion_7_operator_identities,
    criterion_8_euler_identity,
    criterion_9_basic_holes,
    criterion_10_perron_profile,
)


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion and collect the results."""
    return [fn() for fn in CRITERIA]
