"""Tests of the benchmark itself: seeded inputs, answer checks, tracing.

Run from the repository root:

    python -m pytest perfbench/tests -q

The fixtures run real passes of the package in fresh interpreters, so the
whole file takes about half a minute.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _pass(work: Path, jobs: list[dict], trace: bool) -> dict:
    path = work / "jobs.json"
    path.write_text(json.dumps(jobs), encoding="utf-8")
    result = run.run_pass(path, work / f"pass-{int(trace)}.json", trace)
    assert result is not None
    return result


@pytest.mark.parametrize("workload", ["large-tents", "small-corpus"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    workloads.prepare(workload, 7, tmp_path / "a")
    workloads.prepare(workload, 7, tmp_path / "b")
    workloads.prepare(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.fixture(scope="module")
def slow_pass(tmp_path_factory):
    """The spectral search and the big Betti job, after a job that raises."""
    work = tmp_path_factory.mktemp("slow")
    search, search_refs = workloads.prepare("search-n6", 0, work)
    tents, tent_refs = workloads.prepare("large-tents", 0, work)
    raising = {"id": "missing-file", "kind": "cli",
               "argv": ["betti", str(work / "missing.facets")]}
    jobs = [raising, search[1], tents[0]]
    return jobs, {**search_refs, **tent_refs}, _pass(work, jobs, False)


def test_raising_job_is_counted_and_the_run_goes_on(slow_pass):
    jobs, refs, result = slow_pass
    statuses = [j["status"] for j in result["jobs"]]
    assert statuses == ["raised", "ok", "ok"]
    assert "FileNotFoundError" in result["jobs"][0]["error"]
    assert run.tally(jobs, [result], refs) == (True, 3, 1)


def _tampered(result, index, edit):
    bad = copy.deepcopy(result)
    bad["jobs"][index]["output"] = edit(bad["jobs"][index]["output"])
    return bad


def test_changed_betti_line_counts_as_failed(slow_pass):
    jobs, refs, result = slow_pass
    assert result["jobs"][2]["output"] == "1 0 2  chi=3\n"
    bad = _tampered(result, 2, lambda s: s.replace("1 0 2", "1 0 3"))
    assert run.tally(jobs, [bad], refs) == (False, 3, 2)


def test_max_q1_off_by_1e6_counts_as_failed(slow_pass):
    jobs, refs, result = slow_pass

    def bump(text):
        report = json.loads(text)
        report["max_q1"] += 1e-6
        return json.dumps(report, sort_keys=True, indent=2) + "\n"

    bad = _tampered(result, 1, bump)
    assert run.tally(jobs, [bad], refs) == (False, 3, 2)
    # the tolerance check catches it even without the byte digest
    report = json.loads(bad["jobs"][1]["output"])
    assert workloads._check_search("search-spectral", report,
                                   refs["search-spectral"]) is not None


@pytest.fixture(scope="module")
def cheap_passes(tmp_path_factory):
    """Forty corpus complexes plus two tent jobs, untraced and traced."""
    work = tmp_path_factory.mktemp("cheap")
    corpus, refs = workloads.prepare("small-corpus", 5, work)
    tents, tent_refs = workloads.prepare("large-tents", 5, work / "tents")
    jobs = corpus[:40] + [j for j in tents
                          if j["id"] in ("perron-t240_2", "asymptotic-t1")]
    refs.update(tent_refs)
    return jobs, refs, _pass(work, jobs, False), _pass(work, jobs, True)


def test_traced_and_untraced_outputs_are_identical(cheap_passes):
    jobs, refs, plain, traced = cheap_passes
    assert ([j["output"] for j in plain["jobs"]]
            == [j["output"] for j in traced["jobs"]])
    assert run.tally(jobs, [plain, traced], refs) == (
        True, 2 * len(jobs), 0)
    assert plain["spans"] is None and traced["spans"]


def test_corpus_check_rejects_a_wrong_betti_number(cheap_passes):
    jobs, refs, plain, _ = cheap_passes

    def edit(out):
        return {**out, "betti": [out["betti"][0] + 1, *out["betti"][1:]]}

    bad = _tampered(plain, 0, edit)
    assert run.tally(jobs, [bad], refs) == (
        False, len(jobs), 1)


def test_spans_cover_every_module_that_imports_a_function(cheap_passes):
    _, _, _, traced = cheap_passes
    names = [s[0] for s in traced["spans"]]
    # families binds from_facets itself; the tent built inside
    # asymptotic_check must still be traced
    assert any(s[0] == "complex_core.from_facets" and s[3] >= 0
               and names[s[3]] == "extremal.asymptotic_check"
               for s in traced["spans"])
    m = spans.layer_metrics(traced["spans"])
    for key in ("cli.spectra.s", "cli.asymptotic.s", "homology.hodge_betti.s",
                "chains.laplacian.s", "complex_core.read_facets.self_s",
                "spectra.perron_vector.self_s"):
        assert m[key] > 0, key
    assert m["spectra.spectral_radius.calls"] == 40 + 1 + 3
    assert 0 < m["extremal.error_bound_max"] < 1e-9


def test_self_time_subtracts_direct_children():
    recorded = [
        ["homology.betti_profile", 0.0, 10.0, -1, None, None],
        ["homology.integer_rank", 1.0, 4.0, 0, {"cells": 6}, None],
        ["homology.integer_rank", 5.0, 6.0, 0, {"cells": 20}, None],
        ["spectra.spectral_radius", 20.0, 30.0, -1, {"iterations": 7}, None],
        ["spectra.spectral_radius", 21.0, 22.0, 3,
         {"iterations": 100, "no_convergence": 1}, "NoConvergence"],
    ]
    m = spans.layer_metrics(recorded)
    assert m["homology.betti_profile.self_s"] == 6.0
    assert m["homology.integer_rank.calls"] == 2
    assert m["homology.integer_rank.s"] == 4.0
    assert m["homology.integer_rank.cells"] == 26
    assert m["homology.integer_rank.max_mb"] == 20 * 8 / 1e6
    # a re-entered span counts once in .s but its self time is split
    assert m["spectra.spectral_radius.calls"] == 2
    assert m["spectra.spectral_radius.self_s"] == 10.0
    assert m["spectra.iterations"] == 107
    assert m["spectra.no_convergence"] == 1


def test_job_speed_is_the_mean_of_nearby_samples():
    sampler = speed.Sampler()
    sampler.times = [0.0, 1.0, 2.0, 10.0]
    sampler.speeds = [1.0, 0.5, 0.9, 2.0]
    assert sampler.around(1.2, 1.4) == 0.5
    assert sampler.around(0.8, 1.6) == pytest.approx(0.7)
    # no sample within the window: the nearest one
    assert sampler.around(6.5, 6.6) == 2.0
    assert sampler.around(4.0, 4.1) == 0.9
    assert sampler.around(30.0, 31.0) == 2.0


def test_scaled_times_leave_the_samples_out(cheap_passes):
    _, _, plain, _ = cheap_passes
    assert len(plain["speeds"]) >= 2
    for job in plain["jobs"]:
        assert 0 < job["raw_seconds"] and 0 < job["seconds"]
    assert plain["raw_wall_s"] == pytest.approx(
        sum(j["raw_seconds"] for j in plain["jobs"]))
