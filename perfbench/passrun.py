"""One measured pass of a workload, in a fresh interpreter.

    python passrun.py LAUNCH                       # set-up probe only
    python passrun.py LAUNCH JOBS OUT TRACE        # run the jobs

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start-up and ``import qcomplex``;
it is scaled to the reference host speed by a probe taken right after.
The pass writes job outputs, timings (raw, and scaled to the reference
host speed by ``speed.Sampler``), resource usage and (when TRACE is 1)
its spans to OUT as JSON. Checking the outputs is left to the parent.

Module level imports only ``sys`` and ``time``, so that set-up time is the
interpreter's and the package's alone, and because the search's spawned
worker processes re-import this file.
"""

import sys
import time


def _run_job(qc, job):
    """Run one job; returns (status, output, error)."""
    import contextlib
    import io

    if job["kind"] == "battery":
        try:
            return "ok", _battery(qc, job["file"], job["seed"]), None
        except Exception as exc:
            return "raised", None, f"{type(exc).__name__}: {exc}"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qc.cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        return "raised", None, f"{type(exc).__name__}: {exc}"
    if code != 0:
        return "exit", None, f"exit {code}: {err.getvalue().strip()}"
    return "ok", out.getvalue(), None


def _battery(qc, path, seed):
    """The ``check`` battery through the library's public functions."""
    K = qc.read_facets(path)
    profile = qc.betti_profile(K)
    hodge = [qc.hodge_betti(K, i) for i in range(K.dim + 1)]
    i = K.dim - 1
    res = qc.spectral_radius(K, i, seed=seed)
    g = qc.transfer_to_down(K, i, res)
    return {"betti": list(profile.betti), "hodge": hodge,
            "q1": res.value, "residual": res.residual,
            "transfer": g.tolist(),
            "second_order": qc.second_order_identity_check(K, i, res),
            "basic_hole": qc.is_basic_hole(K) if K.is_pure() else None}


def _cpu_s():
    """User+system seconds of this process and of its reaped children."""
    import resource

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _pass(jobs_path, out_path, trace, setup_s):
    import json
    import resource

    import qcomplex
    import qcomplex.cli
    import spans
    import speed

    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    recorder = spans.install() if trace else None
    # each job's time, less the samples taken during it, is scaled to the
    # reference speed by the samples around it; cpu_s by the pass's mean
    results, bounds = [], []
    cpu = _cpu_s()
    with speed.Sampler() as sampler:
        for job in jobs:
            spent = sampler.spent
            start = time.perf_counter()
            status, output, error = _run_job(qcomplex, job)
            end = time.perf_counter()
            bounds.append((start, end))
            results.append({"id": job["id"], "status": status,
                            "output": output, "error": error,
                            "raw_seconds": (end - start
                                            - (sampler.spent - spent))})
    cpu = _cpu_s() - cpu - sampler.spent
    for res, (start, end) in zip(results, bounds):
        res["seconds"] = res["raw_seconds"] * sampler.around(start, end)
    raw_wall = sum(r["raw_seconds"] for r in results)
    wall = sum(r["seconds"] for r in results)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    me = resource.getrusage(resource.RUSAGE_SELF)
    payload = {
        "setup_s": setup_s,
        "qcomplex_file": qcomplex.__file__,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "cpu_s": cpu * wall / raw_wall,
        "speeds": sampler.speeds,
        "children_cpu_s": kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) * 1024 / 1e6,
        "jobs": results,
        "spans": recorder.spans if recorder else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    launched = float(sys.argv[1])
    import qcomplex  # noqa: F401  (the import is what set-up time measures)

    setup = time.monotonic() - launched
    import speed

    setup *= speed.probe()
    if len(sys.argv) == 2:
        print(repr(setup))
    else:
        _pass(sys.argv[2], sys.argv[3], sys.argv[4] == "1", setup)
