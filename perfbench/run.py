"""qcomplex benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs from the seed, then runs passes of its jobs,
each pass in a fresh interpreter, until S seconds have gone by. Every
output is checked against an answer that does not come from the code under
test. Times are scaled to a reference host speed that the passes sample
while they run (``speed.py``). With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (medians over
passes); with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from the traced ones. A provenance line precedes
the result. See RATIONALE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import workloads
from spans import SPAN_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PASSRUN = HERE / "passrun.py"

#: Import-only interpreters started per run for the set-up time sample.
SETUP_PROBES = 9
#: Passes per run at least, so that every value is a median of two or more.
MIN_PASSES = 2
#: A run starts no pass that would end later than this after its start,
#: and kills one that does; the killed pass's jobs count as failed.
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio",
                    "job_p50_ms": "ms", "job_p99_ms": "ms"}


def _env() -> dict:
    """The caller's environment, with this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _launch(args: list[str], timeout: float) -> tuple[int | None, str, str]:
    """Run a child interpreter in its own session and wait for all of it.

    On timeout the whole process group (search workers included) is killed.
    Returns (exit code or None on timeout, stdout, stderr).
    """
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(PASSRUN), repr(launched), *args],
                            env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_pass(jobs_path: Path, out_path: Path, trace: bool,
             timeout: float = RUN_LIMIT_S) -> dict | None:
    """One pass in a fresh interpreter; None if it crashed or timed out."""
    code, _, err = _launch([str(jobs_path), str(out_path), "1" if trace else "0"],
                           timeout)
    if code != 0 or not out_path.exists():
        sys.stderr.write(f"perfbench: pass failed (exit {code}): {err[-2000:]}\n")
        return None
    result = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    if not Path(result["qcomplex_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"qcomplex imported from {result['qcomplex_file']}, "
                           f"not from {SRC}")
    return result


def setup_probe() -> float:
    """Seconds from launching an interpreter to ``import qcomplex`` returning,
    scaled to the reference host speed."""
    code, out, err = _launch([], 60)
    if code != 0:
        raise RuntimeError(f"import qcomplex failed: {err[-2000:]}")
    return float(out)


def tally(jobs: list[dict], passes: list[dict | None], refs: dict):
    """Check every output; returns (correct, attempted, failed).

    A job fails when it raises, exits non-zero or fails its check. A failed
    check, or outputs of one job that differ between passes, make the run
    incorrect; a raising job does not.
    """
    correct, attempted, failed = True, 0, 0
    seen: dict[str, str] = {}
    for result in passes:
        attempted += len(jobs)
        if result is None:
            failed += len(jobs)
            correct = False
            continue
        for job, res in zip(jobs, result["jobs"]):
            if res["status"] != "ok":
                sys.stderr.write(f"perfbench: {job['id']}: {res['error']}\n")
                failed += 1
                continue
            try:
                why = workloads.check(job, res["output"], refs.get(job["id"]))
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                why = f"malformed output ({type(exc).__name__}: {exc})"
            if why is not None:
                sys.stderr.write(f"perfbench: {job['id']}: {why}\n")
                failed += 1
                correct = False
            d = workloads.output_digest(res["output"])
            if seen.setdefault(job["id"], d) != d:
                sys.stderr.write(f"perfbench: {job['id']}: output differs "
                                 "between passes\n")
                correct = False
    return correct, attempted, failed


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], setup: list[float], ok_ratio: float) -> dict:
    def med(key):
        return statistics.median(p[key] for p in passes)

    def job_pct(q):
        # pooled over the passes, so that p99 rests on every tail sample
        return _percentile([j["seconds"] * 1e3 for p in passes
                            for j in p["jobs"]], q)

    values = {"wall_s": med("wall_s"), "setup_s": statistics.median(setup),
              "cpu_s": med("cpu_s"),
              "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
              "ok_ratio": ok_ratio,
              "job_p50_ms": job_pct(50), "job_p99_ms": job_pct(99)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    per_pass = [layer_metrics(p["spans"]) for p in traced]
    units = dict(SPAN_METRICS)
    out = {k: {"value": statistics.median(m[k] for m in per_pass),
               "unit": units[k]} for k in units}
    out["process.children_cpu_s"] = {
        "value": statistics.median(p["children_cpu_s"] for p in traced),
        "unit": "s"}
    out["trace.overhead_s"] = {
        "value": (statistics.median(p["wall_s"] for p in traced)
                  - statistics.median(p["wall_s"] for p in plain)),
        "unit": "s"}
    return out


def provenance(workload: str, seed: int, trace: bool,
               passes: list[dict]) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "commit": _git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or f"unset (library default, nproc={os.cpu_count()})",
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE")
                        * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 1),
        # what `qcomplex search` uses when --workers is not given
        "cli_workers": os.cpu_count() or 1,
        # times are scaled by these (see speed.py); raw ones for comparison
        "host_speed": [round(statistics.median(p["speeds"]), 3)
                       for p in passes],
        "raw_wall_s": [round(p["raw_wall_s"], 3) for p in passes],
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qcomplex" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qcomplex sources under {SRC}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    run_end = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, refs = workloads.prepare(args.workload, args.seed, work)
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        setup = [setup_probe() for _ in range(SETUP_PROBES)]
        # a traced run alternates plain and traced passes, so that the
        # overhead compares passes made under the same machine load
        one_round = [False, True] if args.trace else [False]
        passes: list[tuple[bool, dict | None]] = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for traced in one_round:
                result = run_pass(jobs_path, work / "pass.json", traced,
                                  run_end - time.monotonic())
                passes.append((traced, result))
            now = time.monotonic()
            # stop once another round of the same length would not fit
            next_end = now + (now - round_start)
            if next_end > run_end or (len(passes) >= MIN_PASSES
                                      and next_end > start + args.seconds):
                break
        correct, attempted, failed = tally(
            jobs, [r for _, r in passes], refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    plain = [r for t, r in passes if r is not None and not t]
    traced = [r for t, r in passes if r is not None and t]
    if not plain or (args.trace and not traced):
        sys.stderr.write("perfbench: no pass completed\n")
        return 1
    setup += [r["setup_s"] for r in plain + traced]
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setup, (attempted - failed) / attempted)
    print(json.dumps({"provenance": provenance(
        args.workload, args.seed, bool(args.trace), plain + traced)}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
