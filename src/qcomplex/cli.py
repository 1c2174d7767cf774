"""Command-line interface tying generators, homology, spectra, and search
into reproducible runs.

Exit codes: 0 success, 1 contract or computation failure (bound
violations, failed checks, convergence problems), 2 usage errors.
All randomness flows from ``--seed``; identical invocations on identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import acceptance, extremal, families, homology, spectra
from .complex_core import check_seed, open_for_writing, read_facets, write_facets
from .errors import BadParams, NotBasicHole, QComplexError, TooLarge, UsageError

JSON_SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open_for_writing(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ints(spec: str, option: str) -> list[int]:
    """Comma-separated integers; a token that is not one is a usage error."""
    try:
        return [int(tok) for tok in spec.split(",")]
    except ValueError as exc:  # the message names the token
        raise BadParams(f"{option} {spec!r}: {exc}") from None


def _parse_added(spec: str | None):
    return [_ints(part, "--add") for part in spec.split(";")] if spec else None


def _cmd_gen(opt) -> int:
    K = families.make(opt["family"], n=opt["n"], r=opt["r"], t=opt["t"],
                      seed=opt["seed"], added=_parse_added(opt["add"]))
    write_facets(K, opt["output"] or sys.stdout)
    return 0


def _cmd_betti(opt) -> int:
    K = read_facets(opt["file"])
    profile = homology.betti_profile(K)
    line = " ".join(str(b) for b in profile.betti) + f"  chi={profile.euler}\n"
    if opt["format"] == "json":
        payload = {"schema": JSON_SCHEMA_VERSION,
                   "betti": list(profile.betti),
                   "ranks": list(profile.ranks),
                   "chi": profile.euler}
        _emit(json.dumps(payload, sort_keys=True) + "\n", opt["output"])
    else:
        _emit(line, opt["output"])
    return 0


def _cmd_spectra(opt) -> int:
    K = read_facets(opt["file"])
    i, seed = opt["dim"], opt["seed"]
    if opt["perron"]:
        res = spectra.perron_vector(K, i, opt["normalization"], seed=seed)
    else:
        res = spectra.spectral_radius(K, i, seed=seed)
    lines = [f"value={_fmt(res.value)} residual={_fmt(res.residual)} "
             f"iterations={res.iterations}"]
    if res.degenerate:
        lines.append("warning=top eigenvalue numerically multiple; "
                     "vector unreliable")
    if opt["perron"]:  # one %-format pass; "%.12g" is _fmt's format
        table = np.column_stack((K.rows(i).astype(object), res.vector.astype(object)))
        line = ",".join(["%d"] * (i + 1)) + " %.12g"
        lines.append("\n".join([line] * len(table)) % tuple(table.ravel().tolist()))
    _emit("\n".join(lines) + "\n", opt["output"])
    return 0


def _cmd_check(opt) -> int:
    seed = opt["seed"]
    check_seed(seed)
    K = read_facets(opt["file"])
    failures = 0
    lines = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += 0 if ok else 1
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{name}: {'pass' if ok else 'FAIL'}{suffix}")

    profile = homology.betti_profile(K)
    chi = homology.euler_characteristic(K)
    chi_b = sum((-1) ** i * b for i, b in enumerate(profile.betti))
    record("euler_identity", chi == chi_b, f"chi={chi}")

    ids = acceptance.operator_identities(K, seed) if K.dim >= 1 else None
    passes = ids.passes if ids else {}
    for name, ok in passes.items():
        if name.startswith("chain_identity"):
            record(name, ok)

    try:  # the top dimension, most often the largest, refuses first
        hodge = [homology.hodge_betti(K, i) for i in range(K.dim, -1, -1)]
    except TooLarge:
        lines.append("hodge_vs_betti: skipped (too large for dense solve)")
    else:
        record("hodge_vs_betti", hodge[::-1] == list(profile.betti),
               "betti=" + ",".join(map(str, profile.betti)))

    if ids:
        record("quadratic_form", passes["quadratic_form"])
        record("transfer_residual", passes["transfer_residual"],
               f"residual={_fmt(ids.transfer_residual)}")
        record("second_order_identity", passes["second_order_identity"],
               f"max_error={_fmt(ids.second_order_error)}")

    if K.is_pure() and K.dim >= 1:
        try:
            rep = homology.check_basic_hole_properties(K)
        except NotBasicHole:
            lines.append("basic_hole: no")
        else:
            record("basic_hole_properties", rep.all_pass)

    _emit("\n".join(lines) + "\n", opt["output"])
    return 1 if failures else 0


def _cmd_search(opt) -> int:
    search = (extremal.max_facets_search if opt["mode"] == "facets"
              else extremal.max_spectral_search)
    report = search(opt["n"], opt["t"], full_skeleton=opt["full_skeleton"])
    payload = {"schema": JSON_SCHEMA_VERSION, "mode": opt["mode"],
               **vars(report)}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", opt["output"])
    return 1 if report.bound_violations else 0


def _csv(rows: list[list], header: list[str]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_fmt(x) if isinstance(x, float) else str(x)
                            for x in row))
    return "\n".join(out) + "\n"


def _cmd_inspect(opt) -> int:
    K = read_facets(opt["file"])
    report = extremal.proof_inspector(K, seed=opt["seed"])
    d = vars(report)
    if opt["format"] == "json":
        _emit(json.dumps({"schema": JSON_SCHEMA_VERSION, **d}, sort_keys=True,
                         indent=2) + "\n", opt["output"])
        return 0
    # the report's integer fields in order; the apex may be None
    scalar_keys = [k for k, x in d.items() if x is None or type(x) is int]
    header = ["peak_face"] + scalar_keys + [f"verdict_{k}"
                                            for k in sorted(d["verdicts"])]
    row = [" ".join(map(str, d["peak_face"]))]
    row += [str(d[k]) for k in scalar_keys]
    row += [str(d["verdicts"][k]).lower() for k in sorted(d["verdicts"])]
    _emit(_csv([row], header), opt["output"])
    return 0


def _cmd_asymptotic(opt) -> int:
    rows = extremal.asymptotic_check(opt["t"], _ints(opt["n"], "--n"),
                                     seed=opt["seed"])
    if opt["format"] == "json":
        payload = {"schema": JSON_SCHEMA_VERSION, "t": opt["t"],
                   "rows": [vars(r) for r in rows]}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n",
              opt["output"])
        return 0
    header = [f.name for f in dataclasses.fields(extremal.AsymptoticRow)]
    table = [[getattr(r, k) for k in header] for r in rows]
    _emit(_csv(table, header), opt["output"])
    return 0


def _cmd_acceptance(opt) -> int:
    # the report path is refused before the suite runs
    with open_for_writing(opt["output"] or "acceptance_report.json") as fh:
        results = acceptance.run_all()
        lines = [r.line() for r in results]
        n_pass = sum(r.passed for r in results)
        lines.append(f"{n_pass}/{len(results)} criteria passed")
        payload = {
            "schema": JSON_SCHEMA_VERSION,
            "passed": n_pass == len(results),
            "criteria": [vars(r) for r in results],
        }
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if n_pass == len(results) else 1


_DISPATCH = {
    "gen": _cmd_gen,
    "betti": _cmd_betti,
    "spectra": _cmd_spectra,
    "check": _cmd_check,
    "search": _cmd_search,
    "inspect": _cmd_inspect,
    "asymptotic": _cmd_asymptotic,
    "acceptance": _cmd_acceptance,
}


def run(subcommand: str, options: dict) -> int:
    """Execute a parsed invocation and return the process exit code."""
    try:
        return _DISPATCH[subcommand](options)
    except QComplexError as exc:
        sys.stderr.write(f"error {exc.code}: {exc}\n")
        return 2 if isinstance(exc, UsageError) else 1


def _build_parser() -> argparse.ArgumentParser:
    def option(*flags, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    seed = option("--seed", type=int, default=0)
    text_or_json = option("--format", choices=("text", "json"), default="text")
    csv_or_json = option("--format", choices=("csv", "json"), default="csv")
    out = option("-o", "--output", default=None)

    p = argparse.ArgumentParser(
        prog="qcomplex",
        description="Spectra, homology, and extremal search for pure "
                    "simplicial complexes.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", parents=[seed, out],
                       help="generate a named family as a .facets file")
    g.add_argument("family", choices=families.FAMILIES)
    g.add_argument("--n", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--t", type=int)
    g.add_argument("--add", help="added faces, e.g. '1,2,3;4,5,6'")

    b = sub.add_parser("betti", parents=[text_or_json, out],
                       help="print Betti numbers and Euler characteristic")
    b.add_argument("file")

    s = sub.add_parser("spectra", parents=[seed, out],
                       help="largest eigenvalue of the up signless Laplacian")
    s.add_argument("file")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--perron", action="store_true",
                   help="also print the Perron vector as 'face value' lines")
    s.add_argument("--normalization", choices=spectra.NORMALIZATIONS,
                   default="unit_norm")

    c = sub.add_parser("check", parents=[seed, out],
                       help="verify operator and homology identities")
    c.add_argument("file")

    se = sub.add_parser("search", parents=[out],
                        help="exhaustive extremal search (JSON report)")
    se.add_argument("--mode", choices=("facets", "spectral"), required=True)
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--t", type=int, required=True)
    se.add_argument("--no-full-skeleton", dest="full_skeleton",
                    action="store_false")

    ins = sub.add_parser("inspect", parents=[seed, csv_or_json, out],
                         help="proof-quantity inspector (CSV)")
    ins.add_argument("file")

    a = sub.add_parser("asymptotic", parents=[seed, csv_or_json, out],
                       help="normalized spectral excess of the tent family")
    a.add_argument("--t", type=int, required=True)
    a.add_argument("--n", required=True, help="comma-separated list, e.g. 60,120,240")

    sub.add_parser("acceptance", parents=[out],
                   help="run the acceptance suite and write its report")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    options = {k: v for k, v in vars(args).items() if k != "subcommand"}
    return run(args.subcommand, options)


if __name__ == "__main__":
    sys.exit(main())
