import hashlib
import json

import pytest

from qcomplex import (delta_sphere, from_facets, perron_vector, read_facets,
                      simplex_skeleton, tent_plus_common_edge, tented,
                      write_facets)
from qcomplex import chains, cli, errors, homology, spectra
from qcomplex.cli import main

from conftest import faces


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_gen_writes_facets(self, tmp_path):
        out = tmp_path / "t.facets"
        assert run_cli("gen", "tented", "--n", "6", "--r", "2",
                       "-o", str(out)) == 0
        K = read_facets(out)
        assert K == tented(6, 2)

    def test_gen_to_stdout(self, capsys):
        assert run_cli("gen", "delta_sphere", "--r", "2") == 0
        out = capsys.readouterr().out
        assert out.startswith("n 4\n")
        assert "0 1 2" in out

    def test_gen_stdout_bytes_equal_file_bytes(self, tmp_path, capsys):
        out = tmp_path / "t.facets"
        args = ("gen", "tent_plus_common_edge", "--n", "9", "--t", "2")
        assert run_cli(*args) == 0
        stdout = capsys.readouterr().out
        assert run_cli(*args, "-o", str(out)) == 0
        assert stdout.encode("utf-8") == out.read_bytes()

    def test_gen_added_faces(self, tmp_path):
        out = tmp_path / "a.facets"
        assert run_cli("gen", "tent_plus_faces", "--n", "7",
                       "--add", "1,2,3;4,5,6", "-o", str(out)) == 0
        K = read_facets(out)
        assert (4, 5, 6) in K.facets

    def test_gen_bad_params_is_usage_error(self):
        assert run_cli("gen", "tented", "--n", "2") == 2

    def test_gen_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.facets"
        assert run_cli("gen", "tented", "--n", "5", "-o", str(path)) == 2
        assert capsys.readouterr().err.startswith(
            f"error bad_params: {path}: cannot write")

    def test_gen_bad_added_token_is_usage_error(self, capsys):
        assert run_cli("gen", "tent_plus_faces", "--n", "6",
                       "--add", "1,2,x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error bad_params: --add '1,2,x': ")
        assert err.rstrip().endswith("'x'")

    def test_gen_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen", "random_pure2", "--n", "6", "--seed", "9", "-o", str(a))
        run_cli("gen", "random_pure2", "--n", "6", "--seed", "9", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestBettiAndSpectra:
    def test_betti_line(self, tmp_path, capsys):
        f = tmp_path / "d.facets"
        run_cli("gen", "delta_sphere", "--r", "2", "-o", str(f))
        assert run_cli("betti", str(f)) == 0
        assert capsys.readouterr().out == "1 0 1  chi=2\n"

    def test_spectra_value(self, tmp_path, capsys):
        f = tmp_path / "t.facets"
        run_cli("gen", "tented", "--n", "6", "--r", "2", "-o", str(f))
        assert run_cli("spectra", str(f), "--dim", "1") == 0
        out = capsys.readouterr().out
        assert out.startswith("value=9 ")
        assert "iterations=" in out

    def test_spectra_perron_lines(self, tmp_path, capsys):
        f = tmp_path / "tri.facets"
        f.write_text("n 3\n0 1 2\n")
        assert run_cli("spectra", str(f), "--dim", "1", "--perron") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("value=3")
        assert len(lines) == 4  # header + 3 edges
        face_token, value_token = lines[1].split()
        assert face_token == "0,1"
        assert float(value_token) == pytest.approx(1 / 3 ** 0.5, abs=1e-9)

    @pytest.mark.parametrize("K,i,norm", [
        (tented(9, 2), 1, "unit_norm"),
        (tent_plus_common_edge(11, 2), 1, "max_boundary_sum_one"),
        (delta_sphere(3), 2, "unit_norm"),
        (from_facets(7, [(0, 1, 2, 3), (2, 3, 4, 5), (1, 5, 6)]), 0, "unit_norm"),
    ])
    def test_spectra_perron_bytes_match_per_face_format(self, K, i, norm,
                                                        tmp_path, capsys):
        # one %-format pass gives the bytes of one format call per face
        f = tmp_path / "k.facets"
        write_facets(K, f)
        assert run_cli("spectra", str(f), "--dim", str(i), "--perron",
                       "--normalization", norm) == 0
        head, *rest = capsys.readouterr().out.splitlines(keepends=True)
        vec = perron_vector(K, i, norm).vector
        assert rest == [",".join(map(str, F)) + " " + format(float(x), ".12g") + "\n"
                        for F, x in zip(faces(K, i), vec)]

    @pytest.mark.parametrize("command", [("spectra", "--dim", "1"),
                                         ("inspect",)])
    def test_tol_zero_is_honoured(self, command, tmp_path, capsys,
                                  monkeypatch):
        # a zero residual gate is never met, so the solver must refuse
        f = tmp_path / "t.facets"
        run_cli("gen", "tented", "--n", "8", "--r", "2", "-o", str(f))
        monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
        assert run_cli(command[0], str(f), *command[1:]) == 1
        assert "error no_convergence:" in capsys.readouterr().err

    def test_round_trip_gen_betti_never_errors(self, tmp_path):
        cases = [
            ("tented", "--n", "8"),
            ("rhombic", "--r", "3"),
            ("tent_plus_common_edge", "--n", "7", "--t", "2"),
            ("simplex_skeleton", "--n", "5", "--r", "2"),
        ]
        for k, case in enumerate(cases):
            f = tmp_path / f"{k}.facets"
            assert run_cli("gen", *case, "-o", str(f)) == 0
            assert run_cli("betti", str(f)) == 0


class TestCheck:
    def test_check_passes_on_sphere(self, tmp_path, capsys):
        f = tmp_path / "d.facets"
        run_cli("gen", "delta_sphere", "--r", "2", "-o", str(f))
        assert run_cli("check", str(f)) == 0
        out = capsys.readouterr().out
        assert "euler_identity: pass" in out
        assert "basic_hole_properties: pass" in out

    def test_check_tent(self, tmp_path, capsys):
        f = tmp_path / "t.facets"
        run_cli("gen", "tented", "--n", "7", "-o", str(f))
        assert run_cli("check", str(f)) == 0
        assert "basic_hole: no" in capsys.readouterr().out

    def test_one_basic_hole_decision(self, tmp_path, capsys, monkeypatch):
        # the suspension of a 1,000-gon, a basic hole: the property check
        # decides whether it is one, and nothing decides it again
        m = 1000
        f = tmp_path / "susp.facets"
        write_facets(from_facets(m + 2, [(min(i, (i + 1) % m),
                                          max(i, (i + 1) % m), m + s)
                                         for i in range(m) for s in (0, 1)]), f)
        calls = []
        decide = homology.is_basic_hole
        monkeypatch.setattr(homology, "is_basic_hole",
                            lambda K: calls.append(K) or decide(K))
        assert run_cli("check", str(f)) == 0
        assert "basic_hole_properties: pass" in capsys.readouterr().out
        assert len(calls) == 1

    def test_check_beyond_dense_limit(self, tmp_path, capsys):
        # 4,950 edges: past the dense-matrix limit of the chain identity
        f = tmp_path / "t100.facets"
        run_cli("gen", "tent_plus_common_edge", "--n", "100", "--t", "1",
                "-o", str(f))
        assert run_cli("check", str(f)) == 0
        out = capsys.readouterr().out
        assert "chain_identity_d1d2: pass\n" in out
        assert "FAIL" not in out

    def test_hodge_skipped_exactly_above_the_dense_limit(self, tmp_path,
                                                         capsys, monkeypatch):
        # 21 edges and 35 triangles: the eigensolve on the edges stays dense
        # at both limits, so only the Hodge line may change
        f = tmp_path / "s7.facets"
        write_facets(simplex_skeleton(7, 2), f)
        outputs = []
        for limit in (35, 34):
            monkeypatch.setattr(chains, "DENSE_LIMIT", limit)
            assert run_cli("check", str(f)) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        hodge = [k for k, line in enumerate(outputs[0])
                 if line.startswith("hodge_vs_betti")]
        assert len(hodge) == 1
        assert outputs[0][hodge[0]] == "hodge_vs_betti: pass (betti=1,0,20)"
        assert outputs[1][hodge[0]] == ("hodge_vs_betti: skipped "
                                        "(too large for dense solve)")
        del outputs[0][hodge[0]], outputs[1][hodge[0]]
        assert outputs[0] == outputs[1]


class TestSearch:
    def test_facets_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli("search", "--mode", "facets", "--n", "5", "--t", "1",
                       "-o", str(out))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == 1
        assert rep["max_facets"] == 7
        assert rep["tent_attains_max"] is True
        assert rep["bound_violations"] == []

    def test_spectral_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli("search", "--mode", "spectral", "--n", "5",
                           "--t", "0", "-o", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()
        rep = json.loads(a.read_text())
        assert rep["max_q1"] == pytest.approx(7.0, abs=1e-9)

    def test_workers_flag_removed(self):
        # the search runs in one process and takes no worker count
        with pytest.raises(SystemExit) as exc:
            run_cli("search", "--mode", "facets", "--n", "5", "--t", "1",
                    "--workers", "2")
        assert exc.value.code == 2

    def test_usage_error_on_bad_t(self):
        assert run_cli("search", "--mode", "facets", "--n", "5", "--t", "9") == 2

    def test_full_skeleton_flag_removed(self):
        # the full-skeleton domain is the default; only its negation is a flag
        with pytest.raises(SystemExit) as exc:
            run_cli("search", "--mode", "spectral", "--n", "5", "--t", "1",
                    "--full-skeleton")
        assert exc.value.code == 2


#: SHA-256 of the `search` JSON reports, facets mode then spectral mode.
SEARCH_DIGESTS = {
    (6, 0, True): (
        "7ffd02eb99737a58b627807272761884b02b20384f1580e2644cddd737811f9b",
        "8a91cb031a225e139baf41054a1f6fec0d77efa9e643b29bcf5ff7fa13c50581"),
    (6, 1, True): (
        "8fc5d1d9416987bb67ad7bd11c916a41fe369132a297978baa01e9db5745d035",
        "df93e44d2ea94c0cbdde1920008c870da8bb0ddd51de2dfa7e941752b27b8564"),
    (6, 2, True): (
        "b4e745a20fab45a2af0797a0ad319a6fbdd1c897e38e921f263c6b3445b997d2",
        "2d2e8dd96b614c24503e1674951726c6da42e1f448fa3124f105003acb7f8e41"),
    (5, 1, False): (
        "ca5165e999c6e4fe4665f231d486e041a49f0116ddcd09334ff6cce8f4a9fb47",
        "8e3cc69630185b350709c709d03d17af909a9beec476738a2c40dc63dfa7340c"),
    (5, 2, False): (
        "c0732e8177b2a7aafe06743c71ff5071c0f9668a693bd8a7fc3b8b28c62c2768",
        "f622311cc258937135e3ca13c26add8c4669d149ce7739aba7deced7ec89752f"),
}


class TestSearchGoldenBytes:
    @pytest.mark.parametrize("n,t,full", sorted(SEARCH_DIGESTS))
    def test_report_digests(self, n, t, full, tmp_path):
        skeleton = [] if full else ["--no-full-skeleton"]
        for mode, want in zip(("facets", "spectral"), SEARCH_DIGESTS[n, t, full]):
            out = tmp_path / f"{mode}.json"
            assert run_cli("search", "--mode", mode, "--n", str(n),
                           "--t", str(t), *skeleton, "-o", str(out)) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == want


class TestInspectAndAsymptotic:
    def test_inspect_csv(self, tmp_path, capsys):
        f = tmp_path / "t.facets"
        run_cli("gen", "tent_plus_common_edge", "--n", "21", "--t", "1",
                "-o", str(f))
        assert run_cli("inspect", str(f)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("peak_face,betti_top,apex,")
        row = lines[1].split(",")
        assert row[0] == "0 1 2"

    def test_inspect_json(self, tmp_path, capsys):
        f = tmp_path / "t.facets"
        run_cli("gen", "tent_plus_common_edge", "--n", "21", "--t", "2",
                "-o", str(f))
        assert run_cli("inspect", str(f), "--format", "json") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["n_apex_missing"] == 2
        assert rep["verdicts"]["apex_missing_bound"] is True
        assert rep["caveat"].startswith("hypothesis")

    def test_asymptotic_csv(self, capsys):
        assert run_cli("asymptotic", "--t", "1", "--n", "30,60") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,q1,excess,g,error_bound"
        assert len(lines) == 3
        n, q1, excess, g, err = lines[2].split(",")
        assert n == "60"
        assert float(q1) == pytest.approx(117.0, abs=1e-3)
        assert 0.7 <= float(g) <= 1.3

    @pytest.mark.parametrize("command", [
        ["spectra", "{file}", "--dim", "1", "--seed", "-1"],
        ["check", "{file}", "--seed", "-1"],
        ["asymptotic", "--t", "1", "--n", "60", "--seed", "-3"],
        ["gen", "random_pure2", "--n", "5", "--seed", "-1"],
    ], ids=["spectra", "check", "asymptotic", "gen"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        f = tmp_path / "t40.facets"
        run_cli("gen", "tent_plus_common_edge", "--n", "40", "--t", "1",
                "-o", str(f))
        argv = [str(f) if tok == "{file}" else tok for tok in command]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error bad_params: seed ")
        assert captured.out == ""

    @pytest.mark.parametrize("spec,token", [("60,x", "'x'"), (",", "''")])
    def test_asymptotic_bad_n_token_is_usage_error(self, spec, token, capsys):
        assert run_cli("asymptotic", "--t", "1", "--n", spec) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error bad_params: --n {spec!r}: ")
        assert err.rstrip().endswith(token)


#: Of --seed, --tol, --format and -o, the options each subcommand reads;
#: none reads --tol, so every subcommand refuses it.
READS = {"gen": {"--seed", "-o"}, "betti": {"--format", "-o"},
         "spectra": {"--seed", "-o"}, "check": {"--seed", "-o"},
         "search": {"-o"}, "inspect": {"--seed", "--format", "-o"},
         "asymptotic": {"--seed", "--format", "-o"},
         "acceptance": {"-o"}}
REQUIRED = {"gen": ["tented"], "betti": ["k.facets"],
            "spectra": ["k.facets", "--dim", "1"], "check": ["k.facets"],
            "search": ["--mode", "spectral", "--n", "5", "--t", "1"],
            "inspect": ["k.facets"], "asymptotic": ["--t", "1", "--n", "60"],
            "acceptance": []}
VALUES = {"--seed": ("2", "seed", 2), "--tol": ("1", "tol", 1.0),
          "--format": ("json", "format", "json"),
          "-o": ("out.txt", "output", "out.txt")}


@pytest.mark.parametrize("sub,option", [
    pytest.param(sub, option, id=f"{sub} {option}")
    for sub in REQUIRED for option in VALUES])
def test_each_subcommand_takes_only_the_options_it_reads(sub, option,
                                                        monkeypatch):
    # an option a subcommand would ignore is a usage error, not a no-op
    parsed = {}
    monkeypatch.setattr(cli, "run", lambda subcommand, options:
                        parsed.update(options) or 0)
    token, key, value = VALUES[option]
    argv = [sub, *REQUIRED[sub], option, token]
    if option in READS[sub]:
        assert main(argv) == 0
        assert parsed[key] == value
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


#: An invocation of each subcommand that answers; {file} is a tent file.
ANSWERS = {"gen": ["tented", "--n", "5"], "betti": ["{file}"],
           "spectra": ["{file}", "--dim", "1"], "check": ["{file}"],
           "search": ["--mode", "facets", "--n", "5", "--t", "1"],
           "inspect": ["{file}"], "asymptotic": ["--t", "1", "--n", "20"],
           "acceptance": []}


@pytest.mark.parametrize("sub", [sub for sub in READS if "-o" in READS[sub]])
def test_output_into_a_missing_directory_is_refused(sub, tmp_path, capsys,
                                                    monkeypatch):
    # a typed refusal naming the path, exit 2; acceptance refuses it
    # before the suite runs
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: pytest.fail(
        "the acceptance suite ran before its report path was checked"))
    f = tmp_path / "t.facets"
    write_facets(tent_plus_common_edge(8, 1), f)
    path = tmp_path / "missing" / "x.txt"
    argv = [str(f) if tok == "{file}" else tok for tok in ANSWERS[sub]]
    assert run_cli(sub, *argv, "-o", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error bad_params: {path}: cannot write "
                            "(No such file or directory)\n")
    assert captured.out == ""


#: The --format values each subcommand renders (text or CSV by default).
FORMATS = {"betti": ("text", "json"), "inspect": ("csv", "json"),
           "asymptotic": ("csv", "json")}


@pytest.mark.parametrize("sub,value", [
    pytest.param(sub, value, id=f"{sub} --format {value}")
    for sub in FORMATS for value in ("text", "csv", "json")])
def test_each_subcommand_takes_only_the_formats_it_renders(sub, value,
                                                          monkeypatch):
    # `betti --format csv` would print text, `asymptotic --format text` CSV
    parsed = {}
    monkeypatch.setattr(cli, "run", lambda subcommand, options:
                        parsed.update(options) or 0)
    argv = [sub, *REQUIRED[sub], "--format", value]
    if value in FORMATS[sub]:
        assert main(argv) == 0
        assert parsed["format"] == value
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("name", errors.__all__)
def test_exit_code_follows_the_error_class(name, monkeypatch, capsys):
    # exit 2 for a usage error, 1 for any other refusal
    cls = getattr(errors, name)

    def refuse(options):
        raise cls("refused")

    monkeypatch.setitem(cli._DISPATCH, "refuse", refuse)
    want = 2 if issubclass(cls, errors.UsageError) else 1
    assert cli.run("refuse", {}) == want
    assert capsys.readouterr().err == f"error {cls.code}: refused\n"
