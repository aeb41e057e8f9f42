import json

import pytest

from musym.cli import main
from musym.polys import parse_poly, poly_from_obj

P = parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gist_symmetric_exit_zero(capsys):
    code, out, _ = run(capsys, "gist", "3*r1^2+2*r1*r2+r2^2", "--mu", "2,1", "--algo", "ls")
    assert code == 0
    assert out.strip() == "z1^2 - z2"


def test_gist_not_symmetric_exit_one(capsys):
    code, out, _ = run(capsys, "gist", "r1+r2", "--mu", "2,1", "--algo", "cr")
    assert code == 1
    assert out.strip() == "F is not mu-symmetric"


def test_gist_all_algorithms_agree(capsys):
    for algo in ("groebner", "cr", "ls"):
        code, out, _ = run(capsys, "gist", "3*r1^2+2*r1*r2+r2^2", "--mu", "2,1", "--algo", algo)
        assert code == 0
        assert out.strip() == "z1^2 - z2"


def test_gist_named_input_with_eval(capsys):
    code, out, _ = run(
        capsys, "gist", "dplus", "--mu", "2,2,1", "--algo", "ls", "--eval", "3,1,-3,-1,1"
    )
    assert code == 0
    assert out.splitlines()[-1] == "evaluation: -25"


def test_gist_json_round_trip(capsys):
    code, out, _ = run(capsys, "gist", "dplus", "--mu", "2,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetric"] is True
    gist = poly_from_obj(payload["gist"])
    assert gist == P("-z1^3 + 9/2*z1*z2 - 27/2*z3")


def test_gist_nonhomogeneous_decomposition(capsys):
    # parts are handled separately and the gists added
    code, out, _ = run(capsys, "gist", "3*r1^2+2*r1*r2+r2^2 + 2*r1+r2", "--mu", "2,1")
    assert code == 0
    assert P(out.strip()) == P("z1^2 - z2 + z1")


def test_gist_usage_errors(tmp_path, capsys):
    dump = str(tmp_path / "system.csv")
    cases = [
        ("gist", "r1/0", "--mu", "1"),
        ("gist", "r1+r2", "--mu", "1,1", "--eval", "1/0,1"),
        ("gist", "dplus", "--mu", "2,1", "--dump-system", str(tmp_path / "missing" / "x.csv")),
        ("gist", "dplus", "--mu", "2,1", "--algo", "groebner", "--basis", "m"),
        ("gist", "dplus", "--mu", "0,1"),
        ("gist", "bogus~poly", "--mu", "2,1"),
        ("gist", "dplus", "--mu", "2,1", "--eval", "1,2"),       # needs n=3 values
        ("gist", "dplus", "--mu", "2,1", "--eval", "1,2,3,4"),
        ("gist", "r1+r2", "--mu", "2,1", "--eval", "1,2,3"),     # not symmetric
        ("gist", "dplus", "--mu", "2,1", "--basis", "m", "--eval", "1,2,3"),
        ("gist", "0", "--mu", "2,1", "--dump-system", dump),          # no degree
        ("gist", "r1^2 + r1", "--mu", "2,1", "--dump-system", dump),  # not homogeneous
        ("canonize", "--mu", "2,1", "--delta", "0"),
    ]
    for algo in ("groebner", "cr", "ls"):
        cases += [
            ("gist", "x1+r1", "--mu", "2,1", "--algo", algo),     # not in the r space
            ("gist", "r3", "--mu", "2,1", "--algo", algo),        # only m=2 roots
            ("gist", "r1^40000", "--mu", "1", "--algo", algo),    # beyond packed exponents
        ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not (tmp_path / "system.csv").exists()


def test_gist_text_with_a_leading_minus_goes_after_a_double_dash(capsys):
    # argparse reads "-r1*r2" as an option and then misses f
    with pytest.raises(SystemExit) as exc:
        main(["gist", "-r1*r2", "--mu", "1,1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "the following arguments are required: f" in captured.err
    code, out, err = run(capsys, "gist", "--mu", "1,1", "--", "-r1*r2")
    assert (code, out, err) == (0, "-z2\n", "")


def test_gist_reads_polynomial_from_file(tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text("3*r1^2 + 2*r1*r2 + r2^2\n")
    code, out, _ = run(capsys, "gist", str(path), "--mu", "2,1")
    assert code == 0
    assert out.strip() == "z1^2 - z2"


def test_gist_dump_system(tmp_path, capsys):
    path = tmp_path / "system.csv"
    code, _, _ = run(
        capsys, "gist", "3*r1^2+2*r1*r2+r2^2", "--mu", "2,1", "--dump-system", str(path)
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == 'term,"k[1,1]","k[2,0]",b'
    assert lines[1].split(",") == ["r1^2", "4", "1", "3"]
    assert len(lines) == 4


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "--mu", "2,2", "--delta", "3..5")
    assert code == 0
    body = [line.split() for line in out.strip().splitlines()[2:]]
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in body] == [
        (3, 3, 2), (4, 5, 3), (5, 6, 3),
    ]
    assert all(r[-1] == "*" for r in body)  # every row drops for this mu


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--mu", "2,1,1,1", "--delta", "4..6", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["dim_sym"], r["dim_mu"]) for r in rows] == [(5, 5), (7, 7), (10, 10)]
    assert not any(r["drop"] for r in rows)


def test_ideal_output(capsys):
    code, out, _ = run(capsys, "ideal", "--mu", "2,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert "z1^3 - 4*z1*z2 + 8*z3" in lines


def test_ideal_empty(capsys):
    code, out, _ = run(capsys, "ideal", "--mu", "1,1")
    assert code == 0
    assert "no relations" in out


def test_canonize_json(capsys):
    code, out, _ = run(capsys, "canonize", "--mu", "2,1", "--delta", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alphas"] == [[1, 1], [2, 0]]
    seq = [poly_from_obj(obj) for obj in payload["sequence"]]
    assert seq == [P("r1^2 + 2*r1*r2"), P("4*r1^2 + 4*r1*r2 + r2^2")]
    assert payload["qmatrix"] == [["0", "1"], ["1", "0"]]


def test_canonize_text(capsys):
    code, out, _ = run(capsys, "canonize", "--mu", "2,1", "--delta", "2")
    assert code == 0
    assert out == (
        "mu=2,1 delta=2 basis=e\n"
        "rank 2 of 2 basis elements\n"
        "r1^2 + 2*r1*r2\n"
        "4*r1^2 + 4*r1*r2 + r2^2\n"
        "qmatrix:\n"
        "  0 1\n"
        "  1 0\n"
    )


def test_ideal_json_matches_the_text(capsys):
    code, out, _ = run(capsys, "ideal", "--mu", "2,2", "--json")
    assert code == 0
    relations = [poly_from_obj(obj) for obj in json.loads(out)]
    _, text, _ = run(capsys, "ideal", "--mu", "2,2")
    assert [str(g) for g in relations] == text.splitlines()


@pytest.mark.parametrize(
    "argv",
    [("canonize", "--mu", "1", "--delta", "32768"), ("dims", "--mu", "2,1", "--delta", "32768..32769")],
    ids=["canonize", "dims"],
)
def test_specialized_basis_refuses_a_huge_degree_before_enumerating(argv, capsys, monkeypatch):
    # past the packed exponent limit the fields would wrap: unchecked,
    # canonize --mu 1 --delta 65536 prints the member 1
    import musym.symfun

    def boom(*args):
        raise RuntimeError("an index or a member was built")

    monkeypatch.setattr(musym.symfun, "weak_partitions", boom)
    monkeypatch.setattr(musym.symfun, "_spec_products", boom)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: degree 32768 exceeds the limit 32767\n"


def test_dims_refuses_an_out_of_range_top_before_the_first_row(capsys, monkeypatch):
    # checked row by row, every in-limit degree up to 32767 was computed
    # before 32768 was refused
    import musym.symfun

    def boom(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(musym.symfun, "sym_dimensions", boom)
    code, out, err = run(capsys, "dims", "--mu", "2,1", "--delta", "1..40000")
    assert code == 2 and out == ""
    assert err == "error: degree 40000 exceeds the limit 32767\n"


def test_gist_refuses_a_variable_with_non_ascii_digits(capsys):
    # r followed by ARABIC-INDIC DIGIT ONE names no variable; read as r1
    # it would give the verdict "F is not mu-symmetric"
    code, out, err = run(capsys, "gist", "r\u0661", "--mu", "2,1")
    assert code == 2 and out == ""
    assert err == "error: unknown variable 'r\u0661'\n"


def test_round_trip_of_emitted_gists(capsys):
    for f, mu in [("dplus", "2,1"), ("dplus", "2,2"), ("delta", "3,1"), ("subdisc:1", "2,2")]:
        code, out, _ = run(capsys, "gist", f, "--mu", mu, "--algo", "ls")
        assert code == 0
        text = out.strip().splitlines()[0]
        assert str(P(text)) == text


def test_bench_small_suite(tmp_path, capsys):
    suite = [
        {"id": "a", "f": "dplus", "mu": "2,1", "algos": ["groebner", "cr", "ls"], "bases": ["e"]},
        {"id": "b", "f": "r1+r2", "mu": "2,1", "algos": ["cr", "ls"], "bases": ["e"]},
        {"id": "c", "f": "subdisc:0", "mu": "2,2", "algos": ["ls"], "bases": ["e", "p"]},
    ]
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "bench", str(suite_path), "--check", "--csv", str(csv_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4  # header + one row per (entry, basis)
    import csv as csvmod

    with open(csv_path) as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == 4
    assert [r["verdict"] for r in rows] == ["Y", "N", "Y", "Y"]
    assert all(r["consistent"] == "True" for r in rows)


def test_bench_groebner_alone_on_monomial_basis_is_a_usage_error(tmp_path, capsys):
    # no algorithm would run, so there is no verdict to report
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"f": "dplus", "mu": "2,1", "bases": ["m"], "algos": ["groebner"]}]))
    code, out, err = run(capsys, "bench", str(path))
    assert code == 2 and out == ""
    assert "not available for the monomial basis" in err


def test_bench_skips_only_groebner_on_monomial_basis(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"f": "dplus", "mu": "2,1", "bases": ["m"], "algos": ["groebner", "cr"]}]))
    csv_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "bench", str(path), "--check", "--csv", str(csv_path))
    assert code == 0
    import csv as csvmod

    with open(csv_path) as fh:
        (row,) = list(csvmod.DictReader(fh))
    assert (row["verdict"], row["consistent"]) == ("Y", "True")
    assert row["canonize_ms"] and row["groebner_nf_ms"] == ""


@pytest.mark.parametrize(
    "f, gist",
    [("3*r1^2 + 2*r1*r2 + r2^2 + 2*r1 + r2", "z1^2 + z1 - z2"), ("7", "7"), ("0", "0")],
    ids=["non-homogeneous", "constant", "zero"],
)
def test_bench_decides_as_gist_does(f, gist, tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"f": f, "mu": "2,1"}]))
    assert run(capsys, "gist", f, "--mu", "2,1")[:2] == (0, gist + "\n")
    csv_path = tmp_path / "out.csv"
    code, _, err = run(capsys, "bench", str(path), "--check", "--csv", str(csv_path))
    assert code == 0, err
    import csv as csvmod

    with open(csv_path) as fh:
        (row,) = list(csvmod.DictReader(fh))
    assert (row["verdict"], row["consistent"], row["gist"]) == ("Y", "True", gist)
    assert all(row[c] for c in ("groebner_prep_ms", "groebner_nf_ms", "canonize_ms", "reduce_ms", "solve_ms"))


def test_bench_prep_canonizes_once(monkeypatch):
    from musym import cli, reduction
    from musym.symfun import Partition

    calls = []
    real = reduction._canonize_packed
    monkeypatch.setattr(reduction, "_canonize_packed", lambda *a: calls.append(a) or real(*a))
    mu = Partition.of(2, 2, 1)
    reduction.clear_memo()
    for _ in range(2):
        assert cli._prep_ms("cr", [10], mu, "e") >= 0.0
    assert len(calls) == 1
    reduction.clear_memo()


def test_bench_library_errors_name_the_entry(tmp_path, capsys):
    path = tmp_path / "suite.json"
    for f, message in [("r3", "r3 exceeds"), ("subdisc:x", "bad subdiscriminant index in 'subdisc:x'")]:
        path.write_text(json.dumps([{"id": "bad", "f": f, "mu": "2,1"}]))
        code, out, err = run(capsys, "bench", str(path))
        assert code == 2 and out == ""
        assert message in err and "(suite entry 'bad')" in err and err.count("\n") == 1


def test_bench_refuses_a_huge_degree_before_any_system(tmp_path, capsys, monkeypatch):
    import musym.cli

    def boom(*args, **kwargs):
        raise RuntimeError("a system was built")

    monkeypatch.setattr(musym.cli.symfun, "spec_basis", boom)
    monkeypatch.setattr(musym.cli.groebner, "_engine", boom)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"id": "huge", "f": "r1^40000", "mu": "1"}]))
    code, out, err = run(capsys, "bench", str(path))
    assert code == 2 and out == ""
    assert err == "error: degree 40000 exceeds the limit 32767 (suite entry 'huge')\n"


def test_gist_refuses_a_huge_named_input_before_expanding_it(capsys, monkeypatch):
    # (r1 - r2)^32768 is never multiplied out
    import musym._packed

    def boom(*args):
        raise RuntimeError("a product was built")

    monkeypatch.setattr(musym._packed, "mul", boom)
    code, out, err = run(capsys, "gist", "dstar", "--mu", "128,128")
    assert code == 2 and out == ""
    assert err == "error: degree 32768 exceeds the limit 32767\n"


def test_bench_check_reports_a_disagreement(tmp_path, capsys, monkeypatch):
    import musym.cli
    from musym.gistresult import GistResult

    real = musym.cli.compute_gist

    def cr_says_no(F, mu, kind, algo):
        return GistResult.not_symmetric(mu, kind) if algo == "cr" else real(F, mu, kind, algo)

    monkeypatch.setattr(musym.cli, "compute_gist", cr_says_no)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"id": "a", "f": "dplus", "mu": "2,1", "algos": ["cr", "ls"]}]))
    code, out, err = run(capsys, "bench", str(path), "--check", "--repeat", "1")
    assert code == 1
    assert err == "INCONSISTENT: algorithms disagree on at least one entry\n"
    (row,) = out.splitlines()[1:]
    assert row.split()[:8] == ["a", "dplus", "3", "2,1", "3", "e", "Y", "False"]


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"id": "a", "mu": "2,1"}, "error: suite entry 2 needs at least 'f' and 'mu'\n"),
        ({"id": "a", "f": "dplus"}, "error: suite entry 2 needs at least 'f' and 'mu'\n"),
        ({"id": "a", "f": "dplus", "mu": "2,1", "algos": ["cr", "fast"]}, "error: unknown algorithm 'fast' in suite entry 'a'\n"),
        ({"id": "a", "f": "dplus", "mu": "2,1", "bases": ["e", "q"]}, "error: unknown basis 'q' in suite entry 'a'\n"),
    ],
    ids=["no-f", "no-mu", "unknown-algorithm", "unknown-basis"],
)
def test_bench_bad_entries_are_named(entry, message, tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"id": "ok", "f": "delta", "mu": "1,1", "algos": ["ls"]}, entry]))
    code, out, err = run(capsys, "bench", str(path), "--repeat", "1")
    assert code == 2 and out == ""
    assert err == message


@pytest.mark.parametrize(
    "key, value",
    [("algos", "cr"), ("bases", "ep"), ("algos", [])],
    ids=["algos-string", "bases-string", "no-algorithm"],
)
def test_bench_lists_must_be_nonempty_lists(key, value, tmp_path, capsys):
    # a string would be iterated as its characters; with no algorithm
    # there is no verdict to report
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"f": "dplus", "mu": "2,1", "algos": ["cr"], key: value}]))
    code, out, err = run(capsys, "bench", str(path))
    assert code == 2 and out == ""
    assert repr(key) in err and err.count("\n") == 1


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_repeat_must_be_positive(repeat, tmp_path, capsys, monkeypatch):
    import musym.cli

    def boom(*args, **kwargs):
        raise RuntimeError("an entry ran")

    monkeypatch.setattr(musym.cli, "_suite_input", boom)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"f": "dplus", "mu": "2,1", "algos": ["cr"]}]))
    code, out, err = run(capsys, "bench", str(path), "--repeat", repeat)
    assert code == 2 and out == ""
    assert "--repeat" in err and err.count("\n") == 1


def test_bench_rejects_malformed_suite(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}')
    code, _, err = run(capsys, "bench", str(bad))
    assert code == 2 and err.strip()
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "bench", str(missing))
    assert code == 2


def test_bench_empty_suite(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out, _ = run(capsys, "bench", str(path))
    assert code == 0
    assert out.strip().splitlines()[0].startswith("id")
    code, _, err = run(capsys, "bench", str(path), "--csv", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dims_bad_range(capsys):
    code, _, err = run(capsys, "dims", "--mu", "2,1", "--delta", "x..3")
    assert code == 2 and err.strip()
    code, _, err = run(capsys, "dims", "--mu", "2,1", "--delta", "0..2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, forms",
    [
        (("dims", "--mu", "2,1", "--delta", "1..x"), "a number N or a range LO..HI"),
        (("canonize", "--mu", "2,1", "--delta", "x"), "a number N"),
    ],
    ids=["dims", "canonize"],
)
def test_bad_delta_names_the_option(capsys, argv, forms):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: bad --delta {argv[-1]!r}; expected {forms}\n"


def test_parser_is_built_once(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert run(capsys, "dims", "--mu", "2,1", "--delta", "2")[0] == 0
    assert built == []


def test_internal_error_exit_three(capsys, monkeypatch):
    import musym.cli

    def boom(*args, **kwargs):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(musym.cli, "compute_gist", boom)
    code, out, err = run(capsys, "gist", "r1+r2", "--mu", "2,1")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError('kernel fault')\n"


def test_deep_input_never_reads_as_not_symmetric(capsys):
    # r1^600 is mu-symmetric for mu=1: 600 parts, far past the recursion limit
    for algo in ("groebner", "cr", "ls"):
        code, out, err = run(capsys, "gist", "r1^600", "--mu", "1", "--algo", algo)
        assert code == 0, (algo, err)
        assert out.strip() == "z1^600"


def test_long_input_is_a_verdict_or_a_usage_error(capsys):
    # ast.parse refuses long chains at a length that differs by Python version
    for text in (" + ".join(["r1", "r2"] * 10000), "*".join(["r1", "r2"] + ["1"] * 19998)):
        code, out, err = run(capsys, "gist", text, "--mu", "1,1", "--algo", "cr")
        if code == 2:
            assert err == "error: polynomial text nests too deeply\n"
        else:
            assert code == 0, err
            assert P(out.strip()) in (P("10000*z1"), P("z2"))


def test_bad_long_input_is_quoted_by_its_ends(capsys):
    text = " + ".join(["r1", "r2"] * 1000) + " +"
    code, out, err = run(capsys, "gist", text, "--mu", "1,1")
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse polynomial: {text[:40] + ' ... ' + text[-30:]!r} ({len(text)} characters)\n"
    code, out, err = run(capsys, "gist", "(" * 201 + "r1" + ")" * 201, "--mu", "1,1")
    assert (code, out, err) == (2, "", "error: polynomial text nests too deeply\n")


def test_default_bench_suite_inputs_are_nonzero():
    from musym.cli import DEFAULT_SUITE, _suite_input
    from musym.symfun import Partition

    for entry in DEFAULT_SUITE:
        assert not _suite_input(entry["f"], Partition.parse(entry["mu"])).is_zero, entry["id"]
