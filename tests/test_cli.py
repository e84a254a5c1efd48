"""End-to-end tests of the command line, driven through main()."""

import contextlib
import hashlib
import io
import json
import sys
import time
from datetime import timedelta
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hecke import (Caps, HeckeElement, HeckeError, LaurentPoly, Permutation,
                   ResourceCapError, element_from_json, element_to_json,
                   format_element, parse_element, v_power)
from hecke.center import _GAMMA_MEMO
from hecke import cli
from hecke.cli import build_parser, main


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_mul(capsys):
    rc, out, _ = run(capsys, "mul", "--n", "3", "T[1]", "T[1]")
    assert rc == 0
    assert out.strip() == "q*T[] + (q - 1)*T[1]"


def test_mul_json(capsys):
    rc, out, _ = run(capsys, "mul", "--n", "3", "T[1]", "T[1]", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["basis"] == "T"
    assert len(doc["terms"]) == 2


def test_square(capsys):
    rc, out, _ = run(capsys, "square", "--n", "3", "@catalog:R4")
    assert rc == 0
    assert out.strip() == "2*q*T[] + (q - 1)*T[2] + (q - 1)*T[1] - T[1,2] - T[2,1]"


def test_central_exit_codes(capsys):
    rc, out, _ = run(capsys, "central", "--n", "3", "@x")
    assert (rc, out.strip()) == (0, "true")
    rc, out, _ = run(capsys, "central", "--n", "3", "T[1]")
    assert (rc, out.strip()) == (1, "false")
    rc, out, _ = run(capsys, "central", "--n", "3", "@x", "--json")
    assert rc == 0
    assert json.loads(out) == {"n": 3, "central": True}


def test_sqrt_check(capsys):
    rc, out, _ = run(capsys, "sqrt-check", "--n", "3", "@catalog:R4")
    assert rc == 0
    assert "in_sqrt: true" in out
    assert "in_centre: false" in out
    rc, out, _ = run(capsys, "sqrt-check", "--n", "3", "T[] + T[1]")
    assert rc == 1
    assert "in_sqrt: false" in out


def test_sqrt_check_output_depends_on_the_input_alone(capsys, monkeypatch):
    # the second input builds the degree-3 minimal basis on its way
    monkeypatch.delitem(_GAMMA_MEMO, 3, raising=False)
    for extra in ([], ["--json"]):
        outs = [run(capsys, "sqrt-check", "--n", "3", a, *extra)[:2]
                for a in ("@catalog:R4", "@catalog:R4 + 0*@gamma:3",
                          "@catalog:R4")]
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][0] == 0


def test_gamma_single_and_table(capsys):
    rc, out, _ = run(capsys, "gamma", "3", "--lambda", "2,1")
    assert rc == 0
    assert out.strip() == "T[2] + T[1] + q^-1*T[1,2,1]"
    rc, out, _ = run(capsys, "gamma", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[-1] == "1,1,1: T[]"


# the partition options read their parts as @gamma: does
_PARTITION_VERBS = [("gamma", "3", "--lambda"),
                    ("eigen", "--n", "3", "--k", "q-1", "--gamma")]


@pytest.mark.parametrize("parts", ["\uff12,\uff11", "+2,1", "2,x", "2,2",
                                   "1,2", "0,3"])
@pytest.mark.parametrize("verb", _PARTITION_VERBS, ids=lambda v: v[0])
def test_partition_options_refuse_what_the_grammar_refuses(capsys, verb,
                                                           parts):
    # int() took full-width digits and a plus sign; parts that sum to n
    # but rise or hold a zero are no partition
    rc, out, err = run(capsys, *verb, parts)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    with pytest.raises(HeckeError):
        parse_element(f"@gamma:{parts}", 3)


@pytest.mark.parametrize("parts", ["2,1", " 2, 1"])
def test_partition_options_read_spaced_parts(capsys, parts):
    rc, out, _ = run(capsys, *_PARTITION_VERBS[0], parts)
    assert (rc, out) == (0, "T[2] + T[1] + q^-1*T[1,2,1]\n")
    rc, out, _ = run(capsys, *_PARTITION_VERBS[1], parts)
    assert (rc, out) == (0, "count: 4\n"
                            "T[2] - T[1]\n"
                            "q*T[] + (q - 1)*T[2] - T[1,2]\n"
                            "q*T[] + (q - 1)*T[2] - T[2,1]\n"
                            "(q^2 - q)*T[] + (q^2 - q + 1)*T[2] - T[1,2,1]\n")


def test_express(capsys):
    rc, out, _ = run(capsys, "express", "--n", "3", "@x")
    assert rc == 0
    assert set(out.strip().splitlines()) == {"3: 1", "2,1: 1", "1,1,1: 1"}
    # the coordinates are read whatever the span of the exponents
    rc, out, _ = run(capsys, "express", "--n", "3", "(q^100000000 - 1)*@x")
    assert rc == 0
    assert out.strip().splitlines() == [
        f"{lam}: q^100000000 - 1" for lam in ("3", "2,1", "1,1,1")]
    rc, out, err = run(capsys, "express", "--n", "3", "T[1]")
    assert rc == 1
    assert "not central" in err


def test_eigen(capsys):
    rc, out, _ = run(capsys, "eigen", "--n", "3", "--gamma", "2,1", "--k", "q-1")
    assert rc == 0
    assert out.splitlines()[0] == "count: 4"
    rc, out, _ = run(
        capsys, "eigen", "--n", "3", "--gamma", "2,1", "--k", "q-1", "--json"
    )
    doc = json.loads(out)
    assert doc["count"] == 4 and len(doc["vectors"]) == 4


def test_eigen_reads_a_negative_scalar_after_its_option(capsys):
    rc, spaced, _ = run(capsys, "eigen", "--n", "3", "--gamma", "3", "--k", "-q")
    assert rc == 0
    lines = spaced.splitlines()
    assert lines[0] == "count: 4" and len(lines) == 5
    rc, joined, _ = run(capsys, "eigen", "--n", "3", "--gamma", "3", "--k=-q")
    assert rc == 0
    assert joined == spaced


def test_element_arguments_may_start_with_a_minus(capsys):
    cases = [(["central", "--n", "3"], ["-T[1]"], "false"),
             (["mul", "--n", "3"], ["T[1]", "-2*T[2]"], "-2*T[1,2]")]
    for head, elements, want in cases:
        rc, out, err = run(capsys, *head, *elements)
        assert out.strip() == want and err == ""
        assert run(capsys, *head, "--", *elements) == (rc, out, err)
    # options may come after the elements, or between them
    rc, out, _ = run(capsys, "mul", "--n", "3", "-T[1]", "--json", "-2*T[2]")
    assert rc == 0
    assert json.loads(out)["terms"] == [
        {"coeff": [[0, "2"]], "perm": [2, 3, 1]}]
    rc, out, _ = run(capsys, "central", "-T[1]", "--js", "--n", "3")
    assert rc == 1 and json.loads(out) == {"n": 3, "central": False}


def test_the_flags_are_the_options_that_take_no_value():
    # the pre-scan joins every other option of a verb to the token after it
    from hecke.cli import _FLAGS, _OPTION
    sub = next(a for a in build_parser()._actions if a.dest == "verb")
    assert list(_FLAGS) == list(sub.choices)
    for verb, p in sub.choices.items():
        options = {s: a.nargs == 0 for a in p._actions
                   for s in a.option_strings}
        assert {s for s, flag in options.items() if flag} == set(_FLAGS[verb])
        assert all(_OPTION.fullmatch(s) for s in options)


def test_an_option_prefix_is_read_against_its_own_verbs_flags(capsys):
    # --l abbreviates eigen's --linalg-max; that it is also a prefix of
    # verify's --list flag does not make it a flag of eigen
    head = ("eigen", "--n", "4", "--gamma", "3,1", "--k", "0")
    want = run(capsys, *head, "--linalg-max", "5")
    assert want[0] == 0
    for spelling in ("--l", "--lin"):
        assert run(capsys, *head, spelling, "5") == want
        rc, _, err = run(capsys, *head, spelling, "3")
        assert rc == 3 and "linear-algebra cap" in err


def test_each_verb_keeps_its_argument_signature():
    # every verb, its help line and, in order, each of its arguments as
    # argparse holds it; unlike the help text, none of this depends on the
    # layout a given Python version prints
    sub = next(a for a in build_parser()._actions if a.dest == "verb")
    doc = [[c.dest, c.help] for c in sub._choices_actions]
    for verb, p in sub.choices.items():
        doc.append([verb, [[a.option_strings, a.dest, a.default, a.required,
                            getattr(a.type, "__name__", a.type), a.choices,
                            a.nargs, a.metavar, a.help] for a in p._actions]])
    got = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert got == ("0d89cf65702517e63ff075249702d264"
                   "c6aec38d0c613b679951e28afa683f97")


# argv whose answer comes from argparse, or from the verb's first step
PARITY_CORPUS = [
    ["--help"], [], ["bogus"], ["mu"], ["-h", "mul"],
    *([verb, "-h"] for verb in cli._VERBS),
    # each verb that has a required argument, without it
    *([verb] for verb in ("mul", "square", "central", "sqrt-check", "gamma",
                          "express", "eigen", "catalog", "export", "import")),
    ["mul", "--n", "3", "T[1]", "T[2]", "extra"], ["mul", "--bogus", "1"],
    ["mul", "--n", "3", "T[1]", "T[2]"], ["gamma", "3", "--json"],
    ["eigen", "--n", "3", "--gamma", "3", "--k", "-q", "--l", "5"],
]


def _outcome(argv):
    """main(argv)'s exit code, stdout and stderr; a usage error, which
    argparse raises as SystemExit, counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_main_answers_as_the_parser_of_every_verb_does():
    asked = []

    def every_verb(verbs=None):
        asked.append(verbs)
        return build_parser()

    for argv in PARITY_CORPUS:
        got = _outcome(argv)
        with mock.patch.object(cli, "build_parser", every_verb):
            assert _outcome(argv) == got, argv
        # main built the parser of a known verb alone
        assert asked.pop() == (argv[:1] if argv and argv[0] in cli._VERBS
                               else None)
        if len(argv) == 1 and argv[0] in cli._VERBS:
            assert got[0] == 2 and "required" in got[2], argv


def test_eigen_answers_at_degree_five(capsys):
    # the trivial-character eigenvalue of gamma_(2,1,1,1); the eigenspace is
    # spanned by x, the sum of all T_w
    rc, out, _ = run(capsys, "eigen", "--n", "5", "--gamma", "2,1,1,1",
                     "--k", "q^4 + 2*q^3 + 3*q^2 + 4*q")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "count: 1"
    assert parse_element(lines[1], 5) == parse_element("@x", 5)


def test_coefficients_beyond_the_conversion_limit_print_and_parse_back(capsys):
    want = parse_element("3^10000*T[1]", 3) * parse_element("T[1]", 3)
    rc, out, _ = run(capsys, "mul", "--n", "3", "3^10000*T[1]", "T[1]")
    assert rc == 0
    assert parse_element(out.strip(), 3) == want
    rc, out, _ = run(capsys, "mul", "--n", "3", "3^10000*T[1]", "T[1]",
                     "--json")
    assert rc == 0
    assert element_from_json(json.loads(out)) == want


def test_exponents_beyond_the_conversion_limit(capsys):
    # a text power past MAX_EXPONENT is refused before it is taken
    nines = "9" * 4300
    factor = f"v^{nines}*T[1]"
    rc, out, err = run(capsys, "mul", "--n", "3", factor, factor)
    assert (rc, out) == (3, "")
    assert "past" in err
    # built through the API, the product has exponent 2 * (10^4300 - 1) + 2,
    # past the 4,300 digits that str() converts from Python 3.11 on: its
    # text prints, and its JSON document is refused where that limit holds
    a = HeckeElement(3, {Permutation.from_word(3, [1]): v_power(int(nines))})
    ten = "1" + "0" * 4300
    assert format_element(a * a) == f"q^{ten}*T[] + (q^{ten} - q^{nines})*T[1]"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit <= 4300:
        with pytest.raises(ResourceCapError, match="too many digits"):
            element_to_json(a * a)
    else:
        doc = element_to_json(a * a)
        assert doc["terms"][0]["coeff"] == [[2 * int(nines) + 2, "1"]]


def test_mul_bounds_the_exponents_of_its_powers(capsys):
    from hecke.parsing import MAX_EXPONENT

    half = MAX_EXPONENT // 2
    for text, code in ((f"q^{half}*T[1]", 0), (f"v^-{MAX_EXPONENT}*T[1]", 0),
                       (f"q^{half + 1}*T[1]", 3), ("q^10000000000*T[1]", 3),
                       (f"(q^2)^{MAX_EXPONENT // 4 + 1}*T[1]", 3),
                       (f"(-v)^-{MAX_EXPONENT + 1}*T[1]", 3)):
        rc, out, err = run(capsys, "mul", "--n", "2", text, "T[1]")
        assert rc == code, text
        if code:
            assert out == "" and f"past {MAX_EXPONENT}" in err
        else:
            # a product may pass the bound: q^(half + 1) prints here
            assert out.strip() == format_element(
                parse_element(text, 2) * parse_element("T[1]", 2))


def test_import_bounds_the_exponents_of_its_pairs(capsys, monkeypatch):
    from hecke.parsing import MAX_EXPONENT

    def imported(exponent, basis="T"):
        doc = {"n": 2, "basis": basis,
               "terms": [{"perm": [2, 1], "coeff": [[0, 1], [exponent, "2"]]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        return run(capsys, "import", "-")

    for exponent in (MAX_EXPONENT, -MAX_EXPONENT):
        rc, out, _ = imported(exponent)
        assert rc == 0
        assert parse_element(out.strip(), 2).coeff(
            Permutation.from_word(2, [1])) == LaurentPoly({0: 1, exponent: 2})
    for exponent in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 2 * 10 ** 10):
        for basis in ("T", "Ttilde"):
            rc, out, err = imported(exponent, basis)
            assert (rc, out) == (3, ""), (exponent, basis)
            assert f"past {MAX_EXPONENT}" in err


def test_mul_bounds_the_terms_of_its_scalars(capsys):
    from hecke.parsing import MAX_TERMS

    # (1+v)^255 (1+v^256)^255 has one term per exponent below 2^16, exactly
    # MAX_TERMS: a product with one more 2-term factor, a sum with one
    # more term, itself times a 2-term coefficient of @gamma:3 (1 - q^-1 at
    # T_w0) and a product of three powers, 513 times as large again, are
    # refused before they are built
    wide = "(1+v)^255*(1+v^256)^255"
    for text in (f"{wide}*(1+v^65536)*T[1]", f"({wide} + v^-1)*T[1]",
                 f"{wide}*T[1] + v^-1*T[1]", f"{wide}*@gamma:3",
                 "(1+v)^512*(1+v^513)^512*T[1]",
                 "(1+v)^512*(1+v^513)^512*(1+v^263169)^512*T[1]"):
        rc, out, err = run(capsys, "mul", "--n", "3", text, "T[1]")
        assert (rc, out) == (3, ""), text
        assert f"more than {MAX_TERMS} terms" in err
    rc, out, _ = run(capsys, "mul", "--n", "3", "(1+v)^255*(1+v^2)*T[1]", "T[]")
    assert rc == 0
    assert parse_element(out.strip(), 3).coeff(
        Permutation.from_word(3, [1])).num_terms() == 258


def test_mul_bounds_the_work_of_its_scalar_products(capsys):
    from hecke.parsing import MAX_PAIRS

    # 16 powers of 256 terms, each product under MAX_TERMS: before the
    # budget this exited 0 after about 5 s and printed 3.6 MB
    chain = "*".join(["(1+v)^255"] * 16)
    start = time.perf_counter()
    rc, out, err = run(capsys, "mul", "--n", "3", f"{chain}*T[1]", "T[2]")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and f"more than {MAX_PAIRS} pairs" in err


def test_import_bounds_the_pairs_of_a_coefficient(capsys, monkeypatch):
    from hecke.parsing import MAX_TERMS

    def imported(pairs):
        doc = {"n": 2, "basis": "T",
               "terms": [{"perm": [2, 1], "coeff": pairs}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        return run(capsys, "import", "-", "--json")

    rc, out, _ = imported([[e, "1"] for e in range(MAX_TERMS)])
    assert rc == 0
    assert len(json.loads(out)["terms"][0]["coeff"]) == MAX_TERMS
    rc, out, err = imported([[e, "1"] for e in range(MAX_TERMS + 1)])
    assert (rc, out) == (3, "")
    assert f"{MAX_TERMS + 1} pairs, more than {MAX_TERMS}" in err


def test_catalog(capsys):
    rc, out, _ = run(capsys, "catalog", "--n", "3")
    assert rc == 0
    names = [line.split(":")[0] for line in out.strip().splitlines()]
    assert names == ["xbar", "ybar", "Twn", "R4", "R5"]


def test_sample_h3(capsys):
    rc, first, _ = run(capsys, "sample-h3", "--seed", "5")
    assert rc == 0
    assert "branch:" in first
    rc, second, _ = run(capsys, "sample-h3", "--seed", "5")
    assert first == second


def test_verify_small(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "2")
    assert rc == 0
    assert "items=2 pass=2 flag=0 fail=0" in out
    rc, out, _ = run(capsys, "verify", "--n-max", "2", "--json")
    doc = json.loads(out)
    assert doc["counts"] == {"pass": 2, "flag": 0, "fail": 0}
    assert all(item["status"] == "pass" for item in doc["items"])


def test_verify_only_and_list(capsys):
    rc, out, _ = run(capsys, "verify", "--list", "--n-max", "2")
    assert rc == 0
    assert out.split() == ["14-commutative-n2", "14-sqrt-is-everything-n2"]
    rc, out, _ = run(capsys, "verify", "--n-max", "2", "--only", "14-commutative-n2")
    assert rc == 0
    assert "items=1 pass=1" in out
    rc, _, err = run(capsys, "verify", "--n-max", "2", "--only", "no-such-id")
    assert rc == 2


def test_verify_list_prints_only_the_named_ids_in_id_order(capsys):
    rc, out, _ = run(capsys, "verify", "--list", "--n-max", "3", "--only",
                     "14-commutative-n2,01-murphy-commute-n3,14-commutative-n2")
    assert rc == 0
    assert out.split() == ["01-murphy-commute-n3", "14-commutative-n2"]
    rc, out, err = run(capsys, "verify", "--list", "--n-max", "2",
                       "--only", "14-commutative-n2,no-such-id")
    _, _, run_err = run(capsys, "verify", "--n-max", "2",
                        "--only", "14-commutative-n2,no-such-id")
    assert (rc, out) == (2, "")
    assert err == run_err and "unknown statement ids: 'no-such-id'" in err


def test_verify_list_refuses_the_degree_bound_a_run_refuses(capsys):
    rc, out, err = run(capsys, "verify", "--list", "--n-max", "1")
    _, _, run_err = run(capsys, "verify", "--n-max", "1")
    assert (rc, out) == (2, "")
    assert err == run_err and "n_max must be at least 2, got 1" in err


def test_verify_only_runs_each_listed_id_once(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "2", "--only",
                     "14-commutative-n2,14-commutative-n2")
    assert rc == 0
    assert "items=1 pass=1" in out
    assert out.count("14-commutative-n2") == 1


def test_verify_an_empty_only_names_an_unknown_id(capsys):
    # '' is a list of one empty id, not a missing option
    rc, out, err = run(capsys, "verify", "--n-max", "2", "--only", "")
    assert rc == 2
    assert out == ""
    assert "unknown statement ids: ''" in err


def test_verify_output_is_deterministic(capsys):
    rc, first, _ = run(capsys, "verify", "--n-max", "2", "--json")
    rc, second, _ = run(capsys, "verify", "--n-max", "2", "--json")
    assert first == second


def test_export_import_roundtrip(tmp_path, capsys):
    path = tmp_path / "gamma3.json"
    rc, _, _ = run(capsys, "export", "--n", "3", "@gamma:3", "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "import", str(path))
    assert rc == 0
    assert out.strip() == "T[1,2] + T[2,1] + (1 - q^-1)*T[1,2,1]"


def test_export_import_normalized_basis(tmp_path, capsys):
    path = tmp_path / "el.json"
    rc, _, _ = run(
        capsys, "export", "--n", "4", "@xbar", "--out", str(path), "--basis", "Ttilde"
    )
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["basis"] == "Ttilde"
    rc, out, _ = run(capsys, "import", str(path))
    assert rc == 0
    assert parse_element(out.strip(), 4) == parse_element("@xbar", 4)


def test_import_rejects_bad_file(tmp_path, capsys):
    rc, _, err = run(capsys, "import", str(tmp_path / "missing.json"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, _, err = run(capsys, "import", str(bad))
    assert rc == 2
    assert "error:" in err


def test_import_checks_the_degree_against_the_enumeration_cap(tmp_path, capsys):
    for n in (8, 100000):
        path = tmp_path / f"w{n}.json"
        path.write_text(json.dumps({"n": n, "basis": "T", "terms": [
            {"perm": list(range(n, 0, -1)), "coeff": [[0, "1"]]}]}))
        rc, _, err = run(capsys, "import", str(path))
        assert rc == 3
        assert "cap" in err
    rc, out, _ = run(capsys, "import", str(tmp_path / "w8.json"), "--enum-max", "8")
    assert rc == 0
    caps = Caps(enum_max=8)
    assert parse_element(out.strip(), 8, caps) == parse_element("@Twn", 8, caps)


def test_import_refuses_truncated_numbers_and_deep_nesting(capsys, monkeypatch):
    def imported(doc):
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        return run(capsys, "import", "-")

    term = '{"perm": %s, "coeff": %s}'
    for bad in (term % ("[1.9, 2.2]", '[[0, "1"]]'),
                term % ("[2, 1]", '[[0.5, "1"]]'),
                term % ("[2, 1]", "[[0, 2.5]]"),
                term % ("[2, 1]", "[[0, true]]"),
                term % ("[2, 1]", '[[0, "1_0"]]'),
                term % ("[2, 1]", '[[0, "1"], [0, "2"]]')):
        rc, _, err = imported('{"n": 2, "basis": "T", "terms": [%s]}' % bad)
        assert rc == 2, bad
        assert "error:" in err
    for doc in ('{"n": 2.7, "basis": "T", "terms": []}',
                '{"n": 2, "basis": "T", "terms": {}}'):
        rc, _, _ = imported(doc)
        assert rc == 2, doc
    rc, out, _ = imported('{"n": 2, "basis": "T", "terms": [%s]}'
                          % term % ("[2, 1]", '[[0, 3], [2, "-12"]]'))
    assert (rc, out.strip()) == (0, "-(12*q - 3)*T[1]")
    # unbounded, json.loads raised RecursionError: the exit code of "false"
    rc, _, err = imported("[" * 100000 + "]" * 100000)
    assert rc == 2
    assert "nested" in err


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, "mul", "--n", "3", "T[9]", "T[1]")
    assert rc == 2
    assert "error:" in err
    # digits int() refuses are parse errors with a position, not a
    # ValueError that only the catch-all turned into exit 2
    for arg, pos in (("\u00b2*T[1]", 0), ("T[" + "1" * 5000 + "]", 2)):
        rc, _, err = run(capsys, "mul", "--n", "3", "T[1]", arg)
        assert rc == 2
        assert f"(at position {pos})" in err


def test_resource_cap_exit_code(capsys):
    # @x at degree 8 walks S_8; a zero product then keeps the lifted call
    # cheap, with no degree-8 centrality test
    rc, _, err = run(capsys, "mul", "--n", "8", "@x", "0*T[]")
    assert rc == 3
    assert "cap" in err
    rc, out, _ = run(capsys, "mul", "--n", "8", "@x", "0*T[]",
                     "--enum-max", "8")
    assert rc == 0


def test_oversize_scalar_power_exits_with_the_cap_code(capsys):
    rc, _, err = run(capsys, "mul", "--n", "3", "(v-1)^2000*T[1]", "T[1]")
    assert rc == 3
    assert "more than" in err
    rc, _, err = run(capsys, "eigen", "--n", "3", "--gamma", "3", "--k",
                     "-(q+1)^2000")
    assert rc == 3


def test_wide_powers_exit_with_the_cap_code(capsys):
    # powers of wide two-term bases, N = 2^255 - 19 and M = 2^127 - 1,
    # under every bound but the pairs' budget: they ran for 9.0, 32.4 and
    # 94.9 s when a pair of wide coefficients cost what a small one does;
    # then 200 factors 3^10000, 31 factors 3^10000 + v and a sum of 4,000
    # 7^21000, which ran for 3.0, 1.2 and 2.3 s when a product of fewer
    # than 64 pairs and a monomial's power were charged as narrow ones
    n_, m_ = 2**255 - 19, 2**127 - 1
    for text in (f"({n_}+{n_}*v)^255", f"({m_}+{m_}*v)^511",
                 f"({n_}+{n_}*v)^255*({n_}+{n_}*v)^255",
                 "*".join(["3^10000"] * 200), "*".join(["(3^10000+v)"] * 31),
                 "(" + "+".join(["7^21000"] * 4000) + ")"):
        start = time.perf_counter()
        rc, out, err = run(capsys, "mul", "--n", "3", f"{text}*T[1]", "T[]")
        assert (rc, out) == (3, ""), text[:60]
        assert "pairs" in err
        assert time.perf_counter() - start < 1, text[:60]


def test_deep_parentheses_exit_with_the_cap_code(capsys):
    from hecke.parsing import MAX_NESTING

    # unbounded, 1,000 levels raised RecursionError: the exit code of "false"
    for depth, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 3), (1000, 3)):
        text = "(" * depth + "1" + ")" * depth + "*T[1]"
        rc, _, err = run(capsys, "mul", "--n", "3", text, "T[]")
        assert rc == code, depth
    assert "parentheses" in err


def test_text_input_falls_under_the_enumeration_cap(capsys):
    # unbounded, degree 16,000 took 10.5 s, and this word at degree 29
    # 0.92 s (about 4 times more per added pair of letters)
    word = "T[" + ",".join(str(i) for i in range(1, 28, 2) for _ in "ab") + "]"
    for argv in (("mul", "--n", "16000", "T[1]", "T[2]"),
                 ("central", "--n", "29", word)):
        rc, _, err = run(capsys, *argv)
        assert rc == 3
        assert "enumeration cap" in err
    rc, out, _ = run(capsys, "mul", "--n", "8", "T[1]", "T[2]",
                     "--enum-max", "8")
    assert (rc, out.strip()) == (0, "T[1,2]")


def test_linalg_cap_is_an_option_only_where_a_solve_runs(capsys):
    sub = next(a for a in build_parser()._actions if a.dest == "verb")
    takes = {verb for verb, p in sub.choices.items()
             if any("--linalg-max" in a.option_strings for a in p._actions)}
    assert takes == {"eigen", "verify"}
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--n", "3", "--linalg-max", "3", "T[1]", "T[2]"])
    assert exc.value.code == 2
    rc, _, err = run(capsys, "eigen", "--n", "3", "--gamma", "2,1", "--k",
                     "q-1", "--linalg-max", "2")
    assert rc == 3
    assert "linear-algebra cap" in err


def test_oversize_word_exits_with_the_cap_code(capsys):
    word = "T[" + ",".join(["1"] * 20000) + "]"
    rc, _, err = run(capsys, "mul", "--n", "2", word, "T[]")
    assert rc == 3
    assert "letters" in err


def test_gamma_falls_under_the_enumeration_cap(capsys):
    rc, out, _ = run(capsys, "gamma", "6")
    assert rc == 0
    assert len(out.splitlines()) == 11
    rc, _, err = run(capsys, "gamma", "8")
    assert rc == 3
    assert "cap" in err


def test_eigen_checks_its_cap_and_scalar_before_the_basis(capsys):
    # above the linear-algebra cap the search is refused, whatever --k
    # holds, and under it a malformed --k is a usage error, both before the
    # minimal basis is built: at n = 8 that took more than a second
    with mock.patch("hecke.cli.gamma_basis",
                    side_effect=AssertionError("built the basis")):
        for k in ("0", "(("):
            rc, out, err = run(capsys, "eigen", "--n", "8", "--gamma", "8",
                               "--k", k, "--enum-max", "8")
            assert (rc, out) == (3, "")
            assert "linear-algebra cap" in err
        rc, out, err = run(capsys, "eigen", "--n", "6", "--gamma", "6",
                           "--k", "((", "--linalg-max", "6")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def test_express_tests_centrality_before_the_basis(capsys):
    # an element that is not central is refused before the minimal basis is
    # built, which takes more than a second at n = 8
    with mock.patch("hecke.cli.gamma_basis",
                    side_effect=AssertionError("built the basis")):
        rc, out, err = run(capsys, "express", "--n", "6", "T[1]")
    assert (rc, out, err) == (1, "", "error: element is not central\n")


def test_express_reads_a_central_element_as_before(capsys):
    rc, out, _ = run(capsys, "express", "--n", "4", "@fulltwist")
    assert rc == 0
    assert out.splitlines() == [
        "4: 1 - 3*q^-1 + 3*q^-2 - q^-3", "3,1: 1 - 2*q^-1 + q^-2",
        "2,2: 1 - 2*q^-1 + q^-2", "2,1,1: 1 - q^-1", "1,1,1,1: 1"]


@pytest.mark.parametrize("n", ["7", "9"])
def test_gamma_reads_its_partition_before_the_basis(capsys, n):
    # a bad --lambda is a usage error at any degree, found before the
    # basis is built or the enumeration cap is consulted
    with mock.patch("hecke.cli.gamma_basis",
                    side_effect=AssertionError("built the basis")):
        rc, out, err = run(capsys, "gamma", n, "--lambda", "x")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


# -- fuzzing: whatever the input, main() answers with an exit code ------------

def _quiet_main(argv, stdin=""):
    """main(argv) with its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        return main(argv)


def _exit_code(argv, stdin=""):
    """_quiet_main(argv); a usage error, which argparse raises as
    SystemExit, counts as its exit code."""
    try:
        return _quiet_main(argv, stdin)
    except SystemExit as exc:
        return exc.code


def _parses(text, n):
    try:
        parse_element(text, n)
    except HeckeError:
        return False
    return True


_FUZZ_SETTINGS = settings(max_examples=120, deadline=timedelta(seconds=2))


@st.composite
def _scalars(draw, depth=2):
    if depth and draw(st.booleans()):
        op = draw(st.sampled_from(["+", "-", "*"]))
        text = (f"({draw(_scalars(depth - 1))}{op}"
                f"{draw(_scalars(depth - 1))})")
    else:
        text = draw(st.sampled_from(
            ["1", "2", "0", "q", "v", "xi", "12345678901234567890"]))
    if draw(st.booleans()):
        exp = draw(st.sampled_from([0, 1, 2, 3, 7, 600, 70000]))
        text = f"{text}^{'-' if draw(st.booleans()) else ''}{exp}"
    nest = draw(st.sampled_from([0, 0, 0, 1, 99, 100, 101, 300, 1000]))
    return "(" * nest + text + ")" * nest


@st.composite
def _elements(draw, n):
    refs = ["x", "y", "xbar", "ybar", "Twn", "fulltwist", "L:1", "e:2",
            "Mt:9", "catalog:R4", "catalog:Q", "gamma:2,1", "gamma:1,1",
            "nope", "x:1"]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            word = draw(st.lists(st.integers(0, n), max_size=52))
            part = "T[" + ",".join(map(str, word)) + "]"
        else:
            part = "@" + draw(st.sampled_from(refs))
        if draw(st.booleans()):
            part = f"{draw(_scalars())}*{part}"
        terms.append(part)
    text = draw(st.sampled_from(["", "-"])) + " + ".join(terms)
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(
            ["", "(", ")", "]", "^", "@", "*", "$", "T", ","])) + text[cut:]
    return text


@_FUZZ_SETTINGS
@given(st.data())
def test_fuzzed_element_text_gets_an_exit_code(data):
    n = data.draw(st.integers(2, 4))
    verb = data.draw(st.sampled_from(["mul", "central", "sqrt-check",
                                      "express"]))
    texts = [data.draw(_elements(n)) for _ in range(2 if verb == "mul" else 1)]
    argv = [verb, "--n", str(n), *texts]
    if all(_parses(text, n) for text in texts):
        # argparse takes every element that parses: no usage error
        assert _quiet_main(argv) in (0, 1, 2, 3)
    else:
        assert _exit_code(argv) in (0, 1, 2, 3)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def _json_documents(draw):
    """What export writes, with at most one field replaced by any JSON
    value, inside 0 to 100,000 levels of arrays."""
    n = draw(st.integers(1, 4))
    junk = draw(st.sampled_from([None, None, "n", "perm", "coeff", "pair",
                                 "term", "doc"]))

    def field(name, good):
        return _json_values if junk == name else good

    def unique(key):
        # a repeated exponent or permutation is refused, so well-formed
        # documents have none
        return None if junk in ("pair", "perm", "term") else key

    ints = st.integers(-3, 3)
    pair = field("pair", st.tuples(ints, st.one_of(ints, ints.map(str))))
    term = field("term", st.fixed_dictionaries({
        "perm": field("perm", st.permutations(range(1, n + 1))),
        "coeff": field("coeff", st.lists(pair, max_size=3,
                                         unique_by=unique(lambda p: p[0])))}))
    doc = field("doc", st.fixed_dictionaries({
        "n": field("n", st.just(n)),
        "basis": st.sampled_from(["T", "Ttilde"]),
        "terms": st.lists(term, max_size=3,
                          unique_by=unique(lambda t: tuple(t["perm"])))}))
    depth = draw(st.sampled_from([0, 0, 0, 0, 10, 900, 2000, 100000]))
    return "[" * depth + json.dumps(draw(doc)) + "]" * depth


@_FUZZ_SETTINGS
@given(_json_documents())
def test_fuzzed_json_import_gets_an_exit_code(text):
    assert _exit_code(["import", "-"], stdin=text) in (0, 1, 2, 3)


def test_gamma_json_writes_the_whole_basis(capsys):
    from hecke import gamma_basis
    rc, out, _ = run(capsys, "gamma", "3", "--json")
    assert rc == 0
    assert json.loads(out) == {",".join(map(str, lam)): element_to_json(g)
                               for lam, g in gamma_basis(3)}
    assert sorted(json.loads(out)) == ["1,1,1", "2,1", "3"]


def test_express_json(capsys):
    rc, out, _ = run(capsys, "express", "--n", "3", "(q - 1)*@x", "--json")
    assert rc == 0
    assert json.loads(out) == {"1,1,1": "q - 1", "2,1": "q - 1", "3": "q - 1"}
    assert list(json.loads(out)) == ["1,1,1", "2,1", "3"]


def test_catalog_json(capsys):
    from hecke import catalog
    rc, out, _ = run(capsys, "catalog", "--n", "3", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {name: element_to_json(el)
                   for name, el in catalog(3).items()}
    assert list(doc) == sorted(doc)


def test_sample_h3_json_is_the_text_element_and_its_branch(capsys):
    _, text, _ = run(capsys, "sample-h3", "--seed", "5")
    rc, out, _ = run(capsys, "sample-h3", "--seed", "5", "--json")
    assert rc == 0
    doc = json.loads(out)
    element, branch = text.splitlines()
    assert f"branch: {doc.pop('branch')}" == branch == "branch: sqrt-branch"
    assert format_element(element_from_json(doc)) == element


@pytest.mark.parametrize("basis", ["T", "Ttilde"])
def test_export_to_stdout_is_the_file_export(tmp_path, capsys, basis):
    path = tmp_path / "el.json"
    rc, out, _ = run(capsys, "export", "--n", "4", "@ybar", "--out", "-",
                     "--basis", basis)
    assert rc == 0
    run(capsys, "export", "--n", "4", "@ybar", "--out", str(path),
        "--basis", basis)
    assert out == path.read_text()
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc["basis"] == basis
    assert element_from_json(doc) == parse_element("@ybar", 4)


def test_verify_text_notes_the_three_flagged_items(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "3")
    assert rc == 0
    assert "items=41 pass=38 flag=3 fail=0" in out
    flagged = [line for line in out.splitlines() if line.startswith("FLAG")]
    assert [line.split()[1] for line in flagged] == [
        "04-longestsq-printed-scale-n3", "06-sqrt-r4r5-span-note-n3",
        "07-ybarsq-printed-n3"]
    notes = [line.split("  :: ", 1)[1] for line in flagged]
    assert notes[0].startswith("the reference table at degree 3 omits")
    assert notes[1].startswith("R4 and R5 anticommute exactly")
    assert notes[2].startswith("the listed square matches the unscaled")
    assert all(" :: " not in line for line in out.splitlines()
               if line.startswith("PASS"))


def test_verify_timings_in_text_and_json(capsys):
    import re
    rc, text, _ = run(capsys, "verify", "--n-max", "2", "--timings")
    assert rc == 0
    _, plain, _ = run(capsys, "verify", "--n-max", "2")
    lines = text.splitlines()
    items = [line for line in lines if line.startswith("PASS")]
    assert len(items) == 2
    assert all(re.search(r"\S  \[\d+\.\d{3}s\]$", line) for line in items)
    assert [re.sub(r"  \[\d+\.\d{3}s\]$", "", line) for line in lines] \
        == plain.splitlines()
    rc, out, _ = run(capsys, "verify", "--n-max", "2", "--timings", "--json")
    assert rc == 0
    _, canonical, _ = run(capsys, "verify", "--n-max", "2", "--json")
    doc = json.loads(out)
    seconds = [item.pop("seconds") for item in doc["items"]]
    assert all(isinstance(s, float) and s >= 0 for s in seconds)
    assert doc == json.loads(canonical)
