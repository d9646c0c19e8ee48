import ast
import json
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

import primlen
from primlen import __version__, cli, field
from primlen.cli import main
from primlen.document import dumps, loads, poly_document, verify_document
from primlen.errors import InternalError, UnsupportedInputError
from primlen.field import MAX_RAW_BITS, QQ, FieldDescriptor, _is_prime
from primlen.multipoly import Polynomial, monomials_of_degree
from primlen.parsing import parse_poly, poly_to_str
from primlen.polydecomp import MAX_DEGREE, MAX_NODES, MAX_POWER_BITS, MAX_TERMS, decompose, poly_bound
from primlen.sparse import MAX_ARITY


def run(args):
    return main(args)


def test_decompose_poly_then_verify(tmp_path):
    out = tmp_path / "doc.json"
    assert run(["decompose", "poly", "--vars", "2", "x1^2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == "primlen/1"
    assert doc["status"] == "finite"
    assert doc["stats"]["count"] <= 3
    assert set(doc["stats"]) == {"count", "degree"}
    assert run(["verify", str(out)]) == 0


@pytest.mark.parametrize(
    "args",
    [["poly", "--vars", "2", "x1^2 + x2"], ["lie", "--vars", "3", "[x2,x1] + x1"]],
    ids=["poly", "lie"],
)
def test_documents_with_op_counts_still_verify(tmp_path, args):
    # documents written before stats.ops was dropped carry it; the verifier ignores it
    out, doc = _decompose_to(tmp_path, args)
    doc["stats"]["ops"] = {"multiplications": 12, "divisions": 3, "additions": 6}
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 0


def test_decompose_lie_gf2(tmp_path):
    out = tmp_path / "doc.json"
    assert run(["decompose", "lie", "--vars", "3", "--field", "F2", "[x2,x1]", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stats"]["count"] <= 6
    assert run(["verify", str(out)]) == 0


def test_stdout_output(capsys):
    assert run(["decompose", "poly", "--vars", "2", "x1 + 1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["count"] == 1


def test_verify_tampered_document(tmp_path):
    out = tmp_path / "doc.json"
    run(["decompose", "poly", "--vars", "2", "x1^2 + x2", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["summands"][0]["summand"] += " + 1"
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 1


def test_verify_bad_json(tmp_path):
    out = tmp_path / "doc.json"
    out.write_text("{not json")
    assert run(["verify", str(out)]) == 2
    out.write_text('{"version": "other/9"}')
    assert run(["verify", str(out)]) == 2


def test_unsupported_inputs():
    assert run(["decompose", "poly", "--vars", "2", "--field", "F3", "x1^2"]) == 3
    assert run(["decompose", "lie", "--vars", "2", "[x2,x1]"]) == 3
    assert run(["bound", "lie", "--vars", "2"]) == 3
    assert run(["bound", "poly", "--vars", "2", "--degree", "1"]) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "poly", "x1"],
        ["decompose", "lie", "[x2,x1]"],
        ["bound", "poly", "--degree", "3"],
        ["bound", "lie"],
    ],
    ids=["decompose-poly", "decompose-lie", "bound-poly", "bound-lie"],
)
@pytest.mark.parametrize("arity", [MAX_ARITY + 1, 10**30])
def test_vars_above_the_arity_ceiling_are_unsupported(capsys, args, arity):
    start = perf_counter()
    assert run(args[:2] + ["--vars", str(arity)] + args[2:]) == 3
    assert perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unsupported input: {arity} generators exceed the ceiling of {MAX_ARITY}\n"


@pytest.mark.parametrize(
    "arity, expr, message",
    [
        (2, "x1^200000 + x2", f"degree 200000 exceeds the ceiling of {MAX_DEGREE}"),
        (2, "x1^99999999999999999999", f"degree 99999999999999999999 exceeds the ceiling of {MAX_DEGREE}"),
        (1024, "x1^2", f"524800 summands for degree 2 in 1024 variables exceed the ceiling of {MAX_NODES}"),
    ],
    ids=["degree-200000", "degree-10^20", "vars-1024"],
)
def test_polynomials_above_the_size_ceilings_are_unsupported(capsys, arity, expr, message):
    start = perf_counter()
    assert run(["decompose", "poly", "--vars", str(arity), expr]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unsupported input: {message}\n"


def test_polynomials_at_the_size_ceilings_are_accepted():
    assert MAX_DEGREE >= 6 and MAX_NODES >= 84  # the (4, 6) headline instance
    assert decompose(parse_poly(f"x1^{MAX_DEGREE} + x1*x2 + x2", 2, QQ)).count == MAX_DEGREE + 1


POWER_BITS_MESSAGE = f"a constant power of up to 199999999998 bits exceeds the ceiling of {MAX_POWER_BITS}"
GROUPS_MESSAGE = "degree {} of parenthesised groups exceeds the ceiling of " + str(MAX_DEGREE)
TERMS_MESSAGE = "{} terms of a product of parenthesised groups exceed the ceiling of " + str(MAX_TERMS)
SUM_30 = "(" + "+".join(f"x{i}" for i in range(1, 31)) + ")"


@pytest.mark.parametrize(
    "arity, expr, message",
    [
        (2, "2^99999999999*x1 + x2", POWER_BITS_MESSAGE),
        (2, "(2/3)^99999999999*x1", POWER_BITS_MESSAGE),
        (2, "(x1+x2)^100000", GROUPS_MESSAGE.format(100000)),
        (2, "(x1+x2)^9*(x1-x2)^8", GROUPS_MESSAGE.format(17)),
        (1, "(x1+1)^17", GROUPS_MESSAGE.format(17)),
        (30, SUM_30 + "^4", TERMS_MESSAGE.format(4960)),  # would expand to 40,920 terms
        (30, SUM_30 + "*" + SUM_30 + "^2*(x1-x2)", TERMS_MESSAGE.format(4960)),
    ],
    ids=["number", "constant-group", "group", "group-product", "one-variable", "group-terms", "product-terms"],
)
def test_powers_above_the_reader_ceilings_are_unsupported(tmp_path, capsys, arity, expr, message):
    start = perf_counter()
    assert run(["decompose", "poly", "--vars", str(arity), expr]) == 3
    assert perf_counter() - start < 1
    assert capsys.readouterr().err == f"unsupported input: {message}\n"
    out, doc = _decompose_to(tmp_path, ["poly", "--vars", str(arity), "x1"])
    doc["input"] = expr
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    start = perf_counter()
    assert run(["verify", str(out)]) == 1
    assert perf_counter() - start < 1
    assert capsys.readouterr().err == f"verification failed: document rebuild failed: {message}\n"


def test_powers_at_the_reader_ceilings_are_accepted():
    assert parse_poly(f"2^{MAX_POWER_BITS // 2}", 1, QQ).constant_term() == QQ(2**(MAX_POWER_BITS // 2))
    assert parse_poly(f"(x1+1)^{MAX_DEGREE}", 1, QQ).total_degree() == MAX_DEGREE
    assert parse_poly(f"(x1+x2)^8*(x1-x2)^{MAX_DEGREE - 8}", 2, QQ).total_degree() == MAX_DEGREE
    assert len(parse_poly(f"(x1+x2)^{MAX_DEGREE}", 2, QQ).terms) == MAX_DEGREE + 1
    assert len(parse_poly("(x1+x2+x3+x4+x5+x6)^5", 6, QQ).terms) == 252


def test_the_term_ceiling_holds_every_polynomial_the_bound_accepts():
    # constant plus linear form in MAX_ARITY variables
    assert MAX_TERMS == MAX_ARITY + 1
    largest = 0
    for d in range(2, MAX_ARITY + 1):
        if comb(2 + d - 1, d - 1) > MAX_NODES:
            break
        for n in range(2, MAX_DEGREE + 1):
            f = parse_poly(f"x1^{n} + x2", d, QQ)
            try:
                poly_bound(f)
            except UnsupportedInputError:
                break
            largest = max(largest, comb(n + d, d))
    assert largest == 969 < MAX_TERMS


def test_a_document_above_the_degree_ceiling_fails_before_its_bound(tmp_path, capsys):
    # binom(n+1023, 1023) for n = 10^5000 would take the verifier many seconds
    out, doc = _decompose_to(tmp_path, ["poly", "--vars", "2", "x1^2 + x2"])
    doc["arity"] = 1024
    doc["input"] = "x1^1" + "0" * 5000
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    start = perf_counter()
    assert run(["verify", str(out)]) == 1
    assert perf_counter() - start < 1
    degree = "1" + "0" * 5000
    assert capsys.readouterr().err == (
        f"verification failed: document rebuild failed: degree {degree} exceeds the ceiling of {MAX_DEGREE}\n"
    )


def test_a_recomputed_degree_past_the_digit_limit_is_reported_in_full(tmp_path, capsys):
    # one variable: no ceiling applies, so the verifier recomputes a 5,001-digit degree
    out, doc = _decompose_to(tmp_path, ["poly", "--vars", "1", "x1^2"])
    doc["input"] = "x1^1" + "0" * 5000
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    degree = "1" + "0" * 5000
    assert capsys.readouterr().err == (
        f"verification failed: stats.degree 2 differs from the recomputed {degree}\n"
    )


def test_a_degree_past_the_digit_limit_has_no_document(capsys):
    # one variable: the status is infinite, so no ceiling applies before the document
    expr = "x1^1" + "0" * 5000
    start = perf_counter()
    assert run(["decompose", "poly", "--vars", "1", expr]) == 3
    assert perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unsupported input: a degree of 5001 digits is too long for a JSON number\n"
    f = parse_poly(expr, 1, QQ)
    assert poly_to_str(f) == expr
    assert run(["decompose", "poly", "--vars", "1", "x1^1" + "0" * 4299]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["degree"] == 10**4299


@pytest.mark.parametrize(
    "args",
    [
        ["poly", "--vars", "1024", "x1"],
        ["lie", "--vars", "384", "x1 + [x2,x1] + [x384,x1,x383] + [x383,x1,x384] + [x383,x2]"],
    ],
    ids=["poly-1024", "lie-384"],
)
def test_a_basis_change_at_a_legal_arity_is_decomposed_and_verified_in_seconds(tmp_path, args):
    # every linear factor is a d x d matrix of given rows and unit rows; a producer or an
    # invertibility check cubic in d takes from 7 s to a minute here, so each run of the
    # CLI gets a timeout that fails the test rather than letting it hang.  The Lie input
    # mentions x383 and x384, so its merged document keeps its 384 x 384 matrices.  At
    # 1,024 variables a polynomial has degree at most 1, so x1 is certified by one
    # triangular factor of 1,024 gammas and tails, and the case times that factor
    out = tmp_path / "doc.json"
    _run_cli_in_seconds("decompose", *args, "--out", str(out))
    _run_cli_in_seconds("verify", str(out))


def test_an_earlier_affine_factor_at_1024_variables_is_verified_in_seconds(tmp_path):
    # a degree-1 polynomial document as written before every summand gamma x_j + v took one
    # triangular factor: x1 + 2*x2 + ... + 1024*x1024 + 1 as the image of x1 under one affine
    # factor, the 1,024 x 1,024 matrix basis_from_rows([l]) and the offset (1, 0, ..., 0)
    d = MAX_ARITY
    linear = " + ".join(["x1"] + [f"{k}*x{k}" for k in range(2, d + 1)]) + " + 1"
    matrix = [[str(k) for k in range(1, d + 1)]] + [["1" if i == j else "0" for i in range(d)] for j in range(1, d)]
    record = {"kind": "affine", "matrix": matrix, "offset": ["1"] + ["0"] * (d - 1)}
    doc = {
        "algebra": "polynomial", "arity": d, "bound": 1, "field": "Q", "input": linear, "notes": [],
        "stats": {"count": 1, "degree": 1}, "status": "finite",
        "summands": [{"certificate": [record], "generator": 1, "summand": linear}], "version": "primlen/1",
    }
    out = tmp_path / "doc.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    _run_cli_in_seconds("verify", str(out))


def _run_cli_in_seconds(*command):
    """Run the CLI in a new process with a 10 s timeout, which fails the test rather than letting it hang."""
    src = str(Path(primlen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cli = [sys.executable, "-c", "import sys; from primlen.cli import main; sys.exit(main(sys.argv[1:]))"]
    done = subprocess.run(cli + list(command), env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stderr) == (0, "")


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, ast, dis and tokenize: about half the
    # cold-start time of `import primlen`, which every CLI run pays
    src = str(Path(primlen.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import primlen.cli; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    modules = set(done.stdout.split())
    assert "primlen.document" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_the_program_reads_no_environment_variable():
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(Path(primlen.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names and getattr(node.value, "id", None) == "os":
                reads.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [(path.name, node.lineno) for alias in node.names if alias.name in names]
    assert reads == []


def test_vars_at_the_arity_ceiling_are_accepted(capsys):
    assert run(["bound", "lie", "--vars", str(MAX_ARITY)]) == 0
    assert capsys.readouterr().out == "6\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["--version"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"primlen {__version__} (")
    assert " (fractions arithmetic, " in out
    assert f"Python {platform.python_version()}" in out


def test_parse_error_exit_code():
    assert run(["decompose", "poly", "--vars", "2", "x1 ++ x2"]) == 2
    assert run(["decompose", "lie", "--vars", "3", "[x1]"]) == 2


def test_non_ascii_digits_exit_code():
    assert run(["decompose", "poly", "--vars", "2", "x1^\u00b2"]) == 2
    assert run(["decompose", "poly", "--vars", "2", "x\u0661 + x2"]) == 2
    assert run(["decompose", "lie", "--vars", "3", "[x2,x\u0661]"]) == 2


def _decompose_to(tmp_path, args):
    out = tmp_path / "doc.json"
    assert run(["decompose", *args, "--out", str(out)]) == 0
    return out, json.loads(out.read_text())


def _first_matrix(doc):
    return next(f["matrix"] for s in doc["summands"] for f in s["certificate"] if "matrix" in f)


@pytest.mark.parametrize(
    "args, zero_denominator",
    [
        (["poly", "--vars", "2", "x1^2 + x2^2 + x2"], "1/0"),
        (["lie", "--vars", "3", "--field", "F3", "[x2,x1] + [x3,x1] + x1"], "1/3"),
    ],
    ids=["Q", "F3"],
)
def test_verify_zero_denominator_fails_cleanly(tmp_path, capsys, args, zero_denominator):
    out, doc = _decompose_to(tmp_path, args)
    _first_matrix(doc)[0][0] = zero_denominator
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 1
    assert "document rebuild failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, edits",
    [
        (["poly", "--vars", "2", "x1^2 + x2"], {"bound": 99}),
        (["poly", "--vars", "2", "x1^2 + x2"], {"count": 42}),
        (["poly", "--vars", "2", "x1^2 + x2"], {"degree": 7}),
        (["poly", "--vars", "2", "x1^2 + x2"], {"bound": "3"}),
        (["poly", "--vars", "2", "0"], {"bound": 2}),
        (["poly", "--vars", "2", "5"], {"bound": 3}),
        (["poly", "--vars", "2", "x1 + 1"], {"degree": None}),
        (["poly", "--vars", "1", "x1^3"], {"bound": 1}),
        (["lie", "--vars", "3", "[x2,x1] + x1"], {"bound": 50}),
        (["lie", "--vars", "3", "--field", "F2", "[x2,x1]"], {"bound": 5}),
        (["lie", "--vars", "4", "[x2,x1,x3]"], {"count": 42}),
        (["lie", "--vars", "4", "[x2,x1,x3]"], {"degree": 2}),
        (["poly", "--vars", "2", "x1^2 + x2"], {"stats": []}),
    ],
)
def test_verify_recomputes_bound_and_stats(tmp_path, args, edits):
    out, doc = _decompose_to(tmp_path, args)
    assert run(["verify", str(out)]) == 0
    for key, value in edits.items():
        (doc if key in ("bound", "stats") else doc["stats"])[key] = value
    result = verify_document(loads(json.dumps(doc)))
    assert not result.ok
    assert any("recomputed" in p or "stats is not an object" in p for p in result.problems), result.problems


def test_bound_outputs(capsys):
    assert run(["bound", "poly", "--vars", "3", "--degree", "2"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["bound", "lie", "--vars", "3", "--field", "F2"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["bound", "lie", "--vars", "5", "--field", "F2"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_a_bound_past_the_digit_limit_is_printed_in_full(capsys):
    assert run(["bound", "poly", "--vars", "1024", "--degree", str(10**9)]) == 0
    out = capsys.readouterr().out
    assert len(out) == 6571 + 1  # past the interpreter's 4,300-digit limit of str()
    assert out == field.int_to_str(comb(10**9 + 1023, 1023)) + "\n"


def test_a_bound_past_the_power_ceiling_is_refused_before_it_is_computed(capsys):
    # 1023 times the 14,278 bits of a 4,299-digit degree; computing the binomial takes seconds
    start = perf_counter()
    assert run(["bound", "poly", "--vars", "1024", "--degree", "1" + "0" * 4298]) == 3
    assert perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"unsupported input: a bound of up to {1023 * 14278} bits for 1024 variables "
        f"exceeds the ceiling of {MAX_POWER_BITS}\n"
    )


def test_infinite_document_roundtrip(tmp_path):
    out = tmp_path / "doc.json"
    assert run(["decompose", "poly", "--vars", "1", "x1^3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "infinite" and doc["bound"] is None and doc["summands"] == []
    assert run(["verify", str(out)]) == 0


def test_degree_cap_env(tmp_path, monkeypatch):
    """Lie words are capped at length 12 whatever PRIMLEN_DEGREE_CAP says."""
    for value in (None, "3", "20"):
        if value is not None:
            monkeypatch.setenv("PRIMLEN_DEGREE_CAP", value)
        assert run(["decompose", "lie", "--vars", "3", "[x2" + ",x1" * 12 + "]"]) == 3
        assert run(["decompose", "lie", "--vars", "3", "[x2" + ",x1" * 11 + "]"]) == 0


def test_a_long_lie_word_verifies_whatever_the_environment(tmp_path, monkeypatch):
    out = tmp_path / "doc.json"
    assert run(["decompose", "lie", "--vars", "3", "[x2,x1,x1,x1,x1] + x3", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    monkeypatch.setenv("PRIMLEN_DEGREE_CAP", "3")
    assert run(["verify", str(out)]) == 0


def test_decompose_out_to_a_path_that_cannot_be_written(tmp_path, capsys):
    out = tmp_path / "missing" / "doc.json"
    assert run(["decompose", "poly", "--vars", "2", "x1^2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write document: ")
    assert not out.exists()


@pytest.mark.parametrize("algebra, expr", [("poly", "x1^2"), ("lie", "[x2,x1]")])
def test_an_internal_error_exits_4_with_one_line(monkeypatch, tmp_path, capsys, algebra, expr):
    def fail(_):
        raise InternalError("Bareiss intermediate is not an integer")

    monkeypatch.setattr(cli, "decompose", fail)
    monkeypatch.setattr(cli, "decompose_lie", fail)
    out = tmp_path / "doc.json"
    assert run(["decompose", algebra, "--vars", "3", expr, "--out", str(out)]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: Bareiss intermediate is not an integer\n"
    assert not out.exists()


def test_document_round_trip_api():
    f = parse_poly("x1^2 - 1/3*x1*x2 + 7", 2, QQ)
    doc = poly_document(decompose(f))
    text = dumps(doc)
    reloaded = loads(text)
    result = verify_document(reloaded)
    assert result.ok, result.problems
    # stable key order: serializing twice gives identical bytes
    assert dumps(reloaded) == text


def test_decompose_poly_d4_n6_small_document(tmp_path):
    out = tmp_path / "doc.json"
    expr = "x1^6 - 3*x2^5*x3 + 2/7*x1*x2*x3*x4^3 + x4^6 - x1^2*x3^2 + x2*x4 + 5*x3 - 1"
    assert run(["decompose", "poly", "--vars", "4", expr, "--out", str(out)]) == 0
    assert out.stat().st_size < 1_000_000
    assert json.loads(out.read_text())["stats"]["count"] <= 84
    assert run(["verify", str(out)]) == 0


@pytest.mark.parametrize("value", ["abc", "-1", "0", "", "1" * 5000])
def test_invalid_degree_cap_env_is_a_usage_error(monkeypatch, capsys, value):
    """Any PRIMLEN_DEGREE_CAP value leaves the exit code and the document as they are without it."""
    assert run(["decompose", "lie", "--vars", "3", "[x2,x1]"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setenv("PRIMLEN_DEGREE_CAP", value)
    assert run(["decompose", "lie", "--vars", "3", "[x2,x1]"]) == 0
    assert capsys.readouterr() == (expected, "")


def test_coefficients_beyond_the_digit_limit(tmp_path):
    out = tmp_path / "doc.json"
    big = "7" * 5000
    assert run(["decompose", "poly", "--vars", "2", f"{big}*x1 + x2^2/{big}", "--out", str(out)]) == 0
    assert big in out.read_text()
    assert run(["verify", str(out)]) == 0
    assert run(["decompose", "lie", "--vars", "3", f"{big}*[x2,x1] - x3", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def _factor_with(doc, key):
    return next(f for s in doc["summands"] for f in s["certificate"] if key in f)


def _set_gammas(doc, value):
    _factor_with(doc, "gammas")["gammas"] = value


def _set_tails(doc, value):
    _factor_with(doc, "tails")["tails"] = value


def _set_matrix(doc, value):
    _factor_with(doc, "matrix")["matrix"] = value


def _set_summand(doc, value):
    doc["summands"][0]["summand"] = value


def _set_generator(doc, value):
    doc["summands"][0]["generator"] = value


def _set_arity(doc, value):
    doc["arity"] = value


@pytest.mark.parametrize(
    "args",
    [["poly", "--vars", "2", "x1^2 + x2^2 + x2 + 1"], ["lie", "--vars", "3", "--field", "F101", "[x2,x1,x3] + 2*x1"]],
    ids=["poly", "lie"],
)
@pytest.mark.parametrize(
    "edit, value",
    [
        (_set_gammas, 5),
        (_set_gammas, [None]),
        (_set_tails, 5),
        (_set_tails, [5, 5]),
        (_set_matrix, 5),
        (_set_matrix, [5]),
        (_set_matrix, [[1.5]]),
        (_set_matrix, []),
        (_set_summand, 5),
        (_set_summand, ["x1"]),
        (_set_generator, "1"),
        (_set_generator, 1.0),
        (_set_generator, True),
        (_set_generator, [1]),
        (_set_arity, "3"),
        (_set_arity, 3.0),
        (_set_arity, None),
    ],
)
def test_wrong_json_types_are_rebuild_failures(tmp_path, capsys, args, edit, value):
    out, doc = _decompose_to(tmp_path, args)
    edit(doc, value)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "document rebuild failed" in capsys.readouterr().err


def _spell(values):
    return "".join(map(str, values))


def _spell_summands(doc):
    doc["summands"] = _spell(doc["summands"])


def _spell_certificate(doc):
    doc["summands"][0]["certificate"] = _spell(doc["summands"][0]["certificate"])


def _spell_matrix(doc):
    record = _first_factor(doc, "matrix")
    record["matrix"] = _spell(map(_spell, record["matrix"]))


def _spell_matrix_rows(doc):
    record = _first_factor(doc, "matrix")
    record["matrix"] = [_spell(row) for row in record["matrix"]]


def _spell_key(key):
    def edit(doc):
        record = _first_factor(doc, key)
        record[key] = _spell(record[key])

    return edit


# Each array holds one-character entries, so its string spelling iterates to the same entries.
SPELLED_ARRAYS = {
    "summands": (["poly", "--vars", "2", "0"], _spell_summands),
    "certificate": (["poly", "--vars", "1", "x1"], _spell_certificate),
    "matrix": (["poly", "--vars", "2", "x1^2 + x1*x2"], _spell_matrix),
    "matrix row": (["poly", "--vars", "2", "x1^2 + x1*x2"], _spell_matrix_rows),
    "offset": (["poly", "--vars", "2", "x1^2 + x1*x2"], _spell_key("offset")),
    "gammas": (["poly", "--vars", "2", "x1^2 + x2"], _spell_key("gammas")),
    "tails": (["lie", "--vars", "3", "[x2,x1] + x1"], _spell_key("tails")),
    "ordering": (["lie", "--vars", "3", "[x2,x1] + x1"], _spell_key("ordering")),
}


@pytest.mark.parametrize("name", list(SPELLED_ARRAYS))
def test_a_string_spelling_an_array_is_a_rebuild_failure(tmp_path, capsys, name):
    args, edit = SPELLED_ARRAYS[name]
    out, doc = _decompose_to(tmp_path, args)
    edit(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert f"document rebuild failed: {name} is not an array" in capsys.readouterr().err


def test_lie_document_must_claim_finite_status(tmp_path):
    _, doc = _decompose_to(tmp_path, ["lie", "--vars", "3", "[x2,x1] + x1"])
    doc["status"] = "infinite"
    result = verify_document(loads(json.dumps(doc)))
    assert not result.ok and any("status" in p for p in result.problems)


@pytest.mark.parametrize(
    "args",
    [["poly", "--vars", "2"], ["lie", "--vars", "3"]],
    ids=["poly", "lie"],
)
def test_deeply_nested_expression_is_a_parse_error(capsys, args):
    assert run(["decompose", *args, "(" * 400 + "x1" + ")" * 400]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: expression nested too deeply") and err.count("\n") == 1


def test_deeply_nested_document_cannot_be_loaded(tmp_path, capsys):
    out = tmp_path / "doc.json"
    out.write_text("[" * 200_000)
    assert run(["verify", str(out)]) == 2
    assert capsys.readouterr().err == "error: cannot load document: the document is nested too deeply\n"


def test_deeply_nested_summand_is_a_rebuild_failure(tmp_path, capsys):
    out, doc = _decompose_to(tmp_path, ["poly", "--vars", "2", "x1^2 + x2"])
    doc["summands"][0]["summand"] = "(" * 400 + "x1" + ")" * 400
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "document rebuild failed: expression nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["poly", "--vars", "2", "x1^2 + x2"], ["lie", "--vars", "3", "[x2,x1] + x1"]],
    ids=["poly", "lie"],
)
@pytest.mark.parametrize("arity", [10**30, 0, -1, 2**62, MAX_ARITY + 1])
def test_arity_out_of_range_is_a_rebuild_failure(tmp_path, capsys, args, arity):
    out, doc = _decompose_to(tmp_path, args)
    doc["arity"] = arity
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr().err == f"verification failed: document rebuild failed: arity {arity} is out of range\n"


def _affine_factor(diagonal):
    d = len(diagonal)
    matrix = [[diagonal[i] if i == j else "0" for j in range(d)] for i in range(d)]
    return {"kind": "affine", "matrix": matrix, "offset": ["0"] * d}


def _linear_factor(diagonal):
    return {"kind": "linear", "matrix": _affine_factor(diagonal)["matrix"]}


def _first_factor(doc, key):
    return next(f for s in doc["summands"] for f in s["certificate"] if key in f)


def _singular_matrix(doc):
    record = _first_factor(doc, "matrix")
    record["matrix"] = [["0"] * len(row) for row in record["matrix"]]
    return "matrix is singular"


def _short_offset(doc):
    _first_factor(doc, "offset")["offset"] = ["0"]
    return "offset has wrong length"


def _zero_gamma(doc):
    record = _first_factor(doc, "gammas")
    record["gammas"][0] = "0"
    return f"triangular gamma of x{record.get('ordering', [1])[0]} is zero"


def _forbidden_tail(doc):
    record = _first_factor(doc, "tails")
    first = record.get("ordering", [1])[0]
    record["tails"][0] = f"x{first}"
    return f"tail of x{first} mentions forbidden generator x{first}"


def _two_forbidden_in_the_last_tail(doc):
    # the last tail may mention no generator; the message names the smallest it does mention
    record = _first_factor(doc, "tails")
    record["tails"][-1] = "x3 + x2"
    return f"tail of x{record.get('ordering', [1, 2, 3])[-1]} mentions forbidden generator x2"


def _repeated_ordering(doc):
    _first_factor(doc, "ordering")["ordering"] = [1, 1, 3]
    return "ordering (1, 1, 3) is not a permutation of 1..3"


def _linear_inner_element(doc):
    _first_factor(doc, "element")["element"] = "x1"
    return "inner automorphism element has a linear part"


POLY_ARGS = ["poly", "--vars", "3", "x1^3 + x2*x3 - 2*x1 + 1"]
LIE_ARGS = ["lie", "--vars", "3", "[x2,x1,x3] - 3/2*[x3,x1] + x1 - 2*x3"]


@pytest.mark.parametrize(
    "args, invalidate",
    [
        (POLY_ARGS, _singular_matrix),
        (POLY_ARGS, _short_offset),
        (POLY_ARGS, _zero_gamma),
        (POLY_ARGS, _forbidden_tail),
        (POLY_ARGS, _two_forbidden_in_the_last_tail),
        (LIE_ARGS, _singular_matrix),
        (LIE_ARGS, _zero_gamma),
        (LIE_ARGS, _forbidden_tail),
        (LIE_ARGS, _two_forbidden_in_the_last_tail),
        (LIE_ARGS, _repeated_ordering),
        (LIE_ARGS, _linear_inner_element),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v.__name__.strip("_"),
)
def test_the_verifier_is_the_only_validity_check(tmp_path, args, invalidate):
    # factors are built unchecked; an invalid one is caught when the document is verified
    _, doc = _decompose_to(tmp_path, args)
    message = invalidate(doc)
    problems = verify_document(loads(json.dumps(doc))).problems
    assert any("invalid elementary factor" in p and message in p for p in problems), problems


def _swap_certificates(doc, factor):
    first, second = doc["summands"][:2]
    first["certificate"], second["certificate"] = second["certificate"], first["certificate"]
    first["generator"], second["generator"] = second["generator"], first["generator"]
    return ["summand 1: certificate replay mismatch", "summand 2: certificate replay mismatch"]


def _zero_a_matrix(doc, factor):
    for i, record in enumerate(doc["summands"], start=1):
        for k, f in enumerate(record["certificate"], start=1):
            if "matrix" in f:
                f["matrix"] = [["0"] * len(row) for row in f["matrix"]]
                return [f"summand {i}: invalid elementary factor (factor {k}: matrix is singular)"]


def _shift_input(doc, factor):
    doc["input"] += " + x1"
    return ["sum mismatch: summands do not add up to the input"]


def _add_cancelling_pair(doc, factor):
    # pairs x1, -x1 until the count passes the bound: two for the Lie input (3 of 5), four for the poly one (4 of 10)
    d = doc["arity"]
    while len(doc["summands"]) <= doc["bound"]:
        for summand, sign in (("x1", "1"), ("-x1", "-1")):
            certificate = [factor([sign] + ["1"] * (d - 1))]
            doc["summands"].append({"summand": summand, "generator": 1, "certificate": certificate})
    doc["stats"]["count"] = len(doc["summands"])
    return [f"count {len(doc['summands'])} exceeds bound {doc['bound']}"]


@pytest.mark.parametrize(
    "args, factor",
    [
        (["poly", "--vars", "3", "x1^3 + x2*x3 - 2*x1 + 1"], _affine_factor),
        (["lie", "--vars", "3", "[x2,x1,x3] - 3/2*[x3,x1] + x1 - 2*x3"], _linear_factor),
    ],
    ids=["poly", "lie"],
)
@pytest.mark.parametrize("tamper", [_swap_certificates, _zero_a_matrix, _shift_input, _add_cancelling_pair])
def test_one_verify_loop_reports_the_same_diagnostics(tmp_path, args, factor, tamper):
    _, doc = _decompose_to(tmp_path, args)
    expected = tamper(doc, factor)
    assert verify_document(loads(json.dumps(doc))).problems == expected


def _primes(count, start):
    """The first count primes from start on, by a sieve of [start, 2 * start)."""
    sieve = bytearray([1]) * (2 * start)
    for i in range(2, int((2 * start) ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, 2 * start, i)))
    return [q for q in range(start, 2 * start) if sieve[q]][:count]


def test_a_decompose_above_the_common_denominator_ceiling_is_unsupported(capsys):
    # a linear form in 1,024 variables whose coefficients have coprime 500- to 1,000-bit denominators;
    # its one triangular factor is read with 1,024 gammas and 1,023 tail terms, all nonzero
    primes = [q for q in range(2, 9000) if _is_prime(q)][:MAX_ARITY]
    expr = " + ".join(f"x{k}/{q}^80" for k, q in enumerate(primes, start=1))
    start = perf_counter()
    assert run(["decompose", "poly", "--vars", str(MAX_ARITY), expr]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = f"unsupported input: {2 * MAX_ARITY - 1} nonzero scalars over a common denominator of at least "
    assert captured.err.startswith(prefix)
    assert captured.err.endswith(f" bits exceed the ceiling of {MAX_RAW_BITS} bits\n")


def _place_in_summand(doc, text):
    doc["summands"][0]["summand"] = text
    return ["summand 1: certificate replay mismatch", "sum mismatch: summands do not add up to the input"]


def _place_in_tail(doc, text):
    doc["summands"][0]["certificate"][0]["tails"][0] = text
    prefix = "document rebuild failed: 16003 nonzero scalars over a common denominator of at least 33568 bits"
    return [f"{prefix} exceed the ceiling of {MAX_RAW_BITS} bits"]


@pytest.mark.parametrize("place", [_place_in_summand, _place_in_tail], ids=["summand", "tail"])
def test_many_distinct_denominators_are_verified_in_bounded_memory(tmp_path, capsys, place):
    # 16,000 terms in x2, x3 whose denominators are distinct primes near 2^20.
    # A summand is re-summed by key, so no denominator spans two of its terms
    # (over one common denominator that took 11.6 s and 1.39 GB); a tail is
    # read with the gammas of its factor by one to_raw, which refuses them.
    count = 16000
    side = int(count**0.5) + 1
    monomials = [(i, j) for i in range(side) for j in range(side)][:count]
    terms = [f"1/{q}*x2^{i}*x3^{j}" for q, (i, j) in zip(_primes(count, 1 << 20), monomials)]
    out, doc = _decompose_to(tmp_path, ["poly", "--vars", "3", "x1 + x2^2"])
    assert doc["summands"][0]["certificate"][0]["kind"] == "triangular"
    expected = place(doc, " - ".join(terms))
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        start = perf_counter()
        problems = verify_document(loads(text)).problems
        seconds = perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == expected
    assert seconds < 10 and peak < 64 * 2**20
    out.write_text(text)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr().err == "".join(f"verification failed: {problem}\n" for problem in problems)


def test_a_document_decompose_writes_at_its_tightest_ceiling_verifies(tmp_path, monkeypatch):
    # Every monomial of degree <= 6 in 3 variables, coefficients a/b with
    # |a|, b <= 10^5.  The ceiling is lowered to the largest den bits x
    # nonzero scalars that decompose reaches (70,308); the summands over one
    # common denominator would reach 2.2 M.
    rng = random.Random(1)
    terms = {
        m: QQ(rng.choice([-1, 1]) * rng.randint(1, 10**5), rng.randint(1, 10**5))
        for n in range(7)
        for m in monomials_of_degree(3, n)
    }
    args = ["poly", "--vars", "3", poly_to_str(Polynomial(3, QQ, terms))]
    peak = 0
    to_raw = FieldDescriptor.to_raw

    def measured(self, scalars):
        nonlocal peak
        den, ints = to_raw(self, scalars)
        peak = max(peak, den.bit_length() * sum(1 for v in ints if v))
        return den, ints

    monkeypatch.setattr(FieldDescriptor, "to_raw", measured)
    out, doc = _decompose_to(tmp_path, args)
    monkeypatch.setattr(field, "MAX_RAW_BITS", peak - 1)
    assert run(["decompose", *args]) == 3
    monkeypatch.setattr(field, "MAX_RAW_BITS", peak)
    assert _decompose_to(tmp_path, args)[1] == doc
    assert run(["verify", str(out)]) == 0


def _dense_input():
    """Every monomial of degree <= 6 in 3 variables, coefficients a/b with |a|, b <= 10^5."""
    rng = random.Random(1)
    terms = {
        m: QQ(rng.choice([-1, 1]) * rng.randint(1, 10**5), rng.randint(1, 10**5))
        for n in range(7)
        for m in monomials_of_degree(3, n)
    }
    return poly_to_str(Polynomial(3, QQ, terms))


@pytest.mark.parametrize(
    "args",
    [
        ["poly", "--vars", "3", "--", "1/65521*x1 + 1/65519*x2 + 1/65497*x3 + x1^2 + x2*x3 - x3^3"],
        ["poly", "--vars", "3", "--", "1/65521*x1 + 1/65519*x2 + 1/65497*x3 + 5"],
        ["poly", "--vars", "3", "--", "-7/65521"],
        ["poly", "--vars", "3", "--", _dense_input()],
        ["lie", "--vars", "5", "--", "6/7*x3 + 5/4*[x1,x1,x3] + 10/9*[x1,x2,x5,x5,x1] - 1/4*[x2,x2,x3,x3,x5,x1]"],
        [
            "lie", "--vars", "3", "--",
            "-1/4*[x3,x3,x3] + 5/4*[x1,x3,x3,x3,x2,x1,x1] - 1/6*[x1,x3] - 8/3*[x1,x2,x2,x2] + 10/9*[x2,x2]"
            " - 1*[x3,x2,x2] - 3/4*[x2,x1] + 3*[x2,x3,x3,x1] - 3/10*[x2,x1,x2,x2,x3,x3]",
        ],
    ],
    ids=["linear-part", "linear", "constant", "dense", "lie-d5", "lie-d3"],
)
def test_decompose_reads_every_run_of_scalars_the_verifier_reads(tmp_path, monkeypatch, args):
    # The largest den bits x nonzero scalars of one to_raw in decompose is
    # at least that of verify, so every document the verifier would refuse
    # at the ceiling of MAX_RAW_BITS is refused by decompose first.  In a
    # Lie certificate that holds for the triangular, inner and linear
    # factors alike, each read once after the merge keeps it.
    peak = 0
    to_raw = FieldDescriptor.to_raw

    def measured(self, scalars):
        nonlocal peak
        den, ints = to_raw(self, scalars)
        peak = max(peak, den.bit_length() * sum(1 for v in ints if v))
        return den, ints

    monkeypatch.setattr(FieldDescriptor, "to_raw", measured)
    out = tmp_path / "doc.json"
    assert run(["decompose", "--out", str(out), *args]) == 0
    produced, peak = peak, 0
    assert run(["verify", str(out)]) == 0
    assert produced >= peak > 1
