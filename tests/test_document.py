"""The document reader: each distinct text is parsed once, and every failure keeps its message."""

import copy
import json
from collections import Counter

import pytest

from primlen import document
from primlen.cli import main
from primlen.document import lie_document, poly_document, verify_document
from primlen.field import field_from_flag
from primlen.liedecomp import decompose_lie
from primlen.parsing import parse_lie, parse_poly
from primlen.polydecomp import decompose

from test_golden import LIE_CORPUS, POLY_CORPUS


def golden(name):
    """The JSON value of a golden document, as the verifier loads it."""
    if name in POLY_CORPUS:
        arity, expr, _ = POLY_CORPUS[name]
        doc = poly_document(decompose(parse_poly(expr, arity, field_from_flag("Q"))))
    else:
        arity, flag, expr, _ = LIE_CORPUS[name]
        doc = lie_document(decompose_lie(parse_lie(expr, arity, field_from_flag(flag))))
    return json.loads(json.dumps(doc))


def strings(value):
    """Every string in a JSON value, keys left out."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from strings(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from strings(item)


def factors(doc, kind):
    return [f for s in doc["summands"] for f in s["certificate"] if f["kind"] == kind]


def rebuild_problems(doc):
    return verify_document(doc).problems


@pytest.mark.parametrize("name", ["Q-d3", "F2-d4", "d5-n3-linear-part"])
def test_verify_parses_each_distinct_text_at_most_once(monkeypatch, name):
    doc = golden(name)
    seen = Counter()

    def counting(reader, position):
        def read(*args, **kwargs):
            seen[reader, args[position]] += 1
            return original(*args, **kwargs)

        original = getattr(document, reader)
        return read

    # parse_scalar(field, text); parse_poly and parse_lie(text, arity, field)
    for reader, position in (("parse_scalar", 1), ("parse_poly", 0), ("parse_lie", 0)):
        monkeypatch.setattr(document, reader, counting(reader, position))
    assert verify_document(doc).ok
    texts = Counter(strings(doc))
    assert max(texts.values()) > 1  # the document repeats texts, or the check shows nothing
    # "0" may be read once as a scalar and once as an element
    assert seen and max(seen.values()) == 1
    assert {text for _, text in seen} <= set(texts)


def test_a_corrupted_repeated_matrix_entry_still_fails():
    doc = golden("Q-d3")
    rows = [row for f in factors(doc, "linear") for row in f["matrix"]]
    assert sum(row.count("1") for row in rows) > 1
    last = [row for row in rows if "1" in row][-1]
    last[len(last) - 1 - last[::-1].index("1")] = "1/0"
    assert rebuild_problems(doc) == ["document rebuild failed: zero denominator in scalar '1/0' (at position 1)"]


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("Q-d3", "0 +", "unexpected 'end of input' (at position 3)"),
        ("d2-n3", "0/0", "division is only defined by a nonzero constant (at position 1)"),
    ],
)
def test_a_corrupted_repeated_tail_still_fails(name, corrupt, message):
    doc = golden(name)
    tails = [f["tails"] for f in factors(doc, "triangular")]
    assert sum(t.count("0") for t in tails) > 1
    last = [t for t in tails if "0" in t][-1]
    last[len(last) - 1 - last[::-1].index("0")] = corrupt
    assert rebuild_problems(doc) == [f"document rebuild failed: {message}"]


def test_values_that_are_not_strings_are_refused_as_before():
    doc = golden("Q-d3")
    factors(doc, "linear")[-1]["matrix"][1][0] = ["x"]
    assert rebuild_problems(doc) == ["document rebuild failed: scalar ['x'] is not a string (at position 0)"]
    doc = golden("Q-d3")
    factors(doc, "triangular")[-1]["gammas"][-1] = {"a": 1}
    assert rebuild_problems(doc) == ["document rebuild failed: scalar {'a': 1} is not a string (at position 0)"]
    doc = golden("Q-d3")
    factors(doc, "triangular")[-1]["tails"][-1] = ["0"]
    assert rebuild_problems(doc) == [
        "document rebuild failed: a field has the wrong JSON type (expected string or bytes-like object, got 'list')"
    ]


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([], "empty matrix"),
        ([[]], "matrix dimensions must be positive"),
        ([[], ["1"]], "ragged rows"),
        ([["1", "0", "0"], ["0", "1"], ["0", "0", "1"]], "ragged rows"),
        ([["1"], "x"], "matrix row is not an array"),
    ],
)
def test_malformed_matrices_keep_their_messages(matrix, message):
    doc = golden("Q-d3")
    factors(doc, "linear")[-1]["matrix"] = matrix
    assert rebuild_problems(doc) == [f"document rebuild failed: {message}"]


@pytest.mark.parametrize("notes", ["hello", {"a": 1}], ids=["string", "object"])
@pytest.mark.parametrize("name", ["d2-n3", "Q-d3"])
def test_notes_must_be_an_array(tmp_path, capsys, name, notes):
    doc = golden(name)
    doc["notes"] = notes
    assert rebuild_problems(doc) == ["document rebuild failed: notes is not an array"]
    out = tmp_path / "doc.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err == "verification failed: document rebuild failed: notes is not an array\n"


def test_a_document_without_notes_still_verifies():
    doc = golden("d2-n3")
    del doc["notes"]
    assert verify_document(copy.deepcopy(doc)).ok


@pytest.mark.parametrize("name", sorted(POLY_CORPUS) + sorted(LIE_CORPUS))
def test_documents_are_compact_and_indented_ones_still_verify(name):
    doc = golden(name)
    text = document.dumps(doc)
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert ", " not in text and '": ' not in text
    indented = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert document.loads(indented) == document.loads(text)
    assert verify_document(document.loads(indented)).ok
