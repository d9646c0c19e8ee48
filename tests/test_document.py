"""The document reader: each distinct text is parsed once, and every failure keeps its message."""

import copy
import json
import random
import re
from collections import Counter
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primlen import document
from primlen.cli import main
from primlen.document import lie_document, poly_document, verify_document
from primlen.errors import PrimlenError
from primlen.field import FieldDescriptor, FieldScalar, field_from_flag
from primlen.liedecomp import decompose_lie, verify_lie
from primlen.parsing import parse_lie, parse_poly
from primlen.polyauto import AffineAuto, certify_apply
from primlen.polydecomp import decompose

from conftest import rand_lie, rand_poly
from test_golden import LIE_CORPUS, LONG_CHAINS, POLY_CORPUS


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

    # parse_scalar(field, text); parse_poly, parse_lie, poly_pairs and lie_pairs(text, arity, field)
    readers = ("parse_scalar", 1), ("parse_poly", 0), ("parse_lie", 0), ("poly_pairs", 0), ("lie_pairs", 0)
    for reader, position in readers:
        monkeypatch.setattr(document, reader, counting(reader, position))
    assert verify_document(doc).ok
    texts = Counter(strings(doc))
    assert max(texts.values()) > 1  # the document repeats texts, or the check shows nothing
    # "0" may be read once as a scalar and once as an element, and a text
    # once as an element and once as a summand
    assert seen and max(seen.values()) == 1
    assert {text for _, text in seen} <= set(texts)
    # every summand text is read to (num, den) pairs, and only that way
    # unless it is also the input or a tail
    pairs_reader = "lie_pairs" if name in LIE_CORPUS else "poly_pairs"
    summands = {s["summand"] for s in doc["summands"]}
    assert summands == {text for reader, text in seen if reader == pairs_reader}
    elements = set(strings([doc["input"], [s["certificate"] for s in doc["summands"]]]))
    assert all(text in elements for reader, text in seen if reader in ("parse_poly", "parse_lie"))


def respelled(text, extra):
    """text with every term t spelled "t + |t| - |t|" (so each key repeats), then ``extra``."""
    out = []
    for term in re.split(r" (?=[-+] )", text):
        body = term.lstrip("-+ ")
        out.append(f"{term} + {body} - {body}")
    return " ".join(out) + extra


@pytest.mark.parametrize("name, extra", [("d3-n4", " + x1 - x1"), ("F101-d5", " + [x1,x2] + [x2,x1]")])
def test_verify_builds_no_scalar_for_summands(monkeypatch, name, extra):
    # The summand terms, the replays and the re-sum stay on ints: no scalar
    # is built from a replay (from_raw), and spelling every summand three
    # times as long, with repeated keys and a word that is not normal,
    # builds no more scalars than the canonical document does.
    def refuse(*args, **kwargs):
        raise AssertionError("the verifier built scalars from ints")

    built = 0
    init = FieldScalar.__init__

    def counted(self, field, value):
        nonlocal built
        built += 1
        init(self, field, value)

    doc = golden(name)
    long = copy.deepcopy(doc)
    for record in long["summands"]:
        record["summand"] = respelled(record["summand"], extra)
    monkeypatch.setattr(FieldDescriptor, "from_raw", refuse)
    monkeypatch.setattr(FieldScalar, "__init__", counted)
    counts = []
    for d in (doc, long):
        built = 0
        assert verify_document(d).ok
        counts.append(built)
    assert sum(len(s["summand"]) for s in long["summands"]) > 3 * sum(len(s["summand"]) for s in doc["summands"])
    assert counts[0] == counts[1]


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


@pytest.mark.parametrize("entry", [True, 1.0], ids=["true", "float"])
def test_an_ordering_entry_that_is_not_an_int_is_refused(entry):
    # True == 1 and 1.0 == 1, so a permutation check alone would take either for the 1
    doc = golden("Q-d3")
    orderings = [f["ordering"] for f in factors(doc, "triangular")]
    assert any(1 in ordering for ordering in orderings)
    for ordering in orderings:
        ordering[:] = [entry if i == 1 else i for i in ordering]
    assert rebuild_problems(doc) == [f"document rebuild failed: ordering entry {entry!r} is not an integer"]


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


def long_chain(name):
    """The JSON value of the document of a ``LONG_CHAINS`` input, whose chains share rho^-1."""
    arity, flag, expr = LONG_CHAINS[name]
    return json.loads(json.dumps(lie_document(decompose_lie(parse_lie(expr, arity, field_from_flag(flag))))))


def holders(doc):
    """The 1-based positions of the summands whose chain ends in a linear factor."""
    return [i for i, record in enumerate(doc["summands"], start=1) if record["certificate"][-1]["kind"] == "linear"]


@pytest.mark.parametrize("name", sorted(LONG_CHAINS))
def test_copies_of_one_affine_record_share_one_factor_validated_once(monkeypatch, name):
    # a polynomial basis change B_k differs from node to node, and the Lie
    # goldens merge down to at most one copy of rho^-1; the LONG_CHAINS
    # inputs keep copies of it
    doc = long_chain(name)
    distinct = {json.dumps(f, sort_keys=True) for f in factors(doc, "linear")}
    assert len(factors(doc, "linear")) > len(distinct)  # the check shows nothing without copies
    validated = Counter()
    validate = AffineAuto.validate

    def counted(self):
        validated[id(self)] += 1
        return validate(self)

    monkeypatch.setattr(AffineAuto, "validate", counted)
    dec = document.rebuild_lie(doc)
    shared = {id(a) for _, cert in dec.summands for a in cert.chain if isinstance(a, AffineAuto)}
    assert len(shared) == len(distinct)
    assert verify_lie(dec).ok
    assert set(validated) == shared and set(validated.values()) == {1}


def test_a_bad_shared_factor_is_reported_by_each_summand_that_holds_it():
    singular = [["0"] * 3 for _ in range(3)]
    doc = long_chain("Q-d3")
    held = holders(doc)
    assert len(held) > 1
    for i in held:
        doc["summands"][i - 1]["certificate"][-1]["matrix"] = copy.deepcopy(singular)
    message = "invalid elementary factor (factor 3: matrix is singular)"
    assert rebuild_problems(doc) == [f"summand {i}: {message}" for i in held]
    doc = long_chain("Q-d3")
    doc["summands"][held[1] - 1]["certificate"][-1]["matrix"] = singular
    assert rebuild_problems(doc) == [f"summand {held[1]}: {message}"]


def test_a_matrix_of_string_rows_is_not_taken_for_its_array_copy():
    # rho^-1 of the F101-d5 long chains has one-character entries, so the
    # string "10003" and the row ["1", "0", "0", "0", "3"] have equal tuples.
    doc = long_chain("F101-d5")
    first, *_, last = holders(doc)
    record = doc["summands"][last - 1]["certificate"][-1]
    assert record == doc["summands"][first - 1]["certificate"][-1]
    assert all(len(entry) == 1 for row in record["matrix"] for entry in row)
    record["matrix"] = ["".join(row) for row in record["matrix"]]
    assert rebuild_problems(doc) == ["document rebuild failed: matrix row is not an array"]


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


@pytest.mark.parametrize("name", ["Q-d3", "F2-d4", "d5-n3-linear-part"])
@pytest.mark.parametrize(
    "key, value",
    [("version", "primlen/9"), ("version", None), ("algebra", "lie"), ("algebra", None), ("algebra", [document.LIE])],
)
def test_verify_document_checks_the_header_as_loads_does(name, key, value):
    doc = golden(name)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(PrimlenError) as info:
        document.loads(json.dumps(doc))
    assert rebuild_problems(doc) == [f"document rebuild failed: {info.value}"]
    assert rebuild_problems([golden(name)]) == [f"document rebuild failed: not a {document.VERSION} document"]


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


# -- the int check against the element reference --------------------------------

_BODY = re.compile(r"(?:([0-9]+)(?:/([0-9]+))?(?:\*|$))?(.*)")


def _split(text):
    """A printed text as [negative, num, den, key] terms; key is "" for a constant."""
    terms = []
    for term in re.split(r" (?=[-+] )", text):
        negative = term.startswith("-")
        num, den, key = _BODY.fullmatch(term.lstrip("-+ ")).groups()
        terms.append([negative, int(num or 1), int(den or 1), key])
    return terms


def _join(terms):
    out = []
    for negative, num, den, key in terms:
        coeff = f"{num}/{den}" if den != 1 else str(num)
        body = key if coeff == "1" and key else coeff if not key else f"{coeff}*{key}"
        out.append(("- " if out else "-") + body if negative else ("+ " if out else "") + body)
    return " ".join(out)


def _edit(text, kind, a, b, k, flag, p):
    """text respelled (the same value) or tampered, by kind."""
    terms = _split(text)
    t = terms[a % len(terms)]
    if kind == "unreduced":
        t[1], t[2] = t[1] * k, t[2] * k
    elif kind == "repeat":
        terms[a % len(terms) + 1 : a % len(terms) + 1] = [[False] + t[1:], [True] + t[1:]]
    elif kind == "cancel":
        return text + " + x1 - x1"
    elif kind == "zero":
        terms.append([flag, 0 if p is None else p * (k - 1), 1, t[3] or "x1"])
    elif kind == "digit":
        digits = [i for i, c in enumerate(text) if c.isdigit()]
        i = digits[b % len(digits)]
        return text[:i] + str((int(text[i]) + k) % 10) + text[i + 1 :]
    elif kind == "swap" and t[3].startswith("["):  # [xa,xb,...] -> [xb,xa,...], which is -[xa,xb,...]
        first, second, *rest = t[3][1:-1].split(",")
        t[3] = "[" + ",".join([second, first, *rest]) + "]"
        t[0] ^= flag  # with the sign fixed, the same value
    elif kind == "tail" and t[3].count(",") >= 2:  # the ad-operators after the first bracket commute
        first, second, *rest = t[3][1:-1].split(",")
        t[3] = "[" + ",".join([first, second, *rest[::-1]]) + "]"
    return _join(terms)


def _reference_problems(dec, doc, parse):
    """The problems the element route finds: parse, certify_apply ==, and the sequential sum."""
    f = dec.input
    try:
        summands = [parse(record["summand"], f.arity, f.field) for record in doc["summands"]]
    except PrimlenError as exc:
        return [f"document rebuild failed: {exc}"]
    problems = [
        f"summand {i}: certificate replay mismatch"
        for i, (summand, (_, cert)) in enumerate(zip(summands, dec.summands), start=1)
        if certify_apply(cert, f) != summand
    ]
    if reduce(add, summands, f.zero(f.arity, f.field)) != f:
        problems.append("sum mismatch: summands do not add up to the input")
    return problems


_EDITS = st.tuples(
    st.sampled_from(["unreduced", "repeat", "cancel", "zero", "digit", "swap", "tail"]),
    st.integers(0, 99),
    st.integers(0, 999),
    st.integers(1, 5),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("poly", "Q"), ("lie", "Q"), ("lie", "F2"), ("lie", "F101")]),
    st.integers(0, 2**32),
    st.lists(st.tuples(st.integers(0, 99), _EDITS), min_size=1, max_size=4),
)
def test_the_int_check_agrees_with_the_element_reference(algebra_field, seed, edits):
    algebra, flag = algebra_field
    field = field_from_flag(flag)
    rng = random.Random(seed)
    if algebra == "poly":
        d = rng.randint(2, 3)
        dec = decompose(rand_poly(rng, d, rng.randint(2, 3), coeff_bound=6, extra_terms=4))
        doc, parse = poly_document(dec), parse_poly
    else:
        d = rng.randint(3, 4)
        dec = decompose_lie(rand_lie(rng, d, 4, field, terms=4))
        doc, parse = lie_document(dec), parse_lie
    doc = json.loads(json.dumps(doc))
    if not doc["summands"]:
        return
    for index, edit in edits:
        record = doc["summands"][index % len(doc["summands"])]
        record["summand"] = _edit(record["summand"], *edit, field.p)
    assert verify_document(doc).problems == _reference_problems(dec, doc, parse)
