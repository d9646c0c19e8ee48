"""The JSON decomposition document: serialization, loading, re-verification.

Documents are audit artifacts: they carry the input, every summand with its
certificate chain, the bound, and the summand count and input degree, all
with exact textual scalars, so an independent checker can replay and
recompute everything.  Keys are emitted in sorted order for reproducible
output, without indentation or spaces after separators, so the C encoder
of the json module writes them; indented documents (written before the
compact form) are the same JSON value and load and verify alike.
Documents written before ``stats.ops`` was dropped still load and verify:
the verifier ignores that field.
"""

from __future__ import annotations

import json
from functools import partial

from .errors import ParseError, PrimlenError, UnsupportedInputError
from .field import field_from_flag, int_to_str, parse_scalar
from .linalg import DenseMatrix
from .liedecomp import InnerLieAuto, lie_bound, verify_lie
from .parsing import lie_pairs, lie_to_str, parse_lie, parse_poly, poly_pairs, poly_to_str
from .polyauto import AffineAuto, Certificate, TriangularAuto
from .polydecomp import Decomposition, VerifyResult, poly_bound, verify
from .sparse import MAX_ARITY

VERSION = "primlen/1"

POLY = "polynomial"
LIE = "metabelian-lie"


def _matrix_from_json(rows, texts):
    """The DenseMatrix of a JSON matrix, its entries read through ``texts`` in one pass."""
    if not _json_list(rows, "matrix"):
        raise PrimlenError("empty matrix")
    scalar = texts.scalar
    entries = []
    for row in rows:
        entries += map(scalar, _json_list(row, "matrix row"))
    cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    return DenseMatrix(len(rows), cols, texts.field, entries)


def _factor_to_json(auto, lie, to_str):
    """The JSON record of one factor, its elements printed with ``to_str``.

    A Lie document spells an affine factor as "linear", without the offset
    (it is zero), and gives every triangular factor its ordering; the
    triangular factors of polynomial certificates keep the ordering 1..d.
    """
    if isinstance(auto, AffineAuto):
        rows = [list(map(str, auto.matrix.row(i))) for i in range(auto.arity)]
        record = {"kind": "linear" if lie else "affine", "matrix": rows}
        if not lie:
            record["offset"] = list(map(str, auto.offset))
        return record
    if isinstance(auto, TriangularAuto):
        record = {
            "kind": "triangular",
            "gammas": list(map(str, auto.gammas)),
            "tails": [to_str(t) for t in auto.tails],
        }
        if lie:
            record["ordering"] = list(auto.ordering)
        return record
    return {"kind": "inner", "element": to_str(auto.element)}


def _factor_from_json(record, texts):
    lie = texts.lie
    kind = record["kind"]
    if kind == ("linear" if lie else "affine"):
        matrix = _matrix_from_json(record["matrix"], texts)
        offset = None if lie else list(map(texts.scalar, _json_list(record["offset"], "offset")))
        return AffineAuto(matrix, offset)
    if kind == "triangular":
        gammas = list(map(texts.scalar, _json_list(record["gammas"], "gammas")))
        tails = list(map(texts.element, _json_list(record["tails"], "tails")))
        ordering = None
        if lie:
            ordering = [_json_int(i, "ordering entry") for i in _json_list(record["ordering"], "ordering")]
        return TriangularAuto(gammas, tails, ordering)
    if lie and kind == "inner":
        return InnerLieAuto(texts.element(record["element"]))
    raise PrimlenError(f"unknown {'Lie' if lie else 'polynomial'} automorphism kind {kind!r}")


def _json_degree(degree):
    """The degree for ``stats.degree``; UnsupportedInputError when JSON cannot write it.

    ``json`` writes and reads an int through str() and int(), which refuse
    more digits than the interpreter's limit (4,300 by default), so a
    one-variable input such as x1^(10^5000) has no document.
    """
    try:
        str(degree)
    except ValueError:
        raise UnsupportedInputError(
            f"a degree of {len(int_to_str(degree))} digits is too long for a JSON number"
        ) from None
    return degree


def _document(dec, algebra, degree, to_str):
    """The JSON-ready dict of a decomposition of either algebra.

    Every element is printed with ``to_str`` through one table of key
    texts for the document.
    """
    lie = algebra == LIE
    to_str = partial(to_str, table={})
    summands = [
        {
            "summand": to_str(summand),
            "generator": cert.generator_index,
            "certificate": [_factor_to_json(a, lie, to_str) for a in cert.chain],
        }
        for summand, cert in dec.summands
    ]
    return {
        "version": VERSION,
        "algebra": algebra,
        "field": dec.input.field.flag(),
        "arity": dec.input.arity,
        "input": to_str(dec.input),
        "status": dec.status,
        "bound": dec.bound,
        "summands": summands,
        "stats": {"count": len(dec.summands), "degree": _json_degree(degree)},
        "notes": list(dec.notes),
    }


def poly_document(dec):
    """Serialize a polynomial Decomposition into a JSON-ready dict."""
    return _document(dec, POLY, dec.input.total_degree(), poly_to_str)


def lie_document(dec):
    """Serialize a Lie Decomposition into a JSON-ready dict."""
    return _document(dec, LIE, dec.input.degree(), lie_to_str)


def dumps(doc):
    """The document as compact JSON text with sorted keys and a trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _check_header(doc):
    """PrimlenError unless doc is a JSON object of this ``VERSION`` with a known algebra."""
    if not isinstance(doc, dict) or doc.get("version") != VERSION:
        raise PrimlenError(f"not a {VERSION} document")
    if doc.get("algebra") not in (POLY, LIE):
        raise PrimlenError(f"unknown algebra {doc.get('algebra')!r}")


def loads(text):
    try:
        doc = json.loads(text)
    except RecursionError:
        raise PrimlenError("the document is nested too deeply") from None
    _check_header(doc)
    return doc


def _json_int(value, name):
    if type(value) is not int:
        raise PrimlenError(f"{name} {value!r} is not an integer")
    return value


def _json_list(value, name):
    if type(value) is not list:
        raise PrimlenError(f"{name} is not an array")
    return value


def _each_once(parse):
    """parse(text), kept by text, so each distinct string is parsed once.

    Only successes are kept, and a value that is not a string goes to
    parse as it is, which refuses it as it would anywhere.
    """
    values = {}

    def read(text):
        if type(text) is not str:
            return parse(text)
        value = values.get(text)
        if value is None:
            value = values[text] = parse(text)
        return value

    return read


class _Texts:
    """The texts of one document, each distinct string parsed once (``_each_once``).

    A document that repeats a matrix entry, a gamma or a tail pays for one
    parse; scalars and elements are immutable, so the copies can share one
    value.  ``summand`` reads a summand text with the loop that reads
    elements into the {key: (num, den)} map the verifier compares
    (``poly_pairs``, ``lie_pairs``), so no scalar is built for its terms.
    The element and summand texts share one table of monomial or word
    texts, so each distinct key text of the document becomes a key once.
    """

    __slots__ = ("field", "lie", "scalar", "element", "summand")

    def __init__(self, field, arity, lie):
        self.field = field
        self.lie = lie
        table = {}
        element, pairs = (parse_lie, lie_pairs) if lie else (parse_poly, poly_pairs)
        self.scalar = _each_once(partial(parse_scalar, field))
        self.element = _each_once(partial(element, arity=arity, field=field, table=table))
        self.summand = _each_once(partial(pairs, arity=arity, field=field, table=table))


def _affine_key(record, lie):
    """The matrix and offset texts of an affine (Lie: linear) record as nested tuples, else None.

    Rows and offset must be JSON arrays, so a string cannot spell the same
    key as an array of its characters.  A record is read only when all its
    entries are strings, and a string equals no other JSON value, so two
    records that read to a factor have equal keys exactly when their
    entries are equal.
    """
    if type(record) is not dict or record.get("kind") != ("linear" if lie else "affine"):
        return None
    rows, offset = record.get("matrix"), record.get("offset")
    if type(rows) is not list or any(type(row) is not list for row in rows):
        return None
    if lie:
        return tuple(map(tuple, rows))
    return (tuple(map(tuple, rows)), tuple(offset)) if type(offset) is list else None


def _rebuild_parts(doc, lie):
    """The input and the (summand, Certificate) pairs of a document.

    Reads the field, the arity, the input and then the summands, in that
    order.  The arity must be an integer in 1..MAX_ARITY.  Every scalar
    and element text goes through one ``_Texts`` for the document, and a
    summand is the {key: (num, den)} map of its text (``_Texts.summand``).
    Copies of one affine or linear record share one factor object
    (``_affine_key``), which the verifier reads to ints and validates once;
    a record without such a key, or with an entry that is not hashable, is
    read on its own.
    """
    field = field_from_flag(doc["field"])
    arity = _json_int(doc["arity"], "arity")
    if not 1 <= arity <= MAX_ARITY:
        raise PrimlenError(f"arity {arity} is out of range")
    texts = _Texts(field, arity, lie)
    affine = {}

    def factor(record):
        key = _affine_key(record, lie)
        try:
            auto = affine.get(key)
        except TypeError:  # an entry that is not hashable
            return _factor_from_json(record, texts)
        if auto is None:
            auto = _factor_from_json(record, texts)
            if key is not None:
                affine[key] = auto
        return auto

    input_element = texts.element(doc["input"])
    summands = []
    for record in _json_list(doc["summands"], "summands"):
        summand = texts.summand(record["summand"])
        records = _json_list(record["certificate"], "certificate")
        chain = [factor(r) for r in records]
        summands.append((summand, Certificate(chain, _json_int(record["generator"], "generator"))))
    return input_element, summands


def rebuild_poly(doc):
    input_poly, summands = _rebuild_parts(doc, False)
    notes = list(_json_list(doc.get("notes", []), "notes"))
    return Decomposition(input_poly, summands, poly_bound(input_poly), doc["status"], notes)


def rebuild_lie(doc):
    input_elem, summands = _rebuild_parts(doc, True)
    bound = lie_bound(input_elem.arity, input_elem.field)
    notes = list(_json_list(doc.get("notes", []), "notes"))
    return Decomposition(input_elem, summands, bound, doc["status"], notes)


def _claim_text(value):
    """An int in decimal at any size (``repr`` refuses past 4,300 digits), anything else by repr."""
    return int_to_str(value) if type(value) is int else repr(value)


def _claim_problems(doc, dec, degree):
    """Mismatches between the document's bound and stats and the values recomputed from dec."""
    stats = doc["stats"]
    if not isinstance(stats, dict):
        raise PrimlenError("stats is not an object")
    claims = (
        ("bound", doc["bound"], dec.bound),
        ("stats.count", stats["count"], dec.count),
        ("stats.degree", stats["degree"], degree),
    )
    return [
        f"{name} {_claim_text(claimed)} differs from the recomputed {_claim_text(actual)}"
        for name, claimed, actual in claims
        if type(claimed) is not type(actual) or claimed != actual
    ]


def _rebuild(doc):
    """The rebuilt decomposition and the mismatches of its claims.

    A document field of the wrong JSON type (a TypeError while rebuilding)
    is reported as a PrimlenError.
    """
    try:
        if doc["algebra"] == POLY:
            dec = rebuild_poly(doc)
            return dec, _claim_problems(doc, dec, dec.input.total_degree())
        dec = rebuild_lie(doc)
        return dec, _claim_problems(doc, dec, dec.input.degree())
    except TypeError as exc:
        raise PrimlenError(f"a field has the wrong JSON type ({exc})") from exc


def verify_document(doc):
    """Re-verify a loaded document; parse failures count as verification failures.

    The header is checked as ``loads`` checks it, so a document that did
    not come through ``loads`` is held to the same version and algebra.
    The rebuild recomputes the bound from the input; the document's bound and
    its stats count and degree must match the recomputed values.
    """
    try:
        _check_header(doc)
        dec, problems = _rebuild(doc)
        problems += (verify if doc["algebra"] == POLY else verify_lie)(dec).problems
        return VerifyResult(not problems, problems)
    except (ParseError, PrimlenError, KeyError, ValueError) as exc:
        return VerifyResult(False, [f"document rebuild failed: {exc}"])
