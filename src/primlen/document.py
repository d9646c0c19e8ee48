"""The JSON decomposition document: serialization, loading, re-verification.

Documents are audit artifacts: they carry the input, every summand with its
certificate chain, the bound, and op-count statistics, all with exact
textual scalars, so an independent checker can replay everything.  Keys are
emitted in sorted order for reproducible output.
"""

from __future__ import annotations

import json

from .errors import ParseError, PrimlenError
from .field import field_from_flag, parse_scalar
from .linalg import DenseMatrix
from .liedecomp import (
    InnerLieAuto,
    LieCertificate,
    LieDecomposition,
    LinearLieAuto,
    TriangularLieAuto,
    lie_bound,
    verify_lie,
)
from .parsing import lie_to_str, parse_lie, parse_poly, poly_to_str, scalar_to_str
from .polyauto import AffineAuto, PolyCertificate, TriangularAuto
from .polydecomp import FINITE, INFINITE, PolyDecomposition, VerifyResult, poly_bound, verify

VERSION = "primlen/1"

POLY = "polynomial"
LIE = "metabelian-lie"


def _matrix_to_json(matrix):
    return [[scalar_to_str(matrix.get(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]


def _matrix_from_json(rows, field):
    if not rows:
        raise PrimlenError("empty matrix")
    parsed = [[parse_scalar(field, e) for e in row] for row in rows]
    return DenseMatrix.from_rows(field, parsed)


def _poly_factor_to_json(auto):
    if isinstance(auto, AffineAuto):
        return {
            "kind": "affine",
            "matrix": _matrix_to_json(auto.matrix),
            "offset": [scalar_to_str(b) for b in auto.offset],
        }
    return {
        "kind": "triangular",
        "gammas": [scalar_to_str(g) for g in auto.gammas],
        "tails": [poly_to_str(t) for t in auto.tails],
    }


def _poly_factor_from_json(record, arity, field):
    kind = record["kind"]
    if kind == "affine":
        matrix = _matrix_from_json(record["matrix"], field)
        offset = [parse_scalar(field, b) for b in record["offset"]]
        return AffineAuto(matrix, offset, check=False)
    if kind == "triangular":
        gammas = [parse_scalar(field, g) for g in record["gammas"]]
        tails = [parse_poly(t, arity, field) for t in record["tails"]]
        return TriangularAuto(gammas, tails, check=False)
    raise PrimlenError(f"unknown polynomial automorphism kind {kind!r}")


def _lie_factor_to_json(auto):
    if isinstance(auto, LinearLieAuto):
        return {"kind": "linear", "matrix": _matrix_to_json(auto.matrix)}
    if isinstance(auto, TriangularLieAuto):
        return {
            "kind": "triangular",
            "gammas": [scalar_to_str(g) for g in auto.gammas],
            "tails": [lie_to_str(t) for t in auto.tails],
            "ordering": list(auto.ordering),
        }
    return {"kind": "inner", "element": lie_to_str(auto.element)}


def _lie_factor_from_json(record, arity, field):
    kind = record["kind"]
    if kind == "linear":
        return LinearLieAuto(_matrix_from_json(record["matrix"], field), check=False)
    if kind == "triangular":
        gammas = [parse_scalar(field, g) for g in record["gammas"]]
        tails = [parse_lie(t, arity, field) for t in record["tails"]]
        return TriangularLieAuto(gammas, tails, record["ordering"], check=False)
    if kind == "inner":
        return InnerLieAuto(parse_lie(record["element"], arity, field), check=False)
    raise PrimlenError(f"unknown Lie automorphism kind {kind!r}")


def poly_document(dec):
    """Serialize a PolyDecomposition into a JSON-ready dict."""
    field = dec.input.field
    degree = dec.input.total_degree()
    summands = [
        {
            "summand": poly_to_str(summand),
            "generator": cert.generator_index,
            "certificate": [_poly_factor_to_json(a) for a in cert.chain],
        }
        for summand, cert in dec.summands
    ]
    return {
        "version": VERSION,
        "algebra": POLY,
        "field": field.flag(),
        "arity": dec.input.arity,
        "input": poly_to_str(dec.input),
        "status": dec.status,
        "bound": dec.bound,
        "summands": summands,
        "stats": {
            "count": len(dec.summands),
            "degree": degree,
            "ops": dec.ops.as_dict(),
        },
        "notes": list(dec.notes),
    }


def lie_document(dec):
    field = dec.input.field
    summands = [
        {
            "summand": lie_to_str(summand),
            "generator": cert.generator_index,
            "certificate": [_lie_factor_to_json(a) for a in cert.chain],
        }
        for summand, cert in dec.summands
    ]
    return {
        "version": VERSION,
        "algebra": LIE,
        "field": field.flag(),
        "arity": dec.input.arity,
        "input": lie_to_str(dec.input),
        "status": FINITE,
        "bound": dec.bound,
        "summands": summands,
        "stats": {
            "count": len(dec.summands),
            "degree": dec.input.degree(),
            "ops": {"multiplications": 0, "divisions": 0, "additions": 0},
        },
        "notes": list(dec.notes),
    }


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text):
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("version") != VERSION:
        raise PrimlenError(f"not a {VERSION} document")
    if doc.get("algebra") not in (POLY, LIE):
        raise PrimlenError(f"unknown algebra {doc.get('algebra')!r}")
    return doc


def _json_int(value, name):
    if type(value) is not int:
        raise PrimlenError(f"{name} {value!r} is not an integer")
    return value


def rebuild_poly(doc):
    field = field_from_flag(doc["field"])
    arity = _json_int(doc["arity"], "arity")
    input_poly = parse_poly(doc["input"], arity, field)
    summands = []
    for record in doc["summands"]:
        summand = parse_poly(record["summand"], arity, field)
        chain = [_poly_factor_from_json(r, arity, field) for r in record["certificate"]]
        summands.append((summand, PolyCertificate(chain, _json_int(record["generator"], "generator"))))
    notes = list(doc.get("notes", []))
    return PolyDecomposition(input_poly, doc["status"], summands, poly_bound(input_poly), notes)


def rebuild_lie(doc):
    field = field_from_flag(doc["field"])
    arity = _json_int(doc["arity"], "arity")
    input_elem = parse_lie(doc["input"], arity, field)
    summands = []
    for record in doc["summands"]:
        summand = parse_lie(record["summand"], arity, field)
        chain = [_lie_factor_from_json(r, arity, field) for r in record["certificate"]]
        summands.append((summand, LieCertificate(chain, _json_int(record["generator"], "generator"))))
    bound = lie_bound(arity, field)
    return LieDecomposition(input_elem, summands, bound, list(doc.get("notes", [])))


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
        f"{name} {claimed!r} differs from the recomputed {actual!r}"
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

    The rebuild recomputes the bound from the input; the document's bound and
    its stats count and degree must match the recomputed values.
    """
    try:
        dec, problems = _rebuild(doc)
        if doc["algebra"] != POLY:
            if doc["status"] != FINITE:
                problems.append(f"status {doc['status']!r} claimed for a Lie element")
            problems += verify_lie(dec).problems
        elif dec.status == INFINITE:
            if dec.summands:
                problems.append("infinite status with a nonempty summand list")
            if dec.input.arity != 1 or (dec.input.total_degree() or 0) <= 1:
                problems.append("infinite status claimed for a decomposable input")
        else:
            problems += verify(dec).problems
        return VerifyResult(not problems, problems)
    except (ParseError, PrimlenError, KeyError, ValueError) as exc:
        return VerifyResult(False, [f"document rebuild failed: {exc}"])
