"""Outside-in layer tracing for the benchmark.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
each public function in ``TARGETS`` with a timing wrapper under every name a
``primlen`` module binds it to (``primlen.polydecomp.solve_square`` as well
as ``primlen.linalg.solve_square``), and ``uninstall`` puts the originals
back.  Wrappers exist only while a traced pass runs; the untraced pass calls
the program's own functions.

Each wrapped call is a span: name, start, end, parent span and instance id,
kept in flat arrays and written out once the run ends.  Self time is a
span's duration minus the durations of its child spans, accumulated per
name as the spans close.

``FieldCounter`` counts scalar arithmetic in a separate pass, because a
wrapper on every scalar operation would dominate the spans it sits inside.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (defining module, attribute, span name).  Methods are given as
# "Class.method"; every class attribute bound to the same function is
# wrapped (Polynomial.__rmul__ is Polynomial.__mul__).
TARGETS = [
    ("primlen.linalg", "solve_square", "linalg.solve_square"),
    ("primlen.linalg", "matrix_inverse", "linalg.matrix_inverse"),
    ("primlen.linalg", "bareiss_determinant", "linalg.bareiss_determinant"),
    ("primlen.multipoly", "Polynomial.__mul__", "multipoly.mul"),
    ("primlen.multipoly", "Polynomial.substitute", "multipoly.substitute"),
    ("primlen.polyauto", "certify_apply", "polyauto.certify_apply"),
    ("primlen.polyauto", "validate_certificate", "polyauto.validate_certificate"),
    ("primlen.polydecomp", "decompose", "polydecomp.decompose"),
    ("primlen.polydecomp", "solve_degree", "polydecomp.solve_degree"),
    ("primlen.polydecomp", "verify", "polydecomp.verify"),
    ("primlen.metalie", "bracket", "metalie.bracket"),
    ("primlen.metalie", "apply_endo", "metalie.apply_endo"),
    ("primlen.liedecomp", "decompose_lie", "liedecomp.decompose_lie"),
    ("primlen.liedecomp", "verify_lie", "liedecomp.verify_lie"),
    ("primlen.parsing", "parse_poly", "parsing.parse_poly"),
    ("primlen.parsing", "poly_to_str", "parsing.poly_to_str"),
    ("primlen.parsing", "parse_lie", "parsing.parse_lie"),
    ("primlen.parsing", "lie_to_str", "parsing.lie_to_str"),
    ("primlen.document", "poly_document", "document.build"),
    ("primlen.document", "lie_document", "document.build"),
    ("primlen.document", "dumps", "document.dumps"),
    ("primlen.document", "loads", "document.loads"),
    ("primlen.document", "rebuild_poly", "document.rebuild"),
    ("primlen.document", "rebuild_lie", "document.rebuild"),
    ("primlen.document", "verify_document", "document.verify_document"),
]

# FieldScalar methods counted as one scalar operation per call.
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)


def _resolve(owner, path):
    """(object holding the last attribute, attribute name) for "A.b" paths."""
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(original):
    """Every (namespace object, attribute) in loaded primlen modules bound to ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "primlen" or mod_name.startswith("primlen.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        found.append((value, cattr))
    return found


def _scalar_bits(value):
    """Bit length of the larger of numerator and denominator of a FieldScalar."""
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def decomposition_bits(dec):
    """Largest coefficient bit length among a decomposition's summands and certificates."""
    best = 0

    def scan(obj):
        nonlocal best
        if hasattr(obj, "terms"):  # Polynomial or LieElement
            for c in obj.terms.values():
                best = max(best, _scalar_bits(c))
        elif hasattr(obj, "numerator"):  # FieldScalar
            best = max(best, _scalar_bits(obj))
        elif hasattr(obj, "entries"):  # DenseMatrix
            for c in obj.entries:
                best = max(best, _scalar_bits(c))

    for summand, cert in dec.summands:
        scan(summand)
        for auto in cert.chain:
            for slot in auto.__slots__:
                value = getattr(auto, slot)
                for item in value if isinstance(value, (list, tuple)) else (value,):
                    scan(item)
    return best


class Tracer:
    """Spans and per-layer counters for one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.instance = -1
        self._stack = []  # [span index, child time]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._restore = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(perf_counter())

    def close(self):
        end = perf_counter()
        index, child_time = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.calls[name] += 1
        self.self_s[name] += duration - child_time
        if self._stack:
            self._stack[-1][1] += duration

    def exclude(self, started):
        """Keep bookkeeping done since ``started`` out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][1] += perf_counter() - started

    def inside(self, name):
        name_id = self._name_ids.get(name)
        return any(self.span_name[index] == name_id for index, _ in self._stack)

    # -- installing wrappers ---------------------------------------------------

    def install(self):
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(sys.modules[module_name], path)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for namespace, bound_attr in _bindings(original):
                self._restore.append((namespace, bound_attr, original))
                setattr(namespace, bound_attr, wrapper)

    def uninstall(self):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    def _wrap(self, fn, name):
        name_id = self.name_id(name)
        after = _AFTER.get(name)
        if name == "linalg.solve_square":
            return self._wrap_solve(fn, name_id)

        def wrapper(*args, **kwargs):
            self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                started = perf_counter()
                after(self, args, result)
                self.exclude(started)
            return result

        return wrapper

    def _wrap_solve(self, fn, name_id):
        from primlen.linalg import OpCounter

        def wrapper(matrix, rhs, counter=None, collect=None):
            if counter is None:
                counter = OpCounter()
            before = (counter.multiplications, counter.divisions, counter.additions)
            self.open(name_id)
            try:
                result = fn(matrix, rhs, counter, collect)
            finally:
                self.close()
            started = perf_counter()
            self.counts["linalg.ops.multiplications"] += counter.multiplications - before[0]
            self.counts["linalg.ops.divisions"] += counter.divisions - before[1]
            self.counts["linalg.ops.additions"] += counter.additions - before[2]
            bits = max(_scalar_bits(x) for x in result)
            self.maxima["linalg.max_coeff_bits"] = max(self.maxima["linalg.max_coeff_bits"], bits)
            self.exclude(started)
            return result

        return wrapper

    # -- output ------------------------------------------------------------------

    def write_spans(self, path):
        """JSON Lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "instance"]}) + "\n")
            for n, s, e, p, i in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_instance
            ):
                handle.write(json.dumps([self.names[n], s, e, p, i]) + "\n")


def _after_bareiss(tracer, args, result):
    ops = result[1]
    tracer.counts["linalg.ops.multiplications"] += ops.multiplications
    tracer.counts["linalg.ops.divisions"] += ops.divisions
    tracer.counts["linalg.ops.additions"] += ops.additions


def _after_parse_poly(tracer, args, result):
    tracer.counts["parsing.parse_poly.chars"] += len(args[0])


def _after_substitute(tracer, args, result):
    tracer.counts["multipoly.substitute.terms_out"] += len(result.terms)


def _after_certify(tracer, args, result):
    if tracer.inside("polydecomp.decompose"):
        tracer.counts["polyauto.certify_apply.calls_decompose"] += 1
    elif tracer.inside("polydecomp.verify"):
        tracer.counts["polyauto.certify_apply.calls_verify"] += 1


def _after_build(tracer, args, result):
    bits = decomposition_bits(args[0])
    tracer.maxima["document.max_coeff_bits"] = max(tracer.maxima["document.max_coeff_bits"], bits)


_AFTER = {
    "linalg.bareiss_determinant": _after_bareiss,
    "parsing.parse_poly": _after_parse_poly,
    "multipoly.substitute": _after_substitute,
    "polyauto.certify_apply": _after_certify,
    "document.build": _after_build,
}


class FieldCounter:
    """Counts FieldScalar arithmetic calls and constructions while installed."""

    def __init__(self):
        self.scalar_ops = 0
        self.scalars_created = 0
        self._restore = []

    def install(self):
        from primlen.field import FieldScalar

        for attr in SCALAR_OPS:
            original = vars(FieldScalar)[attr]
            self._restore.append((attr, original))
            setattr(FieldScalar, attr, self._count_op(original))
        init = vars(FieldScalar)["__init__"]
        self._restore.append(("__init__", init))

        def counted_init(scalar, field, value):
            self.scalars_created += 1
            init(scalar, field, value)

        FieldScalar.__init__ = counted_init

    def _count_op(self, fn):
        def counted(*args):
            self.scalar_ops += 1
            return fn(*args)

        return counted

    def uninstall(self):
        from primlen.field import FieldScalar

        while self._restore:
            attr, original = self._restore.pop()
            setattr(FieldScalar, attr, original)
