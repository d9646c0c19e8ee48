"""The benchmark's layer tracer names functions in primlen by attribute.

perfbench/tracing.py lists them in TARGETS and wraps each one under every
name a primlen module binds it to; its FieldCounter counts the FieldScalar
methods named in SCALAR_OPS, looked up in the class's own namespace.  A
refactor that renames or deletes one of them, or binds two names to one
function (which would be wrapped twice), breaks the traced benchmark pass;
these tests read both lists from the file, without importing or changing
it, and check them against the package.
"""

import ast
import importlib
from pathlib import Path

from primlen.field import FieldScalar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literal(name):
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACING}")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_trace_target_is_a_callable_in_the_package():
    targets = _literal("TARGETS")
    assert targets
    for module_name, path, _ in targets:
        assert module_name.startswith("primlen.")
        assert callable(_resolve(module_name, path)), (module_name, path)


def test_no_two_trace_targets_are_the_same_function():
    resolved = {}
    for module_name, path, _ in _literal("TARGETS"):
        obj = _resolve(module_name, path)
        clash = [name for name, other in resolved.items() if other is obj]
        assert not clash, f"{module_name}.{path} is the same object as {clash[0]}"
        resolved[f"{module_name}.{path}"] = obj


def test_every_counted_scalar_op_is_a_fieldscalar_method():
    ops = _literal("SCALAR_OPS")
    assert ops
    for name in ops:
        assert name in vars(FieldScalar), name
