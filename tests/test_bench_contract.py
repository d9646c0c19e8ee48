"""The calls the benchmark makes into primlen still work.

perfbench/run.py runs every instance through ``run_instance`` and checks its
output with ``check``; both reach primlen through module attributes
(``parsing.parse_poly``, ``polydecomp.decompose``, ``document.verify_document``
and the rest).  These tests import the harness and its generator without
writing to their directory, and run the first instances of each workload
through those two functions, so a refactor that breaks one of those calls
fails here rather than in a benchmark run.  They also run one traced pass
(``--trace 1``) of each workload, which wraps primlen's functions by name,
and check that it fails nothing and reports every per-layer metric.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("poly-small", "poly-large", "lie-mixed")


@pytest.fixture(scope="module")
def harness():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        run = importlib.import_module("run")
        yield run, importlib.import_module("gen"), run.load_program()
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_first_instances_of_each_workload_pass_the_harness_check(harness, workload):
    run, gen, pl = harness
    for inst in gen.instances(workload, 1)[:3]:
        rec = run.run_instance(pl, inst)
        assert run.check(pl, inst, rec) == [], inst["id"]
        assert rec["ok"] and rec["count"] <= run.own_bound(inst)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_pass_of_each_workload_reports_every_per_layer_metric(harness, workload):
    run, gen, pl = harness
    record = run.measure(pl, gen.instances(workload, 1)[:3], 0, True)
    assert record["failed"] == 0, record["failures"]
    assert set(run.PER_LAYER) <= set(record["metrics"])


def test_the_lie_mixed_instances_of_seed_43_merge_to_at_most_1750_summands(harness):
    # the merge of pairs whose sum is gamma x_j + v writes 1,706 here, 3,019 without it
    _, gen, pl = harness
    total = 0
    for inst in gen.instances("lie-mixed", 43):
        u = pl.parsing.parse_lie(inst["expr"], inst["arity"], pl.field.field_from_flag(inst["field"]))
        total += pl.liedecomp.decompose_lie(u).count
    assert total <= 1750
