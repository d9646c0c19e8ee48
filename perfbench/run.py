"""End-to-end benchmark: parse -> decompose -> document -> dumps -> loads -> verify.

    python3 perfbench/run.py --workload poly-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One process runs one workload as a closed loop with a single caller: an
instance starts only after the previous one has finished.  With
``--trace 0`` it repeats whole passes over the seed's instances until
``--seconds`` have elapsed (at least one pass) and reports the end-to-end
metrics.  With ``--trace 1`` it makes three single passes over the same
instances: untraced, traced (per-layer spans and counters) and a scalar
counting pass, and reports the per-layer metrics.  ``--workload all`` runs
each workload in its own process and prints a summary.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A full
record (environment, every metric, each failed instance) goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
from tracing import FieldCounter, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11

# The end-to-end metrics every --trace 0 run reports, with their units.
END_TO_END = {
    "pipeline_ms.p50": "ms",
    "producer_ms.p50": "ms",
    "verifier_ms.p50": "ms",
    "instances_per_s": "1/s",
    "doc_bytes": "bytes",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The per-layer metrics every --trace 1 run reports, with their units.
PER_LAYER = {
    "linalg.solve_square.calls": "count",
    "linalg.solve_square.self_s": "s",
    "linalg.ops.multiplications": "count",
    "linalg.ops.divisions": "count",
    "linalg.ops.additions": "count",
    "linalg.max_coeff_bits": "bits",
    "linalg.matrix_inverse.calls": "count",
    "linalg.matrix_inverse.self_s": "s",
    "linalg.bareiss_determinant.calls": "count",
    "linalg.bareiss_determinant.self_s": "s",
    "parsing.parse_poly.calls": "count",
    "parsing.parse_poly.self_s": "s",
    "parsing.parse_poly.chars": "chars",
    "parsing.poly_to_str.self_s": "s",
    "parsing.parse_lie.self_s": "s",
    "parsing.lie_to_str.self_s": "s",
    "document.dumps.self_s": "s",
    "document.loads.self_s": "s",
    "document.rebuild.self_s": "s",
    "document.max_coeff_bits": "bits",
    "multipoly.mul.calls": "count",
    "multipoly.mul.self_s": "s",
    "multipoly.substitute.calls": "count",
    "multipoly.substitute.self_s": "s",
    "multipoly.substitute.terms_out": "count",
    "polyauto.certify_apply.calls_decompose": "count",
    "polyauto.certify_apply.calls_verify": "count",
    "polyauto.certify_apply.self_s": "s",
    "polyauto.validate_certificate.self_s": "s",
    "polydecomp.decompose.self_s": "s",
    "polydecomp.solve_degree.calls": "count",
    "polydecomp.solve_degree.self_s": "s",
    "polydecomp.verify.self_s": "s",
    "metalie.bracket.calls": "count",
    "metalie.bracket.self_s": "s",
    "metalie.apply_endo.calls": "count",
    "metalie.apply_endo.self_s": "s",
    "liedecomp.decompose_lie.self_s": "s",
    "liedecomp.verify_lie.self_s": "s",
    "field.scalar_ops": "count",
    "field.scalars_created": "count",
    "trace.overhead_ratio": "ratio",
}


class HarnessError(Exception):
    """The benchmark cannot produce a valid result."""


def load_program():
    """Import primlen from the checkout's ``src/``; the benchmark has no other copy."""
    if not (SRC / "primlen" / "__init__.py").is_file():
        raise HarnessError(f"no primlen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import primlen.document  # noqa: F401  (loads every module the tracer wraps)

    return sys.modules["primlen"]


# -- one instance ----------------------------------------------------------------


def run_instance(pl, inst, tamper=None):
    """Run one instance through the CLI's path; returns a small record.

    Only the pipeline itself is timed.  Every call goes through a module
    attribute looked up at call time, so tracer wrappers, when installed,
    see it.  ``tamper``, used by the self-tests, rewrites the document text
    between producer and verifier.
    """
    doc_mod = pl.document
    stage = "parse"
    start = perf_counter()
    try:
        field = pl.field.field_from_flag(inst["field"])
        if inst["algebra"] == "poly":
            element = pl.parsing.parse_poly(inst["expr"], inst["arity"], field)
            stage = "decompose"
            dec = pl.polydecomp.decompose(element)
            stage = "document"
            doc = doc_mod.poly_document(dec)
        else:
            element = pl.parsing.parse_lie(inst["expr"], inst["arity"], field)
            stage = "decompose"
            dec = pl.liedecomp.decompose_lie(element)
            stage = "document"
            doc = doc_mod.lie_document(dec)
        stage = "dumps"
        text = doc_mod.dumps(doc)
        produced = perf_counter()
        if tamper is not None:
            text = tamper(text)
        verify_start = perf_counter()
        stage = "loads"
        loaded = doc_mod.loads(text)
        stage = "verify"
        result = doc_mod.verify_document(loaded)
        end = perf_counter()
    except Exception as exc:  # an instance failure is data, not a harness crash
        return {
            "id": inst["id"],
            "stage": stage,
            "error": type(exc).__name__,
            "message": str(exc)[:300],
        }
    return {
        "id": inst["id"],
        "producer_s": produced - start,
        "verifier_s": end - verify_start,
        "doc_bytes": len(text),  # json.dumps escapes non-ASCII, so characters are bytes
        "ok": result.ok,
        "problems": result.problems[:3],
        "doc": {k: loaded.get(k) for k in ("algebra", "field", "arity", "input", "status")},
        "count": len(loaded.get("summands", [])),
    }


def own_bound(inst):
    """The summand bound, recomputed from the generator's shape, never read from a document."""
    d = inst["arity"]
    if inst["algebra"] == "poly":
        return math.comb(inst["degree"] + d - 1, d - 1)
    two_element = inst["field"] == "F2"
    if d == 3:
        return 6 if two_element else 5
    return 7 if two_element else 6


def check(pl, inst, rec):
    """Independent output check, outside the timed region; returns problems."""
    if "error" in rec:
        return [f"{rec['stage']}: {rec['error']}: {rec['message']}"]
    problems = []
    if not rec["ok"]:
        problems.append("verifier rejected the document: " + "; ".join(rec["problems"]))
    doc = rec["doc"]
    algebra = "polynomial" if inst["algebra"] == "poly" else "metabelian-lie"
    if (doc["algebra"], doc["field"], doc["arity"], doc["status"]) != (algebra, inst["field"], inst["arity"], "finite"):
        problems.append(f"document header {doc} does not match the instance")
    bound = own_bound(inst)
    if rec["count"] > bound:
        problems.append(f"{rec['count']} summands exceed the bound {bound}")
    field = pl.field.field_from_flag(inst["field"])
    parse = pl.parsing.parse_poly if inst["algebra"] == "poly" else pl.parsing.parse_lie
    try:
        same = parse(str(doc["input"]), inst["arity"], field) == parse(inst["expr"], inst["arity"], field)
    except Exception as exc:  # a malformed input field is a failed check
        same = False
        problems.append(f"document input does not parse: {type(exc).__name__}: {exc}")
    if not same:
        problems.append("document input does not re-parse to the generated input")
    return problems


def run_pass(pl, instances, tracer=None, tamper=None):
    """One closed-loop pass; returns (records, wall seconds).

    Each instance starts from a collected heap, as a fresh CLI process
    would, so garbage left by the previous instance does not shift its
    collections.  The wall time leaves that collection out.
    """
    records = []
    harness = 0.0
    start = perf_counter()
    for index, inst in enumerate(instances):
        mark = perf_counter()
        gc.collect()
        harness += perf_counter() - mark
        if tracer is None:
            records.append(run_instance(pl, inst, tamper))
            continue
        tracer.instance = index
        tracer.open(tracer.name_id("instance"))
        try:
            records.append(run_instance(pl, inst, tamper))
        finally:
            tracer.close()
    return records, perf_counter() - start - harness


def find_failures(pl, instances, records):
    """Failures of one pass by instance id.

    A failure is "error" when the pipeline raised and "wrong" when it
    finished but its output fails the check.
    """
    failures = {}
    for inst, rec in zip(instances, records):
        problems = check(pl, inst, rec)
        if problems:
            failures[inst["id"]] = {"kind": "error" if "error" in rec else "wrong", "problems": problems}
    return failures


# -- metrics ---------------------------------------------------------------------


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten samples beyond it.

    None below 100 samples, where that percentile would be under p90.
    """
    if len(samples) < 100:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def setup_seconds():
    """Median time for a fresh interpreter to run ``import primlen`` (after one untimed warm-up)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import primlen; print(time.perf_counter() - t)"
    )
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if attempt:
            times.append(float(out.stdout))
    return statistics.median(times)


def end_to_end(instances, passes, walls, failures, setup):
    """The end-to-end metrics of a --trace 0 run, and the tail record."""
    pipeline, producer, verifier = [], [], []
    verified = 0
    for records in passes:
        for inst, rec in zip(instances, records):
            if inst["id"] in failures:
                pipeline.append(math.inf)
                producer.append(math.inf)
                verifier.append(math.inf)
                continue
            verified += 1
            producer.append(rec["producer_s"] * 1e3)
            verifier.append(rec["verifier_s"] * 1e3)
            pipeline.append((rec["producer_s"] + rec["verifier_s"]) * 1e3)
    metrics = {
        "pipeline_ms.p50": statistics.median(pipeline),
        "producer_ms.p50": statistics.median(producer),
        "verifier_ms.p50": statistics.median(verifier),
        "instances_per_s": verified / sum(walls),
        "doc_bytes": sum(rec.get("doc_bytes", 0) for rec in passes[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    for name in ("pipeline_ms.p50", "producer_ms.p50", "verifier_ms.p50"):
        if math.isinf(metrics[name]):
            raise HarnessError(f"{name} is infinite: more than half of the instances failed")
    tail_value = tail(pipeline)
    return metrics, None if tail_value is None else {
        "percentile": tail_value[0], "value": tail_value[1], "samples": len(pipeline)
    }


def per_layer(tracer, counter, traced_wall, untraced_wall):
    metrics = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key == "calls":
            metrics[name] = tracer.calls.get(layer, 0)
        elif key == "self_s":
            metrics[name] = tracer.self_s.get(layer, 0.0)
        else:
            metrics[name] = tracer.maxima.get(name, tracer.counts.get(name, 0))
    metrics["field.scalar_ops"] = counter.scalar_ops
    metrics["field.scalars_created"] = counter.scalars_created
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


# -- environment -----------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(pl):
    return {
        "backend": "fractions" if pl.field.big_int is int else "gmpy2",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# -- runs ------------------------------------------------------------------------


def measure(pl, instances, seconds, trace, tamper=None, spans_path=None):
    """Run the passes of one workload run and return its record (metrics, failures)."""
    setup = None if trace else setup_seconds()
    records, wall = run_pass(pl, instances, tamper=tamper)
    failures = find_failures(pl, instances, records)
    passes, walls = [records], [wall]
    record = {"trace": trace}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(pl, instances, tracer, tamper)
        finally:
            tracer.uninstall()
        failures.update(find_failures(pl, instances, traced))
        counter = FieldCounter()
        counter.install()
        try:
            run_pass(pl, instances, tamper=tamper)
        finally:
            counter.uninstall()
        record["metrics"] = per_layer(tracer, counter, traced_wall, wall)
        record["spans"] = len(tracer.span_start)
        if spans_path is not None:
            tracer.write_spans(spans_path)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        while sum(walls) < seconds:
            more, more_wall = run_pass(pl, instances, tamper=tamper)
            passes.append(more)
            walls.append(more_wall)
            failures.update(find_failures(pl, instances, more))
        record["metrics"], record["pipeline_ms.tail"] = end_to_end(instances, passes, walls, failures, setup)
    record.update(
        passes=len(walls),
        pass_walls_s=walls,
        attempted=len(instances),
        failed=len(failures),
        failed_ratio=len(failures) / len(instances),
        failures=[
            {"id": inst["id"], "arity": inst["arity"], "field": inst["field"], "degree": inst["degree"],
             **failures[inst["id"]]}
            for inst in instances if inst["id"] in failures
        ],
    )
    return record


def summary(record):
    """The result line: correct, attempted, failed and the metrics with units.

    An exception is a failure, not a wrong answer: correct turns false only
    when a finished instance produced output that the check rejects.
    """
    units = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": all(f["kind"] == "error" for f in record["failures"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(workload, seed, seconds, trace):
    pl = load_program()
    instances = gen.instances(workload, seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl" if trace else None
    record = {"workload": workload, "seed": seed, "seconds": seconds, "env": environment(pl)}
    record.update(measure(pl, instances, seconds, trace, spans_path=spans_path))
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps(summary(record)))


def report(record):
    units = PER_LAYER if record["trace"] else END_TO_END
    env = record["env"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
        f"passes {record['passes']}  instances {record['attempted']}  "
        f"wall {sum(record['pass_walls_s']):.2f} s"
    )
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"  {name:<42} {record['metrics'][name]:>16.6g} {unit}")
    if not record["trace"]:
        t = record["pipeline_ms.tail"]
        if t is None:
            print(f"  {'pipeline_ms.tail':<42} {'omitted':>16} (fewer than 100 samples)")
        else:
            print(
                f"  {'pipeline_ms.tail':<42} {t['value']:>16.6g} ms"
                f" (p{t['percentile']:.1f} of {t['samples']} samples)"
            )
    else:
        print(f"  {record['spans']} spans written to {record['spans_file']}")
    print(f"  {'failed_ratio':<42} {record['failed_ratio']:>16.6g} ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"    {failure['kind']} {failure['id']} d={failure['arity']} n={failure['degree']} {failure['field']}: "
              + " | ".join(failure["problems"]))


def run_all(seed, seconds, trace):
    """Each workload in its own process; returns the exit code."""
    status = 0
    results = {}
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
