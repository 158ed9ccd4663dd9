"""lamdist benchmark: one command, three in-process workloads.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 35    # all three workloads

A run builds its inputs from ``--seed``, measures set-up in fresh
interpreters, runs one untimed warm-up round, then repeats whole rounds
of the workload's operations until ``--seconds`` have passed, checking
every result.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
lamdist's public functions are wrapped and the metrics are per layer,
and the folded spans are written to ``perfbench/out/``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("laws", "probes", "derivations")
SETUP_RUNS = 5
CHILD_TIMEOUT = 170


def import_lamdist() -> float:
    """Import the package from this checkout's ``src``; milliseconds."""
    sys.path.insert(0, SRC)
    start = perf_counter()
    try:
        import lamdist
        import lamdist.eqtheory  # noqa: F401
        import lamdist.quantale  # noqa: F401
        import lamdist.relations  # noqa: F401
        import lamdist.semantics  # noqa: F401
        import lamdist.syntax  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"cannot import lamdist from {SRC}: {e}") from e
    took = (perf_counter() - start) * 1e3
    where = os.path.dirname(os.path.abspath(lamdist.__file__))
    if where != os.path.join(SRC, "lamdist"):
        raise SystemExit(f"lamdist imported from {where}, not from {SRC}")
    return took


def setup_only(workload: str, seed: int) -> int:
    import_ms = import_lamdist()
    import workloads
    start = perf_counter()
    wl = workloads.SETUPS[workload](ROOT, seed)
    print(json.dumps({"import_ms": import_ms,
                      "build_ms": (perf_counter() - start) * 1e3,
                      **wl.setup_ms}))
    return 0


def measure_setup(workload: str, seed: int) -> dict:
    """Median wall time of fresh interpreters that import lamdist and
    build the state.  A first, untimed one warms the bytecode caches."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    walls, reports = [], []
    for i in range(SETUP_RUNS + 1):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, cwd=ROOT)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        if i:
            walls.append(wall)
            reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    out = {"setup_s": statistics.median(walls)}
    for key in reports[0]:
        out[key] = statistics.median(r[key] for r in reports)
    return out


def run_round(wl, latencies, errors, counts):
    """One pass over the operations; returns how many raised.  An
    operation that raises is also an error: no operation should."""
    failed = 0
    for op in wl.ops:
        start = perf_counter()
        try:
            result = op.run()
        except Exception as e:
            latencies.append(perf_counter() - start)
            failed += 1
            errors.append(f"{op.name} raised {type(e).__name__}: {e}")
            continue
        latencies.append(perf_counter() - start)
        errors.extend(op.check(result))
        if counts is not None:
            for key, amount in op.count(result):
                counts[key] = counts.get(key, 0) + amount
    return failed


def run_workload(args) -> int:
    import_lamdist()
    import tracing
    import workloads

    setup = measure_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.SETUPS[args.workload](ROOT, args.seed)

    errors: list[str] = []
    if tracer:
        tracer.phase("warmup")
    run_round(wl, [], errors, None)  # untimed: lazy caches fill here
    if tracer:
        tracer.phase("ops")
    latencies: list[float] = []
    counts = tracer.count if tracer else None
    failed = 0
    start = perf_counter()
    while True:
        failed += run_round(wl, latencies, errors, counts)
        elapsed = perf_counter() - start
        if elapsed >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
    errors.extend(wl.final_checks())

    attempted = len(latencies)
    if tracer:
        metrics = layer_metrics(tracer, attempted, elapsed, setup)
        write_trace(args, tracer, attempted, elapsed)
    else:
        metrics = {
            "ops_per_s": (median_round_rate(latencies, len(wl.ops)), "op/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (setup["setup_s"], "s"),
        }
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def median_round_rate(latencies, ops_per_round) -> float:
    """Operations per second of a round in which every operation takes
    its median latency.  Rounds repeat the same operations in the same
    order, so ``latencies[i::n]`` holds the samples of operation i.  A
    median per operation keeps a burst of machine contention within a
    run from moving the rate, as the total over the run would."""
    per_op = [statistics.median(latencies[i::ops_per_round])
              for i in range(ops_per_round)]
    return ops_per_round / sum(per_op)


# metric -> (table entry, field, unit); fields: 0 calls, 1 total s, 2 self s
PER_OP = {
    "quantale.check_section3_props.ms": ("quantale.check_section3_props", 2, "ms"),
    "quantale.validate.ms": ("quantale.validate", 2, "ms"),
    "syntax.parse_term.calls": ("syntax.parse_term", 0, "count"),
    "syntax.parse_term.ms": ("syntax.parse_term", 2, "ms"),
    "syntax.typecheck.calls": ("syntax.typecheck", 0, "count"),
    "syntax.typecheck.ms": ("syntax.typecheck", 2, "ms"),
    "syntax.term_equal.calls": ("syntax.term_equal", 0, "count"),
    "syntax.term_equal.ms": ("syntax.term_equal", 2, "ms"),
    "semantics.evaluate.calls": ("semantics.evaluate", 0, "count"),
    "semantics.diff_evaluate.calls": ("semantics.diff_evaluate", 0, "count"),
    "semantics.diff_evaluate.ms": ("semantics.diff_evaluate", 2, "ms"),
    "semantics.closure.calls": ("semantics.closure", 0, "count"),
    "semantics.closure.self_ms": ("semantics.closure", 2, "ms"),
    "prims.prim_modulus.calls": ("prims.prim_modulus", 0, "count"),
    "prims.prim_modulus.ms": ("prims.prim_modulus", 2, "ms"),
    "relations.check_fundamental.ms": ("relations.check_fundamental", 2, "ms"),
    "relations.check_gamma.ms": ("relations.check_gamma", 2, "ms"),
    "relations.check_eta.ms": ("relations.check_eta", 2, "ms"),
    "relations.check_delta.ms": ("relations.check_delta", 2, "ms"),
    "eqtheory.derivation_from_json.ms": ("eqtheory.derivation_from_json", 2, "ms"),
    "eqtheory.check_derivation.ms": ("eqtheory.check_derivation", 2, "ms"),
}


def layer_metrics(tracer, attempted, elapsed, setup) -> dict:
    """Per-operation self times and counts of the timed rounds, rates per
    second of the time spent in the layer, and set-up figures."""
    table, count = tracer.phases["ops"], tracer.counts["ops"]

    def get(name, field):
        row = table.get(name)
        return row[field] if row else 0

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    out = {}
    for metric, (name, field, unit) in PER_OP.items():
        scale = 1e3 if unit == "ms" else 1
        out[metric] = (get(name, field) * scale / attempted, unit)
    out["quantale.relations_per_s"] = (rate(
        count.get("quantale.relations", 0),
        get("quantale.check_section3_props", 1)), "1/s")
    out["quantale.parse_quantale.ms"] = (
        tracer.phases["setup"].get("quantale.parse_quantale", [0, 0, 0])[1]
        * 1e3, "ms")
    out["syntax.parse_term.chars_per_s"] = (rate(
        count.get("syntax.parse_term.chars", 0), get("syntax.parse_term", 1)),
        "1/s")
    probes = count.get("relations.probes_compared", 0)
    out["relations.probes_compared"] = (probes / attempted, "count")
    out["relations.probes_per_s"] = (rate(probes, elapsed), "1/s")
    raw = count.get("relations.self_distance.raw", 0)
    out["relations.self_distance.kept_ratio"] = (
        count.get("relations.self_distance.kept", 0) / raw if raw else 0.0,
        "ratio")
    out["relations.probe_triples.build_ms"] = (
        setup.get("relations.probe_triples.build_ms", 0.0), "ms")
    nodes = count.get("eqtheory.nodes", 0)
    out["eqtheory.nodes"] = (nodes / attempted, "count")
    out["eqtheory.conv_nodes"] = (count.get("eqtheory.conv_nodes", 0)
                                  / attempted, "count")
    out["eqtheory.nodes_per_s"] = (rate(nodes, get("eqtheory.check_derivation",
                                                   1)), "1/s")
    out["process.import_ms"] = (setup["import_ms"], "ms")
    return out


def write_trace(args, tracer, attempted, elapsed):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "attempted": attempted, "elapsed_s": elapsed,
            "spans": {phase: {name: {"calls": c, "total_s": t, "self_s": s}
                              for name, (c, t, s) in sorted(table.items())}
                      for phase, table in tracer.phases.items()},
            "counts": tracer.counts,
        }, fh, indent=1, sort_keys=True)


def run_all(args) -> int:
    """Each workload in its own fresh process; one summary line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT + 60 * 3, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        print(f"{name}: " + json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lamdist benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
