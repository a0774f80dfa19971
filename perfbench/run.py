"""Repository benchmark: ``solve``, ``serve``, ``churn`` and ``heal``.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20

``--trace 0`` measures one workload untraced and prints its end-to-end
metrics.  ``--trace 1`` is the separate traced run: it measures all four
workloads with spans around every layer call and prints the per-layer
metrics (so any ``--workload`` gives the full breakdown); spans and per-op
layer self times are written to ``perfbench/out/`` at exit.  ``all`` runs
each workload untraced in a fresh process, then the traced run, and prints
every metric by workload.  The last line of output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

WORKLOAD_NAMES = ("solve", "serve", "churn", "heal")

#: Percentile reported as ``op_tail_ms``, taken per block of ops by
#: :func:`tail_ms`: in a 20 s run's blocks, the highest with ten ops beyond it
#: on solve and serve; lower on churn and heal (see README).
TAIL_PERCENTILE = {"solve": 95.0, "serve": 99.0, "churn": 95.0, "heal": 90.0}

#: Ops per second of ``--seconds``: each run issues a fixed number of ops,
#: sized to take about ``--seconds`` on a 2-core host, and is cut at three
#: times that.
OPS_PER_SECOND = {"solve": 10.0, "serve": 650.0, "churn": 40.0, "heal": 7.0}

#: Least heals in the traced run: enough to reach the first delta-coloring
#: op that lets an exception escape at seed 0 (op 33).
TRACE_MIN_HEALS = 40

#: serve/churn/heal runs end with a ``solve`` probe: ``PROBE_PASSES`` passes
#: over one fixed small instance per schema, so that every run reports
#: ``solve_ms.<schema>``.  The instance does not depend on the workload seed:
#: the probe tracks the speed of each schema's solve, not instance luck.
PROBE_PASSES = 16
PROBE_N = 64
PROBE_SEED = 0


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_ms(values: List[float], q: float) -> float:
    """Median over consecutive blocks of ops of each block's ``q``-th percentile.

    There are as many blocks as leave at least ten ops beyond ``q`` in each
    (on a 20 s run: one on solve and heal, four on churn, thirteen on
    serve).  A burst of contention that slows a few hundred consecutive
    ops lifts one block's percentile, not the reported one.
    """
    blocks = max(1, int(len(values) * (100.0 - q) / 100.0) // 10)
    size = len(values) // blocks
    return median([percentile(values[b * size:(b + 1) * size], q) for b in range(blocks)])


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * OPS_PER_SECOND[workload]))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# -- untraced run: end-to-end metrics -------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float):
    from workloads import SOLVE_PASS_OPS, WORKLOADS, run_solve

    out = WORKLOADS[workload](seed, op_count(workload, seconds), 3 * seconds, setup_reps=3)
    if not out.op_ms:
        raise RuntimeError(f"{workload}: no op completed")
    returned = out.op_ms
    # solve and heal cycle through ten schemas, churn through two flagships:
    # different computations, whose pooled median sits on the boundary
    # between two of them and jumps.  p50 is the median of per-tag medians
    # (on serve, with one tag, the plain median).
    p50 = median([median(v) for v in out.ms_by_tag().values()])
    # Throughput counts each op at most at the tail percentile: a few churn
    # mutations fall back to a full re-encode and a few heals to a global
    # re-solve, each taking seconds, and how many a run draws is luck; the
    # excess is what op_tail_ms and the traces are for.
    tail = tail_ms(returned, TAIL_PERCENTILE[workload])
    solved = out if workload == "solve" else run_solve(
        PROBE_SEED, PROBE_PASSES * SOLVE_PASS_OPS, 60.0, instances=1, n=PROBE_N)
    metrics = {
        "setup_s": metric(median(out.setup_s), "s"),
        "ops_per_s": metric(len(returned) / (sum(min(ms, tail) for ms in returned) / 1e3), "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "ok_ratio": metric((out.attempted - out.failed) / out.attempted, "ratio"),
        "peak_rss_mb": metric(out.peak_rss_mb, "MB"),
    }
    for name, values in sorted(solved.ms_by_tag().items()):
        metrics[f"solve_ms.{name}"] = metric(median(values), "ms")
    return [out], metrics


# -- traced run: per-layer metrics ----------------------------------------------


def traced(seed: int, seconds: float, label: str):
    """Each workload untraced, then traced on the same ops (and more, if
    the traced pass needs more to cover every schema or reach an escape)."""
    from tracing import Recorder, instrument
    from workloads import SOLVE_PASS_OPS, WORKLOADS

    # Every schema must reach the per-layer breakdown: two solve passes.
    min_ops = {"solve": 2 * SOLVE_PASS_OPS, "heal": TRACE_MIN_HEALS}

    rec = Recorder()
    outcomes, overhead, segments = {}, {}, {}
    share = seconds / (2 * len(WORKLOAD_NAMES))
    for name in WORKLOAD_NAMES:
        base = WORKLOADS[name](seed, op_count(name, share), 3 * share)
        first = len(rec.spans)
        with instrument(rec) as inst:
            out = WORKLOADS[name](seed, max(base.attempted, min_ops.get(name, 1)),
                                  6 * share + 60, inst=inst)
        segments[name] = (first, len(rec.spans))
        outcomes[name] = out
        # Median over ops of (traced - untraced) time of the same op: robust
        # to the few ops whose time the host's drift moves most.
        traced_ms = dict(zip(out.op_index, out.op_ms))
        overhead[name] = median([traced_ms[i] - ms for i, ms in zip(base.op_index, base.op_ms)
                               if i in traced_ms]) * 1e3
    metrics = layer_metrics(rec, outcomes, overhead)
    os.makedirs(OUT_DIR, exist_ok=True)
    workload_of_op = {}
    for name, (lo, hi) in segments.items():
        for s in rec.spans[lo:hi]:
            workload_of_op[s.op] = name
    rec.write(os.path.join(OUT_DIR, f"trace-{label}-{seed}.jsonl"), workload_of_op)
    print_self_times(rec, workload_of_op)
    return list(outcomes.values()), metrics


def _ratio(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(rec, outcomes, overhead) -> Dict[str, Dict[str, object]]:
    from workloads import FLAGSHIPS

    by_root: Dict[str, Dict[str, List[list]]] = {}
    for spans in rec.ops().values():
        root = spans[0]
        by_root.setdefault(root.name, {}).setdefault(root.attrs.get("tag"), []).append(spans)
    m: Dict[str, Dict[str, object]] = {}

    solve = outcomes["solve"]
    for s, ops in sorted(by_root.get("core.solve", {}).items()):
        first = [rec.first_ms(o, "local.compile") for o in ops]
        m[f"local.compile_ms.{s}"] = metric(median([x for x in first if x is not None]), "ms")
        for name, key in (("schemas.encode", "schemas.encode_ms"),
                          ("schemas.decode", "schemas.decode_ms"),
                          ("obs.bandwidth", "obs.bandwidth_ms"),
                          ("lcl.verify", "lcl.verify_ms")):
            m[f"{key}.{s}"] = metric(median([rec.outermost_ms(o, name) for o in ops]), "ms")
        m[f"schemas.rounds.{s}"] = metric(median(solve.obs[f"rounds.{s}"]), "count")
        m[f"obs.bits_on_wire.{s}"] = metric(median(solve.obs[f"bits_on_wire.{s}"]), "bits")
    hits = sum(solve.obs["memo_hits.2-coloring"])
    lookups = sum(solve.obs["memo_lookups.2-coloring"])
    m["local.memo_hit_ratio.2-coloring"] = metric(hits / lookups if lookups else 0.0, "ratio")
    m["local.views_gathered.2-coloring"] = metric(median(solve.obs["views_gathered.2-coloring"]), "count")

    serve = outcomes["serve"]
    queries = by_root["serve.query"]["2-coloring"]
    parts = {"local.gather_us": [], "local.signature_us": [], "schemas.decide_us": [], "serve.self_us": []}
    for o in queries:
        gather = rec.outermost_ms(o, "local.gather")
        sig = rec.outermost_ms(o, "local.signature")
        decide = rec.outermost_ms(o, "schemas.decide")
        parts["local.gather_us"].append(gather * 1e3)
        parts["local.signature_us"].append(sig * 1e3)
        parts["schemas.decide_us"].append(decide * 1e3)
        parts["serve.self_us"].append((o[0].ms - gather - sig - decide) * 1e3)
    for key, values in parts.items():
        m[key] = metric(sum(values) / len(values), "us")
    m["serve.memo_hit_ratio"] = metric(_ratio(serve.obs["cache_hit"]), "ratio")
    m["serve.memo_entries"] = metric(serve.obs["memo_entries"][-1], "count")
    m["local.ball_nodes_p50"] = metric(median(serve.obs["ball_nodes"]), "count")

    churn = outcomes["churn"]
    apply_ms = churn.ms_by_tag()
    for f in FLAGSHIPS:
        m[f"local.recompile_ms.{f}"] = metric(median(churn.obs[f"recompile_ms.{f}"]), "ms")
        m[f"dynamic.apply_ms.{f}"] = metric(median(apply_ms[f]), "ms")
        m[f"dynamic.local_ratio.{f}"] = metric(_ratio(churn.obs[f"local.{f}"]), "ratio")
        m[f"dynamic.noop_ratio.{f}"] = metric(_ratio(churn.obs[f"noop.{f}"]), "ratio")
        m[f"dynamic.reencode_total.{f}"] = metric(sum(churn.obs[f"reencode.{f}"]), "count")
        m[f"dynamic.repair_radius_p50.{f}"] = metric(median(churn.obs[f"repair_radius.{f}"]), "count")

    heal = outcomes["heal"]
    for s, values in sorted(heal.ms_by_tag().items()):
        m[f"faults.heal_ms.{s}"] = metric(median(values), "ms")
    m["faults.detected_ratio"] = metric(_ratio(heal.obs.get("detected", [])), "ratio")
    m["faults.local_repair_ratio"] = metric(_ratio(heal.obs.get("local_repair", [])), "ratio")
    m["faults.escalated_total"] = metric(sum(heal.obs.get("escalated", [])), "count")
    m["faults.escaped_total"] = metric(sum(heal.obs.get("escaped", [])), "count")
    m["faults.repair_radius_p50"] = metric(median(heal.obs.get("repair_radius", [])), "count")

    for name, us in overhead.items():
        m[f"trace.overhead_us_per_op.{name}"] = metric(us, "us")
    return m


def print_self_times(rec, workload_of_op) -> None:
    """Mean per-op self time of each layer, by workload (human-readable)."""
    roots = {"core.solve", "serve.query", "dynamic.apply", "faults.heal"}
    totals: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for op, spans in rec.ops().items():
        if spans[0].name not in roots:
            continue
        w = workload_of_op[op]
        counts[w] = counts.get(w, 0) + 1
        acc = totals.setdefault(w, {})
        for layer, ms in rec.self_times(spans).items():
            acc[layer] = acc.get(layer, 0.0) + ms
    for w, acc in totals.items():
        row = ", ".join(f"{k} {v / counts[w]:.3f}" for k, v in sorted(acc.items(), key=lambda kv: -kv[1]))
        print(f"# self ms/op [{w}, {counts[w]} ops]: {row}")


# -- output ---------------------------------------------------------------------


def result(outcomes, metrics) -> Dict[str, object]:
    for out in outcomes:
        if out.errors:
            print(f"# {out.workload}: exceptions {out.errors}", file=sys.stderr)
    return {
        "correct": all(out.wrong == 0 for out in outcomes),
        "attempted": sum(out.attempted for out in outcomes),
        "failed": sum(out.failed for out in outcomes),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> Dict[str, object]:
    """Every workload untraced in its own process, then the traced run."""
    merged: Dict[str, object] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for label, workload, trace in [(w, w, 0) for w in WORKLOAD_NAMES] + [("traced", "all", 1)]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        print(f"== {label}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
            merged["metrics"][f"{label}/{name}"] = m
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.trace:
        res = result(*traced(args.seed, args.seconds, args.workload))
    elif args.workload == "all":
        res = run_all(args.seed, args.seconds)
    else:
        res = result(*end_to_end(args.workload, args.seed, args.seconds))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
