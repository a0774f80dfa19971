"""Shared helpers for the benchmark harness, including baseline diffing.

Each benchmark regenerates one experiment from the DESIGN.md per-experiment
index (E1–E8, A1–A2).  Since the paper is a brief announcement with no
tables or figures, every experiment is derived from a numbered claim; the
bench prints the series the claim predicts and asserts its *shape*
(who wins, what stays flat, what doubles).  EXPERIMENTS.md records the
outcomes.

Baseline regression mode
------------------------
``python benchmarks/common.py --report BENCH_simulation.json --baseline
benchmarks/baselines/simulation_core.json`` diffs a freshly produced bench
JSON against a committed baseline.  Baselines pin the *deterministic*
engine metrics (views gathered, BFS node-visits, decide calls, distinct
view classes) with per-metric tolerances — timings are machine-dependent and are
deliberately not part of any baseline.  A metric drifting outside its
tolerance exits nonzero, which is what the ``bench-regression`` CI job
keys on.  ``--write-baseline`` regenerates the baseline from a report
after an intentional engine change.

The tolerance rule (relative slack with an absolute floor of one unit) is
shared with the run-diffing layer — :func:`repro.obs.diff.allowed_drift` —
so a bench baseline, a telemetry diff, and a ``BENCH_history.json`` drift
check all mean the same thing by "within tolerance".  Every report written
through :func:`stamp_provenance` carries commit hash, seed, python
version, and schema list, making bench JSONs attributable PR-over-PR.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.obs.diff import allowed_drift
from repro.obs.report import build_provenance


def print_table(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Render an experiment's series as an aligned text table."""
    if not rows:
        print(f"\n== {title}: (no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows))
        for c in columns
    }
    print(f"\n== {title}")
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic and often heavy; one timed round is
    enough, and re-running them would multiply wall time without adding
    information.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def stamp_provenance(
    report: Dict[str, object],
    seed: Optional[int] = None,
    schemas: Optional[Sequence[str]] = None,
    **extra: object,
) -> Dict[str, object]:
    """Attach a provenance stamp to a bench report (returns the report).

    Commit hash, python version, and platform come from
    :func:`repro.obs.report.build_provenance`; pass the bench's ``seed``
    and the schema list it exercised so every ``BENCH_*.json`` (and every
    ``BENCH_history.json`` entry derived from one) is attributable to the
    exact tree and instance that produced it.
    """
    report["provenance"] = build_provenance(seed=seed, schemas=schemas, **extra)
    return report


# ---------------------------------------------------------------------------
# Baseline regression diffing
# ---------------------------------------------------------------------------

#: Metrics pinned by default when writing a baseline, with their relative
#: tolerances.  All are deterministic functions of (graph, seed, radius).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "views_gathered": 0.0,
    "bfs_node_visits": 0.0,
    "decide_calls": 0.0,
    "distinct_view_classes": 0.0,
}


def _case_metrics(case: Dict[str, object], names: Sequence[str]) -> Dict[str, float]:
    """Pull comparable metrics out of one bench-report case.

    Looks at the case's top level first, then inside its ``engine_stats``
    sub-dict (where ``bench_simulation_core`` keeps the engine counters).
    """
    stats = case.get("engine_stats") or {}
    out: Dict[str, float] = {}
    for name in names:
        value = case.get(name, stats.get(name))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = float(value)
    return out


def write_baseline(
    report: Dict[str, object],
    path: str,
    tolerances: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Extract the deterministic metrics of ``report`` into a baseline file."""
    tolerances = dict(tolerances if tolerances is not None else DEFAULT_TOLERANCES)
    baseline = {
        "benchmark": report.get("benchmark", "unknown"),
        "params": report.get("params", {}),
        "tolerances": tolerances,
        "cases": [
            {
                "case": case.get("case"),
                "metrics": _case_metrics(case, list(tolerances)),
            }
            for case in report.get("cases", [])
        ],
    }
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    return baseline


def diff_against_baseline(
    report: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Compare a fresh report to a committed baseline.

    Returns a list of human-readable regression strings (empty = clean).
    A missing case or metric counts as a regression: silently dropping a
    benchmark case must not pass CI.
    """
    problems: List[str] = []
    if report.get("params") != baseline.get("params"):
        problems.append(
            f"params differ: report {report.get('params')} "
            f"vs baseline {baseline.get('params')} — rerun with the "
            "baseline's parameters or regenerate the baseline"
        )
        return problems
    tolerances = baseline.get("tolerances", {})
    report_cases = {c.get("case"): c for c in report.get("cases", [])}
    for base_case in baseline.get("cases", []):
        name = base_case.get("case")
        fresh = report_cases.get(name)
        if fresh is None:
            problems.append(f"case {name!r}: missing from report")
            continue
        fresh_metrics = _case_metrics(fresh, list(tolerances))
        for metric, expected in base_case.get("metrics", {}).items():
            actual = fresh_metrics.get(metric)
            if actual is None:
                problems.append(f"case {name!r}: metric {metric!r} missing")
                continue
            allowed = allowed_drift(expected, float(tolerances.get(metric, 0.0)))
            if abs(actual - expected) > allowed:
                problems.append(
                    f"case {name!r}: {metric} = {actual:g}, baseline "
                    f"{expected:g} (tolerance ±{allowed:g})"
                )
    return problems


def baseline_cli(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a benchmark JSON report against a committed baseline."
    )
    parser.add_argument("--report", required=True, help="fresh bench JSON report")
    parser.add_argument(
        "--baseline", help="committed baseline to diff the report against"
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="(re)generate the baseline at PATH from the report instead",
    )
    args = parser.parse_args(argv)
    if not args.baseline and not args.write_baseline:
        parser.error("one of --baseline / --write-baseline is required")

    with open(args.report) as fh:
        report = json.load(fh)

    if args.write_baseline:
        baseline = write_baseline(report, args.write_baseline)
        print(
            f"wrote {args.write_baseline}: {len(baseline['cases'])} cases, "
            f"{len(baseline['tolerances'])} metrics each"
        )
        return 0

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    problems = diff_against_baseline(report, baseline)
    if problems:
        print(f"REGRESSION: {len(problems)} metric(s) drifted from baseline")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    cases = len(baseline.get("cases", []))
    print(f"baseline OK: {cases} cases within tolerance of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(baseline_cli())
