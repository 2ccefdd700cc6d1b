#!/usr/bin/env python3
"""Perf-trajectory regression gate.

Compares the current ``BENCH_pipeline.json`` against the previous
run's artifact and fails on a throughput cliff:

* per-backend ``reads_per_sec`` may not drop more than TOLERANCE
  (default 15%) below the baseline;
* per-backend ``peak_resident_task_bases`` may not grow more than
  TOLERANCE above the baseline.

Backends present in only one file are reported but never fail the
gate (backends come and go as the repository grows), and a missing or
unreadable baseline skips the gate entirely — the first run on a new
branch has nothing to compare against. Throughput numbers on shared CI
runners are noisy; the tolerance is deliberately wide so the gate only
catches cliffs, not jitter.

Usage: perf_gate.py CURRENT.json BASELINE.json [--tolerance 0.15]
Exit codes: 0 pass/skipped, 1 regression, 2 bad current file.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="BENCH_pipeline.json from this run")
    ap.add_argument("baseline", help="BENCH_pipeline.json from the previous run")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression (default 0.15 = 15%%)",
    )
    args = ap.parse_args()

    try:
        current = load(args.current)
    except (OSError, ValueError) as e:
        print(f"perf-gate: cannot read current file {args.current}: {e}")
        return 2

    try:
        baseline = load(args.baseline)
    except (OSError, ValueError) as e:
        print(f"perf-gate: no usable baseline ({e}); skipping backend gate")
        return 0

    cur_backends = current.get("backends", {})
    base_backends = baseline.get("backends", {})
    if not cur_backends:
        print("perf-gate: current file has no backends; refusing to pass silently")
        return 2

    failures = []
    for name in sorted(cur_backends):
        cur = cur_backends[name]
        base = base_backends.get(name)
        if base is None:
            print(f"perf-gate: {name}: new backend, no baseline — skipped")
            continue

        cur_rps = float(cur.get("reads_per_sec", 0.0))
        base_rps = float(base.get("reads_per_sec", 0.0))
        floor = base_rps * (1.0 - args.tolerance)
        verdict = "ok"
        if base_rps > 0.0 and cur_rps < floor:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: reads/s {cur_rps:.1f} < {floor:.1f} "
                f"(baseline {base_rps:.1f} - {args.tolerance:.0%})"
            )
        print(
            f"perf-gate: {name}: reads/s {base_rps:.1f} -> {cur_rps:.1f} "
            f"(floor {floor:.1f}) {verdict}"
        )

        cur_peak = int(cur.get("peak_resident_task_bases", 0))
        base_peak = int(base.get("peak_resident_task_bases", 0))
        ceiling = base_peak * (1.0 + args.tolerance)
        verdict = "ok"
        if base_peak > 0 and cur_peak > ceiling:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: peak resident task bases {cur_peak} > {ceiling:.0f} "
                f"(baseline {base_peak} + {args.tolerance:.0%})"
            )
        print(
            f"perf-gate: {name}: peak resident {base_peak} -> {cur_peak} "
            f"(ceiling {ceiling:.0f}) {verdict}"
        )

        # Schema v3 latency percentiles are informational only: the
        # histogram buckets are power-of-two upper bounds, so they are
        # too coarse to gate on, but worth printing in the job log.
        lat = cur.get("latency") or {}
        if lat:
            print(
                f"perf-gate: {name}: read latency p50/p90/p99 ns "
                f"{lat.get('read_p50_ns', 0)}/{lat.get('read_p90_ns', 0)}"
                f"/{lat.get('read_p99_ns', 0)}, "
                f"task-queue wait p99 ns {lat.get('task_queue_wait_p99_ns', 0)} "
                f"(informational)"
            )

    for name in sorted(set(base_backends) - set(cur_backends)):
        print(f"perf-gate: {name}: present in baseline only — skipped")

    if failures:
        print("perf-gate: FAIL")
        for f in failures:
            print(f"perf-gate:   {f}")
        return 1
    print("perf-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
