#!/usr/bin/env python3
"""Compare fresh bench JSON artifacts against their committed baselines.

Usage: perf_compare.py BASELINE FRESH [BASELINE FRESH ...] [--summary-out PATH]

Each BASELINE/FRESH pair must be the same bench; the bench is recognised
from the JSON's "bench" field and dispatched to a per-bench metric map:

  * recovery_scalability -- fleet_sweep rows keyed by `workflows`;
    watches the steady-state `analyze_incremental_ms` (largest fleet).
    SCALING GATE on the fresh artifact alone: `recover_ms` per touched
    action at 4096 workflows must be <= 1.5x its value at 256 (recovery
    execution replays only the damage cone, and the one-attack closure
    changes size with the fleet, so the gate divides by it). The large
    fleet divides by the larger of the two closures: a smaller closure
    there (2 actions at 4096 against 7 at 256) must not turn a plan's
    fixed cost into a per-action one. Runs without the 4096 row (no
    --big) skip the gate; a violation is a hard failure (exit 1) --
    per-operation cost ratios carry over between machines.
    Schema v5 dropped the v3 `worker_sweep` (the parallel executor and
    its exact makespan gate are gone).
    Schema v4 adds `alert_latency_sweep` (streaming alert-to-plan):
    the latency percentiles are host wall clock and not gated, but
    `frontier_total` / `frontier_max` / `plans_equal` are exact-gated,
    `plans_equal` must be true, and `full_rebuilds` must be ZERO -- a
    steady-state storm that falls back to a scratch dependence rebuild
    is a correctness regression in the streaming layer, whatever the
    timings say.
  * ctmc_scalability     -- solver_sweep rows keyed by `states`;
    watches `sparse_steady_ms` at the largest state count.
  * storage_recovery     -- recovery_sweep rows keyed by `workflows`;
    watches `recover_ms` (snapshot decode + WAL replay) at the largest
    fleet. SCALING GATES on the fresh artifact alone (schema v2's
    `submit_sweep`, a clean trace through a durable TenantWorld):
    `us_per_submit` and `media_bytes_per_submission` at 4096
    submissions must each be <= 1.5x their value at 256 -- a submit is
    one WAL record and snapshots come by policy, so neither may grow
    with history.
  * service_load         -- tenant_sweep rows keyed by `tenants`;
    watches `wall_ms`. The same rows carry deterministic totals
    (`runs`, `log_entries`, `scans`, `recoveries`) -- pure functions of
    the seeded trace -- plus the `strict_correct` / `oracle_identical`
    verdicts, all exact-gated; a fresh run where either verdict is not
    true is a hard failure. Schema v2 adds `alert_to_plan_per_tenant`
    (the analyzer's streaming slice of heal latency): wall clock, so
    reported but not gated.
  * replication_load     -- loss_sweep rows keyed by `loss_pct`;
    watches `wall_ms`. Commit latency is measured in TRANSPORT ROUNDS
    (the replication fabric's virtual clock), so the p50/p99/max
    values, message counts, and the failover_sweep scenario (leader
    killed mid-recovery, remaining steps finish on the new leader) are
    all deterministic and exact-gated; `all_identical` /
    `mid_recovery_failover` / `recovered_on_new_leader` must be true.

Prints one markdown comparison table per pair (also appended to
--summary-out, which CI points at $GITHUB_STEP_SUMMARY) and emits a
GitHub `::warning::` annotation when a watched metric regresses more
than 3x against its baseline. Perf on shared runners is noisy, so this
script NEVER fails the job on a regression; it only fails on unreadable
or malformed input (a CI wiring bug, not a perf signal).
"""

import argparse
import json
import sys

WARN_RATIO = 3.0

# bench name -> (rows key, row key field, comparison columns, watched metric)
BENCHES = {
    "recovery_scalability": {
        "rows": "fleet_sweep",
        "key": "workflows",
        "columns": ("analyze_incremental_ms", "analyze_rebuild_ms", "recover_ms"),
        "watch": "analyze_incremental_ms",
        # Deterministic sections: exact-match gates, not perf watches.
        # Per-operation cost at the large size vs the small one, read
        # from the FRESH artifact only.
        "scaling": {
            "rows": "fleet_sweep",
            "key": "workflows",
            "cost": "recover_ms",
            "per": "touched",
            "small": 256,
            "large": 4096,
            "max_ratio": 1.5,
            "hint": " (run with --big)",
        },
        "det": [
            {
                "rows": "alert_latency_sweep",
                "keys": ("workflows", "ingest_runs"),
                "exact": ("rounds", "frontier_total", "frontier_max",
                          "plans_equal"),
                "must_true": ("plans_equal",),
                # Fields that must be 0 in the FRESH artifact: any
                # fallback rebuild during the steady-state storm means
                # the streaming splice/taint path silently gave up.
                "must_zero": ("full_rebuilds",),
            },
        ],
    },
    "ctmc_scalability": {
        "rows": "solver_sweep",
        "key": "states",
        "columns": ("sparse_steady_ms", "dense_gth_ms", "dense_lu_ms"),
        "watch": "sparse_steady_ms",
    },
    "storage_recovery": {
        "rows": "recovery_sweep",
        "key": "workflows",
        "columns": ("checkpoint_ms", "scan_ms", "recover_ms"),
        "watch": "recover_ms",
        "scaling": [
            {
                "rows": "submit_sweep",
                "key": "submissions",
                "cost": cost,
                "small": 256,
                "large": 4096,
                "max_ratio": 1.5,
            }
            for cost in ("us_per_submit", "media_bytes_per_submission")
        ],
    },
    "replication_load": {
        "rows": "loss_sweep",
        "key": "loss_pct",
        "columns": ("wall_ms",),
        "watch": "wall_ms",
        # Everything measured in transport rounds is a pure function of
        # the seed: commit latency percentiles, message counts, and the
        # failover scenario are exact-gated; only wall_ms is host time.
        "det": [
            {
                "rows": "loss_sweep",
                "keys": ("loss_pct", "replicas"),
                "exact": ("commits", "steps_committed",
                          "commit_p50_rounds", "commit_p99_rounds",
                          "commit_max_rounds", "rounds", "messages_sent",
                          "messages_dropped", "elections", "all_identical"),
                "must_true": ("all_identical",),
            },
            {
                "rows": "failover_sweep",
                "keys": ("replicas",),
                "exact": ("kill_at", "failover_p50_rounds",
                          "failover_max_rounds", "commits",
                          "steps_committed", "elections",
                          "mid_recovery_failover",
                          "recovered_on_new_leader"),
                "must_true": ("mid_recovery_failover",
                              "recovered_on_new_leader"),
            },
        ],
    },
    "service_load": {
        "rows": "tenant_sweep",
        "key": "tenants",
        "columns": ("wall_ms", "ack_p99_us", "heal_p99_us"),
        "watch": "wall_ms",
        "det": {
            "rows": "tenant_sweep",
            "keys": ("tenants", "workers"),
            "exact": ("runs", "log_entries", "scans", "recoveries",
                      "strict_correct", "oracle_identical"),
            "must_true": ("strict_correct", "oracle_identical"),
        },
    },
}


def load_rows(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    bench = data.get("bench")
    spec = BENCHES.get(bench)
    if spec is None:
        raise ValueError(f"{path}: unknown bench {bench!r}")
    rows = data.get(spec["rows"])
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: missing or empty {spec['rows']}")
    return bench, spec, {row[spec["key"]]: row for row in rows}, data


def compare_det(bench, det, baseline_data, fresh_data):
    """Exact-match gate over a deterministic section. Returns
    (markdown lines, error annotation lines)."""
    base_rows = baseline_data.get(det["rows"]) or []
    fresh_rows = fresh_data.get(det["rows"]) or []
    if not base_rows and not fresh_rows:
        return [], []  # pre-v3 artifacts on both sides: nothing to gate
    keyed = lambda rows: {
        tuple(row[k] for k in det["keys"]): row for row in rows
    }
    base, fresh = keyed(base_rows), keyed(fresh_rows)

    key_label = ", ".join(det["keys"])
    lines = [f"### Deterministic gate: {bench} ({det['rows']})", ""]
    header = f"| {key_label} |"
    rule = "|---|"
    for col in det["exact"]:
        header += f" {col} (base / fresh) |"
        rule += "---|"
    lines += [header, rule]

    # Gate on the shared cells only: the committed baseline carries the
    # full --big sweep, while CI's smoke run measures the small fleets.
    shared = sorted(set(base) & set(fresh))
    if not shared:
        raise ValueError(f"{bench}: no common {det['rows']} rows to gate")
    errors = []
    for k in shared:
        cells = []
        for col in det["exact"]:
            b, f = base[k].get(col), fresh[k].get(col)
            marker = "" if b == f else " **MISMATCH**"
            cells.append(f" {b} / {f}{marker} |")
            if b != f:
                errors.append(
                    f"::error title=perf-smoke::{bench} {det['rows']} "
                    f"({key_label})={k} {col}: baseline {b} != fresh {f}"
                )
        lines.append(f"| {k} |" + "".join(cells))
        for col in det.get("must_true", ()):
            if fresh[k].get(col) is not True:
                errors.append(
                    f"::error title=perf-smoke::{bench} {det['rows']} "
                    f"({key_label})={k}: {col} is "
                    f"{fresh[k].get(col)!r}, must be true"
                )
        for col in det.get("must_zero", ()):
            if fresh[k].get(col) != 0:
                errors.append(
                    f"::error title=perf-smoke::{bench} {det['rows']} "
                    f"({key_label})={k}: {col} is "
                    f"{fresh[k].get(col)!r}, must be 0"
                )
    skipped = sorted((set(base) | set(fresh)) - set(shared))
    lines.append("")
    if skipped:
        lines.append(f"(not measured on both sides, skipped: {skipped})")
    lines.append(
        "Deterministic fields must match the committed baseline exactly "
        "(model outputs, not wall clock); a mismatch fails the job."
        if errors
        else "All deterministic fields match the committed baseline."
    )
    return lines, errors


def check_scaling(bench, scaling, fresh_data):
    """Returns (markdown lines, error lines) for a fresh-artifact
    complexity gate: cost per unit at `large` <= max_ratio x at `small`.
    Without a `per` field the cost is already per operation."""
    rows = {r[scaling["key"]]: r for r in fresh_data.get(scaling["rows"], [])}
    small, large = scaling["small"], scaling["large"]
    cost, per = scaling["cost"], scaling.get("per")
    label = f"{cost} per {per}" if per else cost
    if small not in rows or large not in rows:
        return [f"Scaling gate ({label}): skipped, no "
                f"{scaling['key']}={large} row{scaling.get('hint', '')}."], []

    small_per = max(rows[small][per], 1) if per else 1
    lo = rows[small][cost] / small_per
    hi = rows[large][cost] / (max(rows[large][per], small_per) if per else 1)
    ratio = hi / lo if lo > 0 else float("inf")
    line = (f"Scaling gate: {label} at {scaling['key']}={large} is "
            f"{hi:.5f} vs {lo:.5f} at {small} ({ratio:.2f}x, limit "
            f"{scaling['max_ratio']:.2f}x).")
    if ratio > scaling["max_ratio"]:
        return [line], [f"::error title=scaling-gate::{bench}: {line}"]
    return [line], []


def fmt_ratio(base, fresh):
    # Skipped measurements (e.g. dense columns above the cap) are <= 0.
    if base <= 0 or fresh <= 0:
        return "n/a"
    return f"{fresh / base:.2f}x"


def compare_pair(baseline_path, fresh_path):
    """Returns (markdown lines, warning line or None, error lines)."""
    base_bench, spec, baseline, baseline_data = load_rows(baseline_path)
    fresh_bench, _, fresh, fresh_data = load_rows(fresh_path)
    if base_bench != fresh_bench:
        raise ValueError(
            f"bench mismatch: {baseline_path} is {base_bench}, "
            f"{fresh_path} is {fresh_bench}"
        )

    key = spec["key"]
    lines = [f"### Perf smoke: {base_bench} ({spec['rows']})", ""]
    header = f"| {key} |"
    rule = "|---|"
    for col in spec["columns"]:
        header += f" {col} (base -> fresh) | ratio |"
        rule += "---|---|"
    lines += [header, rule]

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        raise ValueError(f"{base_bench}: no common {key} values")
    for k in shared:
        row = f"| {k} |"
        for col in spec["columns"]:
            b, f = baseline[k].get(col, -1), fresh[k].get(col, -1)
            row += f" {b:.4f} -> {f:.4f} | {fmt_ratio(b, f)} |"
        lines.append(row)

    # Watched metric = the largest row both files measured.
    steady = shared[-1]
    watch = spec["watch"]
    b = baseline[steady][watch]
    f = fresh[steady][watch]
    regressed = b > 0 and f > WARN_RATIO * b
    lines.append("")
    warning = None
    if regressed:
        lines.append(
            f"**WARNING:** {watch} at {key}={steady} regressed "
            f"{f / b:.2f}x ({b:.4f} ms -> {f:.4f} ms, "
            f"threshold {WARN_RATIO:.0f}x)."
        )
        warning = (
            f"::warning title=perf-smoke::{base_bench} {watch} at "
            f"{key}={steady} regressed {f / b:.2f}x "
            f"({b:.4f} ms -> {f:.4f} ms)"
        )
    else:
        lines.append(
            f"{watch} at {key}={steady}: {fmt_ratio(b, f)} of baseline "
            f"(warn threshold {WARN_RATIO:.0f}x)."
        )

    errors = []
    scalings = spec.get("scaling") or []
    if isinstance(scalings, dict):
        scalings = [scalings]
    for scaling in scalings:
        scale_lines, scale_errors = check_scaling(base_bench, scaling,
                                                  fresh_data)
        lines += [""] + scale_lines
        errors += scale_errors
    dets = spec.get("det") or []
    if isinstance(dets, dict):
        dets = [dets]
    for det in dets:
        det_lines, det_errors = compare_det(base_bench, det, baseline_data,
                                            fresh_data)
        errors += det_errors
        if det_lines:
            lines += [""] + det_lines
    return lines, warning, errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("pairs", nargs="+", metavar="BASELINE FRESH",
                        help="one or more BASELINE FRESH file pairs")
    parser.add_argument("--summary-out", default=None)
    args = parser.parse_args()

    if len(args.pairs) % 2 != 0:
        print("perf_compare: expected BASELINE FRESH pairs", file=sys.stderr)
        return 1

    all_lines = []
    warnings = []
    errors = []
    try:
        for i in range(0, len(args.pairs), 2):
            lines, warning, errs = compare_pair(args.pairs[i], args.pairs[i + 1])
            if all_lines:
                all_lines.append("")
            all_lines += lines
            if warning:
                warnings.append(warning)
            errors += errs
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"perf_compare: bad input: {err}", file=sys.stderr)
        return 1

    table = "\n".join(all_lines)
    print(table)
    for warning in warnings:
        print(warning)
    for error in errors:
        print(error)
    if args.summary_out:
        with open(args.summary_out, "a", encoding="utf-8") as fh:
            fh.write(table + "\n")
    # Deterministic-gate mismatches are correctness drift, not perf noise.
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
