#!/usr/bin/env python3
"""CI check for BENCH_scaling.json (work-stealing executor acceptance).

Hard checks (fail the build):
  * The worker-sweep series (`task_bulk_sweep` / `task_bulk_static`) must
    be present, with a 1-worker point for every swept rank count — the
    bench must always produce the no-regression pair.
  * The skewed-cluster series (`skewed_steal` / `skewed_static`) must be
    present at 1 worker.
  * At 1 worker, stealing must not collapse against static sharding:
    steal >= HARD_FLOOR x static for every rank count. This is the
    "stealing bookkeeping is free when uncontended" bar.
  * Setup: the `routing` record must cover 8/64/256 ranks, and routing a
    256-rank bus (`RoutingPlan::compute`, best of several runs) must take
    at most ROUTING_256_MAX_S. Table-only route generation measures a few
    ms there; materializing every per-pair path took 37-170 ms, depending
    on the host.

Soft checks (warn only — shared CI runners may expose a single core, so
multi-worker speedups are not reliably measurable there):
  * steal >= SOFT_FLOOR x static at 1 worker.
  * With >1 available cores: multi-worker throughput should not fall
    below the 1-worker run, and skewed stealing should beat skewed
    static.
"""

import json
import sys

PATH = sys.argv[1] if len(sys.argv) > 1 else "BENCH_scaling.json"
SWEEP_RANKS = [8, 64, 256]
HARD_FLOOR = 0.6  # steal < 0.6x static at 1 worker = regression, fail
SOFT_FLOOR = 0.9  # below this just warn: CI noise
ROUTING_256_MAX_S = 0.025  # 256-rank bus route generation, hard

with open(PATH) as f:
    data = json.load(f)
points = data["points"]
ap = data.get("available_parallelism", 1)
series = {p["series"] for p in points}

required = ["task_bulk_sweep", "task_bulk_static", "skewed_steal", "skewed_static"]
missing = [s for s in required if s not in series]
if missing:
    print(f"ERROR: {PATH} is missing required series: {missing}")
    sys.exit(1)
print(f"ok: all executor series present in {PATH} (available_parallelism={ap})")


def rate(name, ranks, workers):
    for p in points:
        if p["series"] == name and p["ranks"] == ranks and p["workers"] == workers:
            return p["melem_per_s"]
    return None


status = 0

# --- hard: 1-worker no-regression pair for every swept rank count ---
for ranks in SWEEP_RANKS:
    steal = rate("task_bulk_sweep", ranks, 1)
    static = rate("task_bulk_static", ranks, 1)
    if steal is None or static is None:
        print(f"ERROR: missing 1-worker sweep point at {ranks} ranks "
              f"(steal={steal}, static={static})")
        status = 1
        continue
    ratio = steal / static if static > 0 else float("inf")
    if ratio < HARD_FLOOR:
        print(f"ERROR: 1-worker stealing collapsed at {ranks} ranks: "
              f"{steal:.2f} vs {static:.2f} Melem/s ({ratio:.2f}x < {HARD_FLOOR}x)")
        status = 1
    elif ratio < SOFT_FLOOR:
        print(f"WARNING: 1-worker stealing below static at {ranks} ranks: "
              f"{steal:.2f} vs {static:.2f} Melem/s ({ratio:.2f}x)")
    else:
        print(f"ok: 1-worker no-regression at {ranks} ranks "
              f"({steal:.2f} vs {static:.2f} Melem/s, {ratio:.2f}x)")

# --- hard: skewed pair present at 1 worker ---
sk_steal = rate("skewed_steal", 64, 1)
sk_static = rate("skewed_static", 64, 1)
if sk_steal is None or sk_static is None:
    print("ERROR: missing 1-worker skewed points")
    status = 1
else:
    ratio = sk_steal / sk_static if sk_static > 0 else float("inf")
    if ratio < HARD_FLOOR:
        print(f"ERROR: skewed stealing collapsed at 1 worker: "
              f"{sk_steal:.2f} vs {sk_static:.2f} Melem/s ({ratio:.2f}x)")
        status = 1
    else:
        print(f"ok: skewed 1-worker pair ({sk_steal:.2f} vs {sk_static:.2f} "
              f"Melem/s, {ratio:.2f}x)")

# --- hard: route generation (setup) cost ---
routing = {r["ranks"]: r["seconds"] for r in data.get("routing", [])}
missing_routing = [r for r in SWEEP_RANKS if r not in routing]
if missing_routing:
    print(f"ERROR: routing record missing rank counts {missing_routing}")
    status = 1
else:
    for ranks in SWEEP_RANKS:
        print(f"ok: routing {ranks} ranks in {routing[ranks] * 1e3:.3f} ms")
    if routing[256] > ROUTING_256_MAX_S:
        print(f"ERROR: 256-rank routing took {routing[256] * 1e3:.2f} ms "
              f"(> {ROUTING_256_MAX_S * 1e3:.0f} ms)")
        status = 1

# --- soft: multi-worker behaviour (only measurable with >1 cores) ---
if ap > 1:
    for ranks in SWEEP_RANKS:
        base = rate("task_bulk_sweep", ranks, 1)
        best_w, best = max(
            ((p["workers"], p["melem_per_s"]) for p in points
             if p["series"] == "task_bulk_sweep" and p["ranks"] == ranks),
            key=lambda t: t[1],
        )
        if base and best < base:
            print(f"WARNING: no multi-worker gain at {ranks} ranks "
                  f"(best {best:.2f} Melem/s at {best_w} workers vs {base:.2f} at 1)")
        elif base:
            print(f"ok: {ranks} ranks peak {best:.2f} Melem/s at {best_w} workers "
                  f"({best / base:.2f}x over 1 worker)")
    mw_steal = rate("skewed_steal", 64, 2)
    mw_static = rate("skewed_static", 64, 2)
    if mw_steal is not None and mw_static is not None and mw_steal < mw_static:
        print(f"WARNING: skewed stealing did not beat static at 2 workers "
              f"({mw_steal:.2f} vs {mw_static:.2f} Melem/s)")
    elif mw_steal is not None and mw_static is not None:
        print(f"ok: skewed 2-worker stealing beats static "
              f"({mw_steal:.2f} vs {mw_static:.2f} Melem/s)")
else:
    print("note: single-core runner — multi-worker speedup checks skipped")

sys.exit(status)
