#!/usr/bin/env python3
"""CI smoke check for BENCH_transport.json.

Hard-fails when any backend series is missing (the bench must sweep the
in-memory, Unix-domain-socket and TCP transports for every workload, plus
the unpooled p2p baselines for the socket backends) or when the pooled
socket fast path stops amortizing syscalls: uds p2p must move at least
MIN_SYSCALL_AMORTIZATION more bytes per send syscall than the unpooled v2
baseline, or when reduce over uds copies more payload bytes per element
than MAX_REDUCE_UDS_COPIES_PER_ELEM. Copy counts do not depend on the
schedule and syscall counts are deterministic enough to gate hard; wall-time
ratios (socket-vs-inmem slowdown, pooled-vs-unpooled throughput) stay
soft checks — shared CI runners are too noisy — and only print warnings.
"""

import json
import sys

PATH = sys.argv[1] if len(sys.argv) > 1 else "BENCH_transport.json"
WORKLOADS = ["p2p", "bcast", "reduce"]
BACKENDS = ["inmem", "uds", "tcp"]
REQUIRED = [f"{w}_{b}" for w in WORKLOADS for b in BACKENDS] + [
    "p2p_uds_unpooled",
    "p2p_tcp_unpooled",
]
# Soft floor: sockets within this factor of the in-memory fast path.
SLOWDOWN_BUDGET = 20.0
# Hard floor: pooled uds p2p must batch at least this many times more
# bytes into each send syscall than the unpooled baseline.
MIN_SYSCALL_AMORTIZATION = 4.0
# Hard ceiling: payload bytes copied per reduced element byte (i32, 4 bytes)
# on reduce_uds. Leaves carry contributions as runs (one copy at the leaf,
# one serialization at the socket; only window-end tails travel as copied
# packets). Measured 5.0918 at 64K elements with the default 512-credit
# window; the packet-per-call reduce measured 7.0820.
MAX_REDUCE_UDS_COPIES_PER_ELEM = 5.092
# Soft floor: pooling must not cost more than this much p2p throughput.
POOLING_REGRESSION_BUDGET = 1.5

with open(PATH) as f:
    data = json.load(f)
points = data["points"]
series = {p["series"] for p in points}

missing = [s for s in REQUIRED if s not in series]
if missing:
    print(f"ERROR: {PATH} is missing required series: {missing}")
    sys.exit(1)
print(f"ok: all {len(REQUIRED)} backend series present in {PATH}")


def point(name):
    for p in points:
        if p["series"] == name:
            return p
    return None


def rate(name):
    p = point(name)
    return p["melem_per_s"] if p else None


# Hard gate: payload copies of reduce over uds (schedule-independent).
reduce = point("reduce_uds")
if "payload_copies" not in reduce:
    print("ERROR: reduce_uds recorded no payload_copies")
    sys.exit(1)
reduce_copies = reduce["payload_copies"] / (reduce["elems"] * 4)
if reduce_copies > MAX_REDUCE_UDS_COPIES_PER_ELEM:
    print(
        f"ERROR: reduce_uds copies {reduce_copies:.4f} payload bytes per element "
        f"byte, above the {MAX_REDUCE_UDS_COPIES_PER_ELEM} ceiling"
    )
    sys.exit(1)
print(
    f"ok: reduce_uds copies {reduce_copies:.4f} per element "
    f"(<= {MAX_REDUCE_UDS_COPIES_PER_ELEM})"
)

# Hard gate: syscall amortization of the pooled fast path (vectored writes
# + adaptive cork) over the unpooled per-frame baseline, on uds where the
# kernel socket path is cheapest and batching matters most.
pooled = point("p2p_uds")
unpooled = point("p2p_uds_unpooled")
pooled_bps = pooled.get("bytes_per_syscall", 0.0)
unpooled_bps = unpooled.get("bytes_per_syscall", 0.0)
if unpooled_bps <= 0:
    print("ERROR: p2p_uds_unpooled recorded no send syscalls")
    sys.exit(1)
amortization = pooled_bps / unpooled_bps
if amortization < MIN_SYSCALL_AMORTIZATION:
    print(
        f"ERROR: p2p_uds moves {pooled_bps:.0f} B/syscall vs "
        f"{unpooled_bps:.0f} unpooled -> {amortization:.2f}x, "
        f"below the {MIN_SYSCALL_AMORTIZATION:.1f}x floor"
    )
    sys.exit(1)
print(
    f"ok: p2p_uds batches {pooled_bps:.0f} B/syscall vs "
    f"{unpooled_bps:.0f} unpooled ({amortization:.2f}x >= "
    f"{MIN_SYSCALL_AMORTIZATION:.1f}x)"
)

# Soft gate: pooling should not regress p2p throughput.
for b in ("uds", "tcp"):
    on, off = rate(f"p2p_{b}"), rate(f"p2p_{b}_unpooled")
    if not on or not off:
        continue
    ratio = off / on
    verdict = (
        "ok"
        if ratio <= POOLING_REGRESSION_BUDGET
        else "WARNING (soft check, not failing the build)"
    )
    print(
        f"p2p_{b}: pooled {on:.2f} vs unpooled {off:.2f} Melem/s "
        f"-> {ratio:.2f}x of budget {POOLING_REGRESSION_BUDGET:.1f}x ({verdict})"
    )


for w in WORKLOADS:
    base = rate(f"{w}_inmem")
    if not base:
        print(f"WARNING: no in-memory baseline rate for {w}; skipping comparison")
        continue
    for b in ("uds", "tcp"):
        got = rate(f"{w}_{b}")
        if not got:
            print(f"WARNING: zero/missing rate for {w}_{b}; skipping comparison")
            continue
        slowdown = base / got
        verdict = (
            "ok"
            if slowdown <= SLOWDOWN_BUDGET
            else "WARNING (soft check, not failing the build)"
        )
        print(
            f"{w}: {b} {got:.2f} vs inmem {base:.2f} Melem/s "
            f"-> {slowdown:.2f}x slowdown ({verdict})"
        )
sys.exit(0)
