#!/usr/bin/env python3
"""CI smoke check for BENCH_transport.json.

Hard-fails when any backend series is missing (the bench must sweep the
in-memory, Unix-domain-socket and TCP transports for every workload), when
reduce over uds copies more payload bytes per element than
MAX_REDUCE_UDS_COPIES_PER_ELEM, or when the socket send path stops
amortizing syscalls: uds p2p must move at least MIN_P2P_UDS_BYTES_PER_SYSCALL
bytes per send syscall. Copy counts do not depend on the schedule, and the
syscall floor is absolute rather than a ratio to a second schedule-dependent
series. Wall-time ratios (socket-vs-inmem slowdown) stay soft checks —
shared CI runners are too noisy — and only print warnings.
"""

import json
import sys

PATH = sys.argv[1] if len(sys.argv) > 1 else "BENCH_transport.json"
WORKLOADS = ["p2p", "bcast", "reduce"]
BACKENDS = ["inmem", "uds", "tcp"]
REQUIRED = [f"{w}_{b}" for w in WORKLOADS for b in BACKENDS]
# Soft floor: sockets within this factor of the in-memory fast path.
SLOWDOWN_BUDGET = 20.0
# Hard floor: uds p2p must batch at least this many bytes into each send
# syscall: 4x the 3078 B per syscall that one write per frame achieved on
# one core (EXPERIMENTS.md, socket plane table).
MIN_P2P_UDS_BYTES_PER_SYSCALL = 4 * 3078
# Hard ceiling: payload bytes copied per reduced element byte (i32, 4 bytes)
# on reduce_uds. Leaves carry contributions as runs (one copy at the leaf,
# one serialization at the socket; only window-end tails travel as copied
# packets). Measured 5.0918 at 64K elements with the default 512-credit
# window; the packet-per-call reduce measured 7.0820.
MAX_REDUCE_UDS_COPIES_PER_ELEM = 5.092

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

# Hard gate: syscall amortization of the vectored send path (many frames
# per write + adaptive cork), on uds where the kernel socket path is
# cheapest and batching matters most.
bps = point("p2p_uds").get("bytes_per_syscall", 0.0)
if bps < MIN_P2P_UDS_BYTES_PER_SYSCALL:
    print(
        f"ERROR: p2p_uds moves {bps:.0f} B per send syscall, below the "
        f"{MIN_P2P_UDS_BYTES_PER_SYSCALL} B floor"
    )
    sys.exit(1)
print(
    f"ok: p2p_uds batches {bps:.0f} B per send syscall "
    f"(>= {MIN_P2P_UDS_BYTES_PER_SYSCALL})"
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
