//! The socket link backend: framed [`NetworkPacket`] bursts over
//! nonblocking TCP or Unix-domain sockets, with a session/replay layer that
//! heals mid-stream disconnects losslessly.
//!
//! One connection is opened per pair of OS processes and multiplexes every
//! topology edge crossing that boundary. The wire is a stream of frames,
//! each `[src_rank u16 LE][src_qsfp u16 LE][len u32 LE][seq u64 LE]`
//! followed by a body. The `(src_rank, src_qsfp)` tag is the *sender-side*
//! endpoint of the topology edge the burst travels, which is all the
//! receiver needs to demux the frame onto the right CKR input. `seq`
//! numbers data frames 1, 2, 3… per connection.
//!
//! A data frame sets bit 31 of `len` ([`V3_FLAG`]); the low 31 bits are the
//! body *byte length*, and the body is a sequence of typed items —
//! [`V3_ITEM_PKT`] (one packed [`NetworkPacket`]) or [`V3_ITEM_RUN`]
//! (`[dtype u8][4-byte packed header][nbytes u32 LE]` + densely packed
//! payload). A data frame without the flag is stream corruption. Run
//! payloads are appended with one `memcpy` at encode time and decoded into
//! [`PayloadRun`] *views* of the pooled receive block, so each payload byte
//! is copied exactly once per boundary crossing. Encode buffers come from a
//! free list refilled on ack; sends go out as one `write_vectored` spanning
//! every unwritten ring frame plus a side buffer of whole control frames
//! (piggybacked acks), behind an adaptive cork that coalesces small
//! same-pair bursts under one frame header. Side bytes only ever enter the
//! stream at a frame boundary. Two `src_rank` sentinels reuse the header
//! shape for control traffic:
//!
//! * [`HELLO_RANK`] — handshake frame (`len` = process index,
//!   `src_qsfp` bit 0 = resume flag, `seq` = session id, plus an 8-byte
//!   body carrying the sender's last contiguously received seq).
//! * [`ACK_RANK`] — cumulative ack (`seq` = highest contiguous seq
//!   received, no payload).
//!
//! The sender keeps every unacked encoded frame in a bounded replay ring;
//! on a mid-stream I/O fault the connection enters a `Reconnecting` health
//! state instead of dying: the dialing side re-dials the peer's data
//! listener under [`crate::RuntimeParams::stream_reconnect`] (jittered
//! exponential backoff), both sides exchange resume hellos carrying their
//! `last_recv`, the ring is rewound to the peer's ack point and unacked
//! frames are replayed. Receivers discard duplicate seqs, so recovery is
//! exactly-once and in-order. Only a budget-exhausted reconnect (or
//! [`crate::params::ReconnectPolicy::Fail`]) marks the peer dead.
//!
//! A connection with a [`FaultInjector`] runs the same flush with a
//! per-frame filter: each ring frame consults the injector once, when it
//! first reaches the write head, and is written, skipped (drop, delay) or
//! followed by a whole-frame copy on the side buffer (duplicate, released
//! delays); a sever shuts the stream once its frame is on the wire. Such a
//! connection writes one ring frame per syscall so side frames land right
//! after their trigger frame. A resume rewind makes replayed frames fresh
//! emissions.
//!
//! All socket I/O is performed by a [`SocketPump`] — a [`Pollable`]
//! registered with the same sharded executor that drives the CK machines.
//! CK machines themselves only touch lock-guarded queues via
//! [`super::link::Transport`] handles, so they never block on a syscall.
//! Re-dials arriving at a process are routed by an [`AcceptorPump`] (which
//! owns the long-lived data listener) through a [`ReconnectHub`] to the
//! pump that lost its stream.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smi_wire::{Datatype, Frame, Header, NetworkPacket, PacketRun, PayloadRun, PACKET_BYTES};

use crate::error::SmiError;
use crate::params::ReconnectPolicy;
use crate::transport::executor::{Pollable, Step};
use crate::transport::faults::{FaultAction, FaultInjector};
use crate::transport::link::{LinkRecv, LinkRx, LinkSend, LinkTx, Transport, TransportReceiver};
use crate::transport::{meter_inline_data, Burst, CopyMeter, WireStats};

/// Bytes of the per-burst frame header:
/// `[src_rank u16 LE][src_qsfp u16 LE][len u32 LE][seq u64 LE]`.
pub(crate) const FRAME_HEADER_BYTES: usize = 16;

/// `src_rank` sentinel marking a hello (handshake) frame; its `len`
/// field carries the sender's process index, `src_qsfp` carries flags
/// (bit 0 = resume), `seq` carries the session id, and an 8-byte body
/// carries the sender's last contiguously received data seq.
pub(crate) const HELLO_RANK: u16 = u16::MAX;

/// `src_rank` sentinel marking a cumulative-ack frame; its `seq` field
/// carries the highest contiguously received data seq (no payload).
pub(crate) const ACK_RANK: u16 = u16::MAX - 1;

/// Total bytes of a hello frame (header + 8-byte `last_recv` body).
pub(crate) const HELLO_BYTES: usize = FRAME_HEADER_BYTES + 8;

/// Cap (in bursts) of each per-link inbound demux queue. A full queue stops
/// the pump from parsing further frames — head-of-line backpressure on the
/// whole connection, resolved as soon as the slow CKR input drains.
const INBOUND_QUEUE_CAP: usize = 1024;

/// Least free space a receive block needs for the next `read`; a fuller
/// block is rotated out.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on buffered side bytes; past this the pump skips generating new
/// acks until the writer drains (they are cumulative, so skipped acks are
/// subsumed by the next one).
const CTRL_CAP: usize = 64 * 1024;

/// Read timeout of the blocking resume-hello exchange; a failed exchange
/// costs one reconnect attempt, so this also bounds how long one attempt
/// can occupy an executor worker.
const RESUME_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Extra per-attempt patience of the listening side of a broken connection:
/// each of its wait windows is the dialer's backoff plus this grace, so the
/// waiter's budget always outlasts the dialer's dial schedule.
const RESUME_GRACE: Duration = Duration::from_millis(500);

/// How long the oldest transmitted frame may sit unacked with no
/// cumulative-ack progress before the pump treats the stream as faulted and
/// forces a resume handshake. Loss is normally detected by the receiver as
/// a sequence gap, but a gap needs a *later* frame to expose it — a fault
/// on the last frame of a burst is invisible to the receiver, so the sender
/// must probe. Only recoverable pumps probe: with recovery off the probe
/// could only turn a slow-but-live link into a dead one.
const ACK_PROBE_TIMEOUT: Duration = Duration::from_millis(400);

/// Bit flag in the `len` header field that every data frame carries: the
/// low 31 bits are the body *byte length*, and the body is a sequence of
/// typed items ([`V3_ITEM_PKT`] / [`V3_ITEM_RUN`]).
pub(crate) const V3_FLAG: u32 = 1 << 31;

/// v3 item kind byte: one 32-byte packed packet follows.
pub(crate) const V3_ITEM_PKT: u8 = 0;

/// v3 item kind byte: a dense run follows —
/// `[dtype u8][4-byte packed header][nbytes u32 LE]` + payload.
pub(crate) const V3_ITEM_RUN: u8 = 1;

/// Fixed bytes of a v3 run item before its payload (kind + dtype +
/// packed header + length).
pub(crate) const V3_RUN_ITEM_HEADER: usize = 1 + 1 + 4 + 4;

/// Capacity of each pooled receive block. Encode-side splitting keeps
/// every frame smaller than this, so a whole frame always fits one block
/// and run payloads can be handed out as views of it.
const RECV_BLOCK_CAP: usize = 256 * 1024;

/// Sanity bound on a v3 frame body; our own encoder splits at
/// [`FRAME_SPLIT_BYTES`], so anything larger is stream corruption.
const MAX_FRAME_BODY_BYTES: usize = RECV_BLOCK_CAP - FRAME_HEADER_BYTES;

/// Encode-side split threshold: a burst whose v3 body would exceed this
/// is chunked into multiple frames (each with its own seq).
const FRAME_SPLIT_BYTES: usize = 64 * 1024;

/// Adaptive cork: a pending write is deferred only while it keeps growing
/// from one pump poll to the next, and is flushed as soon as this many
/// outbound bytes are pending…
const CORK_FLUSH_BYTES: usize = 32 * 1024;

/// …or after this many deferring polls, whichever comes first. Kept well
/// under the executor's cold-idle threshold so a corked pump is never
/// parked long with data in hand.
const CORK_MAX_DEFERS: u32 = 8;

/// Cap on a cork-merged frame body: merging stops growing a frame past
/// this, bounding replay granularity and receive-side burst size.
const CORK_MERGE_CAP: usize = 8 * 1024;

/// Max recycled buffers kept on each free list (encode buffers, receive
/// blocks).
const POOL_CAP: usize = 64;

/// Encode buffers with more capacity than this are dropped instead of
/// pooled (no hoarding of one-off giants).
const ENC_BUF_POOL_MAX: usize = FRAME_SPLIT_BYTES + 4096;

/// Max `IoSlice`s per `write_vectored` call (comfortably under IOV_MAX).
const MAX_IOV: usize = 64;

// ---------------------------------------------------------------------------
// Fabric health
// ---------------------------------------------------------------------------

/// Why a peer was declared dead: an unrecoverable link fault, or a local
/// replay-budget misconfiguration (maps to [`SmiError::ReplayOverflow`]).
#[derive(Debug, Clone)]
pub(crate) enum PeerDownKind {
    /// The connection died and recovery was off or exhausted.
    Link,
    /// One frame exceeded the whole replay budget; see
    /// [`SmiError::ReplayOverflow`].
    ReplayOverflow {
        /// Bytes the frame needed.
        needed: usize,
        /// Configured replay budget in bytes.
        budget: usize,
    },
}

/// What is known about a dead peer process, for diagnostics.
#[derive(Debug, Clone)]
pub(crate) struct PeerDown {
    /// Lowest world rank hosted by the dead process (what
    /// [`SmiError::PeerDisconnected`] reports).
    pub rank: usize,
    /// Index of the dead process in the process plan.
    pub process: usize,
    /// Backend name (`"tcp"` / `"uds"`).
    pub backend: &'static str,
    /// Peer address as resolved at connect time.
    pub addr: String,
    /// What the pump observed (EOF, truncated frame, I/O error...).
    pub detail: String,
    /// Classification; selects the error channel ops surface.
    pub kind: PeerDownKind,
}

/// Identity of the peer process behind one connection; the template a
/// [`SocketPump`] turns into a [`PeerDown`] when the link dies.
#[derive(Debug, Clone)]
pub(crate) struct PeerInfo {
    /// Lowest world rank hosted by the peer process.
    pub rank: usize,
    /// Peer process index in the process plan.
    pub process: usize,
    /// Backend name (`"tcp"` / `"uds"`).
    pub backend: &'static str,
    /// Peer address as resolved at connect time.
    pub addr: String,
}

/// One peer currently in mid-stream recovery, for diagnostics
/// (`stall_message` reports these).
#[derive(Debug, Clone)]
pub(crate) struct ReconnectInfo {
    /// Lowest world rank hosted by the reconnecting peer process.
    pub rank: usize,
    /// Peer process index in the process plan.
    pub process: usize,
    /// Reconnect attempt currently in flight (0-based).
    pub attempt: u32,
    /// The fault that started (or most recently extended) the recovery.
    pub detail: String,
}

#[derive(Debug, Default)]
struct HealthInner {
    down: AtomicBool,
    first: Mutex<Option<PeerDown>>,
    reconnecting: Mutex<HashMap<usize, ReconnectInfo>>,
    nrecon: AtomicUsize,
    healed: AtomicUsize,
}

/// Fabric-wide peer-liveness board, shared between socket pumps, endpoint
/// tables and the task watchdog. Peers move `Healthy → Reconnecting
/// {attempt} → Healthy | Dead`; only `Dead` surfaces an error to channel
/// ops (they keep polling through `Reconnecting`). The default (in-memory
/// fabric) never reports anything.
#[derive(Debug, Clone, Default)]
pub(crate) struct FabricHealth {
    inner: Arc<HealthInner>,
}

impl FabricHealth {
    /// Record a dead peer. The first report wins; later ones only keep the
    /// `down` flag set. Ends any in-progress recovery for that process.
    pub fn mark_down(&self, pd: PeerDown) {
        let process = pd.process;
        let mut slot = self.inner.first.lock().expect("health lock");
        if slot.is_none() {
            *slot = Some(pd);
        }
        drop(slot);
        self.inner.down.store(true, Ordering::Release);
        let mut rec = self.inner.reconnecting.lock().expect("health lock");
        rec.remove(&process);
        self.inner.nrecon.store(rec.len(), Ordering::Release);
    }

    /// Record that the connection to `info.process` is in mid-stream
    /// recovery (entering, or moving to a later attempt).
    pub fn mark_reconnecting(&self, info: ReconnectInfo) {
        let mut rec = self.inner.reconnecting.lock().expect("health lock");
        rec.insert(info.process, info);
        self.inner.nrecon.store(rec.len(), Ordering::Release);
    }

    /// Record a successful mid-stream recovery for `process`.
    pub fn mark_healthy(&self, process: usize) {
        let mut rec = self.inner.reconnecting.lock().expect("health lock");
        if rec.remove(&process).is_some() {
            self.inner.healed.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.nrecon.store(rec.len(), Ordering::Release);
    }

    /// Whether any connection is currently mid-recovery.
    pub fn any_reconnecting(&self) -> bool {
        self.inner.nrecon.load(Ordering::Acquire) > 0
    }

    /// Snapshot of all in-progress recoveries (for diagnostics).
    pub fn reconnecting_peers(&self) -> Vec<ReconnectInfo> {
        let rec = self.inner.reconnecting.lock().expect("health lock");
        let mut v: Vec<ReconnectInfo> = rec.values().cloned().collect();
        v.sort_by_key(|r| r.process);
        v
    }

    /// Number of successful mid-stream recoveries so far.
    pub fn healed(&self) -> usize {
        self.inner.healed.load(Ordering::Relaxed)
    }

    /// The first recorded peer death, if any.
    pub fn peer_down(&self) -> Option<PeerDown> {
        if !self.inner.down.load(Ordering::Acquire) {
            return None;
        }
        self.inner.first.lock().expect("health lock").clone()
    }

    /// The first recorded peer death as the error channel ops surface.
    pub fn error(&self) -> Option<SmiError> {
        self.peer_down().map(|p| match p.kind {
            PeerDownKind::Link => SmiError::PeerDisconnected { rank: p.rank },
            PeerDownKind::ReplayOverflow { needed, budget } => {
                SmiError::ReplayOverflow { needed, budget }
            }
        })
    }

    /// Upgrade a progress-starvation error (timeout, deadline, stall) to
    /// the recorded peer-death error when a dead peer explains the stall;
    /// all other errors pass through unchanged.
    pub fn escalate(&self, e: SmiError) -> SmiError {
        if matches!(
            e,
            SmiError::Timeout { .. } | SmiError::DeadlineExceeded { .. } | SmiError::Stalled { .. }
        ) {
            if let Some(err) = self.error() {
                return err;
            }
        }
        e
    }
}

// ---------------------------------------------------------------------------
// Stream + listener wrappers
// ---------------------------------------------------------------------------

/// A connected byte stream of either socket family.
pub(crate) enum SocketStream {
    /// TCP (loopback or cross-host).
    Tcp(TcpStream),
    /// Unix-domain (same host; the low-latency multi-process default).
    Unix(UnixStream),
}

impl SocketStream {
    /// Toggle nonblocking mode (the pump requires nonblocking; handshake
    /// exchanges run blocking with a read timeout).
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_nonblocking(nb),
            SocketStream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Bound blocking reads (used only during handshake exchanges).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(t),
            SocketStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Close both directions (peer sees EOF / EPIPE).
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// Human-readable peer address for diagnostics.
    pub fn peer_label(&self) -> String {
        match self {
            SocketStream::Tcp(s) => s
                .peer_addr()
                .map(|a| format!("tcp://{a}"))
                .unwrap_or_else(|_| "tcp://?".into()),
            SocketStream::Unix(s) => s
                .peer_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| format!("uds://{}", p.display())))
                .unwrap_or_else(|| "uds://<unnamed>".into()),
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            SocketStream::Unix(s) => s.write(buf),
        }
    }

    // Forward explicitly: the default impl would degrade to `write` on the
    // first slice, costing the fast path its syscall amortization.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write_vectored(bufs),
            SocketStream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.flush(),
            SocketStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound data listener of either socket family; the Unix variant owns
/// its filesystem path and removes it on drop.
pub(crate) enum SocketListener {
    /// Loopback (or cross-host) TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus the path it is bound to.
    Uds(UnixListener, PathBuf),
}

impl SocketListener {
    /// Bind an ephemeral loopback TCP listener; returns it and its
    /// dialable `host:port` address.
    pub fn bind_tcp() -> io::Result<(SocketListener, String)> {
        let l = TcpListener::bind("127.0.0.1:0")?;
        let addr = l.local_addr()?.to_string();
        Ok((SocketListener::Tcp(l), addr))
    }

    /// Bind a Unix-domain listener at `path` (removed on drop); returns it
    /// and the dialable path string.
    pub fn bind_uds(path: PathBuf) -> io::Result<(SocketListener, String)> {
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path)?;
        let addr = path.display().to_string();
        Ok((SocketListener::Uds(l, path), addr))
    }

    /// Toggle nonblocking accept mode.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            SocketListener::Tcp(l) => l.set_nonblocking(nb),
            SocketListener::Uds(l, _) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection (blocking semantics follow the listener's
    /// nonblocking flag).
    pub fn accept(&self) -> io::Result<SocketStream> {
        match self {
            SocketListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(SocketStream::Tcp(s))
            }
            SocketListener::Uds(l, _) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
        }
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        if let SocketListener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// How to re-dial a peer's data listener for mid-stream recovery.
#[derive(Debug, Clone)]
pub(crate) enum Redial {
    /// Dial `host:port` over TCP.
    Tcp(String),
    /// Dial a Unix-domain socket path.
    Uds(String),
}

impl Redial {
    /// The address string, for diagnostics.
    pub fn addr(&self) -> &str {
        match self {
            Redial::Tcp(a) | Redial::Uds(a) => a,
        }
    }

    /// One blocking dial attempt (fast on loopback: either connects or
    /// fails with ECONNREFUSED/ENOENT).
    pub fn connect(&self) -> io::Result<SocketStream> {
        match self {
            Redial::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(SocketStream::Tcp(s))
            }
            Redial::Uds(a) => UnixStream::connect(a).map(SocketStream::Unix),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Encoded v3 body size of one frame item.
fn v3_item_bytes(f: &Frame) -> usize {
    match f {
        Frame::Pkt(_) => 1 + PACKET_BYTES,
        Frame::Run(r) => V3_RUN_ITEM_HEADER + r.payload.len(),
    }
}

/// Append one v3 item to a frame body. Run payloads go out with a single
/// `extend_from_slice` — the one copy the process boundary genuinely
/// requires.
fn encode_v3_item(out: &mut Vec<u8>, f: &Frame) {
    match f {
        Frame::Pkt(p) => {
            out.push(V3_ITEM_PKT);
            out.extend_from_slice(&p.pack());
        }
        Frame::Run(r) => {
            out.push(V3_ITEM_RUN);
            let code = Datatype::ALL
                .iter()
                .position(|d| *d == r.dtype)
                .expect("known dtype") as u8;
            out.push(code);
            out.extend_from_slice(&r.header.pack());
            out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(r.payload.as_slice());
        }
    }
}

/// Append one framed data burst (header carries the body byte length
/// under [`V3_FLAG`]). The receive side decodes run items back into
/// views of its pooled block, so runs cross the boundary with exactly one
/// payload copy.
pub(crate) fn encode_frame_v3_into(
    out: &mut Vec<u8>,
    src_rank: u16,
    src_qsfp: u16,
    seq: u64,
    burst: &[Frame],
) {
    let body: usize = burst.iter().map(v3_item_bytes).sum();
    debug_assert!(body <= MAX_FRAME_BODY_BYTES, "unsplit oversized frame");
    out.reserve(FRAME_HEADER_BYTES + body);
    out.extend_from_slice(&src_rank.to_le_bytes());
    out.extend_from_slice(&src_qsfp.to_le_bytes());
    out.extend_from_slice(&(V3_FLAG | body as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    for f in burst {
        encode_v3_item(out, f);
    }
}

/// Decode the v3 frame body at `block[off..off + body]`. Run items become
/// zero-copy [`PayloadRun`] views pinning `block`; packet items are
/// unpacked inline. Peer bytes are untrusted: a malformed item (truncated,
/// unknown kind or dtype, an empty run, a run of partial elements, a run
/// under a control op) is an error, which the pump treats as a connection
/// fault.
fn decode_v3_body(block: &Arc<[u8]>, mut off: usize, body: usize) -> Result<Burst, String> {
    let end = off + body;
    let mut burst: Burst = Vec::new();
    while off < end {
        let kind = block[off];
        off += 1;
        match kind {
            V3_ITEM_PKT => {
                if end - off < PACKET_BYTES {
                    return Err("truncated v3 packet item".into());
                }
                let bytes: &[u8; PACKET_BYTES] = block[off..off + PACKET_BYTES]
                    .try_into()
                    .expect("packet slice");
                let pkt = NetworkPacket::unpack(bytes)
                    .map_err(|e| format!("undecodable packet on wire: {e}"))?;
                burst.push(pkt.into());
                off += PACKET_BYTES;
            }
            V3_ITEM_RUN => {
                if end - off < V3_RUN_ITEM_HEADER - 1 {
                    return Err("truncated v3 run item".into());
                }
                let code = block[off] as usize;
                let dtype = *Datatype::ALL
                    .get(code)
                    .ok_or_else(|| format!("unknown dtype code {code}"))?;
                let hdr: &[u8; 4] = block[off + 1..off + 5].try_into().expect("header slice");
                let header = Header::unpack(hdr)
                    .map_err(|e| format!("undecodable run header on wire: {e}"))?;
                let nbytes =
                    u32::from_le_bytes(block[off + 5..off + 9].try_into().expect("4 bytes"))
                        as usize;
                off += V3_RUN_ITEM_HEADER - 1;
                if end - off < nbytes {
                    return Err("truncated v3 run payload".into());
                }
                if nbytes == 0 {
                    return Err("empty run item on wire".into());
                }
                if !nbytes.is_multiple_of(dtype.size_bytes()) {
                    return Err(format!(
                        "run item of {nbytes} bytes is not a whole number of {dtype:?} elements"
                    ));
                }
                if !header.op.carries_data() {
                    return Err(format!(
                        "run item under {:?}, which carries no data",
                        header.op
                    ));
                }
                let payload = PayloadRun::from_shared(block.clone(), off, nbytes);
                burst.push(Frame::Run(PacketRun {
                    header,
                    dtype,
                    payload,
                }));
                off += nbytes;
            }
            other => return Err(format!("unknown v3 item kind {other}")),
        }
    }
    Ok(burst)
}

/// Append one cumulative-ack frame (`acked` = highest contiguous seq
/// received) to a serialization buffer.
pub(crate) fn encode_ack_into(out: &mut Vec<u8>, acked: u64) {
    out.extend_from_slice(&ACK_RANK.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&acked.to_le_bytes());
}

/// The handshake frame identifying one side of a process-pair connection,
/// both at bootstrap (`resume == false`) and at mid-stream recovery
/// (`resume == true`, `last_recv` doubling as a cumulative ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hello {
    /// Sender's process index in the process plan.
    pub proc: usize,
    /// Per-process-pair session id (chosen by the bootstrap dialer).
    pub session: u64,
    /// Whether this hello resumes an existing session.
    pub resume: bool,
    /// Sender's highest contiguously received data seq (0 at bootstrap).
    pub last_recv: u64,
}

impl Hello {
    /// A bootstrap (non-resume) hello.
    pub fn initial(proc: usize, session: u64) -> Hello {
        Hello {
            proc,
            session,
            resume: false,
            last_recv: 0,
        }
    }

    /// Serialize to the fixed [`HELLO_BYTES`] wire shape.
    pub fn encode(&self) -> [u8; HELLO_BYTES] {
        let mut b = [0u8; HELLO_BYTES];
        b[..2].copy_from_slice(&HELLO_RANK.to_le_bytes());
        b[2..4].copy_from_slice(&(self.resume as u16).to_le_bytes());
        b[4..8].copy_from_slice(&(self.proc as u32).to_le_bytes());
        b[8..16].copy_from_slice(&self.session.to_le_bytes());
        b[16..24].copy_from_slice(&self.last_recv.to_le_bytes());
        b
    }

    /// Parse the fixed wire shape (checks the [`HELLO_RANK`] sentinel).
    pub fn parse(b: &[u8; HELLO_BYTES]) -> io::Result<Hello> {
        let rank = u16::from_le_bytes(b[..2].try_into().expect("2 bytes"));
        if rank != HELLO_RANK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected hello frame, got src_rank {rank}"),
            ));
        }
        let flags = u16::from_le_bytes(b[2..4].try_into().expect("2 bytes"));
        Ok(Hello {
            proc: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")) as usize,
            session: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            resume: flags & 1 != 0,
            last_recv: u64::from_le_bytes(b[16..24].try_into().expect("8 bytes")),
        })
    }
}

/// Send a hello frame (blocking mode).
pub(crate) fn send_hello(stream: &mut SocketStream, hello: &Hello) -> io::Result<()> {
    stream.write_all(&hello.encode())?;
    stream.flush()
}

/// Receive the peer's hello frame (blocking mode; callers set a read
/// timeout first).
pub(crate) fn recv_hello(stream: &mut SocketStream) -> io::Result<Hello> {
    let mut b = [0u8; HELLO_BYTES];
    stream.read_exact(&mut b)?;
    Hello::parse(&b)
}

/// A fresh, practically unique session id (bootstrap dialers call this
/// once per process-pair connection).
pub(crate) fn fresh_session_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mixed = (u64::from(std::process::id()) << 32) ^ t ^ (c << 1);
    // splitmix64-style finalizer so ids look nothing alike.
    let mut z = mixed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Reconnect hub (routes incoming re-dials to the pump that lost its stream)
// ---------------------------------------------------------------------------

/// Mailbox where the [`AcceptorPump`] deposits an accepted resume stream
/// for one `(peer process, session)`; the owning [`SocketPump`] polls it.
#[derive(Default)]
pub(crate) struct ReconnectSlot {
    offer: Mutex<Option<(SocketStream, Hello)>>,
}

impl ReconnectSlot {
    fn take(&self) -> Option<(SocketStream, Hello)> {
        self.offer.lock().expect("slot lock").take()
    }

    fn has_offer(&self) -> bool {
        self.offer.lock().expect("slot lock").is_some()
    }
}

/// Registry of reconnect slots keyed by `(peer process, session)`, shared
/// between the process's [`AcceptorPump`] and its listener-role pumps.
#[derive(Default)]
pub(crate) struct ReconnectHub {
    slots: Mutex<HashMap<(usize, u64), Arc<ReconnectSlot>>>,
}

impl ReconnectHub {
    /// A fresh, empty hub.
    pub fn new() -> Arc<ReconnectHub> {
        Arc::new(ReconnectHub::default())
    }

    fn register(&self, peer_proc: usize, session: u64) -> Arc<ReconnectSlot> {
        let slot = Arc::new(ReconnectSlot::default());
        self.slots
            .lock()
            .expect("hub lock")
            .insert((peer_proc, session), slot.clone());
        slot
    }

    fn unregister(&self, peer_proc: usize, session: u64) {
        self.slots
            .lock()
            .expect("hub lock")
            .remove(&(peer_proc, session));
    }

    /// Route an accepted resume stream to its pump's slot. Returns false
    /// (dropping the stream) when no pump owns that `(process, session)`.
    pub fn deposit(&self, stream: SocketStream, hello: Hello) -> bool {
        let slots = self.slots.lock().expect("hub lock");
        match slots.get(&(hello.proc, hello.session)) {
            Some(slot) => {
                *slot.offer.lock().expect("slot lock") = Some((stream, hello));
                true
            }
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Connection: replay ring + link handles + pump
// ---------------------------------------------------------------------------

/// One per-link inbound demux queue.
type InQueue = Arc<Mutex<VecDeque<Burst>>>;

/// The transmit source of truth: every offered burst is encoded once into
/// this ring and stays there until the peer's cumulative ack covers it.
/// `cursor` is the write head: frames before it are fully on the wire (or
/// skipped by the fault filter), frames from it on still await
/// transmission; a resume rewinds `cursor` to 0 so every surviving frame is
/// retransmitted.
struct ReplayRing {
    frames: VecDeque<(u64, Vec<u8>)>,
    bytes: usize,
    next_seq: u64,
    cursor: usize,
    /// Bytes of `frames[cursor]` already on the wire — the flush writes
    /// straight from the ring and a partial write lands here.
    wire_off: usize,
    budget: usize,
}

impl ReplayRing {
    fn new(budget: usize) -> ReplayRing {
        ReplayRing {
            frames: VecDeque::new(),
            bytes: 0,
            next_seq: 1,
            cursor: 0,
            wire_off: 0,
            budget,
        }
    }

    /// Drop every frame covered by the cumulative ack `acked`, handing the
    /// encode buffers back for pool recycling.
    fn apply_ack(&mut self, acked: u64, recycled: &mut Vec<Vec<u8>>) {
        while let Some((seq, _)) = self.frames.front() {
            if *seq > acked {
                break;
            }
            let (_, bytes) = self.frames.pop_front().expect("front exists");
            self.bytes -= bytes.len();
            if self.cursor > 0 {
                self.cursor -= 1;
            } else {
                // Popping a frame at/under the write cursor can only happen
                // after a rewind; any partial-write offset dies with it.
                self.wire_off = 0;
            }
            recycled.push(bytes);
        }
    }

    /// Resume bookkeeping: drop frames the peer already has, then schedule
    /// everything left for retransmission from byte 0.
    fn rewind_to(&mut self, peer_last_recv: u64, recycled: &mut Vec<Vec<u8>>) {
        self.apply_ack(peer_last_recv, recycled);
        self.cursor = 0;
        self.wire_off = 0;
    }
}

struct ConnShared {
    closed: AtomicBool,
    ring: Mutex<ReplayRing>,
    health: FabricHealth,
    peer: PeerInfo,
    copies: CopyMeter,
    wire: WireStats,
    /// Free list of recycled encode buffers: refilled by acks, drained by
    /// `offer`.
    enc_pool: Mutex<Vec<Vec<u8>>>,
}

impl ConnShared {
    fn apply_ack(&self, acked: u64) {
        let mut recycled = Vec::new();
        self.ring
            .lock()
            .expect("ring lock")
            .apply_ack(acked, &mut recycled);
        self.recycle(recycled);
    }

    /// Return encode buffers to the free list (bounded; oversized one-off
    /// buffers are dropped rather than hoarded).
    fn recycle(&self, bufs: Vec<Vec<u8>>) {
        if bufs.is_empty() {
            return;
        }
        let mut pool = self.enc_pool.lock().expect("enc pool lock");
        for mut b in bufs {
            if pool.len() >= POOL_CAP || b.capacity() > ENC_BUF_POOL_MAX {
                continue;
            }
            b.clear();
            pool.push(b);
        }
    }

    /// An encode buffer with room for `need` bytes: recycled when the pool
    /// has one (hit), freshly allocated otherwise (miss).
    fn enc_buf(&self, need: usize) -> Vec<u8> {
        if let Some(mut b) = self.enc_pool.lock().expect("enc pool lock").pop() {
            self.wire.pool_hits.fetch_add(1, Ordering::Relaxed);
            b.reserve(need);
            return b;
        }
        self.wire.pool_misses.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(need)
    }
}

/// How one side of a broken connection recovers its stream.
pub(crate) enum ReconnectRole {
    /// This side re-dials the peer's data listener.
    Dialer {
        /// Where to re-dial.
        redial: Redial,
    },
    /// This side waits for the peer's re-dial, routed through the hub.
    Listener {
        /// The process-wide hub its acceptor deposits streams into.
        hub: Arc<ReconnectHub>,
    },
    /// No recovery possible (raw stream pairs in unit tests).
    #[allow(dead_code)] // constructed by test-only ConnConfig::basic
    None,
}

/// Everything needed to wrap one established, hello-exchanged stream.
pub(crate) struct ConnConfig {
    /// Identity of the peer process.
    pub peer: PeerInfo,
    /// *Sender-side* endpoints `(rank, qsfp)` whose traffic this process
    /// expects over this connection; each gets a demux queue.
    pub recv_keys: Vec<(usize, usize)>,
    /// Replay-ring byte budget
    /// ([`crate::RuntimeParams::stream_replay_budget`]).
    pub replay_budget: usize,
    /// Mid-stream recovery policy
    /// ([`crate::RuntimeParams::stream_reconnect`]).
    pub policy: ReconnectPolicy,
    /// Which side re-establishes the stream after a fault.
    pub role: ReconnectRole,
    /// Session id negotiated at hello time.
    pub session: u64,
    /// This process's index in the plan (sent in resume hellos).
    pub local_proc: usize,
    /// Deterministic fault injector for this connection's outbound
    /// direction, if the plan configures one.
    pub faults: Option<FaultInjector>,
    /// Payload-copy meter the codec charges for serialization /
    /// deserialization ([`crate::transport::TransportStats::payload_copies`]).
    pub copies: CopyMeter,
    /// Wire-level counters (syscalls, bytes, pool and cork effectiveness;
    /// [`crate::transport::TransportStats::wire`]).
    pub wire: WireStats,
}

impl ConnConfig {
    /// A minimal config for unit tests over raw stream pairs: default
    /// replay budget, no recovery, no faults.
    #[cfg(test)]
    pub fn basic(peer: PeerInfo, recv_keys: &[(usize, usize)]) -> ConnConfig {
        ConnConfig {
            peer,
            recv_keys: recv_keys.to_vec(),
            replay_budget: 1 << 20,
            policy: ReconnectPolicy::Fail,
            role: ReconnectRole::None,
            session: 0,
            local_proc: 0,
            faults: None,
            copies: CopyMeter::default(),
            wire: WireStats::default(),
        }
    }
}

/// Handle side of one process-pair connection: mints [`LinkTx`]/[`LinkRx`]
/// trait objects for every topology edge multiplexed over the socket. The
/// matching [`SocketPump`] owns the socket and must be registered with the
/// executor for any byte to move.
pub(crate) struct SocketConn {
    shared: Arc<ConnShared>,
    queues: HashMap<(usize, usize), InQueue>,
}

impl SocketConn {
    /// Wrap an established, hello-exchanged stream.
    pub fn new(
        stream: SocketStream,
        cfg: ConnConfig,
        health: FabricHealth,
    ) -> io::Result<(SocketConn, SocketPump)> {
        stream.set_nonblocking(true)?;
        let shared = Arc::new(ConnShared {
            closed: AtomicBool::new(false),
            ring: Mutex::new(ReplayRing::new(cfg.replay_budget.max(1))),
            health: health.clone(),
            peer: cfg.peer.clone(),
            copies: cfg.copies.clone(),
            wire: cfg.wire.clone(),
            enc_pool: Mutex::new(Vec::new()),
        });
        let queues: HashMap<(usize, usize), InQueue> = cfg
            .recv_keys
            .iter()
            .map(|&k| (k, Arc::new(Mutex::new(VecDeque::new()))))
            .collect();
        let conn = SocketConn {
            shared: shared.clone(),
            queues: queues.clone(),
        };
        let slot = match &cfg.role {
            ReconnectRole::Listener { hub } => Some(hub.register(cfg.peer.process, cfg.session)),
            _ => None,
        };
        let pump = SocketPump {
            stream,
            shared,
            queues,
            health,
            peer: cfg.peer,
            policy: cfg.policy,
            role: cfg.role,
            slot,
            session: cfg.session,
            local_proc: cfg.local_proc,
            faults: cfg.faults,
            phase: Phase::Streaming,
            ctrl: Vec::new(),
            cork_defers: 0,
            cork_pending: 0,
            head_fate: None,
            pending_sever: None,
            rpos: 0,
            rblock: None,
            rfilled: 0,
            rpool: Vec::new(),
            rretired: Vec::new(),
            eof: false,
            last_recv: 0,
            last_acked: 0,
            probe_oldest: 0,
            probe_deadline: None,
            done: false,
        };
        Ok((conn, pump))
    }

    /// Send half for the edge leaving local endpoint `(src_rank, src_qsfp)`.
    pub fn tx(&self, src_rank: usize, src_qsfp: usize) -> LinkTx {
        Box::new(SocketLinkTx {
            conn: self.shared.clone(),
            src_rank: src_rank as u16,
            src_qsfp: src_qsfp as u16,
        })
    }

    /// Receive half for traffic sent by the peer endpoint `key`. Panics if
    /// `key` was not in `recv_keys` — a wiring bug.
    pub fn rx(&self, key: (usize, usize)) -> LinkRx {
        Box::new(SocketLinkRx {
            conn: self.shared.clone(),
            queue: self.queues[&key].clone(),
        })
    }
}

struct SocketLinkTx {
    conn: Arc<ConnShared>,
    src_rank: u16,
    src_qsfp: u16,
}

/// Charge the copy meter for serializing `burst` into a wire buffer: run
/// payloads by exact byte length, inline data packets by packet (control
/// packets carry no semantic payload).
fn meter_outbound(copies: &CopyMeter, burst: &[Frame]) {
    let mut bytes = 0usize;
    let mut pkts = 0usize;
    for f in burst {
        match f {
            Frame::Run(r) => bytes += r.payload.len(),
            Frame::Pkt(p) if p.header.op.carries_data() => pkts += 1,
            Frame::Pkt(_) => {}
        }
    }
    if bytes > 0 {
        copies.add_bytes(bytes);
    }
    if pkts > 0 {
        copies.add_packets(pkts);
    }
}

impl Transport for SocketLinkTx {
    /// Encode into recycled buffers: small bursts cork-merged into the
    /// newest untransmitted ring frame, large bursts split so every frame
    /// fits one receive block.
    fn offer(&mut self, burst: Burst) -> LinkSend {
        if self.conn.closed.load(Ordering::Relaxed) {
            return LinkSend::Closed;
        }
        // Split oversized runs at packet-aligned element boundaries so no
        // single item (and thus no frame) outgrows FRAME_SPLIT_BYTES.
        let mut items: Vec<Frame> = Vec::with_capacity(burst.len());
        for f in burst {
            match f {
                Frame::Run(r) if V3_RUN_ITEM_HEADER + r.payload.len() > FRAME_SPLIT_BYTES => {
                    let step_elems = {
                        // Largest packet-aligned element count per chunk.
                        let epp = r.dtype.elems_per_packet();
                        let sz = r.dtype.size_bytes();
                        let max_elems = (FRAME_SPLIT_BYTES - V3_RUN_ITEM_HEADER) / sz;
                        (max_elems / epp).max(1) * epp
                    };
                    let sz = r.dtype.size_bytes();
                    let total = r.elems();
                    let mut at = 0usize;
                    while at < total {
                        let n = step_elems.min(total - at);
                        let mut part = r.clone();
                        part.payload = r.payload.slice(at * sz, n * sz);
                        items.push(Frame::Run(part));
                        at += n;
                    }
                }
                other => items.push(other),
            }
        }
        // Greedy chunking: each frame body stays under FRAME_SPLIT_BYTES.
        let mut chunks: Vec<Vec<Frame>> = Vec::new();
        let mut cur: Vec<Frame> = Vec::new();
        let mut cur_bytes = 0usize;
        for f in items {
            let b = v3_item_bytes(&f);
            if !cur.is_empty() && cur_bytes + b > FRAME_SPLIT_BYTES {
                chunks.push(std::mem::take(&mut cur));
                cur_bytes = 0;
            }
            cur_bytes += b;
            cur.push(f);
        }
        chunks.push(cur); // possibly empty: an empty burst still frames

        let bodies: Vec<usize> = chunks
            .iter()
            .map(|c| c.iter().map(v3_item_bytes).sum())
            .collect();
        let total_need: usize = bodies.iter().map(|b| FRAME_HEADER_BYTES + b).sum();
        let max_need = bodies
            .iter()
            .map(|b| FRAME_HEADER_BYTES + b)
            .max()
            .unwrap_or(FRAME_HEADER_BYTES);

        let mut ring = self.conn.ring.lock().expect("ring lock");
        // Adaptive cork: a small single-chunk burst merges into the newest
        // ring frame when that frame shares our (rank, qsfp) tag and has
        // not touched the wire yet — it rides the existing seq and header,
        // so replay semantics are unchanged.
        if chunks.len() == 1 && !ring.frames.is_empty() {
            let idx = ring.frames.len() - 1;
            let untransmitted = idx > ring.cursor || (idx == ring.cursor && ring.wire_off == 0);
            if untransmitted {
                let buf = &ring.frames[idx].1;
                let tag_match = buf[0..2] == self.src_rank.to_le_bytes()
                    && buf[2..4] == self.src_qsfp.to_le_bytes();
                let merged_body = buf.len() - FRAME_HEADER_BYTES + bodies[0];
                if tag_match
                    && merged_body <= CORK_MERGE_CAP
                    && ring.bytes + bodies[0] <= ring.budget
                {
                    let buf = &mut ring.frames[idx].1;
                    for f in &chunks[0] {
                        encode_v3_item(buf, f);
                    }
                    let new_body = (buf.len() - FRAME_HEADER_BYTES) as u32;
                    buf[4..8].copy_from_slice(&(V3_FLAG | new_body).to_le_bytes());
                    ring.bytes += bodies[0];
                    drop(ring);
                    self.conn.wire.corked_frames.fetch_add(1, Ordering::Relaxed);
                    meter_outbound(&self.conn.copies, &chunks[0]);
                    return LinkSend::Accepted;
                }
            }
        }
        if max_need > ring.budget {
            drop(ring);
            return self.overflow(max_need);
        }
        if ring.bytes + total_need > ring.budget {
            // Backpressure: hand the burst back (as split items — content
            // identical, re-offered by the CK machine later).
            return LinkSend::Full(chunks.into_iter().flatten().collect());
        }
        for chunk in &chunks {
            let body: usize = chunk.iter().map(v3_item_bytes).sum();
            let seq = ring.next_seq;
            ring.next_seq += 1;
            let mut buf = self.conn.enc_buf(FRAME_HEADER_BYTES + body);
            encode_frame_v3_into(&mut buf, self.src_rank, self.src_qsfp, seq, chunk);
            ring.bytes += buf.len();
            ring.frames.push_back((seq, buf));
        }
        drop(ring);
        for chunk in &chunks {
            meter_outbound(&self.conn.copies, chunk);
        }
        LinkSend::Accepted
    }
}

impl SocketLinkTx {
    /// One frame can never fit the replay budget: recovery could never
    /// replay it, so this is a fatal configuration error, not backpressure.
    fn overflow(&self, need: usize) -> LinkSend {
        let budget = self.conn.ring.lock().expect("ring lock").budget;
        self.conn.health.mark_down(PeerDown {
            rank: self.conn.peer.rank,
            process: self.conn.peer.process,
            backend: self.conn.peer.backend,
            addr: self.conn.peer.addr.clone(),
            detail: format!("one frame needs {need} bytes but the replay budget is {budget} bytes"),
            kind: PeerDownKind::ReplayOverflow {
                needed: need,
                budget,
            },
        });
        self.conn.closed.store(true, Ordering::Release);
        LinkSend::Closed
    }
}

struct SocketLinkRx {
    conn: Arc<ConnShared>,
    queue: InQueue,
}

impl TransportReceiver for SocketLinkRx {
    fn try_recv(&mut self) -> LinkRecv {
        if let Some(b) = self.queue.lock().expect("in queue lock").pop_front() {
            return LinkRecv::Burst(b);
        }
        if !self.conn.closed.load(Ordering::Acquire) {
            return LinkRecv::Empty;
        }
        // The pump finishes demuxing before setting `closed`; one re-check
        // after observing the flag drains the race window.
        match self.queue.lock().expect("in queue lock").pop_front() {
            Some(b) => LinkRecv::Burst(b),
            None => LinkRecv::Closed,
        }
    }
}

/// Where one connection is in its lifecycle.
enum Phase {
    /// Normal operation: flush, read, deframe.
    Streaming,
    /// The stream is gone; recovery is in progress.
    Reconnecting {
        /// Current attempt (0-based).
        attempt: u32,
        /// Earliest time of the next dial / the end of the current wait
        /// window.
        next_try: Instant,
        /// Most recent failure, for diagnostics.
        last_err: String,
    },
}

/// The I/O duty cycle of one connection: a [`Pollable`] that writes unacked
/// frames from the replay ring onto the socket and reads/deframes inbound
/// bytes into the per-link demux queues, generating cumulative acks. Never
/// blocks in `Streaming`; a resume handshake performs bounded blocking I/O
/// (at most [`RESUME_IO_TIMEOUT`] per attempt). On an I/O fault it runs the
/// reconnect state machine described in the module docs.
pub(crate) struct SocketPump {
    stream: SocketStream,
    shared: Arc<ConnShared>,
    queues: HashMap<(usize, usize), InQueue>,
    health: FabricHealth,
    peer: PeerInfo,
    policy: ReconnectPolicy,
    role: ReconnectRole,
    slot: Option<Arc<ReconnectSlot>>,
    session: u64,
    local_proc: usize,
    faults: Option<FaultInjector>,
    phase: Phase,
    /// Side buffer of whole frames outside the ring: cumulative acks and,
    /// under fault injection, duplicate and released-delay copies. Written
    /// in the same syscall as ring frames, but only at a frame boundary.
    ctrl: Vec<u8>,
    /// Polls the adaptive cork has deferred a pending vectored write.
    cork_defers: u32,
    /// Pending outbound bytes seen by the previous poll: the cork defers
    /// only while this grows (0 after a flush or a fault).
    cork_pending: usize,
    /// Fault filter verdict ([`FaultAction::Pass`] or
    /// [`FaultAction::Duplicate`]) for the ring frame at the write head,
    /// taken when it first reaches the head and cleared once it is fully
    /// written, so each emission consults the injector exactly once.
    head_fate: Option<FaultAction>,
    /// An injected sever waiting for the bytes before it to drain.
    pending_sever: Option<u64>,
    /// Current receive block (`rpos..rfilled` = unparsed), block free
    /// list, and blocks still pinned by run views.
    rpos: usize,
    rblock: Option<Arc<[u8]>>,
    rfilled: usize,
    rpool: Vec<Arc<[u8]>>,
    rretired: Vec<Arc<[u8]>>,
    eof: bool,
    /// Highest contiguously received data seq (survives reconnects).
    last_recv: u64,
    /// Highest seq we have acked to the peer.
    last_acked: u64,
    /// Ack-progress probe: oldest transmitted-but-unacked seq at the last
    /// check, and the deadline by which the peer's cumulative ack must move
    /// past it (see [`ACK_PROBE_TIMEOUT`]).
    probe_oldest: u64,
    probe_deadline: Option<Instant>,
    done: bool,
}

impl SocketPump {
    fn fail(&mut self, detail: String) {
        self.health.mark_down(PeerDown {
            rank: self.peer.rank,
            process: self.peer.process,
            backend: self.peer.backend,
            addr: self.peer.addr.clone(),
            detail,
            kind: PeerDownKind::Link,
        });
        self.shared.closed.store(true, Ordering::Release);
        self.done = true;
    }

    /// Vectored send: one `write_vectored` spans every unwritten ring frame
    /// straight from the pooled encode buffers, plus the side buffer — no
    /// staging copy, one syscall for many frames. Side bytes enter the
    /// stream only at a frame boundary: a partially written head frame is
    /// finished first. The adaptive cork defers a small write while the
    /// producer keeps adding to it, so bursts coalesce; once a poll finds
    /// no new bytes, it writes. Under fault injection every ring frame
    /// passes [`Self::filter_head`] and at most one goes per syscall.
    fn flush_vectored(&mut self, progressed: &mut bool) -> Result<(), String> {
        let shared = self.shared.clone();
        let mut ring = shared.ring.lock().expect("ring lock");
        // Pending bytes (summed only until the flush threshold is known).
        let mut pending = self.ctrl.len();
        let mut off = ring.wire_off;
        for (_, buf) in ring.frames.iter().skip(ring.cursor) {
            if pending >= CORK_FLUSH_BYTES {
                break;
            }
            pending += buf.len() - off;
            off = 0;
        }
        if pending == 0 {
            self.cork_defers = 0;
            self.cork_pending = 0;
            return Ok(());
        }
        let growing = pending > self.cork_pending;
        if growing && pending < CORK_FLUSH_BYTES && self.cork_defers < CORK_MAX_DEFERS {
            self.cork_defers += 1;
            self.cork_pending = pending;
            return Ok(());
        }
        self.cork_defers = 0;
        self.cork_pending = 0;
        let faulty = self.faults.is_some();
        loop {
            self.filter_head(&mut ring);
            let partial = ring.wire_off > 0;
            let with_ctrl = !(self.ctrl.is_empty() || (faulty && partial));
            let ring_frames = if !faulty {
                MAX_IOV
            } else if self.head_fate.is_some() && !partial {
                1
            } else {
                0
            };
            let mut frames = ring.frames.iter().skip(ring.cursor);
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
            if partial {
                let head = &frames.next().expect("partially written head frame").1;
                slices.push(IoSlice::new(&head[ring.wire_off..]));
            }
            if with_ctrl {
                slices.push(IoSlice::new(&self.ctrl));
            }
            for (_, buf) in frames.take(ring_frames) {
                if slices.len() >= MAX_IOV {
                    break;
                }
                slices.push(IoSlice::new(buf));
            }
            if slices.is_empty() {
                if let Some(n) = self.pending_sever.take() {
                    let _ = self.stream.shutdown();
                    return Err(format!("injected sever after frame {n}"));
                }
                break;
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => return Err("write returned 0 (connection closed)".into()),
                Ok(mut n) => {
                    drop(slices);
                    shared.wire.add_send(n);
                    *progressed = true;
                    // Consume in iov order: head remainder, side bytes,
                    // then whole frames and a possible partial one.
                    if partial {
                        n = self.advance_head(&mut ring, n);
                    }
                    if with_ctrl {
                        let take = n.min(self.ctrl.len());
                        self.ctrl.drain(..take);
                        n -= take;
                    }
                    while n > 0 {
                        n = self.advance_head(&mut ring, n);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A peer that died mid-stream commonly surfaces as a write
                // error (EPIPE/ECONNRESET) before the read side sees EOF.
                Err(e) => return Err(format!("write failed: {e}")),
            }
        }
        Ok(())
    }

    /// Account `n` written bytes against the head frame; returns the bytes
    /// left over once it is complete. A completed frame's fault-filter
    /// side frames (its duplicate, released delays) follow it at once.
    fn advance_head(&mut self, ring: &mut ReplayRing, n: usize) -> usize {
        let rem = ring.frames[ring.cursor].1.len() - ring.wire_off;
        if n < rem {
            ring.wire_off += n;
            return 0;
        }
        if let Some(fate) = self.head_fate.take() {
            if fate == FaultAction::Duplicate {
                self.ctrl.extend_from_slice(&ring.frames[ring.cursor].1);
            }
            let faults = self.faults.as_mut().expect("fault filter set the fate");
            for bytes in faults.take_released() {
                self.ctrl.extend_from_slice(&bytes);
            }
        }
        ring.cursor += 1;
        ring.wire_off = 0;
        n - rem
    }

    /// Fault filter: consult the injector once for each ring frame that
    /// reaches the write head, until the head holds a frame to write (or
    /// the ring is drained, or a sever is due). Dropped and delayed frames
    /// are skipped and stay in the ring for replay.
    fn filter_head(&mut self, ring: &mut ReplayRing) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        while self.head_fate.is_none()
            && self.pending_sever.is_none()
            && ring.wire_off == 0
            && ring.cursor < ring.frames.len()
        {
            match faults.on_emit() {
                fate @ (FaultAction::Pass | FaultAction::Duplicate) => self.head_fate = Some(fate),
                FaultAction::Drop => ring.cursor += 1,
                FaultAction::Delay(by) => {
                    faults.hold(ring.frames[ring.cursor].1.clone(), by);
                    ring.cursor += 1;
                }
            }
            self.pending_sever = faults.sever_due();
            if self.head_fate.is_none() {
                for bytes in faults.take_released() {
                    self.ctrl.extend_from_slice(&bytes);
                }
            }
        }
    }

    /// Move retired receive blocks whose last run view has been dropped
    /// back onto the free list.
    fn sweep_retired(&mut self) {
        let mut i = 0;
        while i < self.rretired.len() {
            if Arc::strong_count(&self.rretired[i]) == 1 {
                let b = self.rretired.swap_remove(i);
                if self.rpool.len() < POOL_CAP {
                    self.rpool.push(b);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Swap in a writable receive block, carrying the unparsed tail over
    /// (bounded by one frame). Returns false when the tail is too large to
    /// carry — a full-block frame waiting on queue backpressure; reading
    /// must pause until the demux queues drain.
    fn rotate_rblock(&mut self) -> bool {
        self.sweep_retired();
        let tail = self.rfilled - self.rpos;
        if RECV_BLOCK_CAP - tail < READ_CHUNK {
            return false;
        }
        let mut next = match self.rpool.pop() {
            Some(b) => {
                self.shared.wire.pool_hits.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.shared.wire.pool_misses.fetch_add(1, Ordering::Relaxed);
                Arc::from(vec![0u8; RECV_BLOCK_CAP])
            }
        };
        if let Some(old) = self.rblock.take() {
            if tail > 0 {
                let dst = Arc::get_mut(&mut next).expect("pooled block is unique");
                dst[..tail].copy_from_slice(&old[self.rpos..self.rfilled]);
            }
            if Arc::strong_count(&old) > 1 {
                self.rretired.push(old);
            } else if self.rpool.len() < POOL_CAP {
                self.rpool.push(old);
            }
        }
        self.rblock = Some(next);
        self.rpos = 0;
        self.rfilled = tail;
        true
    }

    /// Read straight into the current `Arc` receive block. A
    /// block stops being writable the moment a run view pins it
    /// (`Arc::get_mut` fails), so the pump rotates to a recycled block and
    /// parks the pinned one on the retired list until consumers drain it.
    fn fill_rblock(&mut self, progressed: &mut bool) -> Result<(), String> {
        if self.eof {
            return Ok(());
        }
        for _ in 0..4 {
            let writable = self.rblock.as_mut().is_some_and(|b| {
                Arc::get_mut(b).is_some() && RECV_BLOCK_CAP - self.rfilled >= READ_CHUNK
            });
            if !writable && !self.rotate_rblock() {
                break; // backpressure: a full-block frame is parked
            }
            let block = Arc::get_mut(self.rblock.as_mut().expect("block present"))
                .expect("rotated block is unique");
            match self.stream.read(&mut block[self.rfilled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rfilled += n;
                    self.shared.wire.add_recv(n);
                    *progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
        Ok(())
    }

    /// Parse frames out of the current receive block, decoding run items
    /// into zero-copy views of it, and queue a cumulative ack for
    /// everything newly delivered.
    fn deframe(&mut self, progressed: &mut bool) -> Result<(), String> {
        let Some(block) = self.rblock.clone() else {
            return Ok(());
        };
        loop {
            let avail = self.rfilled - self.rpos;
            if avail < FRAME_HEADER_BYTES {
                break;
            }
            let hdr = &block[self.rpos..self.rpos + FRAME_HEADER_BYTES];
            let src_rank = u16::from_le_bytes(hdr[..2].try_into().expect("2 bytes"));
            let src_qsfp = u16::from_le_bytes(hdr[2..4].try_into().expect("2 bytes"));
            let nfield = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
            let seq = u64::from_le_bytes(hdr[8..16].try_into().expect("8 bytes"));
            if src_rank == HELLO_RANK {
                return Err("unexpected hello frame mid-stream".into());
            }
            if src_rank == ACK_RANK {
                self.rpos += FRAME_HEADER_BYTES;
                self.shared.apply_ack(seq);
                *progressed = true;
                continue;
            }
            if nfield & V3_FLAG == 0 {
                return Err(format!(
                    "corrupt frame: data frame without the v3 flag (len field {nfield:#x})"
                ));
            }
            let body = (nfield & !V3_FLAG) as usize;
            if body > MAX_FRAME_BODY_BYTES {
                return Err(format!("corrupt frame: {body}-byte body claimed"));
            }
            let need = FRAME_HEADER_BYTES + body;
            if avail < need {
                break;
            }
            if seq <= self.last_recv {
                // Replay overlap or duplicate: already delivered, discard.
                self.rpos += need;
                *progressed = true;
                continue;
            }
            if seq > self.last_recv + 1 {
                // A hole in the sequence: bytes were lost on a stream that
                // claims to be healthy. Treat as a connection fault; the
                // resume handshake replays the missing frames.
                return Err(format!(
                    "sequence gap: expected {}, got {seq}",
                    self.last_recv + 1
                ));
            }
            let key = (src_rank as usize, src_qsfp as usize);
            let Some(queue) = self.queues.get(&key) else {
                return Err(format!(
                    "frame from unknown endpoint (rank {src_rank}, qsfp {src_qsfp})"
                ));
            };
            let mut q = queue.lock().expect("in queue lock");
            if q.len() >= INBOUND_QUEUE_CAP {
                // Head-of-line backpressure: stop parsing until the slow
                // CKR input drains its queue.
                break;
            }
            let burst = decode_v3_body(&block, self.rpos + FRAME_HEADER_BYTES, body)?;
            meter_inline_data(&self.shared.copies, &burst);
            q.push_back(burst);
            drop(q);
            self.rpos += need;
            self.last_recv = seq;
            *progressed = true;
        }
        // Skipped when the side buffer is backed up (acks are cumulative,
        // the next one covers this one).
        if self.last_recv > self.last_acked && self.ctrl.len() < CTRL_CAP {
            encode_ack_into(&mut self.ctrl, self.last_recv);
            self.last_acked = self.last_recv;
        }
        Ok(())
    }

    /// After EOF: remaining unparsed bytes are either complete frames
    /// blocked on a full queue (keep polling) or a truncated tail.
    fn eof_verdict(&self) -> Option<String> {
        let buf: &[u8] = match self.rblock.as_ref() {
            Some(b) => &b[self.rpos..self.rfilled],
            None => &[],
        };
        let avail = buf.len();
        if avail == 0 {
            return Some("connection closed by peer (EOF)".into());
        }
        if avail < FRAME_HEADER_BYTES {
            return Some(format!("link cut mid-frame ({avail} trailing bytes)"));
        }
        let hdr = &buf[..FRAME_HEADER_BYTES];
        let src_rank = u16::from_le_bytes(hdr[..2].try_into().expect("2 bytes"));
        let nfield = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
        let body = if src_rank == ACK_RANK {
            0
        } else {
            ((nfield & !V3_FLAG) as usize).min(MAX_FRAME_BODY_BYTES)
        };
        if avail < FRAME_HEADER_BYTES + body {
            return Some(format!("link cut mid-frame ({avail} trailing bytes)"));
        }
        None // complete frame waiting on a full demux queue
    }

    /// Whether this connection can heal instead of dying.
    fn recoverable(&self) -> bool {
        !matches!(self.role, ReconnectRole::None) && !matches!(self.policy, ReconnectPolicy::Fail)
    }

    /// Handle a connection fault: reset stream-scoped state and either die
    /// (no recovery) or enter `Reconnecting`.
    fn on_fault(&mut self, detail: String) -> Step {
        let _ = self.stream.shutdown();
        self.ctrl.clear();
        self.head_fate = None;
        self.pending_sever = None;
        self.cork_defers = 0;
        self.cork_pending = 0;
        self.rpos = 0;
        self.rfilled = 0;
        self.eof = false;
        self.probe_deadline = None;
        if let Some(f) = self.faults.as_mut() {
            f.clear_held();
        }
        if !self.recoverable() {
            self.fail(detail);
            return Step::Progress;
        }
        self.health.mark_reconnecting(ReconnectInfo {
            rank: self.peer.rank,
            process: self.peer.process,
            attempt: 0,
            detail: detail.clone(),
        });
        self.phase = Phase::Reconnecting {
            attempt: 0,
            next_try: Instant::now(),
            last_err: detail,
        };
        Step::Progress
    }

    /// Adopt a fresh stream after a successful resume handshake.
    fn adopt(&mut self, stream: SocketStream, peer_last_recv: u64) -> Result<(), String> {
        stream
            .set_read_timeout(None)
            .map_err(|e| format!("resume: clear read timeout: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("resume: set nonblocking: {e}"))?;
        let mut recycled = Vec::new();
        self.shared
            .ring
            .lock()
            .expect("ring lock")
            .rewind_to(peer_last_recv, &mut recycled);
        self.shared.recycle(recycled);
        self.stream = stream;
        // The resume hello we sent carries `last_recv`, acting as an ack.
        self.last_acked = self.last_recv;
        self.probe_deadline = None;
        self.phase = Phase::Streaming;
        self.health.mark_healthy(self.peer.process);
        Ok(())
    }

    /// One dial attempt of the re-dialing side.
    fn try_resume_dial(&mut self) -> Result<(), String> {
        if let Some(f) = &self.faults {
            if !f.allow_restore() {
                return Err("restore disabled by fault plan".into());
            }
        }
        let redial = match &self.role {
            ReconnectRole::Dialer { redial } => redial.clone(),
            _ => unreachable!("try_resume_dial on non-dialer"),
        };
        let mut s = redial
            .connect()
            .map_err(|e| format!("re-dial {}: {e}", redial.addr()))?;
        s.set_read_timeout(Some(RESUME_IO_TIMEOUT))
            .map_err(|e| format!("resume: set read timeout: {e}"))?;
        let hello = Hello {
            proc: self.local_proc,
            session: self.session,
            resume: true,
            last_recv: self.last_recv,
        };
        send_hello(&mut s, &hello).map_err(|e| format!("resume hello send: {e}"))?;
        let peer = recv_hello(&mut s).map_err(|e| format!("resume hello recv: {e}"))?;
        if peer.session != self.session || !peer.resume {
            return Err(format!(
                "resume handshake mismatch (session {:#x} vs {:#x}, resume {})",
                peer.session, self.session, peer.resume
            ));
        }
        self.adopt(s, peer.last_recv)
    }

    /// Check the hub slot for a peer-initiated resume. Returns Ok(true)
    /// when a stream was adopted, Ok(false) when nothing (usable) arrived.
    fn try_take_offer(&mut self) -> Result<bool, String> {
        let Some(slot) = self.slot.as_ref() else {
            return Ok(false);
        };
        let Some((mut s, hello)) = slot.take() else {
            return Ok(false);
        };
        if hello.session != self.session || !hello.resume {
            return Ok(false); // stray from another life; drop it
        }
        if let Some(f) = &self.faults {
            if !f.allow_restore() {
                return Ok(false); // fault plan forbids healing
            }
        }
        s.set_nonblocking(false)
            .map_err(|e| format!("resume: set blocking: {e}"))?;
        let reply = Hello {
            proc: self.local_proc,
            session: self.session,
            resume: true,
            last_recv: self.last_recv,
        };
        send_hello(&mut s, &reply).map_err(|e| format!("resume hello reply: {e}"))?;
        self.adopt(s, hello.last_recv)?;
        Ok(true)
    }

    /// Record a failed attempt; die when the budget is exhausted,
    /// otherwise schedule the next window.
    fn bump_attempt(&mut self, attempt: u32, err: String) -> Step {
        let next = attempt + 1;
        if next >= self.policy.max_attempts() {
            self.fail(format!(
                "reconnect budget exhausted after {next} attempts: {err}"
            ));
            return Step::Progress;
        }
        self.health.mark_reconnecting(ReconnectInfo {
            rank: self.peer.rank,
            process: self.peer.process,
            attempt: next,
            detail: err.clone(),
        });
        let mut delay = self
            .policy
            .delay_for(next, self.peer.process as u64 ^ self.session);
        if matches!(self.role, ReconnectRole::Listener { .. }) {
            delay += RESUME_GRACE;
        }
        self.phase = Phase::Reconnecting {
            attempt: next,
            next_try: Instant::now() + delay,
            last_err: err,
        };
        Step::Progress
    }

    fn poll_streaming(&mut self) -> Step {
        // The peer may detect a fault first and re-dial while our side of
        // the old stream still looks healthy; an offer in the slot is that
        // signal.
        if self.slot.as_ref().is_some_and(|s| s.has_offer()) {
            return self.on_fault("peer initiated mid-stream resume".into());
        }
        let mut progressed = false;
        let r = self
            .flush_vectored(&mut progressed)
            .and_then(|()| self.fill_rblock(&mut progressed))
            .and_then(|()| self.deframe(&mut progressed));
        if let Err(detail) = r {
            return self.on_fault(detail);
        }
        if self.eof {
            if let Some(detail) = self.eof_verdict() {
                return self.on_fault(detail);
            }
        }
        if self.recoverable() {
            if let Some(detail) = self.probe_ack_progress() {
                return self.on_fault(detail);
            }
        }
        if progressed {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    /// Sender-side liveness probe: watch the oldest transmitted frame in
    /// the replay ring; if the peer's cumulative ack fails to move past it
    /// within [`ACK_PROBE_TIMEOUT`], report the stall as a stream fault so
    /// the resume handshake retransmits it. Returns the fault detail.
    fn probe_ack_progress(&mut self) -> Option<String> {
        let oldest = {
            let ring = self.shared.ring.lock().expect("ring lock");
            // `cursor > 0` means the front frame is on the wire (or was
            // skipped by the fault filter); `wire_off > 0` means it is
            // partially written — only then can the peer be expected to ack
            // it (or be known stalled).
            if ring.cursor > 0 || ring.wire_off > 0 {
                ring.frames.front().map(|(seq, _)| *seq)
            } else {
                None
            }
        };
        let Some(seq) = oldest else {
            self.probe_deadline = None;
            return None;
        };
        let now = Instant::now();
        match self.probe_deadline {
            Some(deadline) if seq == self.probe_oldest => (now >= deadline)
                .then(|| format!("no ack progress past seq {seq} within {ACK_PROBE_TIMEOUT:?}")),
            _ => {
                self.probe_oldest = seq;
                self.probe_deadline = Some(now + ACK_PROBE_TIMEOUT);
                None
            }
        }
    }

    fn poll_reconnecting(&mut self) -> Step {
        let (attempt, next_try, last_err) = match &self.phase {
            Phase::Reconnecting {
                attempt,
                next_try,
                last_err,
            } => (*attempt, *next_try, last_err.clone()),
            Phase::Streaming => unreachable!("poll_reconnecting in Streaming"),
        };
        match &self.role {
            ReconnectRole::Dialer { .. } => {
                if Instant::now() < next_try {
                    return Step::Idle;
                }
                match self.try_resume_dial() {
                    Ok(()) => Step::Progress,
                    Err(e) => self.bump_attempt(attempt, e),
                }
            }
            ReconnectRole::Listener { .. } => match self.try_take_offer() {
                Ok(true) => Step::Progress,
                Ok(false) => {
                    if Instant::now() >= next_try {
                        self.bump_attempt(attempt, format!("waiting for peer re-dial ({last_err})"))
                    } else {
                        Step::Idle
                    }
                }
                Err(e) => self.bump_attempt(attempt, e),
            },
            ReconnectRole::None => unreachable!("Reconnecting with no role"),
        }
    }
}

impl Pollable for SocketPump {
    fn poll(&mut self) -> Step {
        if self.done {
            return Step::Done;
        }
        match self.phase {
            Phase::Streaming => self.poll_streaming(),
            Phase::Reconnecting { .. } => self.poll_reconnecting(),
        }
    }
}

impl Drop for SocketPump {
    fn drop(&mut self) {
        if let ReconnectRole::Listener { hub } = &self.role {
            hub.unregister(self.peer.process, self.session);
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptor pump
// ---------------------------------------------------------------------------

/// How long an accepted stream may dribble its hello before being dropped.
const ACCEPT_HELLO_DEADLINE: Duration = Duration::from_secs(5);

/// The process-wide re-dial acceptor: owns the long-lived data listener
/// (nonblocking), completes hello handshakes on accepted streams and routes
/// resume hellos through the [`ReconnectHub`] to the pump that lost its
/// stream. Non-resume hellos and unknown sessions are dropped. Runs until
/// the executor's stop flag ends the run (never reports `Done`).
pub(crate) struct AcceptorPump {
    listener: SocketListener,
    hub: Arc<ReconnectHub>,
    pending: Vec<(SocketStream, Vec<u8>, Instant)>,
}

impl AcceptorPump {
    /// Wrap the group's data listener (switched to nonblocking).
    pub fn new(listener: SocketListener, hub: Arc<ReconnectHub>) -> io::Result<AcceptorPump> {
        listener.set_nonblocking(true)?;
        Ok(AcceptorPump {
            listener,
            hub,
            pending: Vec::new(),
        })
    }
}

impl Pollable for AcceptorPump {
    fn poll(&mut self) -> Step {
        let mut progressed = false;
        for _ in 0..8 {
            match self.listener.accept() {
                Ok(s) => {
                    if s.set_nonblocking(true).is_ok() {
                        self.pending
                            .push((s, Vec::with_capacity(HELLO_BYTES), Instant::now()));
                        progressed = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let mut i = 0;
        while i < self.pending.len() {
            let (s, buf, since) = &mut self.pending[i];
            let mut chunk = [0u8; HELLO_BYTES];
            let mut dead = since.elapsed() > ACCEPT_HELLO_DEADLINE;
            while !dead && buf.len() < HELLO_BYTES {
                match s.read(&mut chunk[..HELLO_BYTES - buf.len()]) {
                    Ok(0) => dead = true,
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => dead = true,
                }
            }
            if dead {
                self.pending.swap_remove(i);
                continue;
            }
            if buf.len() == HELLO_BYTES {
                let (s, buf, _) = self.pending.swap_remove(i);
                let bytes: [u8; HELLO_BYTES] = buf.as_slice().try_into().expect("hello size");
                if let Ok(hello) = Hello::parse(&bytes) {
                    if hello.resume {
                        // Unknown (process, session) pairs are dropped.
                        let _ = self.hub.deposit(s, hello);
                        progressed = true;
                    }
                }
                continue;
            }
            i += 1;
        }
        if progressed {
            Step::Progress
        } else {
            Step::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smi_wire::PacketOp;

    fn pair() -> (SocketStream, SocketStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (SocketStream::Unix(a), SocketStream::Unix(b))
    }

    fn pkt(dst: u8, tag: u8) -> NetworkPacket {
        let mut p = NetworkPacket::new(0, dst, 0, PacketOp::Send);
        p.payload[0] = tag;
        p.header.count = 1;
        p
    }

    /// The tag byte of a frame offered and delivered as an inline packet.
    fn tag(f: &Frame) -> u8 {
        match f {
            Frame::Pkt(p) => p.payload[0],
            Frame::Run(_) => panic!("socket decode must emit inline packets"),
        }
    }

    /// Read one data frame off a raw stream: its seq and decoded burst.
    fn read_data_frame(s: &mut SocketStream) -> (u64, Burst) {
        let mut hdr = [0u8; FRAME_HEADER_BYTES];
        s.read_exact(&mut hdr).unwrap();
        let nfield = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        assert_ne!(nfield & V3_FLAG, 0, "data frames carry the v3 flag");
        let body = (nfield & !V3_FLAG) as usize;
        let mut block = vec![0u8; body];
        s.read_exact(&mut block).unwrap();
        let seq = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        (seq, decode_v3_body(&block.into(), 0, body).unwrap())
    }

    fn peer(backend: &'static str) -> PeerInfo {
        PeerInfo {
            rank: 1,
            process: 1,
            backend,
            addr: "test".into(),
        }
    }

    #[test]
    fn hello_roundtrip() {
        let (mut a, mut b) = pair();
        let hello = Hello {
            proc: 3,
            session: 0xDEAD_BEEF_0BAD_F00D,
            resume: true,
            last_recv: 42,
        };
        send_hello(&mut a, &hello).unwrap();
        assert_eq!(recv_hello(&mut b).unwrap(), hello);
        let initial = Hello::initial(7, 9);
        send_hello(&mut a, &initial).unwrap();
        let got = recv_hello(&mut b).unwrap();
        assert_eq!(got.proc, 7);
        assert_eq!(got.session, 9);
        assert!(!got.resume);
        assert_eq!(got.last_recv, 0);
    }

    #[test]
    fn fresh_session_ids_are_distinct() {
        let a = fresh_session_id();
        let b = fresh_session_id();
        assert_ne!(a, b);
    }

    /// Wire bytes of a one-packet data frame.
    const PKT_FRAME_BYTES: usize = FRAME_HEADER_BYTES + 1 + PACKET_BYTES;

    #[test]
    fn frame_encode_shape() {
        let mut out = Vec::new();
        encode_frame_v3_into(&mut out, 5, 2, 77, &[pkt(1, 9).into(), pkt(1, 10).into()]);
        let body = 2 * (1 + PACKET_BYTES);
        assert_eq!(out.len(), FRAME_HEADER_BYTES + body);
        assert_eq!(u16::from_le_bytes(out[..2].try_into().unwrap()), 5);
        assert_eq!(u16::from_le_bytes(out[2..4].try_into().unwrap()), 2);
        assert_eq!(
            u32::from_le_bytes(out[4..8].try_into().unwrap()),
            V3_FLAG | body as u32
        );
        assert_eq!(u64::from_le_bytes(out[8..16].try_into().unwrap()), 77);
        let mut ack = Vec::new();
        encode_ack_into(&mut ack, 123);
        assert_eq!(ack.len(), FRAME_HEADER_BYTES);
        assert_eq!(u16::from_le_bytes(ack[..2].try_into().unwrap()), ACK_RANK);
        assert_eq!(u64::from_le_bytes(ack[8..16].try_into().unwrap()), 123);
    }

    #[test]
    fn bursts_cross_the_socket_in_order() {
        let (sa, sb) = pair();
        let health = FabricHealth::default();
        // A sends from endpoint (0,0); B receives the same key.
        let (conn_a, mut pump_a) =
            SocketConn::new(sa, ConnConfig::basic(peer("uds"), &[]), health.clone()).unwrap();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        for i in 0..50u8 {
            assert!(matches!(
                tx.offer(vec![pkt(1, i).into()]),
                LinkSend::Accepted
            ));
        }
        let mut seen = Vec::new();
        while seen.len() < 50 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                seen.extend(b.iter().map(tag));
            }
        }
        assert_eq!(seen, (0..50u8).collect::<Vec<_>>());
        assert!(health.peer_down().is_none());
    }

    #[test]
    fn acks_trim_the_replay_ring() {
        let (sa, sb) = pair();
        let health = FabricHealth::default();
        let (conn_a, mut pump_a) =
            SocketConn::new(sa, ConnConfig::basic(peer("uds"), &[]), health.clone()).unwrap();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        // Runs too large for the cork to merge: one ring frame each.
        for i in 0..20u8 {
            let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &[i; CORK_MERGE_CAP]);
            assert!(matches!(
                tx.offer(vec![Frame::Run(run)]),
                LinkSend::Accepted
            ));
        }
        {
            let ring = conn_a.shared.ring.lock().unwrap();
            assert_eq!(ring.frames.len(), 20);
            assert_eq!(ring.next_seq, 21);
        }
        // Drive until B delivered everything and A's ring is fully acked.
        let mut delivered = 0;
        for _ in 0..100_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                delivered += b.len();
            }
            if delivered == 20 && conn_a.shared.ring.lock().unwrap().frames.is_empty() {
                break;
            }
        }
        assert_eq!(delivered, 20);
        let ring = conn_a.shared.ring.lock().unwrap();
        assert!(ring.frames.is_empty(), "acked frames must leave the ring");
        assert_eq!(ring.bytes, 0);
        assert_eq!(ring.cursor, 0);
    }

    #[test]
    fn duplicate_frames_are_discarded() {
        // Write frames 1, 1, 2 by hand; the conn must deliver 1 and 2 once.
        let (mut raw, sb) = pair();
        let health = FabricHealth::default();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let mut bytes = Vec::new();
        encode_frame_v3_into(&mut bytes, 0, 0, 1, &[pkt(1, 10).into()]);
        encode_frame_v3_into(&mut bytes, 0, 0, 1, &[pkt(1, 10).into()]);
        encode_frame_v3_into(&mut bytes, 0, 0, 2, &[pkt(1, 11).into()]);
        raw.write_all(&bytes).unwrap();
        raw.flush().unwrap();
        let mut rx = conn_b.rx((0, 0));
        let mut seen = Vec::new();
        for _ in 0..100_000 {
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                seen.extend(b.iter().map(tag));
            }
            if seen.len() >= 2 {
                break;
            }
        }
        assert_eq!(seen, vec![10, 11]);
        assert!(health.peer_down().is_none());
        // The ack the receiver generated must be cumulative to seq 2. Keep
        // polling the pump while reading: the ack is queued at delivery but
        // only flushed to the socket by later polls.
        raw.set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        let mut ackbuf = [0u8; FRAME_HEADER_BYTES];
        let mut have = 0;
        let start = Instant::now();
        while have < FRAME_HEADER_BYTES {
            pump_b.poll();
            match raw.read(&mut ackbuf[have..]) {
                Ok(0) => panic!("EOF before ack"),
                Ok(n) => have += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("ack read failed: {e}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "ack never arrived"
            );
        }
        assert_eq!(
            u16::from_le_bytes(ackbuf[..2].try_into().unwrap()),
            ACK_RANK
        );
        assert_eq!(u64::from_le_bytes(ackbuf[8..16].try_into().unwrap()), 2);
    }

    #[test]
    fn sequence_gap_without_recovery_kills_the_link() {
        // Frames 1 then 3: a hole. With ReconnectRole::None the conn dies.
        let (mut raw, sb) = pair();
        let health = FabricHealth::default();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let mut bytes = Vec::new();
        encode_frame_v3_into(&mut bytes, 0, 0, 1, &[pkt(1, 1).into()]);
        encode_frame_v3_into(&mut bytes, 0, 0, 3, &[pkt(1, 3).into()]);
        raw.write_all(&bytes).unwrap();
        raw.flush().unwrap();
        let mut rx = conn_b.rx((0, 0));
        let mut closed = false;
        for _ in 0..100_000 {
            pump_b.poll();
            match rx.try_recv() {
                LinkRecv::Closed => {
                    closed = true;
                    break;
                }
                LinkRecv::Burst(_) | LinkRecv::Empty => {}
            }
        }
        assert!(closed);
        let pd = health.peer_down().expect("marked down");
        assert!(pd.detail.contains("sequence gap"), "detail: {}", pd.detail);
    }

    #[test]
    fn peer_death_marks_health_and_closes_links() {
        let (sa, sb) = pair();
        let health_a = FabricHealth::default();
        let (conn_a, mut pump_a) = SocketConn::new(
            sa,
            ConnConfig::basic(peer("uds"), &[(1, 0)]),
            health_a.clone(),
        )
        .unwrap();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[]),
            FabricHealth::default(),
        )
        .unwrap();
        // B sends one burst, then dies (stream dropped).
        let mut btx = conn_b.tx(1, 0);
        assert!(matches!(
            btx.offer(vec![pkt(0, 7).into()]),
            LinkSend::Accepted
        ));
        for _ in 0..100 {
            pump_b.poll();
        }
        drop(pump_b);
        drop(conn_b);
        // A must deliver the in-flight burst, then report the dead peer.
        let mut rx = conn_a.rx((1, 0));
        let mut got = None;
        let mut closed = false;
        for _ in 0..10_000 {
            pump_a.poll();
            match rx.try_recv() {
                LinkRecv::Burst(b) => got = Some(b),
                LinkRecv::Closed => {
                    closed = true;
                    break;
                }
                LinkRecv::Empty => std::thread::yield_now(),
            }
        }
        assert_eq!(tag(&got.expect("in-flight burst delivered")[0]), 7);
        assert!(closed, "rx must report Closed after peer death");
        let pd = health_a.peer_down().expect("health board marked");
        assert_eq!(pd.rank, 1);
        assert_eq!(pd.backend, "uds");
        // Sends toward the dead peer report Closed, not Full.
        let mut tx = conn_a.tx(0, 0);
        assert!(matches!(tx.offer(vec![pkt(1, 0).into()]), LinkSend::Closed));
        assert_eq!(
            health_a.error(),
            Some(SmiError::PeerDisconnected { rank: 1 })
        );
    }

    #[test]
    fn replay_ring_overflow_is_a_typed_error() {
        let (sa, _sb) = pair();
        let health = FabricHealth::default();
        let mut cfg = ConnConfig::basic(peer("uds"), &[]);
        cfg.replay_budget = PKT_FRAME_BYTES; // one packet max
        let (conn_a, _pump_a) = SocketConn::new(sa, cfg, health.clone()).unwrap();
        let mut tx = conn_a.tx(0, 0);
        // A two-packet frame can never fit: typed fatal error, not Full.
        let burst = vec![pkt(1, 0).into(), pkt(1, 1).into()];
        assert!(matches!(tx.offer(burst), LinkSend::Closed));
        match health.error() {
            Some(SmiError::ReplayOverflow { needed, budget }) => {
                assert_eq!(needed, PKT_FRAME_BYTES + 1 + PACKET_BYTES);
                assert_eq!(budget, PKT_FRAME_BYTES);
            }
            other => panic!("expected ReplayOverflow, got {other:?}"),
        }
    }

    #[test]
    fn full_ring_is_backpressure_not_an_error() {
        let (sa, _sb) = pair();
        let health = FabricHealth::default();
        let mut cfg = ConnConfig::basic(peer("uds"), &[]);
        cfg.replay_budget = 2 * PKT_FRAME_BYTES;
        let (conn_a, _pump_a) = SocketConn::new(sa, cfg, health.clone()).unwrap();
        let mut tx = conn_a.tx(0, 0);
        assert!(matches!(
            tx.offer(vec![pkt(1, 0).into()]),
            LinkSend::Accepted
        ));
        assert!(matches!(
            tx.offer(vec![pkt(1, 1).into()]),
            LinkSend::Accepted
        ));
        // Third frame exceeds the budget while unacked: Full, burst back.
        match tx.offer(vec![pkt(1, 2).into()]) {
            LinkSend::Full(b) => assert_eq!(tag(&b[0]), 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(health.peer_down().is_none());
    }

    #[test]
    fn health_transitions_healthy_reconnecting_healthy_and_dead() {
        let health = FabricHealth::default();
        assert!(!health.any_reconnecting());
        assert!(health.error().is_none());
        // Healthy → Reconnecting.
        health.mark_reconnecting(ReconnectInfo {
            rank: 2,
            process: 1,
            attempt: 0,
            detail: "read failed".into(),
        });
        assert!(health.any_reconnecting());
        assert!(health.error().is_none(), "Reconnecting must not error");
        let peers = health.reconnecting_peers();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].process, 1);
        // Attempt bump keeps a single entry.
        health.mark_reconnecting(ReconnectInfo {
            rank: 2,
            process: 1,
            attempt: 3,
            detail: "re-dial refused".into(),
        });
        assert_eq!(health.reconnecting_peers().len(), 1);
        assert_eq!(health.reconnecting_peers()[0].attempt, 3);
        // Reconnecting → Healthy.
        health.mark_healthy(1);
        assert!(!health.any_reconnecting());
        assert_eq!(health.healed(), 1);
        assert!(health.error().is_none());
        // Reconnecting → Dead (budget exhaustion).
        health.mark_reconnecting(ReconnectInfo {
            rank: 2,
            process: 1,
            attempt: 9,
            detail: "re-dial refused".into(),
        });
        health.mark_down(PeerDown {
            rank: 2,
            process: 1,
            backend: "uds",
            addr: "test".into(),
            detail: "reconnect budget exhausted after 10 attempts".into(),
            kind: PeerDownKind::Link,
        });
        assert!(!health.any_reconnecting(), "Dead clears Reconnecting");
        assert_eq!(health.error(), Some(SmiError::PeerDisconnected { rank: 2 }));
        // Healing count unaffected by the failed recovery.
        assert_eq!(health.healed(), 1);
    }

    /// Full mid-stream recovery at the socket layer: a dialer-role conn
    /// loses its stream, re-dials a listener we control, re-handshakes and
    /// replays the unacked tail; the test peer verifies exactly-once
    /// delivery.
    #[test]
    fn mid_stream_reconnect_replays_unacked_frames() {
        let dir = std::env::temp_dir().join(format!("smi-sock-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("resume.sock");
        let (listener, addr) = SocketListener::bind_uds(path).unwrap();

        let (sa, sb) = pair();
        let health = FabricHealth::default();
        let session = fresh_session_id();
        let cfg = ConnConfig {
            peer: peer("uds"),
            recv_keys: Vec::new(),
            replay_budget: 1 << 20,
            policy: ReconnectPolicy::Retry {
                attempts: 10,
                backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
                multiplier: 2.0,
            },
            role: ReconnectRole::Dialer {
                redial: Redial::Uds(addr),
            },
            session,
            local_proc: 0,
            faults: None,
            copies: CopyMeter::default(),
            wire: WireStats::default(),
        };
        let (conn_a, mut pump_a) = SocketConn::new(sa, cfg, health.clone()).unwrap();
        let mut tx = conn_a.tx(0, 0);
        for i in 0..10u8 {
            assert!(matches!(
                tx.offer(vec![pkt(1, i).into()]),
                LinkSend::Accepted
            ));
        }
        // Push the first frames across the original stream, then cut it
        // without ever acking: everything must be replayed.
        for _ in 0..50 {
            pump_a.poll();
        }
        sb.shutdown().unwrap();
        drop(sb);

        // The test peer: accept the re-dial, handshake, read all 10 frames.
        let peer_thread = std::thread::spawn(move || {
            let mut s = listener.accept().expect("re-dial accepted");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let hello = recv_hello(&mut s).expect("resume hello");
            assert!(hello.resume);
            assert_eq!(hello.session, session);
            let reply = Hello {
                proc: 1,
                session,
                resume: true,
                last_recv: 0, // got nothing: replay everything
            };
            send_hello(&mut s, &reply).unwrap();
            let mut tags = Vec::new();
            let mut want_seq = 1;
            while tags.len() < 10 {
                let (seq, burst) = read_data_frame(&mut s);
                assert_eq!(seq, want_seq, "replayed in order");
                want_seq += 1;
                tags.extend(burst.iter().map(tag));
            }
            // Hand the stream back so it outlives the assertions: dropping
            // it here would look like a second mid-stream fault.
            (tags, s)
        });

        // Drive the pump through fault → reconnect → replay.
        let start = Instant::now();
        while health.healed() == 0 {
            pump_a.poll();
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "reconnect never healed; down={:?}",
                health.peer_down()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..10_000 {
            pump_a.poll();
        }
        let (tags, _peer_stream) = peer_thread.join().expect("peer thread");
        assert_eq!(tags, (0..10u8).collect::<Vec<_>>());
        assert!(health.peer_down().is_none());
        assert!(!health.any_reconnecting());
    }

    /// Budget exhaustion: the redial target never answers, so the conn
    /// walks Healthy → Reconnecting{0..n} → Dead.
    #[test]
    fn reconnect_budget_exhaustion_marks_peer_dead() {
        let (sa, sb) = pair();
        let health = FabricHealth::default();
        let cfg = ConnConfig {
            peer: peer("uds"),
            recv_keys: Vec::new(),
            replay_budget: 1 << 20,
            policy: ReconnectPolicy::Retry {
                attempts: 3,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                multiplier: 2.0,
            },
            role: ReconnectRole::Dialer {
                redial: Redial::Uds("/nonexistent/smi-no-such-listener.sock".into()),
            },
            session: 1,
            local_proc: 0,
            faults: None,
            copies: CopyMeter::default(),
            wire: WireStats::default(),
        };
        let (conn_a, mut pump_a) = SocketConn::new(sa, cfg, health.clone()).unwrap();
        let mut tx = conn_a.tx(0, 0);
        assert!(matches!(
            tx.offer(vec![pkt(1, 0).into()]),
            LinkSend::Accepted
        ));
        sb.shutdown().unwrap();
        drop(sb);
        let mut was_reconnecting = false;
        let start = Instant::now();
        loop {
            let step = pump_a.poll();
            was_reconnecting |= health.any_reconnecting();
            if matches!(step, Step::Done) || health.peer_down().is_some() {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(20), "never died");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(was_reconnecting, "must pass through Reconnecting");
        assert!(!health.any_reconnecting());
        let pd = health.peer_down().expect("dead");
        assert!(
            pd.detail.contains("reconnect budget exhausted"),
            "detail: {}",
            pd.detail
        );
        assert_eq!(health.error(), Some(SmiError::PeerDisconnected { rank: 1 }));
    }

    #[test]
    fn v3_frame_roundtrip_mixes_packets_and_runs() {
        use smi_wire::PacketRun;
        let elems: Vec<u8> = (0..200).collect();
        let burst: Burst = vec![
            pkt(1, 7).into(),
            Frame::Run(PacketRun::from_elems(0, 1, 2, PacketOp::Send, &elems)),
            pkt(1, 8).into(),
        ];
        let mut out = Vec::new();
        encode_frame_v3_into(&mut out, 5, 3, 42, &burst);
        // Header: v3 flag set, low bits carry the body byte length.
        let nfield = u32::from_le_bytes(out[4..8].try_into().unwrap());
        assert_ne!(nfield & V3_FLAG, 0);
        let body = (nfield & !V3_FLAG) as usize;
        assert_eq!(out.len(), FRAME_HEADER_BYTES + body);
        assert_eq!(
            body,
            2 * (1 + PACKET_BYTES) + V3_RUN_ITEM_HEADER + elems.len()
        );
        let block: Arc<[u8]> = out.into();
        let got = decode_v3_body(&block, FRAME_HEADER_BYTES, body).unwrap();
        assert_eq!(got.len(), 3);
        match (&got[0], &got[1], &got[2]) {
            (Frame::Pkt(a), Frame::Run(r), Frame::Pkt(b)) => {
                assert_eq!(a.payload[0], 7);
                assert_eq!(b.payload[0], 8);
                assert_eq!(r.dtype, Datatype::Char);
                assert_eq!(r.header.dst, 1);
                assert_eq!(r.header.port, 2);
                assert_eq!(r.payload.as_slice(), &elems[..]);
            }
            other => panic!("wrong decode shape: {other:?}"),
        }
        // The run view borrows the receive block — no payload copy.
        assert_eq!(Arc::strong_count(&block), 2);
        drop(got);
        assert_eq!(Arc::strong_count(&block), 1);
    }

    #[test]
    fn conn_delivers_runs_as_views() {
        use smi_wire::PacketRun;
        let (sa, sb) = pair();
        let health = FabricHealth::default();
        let wire = WireStats::default();
        let mut cfg_a = ConnConfig::basic(peer("uds"), &[]);
        cfg_a.wire = wire.clone();
        let (conn_a, mut pump_a) = SocketConn::new(sa, cfg_a, health.clone()).unwrap();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        let elems: Vec<u8> = (0..100).map(|i| i as u8).collect();
        assert!(matches!(
            tx.offer(vec![Frame::Run(PacketRun::from_elems(
                0,
                1,
                0,
                PacketOp::Send,
                &elems
            ))]),
            LinkSend::Accepted
        ));
        let mut got: Vec<u8> = Vec::new();
        for _ in 0..100_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                for f in &b {
                    match f {
                        Frame::Run(r) => got.extend_from_slice(r.payload.as_slice()),
                        Frame::Pkt(_) => panic!("run payloads must arrive as runs"),
                    }
                }
            }
            if got.len() == elems.len() {
                break;
            }
        }
        assert_eq!(got, elems);
        let snap = wire.snapshot();
        assert!(snap.send_syscalls > 0, "send syscalls counted");
        assert!(snap.send_bytes > 0, "send bytes counted");
        assert!(health.peer_down().is_none());
    }

    /// A sender/receiver pair with the send side's wire counters exposed.
    fn conn_pair() -> (SocketConn, SocketPump, SocketConn, SocketPump, WireStats) {
        let (sa, sb) = pair();
        let health = FabricHealth::default();
        let wire = WireStats::default();
        let mut cfg_a = ConnConfig::basic(peer("uds"), &[]);
        cfg_a.wire = wire.clone();
        let (conn_a, pump_a) = SocketConn::new(sa, cfg_a, health.clone()).unwrap();
        let (conn_b, pump_b) =
            SocketConn::new(sb, ConnConfig::basic(peer("uds"), &[(0, 0)]), health).unwrap();
        (conn_a, pump_a, conn_b, pump_b, wire)
    }

    #[test]
    fn cork_merges_small_bursts_into_one_frame() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, wire) = conn_pair();
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        // 16 one-packet offers before the pump ever runs: everything after
        // the first must merge into the same untransmitted ring frame.
        for i in 0..16u8 {
            assert!(matches!(
                tx.offer(vec![pkt(1, i).into()]),
                LinkSend::Accepted
            ));
        }
        {
            let ring = conn_a.shared.ring.lock().unwrap();
            assert_eq!(ring.frames.len(), 1, "cork should merge small bursts");
            assert_eq!(ring.next_seq, 2);
        }
        assert_eq!(
            wire.corked_frames.load(Ordering::Relaxed),
            15,
            "15 merges into the first frame"
        );
        let mut seen = Vec::new();
        for _ in 0..100_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                seen.extend(b.iter().map(tag));
            }
            if seen.len() == 16 {
                break;
            }
        }
        assert_eq!(seen, (0..16u8).collect::<Vec<_>>());
    }

    #[test]
    fn cork_writes_a_quiet_producer_on_the_next_poll() {
        let (conn_a, mut pump_a, _conn_b, _pump_b, wire) = conn_pair();
        let mut tx = conn_a.tx(0, 0);
        assert!(matches!(
            tx.offer(vec![pkt(1, 9).into()]),
            LinkSend::Accepted
        ));
        // The first poll sees the bytes arrive and may defer; the second
        // sees no new bytes and must write them.
        for _ in 0..2 {
            pump_a.poll();
        }
        assert_eq!(
            wire.send_syscalls.load(Ordering::Relaxed),
            1,
            "a lone small write waits at most one extra poll"
        );
    }

    #[test]
    fn cork_still_coalesces_a_streaming_producer() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, wire) = conn_pair();
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        let offers = 16u8;
        for i in 0..offers {
            assert!(matches!(
                tx.offer(vec![pkt(1, i).into()]),
                LinkSend::Accepted
            ));
            pump_a.poll();
        }
        let mut seen = Vec::new();
        for _ in 0..100_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                seen.extend(b.iter().map(tag));
            }
            if seen.len() == offers as usize {
                break;
            }
        }
        assert_eq!(seen, (0..offers).collect::<Vec<_>>());
        let syscalls = wire.send_syscalls.load(Ordering::Relaxed);
        assert!(
            syscalls < offers as u64 / 2,
            "{offers} offers, one per poll, took {syscalls} send syscalls"
        );
    }

    #[test]
    fn oversized_run_splits_across_frames() {
        use smi_wire::PacketRun;
        let (sa, sb) = pair();
        let health = FabricHealth::default();
        let (conn_a, mut pump_a) =
            SocketConn::new(sa, ConnConfig::basic(peer("uds"), &[]), health.clone()).unwrap();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        let elems: Vec<u8> = (0..150_000).map(|i| (i * 31) as u8).collect();
        let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &elems);
        let total_packets = run.packet_count();
        assert!(matches!(
            tx.offer(vec![Frame::Run(run)]),
            LinkSend::Accepted
        ));
        {
            let ring = conn_a.shared.ring.lock().unwrap();
            assert!(
                ring.frames.len() >= 3,
                "150 kB must split across >=3 frames of <=64 kB, got {}",
                ring.frames.len()
            );
            for (_, buf) in &ring.frames {
                assert!(buf.len() <= FRAME_HEADER_BYTES + FRAME_SPLIT_BYTES);
            }
        }
        let mut got: Vec<u8> = Vec::new();
        let mut packets = 0usize;
        for _ in 0..1_000_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                for f in &b {
                    packets += f.packet_count();
                    match f {
                        Frame::Run(r) => got.extend_from_slice(r.payload.as_slice()),
                        Frame::Pkt(_) => panic!("run payloads must arrive as runs"),
                    }
                }
            }
            if got.len() == elems.len() {
                break;
            }
        }
        assert_eq!(got, elems, "split delivery must be byte-identical");
        assert_eq!(
            packets, total_packets,
            "packet-aligned splitting preserves the packet count"
        );
    }

    /// Regression: a pending ack must never enter the stream inside a
    /// partially written frame. A fills the socket mid-frame with a large
    /// run, B's packet makes A queue an ack, and A's next write must finish
    /// the frame before the ack goes out. Splicing the ack in corrupted
    /// the run silently: the receiver had already counted the frame.
    #[test]
    fn acks_never_split_a_partially_written_frame() {
        let (sa, sb) = pair();
        let health = FabricHealth::default();
        let (conn_a, mut pump_a) = SocketConn::new(
            sa,
            ConnConfig::basic(peer("uds"), &[(1, 0)]),
            health.clone(),
        )
        .unwrap();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let elems: Vec<u8> = (0..1_000_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &elems);
        assert!(matches!(
            conn_a.tx(0, 0).offer(vec![Frame::Run(run)]),
            LinkSend::Accepted
        ));
        assert!(matches!(
            conn_b.tx(1, 0).offer(vec![pkt(0, 5).into()]),
            LinkSend::Accepted
        ));
        // B's packet goes out first (the cork holds it for one poll).
        pump_b.poll();
        pump_b.poll();
        // A writes until the socket is full, reads B's packet and queues an
        // ack; B has not read yet, so A's head frame stays half written.
        for _ in 0..4 {
            pump_a.poll();
        }
        assert!(
            conn_a.shared.ring.lock().unwrap().wire_off > 0 && !pump_a.ctrl.is_empty(),
            "precondition: an ack is pending while a frame is partially written"
        );
        let (mut rx_a, mut rx_b) = (conn_a.rx((1, 0)), conn_b.rx((0, 0)));
        let mut got: Vec<u8> = Vec::new();
        let mut back = Vec::new();
        for _ in 0..100_000 {
            pump_b.poll();
            pump_a.poll();
            while let LinkRecv::Burst(b) = rx_b.try_recv() {
                for f in &b {
                    match f {
                        Frame::Run(r) => got.extend_from_slice(r.payload.as_slice()),
                        Frame::Pkt(_) => panic!("run payloads must arrive as runs"),
                    }
                }
            }
            while let LinkRecv::Burst(b) = rx_a.try_recv() {
                back.extend(b.iter().map(tag));
            }
            if health.peer_down().is_some() || (got.len() == elems.len() && back.len() == 1) {
                break;
            }
        }
        assert!(health.peer_down().is_none(), "{:?}", health.peer_down());
        assert_eq!(back, vec![5]);
        assert_eq!(got.len(), elems.len());
        let first_bad = got.iter().zip(&elems).position(|(a, b)| a != b);
        assert_eq!(
            first_bad, None,
            "payload corrupted from byte {first_bad:?} on"
        );
    }

    /// Encode a single-run frame body by hand (bypassing the encoder's
    /// invariants) and decode it.
    fn decode_hand_run(op: PacketOp, dtype: Datatype, payload: &[u8]) -> Result<Burst, String> {
        let mut body = vec![V3_ITEM_RUN];
        body.push(Datatype::ALL.iter().position(|d| *d == dtype).unwrap() as u8);
        body.extend_from_slice(&NetworkPacket::new(0, 1, 0, op).header.pack());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(payload);
        let len = body.len();
        decode_v3_body(&body.into(), 0, len)
    }

    #[test]
    fn decoder_rejects_an_empty_run() {
        let err = decode_hand_run(PacketOp::Send, Datatype::Int, &[]).unwrap_err();
        assert!(err.contains("empty run"), "{err}");
    }

    #[test]
    fn decoder_rejects_a_run_of_partial_elements() {
        let err = decode_hand_run(PacketOp::Send, Datatype::Int, &[7; 6]).unwrap_err();
        assert!(err.contains("whole number"), "{err}");
    }

    #[test]
    fn decoder_rejects_a_run_under_a_control_op() {
        let err = decode_hand_run(PacketOp::Credit, Datatype::Int, &[7; 8]).unwrap_err();
        assert!(err.contains("carries no data"), "{err}");
    }

    #[test]
    fn data_frame_without_v3_flag_is_a_corrupt_frame() {
        let (mut raw, sb) = pair();
        let health = FabricHealth::default();
        let (conn_b, mut pump_b) = SocketConn::new(
            sb,
            ConnConfig::basic(peer("uds"), &[(0, 0)]),
            health.clone(),
        )
        .unwrap();
        let mut bytes = Vec::new();
        encode_frame_v3_into(&mut bytes, 0, 0, 1, &[pkt(1, 1).into()]);
        bytes[7] &= 0x7f; // clear V3_FLAG: the old packet-count header shape
        raw.write_all(&bytes).unwrap();
        let mut rx = conn_b.rx((0, 0));
        for _ in 0..100_000 {
            pump_b.poll();
            if matches!(rx.try_recv(), LinkRecv::Closed) {
                break;
            }
        }
        let pd = health.peer_down().expect("marked down");
        assert!(pd.detail.contains("corrupt frame"), "detail: {}", pd.detail);
    }

    /// The fault filter on the vectored flush reproduces the schedule's
    /// byte order: a duplicate right after its original, a released delay
    /// right after its trigger frame, and a sever once its frame is out.
    #[test]
    fn fault_filter_orders_side_frames_and_severs() {
        use crate::transport::faults::{DelaySpec, FaultPlan, LinkFault, SeverSpec};
        let (sa, mut raw) = pair();
        let health = FabricHealth::default();
        let mut cfg = ConnConfig::basic(peer("uds"), &[]);
        cfg.faults = FaultPlan {
            links: vec![LinkFault {
                drop: vec![6],
                duplicate: vec![2],
                delay: vec![DelaySpec { frame: 3, by: 1 }],
                sever: vec![SeverSpec { after_frame: 5 }],
                ..LinkFault::clean(0, 1)
            }],
        }
        .injector_for(0, 1);
        let (conn_a, mut pump_a) = SocketConn::new(sa, cfg, health.clone()).unwrap();
        // Distinct endpoint tags keep the cork from merging the frames.
        for q in 0..7u16 {
            let mut tx = conn_a.tx(0, q as usize);
            assert!(matches!(
                tx.offer(vec![pkt(1, q as u8).into()]),
                LinkSend::Accepted
            ));
        }
        for _ in 0..100 {
            if matches!(pump_a.poll(), Step::Done) {
                break;
            }
        }
        assert!(health.peer_down().is_some(), "the sever must end the link");
        let mut seqs = Vec::new();
        let mut hdr = [0u8; FRAME_HEADER_BYTES];
        while raw.read_exact(&mut hdr).is_ok() {
            let body = (u32::from_le_bytes(hdr[4..8].try_into().unwrap()) & !V3_FLAG) as usize;
            let mut skip = vec![0u8; body];
            raw.read_exact(&mut skip).unwrap();
            seqs.push(u64::from_le_bytes(hdr[8..16].try_into().unwrap()));
        }
        assert_eq!(seqs, vec![1, 2, 2, 4, 3, 5]);
    }
}
