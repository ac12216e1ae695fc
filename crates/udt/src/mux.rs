//! UDP demultiplexer: one socket, many connections.
//!
//! Every UDT packet carries a destination connection id; a single demux
//! thread drains the socket in batches (one `recvmmsg` per wakeup on
//! Linux, see [`crate::mmsg`]) into pooled buffers, routes each decoded
//! batch to per-connection queues (handshake requests, which carry id 0,
//! go to the listener queue), and hands every connection its share of the
//! batch as **one** channel send. Sends go out through the shared socket
//! from any thread, coalesced into `sendmmsg` flushes when the caller has
//! more than one packet. This mirrors how the released UDT library lets
//! many connections share one UDP port, with the batch-of-packets unit of
//! work layered on top.
//!
//! Steady-state allocation discipline: receive buffers come from the
//! recycling [`BufPool`], send buffers from per-thread scratch slots;
//! the only per-wakeup allocations are the batch vectors themselves,
//! amortized over every packet they carry.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use udt_metrics::counters::{BatchCounters, BatchSnapshot};
use udt_proto::ctrl::type_code;
use udt_proto::{decode, encode, Packet, SeqNo};
use udt_trace::{DropReason, EventKind, Tracer};

use crate::auth::AuthCtx;
use crate::config::UdtConfig;
use crate::instrument::{Category, Instrument};
use crate::mmsg::{BatchIo, RecvScratch};
use crate::pool::BufPool;

/// Deferred replay-window mark: the context and data sequence to record
/// once the packet is actually delivered to its connection.
type ReplayMark = (Arc<AuthCtx>, SeqNo);

/// A routed inbound packet.
pub(crate) type MuxMsg = (Packet, SocketAddr);

/// One demux wakeup's worth of packets for a single connection: the unit
/// the per-connection queues carry (one crossbeam send per batch, not per
/// packet).
pub(crate) type MuxBatch = Vec<MuxMsg>;

pub(crate) struct Mux {
    socket: UdpSocket,
    local_addr: SocketAddr,
    conns: Mutex<HashMap<u32, Sender<MuxBatch>>>,
    listener: Mutex<Option<Sender<MuxMsg>>>,
    stop: AtomicBool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Set once a traced connection/listener attaches; only consulted on
    /// the cold shed path, so a mutex (not a hot-path atomic) suffices.
    tracer: Mutex<Tracer>,
    /// Authenticated-profile contexts, by local connection id. A present
    /// entry makes the demux thread require (and strip) a valid trailer
    /// tag on every non-handshake datagram for that connection — forged
    /// packets are dropped *before* decode, so they can never reach the
    /// connection's protocol state (no EXP refresh, no forged Shutdown).
    auth: Mutex<HashMap<u32, Arc<AuthCtx>>>,
    /// Batched syscall front end (`recvmmsg`/`sendmmsg` or fallback).
    io: BatchIo,
    /// Recycled receive buffers; zero per-packet allocation in steady
    /// state.
    pool: BufPool,
    /// Batch-size and pool hit/miss accounting, shared with the pool.
    counters: Arc<BatchCounters>,
    /// Batch-size histograms, present only when the config carries a
    /// [`crate::obs::MetricsHub`].
    obs: Option<MuxObs>,
    /// Max datagrams drained per demux wakeup (`rcv_batch_pkts`).
    rcv_batch: usize,
}

/// Per-mux histogram set (labelled `mux="<local port>"`).
struct MuxObs {
    recv_batch: Arc<udt_metrics::hist::Histogram>,
    send_batch: Arc<udt_metrics::hist::Histogram>,
}

/// Minimal raw-header peek: `(is_control, type_code, conn_id, seq)`
/// without decoding the packet. Returns `None` when the buffer is too
/// short to carry the respective header (the decoder will reject it too).
fn peek_header(buf: &[u8]) -> Option<(bool, u16, u32, u32)> {
    if buf.len() < 12 {
        return None;
    }
    // udt-lint: allow(unwrap) — 4-byte slices of a length-checked buffer
    let w0 = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes"));
    if w0 & 0x8000_0000 == 0 {
        // udt-lint: allow(unwrap)
        let conn_id = u32::from_be_bytes(buf[8..12].try_into().expect("4 bytes"));
        Some((false, 0, conn_id, w0 & 0x7FFF_FFFF))
    } else {
        if buf.len() < 16 {
            return None;
        }
        let tc = ((w0 >> 16) & 0x7FFF) as u16;
        // udt-lint: allow(unwrap)
        let conn_id = u32::from_be_bytes(buf[12..16].try_into().expect("4 bytes"));
        Some((true, tc, conn_id, 0))
    }
}

impl Mux {
    /// Bind a socket and start the demux thread. `cfg` supplies the
    /// datapath tuning: receive batch size, buffer-pool depth, and the
    /// MSS the pool stride is derived from.
    pub fn bind(addr: SocketAddr, cfg: &UdtConfig) -> io::Result<Arc<Mux>> {
        let socket = UdpSocket::bind(addr)?;
        let local_addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(100)))?;
        // Deep UDP socket buffers (reference-implementation parity): a
        // kernel queue that absorbs a burst becomes one `recvmmsg` batch
        // instead of drops. Best-effort; `0` keeps the OS default.
        crate::mmsg::set_socket_buffers(&socket, cfg.udp_sndbuf_bytes, cfg.udp_rcvbuf_bytes);
        let counters = Arc::new(BatchCounters::new());
        // Stride covers a full data packet plus trailer tag, with a floor
        // that fits every control packet (largest: a 64-range NAK).
        let stride = (cfg.mss as usize).max(512) + 72;
        let pool = BufPool::new(
            cfg.buf_pool_pkts.max(8) as usize,
            stride,
            Arc::clone(&counters),
        );
        let obs = cfg.metrics.as_ref().map(|hub| {
            let port = local_addr.port().to_string();
            let labels = [("mux", port.as_str())];
            let reg = hub.registry();
            // Registration failures (e.g. a port reused within one hub)
            // degrade observability, never the datapath.
            let _ = reg.register_family(&labels, Arc::clone(&counters));
            if let Ok(h) = reg.histogram(
                "udt_mux_pool_sweep_ns",
                "duration of buffer-pool reclaim sweeps, nanoseconds",
                &labels,
            ) {
                pool.set_sweep_hist(h);
            }
            let hist = |name: &str, help: &str| {
                reg.histogram(name, help, &labels)
                    .unwrap_or_else(|_| Arc::new(udt_metrics::hist::Histogram::new()))
            };
            MuxObs {
                recv_batch: hist(
                    "udt_mux_recv_batch_pkts",
                    "datagrams drained from the UDP socket per demux wakeup",
                ),
                send_batch: hist(
                    "udt_mux_send_batch_pkts",
                    "data packets coalesced per socket flush",
                ),
            }
        });
        let mux = Arc::new(Mux {
            socket,
            local_addr,
            conns: Mutex::new(HashMap::new()),
            listener: Mutex::new(None),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
            tracer: Mutex::new(Tracer::disabled()),
            auth: Mutex::new(HashMap::new()),
            io: BatchIo::detect(),
            pool,
            counters,
            obs,
            rcv_batch: cfg.rcv_batch_pkts.max(1) as usize,
        });
        let weak = Arc::downgrade(&mux);
        let rx = mux.socket.try_clone()?;
        let handle = std::thread::Builder::new()
            .name("udt-mux".into())
            .spawn(move || {
                let mut scratch = RecvScratch::new();
                // Raw datagrams land here; the vector is reused forever.
                let mut raw: Vec<(BytesMut, SocketAddr)> = Vec::with_capacity(64);
                loop {
                    let Some(mux) = weak.upgrade() else { return };
                    if mux.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    raw.clear();
                    match mux
                        .io
                        .recv_batch(&rx, &mux.pool, mux.rcv_batch, &mut scratch, &mut raw)
                    {
                        Ok(0) => {}
                        Ok(_) => mux.process_batch(&mut raw),
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut
                                || e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return,
                    }
                }
            })?;
        *mux.thread.lock() = Some(handle);
        Ok(mux)
    }

    /// Gate one raw inbound datagram through the authenticated profile.
    ///
    /// Returns the number of leading bytes to decode (the trailer tag is
    /// stripped when present) plus, for authenticated data packets, the
    /// context/sequence pair to mark in the replay window once the packet
    /// is actually delivered. `None` means drop: missing/invalid tag or a
    /// replay. Handshake control packets always pass untagged — they are
    /// authenticated at field level ([`udt_proto::auth::handshake_tag`]),
    /// since they are what negotiates the trailer keys in the first place.
    fn auth_gate(&self, buf: &[u8]) -> Option<(usize, Option<ReplayMark>)> {
        let Some((is_ctrl, tc, conn_id, raw_seq)) = peek_header(buf) else {
            return Some((buf.len(), None)); // let the decoder reject it
        };
        if conn_id == 0 {
            return Some((buf.len(), None)); // listener handshake traffic
        }
        let ctx = self.auth.lock().get(&conn_id).cloned();
        let Some(ctx) = ctx else {
            return Some((buf.len(), None)); // plaintext connection
        };
        if is_ctrl && tc == type_code::HANDSHAKE {
            return Some((buf.len(), None));
        }
        let seq_hint = if is_ctrl { 0 } else { raw_seq };
        let body = ctx.verify_trailer(buf, seq_hint)?;
        if is_ctrl {
            return Some((body, None));
        }
        let seq = SeqNo::new(raw_seq);
        if ctx.is_replay(seq) {
            return None;
        }
        Some((body, Some((ctx, seq))))
    }

    /// Demultiplex one receive batch: auth-gate and decode every datagram
    /// (per-packet semantics identical to the per-packet path), group the
    /// survivors by connection id, then deliver each group with a single
    /// channel send under a single registry lock.
    fn process_batch(&self, raw: &mut Vec<(BytesMut, SocketAddr)>) {
        self.counters.recv_batches(1);
        self.counters.recv_pkts(raw.len() as u64);
        if let Some(o) = &self.obs {
            o.recv_batch.record(raw.len() as u64);
        }
        // Per-wakeup scratch, amortized over the whole batch. The inner
        // `MuxBatch` vectors transfer ownership through the channel, so
        // they cannot be reused — that is the one amortized allocation
        // per connection per wakeup the design accepts.
        let mut groups: Vec<(u32, MuxBatch, Vec<ReplayMark>)> = Vec::with_capacity(4);
        for (buf, from) in raw.drain(..) {
            let Some((body, mark)) = self.auth_gate(&buf) else {
                self.pool.put(buf); // failed tag/replay check: drop
                continue;
            };
            let mut buf = buf;
            buf.truncate(body);
            let datagram = buf.freeze();
            // Remember the allocation so the pool reclaims it once every
            // downstream reader has dropped it.
            self.pool.retire(&datagram);
            let Ok(pkt) = decode(datagram) else {
                continue; // malformed datagram: drop
            };
            let id = pkt.conn_id();
            if id == 0 {
                // Handshake traffic addressed to no connection: the
                // listener's, one message per packet (cold path).
                if let Some(l) = self.listener.lock().as_ref() {
                    let _ = l.try_send((pkt, from));
                }
                continue;
            }
            if let Some(g) = groups.iter_mut().find(|g| g.0 == id) {
                g.1.push((pkt, from));
                if let Some(m) = mark {
                    g.2.push(m);
                }
            } else {
                let mut msgs: MuxBatch = Vec::with_capacity(8);
                msgs.push((pkt, from));
                let mut marks = Vec::with_capacity(usize::from(mark.is_some()) * 4);
                if let Some(m) = mark {
                    marks.push(m);
                }
                groups.push((id, msgs, marks));
            }
        }
        if groups.is_empty() {
            return;
        }
        // One registry lock per batch; shed traces go out after it drops.
        let mut shed: Vec<(u32, MuxBatch)> = Vec::with_capacity(0);
        {
            let conns = self.conns.lock();
            for (id, msgs, marks) in groups {
                let Some(tx) = conns.get(&id) else { continue };
                // Bounded queues: shedding under overload beats unbounded
                // RAM.
                match tx.try_send(msgs) {
                    Ok(()) => {
                        // Mark authenticated data as delivered only now: a
                        // shed packet stays unmarked so its retransmission
                        // is not mistaken for a replay.
                        for (ctx, seq) in marks {
                            ctx.mark_delivered(seq);
                        }
                    }
                    Err(
                        crossbeam::channel::TrySendError::Full(b)
                        | crossbeam::channel::TrySendError::Disconnected(b),
                    ) => shed.push((id, b)),
                }
            }
        }
        for (id, batch) in shed {
            let tracer = self.tracer.lock();
            for (pkt, _) in batch {
                let seq = match &pkt {
                    Packet::Data(d) => d.seq.raw(),
                    Packet::Control(_) => 0,
                };
                tracer.emit(
                    id,
                    EventKind::DataDrop {
                        seq,
                        reason: DropReason::Shed,
                    },
                );
            }
        }
    }

    /// Local socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time batch/pool efficiency counters.
    pub fn batch_counters(&self) -> BatchSnapshot {
        self.counters.snapshot()
    }

    /// True while the multi-message syscalls are in use (false on
    /// non-Linux targets or after a runtime `ENOSYS` downgrade).
    pub fn batched_io(&self) -> bool {
        self.io.is_batched()
    }

    /// Attach a tracer so demux-level drops (queue shed) are recorded on
    /// the same timeline as protocol events. No-op tracers are fine.
    pub fn set_tracer(&self, t: &Tracer) {
        if t.is_enabled() {
            *self.tracer.lock() = t.clone();
        }
    }

    /// Register the listener queue (handshake requests land here).
    pub fn set_listener(&self) -> Receiver<MuxMsg> {
        let (tx, rx) = crossbeam::channel::bounded(256);
        *self.listener.lock() = Some(tx);
        rx
    }

    /// Register a connection queue under `local_id`. `depth` is in
    /// *packets*, as before batching: the queue holds up to
    /// `depth / rcv_batch` full batches (floored generously so sparse
    /// single-packet batches keep a usable queue).
    pub fn register(&self, local_id: u32, depth: usize) -> Receiver<MuxBatch> {
        let batches = (depth / self.rcv_batch).max(64);
        let (tx, rx) = crossbeam::channel::bounded(batches);
        self.conns.lock().insert(local_id, tx);
        rx
    }

    /// Remove a connection queue (and its auth context, if any). A mux
    /// left with no connection and no listener — a client's, once its
    /// connection closes — stops its demux thread at once; the socket
    /// stays open for sends until the last `Arc` drops.
    pub fn unregister(&self, local_id: u32) {
        let idle = {
            let mut conns = self.conns.lock();
            conns.remove(&local_id);
            conns.is_empty()
        };
        self.auth.lock().remove(&local_id);
        if idle && self.listener.lock().is_none() {
            self.shutdown();
        }
    }

    /// Whether `local_id` still has a route or an auth context here.
    #[cfg(test)]
    pub(crate) fn is_routed(&self, local_id: u32) -> bool {
        self.conns.lock().contains_key(&local_id) || self.auth.lock().contains_key(&local_id)
    }

    /// Whether the demux thread is still attached (not yet shut down).
    #[cfg(test)]
    pub(crate) fn demux_running(&self) -> bool {
        self.thread.lock().is_some()
    }

    /// Install (or replace) the authenticated-profile context for
    /// `local_id`: inbound non-handshake datagrams for that id now require
    /// a valid trailer tag.
    pub fn set_auth(&self, local_id: u32, ctx: Arc<AuthCtx>) {
        self.auth.lock().insert(local_id, ctx);
    }

    /// Drop the auth context for `local_id` (negotiated downgrade under
    /// `AuthPolicy::Prefer`).
    pub fn clear_auth(&self, local_id: u32) {
        self.auth.lock().remove(&local_id);
    }

    /// Encode and send one packet. Returns the wall-clock cost in
    /// nanoseconds (fed back into §4.4's minimum-period correction).
    pub fn send(&self, pkt: &Packet, to: SocketAddr, instr: &Instrument) -> io::Result<u64> {
        self.send_auth(pkt, to, instr, None)
    }

    /// Encode and send one packet, appending a trailer tag over the
    /// encoded bytes when an auth context is supplied.
    pub fn send_auth(
        &self,
        pkt: &Packet,
        to: SocketAddr,
        instr: &Instrument,
        auth: Option<&AuthCtx>,
    ) -> io::Result<u64> {
        thread_local! {
            static BUF: std::cell::RefCell<BytesMut> = std::cell::RefCell::new(BytesMut::with_capacity(65_536));
        }
        BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            {
                let _t = instr.scope(Category::Packing);
                encode(pkt, &mut buf);
                if let Some(ctx) = auth {
                    let tag = ctx.tx_key.tag(&buf);
                    buf.extend_from_slice(&tag.to_be_bytes());
                }
            }
            let t0 = std::time::Instant::now();
            let res = {
                let _t = instr.scope(Category::UdpSend);
                self.socket.send_to(&buf, to)
            };
            self.counters.send_batches(1);
            self.counters.send_pkts(1);
            if let Some(o) = &self.obs {
                o.send_batch.record(1);
            }
            res.map(|_| t0.elapsed().as_nanos() as u64)
        })
    }

    /// Encode and send a burst of packets to one destination as a single
    /// socket flush (`sendmmsg` when available), appending trailer tags
    /// when an auth context is supplied. Encoding writes into per-thread
    /// scratch slots — no allocation in steady state. Returns the
    /// wall-clock cost of the whole flush in nanoseconds (the §4.4
    /// send-cost feedback for the burst; callers divide by the burst
    /// length for the per-packet figure).
    pub fn send_batch(
        &self,
        pkts: &[Packet],
        to: SocketAddr,
        instr: &Instrument,
        auth: Option<&AuthCtx>,
    ) -> io::Result<u64> {
        match pkts.len() {
            0 => return Ok(0),
            1 => return self.send_auth(&pkts[0], to, instr, auth),
            _ => {}
        }
        thread_local! {
            // Initializer runs once per thread; the slots grow to batch
            // size below and are reused for every later flush.
            static SLOTS: std::cell::RefCell<Vec<BytesMut>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SLOTS.with(|cell| {
            let mut slots = cell.borrow_mut();
            if slots.len() < pkts.len() {
                // Warm-up growth only; steady state reuses the slots.
                slots.resize_with(pkts.len(), || BytesMut::with_capacity(2048));
            }
            {
                let _t = instr.scope(Category::Packing);
                for (pkt, buf) in pkts.iter().zip(slots.iter_mut()) {
                    buf.clear();
                    encode(pkt, buf);
                    if let Some(ctx) = auth {
                        let tag = ctx.tx_key.tag(&buf[..]);
                        buf.extend_from_slice(&tag.to_be_bytes());
                    }
                }
            }
            let t0 = std::time::Instant::now();
            let res = {
                let _t = instr.scope(Category::UdpSend);
                self.io.send_batch(&self.socket, &slots[..pkts.len()], to)
            };
            let sent = res?;
            self.counters.send_batches(1);
            self.counters.send_pkts(sent as u64);
            if let Some(o) = &self.obs {
                o.send_batch.record(sent as u64);
            }
            Ok(t0.elapsed().as_nanos() as u64)
        })
    }

    /// Stop the demux thread and wait for it; idempotent. The thread is
    /// woken out of its blocking receive by an empty datagram to our own
    /// port instead of waiting out the read timeout, and the listener
    /// queue is closed so a handshake service blocked on it returns too.
    /// The socket itself stays usable for sends.
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            *self.listener.lock() = None;
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // Best effort: on failure the read timeout still ends the wait.
            let _ = self.socket.send_to(&[], wake);
        }
        let handle = self.thread.lock().take();
        if let Some(h) = handle {
            // The final Arc can be dropped *by the demux thread itself*
            // (it briefly upgrades its Weak); joining ourselves would
            // deadlock, so let the thread wind down on its own then.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
        // Nothing receives any more: free the receive buffers now rather
        // than when the last `Arc` (possibly a closing connection's
        // Shutdown tail) lets go of the mux.
        self.pool.release();
    }
}

impl Drop for Mux {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use udt_proto::ctrl::ControlPacket;

    fn bind_test(addr: &str) -> Arc<Mux> {
        Mux::bind(addr.parse().unwrap(), &UdtConfig::default()).unwrap()
    }

    /// Pop the next single packet out of a batched queue.
    fn recv_one(q: &Receiver<MuxBatch>, timeout: Duration) -> Option<MuxMsg> {
        q.recv_timeout(timeout).ok().and_then(|b| b.into_iter().next())
    }

    #[test]
    fn routes_by_conn_id() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q7 = b.register(7, 64);
        let q9 = b.register(9, 64);
        let instr = Instrument::default();
        a.send(
            &Packet::Control(ControlPacket::keepalive(7)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        a.send(
            &Packet::Control(ControlPacket::keepalive(9)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        let (p7, from7) = recv_one(&q7, Duration::from_secs(2)).unwrap();
        assert_eq!(p7.conn_id(), 7);
        assert_eq!(from7, a.local_addr());
        let (p9, _) = recv_one(&q9, Duration::from_secs(2)).unwrap();
        assert_eq!(p9.conn_id(), 9);
        assert!(q7.try_recv().is_err(), "no cross-routing");
    }

    #[test]
    fn listener_gets_id_zero() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let lq = b.set_listener();
        let instr = Instrument::default();
        a.send(
            &Packet::Control(ControlPacket::keepalive(0)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        let (pkt, _) = lq.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(pkt.conn_id(), 0);
    }

    #[test]
    fn batched_send_delivers_every_packet_and_counts() {
        use udt_proto::DataPacket;

        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q = b.register(3, 8192);
        let instr = Instrument::default();
        let pkts: Vec<Packet> = (0u32..24)
            .map(|i| {
                Packet::Data(DataPacket {
                    seq: SeqNo::new(i),
                    timestamp_us: 0,
                    conn_id: 3,
                    payload: Bytes::from_static(b"batched-payload"),
                })
            })
            .collect();
        a.send_batch(&pkts, b.local_addr(), &instr, None).unwrap();
        let mut got = 0usize;
        while got < 24 {
            let batch = q.recv_timeout(Duration::from_secs(2)).unwrap();
            for (pkt, from) in batch {
                assert_eq!(pkt.conn_id(), 3);
                assert_eq!(from, a.local_addr());
                got += 1;
            }
        }
        assert_eq!(got, 24);
        let snd = a.batch_counters();
        assert_eq!(snd.send_pkts, 24);
        assert!(snd.send_batches >= 1);
        let rcv = b.batch_counters();
        assert_eq!(rcv.recv_pkts, 24);
        assert!(rcv.recv_batches >= 1);
        assert!(
            rcv.recv_batches <= 24,
            "batching must not inflate wakeups: {} wakeups",
            rcv.recv_batches
        );
        // Pool accounting covered every buffer request (the demux thread
        // checks out up to a full batch per wakeup and returns the
        // unused ones, so requests can exceed delivered packets).
        assert!(rcv.pool_hits + rcv.pool_misses >= 24);
    }

    #[test]
    fn auth_gate_enforces_tags_and_replay() {
        use udt_proto::{DataPacket, PreSharedKey};

        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q = b.register(7, 64);
        let psk = PreSharedKey::from_bytes([1u8; 16]);
        let client = AuthCtx::new(
            psk.session_key(1, 2, true),
            psk.session_key(1, 2, false),
            Tracer::disabled(),
            3,
            None,
            64,
        );
        let server = Arc::new(AuthCtx::new(
            psk.session_key(1, 2, false),
            psk.session_key(1, 2, true),
            Tracer::disabled(),
            7,
            None,
            64,
        ));
        b.set_auth(7, Arc::clone(&server));
        let instr = Instrument::default();

        // Untagged control is dropped before decode.
        a.send(
            &Packet::Control(ControlPacket::keepalive(7)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        assert!(recv_one(&q, Duration::from_millis(300)).is_none());
        assert_eq!(server.counters.snapshot().tags_bad, 1);

        // Correctly tagged control is delivered (tag stripped).
        a.send_auth(
            &Packet::Control(ControlPacket::keepalive(7)),
            b.local_addr(),
            &instr,
            Some(&client),
        )
        .unwrap();
        let (pkt, _) = recv_one(&q, Duration::from_secs(2)).unwrap();
        assert_eq!(pkt.conn_id(), 7);

        // A tagged data packet delivers once; its byte-identical replay
        // is dropped and counted.
        let data = Packet::Data(DataPacket {
            seq: SeqNo::new(5),
            timestamp_us: 0,
            conn_id: 7,
            payload: Bytes::from_static(b"payload"),
        });
        a.send_auth(&data, b.local_addr(), &instr, Some(&client)).unwrap();
        let (pkt, _) = recv_one(&q, Duration::from_secs(2)).unwrap();
        assert!(matches!(pkt, Packet::Data(_)));
        a.send_auth(&data, b.local_addr(), &instr, Some(&client)).unwrap();
        assert!(recv_one(&q, Duration::from_millis(300)).is_none());
        assert_eq!(server.counters.snapshot().replays, 1);

        // clear_auth returns the connection to plaintext.
        b.clear_auth(7);
        a.send(
            &Packet::Control(ControlPacket::keepalive(7)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        assert!(recv_one(&q, Duration::from_secs(2)).is_some());
    }

    #[test]
    fn last_unregister_stops_a_client_demux_promptly() {
        // Bound to the unspecified address: the wake-up goes via loopback.
        let a = bind_test("0.0.0.0:0");
        let b = bind_test("127.0.0.1:0");
        let q5 = a.register(5, 64);
        let instr = Instrument::default();
        // A delivered datagram restarts the demux's 100 ms read timeout,
        // so a shutdown that waited it out would take ~90 ms here.
        let to_a = SocketAddr::from(([127, 0, 0, 1], a.local_addr().port()));
        b.send(&Packet::Control(ControlPacket::keepalive(5)), to_a, &instr)
            .unwrap();
        assert!(recv_one(&q5, Duration::from_secs(2)).is_some());
        std::thread::sleep(Duration::from_millis(10));
        let t0 = std::time::Instant::now();
        a.unregister(5);
        assert!(
            t0.elapsed() < Duration::from_millis(60),
            "demux waited out its read timeout: {:?}",
            t0.elapsed()
        );
        assert!(!a.demux_running());
        assert_eq!(a.pool.occupancy(), (0, 0), "receive buffers freed");
        // The socket outlives the demux thread for sends.
        let q = b.register(9, 64);
        a.send(
            &Packet::Control(ControlPacket::keepalive(9)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        assert!(recv_one(&q, Duration::from_secs(2)).is_some());
    }

    #[test]
    fn listener_mux_keeps_its_demux_without_connections() {
        let b = bind_test("127.0.0.1:0");
        let _lq = b.set_listener();
        let _q = b.register(5, 64);
        b.unregister(5);
        assert!(b.demux_running());
        b.shutdown();
        assert!(!b.demux_running());
    }

    #[test]
    fn unregister_stops_routing() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q = b.register(5, 64);
        b.unregister(5);
        let instr = Instrument::default();
        a.send(
            &Packet::Control(ControlPacket::keepalive(5)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        assert!(recv_one(&q, Duration::from_millis(300)).is_none());
    }
}
