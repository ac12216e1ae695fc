//! Connection teardown tail: the spaced Shutdown copies that follow
//! [`UdtConnection::close`](crate::UdtConnection::close).
//!
//! Shutdown is fire-and-forget, so a closing connection sends
//! [`SHUTDOWN_COPIES`] of it for loss tolerance, spaced
//! [`SHUTDOWN_SPACING`] apart: back-to-back copies share one queue state
//! on a congested path and are dropped together, and a peer that misses
//! every copy only learns of our death through its EXP ladder, turning a
//! clean EOF into `Broken`.
//!
//! `close()` sends the first copy itself; the rest are handed to one
//! lazily started, process-wide `udt-linger` thread, so the spacing no
//! longer blocks the application (the role UDT4's garbage-collector thread
//! plays: it finishes closing sockets after `close()` has returned). The
//! thread keeps a deadline-ordered queue of [`Tail`] records. A record
//! holds only what encoding one Shutdown needs — the mux (which keeps the
//! UDP socket open), the peer's address and id, the AUTH context and the
//! connection's clock — never the connection's shared state or its send
//! and receive buffers, so a closed connection's memory is released at
//! `close()`, not after its tail.
//!
//! The queue lock is a leaf: nothing else is locked while it is held, and
//! no packet is sent under it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use udt_proto::ctrl::{ControlBody, ControlPacket};
use udt_proto::Packet;

use crate::auth::AuthCtx;
use crate::instrument::Instrument;
use crate::mux::Mux;
use crate::timing::EpochClock;

/// Shutdown copies every closing connection puts on the wire.
pub(crate) const SHUTDOWN_COPIES: u8 = 3;

/// Minimum gap between consecutive Shutdown copies.
pub(crate) const SHUTDOWN_SPACING: Duration = Duration::from_millis(15);

/// The pending Shutdown copies of one closed connection.
pub(crate) struct Tail {
    due: Instant,
    copies_left: u8,
    mux: Arc<Mux>,
    peer_addr: SocketAddr,
    peer_id: u32,
    auth: Option<Arc<AuthCtx>>,
    clock: EpochClock,
}

impl Tail {
    pub(crate) fn new(
        mux: Arc<Mux>,
        peer_addr: SocketAddr,
        peer_id: u32,
        auth: Option<Arc<AuthCtx>>,
        clock: EpochClock,
    ) -> Tail {
        Tail {
            due: Instant::now(),
            copies_left: SHUTDOWN_COPIES,
            mux,
            peer_addr,
            peer_id,
            auth,
            clock,
        }
    }

    /// Encode and send one Shutdown copy now: a fresh timestamp and, when
    /// AUTH was negotiated, a fresh trailer tag.
    pub(crate) fn send_copy(&mut self, instr: &Instrument) {
        let pkt = Packet::Control(ControlPacket {
            // udt-lint: allow(as-cast) — the wire timestamp field is 32-bit
            timestamp_us: (self.clock.now().as_micros() & 0xFFFF_FFFF) as u32,
            conn_id: self.peer_id,
            body: ControlBody::Shutdown,
        });
        let _ = self
            .mux
            .send_auth(&pkt, self.peer_addr, instr, self.auth.as_deref());
        self.copies_left = self.copies_left.saturating_sub(1);
        self.due = Instant::now() + SHUTDOWN_SPACING;
    }
}

// Min-heap on the due time.
impl PartialEq for Tail {
    fn eq(&self, other: &Tail) -> bool {
        self.due == other.due
    }
}
impl Eq for Tail {}
impl PartialOrd for Tail {
    fn partial_cmp(&self, other: &Tail) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tail {
    fn cmp(&self, other: &Tail) -> Ordering {
        other.due.cmp(&self.due)
    }
}

struct Queue {
    tails: BinaryHeap<Tail>,
    /// The worker has popped a record and is sending its copy.
    sending: bool,
}

struct Linger {
    queue: Mutex<Queue>,
    /// Wakes the worker: a record was queued.
    wake: Condvar,
    /// Wakes [`drain_closing`]: the queue went idle.
    idle: Condvar,
}

static LINGER: Linger = Linger {
    queue: Mutex::new(Queue {
        tails: BinaryHeap::new(),
        sending: false,
    }),
    wake: Condvar::new(),
    idle: Condvar::new(),
};

/// Whether the worker thread is running, decided by the first spawn.
static WORKER: OnceLock<bool> = OnceLock::new();

/// Hand the remaining copies of `tail` (whose first copy was just sent) to
/// the linger worker, starting it on first use. Should the worker thread
/// fail to spawn, the copies go out from the calling thread instead.
pub(crate) fn schedule(mut tail: Tail) {
    if tail.copies_left == 0 {
        return;
    }
    let running = *WORKER.get_or_init(|| {
        std::thread::Builder::new()
            .name("udt-linger".into())
            .spawn(worker)
            .is_ok()
    });
    if !running {
        let instr = Instrument::default();
        while tail.copies_left > 0 {
            std::thread::sleep(SHUTDOWN_SPACING);
            tail.send_copy(&instr);
        }
        return;
    }
    // The worker sleeps until the earliest due record; only a new
    // earliest one needs to wake it.
    let wake = {
        let mut q = LINGER.queue.lock();
        let earliest = q.tails.peek().is_none_or(|t| tail.due < t.due);
        q.tails.push(tail);
        earliest
    };
    if wake {
        LINGER.wake.notify_one();
    }
}

fn worker() {
    let instr = Instrument::default();
    loop {
        let mut tail = next_due();
        tail.send_copy(&instr);
        // A finished record drops here, outside the queue lock: its mux
        // (and with it the UDP socket) may go with it.
        let requeue = (tail.copies_left > 0).then_some(tail);
        let mut q = LINGER.queue.lock();
        if let Some(t) = requeue {
            q.tails.push(t);
        }
        q.sending = false;
        if q.tails.is_empty() {
            LINGER.idle.notify_all();
        }
    }
}

/// Block until the earliest record is due, then pop it.
fn next_due() -> Tail {
    let mut q = LINGER.queue.lock();
    loop {
        let now = Instant::now();
        match q.tails.peek().map(|t| t.due) {
            Some(due) if due <= now => {
                if let Some(t) = q.tails.pop() {
                    q.sending = true;
                    return t;
                }
            }
            Some(due) => {
                LINGER.wake.wait_for(&mut q, due - now);
            }
            None => LINGER.wake.wait(&mut q),
        }
    }
}

/// Wait up to `timeout` for every closed connection's trailing Shutdown
/// copies to leave this process — the counterpart of UDT4's
/// `UDT::cleanup()`. [`UdtConnection::close`](crate::UdtConnection::close)
/// returns after the first copy; call this before the process exits so
/// the remaining ones still reach the peer. Returns `true` once nothing is
/// pending, `false` if `timeout` ran out first.
pub fn drain_closing(timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let mut q = LINGER.queue.lock();
    while !q.tails.is_empty() || q.sending {
        if LINGER.idle.wait_until(&mut q, deadline).timed_out() {
            return q.tails.is_empty() && !q.sending;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UdtConfig;
    use std::net::UdpSocket;

    fn pending() -> usize {
        let q = LINGER.queue.lock();
        q.tails.len() + usize::from(q.sending)
    }

    #[test]
    fn tail_sends_spaced_copies_and_drain_empties_the_queue() {
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mux = Mux::bind("127.0.0.1:0".parse().unwrap(), &UdtConfig::default()).unwrap();
        let mut tail = Tail::new(
            mux,
            peer.local_addr().unwrap(),
            42,
            None,
            EpochClock::start(),
        );
        tail.send_copy(&Instrument::default());
        schedule(tail);
        assert!(drain_closing(Duration::from_secs(2)));
        assert_eq!(pending(), 0);
        // Every copy sat in the peer's socket buffer by the time the drain
        // returned; their send times are the header timestamps.
        let mut buf = [0u8; 64];
        let mut stamps = Vec::new();
        for _ in 0..SHUTDOWN_COPIES {
            let n = peer.recv(&mut buf).unwrap();
            match udt_proto::decode(bytes::Bytes::copy_from_slice(&buf[..n])).unwrap() {
                Packet::Control(c) => {
                    assert_eq!(c.conn_id, 42);
                    assert!(matches!(c.body, ControlBody::Shutdown));
                    stamps.push(c.timestamp_us);
                }
                Packet::Data(_) => panic!("expected a Shutdown"),
            }
        }
        for w in stamps.windows(2) {
            assert!(w[1] - w[0] >= 15_000, "copies {stamps:?} closer than 15 ms");
        }
    }

    #[test]
    fn heap_pops_earliest_due_first() {
        let mux = Mux::bind("127.0.0.1:0".parse().unwrap(), &UdtConfig::default()).unwrap();
        let addr = mux.local_addr();
        let now = Instant::now();
        let mut heap = BinaryHeap::new();
        for ms in [30u64, 10, 20] {
            let mut t = Tail::new(Arc::clone(&mux), addr, 1, None, EpochClock::start());
            t.due = now + Duration::from_millis(ms);
            heap.push(t);
        }
        let order: Vec<Instant> = std::iter::from_fn(|| heap.pop().map(|t| t.due)).collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]));
    }
}
