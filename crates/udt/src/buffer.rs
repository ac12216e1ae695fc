//! Send and receive buffers.
//!
//! **Send side** ([`SndBuffer`]): application bytes are chunked into
//! per-packet payloads once, at `send()` time; afterwards every
//! (re)transmission clones a cheap [`Bytes`] handle — no further copying
//! (§4.3's copy-avoidance goal, within safe Rust).
//!
//! **Receive side** ([`RcvBuffer`]): a sequence-addressed ring. An arriving
//! packet is written directly at slot `offset(base, seq) mod capacity` —
//! its final position — which is this implementation's realization of the
//! §4.6 "speculation of the next packet": in-order packets land exactly
//! where the application will read them, with no staging buffer, and the
//! address computation subsumes the guess.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]

use bytes::Bytes;
use udt_proto::SeqNo;

/// Packet-granular send buffer.
#[derive(Debug, Clone)]
pub struct SndBuffer {
    /// `chunks[i]` is the payload of sequence `snd_una + i`.
    chunks: std::collections::VecDeque<Bytes>,
    cap_pkts: usize,
    payload_size: usize,
}

impl SndBuffer {
    /// New buffer bounded at `cap_pkts` packets of `payload_size` bytes.
    pub fn new(cap_pkts: usize, payload_size: usize) -> SndBuffer {
        assert!(payload_size > 0);
        SndBuffer {
            chunks: std::collections::VecDeque::with_capacity(cap_pkts.min(4096)),
            cap_pkts,
            payload_size,
        }
    }

    /// Packets currently buffered (unacknowledged + unsent).
    pub fn len_pkts(&self) -> usize {
        self.chunks.len()
    }

    /// Free packet slots.
    pub fn free_pkts(&self) -> usize {
        self.cap_pkts - self.chunks.len()
    }

    /// `true` when no data is buffered.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Append application data, chunking into packet payloads. Returns the
    /// number of bytes consumed (0 when full — callers block on that).
    pub fn append(&mut self, data: &[u8]) -> usize {
        let mut consumed = 0;
        while consumed < data.len() && self.chunks.len() < self.cap_pkts {
            let take = (data.len() - consumed).min(self.payload_size);
            self.chunks
                .push_back(Bytes::copy_from_slice(&data[consumed..consumed + take]));
            consumed += take;
        }
        consumed
    }

    /// Append one pre-chunked payload (sendfile path). Returns `false`
    /// when full.
    pub fn push_chunk(&mut self, chunk: Bytes) -> bool {
        debug_assert!(chunk.len() <= self.payload_size);
        if self.chunks.len() >= self.cap_pkts {
            return false;
        }
        self.chunks.push_back(chunk);
        true
    }

    /// Payload for the packet `offset` packets past the first
    /// unacknowledged one (clone is O(1)).
    pub fn get(&self, offset: usize) -> Option<Bytes> {
        self.chunks.get(offset).cloned()
    }

    /// Acknowledge the first `n` packets: their payloads are dropped.
    pub fn ack(&mut self, n: usize) {
        let n = n.min(self.chunks.len());
        self.chunks.drain(..n);
        self.debug_check();
    }

    /// Structural invariants, shared by the debug-build hooks and the
    /// `udt-verify` model checker: occupancy within capacity and every
    /// chunk within the packet payload size (an oversized chunk would not
    /// fit one data packet; losing that property silently corrupts framing).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.chunks.len() > self.cap_pkts {
            return Err(format!(
                "send buffer holds {} packets, capacity {}",
                self.chunks.len(),
                self.cap_pkts
            ));
        }
        for (i, c) in self.chunks.iter().enumerate() {
            if c.len() > self.payload_size {
                return Err(format!(
                    "chunk {i} is {} bytes, payload size {}",
                    c.len(),
                    self.payload_size
                ));
            }
        }
        Ok(())
    }

    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_invariants() {
            // udt-lint: allow(unwrap) — debug-assertions-only invariant hook
            panic!("send-buffer invariant violated: {e}");
        }
    }
}

/// Outcome of inserting a packet into the receive ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored at its final position.
    Stored,
    /// Already delivered or already buffered.
    Duplicate,
    /// Beyond the buffer capacity (flow-control violation); dropped.
    OutOfWindow,
}

/// Sequence-addressed receive ring.
#[derive(Debug, Clone)]
pub struct RcvBuffer {
    /// Ring storage, grown on demand up to `cap` slots: a short-lived
    /// connection touches a few slots, not the whole window.
    slots: Vec<Option<Bytes>>,
    cap: usize,
    /// First undelivered sequence number.
    base_seq: SeqNo,
    base_slot: usize,
    /// Bytes already consumed from the front slot.
    front_consumed: usize,
    buffered_bytes: usize,
}

impl RcvBuffer {
    /// New ring of `cap_pkts` slots expecting `init_seq` first.
    pub fn new(cap_pkts: usize, init_seq: SeqNo) -> RcvBuffer {
        assert!(cap_pkts >= 2);
        RcvBuffer {
            slots: Vec::new(),
            cap: cap_pkts,
            base_seq: init_seq,
            base_slot: 0,
            front_consumed: 0,
            buffered_bytes: 0,
        }
    }

    /// Capacity in packets.
    pub fn cap_pkts(&self) -> usize {
        self.cap
    }

    /// The payload in `slot`, if any (slots past the grown storage are
    /// empty).
    fn at(&self, slot: usize) -> Option<&Bytes> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// First undelivered sequence number.
    pub fn base_seq(&self) -> SeqNo {
        self.base_seq
    }

    /// Total bytes currently buffered (any order).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// Insert a packet at its final position (§4.6 direct placement).
    pub fn insert(&mut self, seq: SeqNo, payload: Bytes) -> InsertOutcome {
        let off = self.base_seq.offset_to(seq);
        if off < 0 {
            return InsertOutcome::Duplicate;
        }
        if off as usize >= self.cap {
            return InsertOutcome::OutOfWindow;
        }
        let slot = (self.base_slot + off as usize) % self.cap;
        if self.at(slot).is_some() {
            return InsertOutcome::Duplicate;
        }
        if slot >= self.slots.len() {
            let grown = (slot + 1).max(self.slots.len() * 2).min(self.cap);
            self.slots.resize(grown, None);
        }
        self.buffered_bytes += payload.len();
        self.slots[slot] = Some(payload);
        self.debug_check();
        InsertOutcome::Stored
    }

    /// Bytes readable in order, given that everything before
    /// `deliverable_upto` has been received (the caller derives this
    /// frontier from its loss list: first missing sequence number).
    pub fn readable_bytes(&self, deliverable_upto: SeqNo) -> usize {
        let mut n = 0;
        let mut seq = self.base_seq;
        let mut slot = self.base_slot;
        let mut first = true;
        while seq.lt_seq(deliverable_upto) {
            match self.at(slot) {
                Some(b) => {
                    n += b.len() - if first { self.front_consumed } else { 0 };
                }
                None => break,
            }
            first = false;
            seq = seq.next();
            slot = (slot + 1) % self.cap;
        }
        n
    }

    /// Copy in-order data into `out`, freeing fully-consumed slots.
    /// Returns bytes copied.
    pub fn read(&mut self, out: &mut [u8], deliverable_upto: SeqNo) -> usize {
        let mut copied = 0;
        while copied < out.len() && self.base_seq.lt_seq(deliverable_upto) {
            let Some(chunk) = self.slots.get(self.base_slot).and_then(Option::as_ref) else {
                break;
            };
            let avail = chunk.len() - self.front_consumed;
            let take = avail.min(out.len() - copied);
            out[copied..copied + take]
                .copy_from_slice(&chunk[self.front_consumed..self.front_consumed + take]);
            copied += take;
            self.front_consumed += take;
            self.buffered_bytes -= take;
            if self.front_consumed == chunk.len() {
                self.slots[self.base_slot] = None;
                self.base_slot = (self.base_slot + 1) % self.cap;
                self.base_seq = self.base_seq.next();
                self.front_consumed = 0;
            }
        }
        self.debug_check();
        copied
    }

    /// Structural invariants, shared by the debug-build hooks and the
    /// `udt-verify` model checker: the byte ledger must match the slots
    /// (drift either way means bytes were dropped or delivered twice), and
    /// the partial-read cursor must sit strictly inside the front chunk.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.base_slot >= self.cap || self.slots.len() > self.cap {
            return Err(format!("base slot {} out of range", self.base_slot));
        }
        let mut total = 0usize;
        for s in self.slots.iter().flatten() {
            total += s.len();
        }
        let total = total - self.front_consumed;
        if total != self.buffered_bytes {
            return Err(format!(
                "buffered_bytes ledger {} disagrees with slot contents {total}",
                self.buffered_bytes
            ));
        }
        if self.front_consumed > 0 {
            match self.at(self.base_slot) {
                Some(front) if self.front_consumed < front.len() => {}
                Some(front) => {
                    return Err(format!(
                        "front cursor {} not inside front chunk of {} bytes",
                        self.front_consumed,
                        front.len()
                    ));
                }
                None => {
                    return Err("front cursor set but front slot is empty".into());
                }
            }
        }
        Ok(())
    }

    /// The full check is O(capacity) and `insert` runs once per received
    /// packet, so at production capacities this samples 1-in-64 calls (an
    /// unoptimized debug build would otherwise stall transfers past
    /// protocol timeouts). Small buffers — unit tests, the model checker —
    /// are checked every call.
    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NTH: AtomicU64 = AtomicU64::new(0);
            if self.cap > 512 && !NTH.fetch_add(1, Ordering::Relaxed).is_multiple_of(64) {
                return;
            }
            if let Err(e) = self.check_invariants() {
                // udt-lint: allow(unwrap) — debug-assertions-only invariant hook
                panic!("receive-buffer invariant violated: {e}");
            }
        }
    }

    /// Packets held in the buffer counted against the advertised window:
    /// the span from the delivery base to `largest_received`, inclusive.
    pub fn held_pkts(&self, largest_received: SeqNo) -> u32 {
        let off = self.base_seq.offset_to(largest_received.next());
        off.max(0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(v: u32) -> SeqNo {
        SeqNo::new(v)
    }

    #[test]
    fn rcv_ring_storage_grows_on_demand() {
        let mut b = RcvBuffer::new(8192, sq(100));
        assert!(b.slots.is_empty(), "nothing allocated before the first packet");
        assert_eq!(b.insert(sq(100), Bytes::from_static(b"a")), InsertOutcome::Stored);
        assert_eq!(b.insert(sq(102), Bytes::from_static(b"c")), InsertOutcome::Stored);
        assert_eq!(b.slots.len(), 3);
        assert_eq!(b.readable_bytes(sq(103)), 1, "the gap at 101 stops delivery");
        assert_eq!(b.insert(sq(101), Bytes::from_static(b"b")), InsertOutcome::Stored);
        let mut out = [0u8; 8];
        assert_eq!(b.read(&mut out, sq(103)), 3);
        assert_eq!(&out[..3], b"abc");
        assert_eq!(b.cap_pkts(), 8192);
        assert_eq!(
            b.insert(sq(103 + 8192), Bytes::from_static(b"x")),
            InsertOutcome::OutOfWindow
        );
        b.check_invariants().unwrap();
    }

    #[test]
    fn snd_chunks_at_payload_size() {
        let mut b = SndBuffer::new(100, 10);
        assert_eq!(b.append(&[7u8; 25]), 25);
        assert_eq!(b.len_pkts(), 3);
        assert_eq!(b.get(0).unwrap().len(), 10);
        assert_eq!(b.get(2).unwrap().len(), 5);
        assert!(b.get(3).is_none());
    }

    #[test]
    fn snd_blocks_at_capacity() {
        let mut b = SndBuffer::new(2, 10);
        assert_eq!(b.append(&[0u8; 100]), 20);
        assert_eq!(b.free_pkts(), 0);
        assert_eq!(b.append(&[0u8; 10]), 0);
        b.ack(1);
        assert_eq!(b.free_pkts(), 1);
        assert_eq!(b.append(&[0u8; 100]), 10);
    }

    #[test]
    fn snd_ack_drops_front() {
        let mut b = SndBuffer::new(10, 4);
        b.append(&[1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
        b.ack(1);
        assert_eq!(b.get(0).unwrap().as_ref(), &[2, 2, 2, 2]);
        b.ack(5); // over-ack is clamped
        assert!(b.is_empty());
    }

    #[test]
    fn rcv_in_order_read() {
        let mut b = RcvBuffer::new(8, sq(100));
        assert_eq!(b.insert(sq(100), Bytes::from_static(b"abcd")), InsertOutcome::Stored);
        assert_eq!(b.insert(sq(101), Bytes::from_static(b"ef")), InsertOutcome::Stored);
        let mut out = [0u8; 16];
        let n = b.read(&mut out, sq(102));
        assert_eq!(&out[..n], b"abcdef");
        assert_eq!(b.base_seq(), sq(102));
    }

    #[test]
    fn rcv_partial_reads() {
        let mut b = RcvBuffer::new(8, sq(0));
        b.insert(sq(0), Bytes::from_static(b"hello"));
        let mut out = [0u8; 2];
        assert_eq!(b.read(&mut out, sq(1)), 2);
        assert_eq!(&out, b"he");
        let mut out2 = [0u8; 8];
        let n = b.read(&mut out2, sq(1));
        assert_eq!(&out2[..n], b"llo");
        assert_eq!(b.base_seq(), sq(1));
    }

    #[test]
    fn rcv_gap_blocks_delivery() {
        let mut b = RcvBuffer::new(8, sq(0));
        b.insert(sq(1), Bytes::from_static(b"late")); // 0 missing
        let mut out = [0u8; 8];
        // Frontier says 0 is still missing.
        assert_eq!(b.read(&mut out, sq(0)), 0);
        assert_eq!(b.readable_bytes(sq(0)), 0);
        b.insert(sq(0), Bytes::from_static(b"earl"));
        assert_eq!(b.readable_bytes(sq(2)), 8);
        assert_eq!(b.read(&mut out, sq(2)), 8);
        assert_eq!(&out, b"earllate");
    }

    #[test]
    fn rcv_rejects_out_of_window_and_dups() {
        let mut b = RcvBuffer::new(4, sq(10));
        assert_eq!(b.insert(sq(14), Bytes::new()), InsertOutcome::OutOfWindow);
        assert_eq!(b.insert(sq(9), Bytes::new()), InsertOutcome::Duplicate);
        assert_eq!(b.insert(sq(11), Bytes::from_static(b"x")), InsertOutcome::Stored);
        assert_eq!(b.insert(sq(11), Bytes::from_static(b"x")), InsertOutcome::Duplicate);
    }

    #[test]
    fn rcv_wraps_ring_many_times() {
        let mut b = RcvBuffer::new(3, sq(0));
        let mut out = [0u8; 4];
        for i in 0..100u32 {
            assert_eq!(
                b.insert(sq(i), Bytes::from(vec![i as u8; 4])),
                InsertOutcome::Stored
            );
            assert_eq!(b.read(&mut out, sq(i + 1)), 4);
            assert_eq!(out, [i as u8; 4]);
        }
        assert_eq!(b.buffered_bytes(), 0);
    }

    #[test]
    fn held_pkts_counts_span() {
        let mut b = RcvBuffer::new(8, sq(0));
        b.insert(sq(2), Bytes::from_static(b"x"));
        // Base 0, largest 2 → slots 0..=2 are committed.
        assert_eq!(b.held_pkts(sq(2)), 3);
    }
}
