//! Loss information management (paper §4.2 and appendix; Figures 9, 16, 17).
//!
//! Loss on a high-BDP path is *bursty*: Figure 8 shows single congestion
//! events losing thousands of consecutive packets. Representing each lost
//! packet individually (bitmap or plain list) makes every insert, delete and
//! query scan work proportional to *packets*, which is exactly the kind of
//! unevenly-distributed processing §4.1 warns turns into loss avalanches.
//! UDT instead stores one node per *loss event*: an inclusive `[start, end]`
//! pair.
//!
//! The appendix structure is a **static circular array**: a node for a range
//! starting at sequence `s` lives at slot
//!
//! ```text
//! slot(s) = (slot(head) + seqoff(start(head), s)) mod capacity
//! ```
//!
//! so a node's home can be computed without searching, and nodes are chained
//! with `next` links in sequence order. Splitting and combining nodes are
//! the primary operations; with far fewer loss *events* than lost *packets*,
//! accesses run in near-constant time (Figure 9 — regenerated by
//! `exp_fig9` and the `bench_losslist` criterion bench against
//! [`NaiveLossList`]).
//!
//! Capacity must be at least the maximum flow window: the sequence span of
//! outstanding losses can never exceed the window, which is what guarantees
//! distinct ranges occupy distinct slots. Inserts outside the addressable
//! span are counted in [`LossList::overflows`] and ignored rather than
//! corrupting the structure.
//!
//! One `LossList` type serves both roles — [`SndLossList`] (ranges to
//! retransmit, fed by NAKs, drained by the sender with loss-first priority)
//! and [`RcvLossList`] (gaps detected in arrivals, the source of NAKs, with
//! per-node report pacing for the growing resend interval of §3.5).

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use udt_proto::{SeqNo, SeqRange};

use crate::clock::Nanos;
use crate::timerctl::nak_resend_due;

#[derive(Debug, Clone)]
struct Node {
    start: SeqNo,
    end: SeqNo, // inclusive; == start for a single loss
    next: i32,  // slot index, -1 = tail
    /// Receiver-side NAK pacing state; unused on the sender.
    last_report: Nanos,
    report_count: u32,
}

impl Node {
    fn new(start: SeqNo, end: SeqNo, now: Nanos) -> Node {
        Node {
            start,
            end,
            next: -1,
            last_report: now,
            report_count: 1,
        }
    }

}

/// The appendix loss list: static circular array of `[start, end]` nodes.
#[derive(Debug, Clone)]
pub struct LossList {
    /// The circular array, allocated at the first insert: a connection
    /// that never loses a packet never pays for it.
    slots: Vec<Option<Node>>,
    capacity: usize,
    head: i32,
    len_pkts: usize,
    overflows: u64,
    /// Locality hint: slot of the most recently touched node…
    hint: std::cell::Cell<i32>,
    /// …and the slot of its predecessor (−1 = it is the head).
    hint_prev: std::cell::Cell<i32>,
}

/// Sender-side loss list (retransmission queue). Alias of [`LossList`].
pub type SndLossList = LossList;
/// Receiver-side loss list (NAK source). Alias of [`LossList`].
pub type RcvLossList = LossList;

impl LossList {
    /// New list addressing a sequence span of `capacity` (≥ the maximum
    /// flow window).
    pub fn new(capacity: usize) -> LossList {
        assert!(capacity >= 2, "loss list capacity must be at least 2");
        LossList {
            slots: Vec::new(),
            capacity,
            head: -1,
            len_pkts: 0,
            overflows: 0,
            hint: std::cell::Cell::new(-1),
            hint_prev: std::cell::Cell::new(-1),
        }
    }

    /// Validate the locality hint structurally: the hinted slot must hold a
    /// node and `hint_prev` must currently link to it (or be the head).
    /// Stale hints simply fail the check and searches fall back to the head
    /// — correctness never depends on the hint.
    fn hint_pair(&self) -> Option<(i32, usize)> {
        let h = self.hint.get();
        if h < 0 || self.slots[h as usize].is_none() {
            return None;
        }
        let p = self.hint_prev.get();
        if p < 0 {
            if self.head == h {
                Some((-1, h as usize))
            } else {
                None
            }
        } else {
            match &self.slots[p as usize] {
                Some(pn) if pn.next == h => Some((p, h as usize)),
                _ => None,
            }
        }
    }

    /// Where to start a forward search for `target`: the hint when it is
    /// valid and not past the target (the appendix's "locality phenomenon:
    /// most searches can be finished in several steps around the near
    /// neighbors"), the head otherwise. Returns `(prev, node)` slots.
    fn search_start(&self, target: SeqNo) -> (i32, i32) {
        if let Some((p, hs)) = self.hint_pair() {
            if self.node(hs).start.le_seq(target) {
                return (p, hs as i32);
            }
        }
        (-1, self.head)
    }

    #[inline]
    fn set_hint(&self, prev: i32, node: i32) {
        self.hint_prev.set(prev);
        self.hint.set(node);
    }

    /// Total number of lost packets recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_pkts
    }

    /// `true` when no losses are recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head < 0
    }

    /// Number of loss *events* (nodes) currently stored.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        let mut i = self.head;
        while i >= 0 {
            n += 1;
            i = self.node(i as usize).next;
        }
        n
    }

    /// Inserts dropped because they fell outside the addressable span.
    #[inline]
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    #[inline]
    fn node(&self, slot: usize) -> &Node {
        // Every slot reachable via head/next links is occupied; this is the
        // chain invariant `check_invariants` verifies on every mutation.
        // udt-lint: allow(unwrap)
        self.slots[slot].as_ref().expect("dangling loss-list link")
    }

    #[inline]
    fn node_mut(&mut self, slot: usize) -> &mut Node {
        // udt-lint: allow(unwrap) — same chain invariant as `node` above
        self.slots[slot].as_mut().expect("dangling loss-list link")
    }

    #[inline]
    fn cap(&self) -> usize {
        self.capacity
    }

    /// Slot shifted forward by `delta` sequence steps (may be negative).
    #[inline]
    fn slot_shift(&self, slot: usize, delta: i64) -> usize {
        (slot as i64 + delta).rem_euclid(self.cap() as i64) as usize
    }

    /// Home slot for a range starting at `start`, or `None` when outside
    /// the addressable span.
    fn loc_for(&self, start: SeqNo) -> Option<usize> {
        let h = self.head as usize;
        let off = i64::from(self.node(h).start.offset_to(start));
        if off.unsigned_abs() >= self.cap() as u64 {
            None
        } else {
            Some(self.slot_shift(h, off))
        }
    }

    /// Insert the inclusive loss range `[from, to]`, recording `now` as the
    /// first report time (the caller sends the initial NAK at insert time).
    /// Returns the number of *newly* recorded packets (0 when fully covered
    /// by existing nodes or unaddressable).
    pub fn insert_at(&mut self, from: SeqNo, to: SeqNo, now: Nanos) -> u32 {
        debug_assert!(from.le_seq(to), "reversed loss range");
        let before = self.len_pkts;
        if self.head < 0 {
            if self.slots.is_empty() {
                self.slots = vec![None; self.capacity];
            }
            self.slots[0] = Some(Node::new(from, to, now));
            self.head = 0;
            self.len_pkts += from.len_to(to) as usize;
            self.debug_check();
            return (self.len_pkts - before) as u32;
        }

        let head_slot = self.head as usize;
        let off = self.node(head_slot).start.offset_to(from);
        if off < 0 {
            // Precedes the head: the new node becomes the head (the paper's
            // insert step 3), then swallows any nodes it now covers.
            let Some(loc) = self.loc_for(from) else {
                self.overflows += 1;
                return 0;
            };
            debug_assert!(self.slots[loc].is_none(), "slot collision at head insert");
            let mut n = Node::new(from, to, now);
            n.next = self.head;
            self.slots[loc] = Some(n);
            self.head = loc as i32;
            self.len_pkts += from.len_to(to) as usize;
            self.coalesce_from(loc);
            self.set_hint(-1, loc as i32);
        } else {
            // Find the predecessor: the last node whose start ≤ from
            // (step 4.b — a short walk from the locality hint).
            let (mut prev, start) = self.search_start(from);
            let mut i = start as usize;
            loop {
                let nxt = self.node(i).next;
                if nxt < 0 || !self.node(nxt as usize).start.le_seq(from) {
                    break;
                }
                prev = i as i32;
                i = nxt as usize;
            }
            let pred_end = self.node(i).end;
            if from.le_seq(pred_end.next()) {
                // Overlaps or continues the predecessor: extend in place.
                if pred_end.lt_seq(to) {
                    self.len_pkts += pred_end.offset_to(to) as usize;
                    self.node_mut(i).end = to;
                    self.coalesce_from(i);
                }
                self.set_hint(prev, i as i32);
            } else {
                let Some(loc) = self.loc_for(from) else {
                    self.overflows += 1;
                    return 0;
                };
                debug_assert!(self.slots[loc].is_none(), "slot collision at insert");
                let mut n = Node::new(from, to, now);
                n.next = self.node(i).next;
                self.slots[loc] = Some(n);
                self.node_mut(i).next = loc as i32;
                self.len_pkts += from.len_to(to) as usize;
                self.coalesce_from(loc);
                self.set_hint(i as i32, loc as i32);
            }
        }
        self.debug_check();
        (self.len_pkts - before) as u32
    }

    /// [`LossList::insert_at`] without report-time bookkeeping (sender side).
    pub fn insert(&mut self, from: SeqNo, to: SeqNo) -> u32 {
        self.insert_at(from, to, Nanos::ZERO)
    }

    /// Step 6 of the appendix insert: merge the node at `i` with successors
    /// it overlaps or is continuous with.
    fn coalesce_from(&mut self, i: usize) {
        loop {
            let (end_i, next) = {
                let n = self.node(i);
                (n.end, n.next)
            };
            if next < 0 {
                return;
            }
            let nslot = next as usize;
            let (ns, ne, nn) = {
                let n = self.node(nslot);
                (n.start, n.end, n.next)
            };
            if !ns.le_seq(end_i.next()) {
                return;
            }
            self.len_pkts -= ns.len_to(ne) as usize;
            if end_i.lt_seq(ne) {
                self.len_pkts += end_i.offset_to(ne) as usize;
                self.node_mut(i).end = ne;
            }
            self.node_mut(i).next = nn;
            self.slots[nslot] = None;
        }
    }

    /// First (oldest) lost sequence number, if any.
    pub fn first(&self) -> Option<SeqNo> {
        if self.head < 0 {
            None
        } else {
            Some(self.node(self.head as usize).start)
        }
    }

    /// Remove and return the first lost sequence number (the sender's
    /// retransmit-with-priority path).
    pub fn pop_first(&mut self) -> Option<SeqNo> {
        if self.head < 0 {
            return None;
        }
        let h = self.head as usize;
        let (s, e, nxt) = {
            let n = self.node(h);
            (n.start, n.end, n.next)
        };
        self.len_pkts -= 1;
        if s == e {
            self.slots[h] = None;
            self.head = nxt;
        } else {
            // udt-lint: allow(unwrap) — `h` is the head link, occupied by the chain invariant
            let mut node = self.slots[h].take().expect("head node");
            node.start = s.next();
            let new_slot = self.slot_shift(h, 1);
            debug_assert!(self.slots[new_slot].is_none(), "slot collision at pop");
            self.slots[new_slot] = Some(node);
            self.head = new_slot as i32;
        }
        self.debug_check();
        Some(s)
    }

    /// Drop every loss at or before `seq` (the sender's reaction to an ACK).
    /// Returns the number of packets removed.
    pub fn remove_upto(&mut self, seq: SeqNo) -> u32 {
        let before = self.len_pkts;
        while self.head >= 0 {
            let h = self.head as usize;
            let (s, e, nxt) = {
                let n = self.node(h);
                (n.start, n.end, n.next)
            };
            if seq.lt_seq(s) {
                break;
            }
            if e.le_seq(seq) {
                self.len_pkts -= s.len_to(e) as usize;
                self.slots[h] = None;
                self.head = nxt;
            } else {
                let new_start = seq.next();
                self.len_pkts -= s.len_to(seq) as usize;
                // udt-lint: allow(unwrap) — `h` is the head link, occupied by the chain invariant
                let mut node = self.slots[h].take().expect("head node");
                node.start = new_start;
                let new_slot = self.slot_shift(h, i64::from(s.offset_to(new_start)));
                debug_assert!(self.slots[new_slot].is_none(), "slot collision at trim");
                self.slots[new_slot] = Some(node);
                self.head = new_slot as i32;
                break;
            }
        }
        self.debug_check();
        (before - self.len_pkts) as u32
    }

    /// Remove a single sequence number (a retransmission arrived at the
    /// receiver). Splits a node when the number falls strictly inside it.
    /// Returns `true` if the number was recorded.
    pub fn remove(&mut self, seq: SeqNo) -> bool {
        let (mut prev, mut i) = self.search_start(seq);
        while i >= 0 {
            let slot = i as usize;
            let (s, e, nxt) = {
                let n = self.node(slot);
                (n.start, n.end, n.next)
            };
            if seq.lt_seq(s) {
                return false; // list is sorted: not present
            }
            if seq.le_seq(e) {
                self.len_pkts -= 1;
                if s == e {
                    self.slots[slot] = None;
                    self.relink(prev, nxt);
                    self.set_hint(prev, nxt);
                } else if seq == s {
                    // udt-lint: allow(unwrap) — `slot` came off the chain, occupied by invariant
                    let mut node = self.slots[slot].take().expect("node");
                    node.start = s.next();
                    let new_slot = self.slot_shift(slot, 1);
                    debug_assert!(self.slots[new_slot].is_none(), "collision at front trim");
                    self.slots[new_slot] = Some(node);
                    self.relink(prev, new_slot as i32);
                    self.set_hint(prev, new_slot as i32);
                } else if seq == e {
                    self.node_mut(slot).end = e.prev();
                    self.set_hint(prev, slot as i32);
                } else {
                    // Split [s, e] into [s, seq−1] and [seq+1, e]; the tail
                    // inherits the report pacing so resends don't reset.
                    let tail_start = seq.next();
                    let (old_next, last_report, report_count) = {
                        let n = self.node(slot);
                        (n.next, n.last_report, n.report_count)
                    };
                    let tail_slot = self.slot_shift(slot, i64::from(s.offset_to(tail_start)));
                    debug_assert!(self.slots[tail_slot].is_none(), "collision at split");
                    self.slots[tail_slot] = Some(Node {
                        start: tail_start,
                        end: e,
                        next: old_next,
                        last_report,
                        report_count,
                    });
                    let n = self.node_mut(slot);
                    n.end = seq.prev();
                    n.next = tail_slot as i32;
                    self.set_hint(slot as i32, tail_slot as i32);
                }
                self.debug_check();
                return true;
            }
            prev = i;
            i = nxt;
        }
        false
    }

    fn relink(&mut self, prev: i32, next: i32) {
        if prev < 0 {
            self.head = next;
        } else {
            self.node_mut(prev as usize).next = next;
        }
    }

    /// `true` if `seq` is recorded as lost.
    pub fn contains(&self, seq: SeqNo) -> bool {
        let (mut prev, mut i) = self.search_start(seq);
        while i >= 0 {
            let n = self.node(i as usize);
            if seq.lt_seq(n.start) {
                // Remember the neighborhood for the next lookup.
                self.set_hint(prev, i);
                return false;
            }
            if seq.le_seq(n.end) {
                self.set_hint(prev, i);
                return true;
            }
            prev = i;
            i = n.next;
        }
        if prev >= 0 {
            self.set_hint(-2, prev); // tail hint; prev unknown → revalidated
        }
        false
    }

    /// All recorded ranges, in sequence order.
    pub fn ranges(&self) -> Vec<SeqRange> {
        let mut out = Vec::new();
        let mut i = self.head;
        while i >= 0 {
            let n = self.node(i as usize);
            out.push(SeqRange::new(n.start, n.end));
            i = n.next;
        }
        out
    }

    /// Structural invariants of the appendix structure, as one checkable
    /// predicate shared by the `#[cfg(debug_assertions)]` runtime hooks and
    /// the `udt-verify` bounded model checker:
    ///
    /// 1. the chain is acyclic and every link points at an occupied slot;
    /// 2. ranges are well-formed (`start ≤ end`) and strictly sorted with a
    ///    gap of at least one sequence number between nodes (adjacent or
    ///    overlapping nodes must have been coalesced — overlap is how a
    ///    packet gets counted, and retransmitted, twice);
    /// 3. every node sits at its home slot
    ///    `slot(head) + seqoff(start(head), start)` and within the
    ///    addressable span (this is what makes `loc_for` collision-free);
    /// 4. `len_pkts` equals the packets covered by the chain;
    /// 5. no occupied slot is orphaned outside the chain.
    ///
    /// Returns a description of the first violation, or `Ok(())`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut nodes = 0usize;
        let mut pkts = 0usize;
        let mut prev_end: Option<SeqNo> = None;
        let mut i = self.head;
        while i >= 0 {
            nodes += 1;
            if nodes > self.cap() {
                return Err("loss-list chain is cyclic or longer than capacity".into());
            }
            let slot = i as usize;
            let Some(n) = self.slots.get(slot).and_then(|s| s.as_ref()) else {
                return Err(format!("link to slot {slot} dangles (slot empty)"));
            };
            if !n.start.le_seq(n.end) {
                return Err(format!("reversed range [{}, {}]", n.start, n.end));
            }
            if let Some(pe) = prev_end {
                if !pe.next().lt_seq(n.start) {
                    return Err(format!(
                        "nodes not sorted/coalesced: [..., {pe}] then [{}, {}]",
                        n.start, n.end
                    ));
                }
            }
            let head_node = self.node(self.head as usize);
            let off = head_node.start.offset_to(n.start);
            if off < 0 || off as usize >= self.cap() {
                return Err(format!(
                    "node [{}, {}] outside the addressable span (offset {off})",
                    n.start, n.end
                ));
            }
            let home = self.slot_shift(self.head as usize, i64::from(off));
            if home != slot {
                return Err(format!(
                    "node [{}, {}] at slot {slot}, home slot is {home}",
                    n.start, n.end
                ));
            }
            pkts += n.start.len_to(n.end) as usize;
            prev_end = Some(n.end);
            i = n.next;
        }
        if pkts != self.len_pkts {
            return Err(format!(
                "len_pkts {} disagrees with chain coverage {pkts}",
                self.len_pkts
            ));
        }
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied != nodes {
            return Err(format!(
                "{occupied} slots occupied but only {nodes} reachable from the head"
            ));
        }
        Ok(())
    }

    /// Debug-build hook: panic on the first structural violation. Compiled
    /// out of release builds; every mutating operation calls it so the
    /// whole test suite (unit, integration, chaos) runs under the same
    /// predicates the model checker asserts. The full check is O(capacity)
    /// and the mutators sit on per-packet paths, so at production capacities
    /// (thousands of slots) it samples 1-in-16 calls — unoptimized debug
    /// builds would otherwise slow transfers past protocol timeouts, which
    /// is itself a spurious failure. Small lists (unit tests, the model
    /// checker) are checked on every call.
    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NTH: AtomicU64 = AtomicU64::new(0);
            if self.cap() > 512 && !NTH.fetch_add(1, Ordering::Relaxed).is_multiple_of(16) {
                return;
            }
            if let Err(e) = self.check_invariants() {
                // udt-lint: allow(unwrap) — debug-assertions-only invariant hook
                panic!("loss-list invariant violated: {e}");
            }
        }
    }

    /// Receiver-side NAK resend scan (§3.5): collect up to `limit` ranges
    /// whose report interval — `report_count · base`, the *growing* interval
    /// — has elapsed, stamping them as re-reported.
    pub fn due_reports(&mut self, now: Nanos, base: Nanos, limit: usize) -> Vec<SeqRange> {
        let mut out = Vec::new();
        let mut i = self.head;
        while i >= 0 && out.len() < limit {
            let slot = i as usize;
            let due = {
                let n = self.node(slot);
                nak_resend_due(now, n.last_report, n.report_count, base)
            };
            if due {
                let n = self.node_mut(slot);
                out.push(SeqRange::new(n.start, n.end));
                n.last_report = now;
                n.report_count = n.report_count.saturating_add(1);
            }
            i = self.node(slot).next;
        }
        out
    }
}

/// The baseline the appendix argues against: a flat sorted vector of
/// individual lost sequence numbers. Every operation is linear in lost
/// *packets*, not loss *events*. Only used by the Figure 9 benchmark.
#[derive(Debug, Default)]
pub struct NaiveLossList {
    seqs: Vec<SeqNo>,
}

impl NaiveLossList {
    /// New empty list.
    pub fn new() -> NaiveLossList {
        NaiveLossList { seqs: Vec::new() }
    }

    /// Number of lost packets recorded.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Insert each number in `[from, to]`, keeping the vector sorted.
    pub fn insert(&mut self, from: SeqNo, to: SeqNo) -> u32 {
        let mut added = 0;
        for s in SeqRange::new(from, to).iter() {
            match self.seqs.binary_search_by(|p| p.cmp_seq(s).cmp(&0)) {
                Ok(_) => {}
                Err(pos) => {
                    self.seqs.insert(pos, s);
                    added += 1;
                }
            }
        }
        added
    }

    /// Remove one sequence number.
    pub fn remove(&mut self, seq: SeqNo) -> bool {
        match self.seqs.binary_search_by(|p| p.cmp_seq(seq).cmp(&0)) {
            Ok(pos) => {
                self.seqs.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Remove everything at or before `seq`.
    pub fn remove_upto(&mut self, seq: SeqNo) -> u32 {
        let before = self.seqs.len();
        self.seqs.retain(|s| seq.lt_seq(*s));
        (before - self.seqs.len()) as u32
    }

    /// Membership query.
    pub fn contains(&self, seq: SeqNo) -> bool {
        self.seqs
            .binary_search_by(|p| p.cmp_seq(seq).cmp(&0))
            .is_ok()
    }

    /// Oldest lost number.
    pub fn first(&self) -> Option<SeqNo> {
        self.seqs.first().copied()
    }

    /// Remove and return the oldest lost number.
    pub fn pop_first(&mut self) -> Option<SeqNo> {
        if self.seqs.is_empty() {
            None
        } else {
            Some(self.seqs.remove(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(v: u32) -> SeqNo {
        SeqNo::new(v)
    }

    #[test]
    fn array_is_allocated_at_the_first_loss() {
        let mut l = LossList::new(16_384);
        assert!(l.slots.is_empty());
        assert!(l.pop_first().is_none());
        l.remove_upto(sq(10));
        assert!(l.slots.is_empty(), "reads and no-op removals allocate nothing");
        l.insert(sq(5), sq(7));
        assert_eq!(l.slots.len(), 16_384);
        assert_eq!(flat(&l), vec![5, 6, 7]);
        l.check_invariants().unwrap();
    }

    fn flat(l: &LossList) -> Vec<u32> {
        l.ranges()
            .iter()
            .flat_map(|r| r.iter().map(|s| s.raw()))
            .collect()
    }

    #[test]
    fn insert_into_empty() {
        let mut l = LossList::new(64);
        assert_eq!(l.insert(sq(3), sq(5)), 3);
        assert_eq!(l.len(), 3);
        assert_eq!(flat(&l), vec![3, 4, 5]);
        assert_eq!(l.node_count(), 1);
    }

    #[test]
    fn appendix_figure16_shape() {
        // Figure 16: losses 3, 4, 5 and 7 → two nodes [3,5] and [7,7].
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(5));
        l.insert(sq(7), sq(7));
        assert_eq!(l.node_count(), 2);
        assert_eq!(flat(&l), vec![3, 4, 5, 7]);
    }

    #[test]
    fn insert_before_head_becomes_head() {
        let mut l = LossList::new(64);
        l.insert(sq(10), sq(12));
        l.insert(sq(2), sq(4));
        assert_eq!(l.first(), Some(sq(2)));
        assert_eq!(flat(&l), vec![2, 3, 4, 10, 11, 12]);
    }

    #[test]
    fn continuous_ranges_combine() {
        // Step 6: [3,5] + [6,9] → [3,9].
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(5));
        l.insert(sq(6), sq(9));
        assert_eq!(l.node_count(), 1);
        assert_eq!(l.len(), 7);
    }

    #[test]
    fn overlapping_insert_counts_only_new() {
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(7));
        assert_eq!(l.insert(sq(5), sq(10)), 3); // 8, 9, 10 are new
        assert_eq!(l.len(), 8);
        assert_eq!(l.node_count(), 1);
    }

    #[test]
    fn covered_insert_is_noop() {
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(9));
        assert_eq!(l.insert(sq(4), sq(6)), 0);
        assert_eq!(l.len(), 7);
    }

    #[test]
    fn insert_spanning_multiple_nodes() {
        let mut l = LossList::new(128);
        l.insert(sq(10), sq(12));
        l.insert(sq(20), sq(22));
        l.insert(sq(30), sq(32));
        assert_eq!(l.insert(sq(5), sq(40)), 36 - 9);
        assert_eq!(l.node_count(), 1);
        assert_eq!(l.len(), 36);
    }

    #[test]
    fn pop_first_drains_in_order() {
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(4));
        l.insert(sq(9), sq(9));
        assert_eq!(l.pop_first(), Some(sq(3)));
        assert_eq!(l.pop_first(), Some(sq(4)));
        assert_eq!(l.pop_first(), Some(sq(9)));
        assert_eq!(l.pop_first(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_upto_trims_and_drops() {
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(6));
        l.insert(sq(10), sq(14));
        assert_eq!(l.remove_upto(sq(11)), 6); // 3..=6 and 10, 11
        assert_eq!(flat(&l), vec![12, 13, 14]);
        assert_eq!(l.remove_upto(sq(2)), 0);
        assert_eq!(l.remove_upto(sq(100)), 3);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_single_splits_node() {
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(9));
        assert!(l.remove(sq(5)));
        assert_eq!(l.node_count(), 2);
        assert_eq!(flat(&l), vec![3, 4, 6, 7, 8, 9]);
        assert!(!l.remove(sq(5)));
        assert!(!l.contains(sq(5)));
        assert!(l.contains(sq(6)));
    }

    #[test]
    fn remove_edges_of_node() {
        let mut l = LossList::new(64);
        l.insert(sq(3), sq(6));
        assert!(l.remove(sq(3))); // front trim: node moves slots
        assert!(l.remove(sq(6))); // back trim
        assert_eq!(flat(&l), vec![4, 5]);
        assert!(l.remove(sq(4)));
        assert!(l.remove(sq(5)));
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn wraparound_ranges_work() {
        use udt_proto::SEQ_MAX;
        let mut l = LossList::new(64);
        l.insert(sq(SEQ_MAX - 1), sq(1));
        assert_eq!(l.len(), 4);
        assert!(l.contains(sq(SEQ_MAX)));
        assert!(l.contains(sq(0)));
        assert!(l.remove(sq(0)));
        assert_eq!(l.len(), 3);
        assert_eq!(l.pop_first(), Some(sq(SEQ_MAX - 1)));
        assert_eq!(l.pop_first(), Some(sq(SEQ_MAX)));
        assert_eq!(l.pop_first(), Some(sq(1)));
    }

    /// Two inserts that are adjacent only modulo 2^31 must coalesce into a
    /// single range straddling the wrap, and `remove_upto` with a post-wrap
    /// cutoff must trim the pre-wrap half too.
    #[test]
    fn wrap_adjacent_inserts_coalesce_and_trim() {
        use udt_proto::SEQ_MAX;
        let mut l = LossList::new(64);
        l.insert(sq(SEQ_MAX - 2), sq(SEQ_MAX));
        l.insert(sq(0), sq(2));
        assert_eq!(l.len(), 6);
        assert_eq!(l.node_count(), 1, "adjacent-across-wrap ranges must merge");
        let rs = l.ranges();
        assert_eq!(rs.len(), 1);
        assert_eq!((rs[0].from.raw(), rs[0].to.raw()), (SEQ_MAX - 2, 2));
        // Cut through the wrapped half: everything up to and including 1 goes.
        assert_eq!(l.remove_upto(sq(1)), 5);
        assert_eq!(flat(&l), vec![2]);
    }

    /// Removing the element sitting exactly on the wrap boundary splits a
    /// straddling range into a pre-wrap and a post-wrap piece.
    #[test]
    fn wrap_remove_splits_straddling_range() {
        use udt_proto::SEQ_MAX;
        let mut l = LossList::new(64);
        l.insert(sq(SEQ_MAX - 1), sq(1));
        assert!(l.remove(sq(SEQ_MAX)));
        assert_eq!(l.len(), 3);
        assert_eq!(l.node_count(), 2);
        assert_eq!(flat(&l), vec![SEQ_MAX - 1, 0, 1]);
        assert!(!l.contains(sq(SEQ_MAX)));
        l.check_invariants().expect("post-split invariants");
    }

    #[test]
    fn overflow_insert_is_rejected_not_corrupting() {
        let mut l = LossList::new(16);
        l.insert(sq(0), sq(0));
        assert_eq!(l.insert(sq(100), sq(105)), 0); // span 100 ≥ cap 16
        assert_eq!(l.overflows(), 1);
        assert_eq!(l.len(), 1);
        assert_eq!(flat(&l), vec![0]);
    }

    #[test]
    fn due_reports_grow_interval() {
        let mut l = LossList::new(64);
        let base = Nanos::from_millis(100);
        let t0 = Nanos::from_secs(1);
        l.insert_at(sq(5), sq(7), t0);
        // Within one base interval: nothing due.
        assert!(l.due_reports(t0.plus(Nanos::from_millis(50)), base, 10).is_empty());
        // Past one base: due once (count → 2).
        let t1 = t0.plus(Nanos::from_millis(101));
        assert_eq!(l.due_reports(t1, base, 10).len(), 1);
        // Now needs 2 bases: 150 ms later is not enough…
        let t2 = t1.plus(Nanos::from_millis(150));
        assert!(l.due_reports(t2, base, 10).is_empty());
        // …250 ms is.
        let t3 = t1.plus(Nanos::from_millis(201));
        assert_eq!(l.due_reports(t3, base, 10).len(), 1);
    }

    #[test]
    fn due_reports_respects_limit() {
        let mut l = LossList::new(1024);
        for k in 0..20u32 {
            l.insert_at(sq(k * 10), sq(k * 10 + 2), Nanos::ZERO);
        }
        let out = l.due_reports(Nanos::from_secs(10), Nanos::from_millis(1), 5);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn split_preserves_report_pacing() {
        let mut l = LossList::new(64);
        let base = Nanos::from_millis(100);
        let t0 = Nanos::from_secs(1);
        l.insert_at(sq(5), sq(9), t0);
        let t1 = t0.plus(Nanos::from_millis(101));
        assert_eq!(l.due_reports(t1, base, 10).len(), 1); // count now 2
        assert!(l.remove(sq(7))); // split into [5,6] and [8,9]
        // Both halves inherited count=2: one base later nothing is due…
        let t2 = t1.plus(Nanos::from_millis(101));
        assert!(l.due_reports(t2, base, 10).is_empty());
        // …two bases later both are.
        let t3 = t1.plus(Nanos::from_millis(201));
        assert_eq!(l.due_reports(t3, base, 10).len(), 2);
    }

    #[test]
    fn hint_survives_node_removal_and_reuse() {
        // Build a list, point the hint at a node, remove that node, insert
        // a different node that lands in the same slot, and verify every
        // operation still resolves correctly (the structural hint check
        // must reject or safely reuse the recycled slot).
        let mut l = LossList::new(64);
        l.insert(sq(10), sq(12)); // slot anchored by first insert
        l.insert(sq(20), sq(22)); // hint now points at [20,22]
        assert!(l.contains(sq(21)));
        // Remove the hinted node entirely.
        for v in 20..=22 {
            assert!(l.remove(sq(v)));
        }
        // Insert a new node whose start maps to the *same* slot region.
        l.insert(sq(20), sq(20));
        assert!(l.contains(sq(20)));
        assert!(l.contains(sq(11)));
        assert!(!l.contains(sq(21)));
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn hint_does_not_skip_earlier_nodes() {
        let mut l = LossList::new(256);
        l.insert(sq(10), sq(10));
        l.insert(sq(100), sq(100)); // hint at the far node
        // A query before the hint must still find the early node.
        assert!(l.contains(sq(10)));
        // And removal of the early node must work from a far hint.
        assert!(l.remove(sq(10)));
        assert!(!l.contains(sq(10)));
        assert!(l.contains(sq(100)));
    }

    #[test]
    fn interleaved_ops_with_hint_churn() {
        // A deterministic torture mix (the proptest covers the general
        // case; this pins a fixed sequence for fast regression).
        let mut l = LossList::new(1024);
        for k in 0..50u32 {
            l.insert(sq(k * 10), sq(k * 10 + 4));
        }
        assert_eq!(l.len(), 250);
        for k in (0..50u32).rev() {
            assert!(l.remove(sq(k * 10 + 2))); // split every node
        }
        assert_eq!(l.len(), 200);
        assert_eq!(l.node_count(), 100);
        // k = 0..=24 contribute 4 packets each (100); k = 25's first node
        // starts exactly at 250, so that one packet goes too.
        assert_eq!(l.remove_upto(sq(250)), 101);
        assert_eq!(l.len(), 99);
        let mut drained = 0;
        while l.pop_first().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 99);
        assert!(l.is_empty());
        assert_eq!(l.overflows(), 0);
    }

    #[test]
    fn naive_list_agrees_on_basics() {
        let mut n = NaiveLossList::new();
        assert_eq!(n.insert(sq(3), sq(5)), 3);
        assert_eq!(n.insert(sq(4), sq(6)), 1);
        assert!(n.contains(sq(6)));
        assert!(n.remove(sq(4)));
        assert!(!n.remove(sq(4)));
        assert_eq!(n.remove_upto(sq(5)), 2);
        assert_eq!(n.first(), Some(sq(6)));
        assert_eq!(n.pop_first(), Some(sq(6)));
        assert!(n.is_empty());
    }
}
