//! Recycling buffer pool for the batched datapath.
//!
//! The demultiplexer receives every datagram into a pooled [`BytesMut`]
//! so that the steady-state receive path performs **zero per-packet heap
//! allocation**. A buffer's life cycle:
//!
//! 1. [`BufPool::get`] hands out a cleared buffer with at least `stride`
//!    bytes of capacity (pool hit), or allocates a fresh one when the pool
//!    is dry (counted miss — exhaustion degrades to allocation, never to
//!    blocking).
//! 2. The demux thread fills it from the socket and freezes it into a
//!    [`Bytes`] handle that the decoded packet's payload borrows
//!    (zero-copy). [`BufPool::retire`] stores a clone of that handle in a
//!    bounded ring.
//! 3. Once every downstream reader drops its reference, a later
//!    [`BufPool::get`] sweep recovers the unique allocation via
//!    [`Bytes::try_into_mut`] and recycles it. Buffers that never get
//!    frozen (auth-gate drops, malformed datagrams) come straight back
//!    through [`BufPool::put`].
//!
//! Uniqueness is structural: a buffer re-enters circulation only while it
//! is a `BytesMut` (exclusive by construction) or after `try_into_mut`
//! proves its reference count is one — recycling can therefore never
//! alias a buffer a reader still holds.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use udt_metrics::counters::BatchCounters;

/// Max retired handles inspected per [`BufPool::get`] miss, bounding the
/// work done on the hot path when many buffers are still referenced.
const SWEEP_LIMIT: usize = 8;

/// The retired ring may hold `RETIRE_FACTOR * depth` handles — deeper
/// than the free list on purpose. When the consumer side lags (a full
/// scheduler quantum of batches queued on a loaded host), handles whose
/// readers are still live pile up far past `depth`, and a handle evicted
/// from the ring can never be recycled. The extra slots cost one `Bytes`
/// clone each, not a buffer.
const RETIRE_FACTOR: usize = 4;

/// Fixed-capacity pool of recycled datagram buffers.
pub(crate) struct BufPool {
    /// Datagram capacity every pooled buffer guarantees.
    stride: usize,
    /// Bound on the free list (the retired ring gets `RETIRE_FACTOR`
    /// times this).
    depth: usize,
    /// Buffers ready for reuse (exclusively owned).
    free: Mutex<Vec<BytesMut>>,
    /// Frozen buffers that may still have live readers; swept lazily.
    retired: Mutex<VecDeque<Bytes>>,
    /// Shared hit/miss accounting (`pool_hits` / `pool_misses`).
    counters: Arc<BatchCounters>,
    /// Sweep-duration histogram (`udt_mux_pool_sweep_ns`), attached once
    /// at mux creation when a metrics hub is configured.
    sweep_ns: std::sync::OnceLock<Arc<udt_metrics::hist::Histogram>>,
}

impl BufPool {
    /// Create a pool of up to `depth` buffers of `stride` bytes each.
    pub(crate) fn new(depth: usize, stride: usize, counters: Arc<BatchCounters>) -> BufPool {
        BufPool {
            stride,
            depth: depth.max(1),
            // Cold path: the pool is built once per multiplexer.
            // udt-lint: allow(hot-alloc)
            free: Mutex::new(Vec::new()),
            retired: Mutex::new(VecDeque::new()),
            counters,
            sweep_ns: std::sync::OnceLock::new(),
        }
    }

    /// Attach the sweep-duration histogram (first caller wins).
    pub(crate) fn set_sweep_hist(&self, h: Arc<udt_metrics::hist::Histogram>) {
        let _ = self.sweep_ns.set(h);
    }

    /// Datagram capacity every buffer handed out by this pool guarantees.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Fetch a cleared buffer with at least `stride` bytes of capacity.
    ///
    /// Never blocks waiting for a buffer: when the free list is empty and
    /// no retired buffer can be reclaimed, a fresh allocation is returned
    /// and counted as a miss.
    pub(crate) fn get(&self) -> BytesMut {
        // Bind the pop result first: an `if let` on `lock().pop()` would
        // hold the guard for the whole block, deadlocking against the
        // re-lock inside the sampled invariant check.
        let hit = self.free.lock().pop();
        if let Some(mut buf) = hit {
            buf.clear();
            self.counters.pool_hits(1);
            self.debug_check_sampled();
            return buf;
        }
        // Free list dry: sweep a bounded slice of the retired ring.
        // Reclaim *every* unique handle inspected — one sweep pays for
        // several future gets — keeping the first for the caller and
        // banking the rest on the free list.
        let mut keep: Option<BytesMut> = None;
        // Overflow storage for a single sweep; stays tiny (< SWEEP_LIMIT)
        // and only exists on the miss path.
        // udt-lint: allow(hot-alloc)
        let mut banked: Vec<BytesMut> = Vec::new();
        let sweep_t0 = self.sweep_ns.get().map(|_| std::time::Instant::now());
        {
            let mut retired = self.retired.lock();
            for _ in 0..SWEEP_LIMIT {
                let Some(handle) = retired.pop_front() else {
                    break;
                };
                match handle.try_into_mut() {
                    Ok(buf) if buf.capacity() >= self.stride => {
                        if keep.is_none() {
                            keep = Some(buf);
                        } else {
                            banked.push(buf);
                        }
                    }
                    // Unique but undersized (e.g. the allocation was
                    // shrunk): not worth keeping.
                    Ok(_) => {}
                    // Still referenced: rotate to the back so the next
                    // sweep inspects a different prefix.
                    Err(live) => retired.push_back(live),
                }
            }
        }
        if let (Some(h), Some(t0)) = (self.sweep_ns.get(), sweep_t0) {
            h.record_duration_ns(t0.elapsed());
        }
        if !banked.is_empty() {
            let mut free = self.free.lock();
            for mut buf in banked {
                buf.clear();
                if free.len() < self.depth {
                    free.push(buf);
                }
            }
        }
        if let Some(mut buf) = keep {
            buf.clear();
            self.counters.pool_hits(1);
            self.debug_check_sampled();
            return buf;
        }
        self.counters.pool_misses(1);
        BytesMut::with_capacity(self.stride)
    }

    /// Return a never-frozen buffer (auth-gate drop, malformed datagram)
    /// straight to the free list.
    pub(crate) fn put(&self, mut buf: BytesMut) {
        if buf.capacity() < self.stride {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.depth {
            free.push(buf);
        }
    }

    /// Remember a frozen buffer so its allocation can be reclaimed once
    /// all readers drop it. The ring is bounded: when full, the oldest
    /// handle is forgotten (its allocation frees normally).
    pub(crate) fn retire(&self, handle: &Bytes) {
        let mut retired = self.retired.lock();
        if retired.len() >= self.depth * RETIRE_FACTOR {
            retired.pop_front();
        }
        retired.push_back(handle.clone());
    }

    /// Free every pooled buffer (retired handles still read elsewhere
    /// free when their last reader drops). For a pool whose receive side
    /// has stopped for good.
    pub(crate) fn release(&self) {
        self.free.lock().clear();
        self.retired.lock().clear();
    }

    /// Point-in-time pool occupancy `(free, retired)`.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        (self.free.lock().len(), self.retired.lock().len())
    }

    /// Structural invariants, mirroring the `check_invariants` style of
    /// the send/receive buffers:
    ///
    /// - the free list respects `depth` and the retired ring respects
    ///   `RETIRE_FACTOR * depth`;
    /// - every free buffer satisfies the capacity contract;
    /// - no two free buffers alias the same allocation.
    // Exercised by the sampled debug hook and the unit tests; release
    // builds without either legitimately compile it away.
    #[cfg_attr(not(any(test, debug_assertions)), allow(dead_code))]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let free = self.free.lock();
        if free.len() > self.depth {
            return Err(format!(
                "free list over depth: {} > {}",
                free.len(),
                self.depth
            ));
        }
        let mut ptrs: Vec<*const u8> = Vec::with_capacity(free.len());
        for buf in free.iter() {
            if buf.capacity() < self.stride {
                return Err(format!(
                    "free buffer under stride: {} < {}",
                    buf.capacity(),
                    self.stride
                ));
            }
            let p = buf.as_ptr();
            if ptrs.contains(&p) {
                return Err(format!("free list aliases allocation {p:?}"));
            }
            ptrs.push(p);
        }
        drop(free);
        let retired = self.retired.lock();
        if retired.len() > self.depth * RETIRE_FACTOR {
            return Err(format!(
                "retired ring over bound: {} > {}",
                retired.len(),
                self.depth * RETIRE_FACTOR
            ));
        }
        Ok(())
    }

    /// Debug-assertion hook: with debug assertions on, validate the pool
    /// on a sampled subset of hot-path calls (1 in 64) so the cost stays
    /// negligible; release builds compile this away.
    fn debug_check_sampled(&self) {
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static TICK: AtomicU64 = AtomicU64::new(0);
            if TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(64) {
                if let Err(e) = self.check_invariants() {
                    // A violated pool invariant means buffers may alias;
                    // crashing the debug build is the only safe response.
                    // udt-lint: allow(unwrap)
                    panic!("BufPool invariant violated: {e}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(depth: usize, stride: usize) -> BufPool {
        BufPool::new(depth, stride, Arc::new(BatchCounters::new()))
    }

    #[test]
    fn put_then_get_recycles_the_same_allocation() {
        let p = pool(8, 2048);
        let a = p.get();
        let ptr = a.as_ptr();
        p.put(a);
        let b = p.get();
        assert_eq!(b.as_ptr(), ptr, "free-list recycle must reuse memory");
        assert!(b.is_empty() && b.capacity() >= 2048);
        let snap = p.counters.snapshot();
        assert_eq!((snap.pool_hits, snap.pool_misses), (1, 1));
        p.check_invariants().unwrap();
    }

    #[test]
    fn recycling_never_aliases_a_live_reader() {
        let p = pool(8, 1024);
        let mut buf = p.get();
        buf.extend_from_slice(b"datagram");
        let frozen = buf.freeze();
        p.retire(&frozen);
        let live_ptr = frozen.as_ptr();
        // While `frozen` is alive, no buffer handed out may share its
        // allocation, no matter how hard we hammer the pool.
        for _ in 0..32 {
            let fresh = p.get();
            assert_ne!(fresh.as_ptr(), live_ptr, "pool aliased a live buffer");
            drop(fresh);
        }
        assert_eq!(frozen.as_ref(), b"datagram", "reader data survived");
        // Once the last reader drops, the sweep may reclaim it.
        drop(frozen);
        let recycled = p.get();
        assert_eq!(
            recycled.as_ptr(),
            live_ptr,
            "unique retired buffer should be reclaimed by the sweep"
        );
        p.check_invariants().unwrap();
    }

    #[test]
    fn exhaustion_degrades_to_counted_allocation_not_deadlock() {
        let p = pool(4, 512);
        // Hold every buffer the pool hands out so nothing is returnable.
        let held: Vec<BytesMut> = (0..16).map(|_| p.get()).collect();
        assert_eq!(held.len(), 16);
        let snap = p.counters.snapshot();
        assert_eq!(snap.pool_hits, 0);
        assert_eq!(snap.pool_misses, 16, "every get under exhaustion is a counted miss");
        // Retired buffers with live readers must not be reclaimed either.
        let frozen: Vec<Bytes> = held
            .into_iter()
            .map(|mut b| {
                b.extend_from_slice(&[7]);
                let f = b.freeze();
                p.retire(&f);
                f
            })
            .collect();
        let extra = p.get(); // sweeps, finds only live handles, allocates
        assert!(frozen.iter().all(|f| f.as_ptr() != extra.as_ptr()));
        assert_eq!(p.counters.snapshot().pool_misses, 17);
        p.check_invariants().unwrap();
    }

    #[test]
    fn retired_ring_and_free_list_stay_bounded() {
        let p = pool(2, 256);
        for _ in 0..32 {
            let mut b = p.get();
            b.extend_from_slice(&[1, 2, 3]);
            let f = b.freeze();
            p.retire(&f);
        }
        for _ in 0..8 {
            p.put(BytesMut::with_capacity(256));
        }
        let (free, retired) = p.occupancy();
        assert!(free <= 2, "free list exceeded depth: {free}");
        assert!(
            retired <= 2 * RETIRE_FACTOR,
            "retired ring exceeded its bound: {retired}"
        );
        p.check_invariants().unwrap();
    }

    #[test]
    fn undersized_buffers_are_rejected_from_the_free_list() {
        let p = pool(4, 2048);
        p.put(BytesMut::with_capacity(16));
        let (free, _) = p.occupancy();
        assert_eq!(free, 0, "undersized buffer must not be pooled");
        p.check_invariants().unwrap();
    }
}
