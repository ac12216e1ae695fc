//! Latency samples with failure accounting, and percentile arithmetic.

use std::time::Duration;

/// A percentile read from a sample, with the counts that say how much to
/// trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a percentile before it is trusted
/// (and gated).
pub const MIN_BEYOND: usize = 10;

impl Pct {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond this percentile.
    pub fn trusted(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `sorted` (ascending).
/// `None` on an empty sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<Pct> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it. Ranks are 1-based.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of an unsorted slice (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Whether an operation that took `elapsed` succeeded, and the latency it
/// is recorded with, microseconds: a failure or timeout is a miss, kept at
/// no less than the timeout.
pub fn scored(ok: bool, elapsed: Duration, timeout: Duration) -> (bool, f64) {
    let success = ok && elapsed <= timeout;
    let lat = if success {
        elapsed
    } else {
        elapsed.max(timeout)
    };
    (success, lat.as_secs_f64() * 1e6)
}

/// Operations of one workload: how many were attempted, how many failed,
/// and the latency of each, in microseconds. A failed or timed-out
/// operation stays in the sample as a miss: its latency is at least the
/// timeout, so it counts against every latency limit below the timeout.
#[derive(Debug, Clone)]
pub struct OpLog {
    timeout: Duration,
    lat_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    sorted: bool,
}

impl OpLog {
    /// Empty log whose operations time out after `timeout`.
    pub fn new(timeout: Duration) -> OpLog {
        OpLog {
            timeout,
            lat_us: Vec::new(),
            attempted: 0,
            failed: 0,
            sorted: true,
        }
    }

    /// Record one operation that took `elapsed`. `ok == false` marks a
    /// failure; an operation slower than the timeout is a failure too.
    /// Returns the latency recorded, microseconds.
    pub fn record(&mut self, ok: bool, elapsed: Duration) -> f64 {
        self.attempted += 1;
        let (success, lat) = scored(ok, elapsed, self.timeout);
        if !success {
            self.failed += 1;
        }
        self.lat_us.push(lat);
        self.sorted = false;
        lat
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed or timed out.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Nearest-rank percentile of the latency sample, misses included.
    pub fn percentile(&mut self, q: f64) -> Option<Pct> {
        if !self.sorted {
            self.lat_us.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile_sorted(&self.lat_us, q)
    }
}

/// What the workload completed in one window of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Process CPU seconds spent.
    pub cpu_s: f64,
    /// Latency of the operations completed in the window, microseconds
    /// (misses included, as in [`OpLog`]).
    pub lat_us: Vec<f64>,
    ops: f64,
    bytes: f64,
    /// Time, ops and bytes of the first completion.
    first: Option<(u64, f64, f64)>,
    last_ns: u64,
}

impl Window {
    /// Count `ops` operations and `bytes` payload bytes completed at
    /// `now_ns`, with the latency of the operation if it has one.
    pub fn record(&mut self, now_ns: u64, ops: f64, bytes: f64, lat_us: Option<f64>) {
        self.first.get_or_insert((now_ns, ops, bytes));
        self.last_ns = now_ns;
        self.ops += ops;
        self.bytes += bytes;
        self.lat_us.extend(lat_us);
    }

    /// Operations completed.
    pub fn ops(&self) -> f64 {
        self.ops
    }

    /// Rates of ops and bytes per second between the window's first and
    /// last completion, so they carry no rounding to whole operations per
    /// window. Zero with fewer than two completions.
    pub fn rates(&self) -> (f64, f64) {
        match self.first {
            Some((t, ops, bytes)) if self.last_ns > t => {
                let span = (self.last_ns - t) as f64 / 1e9;
                ((self.ops - ops) / span, (self.bytes - bytes) / span)
            }
            _ => (0.0, 0.0),
        }
    }

    /// Nearest-rank percentile of the window's latency sample.
    pub fn percentile(&mut self, q: f64) -> Option<Pct> {
        self.lat_us.sort_by(f64::total_cmp);
        percentile_sorted(&self.lat_us, q)
    }
}

/// Cuts a run into consecutive windows of equal wall time, so a run can
/// report its median window: a burst of load from outside the benchmark
/// then moves one window, not the result.
#[derive(Debug)]
pub struct Windows {
    width_ns: u64,
    end_ns: u64,
    cpu_at_start: f64,
    cur: Window,
    done: Vec<Window>,
}

impl Windows {
    /// Windows of `width` starting at `start_ns`; `cpu_s` is the process
    /// CPU clock at the start.
    pub fn new(start_ns: u64, width: Duration, cpu_s: f64) -> Windows {
        let width_ns = u64::try_from(width.as_nanos()).unwrap_or(u64::MAX).max(1);
        Windows {
            width_ns,
            end_ns: start_ns.saturating_add(width_ns),
            cpu_at_start: cpu_s,
            cur: Window::default(),
            done: Vec::new(),
        }
    }

    /// [`Window::record`] into the window `now_ns` falls in. `cpu` reads
    /// the process CPU clock; it is called only when a window closes.
    /// Windows with no completions in them are kept.
    pub fn add(
        &mut self,
        now_ns: u64,
        ops: f64,
        bytes: f64,
        lat_us: Option<f64>,
        cpu: impl Fn() -> f64,
    ) {
        if now_ns >= self.end_ns {
            let c = cpu();
            let mut w = std::mem::take(&mut self.cur);
            w.cpu_s = c - self.cpu_at_start;
            self.cpu_at_start = c;
            self.done.push(w);
            while now_ns >= self.end_ns.saturating_add(self.width_ns) {
                self.done.push(Window::default());
                self.end_ns += self.width_ns;
            }
            self.end_ns += self.width_ns;
        }
        self.cur.record(now_ns, ops, bytes, lat_us);
    }

    /// The full windows; the unfinished last one is dropped.
    pub fn finish(self) -> Vec<Window> {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_split_by_wall_time() {
        let s = 1_000_000_000u64;
        let mut w = Windows::new(0, Duration::from_secs(1), 10.0);
        w.add(s / 4, 1.0, 100.0, Some(5.0), || 10.5);
        w.add(s / 2, 1.0, 100.0, Some(3.0), || 10.9);
        w.add(3 * s / 4, 2.0, 50.0, Some(4.0), || 10.9);
        // Crossing into the second window closes the first; CPU is read
        // only then.
        w.add(s + 1, 1.0, 50.0, None, || 11.0);
        // A stall across a whole window leaves an empty window.
        w.add(3 * s + 5, 2.0, 0.0, None, || 12.5);
        let mut done = w.finish();
        assert_eq!(done.len(), 3);
        assert_eq!((done[0].ops(), done[0].cpu_s), (4.0, 1.0));
        // Three ops and 150 bytes after the first completion, over 0.5 s.
        assert_eq!(done[0].rates(), (6.0, 300.0));
        let p = done[0].percentile(0.5).expect("three samples");
        assert_eq!((p.value, p.n, p.beyond), (4.0, 3, 1));
        // One completion gives no rate.
        assert_eq!(
            (done[1].ops(), done[1].cpu_s, done[1].rates()),
            (1.0, 1.5, (0.0, 0.0))
        );
        assert_eq!(done[2], Window::default());
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn nearest_rank_with_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile_sorted(&v, 0.5).expect("non-empty");
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile_sorted(&v, 0.99).expect("non-empty");
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let p100 = percentile_sorted(&v, 1.0).expect("non-empty");
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        let one = percentile_sorted(&[3.0], 0.999).expect("non-empty");
        assert_eq!((one.value, one.beyond), (3.0, 0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 needs 1000 samples before ten lie beyond it; p99.9 needs 10000.
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(!percentile_sorted(&v, 0.99).expect("non-empty").trusted());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile_sorted(&v, 0.99).expect("non-empty");
        assert_eq!(p.beyond, 10);
        assert!(p.trusted());
        assert!(!percentile_sorted(&v, 0.999).expect("non-empty").trusted());
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert!(percentile_sorted(&v, 0.999).expect("non-empty").trusted());
    }

    #[test]
    fn failures_are_counted_and_kept_as_misses() {
        let mut log = OpLog::new(ms(100));
        assert_eq!(log.record(true, ms(1)), 1_000.0);
        assert_eq!(log.record(true, ms(2)), 2_000.0);
        // A failure that returned quickly still counts at the timeout.
        assert_eq!(log.record(false, ms(3)), 100_000.0);
        // A success slower than the timeout is a timeout, kept as is.
        assert_eq!(log.record(true, ms(250)), 250_000.0);
        assert_eq!(scored(true, ms(100), ms(100)), (true, 100_000.0));
        assert_eq!((log.attempted(), log.failed()), (4, 2));
        let top = log.percentile(1.0).expect("non-empty");
        assert!((top.value - 250_000.0).abs() < 1e-6);
        let third = log.percentile(0.75).expect("non-empty");
        assert!((third.value - 100_000.0).abs() < 1e-6);
        let p50 = log.percentile(0.5).expect("non-empty");
        assert!((p50.value - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
