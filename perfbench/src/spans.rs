//! In-memory spans recorded by the benchmark around every call it makes
//! into a public API of the program. Each thread keeps its own log (no
//! locking on the measured path); the logs are merged and written out
//! when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Shared by every span of one operation (round trip, connection,
    /// write, simulation slice).
    pub trace: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// What was called, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id the span will carry (0 when recording is off).
    pub id: u64,
    trace: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// One thread's span log. With recording off every call is a branch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    tag: u64,
    next: u64,
    on: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for one thread. `tag` makes its ids distinct from other
    /// threads' (it occupies the top 16 bits).
    pub fn new(epoch: Instant, tag: u16, on: bool) -> SpanLog {
        SpanLog {
            epoch,
            tag: u64::from(tag) << 48,
            next: 0,
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span named `name` in operation `trace` under `parent`
    /// (0 for a root).
    pub fn open(&mut self, name: &'static str, trace: u64, parent: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                trace,
                parent,
                name,
                start_ns: 0,
            };
        }
        self.next += 1;
        Open {
            id: self.tag | self.next,
            trace,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// End a span started with [`SpanLog::open`].
    pub fn close(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            trace: open.trace,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let o = self.open(name, trace, parent);
        let out = f();
        self.close(o);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per span: the part of its interval covered by its children.
fn child_cover(spans: &[Span]) -> Vec<u64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            kids.get_mut(&s.id)
                .map_or(0, |iv| covered(s.start_ns, s.end_ns, iv))
        })
        .collect()
}

/// Self time per span name: each span's duration minus the part of it
/// that its child spans cover, summed by name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_cover(spans)) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// For the spans named `root`: the share of their total duration that
/// their child spans cover (how much of an operation's wall time the
/// program's calls account for). `None` when no such span has length.
pub fn child_share(spans: &[Span], root: &str) -> Option<f64> {
    let (mut cov, mut dur) = (0u64, 0u64);
    for (s, c) in spans.iter().zip(child_cover(spans)) {
        if s.name == root {
            cov += c;
            dur += s.dur_ns();
        }
    }
    (dur > 0).then(|| cov as f64 / dur as f64)
}

/// Durations in nanoseconds of the spans named `name`, ascending.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            // Overlapping children count once; a child running past its
            // parent is clipped.
            span(2, 1, "conn.send", 10, 40),
            span(3, 1, "conn.recv", 30, 60),
            span(4, 1, "conn.recv", 90, 120),
        ];
        let st = self_time_by_name(&spans);
        assert_eq!(st["op"], 100 - 50 - 10);
        assert_eq!(st["conn.send"], 30);
        assert_eq!(st["conn.recv"], 30 + 30);
        let share = child_share(&spans, "op").expect("op has length");
        assert!((share - 0.6).abs() < 1e-12);
        assert_eq!(child_share(&spans, "missing"), None);
        assert_eq!(durations(&spans, "conn.recv"), vec![30.0, 30.0]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), 1, false);
        let o = log.open("op", 1, 0);
        assert_eq!(o.id, 0);
        log.close(o);
        assert_eq!(log.time("conn.send", 1, 0, || 5), 5);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn enabled_log_nests_and_tags_ids() {
        let mut log = SpanLog::new(Instant::now(), 3, true);
        let root = log.open("op", 9, 0);
        log.time("conn.send", 9, root.id, || ());
        log.close(root);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root.id);
        assert!(spans.iter().all(|s| s.id >> 48 == 3 && s.trace == 9));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).expect("write to a Vec");
        assert_eq!(String::from_utf8(out).expect("utf8").lines().count(), 2);
    }
}
