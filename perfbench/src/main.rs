//! The repository benchmark: a single-process load generator that drives
//! only public APIs: the `udt` socket API over 127.0.0.1, and the
//! `netsim` simulator.
//!
//! ```text
//! perfbench --workload <bulk|echo|churn|sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` measures half the time untraced and half traced (metrics
//! hub on, spans recorded) and reports the per-layer metrics plus the
//! tracing overhead on each end-to-end metric. The last line of standard
//! output is the JSON result; `perfbench/out/` receives the result file
//! and, when traced, the spans. See `NOTES.md` for the workloads.

mod sim;
mod socket;

use std::io::Write;
use std::time::{Duration, Instant};

use perfbench::catalog::{END_TO_END, PER_LAYER, SPAN_NAMES};
use perfbench::procfs;
use perfbench::report::{non_finite, result_line, Metrics};
use perfbench::spans::{self, Span};
use perfbench::stats::{median, percentile_sorted, OpLog, Window, MIN_BEYOND};

/// Where result files and span dumps go, relative to the working
/// directory (the repository checkout).
const OUT_DIR: &str = "perfbench/out";

/// Setups made per phase; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Length of the windows a run is cut into for its median-window metrics.
pub const WINDOW: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    Echo,
    Churn,
    Sim,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "bulk" => Workload::Bulk,
            "echo" => Workload::Echo,
            "churn" => Workload::Churn,
            "sim" => Workload::Sim,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Echo => "echo",
            Workload::Churn => "churn",
            Workload::Sim => "sim",
        }
    }

    /// The percentile `lat_tail_us` reports, with its label: the highest
    /// of p99, p95 and p90 that keeps at least ten samples beyond it in
    /// this workload's usual window (a churn window holds ~120
    /// connections, a sim window a few hundred slices).
    fn tail(self) -> (f64, &'static str) {
        match self {
            Workload::Churn => (0.90, "p90"),
            Workload::Sim => (0.95, "p95"),
            Workload::Bulk | Workload::Echo => (0.99, "p99"),
        }
    }

    /// What one operation, and its latency, is.
    fn op_meaning(self) -> &'static str {
        match self {
            Workload::Bulk => "op = one 64 KiB send, counted when its bytes arrive intact; latency = time the send call blocked",
            Workload::Echo => "op = one 64-byte round trip; latency = send to verified reply",
            Workload::Churn => "op = one connection (connect, 64-byte exchange, close); latency = connect()",
            Workload::Sim => "op = one link transmission; latency = wall time of one 20 ms run_until slice",
        }
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug)]
pub struct Phase {
    /// Latency sample and failure accounting of the workload's operations.
    pub lat: OpLog,
    /// Operations attempted, for the result line.
    pub attempted: u64,
    /// Operations failed, for the result line.
    pub failed: u64,
    /// Length of the measured window, seconds.
    pub wall_s: f64,
    /// Process CPU seconds spent in the window.
    pub cpu_s: f64,
    /// Duration of each setup, seconds.
    pub setup_s: Vec<f64>,
    /// Correctness failures: wrong output, never slowness.
    pub errors: Vec<String>,
    /// Per-layer metrics (traced phases only).
    pub layers: Metrics,
    /// Spans (traced phases only).
    pub spans: Vec<Span>,
    /// Extra report lines.
    pub notes: Vec<String>,
    /// The window the run was cut into, in order.
    pub windows: Vec<Window>,
}

impl Phase {
    /// An empty phase whose operations time out after `timeout`.
    pub fn new(timeout: Duration) -> Phase {
        Phase {
            lat: OpLog::new(timeout),
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            setup_s: Vec::new(),
            errors: Vec::new(),
            layers: Metrics::default(),
            spans: Vec::new(),
            notes: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Take attempted/failed from the latency log.
    pub fn count_from_log(&mut self) {
        self.attempted = self.lat.attempted();
        self.failed = self.lat.failed();
    }
}

/// Run `make` `n` times, timing each; the previous result is dropped
/// (and so torn down) before the next is made, and the last is kept.
pub fn repeat_setup<T>(
    n: usize,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let v = make()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("at least one setup ran"), times))
}

/// Nanoseconds from `epoch` to now.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?);
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run_phase(w: Workload, seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Phase {
    let mut p = match w {
        Workload::Bulk => socket::bulk(seed, seconds, traced, epoch),
        Workload::Echo => socket::echo(seed, seconds, traced, epoch),
        Workload::Churn => socket::churn(seed, seconds, traced, epoch),
        Workload::Sim => sim::run(seed, seconds, traced, epoch),
    };
    p.layers.put("proc.cpu_s", p.cpu_s, "s");
    p
}

/// End-to-end metrics of a phase, plus report lines with sample counts:
/// the median over the windows the run was cut into.
fn end_to_end(w: Workload, p: &mut Phase, lines: &mut Vec<String>) -> Metrics {
    let (q, tail_label) = w.tail();
    let mut m = Metrics::default();
    lines.push(format!(
        "run: {:.3} s measured, {:.3} CPU s, {} ops attempted, {} failed; {}",
        p.wall_s,
        p.cpu_s,
        p.attempted,
        p.failed,
        w.op_meaning()
    ));
    let (mut good, mut ops, mut cpu, mut p50, mut tail) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut n_min, mut beyond_min) = (usize::MAX, usize::MAX);
    for win in &mut p.windows {
        let (ops_rate, byte_rate) = win.rates();
        good.push(byte_rate * 8.0 / 1e6);
        ops.push(ops_rate);
        cpu.push(win.cpu_s * 1e6 / win.ops().max(1.0));
        if let Some(x) = win.percentile(0.5) {
            p50.push(x.value);
        }
        if let Some(x) = win.percentile(q) {
            tail.push(x.value);
            n_min = n_min.min(x.n);
            beyond_min = beyond_min.min(x.beyond);
        }
    }
    // No full window means no result: NaN fails the run.
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    m.put("goodput_mbps", med(&good), "Mb/s");
    m.put("ops_per_s", med(&ops), "1/s");
    m.put("cpu_us_per_op", med(&cpu), "us");
    m.put("lat_p50_us", med(&p50), "us");
    m.put("lat_tail_us", med(&tail), "us");
    m.put("setup_s", median(&p.setup_s).unwrap_or(f64::NAN), "s");
    m.put("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
    lines.push(format!(
        "metrics are medians over {} windows; latency samples per window >= {n_min}, \
         >= {beyond_min} beyond {tail_label}{}",
        p.windows.len(),
        if beyond_min >= MIN_BEYOND {
            ""
        } else {
            " (fewer than 10 beyond in some window)"
        }
    ));
    let rounded = |v: &[f64]| v.iter().map(|x| x.round()).collect::<Vec<_>>();
    lines.push(format!("per-window ops/s: {:?}", rounded(&ops)));
    lines.push(format!("per-window {tail_label} us: {:?}", rounded(&tail)));
    lines.push(format!(
        "setup_s: median of {} setups: {:?}",
        p.setup_s.len(),
        p.setup_s
    ));
    match p.lat.percentile(0.999) {
        Some(x) => lines.push(format!(
            "latency p99.9 over the whole run = {:.3} us (n={}, {} beyond); reported, not gated: {}",
            x.value,
            x.n,
            x.beyond,
            if x.trusted() { "too unsteady on a shared 2-core host" } else { "fewer than 10 samples beyond it" }
        )),
        None => lines.push("latency: no samples".to_string()),
    }
    m
}

/// Per-layer metrics derived from spans, common to every workload.
fn span_layers(spans: &[Span], m: &mut Metrics) {
    for (name, metric) in [
        ("conn.connect", "connect"),
        ("conn.send", "send"),
        ("conn.recv", "recv"),
        ("conn.close", "close"),
    ] {
        let d = spans::durations(spans, name);
        let us = |q: f64| percentile_sorted(&d, q).map_or(0.0, |x| x.value / 1e3);
        m.put(format!("conn.{metric}_us.p50"), us(0.5), "us");
        m.put(format!("conn.{metric}_us.p99"), us(0.99), "us");
        m.put(format!("conn.{metric}_calls"), d.len() as f64, "count");
    }
    let acc = spans::durations(spans, "socket.accept");
    let acc_p50 = percentile_sorted(&acc, 0.5).map_or(0.0, |x| x.value / 1e3);
    m.put("socket.accept_wait_us.p50", acc_p50, "us");
    let st = spans::self_time_by_name(spans);
    for name in SPAN_NAMES {
        let ms = st.get(name).map_or(0.0, |&ns| ns as f64 / 1e6);
        m.put(format!("span.{name}.self_ms"), ms, "ms");
    }
    m.put(
        "span.op.child_share",
        spans::child_share(spans, "op").unwrap_or(0.0),
        "ratio",
    );
}

/// `git` revision of the checkout, read from `.git` without running git.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (the checkout is not a git repository)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map_or_else(
            |_| format!("unknown ({r} is packed)"),
            |s| s.trim().to_string(),
        ),
        None => head,
    }
}

fn write_out(
    path: &str,
    body: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) {
    let res = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::File::create(path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            body(&mut w)?;
            w.flush()
        });
    match res {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <bulk|echo|churn|sim> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut lines = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "host: nproc={nproc} kernel={} git={}",
            procfs::kernel(),
            git_rev()
        ),
        match w {
            Workload::Sim => "traffic: none; netsim runs single-threaded in simulated time".to_string(),
            _ => "traffic: 127.0.0.1 loopback only, never a real link; one client and one server thread, one connection open at a time".to_string(),
        },
    ];

    let (correct, attempted, failed, metrics, spans) = if args.trace {
        // Untraced half, then traced half: the per-layer numbers come from
        // the traced half, the overhead from the difference.
        let half = args.seconds / 2.0;
        let mut plain = run_phase(w, args.seed, half, false, epoch);
        lines.push("-- untraced half".to_string());
        let e_plain = end_to_end(w, &mut plain, &mut lines);
        let mut traced = run_phase(w, args.seed, half, true, epoch);
        lines.push("-- traced half (metrics hub on, spans recorded)".to_string());
        let e_traced = end_to_end(w, &mut traced, &mut lines);
        let mut m = std::mem::take(&mut traced.layers);
        span_layers(&traced.spans, &mut m);
        m.put("host.nproc", nproc as f64, "count");
        for (name, _) in END_TO_END {
            let (a, b) = (e_plain.get(name), e_traced.get(name));
            let o = match (a, b) {
                (Some(a), Some(b)) if a != 0.0 => b / a - 1.0,
                _ => 0.0,
            };
            m.put(format!("overhead.{name}"), o, "ratio");
        }
        lines.push(
            "overhead.peak_rss_mb compares the process peak after the traced half with the peak after the untraced half"
                .to_string(),
        );
        // Every listed per-layer metric is reported; a bypassed layer reads 0.
        let mut out = Metrics::default();
        for (name, unit) in PER_LAYER {
            out.put(*name, m.get(name).unwrap_or(0.0), unit);
        }
        lines.append(&mut plain.notes);
        lines.append(&mut traced.notes);
        let errors: Vec<String> = plain.errors.iter().chain(&traced.errors).cloned().collect();
        for e in &errors {
            lines.push(format!("CHECK FAILED: {e}"));
        }
        (
            errors.is_empty(),
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            out,
            std::mem::take(&mut traced.spans),
        )
    } else {
        let mut p = run_phase(w, args.seed, args.seconds, false, epoch);
        let m = end_to_end(w, &mut p, &mut lines);
        lines.append(&mut p.notes);
        for e in &p.errors {
            lines.push(format!("CHECK FAILED: {e}"));
        }
        (p.errors.is_empty(), p.attempted, p.failed, m, Vec::new())
    };

    let bad = non_finite(&metrics);
    let correct = correct && bad.is_empty() && attempted > 0;
    if !bad.is_empty() {
        lines.push(format!("CHECK FAILED: no value for {}", bad.join(", ")));
    }
    for l in &lines {
        println!("{l}");
    }
    for x in metrics.iter() {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    // A run that attempted nothing reports itself as one failed operation.
    let (attempted, failed) = if attempted == 0 {
        (1, 1)
    } else {
        (attempted, failed)
    };
    let line = result_line(correct, attempted, failed, &metrics);
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    write_out(&format!("{stem}.txt"), |f| {
        for l in &lines {
            writeln!(f, "{l}")?;
        }
        writeln!(f, "{line}")
    });
    // Span dumps run to tens of MB, so each workload keeps only its latest.
    if !spans.is_empty() {
        write_out(&format!("{OUT_DIR}/{}-spans.jsonl", w.name()), |f| {
            spans::write_jsonl(&spans, f)
        });
    }
    println!("{line}");
}
