//! The loopback workloads: `bulk`, `echo` and `churn`, driving the `udt`
//! socket API over 127.0.0.1 from one client thread (the caller) and one
//! server thread.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use perfbench::payload::{fold_digest, hash64, message, BlockTable};
use perfbench::procfs;
use perfbench::report::Metrics;
use perfbench::spans::SpanLog;
use perfbench::stats::{scored, Window, Windows};
use udt::instrument::N_CATEGORIES;
use udt::{ConnStats, MetricsHub, UdtConfig, UdtConnection, UdtListener};
use udt_metrics::counters::ListenerSnapshot;
use udt_metrics::hist::HistSnapshot;
use udt_metrics::registry::{RegistrySnapshot, SampleValue};

use crate::{ns_since, repeat_setup, Phase, SETUPS, WINDOW};

/// Bytes per bulk write.
const CHUNK: usize = 64 * 1024;
/// Distinct seeded blocks the bulk writes cycle through (4 MiB).
const BLOCKS: usize = 64;
/// Payload stream tags for the request/response workloads.
const ECHO_STREAM: u64 = 10;
const CHURN_STREAM: u64 = 11;

/// Span trace id of calls that belong to no single operation (setup
/// connects and the final close).
const NO_OP: u64 = u64::MAX;

/// A bulk `send` call blocked longer than this counts as failed.
const BULK_TIMEOUT: Duration = Duration::from_secs(10);
/// An echo round trip slower than this counts as failed.
const ECHO_TIMEOUT: Duration = Duration::from_secs(1);
/// A churn connection whose connect takes longer than this counts as
/// failed.
const CHURN_TIMEOUT: Duration = Duration::from_secs(5);
/// Churn makes ~24 connections a second; its windows are longer than
/// [`WINDOW`] so each holds enough connections for a p90.
const CHURN_WINDOW: Duration = Duration::from_secs(5);
/// Echo opens a fresh connection for every segment of this length.
const ECHO_SEGMENT: Duration = Duration::from_secs(5);

/// Configuration of every endpoint: the defaults, plus the metrics hub
/// when traced.
fn config(hub: Option<&Arc<MetricsHub>>) -> UdtConfig {
    UdtConfig {
        metrics: hub.cloned(),
        ..UdtConfig::default()
    }
}

fn any_loopback_port() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal address parses")
}

/// A listener with one established connection.
struct Pair {
    listener: UdtListener,
    client: UdtConnection,
    server: UdtConnection,
}

fn open_pair(cfg: &UdtConfig, log: &mut SpanLog) -> Result<Pair, String> {
    let listener =
        UdtListener::bind(any_loopback_port(), cfg.clone()).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr();
    let client = log
        .time("conn.connect", NO_OP, 0, || {
            UdtConnection::connect(addr, cfg.clone())
        })
        .map_err(|e| format!("connect: {e}"))?;
    let server = log
        .time("socket.accept", NO_OP, 0, || {
            listener.accept_timeout(Duration::from_secs(5))
        })
        .map_err(|e| format!("accept: {e}"))?
        .ok_or("accept timed out")?;
    Ok(Pair {
        listener,
        client,
        server,
    })
}

/// Counters of finished connections, summed over both endpoints.
#[derive(Debug, Default)]
struct ConnTotals {
    pkts_sent: u64,
    retx: u64,
    dup: u64,
    acks_sent: u64,
    bytes_delivered: u64,
    naks_sent: u64,
    loss_events: u64,
    exp_timeouts: u64,
    rejected: u64,
    instr: [u64; N_CATEGORIES],
}

impl ConnTotals {
    fn add(&mut self, c: &UdtConnection) {
        let s = c.stats();
        let g = ConnStats::get;
        self.pkts_sent += g(&s.pkts_sent);
        self.retx += g(&s.pkts_retransmitted);
        self.dup += g(&s.pkts_duplicate);
        self.acks_sent += g(&s.acks_sent);
        self.bytes_delivered += g(&s.bytes_delivered);
        self.naks_sent += g(&s.naks_sent);
        self.loss_events += g(&s.loss_events);
        self.exp_timeouts += g(&s.exp_timeouts);
        self.rejected += g(&s.pkts_rejected);
        for (t, v) in self.instr.iter_mut().zip(c.instrument().snapshot()) {
            *t += v;
        }
    }

    fn merge(&mut self, o: &ConnTotals) {
        self.pkts_sent += o.pkts_sent;
        self.retx += o.retx;
        self.dup += o.dup;
        self.acks_sent += o.acks_sent;
        self.bytes_delivered += o.bytes_delivered;
        self.naks_sent += o.naks_sent;
        self.loss_events += o.loss_events;
        self.exp_timeouts += o.exp_timeouts;
        self.rejected += o.rejected;
        for (t, v) in self.instr.iter_mut().zip(o.instr) {
            *t += v;
        }
    }
}

/// Every series of histogram family `name`, merged.
fn merged_hist(snap: &RegistrySnapshot, name: &str) -> HistSnapshot {
    let mut h = HistSnapshot::empty();
    if let Some(f) = snap.family(name) {
        for s in &f.series {
            if let SampleValue::Hist(x) = &s.value {
                h.merge(x);
            }
        }
    }
    h
}

/// Sum of every series of counter family `name`.
fn summed_counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.family(name).map_or(0, |f| {
        f.series
            .iter()
            .map(|s| match s.value {
                SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    })
}

/// Table 3 category names as reported, index-aligned with
/// `udt::instrument::Category`.
const INSTRUMENT_NAMES: [&str; N_CATEGORIES] = [
    "udp_send",
    "udp_recv",
    "timing",
    "packing",
    "unpacking",
    "control",
    "loss",
    "app",
    "measurement",
];

/// Per-layer metrics of a traced socket phase.
fn socket_layers(
    hub: &MetricsHub,
    listener: ListenerSnapshot,
    t: &ConnTotals,
    cpu_s: f64,
    threads_peak: u64,
) -> Metrics {
    let mut m = Metrics::default();
    m.put(
        "socket.cookies_sent",
        listener.challenges_sent as f64,
        "count",
    );
    m.put(
        "socket.established",
        listener.handshakes_accepted as f64,
        "count",
    );
    m.put("socket.rate_limited", listener.rate_limited as f64, "count");
    m.put(
        "socket.backlog_drops",
        listener.backlog_drops as f64,
        "count",
    );

    let first_tx = t.pkts_sent.max(1) as f64;
    m.put("conn.retx_ratio", t.retx as f64 / first_tx, "ratio");
    m.put("conn.pkts_duplicate", t.dup as f64, "count");
    let mb = (t.bytes_delivered as f64 / 1e6).max(1e-6);
    m.put("conn.acks_per_mb", t.acks_sent as f64 / mb, "1/MB");
    m.put("conn.naks_sent", t.naks_sent as f64, "count");
    m.put("conn.loss_events", t.loss_events as f64, "count");
    m.put("conn.exp_timeouts", t.exp_timeouts as f64, "count");
    m.put("conn.pkts_rejected", t.rejected as f64, "count");

    let data_pkts = (t.pkts_sent + t.retx).max(1) as f64;
    for (name, ns) in INSTRUMENT_NAMES.iter().zip(t.instr) {
        m.put(
            format!("instrument.{name}"),
            ns as f64 / data_pkts,
            "ns/pkt",
        );
    }
    let instr_ns: u64 = t.instr.iter().sum();
    m.put(
        "instrument.coverage",
        instr_ns as f64 / (cpu_s * 1e9).max(1.0),
        "ratio",
    );

    let snap = hub.registry().snapshot();
    let recv_batch = merged_hist(&snap, "udt_mux_recv_batch_pkts").mean();
    m.put("mux.recv_batch_pkts.mean", recv_batch, "pkts");
    m.put(
        "mux.send_batch_pkts.mean",
        merged_hist(&snap, "udt_mux_send_batch_pkts").mean(),
        "pkts",
    );
    let hits = summed_counter(&snap, "udt_batch_pool_hits");
    let misses = summed_counter(&snap, "udt_batch_pool_misses");
    m.put(
        "mux.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.put(
        "mux.pool_sweep_ns.p50",
        merged_hist(&snap, "udt_mux_pool_sweep_ns").p50() as f64,
        "ns",
    );
    m.put("mux.batched", f64::from(u8::from(recv_batch > 1.0)), "flag");
    m.put(
        "obs.rtt_us.p50",
        merged_hist(&snap, "udt_conn_rtt_us").p50() as f64,
        "us",
    );
    let ack = merged_hist(&snap, "udt_conn_ack_delivery_us");
    m.put("obs.ack_delivery_us.p50", ack.p50() as f64, "us");
    m.put("obs.ack_delivery_us.p99", ack.p99() as f64, "us");
    m.put(
        "obs.queue_depth_pkts.p99",
        merged_hist(&snap, "udt_conn_queue_depth_pkts").p99() as f64,
        "pkts",
    );
    m.put(
        "obs.rcv_batch_pkts.mean",
        merged_hist(&snap, "udt_conn_rcv_batch_pkts").mean(),
        "pkts",
    );
    m.put("proc.threads.peak", threads_peak as f64, "count");
    m
}

/// Highest thread count seen, sampled at operation boundaries.
#[derive(Debug, Default)]
struct ThreadPeak(u64);

impl ThreadPeak {
    fn sample(&mut self) {
        self.0 = self.0.max(procfs::threads());
    }
}

/// Setup failed: the phase reports the reason as a failed check.
fn broken(mut p: Phase, what: &str, e: String) -> Phase {
    p.errors.push(format!("{what} setup failed: {e}"));
    p.attempted = 1;
    p.failed = 1;
    p
}

/// `bulk`: one connection streams seeded 64 KiB writes one way for
/// `seconds`; the receiver checks every chunk's hash and the stream
/// digest.
pub fn bulk(seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Phase {
    let mut p = Phase::new(BULK_TIMEOUT);
    let hub = traced.then(MetricsHub::new);
    let cfg = config(hub.as_ref());
    let mut log = SpanLog::new(epoch, 1, traced);
    let setup = repeat_setup(SETUPS, || {
        let table = BlockTable::new(seed, BLOCKS, CHUNK);
        Ok((table, open_pair(&cfg, &mut log)?))
    });
    let ((table, pair), setup_s) = match setup {
        Ok(v) => v,
        Err(e) => return broken(p, "bulk", e),
    };
    p.setup_s = setup_s;
    let Pair {
        listener,
        client,
        server,
    } = pair;

    let mut peak = ThreadPeak::default();
    let cpu0 = procfs::cpu_seconds();
    let t0_ns = ns_since(epoch);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    // The sender keeps how long each `send` call blocked; the receiver
    // counts delivered, verified chunks into windows.
    let (rx, calls, send_err, tx_digest) = std::thread::scope(|s| {
        let win = Windows::new(t0_ns, WINDOW, cpu0);
        let rx = s.spawn(|| receive_bulk(&server, &table, epoch, traced, win));
        let mut digest = 0u64;
        let mut calls: Vec<Duration> = Vec::new();
        let mut send_err = None;
        while Instant::now() < deadline {
            let w = calls.len() as u64;
            let op = log.open("op", w, 0);
            let t = Instant::now();
            let r = log.time("conn.send", w, op.id, || client.send(table.write_bytes(w)));
            calls.push(t.elapsed());
            log.close(op);
            if let Err(e) = r {
                send_err = Some(e.to_string());
                break;
            }
            digest = fold_digest(digest, table.write_hash(w));
            if traced && calls.len().is_multiple_of(64) {
                peak.sample();
            }
        }
        if let Err(e) = log.time("conn.close", NO_OP, 0, || client.close()) {
            send_err.get_or_insert(format!("close: {e}"));
        }
        let rx = rx.join().expect("bulk receiver thread panicked");
        (rx, calls, send_err, digest)
    });
    p.cpu_s = procfs::cpu_seconds() - cpu0;
    p.wall_s = rx.end_ns.saturating_sub(t0_ns) as f64 / 1e9;
    p.windows = rx.windows;
    let writes = calls.len() as u64 - u64::from(send_err.is_some());

    // One op per `send` call: it succeeds when the write's bytes arrive
    // intact; its latency, kept in the window its bytes arrived in, is how
    // long the call blocked. A write that never arrives is a miss.
    for (w, &call) in calls.iter().enumerate() {
        match rx.delivered.get(w) {
            Some(&(at, ok)) => {
                let lat = p.lat.record(ok, call);
                let since = u128::from(at.saturating_sub(t0_ns));
                let i = usize::try_from(since / WINDOW.as_nanos()).unwrap_or(usize::MAX);
                if let Some(win) = p.windows.get_mut(i) {
                    win.lat_us.push(lat);
                }
            }
            None => {
                p.lat.record(false, call);
            }
        }
    }
    p.count_from_log();
    p.errors.extend(rx.errors);
    if let Some(e) = &send_err {
        p.notes.push(format!("sender stopped: {e}"));
    }
    let chunks = rx.delivered.len() as u64;
    if chunks == writes && rx.digest != tx_digest {
        p.errors.push(format!(
            "stream digest mismatch: sent {tx_digest:016x}, received {:016x}",
            rx.digest
        ));
    }
    p.notes.push(format!(
        "bulk: {writes} writes of {CHUNK} B sent, {chunks} delivered, digest {:016x} {}",
        rx.digest,
        if chunks == writes && rx.digest == tx_digest {
            "matches"
        } else {
            "differs"
        }
    ));

    if let Some(hub) = &hub {
        let mut totals = ConnTotals::default();
        totals.add(&client);
        totals.add(&server);
        peak.sample();
        p.layers = socket_layers(hub, listener.counters(), &totals, p.cpu_s, peak.0);
        let batched = p.layers.get("mux.batched").unwrap_or(0.0) > 0.0;
        p.notes.push(format!(
            "mux batched on bulk: {} (mean {:.2} datagrams per receive wakeup)",
            if batched { "yes" } else { "no" },
            p.layers.get("mux.recv_batch_pkts.mean").unwrap_or(0.0)
        ));
    }
    let mut spans = log.into_spans();
    spans.extend(rx.spans);
    p.spans = spans;
    p
}

struct BulkRx {
    /// Per chunk in order: delivery time (ns since epoch) and whether its
    /// hash matched the write it must be.
    delivered: Vec<(u64, bool)>,
    digest: u64,
    end_ns: u64,
    errors: Vec<String>,
    spans: Vec<perfbench::spans::Span>,
    windows: Vec<Window>,
}

fn receive_bulk(
    conn: &UdtConnection,
    table: &BlockTable,
    epoch: Instant,
    traced: bool,
    mut win: Windows,
) -> BulkRx {
    let mut log = SpanLog::new(epoch, 2, traced);
    let mut buf = vec![0u8; table.block_len()];
    let mut filled = 0;
    let mut out = BulkRx {
        delivered: Vec::new(),
        digest: 0,
        end_ns: 0,
        errors: Vec::new(),
        spans: Vec::new(),
        windows: Vec::new(),
    };
    let mut mismatches = 0u64;
    let mut chunk = 0u64;
    let mut serve = log.open("serve", chunk, 0);
    loop {
        let r = log.time("conn.recv", chunk, serve.id, || {
            conn.recv(&mut buf[filled..])
        });
        match r {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) => {
                out.errors.push(format!("bulk receive failed: {e}"));
                break;
            }
        }
        if filled == buf.len() {
            let h = hash64(&buf);
            let ok = h == table.write_hash(chunk);
            if !ok {
                mismatches += 1;
                if mismatches <= 3 {
                    out.errors.push(format!(
                        "bulk chunk {chunk}: content differs from write {chunk}"
                    ));
                }
            }
            let now = ns_since(epoch);
            out.delivered.push((now, ok));
            let bytes = if ok { buf.len() as f64 } else { 0.0 };
            win.add(
                now,
                f64::from(u8::from(ok)),
                bytes,
                None,
                procfs::cpu_seconds,
            );
            out.digest = fold_digest(out.digest, h);
            filled = 0;
            log.close(serve);
            chunk += 1;
            serve = log.open("serve", chunk, 0);
        }
    }
    out.end_ns = ns_since(epoch);
    out.windows = win.finish();
    if filled != 0 {
        out.errors.push(format!(
            "bulk stream ended inside chunk {chunk} ({filled} of {} bytes)",
            buf.len()
        ));
    }
    if mismatches > 3 {
        out.errors
            .push(format!("bulk: {mismatches} chunks differ in all"));
    }
    let _ = log.time("conn.close", NO_OP, 0, || conn.close());
    out.spans = log.into_spans();
    out
}

/// `echo`: one client, one 64-byte request outstanding; the server echoes
/// with `recv_exact` + `send`, the client checks every reply. The run is
/// cut into segments of [`ECHO_SEGMENT`], each on a fresh connection, so
/// one run samples several connections. Each segment outlives slow-start
/// exit, where an app-limited connection's pacing rate locks in (see
/// `NOTES.md`), so the lock-in shows in the numbers.
pub fn echo(seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Phase {
    let mut p = Phase::new(ECHO_TIMEOUT);
    let hub = traced.then(MetricsHub::new);
    let cfg = config(hub.as_ref());
    let mut log = SpanLog::new(epoch, 1, traced);
    let mut peak = ThreadPeak::default();
    let mut totals = ConnTotals::default();
    let mut listener_counters = ListenerSnapshot::default();
    let mut srv_spans = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        // Setup: bind, connect, accept; timed for `setup_s`.
        let t_setup = Instant::now();
        let pair = match open_pair(&cfg, &mut log) {
            Ok(pair) => pair,
            Err(e) => return broken(p, "echo", e),
        };
        p.setup_s.push(t_setup.elapsed().as_secs_f64());
        let Pair {
            listener,
            client,
            server,
        } = pair;
        let cpu0 = procfs::cpu_seconds();
        let t0 = Instant::now();
        let seg_end = (t0 + ECHO_SEGMENT).min(deadline);
        let mut w = Window::default();
        let mut seg_s = 0.0;
        let mut stopped = false;
        std::thread::scope(|s| {
            let srv = s.spawn(|| {
                let mut log = SpanLog::new(epoch, 2, traced);
                let mut m = [0u8; 64];
                for k in 0u64.. {
                    let op = log.open("serve", k, 0);
                    let r = log.time("conn.recv", k, op.id, || server.recv_exact(&mut m));
                    let r = r.and_then(|()| log.time("conn.send", k, op.id, || server.send(&m)));
                    log.close(op);
                    if r.is_err() {
                        break; // end of stream after the client's close
                    }
                }
                let _ = log.time("conn.close", NO_OP, 0, || server.close());
                log.into_spans()
            });
            let mut reply = [0u8; 64];
            while Instant::now() < seg_end {
                let msg = message(seed, ECHO_STREAM, i);
                let op = log.open("op", i, 0);
                let t = Instant::now();
                let r = log
                    .time("conn.send", i, op.id, || client.send(&msg))
                    .and_then(|()| {
                        log.time("conn.recv", i, op.id, || client.recv_exact(&mut reply))
                    });
                let el = t.elapsed();
                log.close(op);
                let same = r.is_ok() && reply == msg;
                if r.is_ok() && !same {
                    p.errors
                        .push(format!("echo round trip {i}: reply differs from request"));
                }
                let lat = p.lat.record(same, el);
                let ok = f64::from(u8::from(scored(same, el, ECHO_TIMEOUT).0));
                w.record(ns_since(epoch), ok, 128.0 * ok, Some(lat));
                i += 1;
                if let Err(e) = r {
                    p.notes.push(format!("echo stopped at round trip {i}: {e}"));
                    stopped = true;
                    break;
                }
                if traced && i.is_multiple_of(1024) {
                    peak.sample();
                }
            }
            seg_s = t0.elapsed().as_secs_f64();
            w.cpu_s = procfs::cpu_seconds() - cpu0;
            let _ = log.time("conn.close", NO_OP, 0, || client.close());
            srv_spans.extend(srv.join().expect("echo server thread panicked"));
        });
        p.wall_s += seg_s;
        p.cpu_s += w.cpu_s;
        // A segment cut short by the end of the run is not a full window.
        if seg_s >= 0.5 * ECHO_SEGMENT.as_secs_f64() || p.windows.is_empty() {
            p.windows.push(w);
        }
        if hub.is_some() {
            totals.add(&client);
            totals.add(&server);
            let c = listener.counters();
            listener_counters.challenges_sent += c.challenges_sent;
            listener_counters.handshakes_accepted += c.handshakes_accepted;
            listener_counters.rate_limited += c.rate_limited;
            listener_counters.backlog_drops += c.backlog_drops;
        }
        if stopped {
            break;
        }
    }
    p.count_from_log();
    p.notes.push(format!(
        "echo: {} segments of up to {:?}, one connection each",
        p.setup_s.len(),
        ECHO_SEGMENT
    ));
    if let Some(hub) = &hub {
        p.layers = socket_layers(hub, listener_counters, &totals, p.cpu_s, peak.0);
    }
    let mut spans = log.into_spans();
    spans.extend(srv_spans);
    p.spans = spans;
    p
}

/// `churn`: sequential connections, one open at a time; each connects,
/// exchanges one 64-byte message and closes on both sides before the next
/// starts.
pub fn churn(seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Phase {
    let mut p = Phase::new(CHURN_TIMEOUT);
    let hub = traced.then(MetricsHub::new);
    let cfg = config(hub.as_ref());
    let setup = repeat_setup(SETUPS, || {
        UdtListener::bind(any_loopback_port(), cfg.clone()).map_err(|e| format!("bind: {e}"))
    });
    let (listener, setup_s) = match setup {
        Ok(v) => v,
        Err(e) => return broken(p, "churn", e),
    };
    p.setup_s = setup_s;
    let addr = listener.local_addr();
    let stop = AtomicBool::new(false);
    let (done_tx, done_rx) = mpsc::channel::<Result<(), String>>();
    let mut log = SpanLog::new(epoch, 1, traced);
    let mut totals = ConnTotals::default();
    let mut peak = ThreadPeak::default();
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut win = Windows::new(ns_since(epoch), CHURN_WINDOW, cpu0);

    let (srv_spans, srv_totals) = std::thread::scope(|s| {
        let srv = s.spawn(|| serve_churn(&listener, &stop, &done_tx, epoch, traced));
        let mut reply = [0u8; 64];
        let mut i = 0u64;
        while Instant::now() < deadline {
            let msg = message(seed, CHURN_STREAM, i);
            let op = log.open("op", i, 0);
            let t = Instant::now();
            let conn = log.time("conn.connect", i, op.id, || {
                UdtConnection::connect(addr, cfg.clone())
            });
            let connect_time = t.elapsed();
            let outcome = match conn {
                Err(e) => Err(format!("connect: {e}")),
                Ok(conn) => {
                    if traced {
                        peak.sample();
                    }
                    let r = log
                        .time("conn.send", i, op.id, || conn.send(&msg))
                        .and_then(|()| {
                            log.time("conn.recv", i, op.id, || conn.recv_exact(&mut reply))
                        })
                        .map_err(|e| format!("exchange: {e}"));
                    if r.is_ok() && reply != msg {
                        p.errors
                            .push(format!("churn connection {i}: reply differs from request"));
                    }
                    let closed = log.time("conn.close", i, op.id, || conn.close());
                    totals.add(&conn);
                    // The server side must be closed too before the next
                    // connection opens.
                    let served = done_rx
                        .recv_timeout(Duration::from_secs(5))
                        .unwrap_or_else(|_| Err("server did not finish in 5 s".to_string()));
                    r.and(closed.map_err(|e| format!("close: {e}")))
                        .and(served)
                        .and(if reply == msg {
                            Ok(())
                        } else {
                            Err("wrong reply".to_string())
                        })
                }
            };
            log.close(op);
            if let Err(e) = &outcome {
                if p.lat.failed() < 3 {
                    p.notes.push(format!("churn connection {i} failed: {e}"));
                }
            }
            let lat = p.lat.record(outcome.is_ok(), connect_time);
            let ok = f64::from(u8::from(outcome.is_ok()));
            win.add(
                ns_since(epoch),
                ok,
                128.0 * ok,
                Some(lat),
                procfs::cpu_seconds,
            );
            i += 1;
        }
        p.wall_s = t0.elapsed().as_secs_f64();
        p.cpu_s = procfs::cpu_seconds() - cpu0;
        p.windows = win.finish();
        stop.store(true, Ordering::Relaxed);
        srv.join().expect("churn server thread panicked")
    });
    p.count_from_log();
    if let Some(hub) = &hub {
        totals.merge(&srv_totals);
        p.layers = socket_layers(hub, listener.counters(), &totals, p.cpu_s, peak.0);
    }
    let mut spans = log.into_spans();
    spans.extend(srv_spans);
    p.spans = spans;
    p
}

/// The churn server: accept, echo one message, wait for the client's
/// close, close, report.
fn serve_churn(
    listener: &UdtListener,
    stop: &AtomicBool,
    done: &mpsc::Sender<Result<(), String>>,
    epoch: Instant,
    traced: bool,
) -> (Vec<perfbench::spans::Span>, ConnTotals) {
    let mut log = SpanLog::new(epoch, 2, traced);
    let mut totals = ConnTotals::default();
    let mut m = [0u8; 64];
    let mut eof = [0u8; 1];
    for k in 0u64.. {
        let op = log.open("serve", k, 0);
        let accept = log.open("socket.accept", k, op.id);
        let conn = loop {
            if stop.load(Ordering::Relaxed) {
                break None;
            }
            match listener.accept_timeout(Duration::from_millis(20)) {
                Ok(Some(c)) => break Some(c),
                Ok(None) => {}
                Err(e) => {
                    let _ = done.send(Err(format!("accept: {e}")));
                    break None;
                }
            }
        };
        // The wait cut short by the end of the run is not an accept.
        let Some(conn) = conn else { break };
        log.close(accept);
        let r = log
            .time("conn.recv", k, op.id, || conn.recv_exact(&mut m))
            .and_then(|()| log.time("conn.send", k, op.id, || conn.send(&m)))
            .map_err(|e| format!("server exchange: {e}"))
            .and_then(
                |()| match log.time("conn.recv", k, op.id, || conn.recv(&mut eof)) {
                    Ok(0) => Ok(()),
                    Ok(_) => Err("server: data after the request".to_string()),
                    Err(e) => Err(format!("server waiting for close: {e}")),
                },
            );
        let closed = log.time("conn.close", k, op.id, || conn.close());
        log.close(op);
        if traced {
            totals.add(&conn);
        }
        drop(conn);
        let _ = done.send(r.and(closed.map_err(|e| format!("server close: {e}"))));
    }
    (log.into_spans(), totals)
}
