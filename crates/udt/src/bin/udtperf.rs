//! `udtperf` — iperf-style throughput measurement over UDT.
//!
//! ```sh
//! # on the receiving host
//! udtperf server 0.0.0.0:9000
//!
//! # on the sending host
//! udtperf client 192.0.2.1:9000 --secs 10 --mss 1500
//! ```
//!
//! The client streams zeros for the requested duration and prints a
//! per-second report from the connection's performance monitor (rate, RTT,
//! congestion state, loss), then a summary — the numbers of the paper's
//! Figure 11, for your own network.
//!
//! With `--trace <path>` the client records a structured event stream:
//! periodic `perf` / `cpu` rows (one per `--interval` ms, default 1000)
//! interleaved with the full protocol event history (packet, ACK/NAK,
//! rate/RTT events) retained by the trace ring, written at exit in the
//! shared `udt-trace` schema — JSONL, or CSV when the path ends in
//! `.csv`. Feed it to `udtmon` for a live (or replayed) dashboard. The
//! schema is documented in the repo README.
//!
//! Bonded multipath: repeat `--path <addr>` on the client (one flag per
//! additional link) and give the server a matching `--bonded N`; the
//! blast is striped across all paths by estimated bandwidth and the
//! summary reports the per-path chunk split. Path-setup failures exit
//! non-zero with a one-line diagnostic. With `--trace` the recorded
//! stream is the bonded session's `path_*` event history.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use udt::{
    bonded_accept, bonded_connect, drain_closing, throughput_between, AuthPolicy, PreSharedKey,
    Tracer, UdtConfig, UdtConnection, UdtListener,
};
use udt_multipath::BondedCfg;
use udt_trace::event::{EventKind, TraceEvent};

fn usage() -> ! {
    eprintln!(
        "usage:\n  udtperf server <bind-addr> [--bonded N]\n  udtperf client <server-addr> [--secs N] [--mss BYTES] [--buf PKTS]\n                [--trace PATH] [--interval MS] [--path ADDR]...\n\n  --path ADDR  bond an additional path (repeatable); the blast is striped\n               across <server-addr> plus every --path\n  --bonded N   serve one bonded session of N paths, then exit\n  --auth-key H 32-hex-char pre-shared key; every packet carries a MAC tag\n               (implies --auth require unless --auth says otherwise)\n  --auth M     require | prefer | off — whether the peer must authenticate\n  --metrics A  serve live OpenMetrics on A (e.g. 127.0.0.1:9151); scrape\n               with curl or `udtstat A`"
    );
    std::process::exit(2);
}

/// Parse `--auth-key <hex>` / `--auth require|prefer|off`. A key with no
/// explicit mode implies `require`; a malformed key or mode exits 2 with a
/// one-line diagnostic.
fn parse_auth(args: &[String]) -> (AuthPolicy, Option<PreSharedKey>) {
    let key = parse_str_flag(args, "--auth-key").map(|raw| {
        PreSharedKey::from_hex(&raw).unwrap_or_else(|e| {
            eprintln!("udtperf: bad --auth-key: {e}");
            std::process::exit(2);
        })
    });
    let policy = match parse_str_flag(args, "--auth").as_deref() {
        Some("require") => AuthPolicy::Require,
        Some("prefer") => AuthPolicy::Prefer,
        Some("off") => AuthPolicy::Off,
        Some(other) => {
            eprintln!("udtperf: bad --auth mode {other:?} (require|prefer|off)");
            std::process::exit(2);
        }
        None => {
            if key.is_some() {
                AuthPolicy::Require
            } else {
                AuthPolicy::Off
            }
        }
    };
    (policy, key)
}

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn parse_str_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Collect every `--path <addr>` occurrence; a malformed address is a
/// usage error (exit 2) with a one-line diagnostic.
fn parse_paths(args: &[String]) -> Vec<SocketAddr> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--path" {
            let Some(raw) = args.get(i + 1) else {
                eprintln!("udtperf: --path needs an address");
                std::process::exit(2);
            };
            match raw.parse::<SocketAddr>() {
                Ok(a) => out.push(a),
                Err(e) => {
                    eprintln!("udtperf: bad --path address {raw:?}: {e}");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (auth, auth_key) = parse_auth(&args);
    let metrics_listen = parse_str_flag(&args, "--metrics").map(|raw| {
        raw.parse().unwrap_or_else(|e| {
            eprintln!("udtperf: bad --metrics address {raw:?}: {e}");
            std::process::exit(2);
        })
    });
    let base_cfg = UdtConfig {
        auth,
        auth_key,
        metrics_listen,
        ..UdtConfig::default()
    };
    match args.first().map(String::as_str) {
        Some("server") => {
            let addr: SocketAddr = args.get(1).unwrap_or_else(|| usage()).parse().unwrap_or_else(|e| {
                eprintln!("bad address: {e}");
                std::process::exit(2);
            });
            match parse_flag(&args, "--bonded") {
                Some(n) if n >= 1 => server_bonded(addr, n as usize, base_cfg),
                Some(_) => {
                    eprintln!("udtperf: --bonded needs a path count of at least 1");
                    std::process::exit(2);
                }
                None => server(addr, base_cfg),
            }
        }
        Some("client") => {
            let addr: SocketAddr = args.get(1).unwrap_or_else(|| usage()).parse().unwrap_or_else(|e| {
                eprintln!("bad address: {e}");
                std::process::exit(2);
            });
            let secs = parse_flag(&args, "--secs").unwrap_or(10);
            let mss = parse_flag(&args, "--mss").unwrap_or(1500) as u32;
            let buf = parse_flag(&args, "--buf").unwrap_or(8192) as u32;
            let trace = parse_str_flag(&args, "--trace");
            let interval_ms = parse_flag(&args, "--interval").unwrap_or(1000).max(10);
            let paths = parse_paths(&args);
            if paths.is_empty() {
                client(addr, secs, mss, buf, trace.as_deref(), interval_ms, base_cfg);
            } else {
                let mut addrs = vec![addr];
                addrs.extend(paths);
                client_bonded(&addrs, secs, mss, buf, trace.as_deref(), interval_ms, base_cfg);
            }
        }
        _ => usage(),
    }
    // close() returns after the first Shutdown copy; let the spaced rest
    // reach the peer before the process exits.
    drain_closing(Duration::from_secs(1));
}

/// Write the tracer's retained events (periodic `perf`/`cpu` samples plus
/// the protocol event history) as JSONL, time-sorted.
fn write_trace(path: &str, tracer: &Tracer) -> std::io::Result<usize> {
    use std::io::Write;
    let events: Vec<TraceEvent> = tracer.snapshot();
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    // Both formats derive from one encoder, so they cannot drift apart;
    // a .csv extension selects the spreadsheet-friendly flavor.
    if path.ends_with(".csv") {
        writeln!(f, "{}", udt_trace::json::CSV_HEADER)?;
        for ev in &events {
            writeln!(f, "{}", udt_trace::json::to_csv_row(ev))?;
        }
    } else {
        for ev in &events {
            writeln!(f, "{}", udt_trace::json::encode(ev))?;
        }
    }
    f.flush()?;
    Ok(events.len())
}

fn server(addr: SocketAddr, cfg: UdtConfig) {
    let listener = match UdtListener::bind(addr, cfg) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("udtperf: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("udtperf: listening on {}", listener.local_addr());
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("accept failed: {e}");
                return;
            }
        };
        eprintln!(
            "accepted {}{}",
            conn.peer_addr(),
            if conn.is_authenticated() { " (authenticated)" } else { "" }
        );
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 1 << 16];
            let t0 = Instant::now();
            let mut total = 0u64;
            loop {
                match conn.recv(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => total += n as u64,
                    Err(e) => {
                        eprintln!("recv error: {e}");
                        break;
                    }
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            eprintln!(
                "received {:.1} MB in {:.2}s = {:.2} Mb/s from {}",
                total as f64 / 1e6,
                secs,
                total as f64 * 8.0 / secs / 1e6,
                conn.peer_addr()
            );
        });
    }
}

/// Serve exactly one bonded session of `n_paths`, drain it, report, exit.
fn server_bonded(addr: SocketAddr, n_paths: usize, cfg: UdtConfig) {
    let listener = match UdtListener::bind(addr, cfg) {
        Ok(l) => Arc::new(l),
        Err(e) => {
            eprintln!("udtperf: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "udtperf: listening on {} for a {n_paths}-path bonded session",
        listener.local_addr()
    );
    let rx = bonded_accept(listener, n_paths, BondedCfg::default());
    let mut buf = vec![0u8; 1 << 16];
    let t0 = Instant::now();
    let mut total = 0u64;
    loop {
        match rx.recv_timeout(&mut buf, Duration::from_secs(3600)) {
            Ok(0) => break,
            Ok(n) => total += n as u64,
            Err(e) => {
                eprintln!("udtperf: bonded recv error: {e}");
                std::process::exit(1);
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let split: Vec<u64> = rx.counters().iter().map(|s| s.chunks_recv).collect();
    eprintln!(
        "received {:.1} MB in {:.2}s = {:.2} Mb/s over {n_paths} paths (chunk split {split:?})",
        total as f64 / 1e6,
        secs,
        total as f64 * 8.0 / secs / 1e6,
    );
}

/// Blast zeros across a bonded session striped over `addrs` for `secs`.
fn client_bonded(
    addrs: &[SocketAddr],
    secs: u64,
    mss: u32,
    buf_pkts: u32,
    trace_path: Option<&str>,
    interval_ms: u64,
    base_cfg: UdtConfig,
) {
    let tracer = if trace_path.is_some() {
        Tracer::ring(1 << 16)
    } else {
        Tracer::disabled()
    };
    let cfg = UdtConfig {
        mss,
        snd_buf_pkts: buf_pkts,
        rcv_buf_pkts: buf_pkts,
        ..base_cfg
    };
    let mp = BondedCfg {
        tracer: tracer.clone(),
        ..BondedCfg::default()
    };
    let mut tx = match bonded_connect(addrs, &cfg, mp) {
        Ok(tx) => tx,
        Err(e) => {
            eprintln!("udtperf: path setup failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("udtperf: bonded session up across {} paths: {addrs:?}", addrs.len());
    let stop = AtomicBool::new(false);
    let sent_bytes = std::sync::atomic::AtomicU64::new(0);
    let chunk = vec![0u8; 1 << 16];
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let reporter_tx = &tx;
        s.spawn(|| {
            println!("  t(s)     rate(Mb/s)   paths-up   chunk split");
            let mut prev = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(interval_ms));
                let now = sent_bytes.load(Ordering::Relaxed);
                let split: Vec<u64> =
                    reporter_tx.counters().iter().map(|c| c.chunks_sent).collect();
                println!(
                    "{:>6.1}   {:>10.1}   {:>8}   {split:?}",
                    t0.elapsed().as_secs_f64(),
                    (now - prev) as f64 * 8.0 / (interval_ms as f64 / 1e3) / 1e6,
                    reporter_tx.up_paths(),
                );
                prev = now;
            }
        });
        while t0.elapsed() < Duration::from_secs(secs) {
            if let Err(e) = tx.send(&chunk) {
                eprintln!("udtperf: bonded session broke: {e}");
                break;
            }
            sent_bytes.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Relaxed);
    });
    if let Err(e) = tx.finish(Duration::from_secs(60)) {
        eprintln!("udtperf: bonded close failed to flush: {e}");
        std::process::exit(1);
    }
    if let Some(path) = trace_path {
        match write_trace(path, &tracer) {
            Ok(n) => eprintln!("trace: wrote {n} path events to {path}"),
            Err(e) => eprintln!("trace: cannot write {path}: {e}"),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let sent = sent_bytes.load(Ordering::Relaxed);
    let counters = tx.counters();
    let split: Vec<u64> = counters.iter().map(|c| c.chunks_sent).collect();
    let downs: u64 = counters.iter().map(|c| c.path_downs).sum();
    println!(
        "---\nsent {:.1} MB in {:.2}s = {:.2} Mb/s over {} paths; chunk split {split:?}; {downs} path outage(s)",
        sent as f64 / 1e6,
        wall,
        sent as f64 * 8.0 / wall / 1e6,
        addrs.len(),
    );
}

fn client(
    addr: SocketAddr,
    secs: u64,
    mss: u32,
    buf_pkts: u32,
    trace_path: Option<&str>,
    interval_ms: u64,
    base_cfg: UdtConfig,
) {
    // A generous ring so a multi-second run keeps its full event history.
    let tracer = if trace_path.is_some() {
        Tracer::ring(1 << 16)
    } else {
        Tracer::disabled()
    };
    let cfg = UdtConfig {
        mss,
        snd_buf_pkts: buf_pkts,
        rcv_buf_pkts: buf_pkts,
        tracer: tracer.clone(),
        ..base_cfg
    };
    let conn = match UdtConnection::connect(addr, cfg) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("udtperf: connect failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "udtperf: connected {} → {} (mss {}{})",
        conn.local_addr(),
        conn.peer_addr(),
        conn.config().mss,
        if conn.is_authenticated() { ", authenticated" } else { "" }
    );
    let stop = Arc::new(AtomicBool::new(false));
    let reporter = {
        let conn = Arc::clone(&conn);
        let stop = Arc::clone(&stop);
        let tracer = tracer.clone();
        std::thread::spawn(move || {
            println!("  t(s)     rate(Mb/s)   rtt(ms)   cwnd    period(µs)   retx   naks");
            let t0 = Instant::now();
            let mut prev = conn.perfmon();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(interval_ms));
                let now = conn.perfmon();
                // Snapshots are of one connection taken in order, so the
                // interval math cannot refuse them; 0 only on a clock step.
                let (sent_bps, _) = throughput_between(&prev, &now).unwrap_or((0.0, 0.0));
                println!(
                    "{:>6.1}   {:>10.1}   {:>7.2}   {:>5.0}   {:>10.2}   {:>4}   {:>4}",
                    t0.elapsed().as_secs_f64(),
                    sent_bps / 1e6,
                    now.rtt_us / 1000.0,
                    now.cwnd_pkts,
                    now.pkt_snd_period_us,
                    now.pkts_retransmitted,
                    now.naks.1
                );
                // Periodic structured samples land in the same ring as the
                // protocol's own events (written out as JSONL at exit).
                tracer.emit(
                    now.conn_id,
                    EventKind::PerfSample {
                        rtt_us: now.rtt_us,
                        period_us: now.pkt_snd_period_us,
                        cwnd: now.cwnd_pkts,
                        rate_pps: sent_bps / 8.0 / f64::from(conn.config().mss).max(1.0),
                        bw_pps: now.bandwidth_est_pps,
                        sent: now.pkts_sent,
                        retx_pkts: now.pkts_retransmitted,
                        bytes: now.bytes_sent,
                        delivered: now.bytes_delivered,
                    },
                );
                tracer.emit(
                    now.conn_id,
                    EventKind::CpuBreakdown {
                        nanos: conn.instrument().snapshot(),
                    },
                );
                prev = now;
            }
        })
    };
    let chunk = vec![0u8; 1 << 16];
    let t0 = Instant::now();
    let mut sent = 0u64;
    while t0.elapsed() < Duration::from_secs(secs) {
        if conn.send(&chunk).is_err() {
            eprintln!("connection broke");
            break;
        }
        sent += chunk.len() as u64;
    }
    let _ = conn.close();
    stop.store(true, Ordering::Relaxed);
    let _ = reporter.join();
    if let Some(path) = trace_path {
        match write_trace(path, &tracer) {
            Ok(n) => eprintln!("trace: wrote {n} events to {path}"),
            Err(e) => eprintln!("trace: cannot write {path}: {e}"),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let p = conn.perfmon();
    println!(
        "---\nsent {:.1} MB in {:.2}s = {:.2} Mb/s; retransmit ratio {:.3}; final RTT {:.2} ms",
        sent as f64 / 1e6,
        wall,
        sent as f64 * 8.0 / wall / 1e6,
        p.retransmit_ratio(),
        p.rtt_us / 1000.0
    );
}
