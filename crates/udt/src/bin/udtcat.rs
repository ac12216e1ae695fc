//! `udtcat` — netcat for UDT: pipe stdin across the network, or a remote
//! stream to stdout. Composes with the `sendfile`/`recvfile` spirit of
//! §4.7 for ad-hoc bulk moves:
//!
//! ```sh
//! # receiver
//! udtcat listen 0.0.0.0:9000 > dump.tar
//!
//! # sender (retry the connect up to 5 times with backoff)
//! udtcat connect --retry 5 192.0.2.1:9000 < dump.tar
//! ```
//!
//! Bonded multipath: give the sender extra `--path <addr>` flags (one per
//! additional link) and the receiver a matching `--bonded N`; the stream
//! is striped across all paths and survives any one of them dying:
//!
//! ```sh
//! udtcat listen --bonded 2 0.0.0.0:9000 > dump.tar
//! udtcat connect --path 198.51.100.1:9000 192.0.2.1:9000 < dump.tar
//! ```
//!
//! Exit codes: 0 on success, 1 on a transfer/connection failure (with a
//! one-line diagnostic on stderr), 2 on usage errors.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use udt::{
    bonded_accept, bonded_connect, drain_closing, AuthPolicy, PreSharedKey, RetryPolicy,
    UdtConfig, UdtConnection, UdtListener,
};
use udt_multipath::BondedCfg;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  udtcat listen [--bonded N] <bind-addr>            # remote stream → stdout\n  udtcat connect [--retry N] [--path A]... <addr>   # stdin → remote\n\n  --retry N    retry a failed connect up to N times with exponential backoff\n  --path A     bond an additional path to address A (repeatable; stripes the\n               stream across <addr> plus every --path)\n  --bonded N   accept a bonded session of N paths instead of one connection\n  --auth-key H 32-hex-char pre-shared key; every packet carries a MAC tag\n               (implies --auth require unless --auth says otherwise)\n  --auth M     require | prefer | off — whether the peer must authenticate"
    );
    ExitCode::from(2)
}

/// Parse `--auth-key <hex>` / `--auth require|prefer|off` out of `args`
/// into config fields. A key with no explicit mode implies `require`.
fn parse_auth(args: &mut Vec<String>) -> Result<(AuthPolicy, Option<PreSharedKey>), ExitCode> {
    let mut policy = None;
    if let Some(i) = args.iter().position(|a| a == "--auth") {
        policy = match args.get(i + 1).map(String::as_str) {
            Some("require") => Some(AuthPolicy::Require),
            Some("prefer") => Some(AuthPolicy::Prefer),
            Some("off") => Some(AuthPolicy::Off),
            other => {
                eprintln!(
                    "udtcat: --auth needs require, prefer or off (got {})",
                    other.unwrap_or("nothing")
                );
                return Err(usage());
            }
        };
        args.drain(i..=i + 1);
    }
    let mut key = None;
    if let Some(i) = args.iter().position(|a| a == "--auth-key") {
        let Some(raw) = args.get(i + 1) else {
            eprintln!("udtcat: --auth-key needs a 32-hex-char key");
            return Err(usage());
        };
        match PreSharedKey::from_hex(raw) {
            Ok(k) => key = Some(k),
            Err(e) => {
                eprintln!("udtcat: bad --auth-key: {e}");
                return Err(ExitCode::from(2));
            }
        }
        args.drain(i..=i + 1);
    }
    let policy = policy.unwrap_or(if key.is_some() {
        AuthPolicy::Require
    } else {
        AuthPolicy::Off
    });
    Ok((policy, key))
}

fn fail(what: &str, err: &dyn std::fmt::Display) -> ExitCode {
    eprintln!("udtcat: {what}: {err}");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut retries = 0u32;
    if let Some(i) = args.iter().position(|a| a == "--retry") {
        let Some(n) = args.get(i + 1).and_then(|v| v.parse::<u32>().ok()) else {
            eprintln!("udtcat: --retry needs a non-negative integer");
            return usage();
        };
        retries = n;
        args.drain(i..=i + 1);
    }
    let mut bonded = 0usize;
    if let Some(i) = args.iter().position(|a| a == "--bonded") {
        let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()).filter(|&n| n >= 1)
        else {
            eprintln!("udtcat: --bonded needs a path count of at least 1");
            return usage();
        };
        bonded = n;
        args.drain(i..=i + 1);
    }
    let (auth, auth_key) = match parse_auth(&mut args) {
        Ok(a) => a,
        Err(code) => return code,
    };
    // Misconfiguration (e.g. --auth require without --auth-key) is caught
    // by bind/connect, which fail fast with a one-line AuthConfig error.
    let base_cfg = UdtConfig {
        auth,
        auth_key,
        ..UdtConfig::default()
    };
    let mut extra_paths: Vec<SocketAddr> = Vec::new();
    while let Some(i) = args.iter().position(|a| a == "--path") {
        let Some(raw) = args.get(i + 1).cloned() else {
            eprintln!("udtcat: --path needs an address");
            return usage();
        };
        match raw.parse::<SocketAddr>() {
            Ok(a) => extra_paths.push(a),
            Err(e) => {
                eprintln!("udtcat: bad --path address {raw:?}: {e}");
                return ExitCode::from(2);
            }
        }
        args.drain(i..=i + 1);
    }
    let (mode, addr) = match (args.first().map(String::as_str), args.get(1)) {
        (Some(m @ ("listen" | "connect")), Some(a)) => match a.parse::<SocketAddr>() {
            Ok(addr) => (m.to_string(), addr),
            Err(e) => {
                eprintln!("udtcat: bad address {a:?}: {e}");
                return ExitCode::from(2);
            }
        },
        _ => return usage(),
    };
    let code = match mode.as_str() {
        "listen" if bonded > 0 => listen_bonded(addr, bonded, base_cfg),
        "listen" => listen(addr, base_cfg),
        _ if !extra_paths.is_empty() => {
            if retries > 0 {
                eprintln!("udtcat: --retry does not combine with --path (bonded sessions re-dial dead paths themselves)");
                return ExitCode::from(2);
            }
            let mut addrs = vec![addr];
            addrs.extend(extra_paths);
            connect_bonded(&addrs, &base_cfg)
        }
        _ => connect(addr, retries, base_cfg),
    };
    // close() returns after the first Shutdown copy; let the spaced rest
    // reach the peer before the process exits.
    drain_closing(Duration::from_secs(1));
    code
}

fn listen(addr: SocketAddr, cfg: UdtConfig) -> ExitCode {
    let listener = match UdtListener::bind(addr, cfg) {
        Ok(l) => l,
        Err(e) => return fail("bind failed", &e),
    };
    eprintln!("udtcat: listening on {}", listener.local_addr());
    let conn = match listener.accept() {
        Ok(c) => c,
        Err(e) => return fail("accept failed", &e),
    };
    eprintln!(
        "udtcat: connection from {}{}",
        conn.peer_addr(),
        if conn.is_authenticated() { " (authenticated)" } else { "" }
    );
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut buf = vec![0u8; 1 << 16];
    let mut total = 0u64;
    loop {
        match conn.recv(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if let Err(e) = out.write_all(&buf[..n]) {
                    return fail("stdout write failed", &e);
                }
                total += n as u64;
            }
            Err(e) => return fail("transfer failed mid-stream", &e),
        }
    }
    out.flush().ok();
    eprintln!("udtcat: received {total} bytes");
    ExitCode::SUCCESS
}

fn connect(addr: SocketAddr, retries: u32, base_cfg: UdtConfig) -> ExitCode {
    let cfg = UdtConfig {
        retry: RetryPolicy {
            max_attempts: retries,
            ..RetryPolicy::default()
        },
        ..base_cfg
    };
    // stdin is consumed as it is sent, so only the *connect* phase can be
    // retried; a mid-stream break is fatal (use the resilient file API
    // for resumable bulk transfers).
    let conn = match connect_with_retry(addr, &cfg) {
        Ok(c) => c,
        Err(e) => return fail("connect failed", &e),
    };
    eprintln!(
        "udtcat: connected to {}{}",
        conn.peer_addr(),
        if conn.is_authenticated() { " (authenticated)" } else { "" }
    );
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut buf = vec![0u8; 1 << 16];
    let mut total = 0u64;
    loop {
        let n = match input.read(&mut buf) {
            Ok(n) => n,
            Err(e) => return fail("stdin read failed", &e),
        };
        if n == 0 {
            break;
        }
        if let Err(e) = conn.send(&buf[..n]) {
            return fail("transfer failed mid-stream", &e);
        }
        total += n as u64;
    }
    if let Err(e) = conn.close() {
        return fail("close failed to flush", &e);
    }
    eprintln!("udtcat: sent {total} bytes");
    ExitCode::SUCCESS
}

/// Accept a bonded session of `n_paths` and stream it to stdout.
fn listen_bonded(addr: SocketAddr, n_paths: usize, cfg: UdtConfig) -> ExitCode {
    let listener = match UdtListener::bind(addr, cfg) {
        Ok(l) => std::sync::Arc::new(l),
        Err(e) => return fail("bind failed", &e),
    };
    eprintln!(
        "udtcat: listening on {} for a {n_paths}-path bonded session",
        listener.local_addr()
    );
    let rx = bonded_accept(listener, n_paths, BondedCfg::default());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut buf = vec![0u8; 1 << 16];
    let mut total = 0u64;
    loop {
        match rx.recv_timeout(&mut buf, Duration::from_secs(3600)) {
            Ok(0) => break,
            Ok(n) => {
                if let Err(e) = out.write_all(&buf[..n]) {
                    return fail("stdout write failed", &e);
                }
                total += n as u64;
            }
            Err(e) => return fail("bonded transfer failed mid-stream", &e),
        }
    }
    out.flush().ok();
    let split: Vec<u64> = rx.counters().iter().map(|s| s.chunks_recv).collect();
    eprintln!("udtcat: received {total} bytes over {n_paths} paths (chunk split {split:?})");
    ExitCode::SUCCESS
}

/// Stream stdin across a bonded session striped over `addrs`.
fn connect_bonded(addrs: &[SocketAddr], cfg: &UdtConfig) -> ExitCode {
    let mut tx = match bonded_connect(addrs, cfg, BondedCfg::default()) {
        Ok(tx) => tx,
        Err(e) => return fail("path setup failed", &e),
    };
    eprintln!("udtcat: bonded session up across {} paths: {addrs:?}", addrs.len());
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut buf = vec![0u8; 1 << 16];
    let mut total = 0u64;
    loop {
        let n = match input.read(&mut buf) {
            Ok(n) => n,
            Err(e) => return fail("stdin read failed", &e),
        };
        if n == 0 {
            break;
        }
        if let Err(e) = tx.send(&buf[..n]) {
            return fail("bonded transfer failed mid-stream", &e);
        }
        total += n as u64;
    }
    if let Err(e) = tx.finish(Duration::from_secs(600)) {
        return fail("bonded close failed to flush", &e);
    }
    let split: Vec<u64> = tx.counters().iter().map(|s| s.chunks_sent).collect();
    eprintln!("udtcat: sent {total} bytes over {} paths (chunk split {split:?})", addrs.len());
    ExitCode::SUCCESS
}

fn connect_with_retry(addr: SocketAddr, cfg: &UdtConfig) -> Result<UdtConnection, udt::UdtError> {
    let policy = cfg.retry;
    let mut attempt = 0u32;
    loop {
        match UdtConnection::connect(addr, cfg.clone()) {
            Ok(c) => return Ok(c),
            Err(e) if attempt < policy.max_attempts && udt::resilience::retryable(&e) => {
                attempt += 1;
                let backoff = policy.backoff(attempt, u64::from(addr.port()));
                eprintln!(
                    "udtcat: connect attempt failed ({e}); retry {attempt}/{} in {backoff:?}",
                    policy.max_attempts
                );
                std::thread::sleep(backoff);
            }
            Err(e) => return Err(e),
        }
    }
}
