//! Connection teardown end to end: the spaced Shutdown copies that follow
//! `close()`, clean EOF when some of them are lost, draining before exit,
//! and bounded threads and ports under sequential connection churn.
//!
//! A small tapping relay sits between client and server; it forwards every
//! datagram both ways and records (and optionally drops) the Shutdown
//! copies the client sends.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use udt::{
    drain_closing, AuthPolicy, PreSharedKey, UdtConfig, UdtConnection, UdtError, UdtListener,
};
use udt_proto::ctrl::type_code;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Length of a plaintext Shutdown datagram (the bare control header).
const SHUTDOWN_LEN: usize = 16;
/// Length of the AUTH trailer tag.
const TAG_LEN: usize = 8;

fn keyed() -> UdtConfig {
    UdtConfig {
        auth: AuthPolicy::Require,
        auth_key: Some(PreSharedKey::from_bytes([0x5a; 16])),
        ..UdtConfig::default()
    }
}

/// One Shutdown copy seen by the tap on its way to the server.
#[derive(Debug, Clone)]
struct Seen {
    at: Instant,
    timestamp_us: u32,
    bytes: Vec<u8>,
    dropped: bool,
}

fn shutdown_stamp(d: &[u8]) -> Option<u32> {
    if d.len() < SHUTDOWN_LEN {
        return None;
    }
    let w0 = u32::from_be_bytes([d[0], d[1], d[2], d[3]]);
    let is_shutdown =
        w0 & 0x8000_0000 != 0 && (w0 >> 16) & 0x7FFF == u32::from(type_code::SHUTDOWN);
    is_shutdown.then(|| u32::from_be_bytes([d[8], d[9], d[10], d[11]]))
}

struct Tap {
    client_side: SocketAddr,
    seen: Arc<Mutex<Vec<Seen>>>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Tap {
    /// Relay to `server`, dropping the first `drop_shutdowns` Shutdown
    /// copies from the client.
    fn start(server: SocketAddr, drop_shutdowns: usize) -> Tap {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap(); // faces the client
        let b = UdpSocket::bind("127.0.0.1:0").unwrap(); // faces the server
        for s in [&a, &b] {
            s.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        }
        let client_side = a.local_addr().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let client: Arc<Mutex<Option<SocketAddr>>> = Arc::new(Mutex::new(None));
        let fwd = {
            let (a, b) = (a.try_clone().unwrap(), b.try_clone().unwrap());
            let (seen, stop, client) = (Arc::clone(&seen), Arc::clone(&stop), Arc::clone(&client));
            std::thread::spawn(move || {
                let mut buf = [0u8; 65_536];
                while !stop.load(Ordering::Relaxed) {
                    let Ok((n, from)) = a.recv_from(&mut buf) else {
                        continue;
                    };
                    *client.lock().unwrap() = Some(from);
                    let d = &buf[..n];
                    if let Some(timestamp_us) = shutdown_stamp(d) {
                        let mut seen = seen.lock().unwrap();
                        let dropped = seen.len() < drop_shutdowns;
                        seen.push(Seen {
                            at: Instant::now(),
                            timestamp_us,
                            bytes: d.to_vec(),
                            dropped,
                        });
                        if dropped {
                            continue;
                        }
                    }
                    let _ = b.send_to(d, server);
                }
            })
        };
        let rev = {
            let (stop, client) = (Arc::clone(&stop), client);
            std::thread::spawn(move || {
                let mut buf = [0u8; 65_536];
                while !stop.load(Ordering::Relaxed) {
                    let Ok(n) = b.recv(&mut buf) else { continue };
                    let to = *client.lock().unwrap();
                    if let Some(to) = to {
                        let _ = a.send_to(&buf[..n], to);
                    }
                }
            })
        };
        Tap {
            client_side,
            seen,
            stop,
            threads: vec![fwd, rev],
        }
    }

    /// The Shutdown copies seen so far, once `want` have arrived (or after
    /// a generous bound) plus a quiet period that would expose extras.
    fn shutdowns(&self, want: usize) -> Vec<Seen> {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.seen.lock().unwrap().len() < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(60));
        self.seen.lock().unwrap().clone()
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Close a client connection through a tap that drops the first
/// `drop_shutdowns` Shutdown copies. Returns the copies the tap saw, the
/// instant `close()` returned, and the server's last `recv` result.
fn close_through_tap(
    cfg: &UdtConfig,
    drop_shutdowns: usize,
) -> (Vec<Seen>, Instant, Result<usize, UdtError>) {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let tap = Tap::start(listener.local_addr(), drop_shutdowns);
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let mut buf = [0u8; 4096];
        let mut got = 0;
        let last = loop {
            match conn.recv(&mut buf) {
                Ok(0) => break Ok(0),
                Ok(n) => got += n,
                Err(e) => break Err(e),
            }
        };
        assert_eq!(got, 3000);
        last
    });
    let conn = UdtConnection::connect(tap.client_side, cfg.clone()).unwrap();
    conn.send(&[7u8; 3000]).unwrap();
    conn.close().unwrap();
    let returned = Instant::now();
    let last = server.join().unwrap();
    let seen = tap.shutdowns(3);
    (seen, returned, last)
}

#[test]
fn close_puts_three_spaced_shutdowns_on_the_wire() {
    let _s = serial();
    for (cfg, tag) in [(UdtConfig::default(), 0), (keyed(), TAG_LEN)] {
        let (seen, returned, last) = close_through_tap(&cfg, 0);
        assert!(
            matches!(last, Ok(0)),
            "server must see a clean EOF: {last:?}"
        );
        assert_eq!(seen.len(), 3, "exactly three Shutdown copies: {seen:?}");
        for s in &seen {
            assert_eq!(
                s.bytes.len(),
                SHUTDOWN_LEN + tag,
                "AUTH trailer on every copy"
            );
        }
        if tag > 0 {
            // Fresh timestamps, so fresh tags: no copy is a replay of another.
            assert_ne!(seen[0].bytes, seen[1].bytes);
            assert_ne!(seen[1].bytes, seen[2].bytes);
        }
        for w in seen.windows(2) {
            // The sender's spacing, exactly, from the header timestamps ...
            let gap_us = w[1].timestamp_us.wrapping_sub(w[0].timestamp_us);
            assert!(gap_us >= 15_000, "copies sent {gap_us} us apart");
            // ... and as the tap saw it, allowing for relay jitter.
            let gap = w[1].at.duration_since(w[0].at);
            assert!(
                gap >= Duration::from_millis(10),
                "copies arrived {gap:?} apart"
            );
        }
        assert!(
            returned < seen[1].at,
            "close() must return before the second copy goes out"
        );
    }
}

#[test]
fn peer_sees_clean_eof_when_the_first_two_shutdowns_are_lost() {
    let _s = serial();
    for cfg in [UdtConfig::default(), keyed()] {
        let (seen, _, last) = close_through_tap(&cfg, 2);
        assert_eq!(seen.len(), 3, "{seen:?}");
        assert!(seen[0].dropped && seen[1].dropped && !seen[2].dropped);
        // Only the linger worker's last copy got through; with AUTH on it
        // must have carried a valid tag, or the server would have dropped it.
        assert!(matches!(last, Ok(0)), "expected a clean EOF, got {last:?}");
    }
}

/// Names of this process's `udt-*` threads (protocol, demux, listener
/// and linger threads), read from `/proc/self/task`. Counting by name
/// keeps the test harness's own threads out of the comparison.
fn udt_threads() -> Vec<String> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut names: Vec<String> = dir
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| s.starts_with("udt-"))
        .collect();
    names.sort();
    names
}

#[test]
fn churn_leaves_no_threads_or_ports_behind() {
    let _s = serial();
    const ROUNDS: usize = 200;
    let before: Vec<String> = udt_threads()
        .into_iter()
        .filter(|n| n != "udt-linger")
        .collect();
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        for _ in 0..ROUNDS {
            let conn = listener.accept().unwrap();
            let mut m = [0u8; 64];
            conn.recv_exact(&mut m).unwrap();
            conn.send(&m).unwrap();
            assert_eq!(conn.recv(&mut m).unwrap(), 0);
            conn.close().unwrap();
        }
        listener
    });
    let mut ports = Vec::with_capacity(ROUNDS);
    let mut close_times = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
        ports.push(conn.local_addr().port());
        let msg = [i.to_le_bytes()[0]; 64];
        conn.send(&msg).unwrap();
        let mut reply = [0u8; 64];
        conn.recv_exact(&mut reply).unwrap();
        assert_eq!(reply, msg);
        let t0 = Instant::now();
        conn.close().unwrap();
        close_times.push(t0.elapsed());
    }
    // close() waits for the flush (about one ACK interval) but neither
    // sleeps between Shutdown copies nor waits out a demux read timeout.
    close_times.sort_unstable();
    let median = close_times[ROUNDS / 2];
    assert!(
        median < Duration::from_millis(50),
        "median close() took {median:?}"
    );
    let listener = server.join().unwrap();
    assert!(
        drain_closing(Duration::from_secs(5)),
        "linger queue did not drain"
    );
    // Nothing is in flight to the listener any more. Restart its demux's
    // read timeout with a stray datagram, so a drop that waited it out
    // would take most of the 100 ms.
    let stray = UdpSocket::bind("127.0.0.1:0").unwrap();
    stray.send_to(b"stray", addr).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let t0 = Instant::now();
    drop(listener);
    let drop_time = t0.elapsed();
    assert!(
        drop_time < Duration::from_millis(60),
        "listener drop took {drop_time:?}: it waited out the demux read timeout"
    );

    let after = udt_threads();
    let linger = after.iter().filter(|n| *n == "udt-linger").count();
    let rest: Vec<String> = after.into_iter().filter(|n| n != "udt-linger").collect();
    assert!(linger <= 1, "one shared linger worker at most");
    assert_eq!(
        rest, before,
        "protocol, demux and listener threads all gone"
    );
    for port in ports {
        UdpSocket::bind(("0.0.0.0", port))
            .unwrap_or_else(|e| panic!("client port {port} still held after close: {e}"));
    }
}
