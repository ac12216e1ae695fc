//! The paper's motivating application (§2.1, Figure 1; §5.3): a
//! window-based streaming join fed by two transport connections with very
//! different RTTs.
//!
//! Machine A (remote, 100 ms RTT) and machine B (local, ~1 ms RTT) stream
//! fixed-size records to machine C, which joins records pairwise in arrival
//! order. The join can only advance at the pace of the *slower* stream, so
//! its throughput is `2 × min(stream rates)` — the effect that cripples the
//! TCP version in the paper (7–17 Mb/s of a Gb/s) and that UDT fixes
//! (600–800 Mb/s). Here both streams run real UDT sockets through
//! `linkemu` paths (rates scaled to 1/5 for a loopback relay).
//!
//! ```sh
//! cargo run --release -p bench --example streaming_join
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkemu::{LinkEmu, LinkSpec};
use udt::{UdtConfig, UdtConnection, UdtListener};

/// One record: a key plus payload (the paper joins on common keys).
const RECORD: usize = 1024;
const RUN: Duration = Duration::from_secs(10);

struct StreamSide {
    emu: LinkEmu,
    records: Arc<AtomicU64>,
    server: std::thread::JoinHandle<()>,
}

/// Start one stream: a source pushing records through an emulated path
/// into a receiving thread that counts whole records.
fn start_stream(rate_bps: f64, one_way: Duration) -> (StreamSide, std::thread::JoinHandle<()>) {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default())
        .expect("bind");
    let emu = LinkEmu::start_symmetric(LinkSpec::clean(rate_bps, one_way), listener.local_addr())
        .expect("emu");
    let records = Arc::new(AtomicU64::new(0));
    let records2 = Arc::clone(&records);
    let server = std::thread::spawn(move || {
        let conn = listener.accept().expect("accept");
        let mut buf = vec![0u8; RECORD];
        while conn.recv_exact(&mut buf).is_ok() {
            records2.fetch_add(1, Ordering::Relaxed);
        }
    });
    let client_addr = emu.client_addr();
    let source = std::thread::spawn(move || {
        let conn = UdtConnection::connect(client_addr, UdtConfig::default()).expect("connect");
        let record = vec![0xABu8; RECORD];
        let t0 = Instant::now();
        while t0.elapsed() < RUN {
            conn.send(&record).expect("send");
        }
        let _ = conn.close();
    });
    (
        StreamSide {
            emu,
            records,
            server,
        },
        source,
    )
}

fn main() {
    println!("streaming join: A (200 Mb/s, 100 ms RTT) ⋈ B (200 Mb/s, 1 ms RTT) → C");
    let (a, src_a) = start_stream(200e6, Duration::from_millis(50));
    let (b, src_b) = start_stream(200e6, Duration::from_micros(500));

    // The join driver: every 500 ms, the number of joined tuples is the
    // minimum of the two arrival counts (a window-based join consumes one
    // record from each side per output tuple).
    let t0 = Instant::now();
    let mut last_joined = 0u64;
    while t0.elapsed() < RUN {
        std::thread::sleep(Duration::from_millis(500));
        let ra = a.records.load(Ordering::Relaxed);
        let rb = b.records.load(Ordering::Relaxed);
        let joined = ra.min(rb);
        let join_rate = (joined - last_joined) as f64 * 2.0 * RECORD as f64 * 8.0 / 0.5;
        println!(
            "t={:>4.1}s  A: {:>7} rec  B: {:>7} rec  join throughput ≈ {:>6.1} Mb/s",
            t0.elapsed().as_secs_f64(),
            ra,
            rb,
            join_rate / 1e6
        );
        last_joined = joined;
    }

    src_a.join().expect("source A");
    src_b.join().expect("source B");
    a.server.join().expect("server A");
    b.server.join().expect("server B");

    let ra = a.records.load(Ordering::Relaxed);
    let rb = b.records.load(Ordering::Relaxed);
    let joined = ra.min(rb);
    let total_join_bps = joined as f64 * 2.0 * RECORD as f64 * 8.0 / RUN.as_secs_f64();
    println!(
        "\nfinal: A delivered {ra} records, B delivered {rb}; join moved {:.1} Mb/s of a 400 Mb/s ceiling",
        total_join_bps / 1e6
    );
    println!(
        "the long-RTT stream kept pace with the short one (ratio {:.2}) — the paper's §2.1 failure mode does not appear under UDT",
        ra.min(rb) as f64 / ra.max(rb).max(1) as f64
    );
    // close() returned after the first Shutdown copy; let the spaced
    // rest cross the emulated link before it and the process go away.
    udt::drain_closing(Duration::from_secs(1));
    a.emu.shutdown();
    b.emu.shutdown();
}
