//! Quickstart: a UDT client/server pair over loopback.
//!
//! Starts a listener, connects, streams 50 MB, prints the achieved
//! throughput and the connection statistics, and demonstrates that
//! delivery is byte-exact and in order.
//!
//! ```sh
//! cargo run --release -p bench --example quickstart
//! ```

// Example code: sizes fit comfortably in the cast-to types.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::time::{Duration, Instant};

use udt::{UdtConfig, UdtConnection, UdtListener};

const TOTAL: usize = 50_000_000;

fn main() {
    // 1. Server: bind a listener on an ephemeral UDP port.
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default())
        .expect("bind listener");
    let addr = listener.local_addr();
    println!("listening on {addr}");

    // 2. Server thread: accept one connection and checksum what arrives.
    let server = std::thread::spawn(move || {
        let conn = listener.accept().expect("accept");
        println!("accepted connection from {}", conn.peer_addr());
        let mut buf = vec![0u8; 1 << 16];
        let mut received = 0u64;
        let mut checksum = 0u64;
        loop {
            let n = conn.recv(&mut buf).expect("recv");
            if n == 0 {
                break; // peer closed after flushing: end of stream
            }
            received += n as u64;
            for &b in &buf[..n] {
                checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(b));
            }
        }
        (received, checksum)
    });

    // 3. Client: connect and stream patterned data.
    let conn = UdtConnection::connect(addr, UdtConfig::default()).expect("connect");
    println!("connected from {}", conn.local_addr());
    let mut checksum = 0u64;
    let chunk: Vec<u8> = (0..65_536).map(|i| (i % 251) as u8).collect();
    let t0 = Instant::now();
    let mut sent = 0usize;
    while sent < TOTAL {
        let n = (TOTAL - sent).min(chunk.len());
        conn.send(&chunk[..n]).expect("send");
        for &b in &chunk[..n] {
            checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(b));
        }
        sent += n;
    }
    conn.close().expect("close");
    let secs = t0.elapsed().as_secs_f64();

    let (received, server_checksum) = server.join().expect("server");
    println!(
        "transferred {} MB in {:.2}s = {:.1} Mb/s",
        TOTAL / 1_000_000,
        secs,
        TOTAL as f64 * 8.0 / secs / 1e6
    );
    assert_eq!(received as usize, TOTAL, "byte count mismatch");
    assert_eq!(checksum, server_checksum, "order/content mismatch");
    println!("integrity check: OK (rolling checksums match)");

    let stats = conn.stats();
    println!(
        "stats: {} data pkts sent, {} retransmitted, {} ACKs received, {} NAKs received",
        udt::ConnStats::get(&stats.pkts_sent),
        udt::ConnStats::get(&stats.pkts_retransmitted),
        udt::ConnStats::get(&stats.acks_received),
        udt::ConnStats::get(&stats.naks_received),
    );

    // close() returned after the first Shutdown copy; let the spaced
    // rest reach the peer before the process exits.
    udt::drain_closing(Duration::from_secs(1));
}
