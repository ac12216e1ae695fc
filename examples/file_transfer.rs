//! File transfer over an emulated wide-area path — the paper's
//! `sendfile`/`recvfile` API (§4.7, Table 2).
//!
//! Creates a 30 MB file, pushes it through a `linkemu`-emulated
//! 120 Mb/s / 32 ms RTT path (the paper's Chicago→Ottawa shape, scaled),
//! receives it straight to disk on the other side, and verifies the copy
//! byte-for-byte.
//!
//! ```sh
//! cargo run --release -p bench --example file_transfer
//! ```

// Example code: sizes fit comfortably in the cast-to types.
#![allow(clippy::cast_possible_truncation)]

use std::io::Write;
use std::time::{Duration, Instant};

use linkemu::{LinkEmu, LinkSpec};
use udt::{UdtConfig, UdtConnection, UdtListener};

const FILE_BYTES: u64 = 30_000_000;

fn main() {
    let dir = std::env::temp_dir().join(format!("udt-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let src = dir.join("payload.bin");
    let dst = dir.join("received.bin");

    // Patterned source file.
    {
        let mut f = std::fs::File::create(&src).expect("create src");
        let block: Vec<u8> = (0..65_536u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let mut left = FILE_BYTES as usize;
        while left > 0 {
            let n = left.min(block.len());
            f.write_all(&block[..n]).expect("write");
            left -= n;
        }
    }
    println!("created {} MB source file", FILE_BYTES / 1_000_000);

    // Server + emulated WAN in front of it.
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default())
        .expect("bind");
    let emu = LinkEmu::start_symmetric(
        LinkSpec::clean(120e6, Duration::from_millis(16)),
        listener.local_addr(),
    )
    .expect("linkemu");
    println!("emulated path: 120 Mb/s, 32 ms RTT (Chicago→Ottawa shape, ×1/5 rate)");

    let dst2 = dst.clone();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().expect("accept");
        conn.recvfile(&dst2, FILE_BYTES).expect("recvfile")
    });

    let conn = UdtConnection::connect(emu.client_addr(), UdtConfig::default()).expect("connect");
    let t0 = Instant::now();
    let sent = conn.sendfile(&src, 0, FILE_BYTES).expect("sendfile");
    conn.close().expect("close");
    let written = server.join().expect("server");
    let secs = t0.elapsed().as_secs_f64();

    println!(
        "disk→network→disk: {} MB in {:.2}s = {:.1} Mb/s",
        sent / 1_000_000,
        secs,
        sent as f64 * 8.0 / secs / 1e6
    );
    assert_eq!(sent, FILE_BYTES);
    assert_eq!(written, FILE_BYTES);
    let a = std::fs::read(&src).expect("read src");
    let b = std::fs::read(&dst).expect("read dst");
    assert_eq!(a, b, "file copies differ");
    println!("integrity check: OK (files are byte-identical)");
    let _ = std::fs::remove_dir_all(&dir);
    // close() returned after the first Shutdown copy; let the spaced
    // rest cross the emulated link before it and the process go away.
    udt::drain_closing(Duration::from_secs(1));
    emu.shutdown();
}
