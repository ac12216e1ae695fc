#!/usr/bin/env bash
# CI gate: build, full test suite, lints, static analysis, model check.
# Run from the repo root.
#
#   ./ci.sh            — the full deterministic gate below
#   ./ci.sh --sanitize — sanitizer battery over the threaded datapath /
#                        pool / chaos test subset: AddressSanitizer,
#                        ThreadSanitizer (instrumented std), and Miri on
#                        the pool/buffer/seqno units. Each leg prints a
#                        visible SKIP when its toolchain prerequisite
#                        (nightly, rust-src, miri) is missing.
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--sanitize" ]]; then
  if ! rustup run nightly rustc --version >/dev/null 2>&1; then
    echo "sanitize: SKIP all (nightly toolchain not installed)"
    exit 0
  fi
  host="$(rustc -vV | sed -n 's/^host: //p')"

  # ASan works against the precompiled std (it changes no ABI): the
  # whole threaded subset runs instrumented.
  echo "sanitize: AddressSanitizer (udt pool/mmsg/mux + udt-chaos)"
  RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/san-asan \
    cargo +nightly test -q -p udt --lib -- pool:: mmsg:: mux::
  RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/san-asan \
    cargo +nightly test -q -p udt-chaos --lib

  # TSan needs every crate (std included) instrumented, or it reports
  # false races inside uninstrumented sync primitives — hence -Zbuild-std,
  # which requires the rust-src component.
  if rustup component list --toolchain nightly --installed 2>/dev/null | grep -q rust-src; then
    echo "sanitize: ThreadSanitizer (udt pool/mmsg/mux + udt-chaos, -Zbuild-std)"
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/san-tsan \
      cargo +nightly test -q -Zbuild-std --target "$host" -p udt --lib -- pool:: mmsg:: mux::
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/san-tsan \
      cargo +nightly test -q -Zbuild-std --target "$host" -p udt-chaos --lib
  else
    echo "sanitize: SKIP ThreadSanitizer (rust-src not installed; TSan needs an instrumented std)"
  fi

  # Miri: aliasing/UB check on the allocation-free pool and the wrap
  # arithmetic. The mmsg FFI is cfg(not(miri))-gated, so the udt crate
  # builds clean under the interpreter.
  if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "sanitize: Miri (udt::pool, udt::buffer, udt-proto::seqno)"
    CARGO_TARGET_DIR=target/san-miri \
      cargo +nightly miri test -p udt --lib -- pool:: buffer::
    CARGO_TARGET_DIR=target/san-miri \
      cargo +nightly miri test -p udt-proto --lib -- seqno::
  else
    echo "sanitize: SKIP Miri (miri component not installed for nightly)"
  fi
  echo "sanitize: done"
  exit 0
fi

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Workspace-native static analysis: denies raw sequence-number comparisons,
# wall-clock reads in deterministic layers, unwrap/panic in library code,
# narrowing casts on seq/timestamp values, and lock-order violations.
# Deny-by-default: any unannotated finding fails the build.
cargo run --release -p udt-lint

# Benchmark smoke, churn workload: sequential connect / 64-byte exchange /
# close through the public socket API. Every connection must complete
# (final JSON line: "correct":true, "failed":0); a teardown regression
# that leaves a peer without a clean EOF shows up here as a failed op.
python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0 | tail -n 1 |
  python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print("churn benchmark:", "ok" if ok else "FAILED", r.get("attempted"), "ops,", r.get("failed"), "failed")
sys.exit(0 if ok else 1)'

# Bounded model check: exhaustive DFS over small delivery schedules through
# the real buffer/loss-list code, at initial sequence numbers 0, SEQ_MAX and
# SEQ_MAX-2 (~270k states; violations print a replayable seed).
timeout 120 cargo run --release -p udt-verify -- --quick

# Resilience soak, CI-sized: a real-socket upload through a flapping link
# must reconnect, resume and land byte-identical (time-boxed; the full
# soak is `exp_soak` without --quick).
timeout 120 ./target/release/exp_soak --quick

# Observability gates: a seeded chaos blackout must leave a parseable
# flight-recorder dump with faults and NAK/EXP/Broken reactions on one
# timeline, and enabled tracing must stay within 5% of untraced loopback
# goodput (most-favorable interleaved pair; see exp_trace_overhead docs).
timeout 120 ./target/release/exp_flightrec
timeout 180 ./target/release/exp_trace_overhead --quick

# Multipath bonding, CI-sized: bonded goodput on asymmetric simulated links
# must strictly beat the best single path (and reproduce under the same
# seed), and a seeded linkemu blackout must fail over with zero
# session-level reconnects and less receiver stall than the
# reconnect-resume baseline. Emits BENCH_multipath.json.
timeout 300 ./target/release/exp_multipath --quick

# Authenticated profile, CI-sized: a seeded on-path adversary (forged
# DATA/ACK/Shutdown, replays, tag bit flips) must bounce off an
# authenticated session — byte-identical delivery, every forgery counted —
# and the per-packet SipHash trailer must stay within 10% of untagged
# loopback goodput. Emits BENCH_auth.json.
timeout 300 ./target/release/exp_auth --quick

# Batched datapath, CI-sized: raw pump msgs/s must hit 2x the legacy
# per-packet datapath (gate auto-skips where recvmmsg/sendmmsg are
# unavailable — the fallback *is* the per-packet path), the receive pool
# must recycle (hits > misses), and the exp_tbl3-style UDP-syscall CPU
# share must shrink with batching on. Emits BENCH_datapath.json.
timeout 300 ./target/release/exp_datapath --quick

# Metrics overhead, CI-sized: the udt-obs registry + profiler + scrape
# endpoint must stay within 5% of metrics-off loopback goodput
# (most-favorable interleaved pair, same methodology as
# exp_trace_overhead), and the hub must actually have metered the blast.
timeout 180 ./target/release/exp_metrics_overhead --quick

# Perf-regression gate: compare the BENCH_*.json artifacts the experiment
# legs above just wrote against the committed baselines in
# crates/bench/baselines/ (noise-tolerant, data-driven gate set — see
# bench::regress). Fails CI on a regression beyond tolerance.
./target/release/bench regress --quick

# One release-codegen pass with the runtime invariant hooks compiled in
# (conn/buffer/losslist check_invariants fire on the live data path).
# Kept last: the different RUSTFLAGS rebuild replaces target/release
# binaries, so exp_soak above must run first.
RUSTFLAGS="-C debug-assertions" cargo test --release -q
