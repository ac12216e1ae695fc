//! Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
//! at the repository root lists the same names; a unit test keeps the
//! two in step.

/// End-to-end metrics, reported by an untraced run (`--trace 0`) of every
/// workload. What an "operation" is depends on the workload (see
/// `NOTES.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("goodput_mbps", "Mb/s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("lat_p50_us", "us"),
    ("lat_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`) of every
/// workload. A layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // socket: listener and accept queue.
    ("socket.accept_wait_us.p50", "us"),
    ("socket.cookies_sent", "count"),
    ("socket.established", "count"),
    ("socket.rate_limited", "count"),
    ("socket.backlog_drops", "count"),
    // conn: spans around the public calls.
    ("conn.connect_us.p50", "us"),
    ("conn.connect_us.p99", "us"),
    ("conn.send_us.p50", "us"),
    ("conn.send_us.p99", "us"),
    ("conn.recv_us.p50", "us"),
    ("conn.recv_us.p99", "us"),
    ("conn.close_us.p50", "us"),
    ("conn.close_us.p99", "us"),
    ("conn.connect_calls", "count"),
    ("conn.send_calls", "count"),
    ("conn.recv_calls", "count"),
    ("conn.close_calls", "count"),
    // conn: ConnStats, summed over both endpoints of every connection.
    ("conn.retx_ratio", "ratio"),
    ("conn.pkts_duplicate", "count"),
    ("conn.acks_per_mb", "1/MB"),
    ("conn.naks_sent", "count"),
    ("conn.loss_events", "count"),
    ("conn.exp_timeouts", "count"),
    ("conn.pkts_rejected", "count"),
    // instrument: the paper's Table 3 categories, ns per data packet.
    ("instrument.udp_send", "ns/pkt"),
    ("instrument.udp_recv", "ns/pkt"),
    ("instrument.timing", "ns/pkt"),
    ("instrument.packing", "ns/pkt"),
    ("instrument.unpacking", "ns/pkt"),
    ("instrument.control", "ns/pkt"),
    ("instrument.loss", "ns/pkt"),
    ("instrument.app", "ns/pkt"),
    ("instrument.measurement", "ns/pkt"),
    ("instrument.coverage", "ratio"),
    // mux: registry udt_mux_* and the batch counter family.
    ("mux.recv_batch_pkts.mean", "pkts"),
    ("mux.send_batch_pkts.mean", "pkts"),
    ("mux.pool_hit_ratio", "ratio"),
    ("mux.pool_sweep_ns.p50", "ns"),
    ("mux.batched", "flag"),
    // obs: registry udt_conn_* histograms.
    ("obs.rtt_us.p50", "us"),
    ("obs.ack_delivery_us.p50", "us"),
    ("obs.ack_delivery_us.p99", "us"),
    ("obs.queue_depth_pkts.p99", "pkts"),
    ("obs.rcv_batch_pkts.mean", "pkts"),
    // netsim and the udt-algo agents.
    ("netsim.run_until_ns_per_pkt", "ns"),
    ("netsim.link_tx_pkts", "count"),
    ("netsim.bottleneck_drops", "count"),
    ("netsim.random_drops", "count"),
    ("netsim.max_queue_pkts", "pkts"),
    ("algo.sent_retx", "count"),
    ("algo.duplicate_pkts", "count"),
    ("algo.loss_events", "count"),
    // proc: the whole process.
    ("proc.threads.peak", "count"),
    ("proc.cpu_s", "s"),
    ("host.nproc", "count"),
    // Span self time per span name over the traced window, and the share
    // of operation wall time the program's calls cover.
    ("span.op.self_ms", "ms"),
    ("span.serve.self_ms", "ms"),
    ("span.socket.accept.self_ms", "ms"),
    ("span.conn.connect.self_ms", "ms"),
    ("span.conn.send.self_ms", "ms"),
    ("span.conn.recv.self_ms", "ms"),
    ("span.conn.close.self_ms", "ms"),
    ("span.netsim.run_until.self_ms", "ms"),
    ("span.op.child_share", "ratio"),
    // Tracing overhead: traced / untraced - 1, per end-to-end metric.
    ("overhead.goodput_mbps", "ratio"),
    ("overhead.ops_per_s", "ratio"),
    ("overhead.cpu_us_per_op", "ratio"),
    ("overhead.lat_p50_us", "ratio"),
    ("overhead.lat_tail_us", "ratio"),
    ("overhead.setup_s", "ratio"),
    ("overhead.peak_rss_mb", "ratio"),
];

/// Span names, in the order their self time is reported.
pub const SPAN_NAMES: &[&str] = &[
    "op",
    "serve",
    "socket.accept",
    "conn.connect",
    "conn.send",
    "conn.recv",
    "conn.close",
    "netsim.run_until",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(name: &str) -> Option<&'static str> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert!(all.iter().all(|n| valid_name(n)));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
        for s in SPAN_NAMES {
            assert!(unit(&format!("span.{s}.self_ms")).is_some(), "{s}");
        }
        for (e, _) in END_TO_END {
            assert!(unit(&format!("overhead.{e}")).is_some(), "{e}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
