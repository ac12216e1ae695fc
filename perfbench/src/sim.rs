//! The `sim` workload: a netsim dumbbell with a few UDT flows and seeded
//! random loss at the bottleneck, run single-threaded in slices of
//! simulated time. No sockets, threads or wall clock inside the model.

use std::time::{Duration, Instant};

use netsim::agents::udt::{attach_udt_flow, UdtReceiver, UdtSender, UdtSenderCfg};
use netsim::{dumbbell, paper_queue_cap, AgentId, DumbbellCfg, FlowId, LinkId, Simulator};
use perfbench::payload::draw;
use perfbench::procfs;
use perfbench::spans::SpanLog;
use perfbench::stats::Windows;
use udt_algo::Nanos;
use udt_proto::{SeqNo, SEQ_MAX};

use crate::{ns_since, repeat_setup, Phase, SETUPS, WINDOW};

const FLOWS: usize = 4;
const RATE_BPS: f64 = 1e9;
/// Bottleneck one-way delay: about 100 ms round trip.
const ONE_WAY_MS: u64 = 50;
/// Random loss probability at the bottleneck.
const LOSS: f64 = 2e-4;
/// Simulated length of one complete run.
const RUN_SIM_S: u64 = 30;
/// Simulated time advanced per `run_until` call.
const SLICE_MS: u64 = 20;
const SLICES: u64 = RUN_SIM_S * 1000 / SLICE_MS;
/// Seed stream of the model's random choices.
const SIM_STREAM: u64 = 20;

struct Model {
    sim: Simulator,
    flows: Vec<FlowId>,
    senders: Vec<AgentId>,
    receivers: Vec<AgentId>,
    bottleneck: LinkId,
}

/// Build the dumbbell. The seed picks the loss pattern, each flow's
/// initial sequence number and its start time within the first 100 ms.
fn build(seed: u64) -> Model {
    let rtt = Nanos::from_millis(2 * ONE_WAY_MS);
    let mut d = dumbbell(DumbbellCfg {
        flows: FLOWS,
        rate_bps: RATE_BPS,
        one_way_delay: Nanos::from_millis(ONE_WAY_MS),
        queue_cap: paper_queue_cap(RATE_BPS, rtt, 1500),
    });
    d.sim
        .link_mut(d.bottleneck)
        .set_random_loss(LOSS, draw(seed, SIM_STREAM, 0));
    let (mut flows, mut senders, mut receivers) = (Vec::new(), Vec::new(), Vec::new());
    for f in 0..FLOWS {
        let flow = d.sim.add_flow();
        let mut cfg = UdtSenderCfg::bulk(d.sinks[f], flow);
        let r = draw(seed, SIM_STREAM, 1 + f as u64);
        cfg.init_seq = SeqNo::new(u32::try_from(r % u64::from(SEQ_MAX)).expect("below SEQ_MAX"));
        cfg.start_at = Nanos::from_micros((r >> 32) % 100_000);
        let (s, rcv) = attach_udt_flow(&mut d.sim, d.sources[f], d.sinks[f], cfg);
        flows.push(flow);
        senders.push(s);
        receivers.push(rcv);
    }
    Model {
        sim: d.sim,
        flows,
        senders,
        receivers,
        bottleneck: d.bottleneck,
    }
}

/// Model state compared between runs of one seed at every slice.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    delivered: [u64; FLOWS],
    link_tx: u64,
    drops: u64,
    random_drops: u64,
    losses: u64,
}

fn fingerprint(m: &Model) -> Fingerprint {
    let mut delivered = [0u64; FLOWS];
    for (d, f) in delivered.iter_mut().zip(&m.flows) {
        *d = m.sim.delivered(*f);
    }
    let (mut link_tx, mut drops) = (0, 0);
    for l in 0..m.sim.link_count() {
        let s = &m.sim.link(LinkId(l)).stats;
        link_tx += s.tx_pkts;
        drops += s.drops;
    }
    let losses = m
        .receivers
        .iter()
        .map(|r| m.sim.agent_as::<UdtReceiver>(*r).loss_events().len() as u64)
        .sum();
    Fingerprint {
        delivered,
        link_tx,
        drops,
        random_drops: m.sim.link(m.bottleneck).stats.random_drops,
        losses,
    }
}

/// Run the model slice by slice for `seconds` of wall time, rebuilding it
/// after each complete run. The first run is the reference every later
/// run must match at every slice.
pub fn run(seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Phase {
    let mut p = Phase::new(Duration::from_secs(10));
    let mut log = SpanLog::new(epoch, 1, traced);
    let (first, setup_s) =
        repeat_setup(SETUPS, || Ok(build(seed))).expect("building a model cannot fail");
    p.setup_s = setup_s;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cpu0 = procfs::cpu_seconds();
    let mut win = Windows::new(ns_since(epoch), WINDOW, cpu0);
    let mut reference: Vec<Fingerprint> = Vec::with_capacity(SLICES as usize);
    let mut model = Some(first);
    let (mut wall, mut link_tx, mut runs, mut compared) = (0.0f64, 0u64, 0u64, 0u64);
    let mut mismatched_flows = 0u64;
    'runs: for run in 0u64.. {
        let mut m = model.take().unwrap_or_else(|| build(seed));
        runs += 1;
        let (mut prev_tx, mut prev_delivered) = (0, 0);
        for k in 1..=SLICES {
            if Instant::now() >= deadline {
                break 'runs;
            }
            let trace = run * SLICES + k;
            let op = log.open("op", trace, 0);
            let t = Instant::now();
            log.time("netsim.run_until", trace, op.id, || {
                m.sim.run_until(Nanos::from_millis(k * SLICE_MS));
            });
            let el = t.elapsed();
            log.close(op);
            wall += el.as_secs_f64();
            let lat = p.lat.record(true, el);
            let fp = fingerprint(&m);
            let d: u64 = fp.delivered.iter().sum();
            let (tx_now, d_now) = (fp.link_tx - prev_tx, d - prev_delivered);
            link_tx += tx_now;
            win.add(
                ns_since(epoch),
                tx_now as f64,
                d_now as f64,
                Some(lat),
                procfs::cpu_seconds,
            );
            prev_tx = fp.link_tx;
            prev_delivered = d;
            if run == 0 {
                reference.push(fp);
            } else {
                compared += 1;
                let want = &reference[(k - 1) as usize];
                if *want != fp && mismatched_flows == 0 {
                    mismatched_flows = want
                        .delivered
                        .iter()
                        .zip(fp.delivered)
                        .filter(|(a, b)| **a != *b)
                        .count()
                        .max(1) as u64;
                    p.errors.push(format!(
                        "sim run {run} diverged from run 0 at {} ms: {fp:?} vs {want:?}",
                        k * SLICE_MS
                    ));
                }
            }
        }
        if run == 0 && traced {
            sim_layers(&m, &mut p);
        }
    }
    p.cpu_s = procfs::cpu_seconds() - cpu0;
    p.wall_s = wall;
    p.windows = win.finish();
    p.attempted = runs * FLOWS as u64;
    p.failed = mismatched_flows;
    if let Some(last) = reference.last() {
        let full = reference.len() as u64 == SLICES;
        let per_run: u64 = last.delivered.iter().sum();
        p.notes.push(format!(
            "sim: {runs} runs started ({} s simulated each, {FLOWS} flows, {} Gb/s, {} ms RTT, loss {LOSS}); \
             run 0 {}: delivered {per_run} B, {} drops, {} random drops, {} loss events; {compared} slices compared with run 0",
            RUN_SIM_S,
            RATE_BPS / 1e9,
            2 * ONE_WAY_MS,
            if full { "complete" } else { "cut short" },
            last.drops,
            last.random_drops,
            last.losses
        ));
    }
    if compared == 0 {
        p.errors.push(
            "sim: no second run reached, so determinism was not checked; give it more --seconds"
                .to_string(),
        );
    }
    if traced {
        p.layers.put(
            "netsim.run_until_ns_per_pkt",
            wall * 1e9 / link_tx.max(1) as f64,
            "ns",
        );
        p.layers
            .put("proc.threads.peak", procfs::threads() as f64, "count");
    }
    p.spans = log.into_spans();
    p
}

/// Per-layer counts of one complete run (run 0).
fn sim_layers(m: &Model, p: &mut Phase) {
    let fp = fingerprint(m);
    let bn = &m.sim.link(m.bottleneck).stats;
    p.layers
        .put("netsim.link_tx_pkts", fp.link_tx as f64, "count");
    p.layers
        .put("netsim.bottleneck_drops", bn.drops as f64, "count");
    p.layers
        .put("netsim.random_drops", bn.random_drops as f64, "count");
    p.layers
        .put("netsim.max_queue_pkts", bn.max_queue as f64, "pkts");
    let retx: u64 = m
        .senders
        .iter()
        .map(|s| m.sim.agent_as::<UdtSender>(*s).sent_retx())
        .sum();
    let dup: u64 = m
        .receivers
        .iter()
        .map(|r| m.sim.agent_as::<UdtReceiver>(*r).duplicate_pkts())
        .sum();
    p.layers.put("algo.sent_retx", retx as f64, "count");
    p.layers.put("algo.duplicate_pkts", dup as f64, "count");
    p.layers.put("algo.loss_events", fp.losses as f64, "count");
}
