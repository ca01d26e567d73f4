//! Hot-path throughput benchmark: runs the dense relay swarm and writes
//! `BENCH_hotpath.json`.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin hotpath            # dense (280 nodes)
//! cargo run --release -p dapes-bench --bin hotpath -- --quick # CI smoke
//! cargo run ... -- --out path/to/BENCH_hotpath.json
//! cargo run ... -- --prom-out BENCH_hotpath.prom   # Prometheus dump
//! ```
//!
//! Every invocation runs the scenario twice and exits 1 unless both runs
//! give the same trace (events, frames, deliveries) and, for the unmodified
//! `--quick` or dense preset, the trace pinned for it — so behaviour drift
//! fails even when it is deterministic.

use dapes_bench::hotpath::{render_report, run_hotpath, HotpathParams};
use dapes_bench::perf::check_traces;
use dapes_core::stats::PeerStats;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_hotpath.json".to_owned());
    let mut params = if quick {
        HotpathParams::smoke()
    } else {
        HotpathParams::dense()
    };
    // Optional overrides for exploring the parameter space.
    let arg = |flag: &str| args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone());
    if let Some(n) = arg("--nodes") {
        params.nodes = n.parse().expect("--nodes");
    }
    if let Some(f) = arg("--field") {
        params.field = f.parse().expect("--field");
    }
    if let Some(p) = arg("--period-ms") {
        params.beacon_period_ms = p.parse().expect("--period-ms");
    }
    if let Some(b) = arg("--beacons") {
        params.beacons = b.parse().expect("--beacons");
    }
    if let Some(r) = arg("--relay-prob") {
        params.relay_prob = r.parse().expect("--relay-prob");
    }
    if let Some(p) = arg("--payload") {
        params.payload_bytes = p.parse().expect("--payload");
    }
    eprintln!(
        "perf_hotpath: {} nodes, {} beacons each, field {} m, range {} m",
        params.nodes, params.beacons, params.field, params.range
    );

    // Warm up at small scale so no timed run pays first-touch costs, then
    // keep the best of two timed repetitions (which double as the
    // determinism check).
    let warmup = HotpathParams {
        nodes: params.nodes.min(40),
        beacons: 2,
        ..params
    };
    let _ = run_hotpath(&warmup);
    let runs = [run_hotpath(&params), run_hotpath(&params)];
    let traces: Vec<_> = runs.iter().map(|r| r.trace()).collect();
    let verdict = check_traces(&traces, params.pinned_trace());
    let [a, b] = runs;
    let best = if a.wall_secs <= b.wall_secs { a } else { b };
    eprintln!(
        "  {:>8.0} events/s  ({:.2} s wall, {} events, {} frames, {} deliveries)",
        best.events_per_sec, best.wall_secs, best.events, best.tx_frames, best.delivered
    );

    let deterministic = traces.windows(2).all(|w| w[0] == w[1]);
    let json = render_report(&params, &best, deterministic);
    std::fs::write(&out, json).expect("write BENCH_hotpath.json");
    eprintln!("wrote {out}");
    if let Some(path) = arg("--prom-out") {
        // The relay swarm runs bench stacks, not DAPES peers, so the peer
        // section reports zeros.
        let dump = dapes_bench::prom::export(&best.stats, &PeerStats::default());
        std::fs::write(&path, dump).expect("write prometheus dump");
        eprintln!("wrote {path}");
    }

    if let Err(msg) = verdict {
        eprintln!("TRACE GATE: {msg}");
        std::process::exit(1);
    }
}
