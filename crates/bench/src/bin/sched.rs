//! Scheduler throughput benchmark: runs the timer-heavy advert swarm on
//! one core and along a sharded-engine cores axis, and writes
//! `BENCH_sched.json`.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin sched            # dense (2,400 nodes)
//! cargo run --release -p dapes-bench --bin sched -- --quick # CI smoke
//! cargo run ... -- --out path/to/BENCH_sched.json
//! cargo run ... -- --cores 1,2,4               # sharded-engine cores axis
//! cargo run ... -- --cores-nodes 100000        # scale the cores-axis swarm
//! cargo run ... -- --min-shard-speedup 1.0     # gate the sharded speedup
//! cargo run ... -- --prom-out BENCH_sched.prom # Prometheus dump
//! ```
//!
//! The single-core run repeats (best wall clock wins) and exits 1 unless
//! every repetition gives the same trace (events, frames, deliveries) and,
//! for the unmodified `--quick` or dense preset, the trace pinned for it —
//! so behaviour drift fails even when it is deterministic.
//!
//! The cores axis reruns the swarm on the sharded multi-core engine at
//! each shard count (first entry always `1`, the sequential reference).
//! `--cores-nodes` scales the cores-axis swarm while preserving density
//! (field side grows by the square root of the node ratio).

use dapes_bench::perf::check_traces;
use dapes_bench::sched::{best_of, render_report, run_sched, shard_speedup, SchedParams};
use dapes_core::stats::PeerStats;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_sched.json".to_owned());
    let mut params = if quick {
        SchedParams::smoke()
    } else {
        SchedParams::dense()
    };
    let arg = |flag: &str| args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone());
    if let Some(n) = arg("--nodes") {
        params.nodes = n.parse().expect("--nodes");
    }
    if let Some(f) = arg("--field") {
        params.field = f.parse().expect("--field");
    }
    if let Some(r) = arg("--rounds") {
        params.rounds = r.parse().expect("--rounds");
    }
    if let Some(p) = arg("--period-ms") {
        params.advert_period_ms = p.parse().expect("--period-ms");
    }
    if let Some(t) = arg("--tick-ms") {
        params.tick_ms = t.parse().expect("--tick-ms");
    }
    let cores_list: Vec<usize> = arg("--cores")
        .map(|v| {
            v.split(',')
                .map(|c| c.trim().parse().expect("--cores"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
    assert_eq!(
        cores_list.first(),
        Some(&1),
        "--cores must start at 1 (the sequential reference run)"
    );
    // The cores axis may run at its own (usually much larger) scale: the
    // per-shard active-transmission scans shrink with the shard count, so
    // the sharded engine's gains grow with swarm size at fixed density.
    let mut cores_params = params;
    if let Some(n) = arg("--cores-nodes") {
        let nodes: usize = n.parse().expect("--cores-nodes");
        // Preserve density: scale the field side by sqrt(node ratio).
        cores_params.field = params.field * (nodes as f64 / params.nodes as f64).sqrt();
        cores_params.nodes = nodes;
    }
    if let Some(r) = arg("--cores-rounds") {
        cores_params.rounds = r.parse().expect("--cores-rounds");
    }
    let min_shard_speedup: Option<f64> =
        arg("--min-shard-speedup").map(|v| v.parse().expect("--min-shard-speedup"));
    eprintln!(
        "perf_sched: {} nodes, {} rounds each, field {} m, range {} m, tick {} ms",
        params.nodes, params.rounds, params.field, params.range, params.tick_ms
    );

    // Warm up at small scale so no timed run pays first-touch costs, then
    // keep the best of the timed repetitions (which double as the
    // determinism check).
    let warmup = SchedParams {
        nodes: params.nodes.min(60),
        rounds: 2,
        field: params.field.min(300.0),
        ..params
    };
    let _ = run_sched(&warmup, 1);
    let reps = if quick { 2 } else { 3 };
    let runs: Vec<_> = (0..reps).map(|_| run_sched(&params, 1)).collect();
    let traces: Vec<_> = runs.iter().map(|r| r.trace()).collect();
    let verdict = check_traces(&traces, params.pinned_trace());
    let deterministic = traces.windows(2).all(|w| w[0] == w[1]);
    let best = best_of(runs);
    eprintln!(
        "  {:>9.0} events/s  ({:.2} s wall, {} popped / {} sim events, {} peeked ({} fib-drop, {} cbp-hit, {} relay-patched) / {} decoded, pool {}h/{}m)",
        best.events_per_sec,
        best.wall_secs,
        best.events,
        best.sim_events,
        best.frames_peek_resolved,
        best.peek_fib_drops,
        best.peek_prefix_hits,
        best.frames_relay_patched,
        best.full_decodes,
        best.cmd_pool_hits,
        best.cmd_pool_misses,
    );

    // The sharded cores axis, on the (possibly scaled) cores-axis scenario.
    eprintln!(
        "perf_sched cores axis: {} nodes, field {:.0} m, cores {:?}",
        cores_params.nodes, cores_params.field, cores_list
    );
    let mut cores_axis = Vec::new();
    for &cores in &cores_list {
        let reps = if cores_params.nodes > 20_000 { 1 } else { reps };
        let r = best_of((0..reps).map(|_| run_sched(&cores_params, cores)).collect());
        eprintln!(
            "  cores {:<3}: {:>9.0} events/s  ({:.2} s wall, {} sim events, {} border-exported / {} injected, {} windows)",
            cores,
            r.events_per_sec,
            r.wall_secs,
            r.sim_events,
            r.border_tx_exported,
            r.border_rx_injected,
            r.sync_windows,
        );
        cores_axis.push(r);
    }
    let shard_speedup = shard_speedup(&cores_axis);
    if cores_axis.len() > 1 {
        eprintln!("  shard speedup: {shard_speedup:.2}x events/s over the sequential run");
    }

    let json = render_report(&params, &best, deterministic, &cores_params, &cores_axis);
    std::fs::write(&out, json).expect("write BENCH_sched.json");
    eprintln!("wrote {out}");
    if let Some(path) = arg("--prom-out") {
        // The deepest sharded run when the axis has one, else the
        // single-core run. The advert swarm runs bench stacks, not DAPES
        // peers, so the peer section reports zeros.
        let r = cores_axis.last().unwrap_or(&best);
        let dump = dapes_bench::prom::export(&r.stats, &PeerStats::default());
        std::fs::write(&path, dump).expect("write prometheus dump");
        eprintln!("wrote {path} ({} cores)", r.cores);
    }

    if let Err(msg) = verdict {
        eprintln!("TRACE GATE: {msg}");
        std::process::exit(1);
    }
    if let Some(min) = min_shard_speedup {
        if shard_speedup < min {
            eprintln!(
                "REGRESSION: shard speedup {shard_speedup:.2}x events/s is below the \
                 required {min:.2}x over the sequential cores-axis run"
            );
            std::process::exit(1);
        }
    }
}
