//! Runs one benchmark workload and prints its metrics.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_swarm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run simulates a batch of scenarios (seeds `seed + i·7919`, as the
//! figure harness seeds its trials), sized from `--seconds` by the
//! workload's per-scenario cost on the reference host, so the batch — and
//! every simulated metric — depends only on the arguments. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs half the batch both
//! plain and wrapped, checks the two agree bit for bit, and prints the
//! per-layer split. The last stdout line is the JSON result.

use dapes_core::prelude::kinds;
use dapes_netsim::prelude::{FrameKind, Stats};
use dapes_perfbench::replay::{replay, ReplayCosts};
use dapes_perfbench::trace::{self, Callback, CountingAlloc, Layer, Ledger};
use dapes_perfbench::{build, run, LoopTiming, Outcome, SimMetrics, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Seed stride between a batch's scenarios.
const SEED_STRIDE: u64 = 7_919;

/// Slack of the layer-sum check: the layers may miss the loop's wall time
/// by at most this share of it plus [`LAYER_SUM_SLACK_ABS_S`].
const LAYER_SUM_SLACK_FRAC: f64 = 0.01;
const LAYER_SUM_SLACK_ABS_S: f64 = 0.001;

/// Scenarios per second of `--seconds`: 34 and 40 at 50 s, which take
/// 52–70 s and 38–54 s on the reference host (2 cores), whose speed drifts
/// by up to 30 % over minutes. A single seed moves the simulated outcome by
/// 10–40 %, so `paper_swarm` needs that many seeds to keep its simulated
/// metrics steady from run to run.
fn scenarios_per_s(workload: Workload) -> f64 {
    match workload {
        Workload::PaperSwarm => 0.68,
        Workload::PaperBithoc => 0.8,
    }
}

/// Largest `--seconds` accepted; it sizes the batch, so it is bounded.
const MAX_SECONDS: f64 = 3_600.0;

/// Times each untraced scenario is built; `setup_s` is the median of all
/// builds, since one build of a small world takes only tens of microseconds.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= MAX_SECONDS)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(Workload::DEFAULT_SEED),
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Starts a fresh `VmHWM` measurement: returns the heap's free pages to the
/// kernel, so the previous scenario's memory is not still resident, then
/// resets the peak to the current resident set. Returns whether the reset
/// took effect (it needs Linux with glibc and a writable `clear_refs`).
fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `malloc_trim` takes no pointers and only releases memory
        // glibc holds free; it is safe to call at any time in a
        // single-threaded program.
        unsafe { malloc_trim(0) };
        // Writing 5 resets this process's own peak RSS (proc(5)).
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Metrics in report order: name → (value, unit).
#[derive(Default)]
struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                assert!(v.is_finite(), "metric {n} is not finite: {v}");
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Correctness bookkeeping: downloaders attempted and failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// Counts a scenario's downloaders. A scenario whose repeat differs or
    /// whose peers failed verification fails all its downloaders.
    fn scenario(&mut self, seed: u64, sim: &SimMetrics, repeat: Option<&SimMetrics>) {
        let n = sim.dl_times_s.len() as u64;
        self.attempted += n;
        let mut failed = n - sim.completed as u64;
        if failed > 0 {
            self.problems
                .push(format!("seed {seed}: {failed}/{n} downloaders incomplete"));
        }
        if sim.verify_failures > 0 {
            self.problems.push(format!(
                "seed {seed}: {} verification failures",
                sim.verify_failures
            ));
            failed = n;
        }
        if repeat.is_some_and(|r| r != sim) {
            self.problems
                .push(format!("seed {seed}: repeat simulated different metrics"));
            failed = n;
        }
        self.failed += failed;
    }
}

/// End-to-end metrics of a batch.
fn end_to_end(outcomes: &[Outcome], setups: &[f64], peak_rss_mib: f64, report: &mut Report) {
    let k = outcomes.len() as f64;
    let all: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.sim.dl_times_s.iter().copied())
        .collect();
    let completed: usize = outcomes.iter().map(|o| o.sim.completed).sum();
    let mean = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / k;
    report.add("wall_s", mean(&|o| o.timing.simulate_s), "s");
    report.add("setup_s", median(setups.to_vec()), "s");
    report.add("peak_rss_mib", peak_rss_mib, "MiB");
    report.add(
        "dl_time_mean_s",
        all.iter().sum::<f64>() / all.len() as f64,
        "s",
    );
    report.add("dl_time_p50_s", median(all.clone()), "s");
    // A median: one straggler seed in a batch moves the mean by 20 %.
    report.add(
        "swarm_done_s",
        median(outcomes.iter().map(|o| o.sim.swarm_done_s).collect()),
        "s",
    );
    report.add("tx_frames", mean(&|o| o.sim.tx_frames as f64), "count");
    report.add("tx_bytes", mean(&|o| o.sim.tx_bytes as f64), "B");
    report.add(
        "dl_completed_frac",
        completed as f64 / all.len() as f64,
        "ratio",
    );
    report.add(
        "state_peak_bytes",
        mean(&|o| o.sim.state_peak_bytes as f64),
        "B",
    );
}

/// Totals of the traced scenarios.
#[derive(Default)]
struct TracedTotals {
    timing: LoopTiming,
    plain_simulate_s: f64,
    stats: Stats,
    peer: dapes_perfbench::PeerTotals,
}

fn add_totals(t: &mut TracedTotals, o: &Outcome, plain_simulate_s: f64) {
    t.timing.loop_s += o.timing.loop_s;
    t.timing.simulate_s += o.timing.simulate_s;
    t.timing.poll_s += o.timing.poll_s;
    t.timing.allocs += o.timing.allocs;
    t.plain_simulate_s += plain_simulate_s;
    t.stats.merge(&o.stats);
    t.peer.add(&o.totals);
}

/// Mean of a per-kind replay cost, weighted by the traced deliveries of
/// each kind.
fn weighted_ns(costs: &BTreeMap<FrameKind, f64>, ledger: &Ledger) -> f64 {
    let (mut ns, mut n) = (0.0, 0.0);
    for (kind, c) in costs {
        let calls = ledger.frames(*kind).calls as f64;
        ns += c * calls;
        n += calls;
    }
    ratio(ns, n)
}

/// Per-layer metrics of the traced scenarios; returns whether the layer-sum
/// check held.
fn per_layer(
    k: f64,
    t: &TracedTotals,
    ledger: &Ledger,
    costs: &ReplayCosts,
    report: &mut Report,
) -> bool {
    let per = |x: f64| x / k;
    let callbacks_s = ledger.callback_time().as_secs_f64();
    let st = &t.stats;

    // netsim: everything inside `World::run_until` that is not a callback.
    let netsim_self = t.timing.simulate_s - callbacks_s;
    let events = st.event_dispatches as f64;
    report.add("netsim.self_s", per(netsim_self), "s");
    report.add("netsim.events", per(events), "count");
    report.add(
        "netsim.ns_per_event",
        ratio(netsim_self * 1e9, events),
        "ns",
    );
    report.add("netsim.delivered", per(st.delivered as f64), "count");
    report.add(
        "netsim.fanout",
        ratio(st.delivered as f64, st.tx_frames as f64),
        "ratio",
    );
    report.add(
        "netsim.mac_deferrals",
        per(st.mac_deferrals as f64),
        "count",
    );
    let receptions = st.delivered + st.collision_drops + st.channel_losses + st.partition_drops;
    report.add(
        "netsim.collision_frac",
        ratio(st.collision_drops as f64, receptions as f64),
        "ratio",
    );
    report.add(
        "netsim.cmd_pool_miss_frac",
        ratio(
            st.cmd_pool_misses as f64,
            (st.cmd_pool_hits + st.cmd_pool_misses) as f64,
        ),
        "ratio",
    );
    let netsim_allocs = t.timing.allocs.saturating_sub(ledger.callback_allocs());
    report.add(
        "netsim.allocs_per_event",
        ratio(netsim_allocs as f64, events),
        "count",
    );

    // Callbacks of both stack layers.
    for layer in [Layer::Core, Layer::Baselines] {
        let name = trace::layer_name(layer);
        for cb in [
            Callback::Start,
            Callback::Frame,
            Callback::Timer,
            Callback::TxDone,
        ] {
            let c = ledger.call(layer, cb);
            let cb = trace::callback_name(cb);
            report.add(format!("{name}.on_{cb}_s"), per(c.time.as_secs_f64()), "s");
            report.add(
                format!("{name}.on_{cb}_calls"),
                per(c.calls as f64),
                "count",
            );
        }
    }

    // core: per frame kind, allocations, protocol counters and ratios.
    for kind in kinds::ALL_DAPES {
        let name = trace::dapes_kind_name(kind).expect("a DAPES kind");
        let s = ledger.frames(kind);
        report.add(
            format!("core.frame_ns.{name}"),
            ratio(s.time.as_nanos() as f64, s.calls as f64),
            "ns",
        );
        report.add(format!("core.frames.{name}"), per(s.calls as f64), "count");
    }
    let core_frames = ledger.call(Layer::Core, Callback::Frame);
    report.add(
        "core.allocs_per_frame",
        ratio(core_frames.allocs as f64, core_frames.calls as f64),
        "count",
    );
    let ps = &t.peer.peer;
    for (name, v) in [
        ("core.interests_sent", ps.interests_sent),
        ("core.retransmissions", ps.retransmissions),
        ("core.packets_verified", ps.packets_verified),
        ("core.bitmaps_sent", ps.bitmaps_sent),
        ("core.bitmaps_cancelled", ps.bitmaps_cancelled),
        ("core.peba_backoffs", ps.peba_backoffs),
        ("core.packets_served", ps.packets_served),
        ("core.interests_forwarded", ps.interests_forwarded),
    ] {
        report.add(name, per(v as f64), "count");
    }
    report.add(
        "core.retx_frac",
        ratio(
            ps.retransmissions as f64,
            (ps.interests_sent + ps.retransmissions) as f64,
        ),
        "ratio",
    );
    report.add(
        "core.bitmap_suppress_frac",
        ratio(
            ps.bitmaps_cancelled as f64,
            (ps.bitmaps_sent + ps.bitmaps_cancelled) as f64,
        ),
        "ratio",
    );
    report.add(
        "core.forward_accuracy",
        ratio(
            t.peer.forward_successes as f64,
            (t.peer.forward_successes + t.peer.forward_failures) as f64,
        ),
        "ratio",
    );

    // ndn: the peek fast path, forwarder decisions, Content Store.
    report.add(
        "ndn.peek_resolved_frac",
        ratio(ps.frames_peek_resolved as f64, core_frames.calls as f64),
        "ratio",
    );
    for (name, v) in [
        ("ndn.peek.cs_hit", ps.peek_cs_hits),
        ("ndn.peek.dup_nonce", ps.peek_dup_nonces),
        ("ndn.peek.fib_drop", ps.peek_fib_drops),
        ("ndn.peek.unsolicited", ps.peek_unsolicited_data),
        ("ndn.peek.relayed", ps.peek_relayed),
        ("ndn.relay_patched", ps.frames_relay_patched),
        ("ndn.aggregated", t.peer.forwarder.aggregated_interests),
        ("ndn.suppressed", t.peer.forwarder.suppressed_interests),
        ("ndn.satisfied", t.peer.forwarder.satisfied_data),
        ("ndn.cs_insertions", t.peer.cs.insertions),
        ("ndn.cs_evictions", t.peer.cs.evictions),
    ] {
        report.add(name, per(v as f64), "count");
    }
    report.add(
        "ndn.cs_hit_frac",
        ratio(t.peer.cs.hits as f64, t.peer.cs.lookups as f64),
        "ratio",
    );

    // Replay estimates: per-operation cost × the run's counts.
    let peek_ns = weighted_ns(&costs.peek_header_ns, ledger);
    let decode_ns = weighted_ns(&costs.decode_payload_ns, ledger);
    report.add("ndn.peek_header_ns", peek_ns, "ns");
    report.add("ndn.decode_payload_ns", decode_ns, "ns");
    let frames = core_frames.calls as f64;
    let decoded = (core_frames.calls - ps.frames_peek_resolved.min(core_frames.calls)) as f64;
    report.add("ndn.peek_est_s", per(peek_ns * frames * 1e-9), "s");
    report.add("ndn.decode_est_s", per(decode_ns * decoded * 1e-9), "s");
    let sha_ns = costs.sha256_content_ns.unwrap_or(0.0);
    let hmac_ns = costs.hmac_advert_ns.unwrap_or(0.0);
    report.add("crypto.sha256_content_ns", sha_ns, "ns");
    report.add("crypto.hmac_advert_ns", hmac_ns, "ns");
    report.add(
        "crypto.sha256_est_s",
        per(sha_ns * ps.data_received as f64 * 1e-9),
        "s",
    );
    let adverts: u64 = [
        kinds::BITMAP_INTEREST,
        kinds::BITMAP_DATA,
        kinds::DISCOVERY_DATA,
    ]
    .iter()
    .map(|&k| ledger.frames(k).calls)
    .sum();
    report.add(
        "crypto.hmac_est_s",
        per(hmac_ns * adverts as f64 * 1e-9),
        "s",
    );

    // The instrument itself and the layer-sum check.
    report.add(
        "trace_overhead_s",
        per(t.timing.simulate_s - t.plain_simulate_s),
        "s",
    );
    report.add("bench.poll_s", per(t.timing.poll_s), "s");
    let residual = t.timing.loop_s - (netsim_self + callbacks_s + t.timing.poll_s);
    report.add("layer_sum_residual_s", per(residual), "s");
    let slack = LAYER_SUM_SLACK_FRAC * t.timing.loop_s + LAYER_SUM_SLACK_ABS_S * k;
    let ok = residual.abs() <= slack && netsim_self >= 0.0;
    if !ok {
        eprintln!(
            "layer-sum check failed: loop {:.6} s, netsim {netsim_self:.6} s, callbacks \
             {callbacks_s:.6} s, poll {:.6} s, slack {slack:.6} s",
            t.timing.loop_s, t.timing.poll_s
        );
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let batch = ((args.seconds * scenarios_per_s(wl)).round() as usize).max(1);
    // The traced run simulates each scenario twice, so half the batch.
    let scenarios = if args.trace { batch.div_ceil(2) } else { batch };
    let seeds: Vec<u64> = (0..scenarios as u64)
        .map(|i| args.seed.wrapping_add(i.wrapping_mul(SEED_STRIDE)))
        .collect();
    println!(
        "{{\"host\": {{\"cores\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}, \
         \"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {}, \"scenarios\": {}, \"trace\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        commit(),
        wl.name(),
        args.seed,
        Workload::HELD_OUT_SEED,
        scenarios,
        args.trace,
    );

    let mut gate = Gate::default();
    let mut report = Report::default();
    let mut correct = true;
    let timed_build = |seed: u64, ledger| {
        let t0 = Instant::now();
        let s = build(wl.shape(), seed, ledger);
        (s, t0.elapsed().as_secs_f64())
    };

    if !args.trace {
        // Warm-up, untimed: the first scenario, simulated once before the
        // batch; the batch's own run of it must repeat every simulated
        // metric exactly.
        let warm_up = run(build(wl.shape(), seeds[0], None)).sim;
        let mut setups = Vec::new();
        let mut outcomes = Vec::new();
        let mut peak_rss = Vec::new();
        let mut rss_reset = true;
        for &seed in &seeds {
            rss_reset &= reset_peak_rss();
            let mut scenario = None;
            for _ in 0..SETUP_REPEATS {
                let (built, setup) = timed_build(seed, None);
                setups.push(setup);
                scenario = Some(built);
            }
            outcomes.push(run(scenario.expect("SETUP_REPEATS > 0")));
            peak_rss.push(vm_hwm_mib());
        }
        for (i, (o, &seed)) in outcomes.iter().zip(&seeds).enumerate() {
            gate.scenario(seed, &o.sim, (i == 0).then_some(&warm_up));
        }
        // One scenario's peak, averaged over the batch; without the reset,
        // only the whole process's peak is measurable.
        let peak_rss_mib = if rss_reset {
            peak_rss.iter().sum::<f64>() / peak_rss.len() as f64
        } else {
            eprintln!("perfbench: cannot reset VmHWM; peak_rss_mib is the batch's maximum");
            vm_hwm_mib()
        };
        end_to_end(&outcomes, &setups, peak_rss_mib, &mut report);
    } else {
        let ledger = Ledger::shared();
        let mut totals = TracedTotals::default();
        for &seed in &seeds {
            let plain = run(build(wl.shape(), seed, None));
            let scenario = build(wl.shape(), seed, Some(&ledger));
            trace::count_allocs(true);
            let traced = run(scenario);
            trace::count_allocs(false);
            gate.scenario(seed, &plain.sim, Some(&traced.sim));
            add_totals(&mut totals, &traced, plain.timing.simulate_s);
        }
        let ledger = ledger.lock().expect("ledger");
        let costs = replay(&ledger.samples);
        if costs.bad_adverts > 0 {
            gate.problems.push(format!(
                "{} sampled adverts fail to verify in the replay",
                costs.bad_adverts
            ));
            correct = false;
        }
        correct &= per_layer(scenarios as f64, &totals, &ledger, &costs, &mut report);
    }

    for p in &gate.problems {
        eprintln!("perfbench: {p}");
    }
    correct &= gate.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.attempted,
        gate.failed,
        report.json()
    );
    ExitCode::SUCCESS
}
