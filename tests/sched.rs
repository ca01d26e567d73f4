//! Scheduler suite: one arrival event per transmission, no timer-slab
//! leak, the header fast path (peek resolution and decode-free relay)
//! actually exercised by full DAPES scenarios, and the pinned traces
//! (`tests/common/mod.rs`) that each replaced scheduler mode gave.

mod common;

use common::*;
use dapes_core::peer::DapesPeer;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

/// The tentpole regression: one transmission enqueues exactly one arrival
/// event, across a full DAPES scenario.
#[test]
fn one_transmission_enqueues_one_arrival_event_in_batched_mode() {
    let topology = Topology::Star { downloaders: 3 };
    let mut sc = topology.build(1, &MatrixParams::default());
    sc.run_until_complete(topology.deadline());
    let s = sc.world.stats();
    assert!(s.tx_frames > 0);
    assert!(
        s.delivered > s.tx_frames,
        "star frames reach several receivers"
    );
    assert_eq!(
        s.arrival_events, s.tx_frames,
        "one arrival event per transmission"
    );
}

#[test]
fn timer_slab_does_not_leak_across_a_full_scenario() {
    // DAPES peers arm and cancel pending-transmission timers constantly; a
    // completed run must leave only the steady-state timers (per-peer tick
    // and discovery beacons) armed, with slot allocation bounded by peak
    // concurrency — not by the tens of thousands of timers armed over the
    // run (the old `cancelled_timers` set retained cancelled ids forever).
    let params = MatrixParams::default();
    let topology = Topology::Star { downloaders: 3 };
    let mut sc = topology.build(1, &params);
    sc.run_until_complete(topology.deadline());
    // Keep the swarm ticking (discovery beacons, housekeeping, advert
    // timers) well past completion so timer volume dwarfs concurrency.
    let done = sc.world.now();
    sc.world.run_until(done + SimDuration::from_secs(120));
    let api_calls = sc.world.stats().api_calls;
    let live = sc.world.live_timers();
    let allocated = sc.world.timer_slots_allocated();
    assert!(
        api_calls > 1_000,
        "scenario must be timer-rich: {api_calls}"
    );
    assert!(
        live <= 4 * sc.world.node_count(),
        "live timers {live} exceed steady state for {} nodes",
        sc.world.node_count()
    );
    assert!(
        allocated <= 16 * sc.world.node_count(),
        "slot allocation {allocated} is volume-bound, not concurrency-bound"
    );
}

#[test]
fn lazy_peek_actually_resolves_frames_without_decode() {
    // Sanity that the fast path is exercised in a real scenario (not just
    // equivalent): star downloaders overhear each other's content interests
    // and answers, so duplicate nonces and CS hits must resolve by peek —
    // and the per-outcome counters must decompose the total exactly.
    let params = MatrixParams::default();
    let topology = Topology::Star { downloaders: 3 };
    let mut sc = topology.build(1, &params);
    sc.run_until_complete(topology.deadline());
    // Post-completion discovery chatter also feeds the fast path.
    let done = sc.world.now();
    sc.world.run_until(done + SimDuration::from_secs(60));
    let (mut peeked, mut cs, mut dup, mut fib, mut unsol) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut relayed = 0u64;
    for &id in sc.downloaders.iter().chain(sc.producers.iter()) {
        let Some(p) = sc.world.stack::<dapes_core::peer::DapesPeer>(id) else {
            continue;
        };
        let s = p.stats();
        assert_eq!(
            s.peek_cs_hits
                + s.peek_dup_nonces
                + s.peek_fib_drops
                + s.peek_unsolicited_data
                + s.peek_relayed
                + s.peek_relay_suppressed,
            s.frames_peek_resolved,
            "per-outcome peek counters must sum to the total for node {id}"
        );
        peeked += s.frames_peek_resolved;
        cs += s.peek_cs_hits;
        dup += s.peek_dup_nonces;
        fib += s.peek_fib_drops;
        unsol += s.peek_unsolicited_data;
        relayed += s.peek_relayed + s.peek_relay_suppressed;
    }
    assert!(peeked > 0, "no frame ever resolved from its peeked header");
    assert!(
        dup > 0,
        "overheard re-broadcasts must resolve as dup nonces"
    );
    assert!(unsol > 0, "unwanted data must resolve as unsolicited");
    let _ = relayed; // star traffic aggregates; the chain test below relays
                     // DAPES peers register the root prefix, so everything is routable and
                     // the FIB-drop outcome stays zero here (the scheduler benchmark's
                     // selective-FIB swarm exercises it; `cs` hits depend on cache timing).
    assert_eq!(fib, 0, "root-registered FIBs never drop by route");
    let _ = cs;
}

#[test]
fn chain_relays_take_the_decode_free_relay_path() {
    // A chain's pure forwarders see every downloader Interest as novel and
    // routable, so they must resolve by the decode-free relay path and
    // actually transmit patched frames.
    let params = MatrixParams::default();
    let topology = Topology::Chain { relays: 1 };
    let mut sc = topology.build(1, &params);
    sc.run_until_complete(topology.deadline());
    let (mut relayed, mut suppressed, mut patched) = (0u64, 0u64, 0u64);
    for &id in sc.relays.iter() {
        let Some(p) = sc.world.stack::<dapes_core::peer::DapesPeer>(id) else {
            continue;
        };
        let s = p.stats();
        relayed += s.peek_relayed;
        suppressed += s.peek_relay_suppressed;
        patched += s.frames_relay_patched;
    }
    assert!(
        relayed > 0,
        "novel routable interests must resolve by the relay path (suppressed {suppressed})"
    );
    assert!(
        patched > 0,
        "relay decisions must translate into patched frame transmissions"
    );
}

/// Runs the default-matrix cells the deleted modes' equivalence suites
/// compared (every topology at seeds 1 and 3), asserts each cell's pinned
/// trace — the trace the deleted `mode` gave too — and hands the finished
/// scenario to `check`.
fn pinned_cells(mode: &str, mut check: impl FnMut(Topology, &Scenario)) {
    let params = MatrixParams::default();
    for (topology, seed, expected) in default_matrix_pins() {
        if seed == 2 {
            continue;
        }
        let sc = run_cell(topology, seed, &params);
        assert_eq!(
            fingerprint_of(&sc),
            expected,
            "[{}/seed-{seed}] trace left the {mode} trace",
            topology.label()
        );
        check(topology, &sc);
    }
}

fn peer_stats(sc: &Scenario) -> impl Iterator<Item = &dapes_core::stats::PeerStats> {
    (0..sc.world.node_count() as u32)
        .filter_map(|i| sc.world.stack::<DapesPeer>(NodeId(i)))
        .map(DapesPeer::stats)
}

/// The binary-heap queue is gone; the wheel must reproduce its traces.
/// (The wheel's firing order against a heap reference scheduler is
/// property-tested in `tests/properties.rs`.)
#[test]
fn golden_traces_bit_identical_across_queue_modes() {
    pinned_cells("binary-heap queue", |_, _| {});
}

/// Eager decode of every overheard frame is gone; the header fast path
/// must reproduce its traces while actually resolving frames undecoded.
#[test]
fn golden_traces_bit_identical_across_decode_regimes() {
    let mut peeked = 0;
    pinned_cells("eager-decode", |_, sc| {
        peeked += peer_stats(sc).map(|s| s.frames_peek_resolved).sum::<u64>();
    });
    assert!(peeked > 0, "no frame ever resolved from its peeked header");
}

/// One delivery event per receiver is gone; the batched fan-out must
/// reproduce its traces with one arrival event per transmission.
#[test]
fn golden_traces_bit_identical_across_delivery_event_modes() {
    pinned_cells("per-receiver delivery", |topology, sc| {
        let s = sc.world.stats();
        assert_eq!(
            s.arrival_events,
            s.tx_frames,
            "[{}] one arrival event per transmission",
            topology.label()
        );
    });
}

/// Relaying through a full `Interest` decode and re-encode is gone; the
/// copy-on-write hop-limit patch must reproduce its traces while chain
/// relays actually transmit patched frames.
#[test]
fn golden_traces_bit_identical_across_relay_patch_modes() {
    pinned_cells("decode-and-re-encode relay", |topology, sc| {
        if topology == CHAIN {
            let patched: u64 = sc
                .relays
                .iter()
                .filter_map(|&id| sc.world.stack::<DapesPeer>(id))
                .map(|p| p.stats().frames_relay_patched)
                .sum();
            assert!(patched > 0, "chain relays never patched a frame");
        }
    });
}
