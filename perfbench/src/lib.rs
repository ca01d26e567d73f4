//! The repository benchmark: host time to simulate a fixed swarm scenario to
//! its protocol outcome, on the real DAPES and Bithoc stacks.
//!
//! Every workload is one closed batch job — a scenario simulated until each
//! downloader completes or the simulation cap is reached — built only from
//! the production crates' public API: [`World`], [`DapesPeer`],
//! [`DapesConfig::default`] and [`BithocPeer`], with the default execution
//! profile. [`trace`] wraps every stack to split the run's wall time by layer;
//! [`replay`] prices the `ndn`/`crypto` work inside the DAPES callbacks.

pub mod replay;
pub mod trace;

use dapes_baselines::prelude::{BithocConfig, BithocPeer, BithocRole, SwarmSpec};
use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::cs::CsStats;
use dapes_ndn::forwarder::ForwarderStats;
use dapes_ndn::name::Name;
use dapes_netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{Ledger, Traced};

/// The collection every DAPES workload shares (the paper's example name).
const COLLECTION: &str = "/damaged-bridge-1533783192";
/// The shared trust anchor every DAPES peer derives keys from.
pub const ANCHOR_SEED: &[u8] = b"rural-area-anchor";
/// Bytes per packet / Bithoc piece.
const PACKET_SIZE: usize = 1024;
/// Field side in metres (the paper's 300 m × 300 m field).
const FIELD: f64 = 300.0;
/// Simulated time between completion checks. Much finer than the figure
/// harness's 5 s, so a run stops close to the swarm's completion.
const POLL_STEP: SimDuration = SimDuration::from_millis(250);

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §VI-B1 topology with DAPES: the data plane of a transfer.
    PaperSwarm,
    /// The Bithoc baseline on `PaperSwarm`'s topology, collection and seed:
    /// no `ndn`/`core`/`crypto` code at all.
    PaperBithoc,
}

/// Protocol, node counts and collection of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Whether the swarm runs DAPES (otherwise Bithoc).
    pub dapes: bool,
    /// Stationary nodes; the first seeds the collection.
    pub stationary: usize,
    /// Mobile nodes that download the collection.
    pub mobile_downloaders: usize,
    /// Mobile protocol-aware nodes that want nothing.
    pub intermediates: usize,
    /// Mobile pure forwarders (plain routers under Bithoc).
    pub pure_forwarders: usize,
    /// Files in the collection.
    pub files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Radio range in metres.
    pub range: f64,
    /// Hard cap on simulated time.
    pub cap: SimTime,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::PaperSwarm, Workload::PaperBithoc];

    /// The seed a run uses when none is given.
    pub const DEFAULT_SEED: u64 = 1;

    /// A seed kept out of tuning, for confirming a claimed gain.
    pub const HELD_OUT_SEED: u64 = 4_099;

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSwarm => "paper_swarm",
            Workload::PaperBithoc => "paper_bithoc",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's topology and collection. Node counts and roles are the
    /// paper's; the collection is scaled down from 4 × 256 KiB so one run
    /// simulates enough seeds to average out how much a single seed's
    /// placement moves the outcome. Of 16, 32, 64 and 128 KiB files, 64 KiB
    /// gives the steadiest download times per host second.
    pub fn shape(self) -> Shape {
        let paper = Shape {
            dapes: true,
            stationary: 4,
            mobile_downloaders: 20,
            intermediates: 10,
            pure_forwarders: 10,
            files: 4,
            file_size: 64 * 1024,
            range: 60.0,
            cap: SimTime::from_secs(4_000),
        };
        match self {
            Workload::PaperSwarm => paper,
            Workload::PaperBithoc => Shape {
                dapes: false,
                ..paper
            },
        }
    }
}

/// A built, not yet run, scenario.
pub struct Scenario {
    /// The world, every node placed.
    pub world: World,
    /// The nodes whose download time is measured.
    pub downloaders: Vec<NodeId>,
    shape: Shape,
}

fn random_point(rng: &mut SmallRng) -> Point {
    Point::new(rng.gen_range(0.0..FIELD), rng.gen_range(0.0..FIELD))
}

/// Builds a scenario of `shape` for `seed`. With a ledger, every stack is
/// wrapped in a [`Traced`] that records its callbacks there.
///
/// Placement mirrors the figure harness: stationary nodes on fixed spots,
/// mobile nodes uniformly placed from a seed-derived RNG, in the order
/// downloaders, intermediates, pure forwarders.
pub fn build(shape: Shape, seed: u64, ledger: Option<&Arc<Mutex<Ledger>>>) -> Scenario {
    let mut world = World::new(WorldConfig {
        range: shape.range,
        seed,
        ..WorldConfig::default()
    });
    let mut placement = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let spots = [
        Point::new(75.0, 75.0),
        Point::new(225.0, 75.0),
        Point::new(75.0, 225.0),
        Point::new(225.0, 225.0),
        Point::new(150.0, 150.0),
    ];
    let wrap = |stack: Box<dyn NetStack>| -> Box<dyn NetStack> {
        match ledger {
            Some(l) => Box::new(Traced::new(stack, l.clone())),
            None => stack,
        }
    };

    let dapes = shape.dapes.then(|| {
        let cfg = DapesConfig::default();
        let collection = Arc::new(Collection::build(CollectionSpec {
            name: Name::from_uri(COLLECTION),
            files: (0..shape.files)
                .map(|i| FileSpec::new(format!("file-{i}"), shape.file_size))
                .collect(),
            packet_size: PACKET_SIZE,
            format: cfg.metadata_format,
            producer: "resident-a".into(),
        }));
        let want = WantPolicy::Collections(vec![Name::from_uri(COLLECTION)]);
        (cfg, TrustAnchor::from_seed(ANCHOR_SEED), collection, want)
    });
    let pieces_per_file = shape.file_size.div_ceil(PACKET_SIZE);
    let spec = SwarmSpec {
        total_pieces: shape.files * pieces_per_file,
        pieces_per_file,
        piece_size: PACKET_SIZE,
    };

    // Node ids in role order: the seed, the other stationary nodes and the
    // mobile downloaders, the intermediates, the pure forwarders.
    let downloaders_end = shape.stationary + shape.mobile_downloaders;
    let forwarders_start = downloaders_end + shape.intermediates;
    let mut downloaders = Vec::new();
    for i in 0..forwarders_start + shape.pure_forwarders {
        let id = i as u32;
        let is_downloader = (1..downloaders_end).contains(&i);
        let stack: Box<dyn NetStack> = match &dapes {
            Some((cfg, anchor, _, _)) if i >= forwarders_start => {
                Box::new(DapesPeer::pure_forwarder(id, cfg.clone(), anchor.clone()))
            }
            Some((cfg, anchor, collection, want)) => {
                let want = if is_downloader {
                    want.clone()
                } else {
                    WantPolicy::Nothing
                };
                let mut peer = DapesPeer::new(id, cfg.clone(), anchor.clone(), want);
                if i == 0 {
                    peer.add_production(collection.clone());
                }
                Box::new(peer)
            }
            None => {
                let role = match i {
                    0 => BithocRole::Seed,
                    _ if is_downloader => BithocRole::Downloader,
                    _ => BithocRole::Router,
                };
                Box::new(BithocPeer::new(
                    id,
                    role,
                    spec.clone(),
                    BithocConfig::default(),
                ))
            }
        };
        let mobility: Box<dyn Mobility> = if i < shape.stationary {
            Box::new(Stationary::new(spots[i % spots.len()]))
        } else {
            Box::new(RandomDirection::new(random_point(&mut placement)))
        };
        let node = world.add_node(mobility, wrap(stack));
        if is_downloader {
            downloaders.push(node);
        }
    }
    Scenario {
        world,
        downloaders,
        shape,
    }
}

/// The simulated outcome of one scenario: deterministic for a seed, and
/// compared bit for bit between repeats and between traced and untraced
/// runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// Download time per measured downloader, in simulated seconds; an
    /// incomplete download counts as the cap.
    pub dl_times_s: Vec<f64>,
    /// Downloaders that completed by the cap.
    pub completed: usize,
    /// Simulated time the last downloader completed (the cap if any did
    /// not).
    pub swarm_done_s: f64,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Payload bytes transmitted.
    pub tx_bytes: u64,
    /// Peak live protocol state, sampled at every completion check.
    pub state_peak_bytes: usize,
    /// Verification failures summed over DAPES peers.
    pub verify_failures: u64,
    /// The simulator's full run counters, rendered; equal renderings mean
    /// equal `Stats`.
    pub stats_fingerprint: String,
}

/// Protocol counters summed over every DAPES peer (zero under Bithoc).
#[derive(Clone, Debug, Default)]
pub struct PeerTotals {
    /// Summed per-peer protocol statistics (`completed_at` unused).
    pub peer: PeerStats,
    /// Summed forwarder decision counters.
    pub forwarder: ForwarderStats,
    /// Summed Content Store counters.
    pub cs: CsStats,
    /// Multi-hop forwards that brought data back.
    pub forward_successes: u64,
    /// Multi-hop forwards that did not.
    pub forward_failures: u64,
}

impl PeerTotals {
    /// Adds `o`'s counters (those the benchmark reports) into `self`.
    pub fn add(&mut self, o: &PeerTotals) {
        let (s, p) = (&mut self.peer, &o.peer);
        s.interests_sent += p.interests_sent;
        s.retransmissions += p.retransmissions;
        s.data_received += p.data_received;
        s.packets_verified += p.packets_verified;
        s.verify_failures += p.verify_failures;
        s.bitmaps_sent += p.bitmaps_sent;
        s.bitmaps_cancelled += p.bitmaps_cancelled;
        s.peba_backoffs += p.peba_backoffs;
        s.packets_served += p.packets_served;
        s.interests_forwarded += p.interests_forwarded;
        s.frames_peek_resolved += p.frames_peek_resolved;
        s.peek_cs_hits += p.peek_cs_hits;
        s.peek_dup_nonces += p.peek_dup_nonces;
        s.peek_fib_drops += p.peek_fib_drops;
        s.peek_unsolicited_data += p.peek_unsolicited_data;
        s.peek_relayed += p.peek_relayed;
        s.frames_relay_patched += p.frames_relay_patched;
        self.forwarder.aggregated_interests += o.forwarder.aggregated_interests;
        self.forwarder.suppressed_interests += o.forwarder.suppressed_interests;
        self.forwarder.satisfied_data += o.forwarder.satisfied_data;
        self.cs.lookups += o.cs.lookups;
        self.cs.hits += o.cs.hits;
        self.cs.insertions += o.cs.insertions;
        self.cs.evictions += o.cs.evictions;
        self.forward_successes += o.forward_successes;
        self.forward_failures += o.forward_failures;
    }
}

/// Host timing of one scenario run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopTiming {
    /// Wall time of the whole run loop.
    pub loop_s: f64,
    /// Of that, time inside `World::run_until`.
    pub simulate_s: f64,
    /// Of that, time in the benchmark's own completion checks.
    pub poll_s: f64,
    /// Allocations during the loop (zero unless counting is on).
    pub allocs: u64,
}

/// Everything one scenario run produces.
pub struct Outcome {
    /// Deterministic simulated metrics.
    pub sim: SimMetrics,
    /// Host timing.
    pub timing: LoopTiming,
    /// The simulator's run counters.
    pub stats: Stats,
    /// Summed DAPES protocol counters.
    pub totals: PeerTotals,
}

fn completed_at(world: &World, node: NodeId, dapes: bool) -> Option<SimTime> {
    if dapes {
        world
            .stack::<DapesPeer>(node)
            .and_then(|p| p.completed_at())
    } else {
        world
            .stack::<BithocPeer>(node)
            .and_then(|p| p.completed_at())
    }
}

fn all_done(world: &World, downloaders: &[NodeId], dapes: bool) -> bool {
    downloaders.iter().all(|&n| {
        if dapes {
            world
                .stack::<DapesPeer>(n)
                .is_some_and(|p| p.downloads_complete())
        } else {
            world
                .stack::<BithocPeer>(n)
                .is_some_and(|p| p.is_complete())
        }
    })
}

/// Runs a built scenario until every downloader completed or the cap, and
/// collects its outcome.
pub fn run(mut scenario: Scenario) -> Outcome {
    let Shape { dapes, cap, .. } = scenario.shape;
    let world = &mut scenario.world;
    let mut state_peak = 0usize;
    let mut now = SimTime::ZERO;
    let (mut simulate, mut poll) = (Duration::ZERO, Duration::ZERO);
    let allocs0 = trace::allocs();
    let start = Instant::now();
    loop {
        now = (now + POLL_STEP).min(cap);
        let t0 = Instant::now();
        world.run_until(now);
        let t1 = Instant::now();
        state_peak = state_peak.max(world.live_state_bytes());
        let done = all_done(world, &scenario.downloaders, dapes) || now >= cap;
        let t2 = Instant::now();
        simulate += t1 - t0;
        poll += t2 - t1;
        if done {
            break;
        }
    }
    let timing = LoopTiming {
        loop_s: start.elapsed().as_secs_f64(),
        simulate_s: simulate.as_secs_f64(),
        poll_s: poll.as_secs_f64(),
        allocs: trace::allocs() - allocs0,
    };

    let cap_s = cap.as_secs_f64();
    let times: Vec<Option<SimTime>> = scenario
        .downloaders
        .iter()
        .map(|&n| completed_at(world, n, dapes))
        .collect();
    let completed = times.iter().filter(|t| t.is_some()).count();
    let dl_times_s: Vec<f64> = times
        .iter()
        .map(|t| t.map_or(cap_s, |t| t.as_secs_f64()))
        .collect();
    let swarm_done_s = dl_times_s.iter().copied().fold(0.0, f64::max);
    let totals = peer_totals(world);
    let stats = world.stats().clone();
    Outcome {
        sim: SimMetrics {
            dl_times_s,
            completed,
            swarm_done_s,
            tx_frames: stats.tx_frames,
            tx_bytes: stats.tx_payload_bytes,
            state_peak_bytes: state_peak,
            verify_failures: totals.peer.verify_failures,
            stats_fingerprint: format!("{stats:?}"),
        },
        timing,
        stats,
        totals,
    }
}

fn peer_totals(world: &World) -> PeerTotals {
    let mut t = PeerTotals::default();
    for i in 0..world.node_count() {
        if let Some(p) = world.stack::<DapesPeer>(NodeId(i as u32)) {
            let (forward_successes, forward_failures) = p.forward_counts();
            t.add(&PeerTotals {
                peer: p.stats().clone(),
                forwarder: p.forwarder_stats(),
                cs: p.content_store().stats(),
                forward_successes,
                forward_failures,
            });
        }
    }
    t
}
