//! The hot-path benchmark: measures the simulate-and-forward fast path and
//! records it in `BENCH_hotpath.json`.
//!
//! A dense swarm of beaconing/relaying nodes exercises the per-frame data
//! path: receiver selection through the spatial grid, one shared `Payload`
//! per broadcast, and the encode-once wire cache (seeded by
//! `decode_payload`) that sends a relayed packet's received bytes straight
//! back on the air.

use crate::perf::{host_json, Trace};
use dapes_ndn::cs::ContentStore;
use dapes_ndn::name::Name;
use dapes_ndn::packet::Data;
use dapes_netsim::prelude::*;
use rand::Rng;
use std::any::Any;
use std::time::Instant;

/// Parameters of the hot-path scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct HotpathParams {
    /// Swarm size (the acceptance scenario uses ≥ 200).
    pub nodes: usize,
    /// Field side in metres (nodes are placed uniformly).
    pub field: f64,
    /// Radio range in metres.
    pub range: f64,
    /// Beacon payload size in bytes.
    pub payload_bytes: usize,
    /// Beacons each node emits, one per second plus jitter.
    pub beacons: u32,
    /// Probability a receiver relays a newly heard packet.
    pub relay_prob: f64,
    /// Nominal gap between a node's beacons in milliseconds (plus jitter).
    pub beacon_period_ms: u64,
    /// Fraction of nodes that random-walk (the rest are stationary).
    pub mobile_fraction: f64,
    /// World seed.
    pub seed: u64,
}

impl HotpathParams {
    /// The acceptance-criteria scenario: a dense 280-node swarm relaying
    /// bulk-transfer segments (16 KiB, aggregated-frame sized) at 50 %
    /// forwarding probability — the workload where per-hop copies and
    /// re-encodes hurt most.
    pub fn dense() -> Self {
        HotpathParams {
            nodes: 280,
            field: 520.0,
            range: 60.0,
            payload_bytes: 16384,
            beacons: 25,
            relay_prob: 0.5,
            beacon_period_ms: 2000,
            mobile_fraction: 0.25,
            seed: 1,
        }
    }

    /// A seconds-scale variant for CI smoke runs.
    pub fn smoke() -> Self {
        HotpathParams {
            nodes: 60,
            field: 240.0,
            beacons: 5,
            payload_bytes: 2048,
            beacon_period_ms: 1000,
            ..HotpathParams::dense()
        }
    }

    /// The pinned trace of the named presets ([`dense`](Self::dense),
    /// [`smoke`](Self::smoke)); `None` for any other parameters.
    pub fn pinned_trace(&self) -> Option<Trace> {
        if *self == HotpathParams::dense() {
            Some(DENSE_PIN)
        } else if *self == HotpathParams::smoke() {
            Some(SMOKE_PIN)
        } else {
            None
        }
    }

    fn sim_deadline(&self) -> SimTime {
        // One beacon per period per node, plus drain time.
        SimTime::from_micros((self.beacons as u64 * (self.beacon_period_ms + 200) + 5_000) * 1_000)
    }
}

/// The pinned trace of [`HotpathParams::dense`].
const DENSE_PIN: Trace = Trace {
    events: 154_348,
    tx_frames: 29_792,
    delivered: 182_719,
};
/// The pinned trace of [`HotpathParams::smoke`].
const SMOKE_PIN: Trace = Trace {
    events: 6_391,
    tx_frames: 1_386,
    delivered: 10_885,
};

const KIND_BEACON: FrameKind = FrameKind(40);
const KIND_RELAY: FrameKind = FrameKind(41);

/// A beacon-and-relay stack: emits named Data beacons and floods each newly
/// heard packet onward with some probability, caching everything it hears
/// in a real [`ContentStore`].
#[derive(Debug)]
struct RelayStack {
    payload_bytes: usize,
    beacon_period_ms: u64,
    beacons_left: u32,
    seq: u64,
    relay_prob: f64,
    cs: ContentStore,
}

impl RelayStack {
    fn new(params: &HotpathParams) -> Self {
        RelayStack {
            payload_bytes: params.payload_bytes,
            beacon_period_ms: params.beacon_period_ms,
            beacons_left: params.beacons,
            seq: 0,
            relay_prob: params.relay_prob,
            cs: ContentStore::new(4096),
        }
    }

    fn schedule_beacon(&self, ctx: &mut NodeCtx<'_>) {
        // Nominal period with ±10 % jitter so the swarm never phase-locks.
        let base = self.beacon_period_ms * 900; // 90 % of the period, in µs
        let jitter = ctx.rng().gen_range(0..self.beacon_period_ms * 200);
        ctx.set_timer(SimDuration::from_micros(base + jitter), 1);
    }
}

impl NetStack for RelayStack {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.schedule_beacon(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        if self.beacons_left == 0 {
            return;
        }
        self.beacons_left -= 1;
        self.seq += 1;
        let name = Name::from_uri(&format!("/hotpath/n{}/{}", ctx.node.0, self.seq));
        let data = Data::new(name, vec![0xBE; self.payload_bytes]);
        self.cs.insert(data.clone(), ctx.now);
        ctx.send_frame(data.wire(), KIND_BEACON, 0, SimDuration::ZERO);
        if self.beacons_left > 0 {
            self.schedule_beacon(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        // Every received frame is decoded and cached — the pure-forwarder
        // overhearing behaviour (paper §V-A). The decode borrows the content
        // straight out of the received buffer.
        let Ok(data) = Data::decode_payload(&frame.payload) else {
            return;
        };
        self.cs.insert(data.clone(), ctx.now);
        // Only first-hand beacons are relayed (a relayed copy carries
        // KIND_RELAY and stops), which bounds the flood.
        if frame.kind != KIND_BEACON {
            return;
        }
        let relay = ctx.rng().gen::<f64>() < self.relay_prob;
        if !relay {
            return;
        }
        let delay = SimDuration::from_micros(ctx.rng().gen_range(0..20_000));
        // Seeded by decode_payload: the received allocation goes straight
        // back on the air.
        ctx.send_frame(data.wire(), KIND_RELAY, 0, delay);
    }

    fn live_state_bytes(&self) -> usize {
        self.cs.state_bytes()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Measured outcome of one hot-path run.
#[derive(Clone, Debug)]
pub struct HotpathResult {
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Event dispatches in the run.
    pub events: u64,
    /// Events per wall-clock second — the headline throughput figure.
    pub events_per_sec: f64,
    /// Frames put on the air.
    pub tx_frames: u64,
    /// Per-receiver deliveries.
    pub delivered: u64,
    /// Payload bytes delivered (all via shared buffers).
    pub delivered_payload_bytes: u64,
    /// The full simulator counters of the run, for the shared Prometheus
    /// export.
    pub stats: Stats,
}

impl HotpathResult {
    /// The run's protocol-visible counters.
    pub fn trace(&self) -> Trace {
        Trace {
            events: self.events,
            tx_frames: self.tx_frames,
            delivered: self.delivered,
        }
    }
}

/// Runs the hot-path scenario.
pub fn run_hotpath(params: &HotpathParams) -> HotpathResult {
    let mut world = World::new(WorldConfig {
        field: (params.field, params.field),
        range: params.range,
        seed: params.seed,
        ..WorldConfig::default()
    });
    // Deterministic placement from the scenario seed, independent of the
    // world's RNG stream.
    let mut place = rand::rngs::SmallRng::seed_from_u64(params.seed ^ 0x5DEECE66D);
    use rand::SeedableRng;
    for i in 0..params.nodes {
        let p = Point::new(
            place.gen_range(0.0..params.field),
            place.gen_range(0.0..params.field),
        );
        let mobile = (i as f64) < params.mobile_fraction * params.nodes as f64;
        let mobility: Box<dyn Mobility> = if mobile {
            Box::new(RandomDirection::new(p))
        } else {
            Box::new(Stationary::new(p))
        };
        world.add_node(mobility, Box::new(RelayStack::new(params)));
    }
    let start = Instant::now();
    world.run_until(params.sim_deadline());
    let wall_secs = start.elapsed().as_secs_f64();
    let s = world.stats();
    HotpathResult {
        wall_secs,
        events: s.event_dispatches,
        events_per_sec: s.event_dispatches as f64 / wall_secs.max(1e-9),
        tx_frames: s.tx_frames,
        delivered: s.delivered,
        delivered_payload_bytes: s.delivered_payload_bytes,
        stats: s.clone(),
    }
}

/// Renders the run as the `BENCH_hotpath.json` document. `deterministic`
/// records whether every repetition reproduced the run's trace.
pub fn render_report(params: &HotpathParams, run: &HotpathResult, deterministic: bool) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"perf_hotpath\",\n",
            "  \"nodes\": {},\n",
            "  \"field_m\": {},\n",
            "  \"range_m\": {},\n",
            "  \"payload_bytes\": {},\n",
            "  \"beacons_per_node\": {},\n",
            "  \"relay_prob\": {},\n",
            "  \"seed\": {},\n",
            "{}",
            "  \"deterministic\": {},\n",
            "  \"run\": {{\n",
            "    \"wall_secs\": {:.4},\n",
            "    \"events\": {},\n",
            "    \"events_per_sec\": {:.0},\n",
            "    \"tx_frames\": {},\n",
            "    \"delivered\": {},\n",
            "    \"delivered_payload_bytes\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        params.nodes,
        params.field,
        params.range,
        params.payload_bytes,
        params.beacons,
        params.relay_prob,
        params.seed,
        host_json(),
        deterministic,
        run.wall_secs,
        run.events,
        run.events_per_sec,
        run.tx_frames,
        run.delivered,
        run.delivered_payload_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HotpathParams {
        HotpathParams {
            nodes: 30,
            field: 180.0,
            beacons: 3,
            ..HotpathParams::dense()
        }
    }

    #[test]
    fn runs_are_deterministic_and_only_presets_are_pinned() {
        let a = run_hotpath(&tiny());
        let b = run_hotpath(&tiny());
        assert_eq!(a.trace(), b.trace(), "same seed, different trace");
        assert!(a.tx_frames > 0 && a.delivered > a.tx_frames);
        assert_eq!(tiny().pinned_trace(), None);
        assert!(HotpathParams::smoke().pinned_trace().is_some());
    }

    #[test]
    fn report_is_well_formed_json_shape() {
        let params = HotpathParams {
            nodes: 10,
            field: 120.0,
            beacons: 1,
            ..HotpathParams::dense()
        };
        let json = render_report(&params, &run_hotpath(&params), true);
        let doc = crate::json::parse(&json).expect("report parses");
        assert_eq!(crate::check::validate(&doc), Ok(()));
        assert!(json.contains("\"scenario\": \"perf_hotpath\""));
        assert!(json.contains("\"host_cores\""));
    }
}
