//! Literal trace fingerprints shared by the integration suites.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use dapes_testutil::prelude::*;

/// `(tx_frames, delivered, channel_losses, collision_drops,
/// delivered_payload_bytes, completion times in µs)`.
pub type Fingerprint = (u64, u64, u64, u64, u64, Vec<Option<u64>>);

/// Builds `topology` for `seed`, runs it to completion and asserts the
/// golden metrics.
pub fn run_cell(topology: Topology, seed: u64, params: &MatrixParams) -> Scenario {
    let mut sc = topology.build(seed, params);
    sc.run_until_complete(topology.deadline());
    assert_scenario(
        &format!("{}/seed-{seed}", topology.label()),
        &sc,
        &GoldenMetrics::default(),
    );
    sc
}

pub fn fingerprint_of(sc: &Scenario) -> Fingerprint {
    let s = sc.world.stats();
    (
        s.tx_frames,
        s.delivered,
        s.channel_losses,
        s.collision_drops,
        s.delivered_payload_bytes,
        sc.completion_times()
            .into_iter()
            .map(|t| t.map(|t| t.as_micros()))
            .collect(),
    )
}

pub fn fingerprint(topology: Topology, seed: u64, params: &MatrixParams) -> Fingerprint {
    fingerprint_of(&run_cell(topology, seed, params))
}

pub fn check(params: &MatrixParams, cells: &[(Topology, u64, Fingerprint)]) {
    for (topology, seed, expected) in cells {
        assert_eq!(
            &fingerprint(*topology, *seed, params),
            expected,
            "[{}/seed-{seed}] trace moved",
            topology.label()
        );
    }
}

pub const STAR: Topology = Topology::Star { downloaders: 3 };
pub const CHAIN: Topology = Topology::Chain { relays: 1 };

/// The default engine's trace of every default `ScenarioMatrix` cell,
/// pinned literally. The deleted engine modes (binary-heap queue, O(N)
/// delivery scan, one delivery event per receiver, eager decode, relay
/// without the hop-limit patch) gave these same traces on every cell their
/// equivalence suites compared.
pub fn default_matrix_pins() -> Vec<(Topology, u64, Fingerprint)> {
    vec![
        (
            Topology::AdjacentPair,
            1,
            (16, 16, 0, 0, 5826, vec![Some(228_405)]),
        ),
        (
            Topology::AdjacentPair,
            2,
            (18, 16, 0, 2, 5737, vec![Some(732_833)]),
        ),
        (
            Topology::AdjacentPair,
            3,
            (15, 15, 0, 0, 5685, vec![Some(932_048)]),
        ),
        (CHAIN, 1, (35, 50, 0, 0, 18553, vec![Some(247_349)])),
        (CHAIN, 2, (61, 81, 0, 2, 25463, vec![Some(4_044_161)])),
        (CHAIN, 3, (33, 47, 0, 0, 18400, vec![Some(953_761)])),
        (STAR, 1, (35, 105, 0, 0, 24408, vec![Some(218_672); 3])),
        (STAR, 2, (40, 117, 0, 0, 34623, vec![Some(126_144); 3])),
        (STAR, 3, (42, 120, 0, 6, 43659, vec![Some(929_026); 3])),
    ]
}
