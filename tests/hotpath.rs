//! Spatial-grid equivalence suite.
//!
//! The grid must be *invisible* to protocol behaviour: it returns the same
//! neighbors as an O(N) scan over every node at every instant of every
//! scenario, and every default-matrix cell reproduces the trace the O(N)
//! delivery scan gave (pinned in `tests/common/mod.rs`).

mod common;

use common::*;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

fn matrix_axes() -> (Vec<Topology>, Vec<u64>) {
    (
        vec![
            Topology::AdjacentPair,
            Topology::Chain { relays: 1 },
            Topology::Star { downloaders: 3 },
        ],
        vec![1, 2, 3],
    )
}

/// Cross-mode cells: one stationary, one scripted-mobility, one mobile-swarm
/// topology, so the grid's segment registration is exercised by every
/// mobility model.
fn mobility_axes() -> Vec<(Topology, u64)> {
    vec![
        (Topology::Chain { relays: 2 }, 5),
        (Topology::PartitionedFerry, 1),
        (
            Topology::MobileSwarm {
                downloaders: 2,
                forwarders: 2,
            },
            2,
        ),
    ]
}

/// The O(N) neighbor scan the grid is checked against.
fn neighbors_of_brute(w: &World, node: NodeId) -> Vec<NodeId> {
    let p = w.position_of(node);
    (0..w.node_count() as u32)
        .map(NodeId)
        .filter(|&other| other != node && w.position_of(other).within(&p, w.range()))
        .collect()
}

#[test]
fn grid_neighbors_match_brute_force_across_matrix() {
    let (topologies, seeds) = matrix_axes();
    let params = MatrixParams::default();
    for &topology in &topologies {
        for &seed in &seeds {
            let mut sc = topology.build(seed, &params);
            // Sample neighbor queries at several instants while the
            // scenario actually runs (mobility segments change, MACs queue,
            // peers move), not just at t = 0.
            for step in 0..6u64 {
                sc.world.run_until(SimTime::from_secs(step * 20));
                for i in 0..sc.world.node_count() as u32 {
                    let n = NodeId(i);
                    assert_eq!(
                        sc.world.neighbors_of(n),
                        neighbors_of_brute(&sc.world, n),
                        "[{}/seed-{seed}] node {n} diverged at t={}s",
                        topology.label(),
                        step * 20
                    );
                }
            }
        }
    }
}

#[test]
fn grid_neighbors_match_brute_force_under_mobility() {
    for (topology, seed) in mobility_axes() {
        let params = MatrixParams::default();
        let mut sc = topology.build(seed, &params);
        for step in 1..=10u64 {
            sc.world.run_until(SimTime::from_secs(step * 30));
            for i in 0..sc.world.node_count() as u32 {
                let n = NodeId(i);
                assert_eq!(
                    sc.world.neighbors_of(n),
                    neighbors_of_brute(&sc.world, n),
                    "[{}/seed-{seed}] node {n} diverged at t={}s",
                    topology.label(),
                    step * 30
                );
            }
        }
    }
}

/// The O(N) delivery scan is gone; the matrix traces it gave, recorded
/// while it ran beside the grid and agreed, are the pins. Every cell must
/// still reproduce them, with the grid answering each node's neighbor query
/// at completion exactly as the scan does.
#[test]
fn golden_traces_bit_identical_across_delivery_modes() {
    let params = MatrixParams::default();
    for (topology, seed, expected) in default_matrix_pins() {
        let sc = run_cell(topology, seed, &params);
        for i in 0..sc.world.node_count() as u32 {
            let n = NodeId(i);
            assert_eq!(
                sc.world.neighbors_of(n),
                neighbors_of_brute(&sc.world, n),
                "[{}/seed-{seed}] node {n} diverged at completion",
                topology.label()
            );
        }
        assert_eq!(
            fingerprint_of(&sc),
            expected,
            "[{}/seed-{seed}] grid left the O(N) scan's trace",
            topology.label()
        );
    }
}
