//! Pinned protocol traces.
//!
//! Every cell of the default [`ScenarioMatrix`] runs on the default engine
//! and must reproduce its literal trace fingerprint: frames on the air,
//! frames delivered, channel losses, collision drops, delivered payload
//! bytes and every downloader's completion instant. Extra cells cover what
//! the smoke matrix does not: scripted and random-walk mobility (the ferry
//! corner exercises timers, cancellations, retransmissions and overhearing
//! together), a two-relay chain and a lossy channel. Any engine change that
//! moves a single frame or microsecond fails here.

mod common;

use common::*;
use dapes_testutil::prelude::*;

#[test]
fn default_matrix_traces_are_pinned() {
    check(&MatrixParams::default(), &default_matrix_pins());
}

#[test]
fn mobility_and_multi_relay_traces_are_pinned() {
    check(
        &MatrixParams::default(),
        &[
            (
                Topology::PartitionedFerry,
                1,
                (
                    173,
                    138,
                    0,
                    0,
                    25154,
                    vec![Some(225_852), Some(110_634_999)],
                ),
            ),
            (
                Topology::MobileSwarm {
                    downloaders: 2,
                    forwarders: 2,
                },
                2,
                (
                    119,
                    153,
                    0,
                    0,
                    58581,
                    vec![Some(126_125_574), Some(102_837_075)],
                ),
            ),
            (
                Topology::Chain { relays: 2 },
                5,
                (53, 82, 0, 0, 33472, vec![Some(896_051)]),
            ),
        ],
    );
}

#[test]
fn lossy_channel_traces_are_pinned() {
    check(
        &MatrixParams {
            loss: 0.1,
            ..MatrixParams::default()
        },
        &[
            (
                Topology::Star { downloaders: 3 },
                1,
                (44, 116, 16, 0, 40019, vec![Some(226_675); 3]),
            ),
            (
                Topology::Chain { relays: 1 },
                2,
                (67, 80, 9, 0, 24747, vec![Some(4_060_391)]),
            ),
        ],
    );
}
