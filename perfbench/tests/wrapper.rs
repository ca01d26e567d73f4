//! The traced run must measure the same program the untraced run does: the
//! wrapper has to be invisible to downcasts and to the simulation.

use dapes_baselines::prelude::BithocPeer;
use dapes_core::prelude::DapesPeer;
use dapes_netsim::prelude::{NodeId, SimTime};
use dapes_perfbench::trace::{Callback, Layer, Ledger};
use dapes_perfbench::{build, run, Shape};

/// A swarm small enough for a debug-build test, built by the benchmark's
/// own code path.
fn tiny(dapes: bool) -> Shape {
    Shape {
        dapes,
        stationary: 2,
        mobile_downloaders: 2,
        intermediates: 1,
        pure_forwarders: 1,
        files: 1,
        file_size: 4 * 1024,
        range: 80.0,
        cap: SimTime::from_secs(1_500),
    }
}

#[test]
fn wrapper_passes_downcasts_through() {
    for dapes in [true, false] {
        let ledger = Ledger::shared();
        let mut wrapped = build(tiny(dapes), 3, Some(&ledger));
        let plain = build(tiny(dapes), 3, None);
        let world = &mut wrapped.world;
        for i in 0..world.node_count() {
            let n = NodeId(i as u32);
            assert_eq!(world.stack::<DapesPeer>(n).is_some(), dapes, "node {i}");
            assert_eq!(world.stack::<BithocPeer>(n).is_some(), !dapes, "node {i}");
            assert_eq!(world.stack_mut::<DapesPeer>(n).is_some(), dapes, "node {i}");
            assert_eq!(
                world.node_state_bytes(n),
                plain.world.node_state_bytes(n),
                "live_state_bytes must be forwarded (node {i})"
            );
        }
    }
}

#[test]
fn wrapped_and_plain_runs_simulate_identically() {
    for (dapes, seed) in [(true, 11), (false, 12)] {
        let plain = run(build(tiny(dapes), seed, None));
        let ledger = Ledger::shared();
        let wrapped = run(build(tiny(dapes), seed, Some(&ledger)));
        assert_eq!(
            format!("{:?}", plain.stats),
            format!("{:?}", wrapped.stats),
            "Stats differ (dapes: {dapes})"
        );
        assert_eq!(plain.sim, wrapped.sim, "simulated metrics differ");
        assert_eq!(plain.sim.completed, plain.sim.dl_times_s.len());

        let ledger = ledger.lock().expect("ledger");
        let (layer, other) = if dapes {
            (Layer::Core, Layer::Baselines)
        } else {
            (Layer::Baselines, Layer::Core)
        };
        let frames = ledger.call(layer, Callback::Frame);
        assert_eq!(
            frames.calls, wrapped.stats.delivered,
            "one call per delivery"
        );
        assert_eq!(ledger.call(layer, Callback::Start).calls, 6);
        assert_eq!(
            ledger.call(layer, Callback::TxDone).calls,
            wrapped.stats.tx_frames,
            "every transmission's outcome reaches its sender"
        );
        assert_eq!(ledger.call(other, Callback::Frame).calls, 0);
        assert!(!ledger.callback_time().is_zero());
        assert!(ledger.callback_time().as_secs_f64() <= wrapped.timing.simulate_s);
        assert_eq!(ledger.samples.is_empty(), !dapes);
    }
}
