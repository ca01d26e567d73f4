//! The execution profile: how many cores a run uses.
//!
//! The engine itself has one configuration — timer-wheel event queue, grid
//! receiver selection, one batched arrival event per transmission, pooled
//! command buffers — and the protocol layers above it have one too (lazy
//! name-first peek with decode-free relay, arena PIT/CS). What remains
//! settable is the sharded engine's parallelism: [`ExecProfile::cores`] and
//! [`ExecProfile::lookahead`], consumed by [`WorldConfig`] and the testutil
//! `ScenarioBuilder`/`MatrixParams`.
//!
//! `cores = 1` runs the sequential [`World`]; `cores > 1` runs
//! [`ShardedWorld`], metric-equivalent within the tolerance documented
//! there.
//!
//! [`WorldConfig`]: crate::world::WorldConfig
//! [`World`]: crate::world::World
//! [`ShardedWorld`]: crate::shard::ShardedWorld

use crate::time::SimDuration;

/// The parallelism of a run.
///
/// # Examples
///
/// ```
/// use dapes_netsim::exec::ExecProfile;
///
/// let p = ExecProfile::default().with_cores(4);
/// assert_eq!(p.cores, 4);
/// assert_eq!(ExecProfile::default().cores, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecProfile {
    /// Number of spatial shards (each with its own event loop). `1` runs
    /// the sequential engine; `> 1` runs
    /// [`ShardedWorld`](crate::shard::ShardedWorld).
    pub cores: usize,
    /// Conservative synchronization window for the sharded engine. `None`
    /// derives the minimum: cross-border propagation delay (zero in the
    /// unit-disk model) plus the minimum frame air time under the run's
    /// [`PhyConfig`](crate::radio::PhyConfig).
    pub lookahead: Option<SimDuration>,
}

impl Default for ExecProfile {
    /// One core, derived lookahead.
    fn default() -> Self {
        ExecProfile {
            cores: 1,
            lookahead: None,
        }
    }
}

impl ExecProfile {
    /// Sets the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "cores must be at least 1");
        self.cores = cores;
        self
    }

    /// Overrides the sharded engine's synchronization window.
    pub fn with_lookahead(mut self, lookahead: SimDuration) -> Self {
        self.lookahead = Some(lookahead);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_setters_compose() {
        let p = ExecProfile::default()
            .with_cores(4)
            .with_lookahead(SimDuration::from_millis(1));
        assert_eq!(p.cores, 4);
        assert_eq!(p.lookahead, Some(SimDuration::from_millis(1)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cores_rejected() {
        let _ = ExecProfile::default().with_cores(0);
    }
}
