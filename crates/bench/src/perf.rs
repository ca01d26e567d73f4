//! Shared pieces of the two engine-throughput reports (`perf_hotpath` and
//! `perf_sched`): the host record every committed report carries, and the
//! trace gate — a determinism double-run plus, for the named presets, a
//! pinned trace — that fails a run whose protocol behaviour drifted.

/// Logical cores of the host (`std::thread::available_parallelism`, 1 when
/// undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The cargo profile the report was measured under.
pub const BUILD_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// The protocol-visible counters of one run. Equal parameters and seeds
/// must reproduce them exactly, on any host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Events popped from the queue.
    pub events: u64,
    /// Frames put on the air.
    pub tx_frames: u64,
    /// Per-receiver deliveries.
    pub delivered: u64,
}

/// The trace gate: every repetition must reproduce the first one's trace,
/// and when `pinned` is given the trace must equal it.
pub fn check_traces(runs: &[Trace], pinned: Option<Trace>) -> Result<(), String> {
    let first = runs.first().ok_or("no runs to check")?;
    if let Some(other) = runs.iter().find(|t| *t != first) {
        return Err(format!(
            "same seed, different trace: {first:?} vs {other:?}"
        ));
    }
    match pinned {
        Some(pin) if pin != *first => Err(format!("trace moved: got {first:?}, pinned {pin:?}")),
        _ => Ok(()),
    }
}

/// The `"host_cores"`/`"build_profile"` lines of a report header.
pub fn host_json() -> String {
    format!(
        "  \"host_cores\": {},\n  \"build_profile\": \"{BUILD_PROFILE}\",\n",
        host_cores()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Trace = Trace {
        events: 10,
        tx_frames: 4,
        delivered: 9,
    };

    #[test]
    fn gate_passes_identical_runs_and_a_matching_pin() {
        assert_eq!(check_traces(&[T, T], None), Ok(()));
        assert_eq!(check_traces(&[T, T], Some(T)), Ok(()));
    }

    #[test]
    fn gate_rejects_nondeterminism_and_a_moved_trace() {
        let moved = Trace { delivered: 8, ..T };
        let err = check_traces(&[T, moved], None).expect_err("diverged runs");
        assert!(err.contains("same seed"), "{err}");
        let err = check_traces(&[T, T], Some(moved)).expect_err("moved trace");
        assert!(err.contains("trace moved"), "{err}");
        assert!(check_traces(&[], None).is_err());
    }
}
