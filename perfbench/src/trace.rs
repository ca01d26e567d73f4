//! The traced run's instruments: a stack wrapper that times every callback,
//! a counting global allocator, and a bounded sample of delivered payloads.
//!
//! The wrapper forwards `as_any`/`as_any_mut`/`live_state_bytes` to the
//! stack it wraps, so `World::stack::<DapesPeer>()` and the memory proxy see
//! straight through it, and it passes every `NodeCtx` on untouched, so the
//! wrapped run simulates exactly the program the unwrapped run does.

use dapes_core::prelude::{kinds, DapesPeer};
use dapes_netsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// A global allocator that counts allocations while counting is on, and
/// otherwise only adds one relaxed load to each allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the ones callers get; the counter
// is a statistic that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract, and `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off (it is off at start).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (allocations and reallocations; zero when the
/// running binary did not install [`CountingAlloc`]).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Payloads kept per frame kind for the replay.
const SAMPLE_CAP: usize = 256;
/// Every this-many-th delivery of a kind is sampled, so the sample spans
/// the whole run rather than its first seconds.
const SAMPLE_STRIDE: u64 = 16;

/// The layer a stack belongs to, named after its crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `dapes-core`: a [`DapesPeer`].
    Core = 0,
    /// `dapes-baselines`: any other stack.
    Baselines = 1,
}

/// A stack callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    /// `on_start`.
    Start = 0,
    /// `on_frame`.
    Frame = 1,
    /// `on_timer`.
    Timer = 2,
    /// `on_tx_done`.
    TxDone = 3,
}

/// Calls and time spent in one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside them.
    pub time: Duration,
    /// Allocations made inside them (when counting).
    pub allocs: u64,
}

impl CallStat {
    fn add(&mut self, time: Duration, allocs: u64) {
        self.calls += 1;
        self.time += time;
        self.allocs += allocs;
    }
}

/// Snake-case names of the DAPES frame kinds, in `kinds::ALL_DAPES` order.
const KIND_NAMES: [&str; 8] = [
    "discovery_interest",
    "discovery_data",
    "metadata_interest",
    "metadata_data",
    "bitmap_interest",
    "bitmap_data",
    "content_interest",
    "content_data",
];

fn kind_index(kind: FrameKind) -> Option<usize> {
    kinds::ALL_DAPES.iter().position(|&k| k == kind)
}

/// Snake-case name of a DAPES frame kind, as in `dapes_core::stats::kinds`.
pub fn dapes_kind_name(kind: FrameKind) -> Option<&'static str> {
    kind_index(kind).map(|i| KIND_NAMES[i])
}

/// What the wrappers of one world record.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Indexed by [`Layer`], then by [`Callback`].
    calls: [[CallStat; 4]; 2],
    /// DAPES `on_frame` calls, indexed like `kinds::ALL_DAPES`.
    frames_by_kind: [CallStat; 8],
    /// Sampled delivered DAPES payloads by kind.
    pub samples: BTreeMap<FrameKind, Vec<Payload>>,
}

impl Ledger {
    /// A fresh ledger to share among a world's wrappers.
    pub fn shared() -> Arc<Mutex<Ledger>> {
        Arc::new(Mutex::new(Ledger::default()))
    }

    /// The stat for one layer's callback.
    pub fn call(&self, layer: Layer, callback: Callback) -> CallStat {
        self.calls[layer as usize][callback as usize]
    }

    /// The stat for DAPES `on_frame` calls on frames of `kind`.
    pub fn frames(&self, kind: FrameKind) -> CallStat {
        kind_index(kind).map_or_else(CallStat::default, |i| self.frames_by_kind[i])
    }

    /// Total time inside every callback of every layer.
    pub fn callback_time(&self) -> Duration {
        self.calls.iter().flatten().map(|c| c.time).sum()
    }

    /// Total allocations inside every callback of every layer.
    pub fn callback_allocs(&self) -> u64 {
        self.calls.iter().flatten().map(|c| c.allocs).sum()
    }
}

/// Crate name of a layer.
pub fn layer_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Core => "core",
        Layer::Baselines => "baselines",
    }
}

/// Method suffix of a callback (`on_<name>`).
pub fn callback_name(callback: Callback) -> &'static str {
    match callback {
        Callback::Start => "start",
        Callback::Frame => "frame",
        Callback::Timer => "timer",
        Callback::TxDone => "tx_done",
    }
}

/// A stack wrapped so every call into it is timed and recorded.
pub struct Traced {
    inner: Box<dyn NetStack>,
    layer: Layer,
    ledger: Arc<Mutex<Ledger>>,
}

impl Traced {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: Box<dyn NetStack>, ledger: Arc<Mutex<Ledger>>) -> Self {
        let layer = if inner.as_any().is::<DapesPeer>() {
            Layer::Core
        } else {
            Layer::Baselines
        };
        Traced {
            inner,
            layer,
            ledger,
        }
    }

    fn ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger
            .lock()
            .expect("ledger poisoned by a panicking stack")
    }

    fn timed(
        &mut self,
        callback: Callback,
        call: impl FnOnce(&mut dyn NetStack),
    ) -> (Duration, u64) {
        let a0 = allocs();
        let t0 = Instant::now();
        call(self.inner.as_mut());
        let dt = t0.elapsed();
        let da = allocs() - a0;
        self.ledger().calls[self.layer as usize][callback as usize].add(dt, da);
        (dt, da)
    }
}

impl NetStack for Traced {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.timed(Callback::Start, |s| s.on_start(ctx));
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        let (dt, da) = self.timed(Callback::Frame, |s| s.on_frame(ctx, frame));
        if self.layer != Layer::Core {
            return;
        }
        let Some(i) = kind_index(frame.kind) else {
            return;
        };
        // Sampled after the call, so the extra payload reference can never
        // change a copy-on-write decision inside it.
        let mut ledger = self.ledger();
        let stat = &mut ledger.frames_by_kind[i];
        stat.add(dt, da);
        if (stat.calls - 1).is_multiple_of(SAMPLE_STRIDE) {
            let sample = ledger.samples.entry(frame.kind).or_default();
            if sample.len() < SAMPLE_CAP {
                sample.push(frame.payload.clone());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.timed(Callback::Timer, |s| s.on_timer(ctx, token));
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
        self.timed(Callback::TxDone, |s| s.on_tx_done(ctx, outcome));
    }

    fn live_state_bytes(&self) -> usize {
        self.inner.live_state_bytes()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
