//! The Content Store: an in-network cache of Data packets.
//!
//! Pure forwarders in DAPES "store data transmissions they overhear in their
//! CS, thus satisfying received requests with cached data" (paper §V-A); the
//! CS is also what lets a repo or any intermediate node answer Interests for
//! popular collection packets without reaching the producer.
//!
//! The store implements NDN freshness semantics: a Data packet is *fresh*
//! until its FreshnessPeriod elapses after insertion, and Interests carrying
//! MustBeFresh are only satisfied by fresh entries. Signalling data
//! (discovery replies, bitmaps) relies on this to avoid being answered from
//! stale caches forever; immutable collection packets carry no freshness
//! and are served from cache indefinitely.
//!
//! # Storage architecture
//!
//! A production swarm caches millions of collection segments, so the store
//! is bounded by a [`CsBudget`] — either an entry count (the pre-budget
//! behaviour, kept as the trace-equivalence baseline) or a **memory budget
//! in bytes**, accounted by each packet's wire size plus a fixed per-entry
//! bookkeeping overhead. Which entry goes when the budget is exceeded is
//! decided by a pluggable [`EvictionPolicy`] — [`FifoPolicy`] (default),
//! [`LruPolicy`], [`LfuPolicy`] or [`CostAwarePolicy`] — all deterministic,
//! so same-seed runs stay bit-identical across processes.
//!
//! Entries live once in a slab [`Arena`]; the indexes hold `Copy` handles:
//!
//! * `exact` — a hash index keyed by the name's canonical wire value (one
//!   probe per overheard non-prefix Interest);
//! * `by_wire` — an *ordered* B-tree over the same keys, resolving
//!   CanBePrefix Interests with one range walk;
//! * `digests` — an optional content-hash map keyed by each packet's
//!   implicit SHA-256 digest, so a digest-addressed request resolves in one
//!   probe without touching the name indexes (the content-addressed half of
//!   the index/blob split used by production content stores).

use crate::arena::{Arena, ArenaRef};
use crate::hash::FxBuildHasher;
use crate::name::Name;
use crate::packet::Data;
use dapes_crypto::digest::Digest;
use dapes_netsim::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

/// Fixed per-entry bookkeeping overhead charged against a byte budget on
/// top of the packet's wire size (arena slot, index nodes, shared key).
pub const ENTRY_OVERHEAD: usize = 64;

#[derive(Clone, Debug)]
struct CsEntry {
    data: Data,
    inserted: SimTime,
    /// The name's canonical wire-value key, shared with the wire index so
    /// eviction never re-encodes the name.
    wire_key: Arc<[u8]>,
    /// The exact bytes this entry was charged against the budget — stored
    /// so eviction subtracts precisely what insertion added even if the
    /// accounting formula changes between the two (no drift, no underflow).
    size: usize,
    /// Re-fetch cost hint (hop distance to the origin) consulted by
    /// [`CostAwarePolicy`].
    cost: u32,
    /// Implicit digest, present when the digest index is enabled.
    digest: Option<Digest>,
}

impl CsEntry {
    /// NDN freshness: an entry satisfies MustBeFresh only while inside its
    /// FreshnessPeriod. A `freshness_ms` of 0 (the encoding for "no
    /// FreshnessPeriod", which immutable collection segments use) is
    /// *never* fresh: the segment is served to freshness-agnostic
    /// Interests indefinitely but can never answer MustBeFresh.
    fn is_fresh(&self, now: SimTime) -> bool {
        self.data.freshness_ms() > 0
            && now.since(self.inserted) <= SimDuration::from_millis(self.data.freshness_ms())
    }
}

/// How a [`ContentStore`] bounds its contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsBudget {
    /// At most this many packets (the pre-budget behaviour; the default
    /// constructor uses it so golden traces stay bit-identical).
    Count(usize),
    /// At most this many bytes, wire-size accounted: each entry is charged
    /// its encoded wire length plus [`ENTRY_OVERHEAD`].
    Bytes(usize),
}

impl CsBudget {
    /// A budget of zero caches nothing at all.
    pub fn is_zero(self) -> bool {
        matches!(self, CsBudget::Count(0) | CsBudget::Bytes(0))
    }
}

/// The built-in eviction policies, as a config-friendly enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionPolicyKind {
    /// Evict in insertion order ([`FifoPolicy`], the baseline).
    #[default]
    Fifo,
    /// Evict the least recently *served* entry ([`LruPolicy`]).
    Lru,
    /// Evict the least frequently served entry ([`LfuPolicy`]).
    Lfu,
    /// Evict the cheapest-to-refetch entry first ([`CostAwarePolicy`]).
    CostAware,
}

impl EvictionPolicyKind {
    /// Every built-in policy, FIFO (the baseline) first.
    pub const ALL: [EvictionPolicyKind; 4] = [
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::Lru,
        EvictionPolicyKind::Lfu,
        EvictionPolicyKind::CostAware,
    ];

    /// The stable report/config label.
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicyKind::Fifo => "fifo",
            EvictionPolicyKind::Lru => "lru",
            EvictionPolicyKind::Lfu => "lfu",
            EvictionPolicyKind::CostAware => "cost",
        }
    }

    /// Instantiates the policy.
    pub fn make(self) -> Box<dyn EvictionPolicy> {
        match self {
            EvictionPolicyKind::Fifo => Box::new(FifoPolicy::default()),
            EvictionPolicyKind::Lru => Box::new(LruPolicy::default()),
            EvictionPolicyKind::Lfu => Box::new(LfuPolicy::default()),
            EvictionPolicyKind::CostAware => Box::new(CostAwarePolicy::default()),
        }
    }
}

/// Decides which cached entry leaves when the store exceeds its budget.
///
/// The store drives the policy through five hooks: [`on_insert`] when a
/// new entry enters, [`on_refresh`] when an existing name is re-inserted
/// (FIFO deliberately keeps the original rank here — that is the
/// pre-budget behaviour the golden traces pin — while recency/frequency
/// policies treat a refresh as a touch), [`on_hit`] when a lookup serves
/// the entry, [`pop_victim`] when the store is over budget, and [`clear`].
///
/// Implementations **must be deterministic**: victim order may depend only
/// on the sequence of hook calls, never on hash iteration order, wall
/// clock or addresses. All four built-ins key their ranks on monotonic
/// logical clocks and break ties by arrival order, so same-workload runs
/// are bit-identical across processes.
///
/// [`on_insert`]: EvictionPolicy::on_insert
/// [`on_refresh`]: EvictionPolicy::on_refresh
/// [`on_hit`]: EvictionPolicy::on_hit
/// [`pop_victim`]: EvictionPolicy::pop_victim
/// [`clear`]: EvictionPolicy::clear
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Which built-in (or closest) flavour this policy is.
    fn kind(&self) -> EvictionPolicyKind;
    /// A new entry entered the store.
    fn on_insert(&mut self, handle: ArenaRef, cost: u32);
    /// An existing entry was re-inserted (refreshed) in place.
    fn on_refresh(&mut self, handle: ArenaRef, cost: u32);
    /// A lookup served this entry.
    fn on_hit(&mut self, handle: ArenaRef);
    /// The next entry to evict, removed from the policy's own books.
    fn pop_victim(&mut self) -> Option<ArenaRef>;
    /// Entries currently tracked (must equal the store's live count).
    fn tracked(&self) -> usize;
    /// Forget everything.
    fn clear(&mut self);
    /// Boxed clone, so [`ContentStore`] stays `Clone`.
    fn clone_box(&self) -> Box<dyn EvictionPolicy>;
}

impl Clone for Box<dyn EvictionPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// First-in-first-out eviction: the original Content Store behaviour and
/// the trace-equivalence baseline. Hits and refreshes do not move an
/// entry; victims leave in arrival order.
#[derive(Clone, Debug, Default)]
pub struct FifoPolicy {
    queue: VecDeque<ArenaRef>,
}

impl EvictionPolicy for FifoPolicy {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Fifo
    }
    fn on_insert(&mut self, handle: ArenaRef, _cost: u32) {
        self.queue.push_back(handle);
    }
    fn on_refresh(&mut self, _handle: ArenaRef, _cost: u32) {}
    fn on_hit(&mut self, _handle: ArenaRef) {}
    fn pop_victim(&mut self) -> Option<ArenaRef> {
        self.queue.pop_front()
    }
    fn tracked(&self) -> usize {
        self.queue.len()
    }
    fn clear(&mut self) {
        self.queue.clear();
    }
    fn clone_box(&self) -> Box<dyn EvictionPolicy> {
        Box::new(self.clone())
    }
}

/// Least-recently-used eviction: every served hit (and every refresh)
/// moves the entry to the most-recent end of a logical clock; victims
/// leave oldest-access first.
#[derive(Clone, Debug, Default)]
pub struct LruPolicy {
    rank: BTreeMap<u64, ArenaRef>,
    stamp: HashMap<ArenaRef, u64, FxBuildHasher>,
    clock: u64,
}

impl LruPolicy {
    fn touch(&mut self, handle: ArenaRef) {
        if let Some(old) = self.stamp.get(&handle).copied() {
            self.rank.remove(&old);
        }
        self.clock += 1;
        self.rank.insert(self.clock, handle);
        self.stamp.insert(handle, self.clock);
    }
}

impl EvictionPolicy for LruPolicy {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Lru
    }
    fn on_insert(&mut self, handle: ArenaRef, _cost: u32) {
        self.touch(handle);
    }
    fn on_refresh(&mut self, handle: ArenaRef, _cost: u32) {
        self.touch(handle);
    }
    fn on_hit(&mut self, handle: ArenaRef) {
        self.touch(handle);
    }
    fn pop_victim(&mut self) -> Option<ArenaRef> {
        let (&stamp, &handle) = self.rank.iter().next()?;
        self.rank.remove(&stamp);
        self.stamp.remove(&handle);
        Some(handle)
    }
    fn tracked(&self) -> usize {
        self.stamp.len()
    }
    fn clear(&mut self) {
        self.rank.clear();
        self.stamp.clear();
        self.clock = 0;
    }
    fn clone_box(&self) -> Box<dyn EvictionPolicy> {
        Box::new(self.clone())
    }
}

/// Least-frequently-used eviction: entries rank by (hit count, arrival
/// stamp); victims leave lowest frequency first, oldest arrival breaking
/// ties — so a cold scan cannot flush the hot set.
#[derive(Clone, Debug, Default)]
pub struct LfuPolicy {
    rank: BTreeMap<(u64, u64), ArenaRef>,
    pos: HashMap<ArenaRef, (u64, u64), FxBuildHasher>,
    clock: u64,
}

impl LfuPolicy {
    fn bump(&mut self, handle: ArenaRef) {
        if let Some(key) = self.pos.get(&handle).copied() {
            self.rank.remove(&key);
            let next = (key.0 + 1, key.1);
            self.rank.insert(next, handle);
            self.pos.insert(handle, next);
        }
    }
}

impl EvictionPolicy for LfuPolicy {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Lfu
    }
    fn on_insert(&mut self, handle: ArenaRef, _cost: u32) {
        self.clock += 1;
        let key = (0, self.clock);
        self.rank.insert(key, handle);
        self.pos.insert(handle, key);
    }
    fn on_refresh(&mut self, handle: ArenaRef, _cost: u32) {
        self.bump(handle);
    }
    fn on_hit(&mut self, handle: ArenaRef) {
        self.bump(handle);
    }
    fn pop_victim(&mut self) -> Option<ArenaRef> {
        let (&key, &handle) = self.rank.iter().next()?;
        self.rank.remove(&key);
        self.pos.remove(&handle);
        Some(handle)
    }
    fn tracked(&self) -> usize {
        self.pos.len()
    }
    fn clear(&mut self) {
        self.rank.clear();
        self.pos.clear();
        self.clock = 0;
    }
    fn clone_box(&self) -> Box<dyn EvictionPolicy> {
        Box::new(self.clone())
    }
}

/// Cost-aware eviction by hop distance: entries carry a re-fetch cost
/// hint (hops to the origin, see [`ContentStore::insert_with_cost`]);
/// victims leave cheapest-to-refetch first, oldest arrival breaking
/// ties, so content whose producer is far away survives the longest.
#[derive(Clone, Debug, Default)]
pub struct CostAwarePolicy {
    rank: BTreeMap<(u32, u64), ArenaRef>,
    pos: HashMap<ArenaRef, (u32, u64), FxBuildHasher>,
    clock: u64,
}

impl CostAwarePolicy {
    fn place(&mut self, handle: ArenaRef, cost: u32) {
        if let Some(key) = self.pos.get(&handle).copied() {
            self.rank.remove(&key);
        }
        self.clock += 1;
        let key = (cost, self.clock);
        self.rank.insert(key, handle);
        self.pos.insert(handle, key);
    }
}

impl EvictionPolicy for CostAwarePolicy {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::CostAware
    }
    fn on_insert(&mut self, handle: ArenaRef, cost: u32) {
        self.place(handle, cost);
    }
    fn on_refresh(&mut self, handle: ArenaRef, cost: u32) {
        self.place(handle, cost);
    }
    fn on_hit(&mut self, _handle: ArenaRef) {}
    fn pop_victim(&mut self) -> Option<ArenaRef> {
        let (&key, &handle) = self.rank.iter().next()?;
        self.rank.remove(&key);
        self.pos.remove(&handle);
        Some(handle)
    }
    fn tracked(&self) -> usize {
        self.pos.len()
    }
    fn clear(&mut self) {
        self.rank.clear();
        self.pos.clear();
        self.clock = 0;
    }
    fn clone_box(&self) -> Box<dyn EvictionPolicy> {
        Box::new(self.clone())
    }
}

/// Cumulative Content Store counters. Hits and misses decompose lookups
/// exactly: every public lookup records one of the two, so
/// `hits + misses == lookups` always holds (asserted by
/// [`ContentStore::audit`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsStats {
    /// Lookups through any public lookup method.
    pub lookups: u64,
    /// Lookups that returned a packet.
    pub hits: u64,
    /// Lookups that returned nothing.
    pub misses: u64,
    /// New entries admitted.
    pub insertions: u64,
    /// Re-inserts that refreshed an existing entry in place.
    pub refreshes: u64,
    /// Entries evicted over budget.
    pub evictions: u64,
    /// Packets rejected because they alone exceed a byte budget.
    pub rejected_oversize: u64,
}

/// A budget-bounded Data cache with pluggable eviction, prefix lookup,
/// an optional content-hash index and freshness semantics.
///
/// [`ContentStore::new`] keeps the historical shape — an entry-count cap
/// with FIFO eviction — bit-identical to the pre-budget store, which is
/// what the simulator's golden traces pin. [`ContentStore::with_budget`]
/// opens the production shape: a wire-size-accounted byte budget and any
/// [`EvictionPolicy`].
///
/// Every cached entry lives in the slab arena exactly once; the wire
/// indexes, digest index and eviction policy hold only `Copy` handles, so
/// refresh and eviction touch one slab slot instead of cloning
/// `Data`/`Name` per index.
///
/// # Examples
///
/// ```
/// use dapes_ndn::cs::{ContentStore, CsBudget, EvictionPolicyKind};
/// use dapes_ndn::packet::Data;
/// use dapes_ndn::name::Name;
/// use dapes_netsim::time::SimTime;
///
/// let mut cs = ContentStore::with_budget(
///     CsBudget::Bytes(64 * 1024),
///     EvictionPolicyKind::Lru,
/// );
/// let t = SimTime::ZERO;
/// cs.insert(Data::new(Name::from_uri("/col/f/0"), vec![0]), t);
/// assert!(cs.lookup(&Name::from_uri("/col/f/0"), false, false, t).is_some());
/// assert!(cs.lookup(&Name::from_uri("/col"), true, false, t).is_some());
/// assert_eq!(cs.stats().hits, 2);
/// ```
#[derive(Clone, Debug)]
pub struct ContentStore {
    arena: Arena<CsEntry>,
    /// Hash index keyed by [`Name::to_wire_value`]: the one-probe exact
    /// lookup every overheard non-prefix Interest pays, from borrowed name
    /// bytes or from a `Name` encoded once by the caller.
    exact: HashMap<Arc<[u8]>, ArenaRef, FxBuildHasher>,
    /// *Ordered* wire index over the same keys. Because byte-lexicographic
    /// order of canonical wire values equals NDN canonical `Name` order, and
    /// a name's wire value byte-extends all of its prefixes', one ordered
    /// range walk resolves a CanBePrefix Interest with the same first match
    /// a `Name`-keyed walk returns. No `Name` is built either way.
    by_wire: BTreeMap<Arc<[u8]>, ArenaRef>,
    /// Content-hash half of the dual index: implicit SHA-256 digest →
    /// entry, maintained only when the digest index is enabled.
    digests: HashMap<Digest, ArenaRef, FxBuildHasher>,
    budget: CsBudget,
    bytes: usize,
    policy: RefCell<Box<dyn EvictionPolicy>>,
    digest_index: bool,
    lookups: Cell<u64>,
    hits: Cell<u64>,
    insertions: u64,
    refreshes: u64,
    evictions: u64,
    rejected_oversize: u64,
}

impl ContentStore {
    /// Creates a store holding at most `capacity` packets with FIFO
    /// eviction — the pre-budget behaviour, byte for byte. A capacity of 0
    /// caches nothing.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(CsBudget::Count(capacity), EvictionPolicyKind::Fifo)
    }

    /// Creates a store bounded by `budget` with the given eviction policy.
    pub fn with_budget(budget: CsBudget, policy: EvictionPolicyKind) -> Self {
        ContentStore {
            arena: Arena::new(),
            exact: HashMap::default(),
            by_wire: BTreeMap::new(),
            digests: HashMap::default(),
            budget,
            bytes: 0,
            policy: RefCell::new(policy.make()),
            digest_index: false,
            lookups: Cell::new(0),
            hits: Cell::new(0),
            insertions: 0,
            refreshes: 0,
            evictions: 0,
            rejected_oversize: 0,
        }
    }

    /// Enables the content-hash (implicit-digest) index, the
    /// content-addressed half of the dual index. Each subsequent insert
    /// computes the packet's implicit SHA-256 digest and
    /// [`ContentStore::lookup_digest`] resolves it in one probe.
    ///
    /// # Panics
    ///
    /// Panics if the store already holds entries (their digests were never
    /// computed).
    pub fn with_digest_index(mut self) -> Self {
        assert!(
            self.is_empty(),
            "enable the digest index before inserting entries"
        );
        self.digest_index = true;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> CsBudget {
        self.budget
    }

    /// The configured eviction policy flavour.
    pub fn policy_kind(&self) -> EvictionPolicyKind {
        self.policy.borrow().kind()
    }

    /// Re-bounds the store at runtime. Shrinking below the current
    /// contents evicts immediately (policy order) until the new budget
    /// holds; the byte accounting is exact before the call returns.
    pub fn set_budget(&mut self, budget: CsBudget) {
        self.budget = budget;
        self.evict_over_budget();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CsStats {
        let lookups = self.lookups.get();
        let hits = self.hits.get();
        CsStats {
            lookups,
            hits,
            misses: lookups - hits,
            insertions: self.insertions,
            refreshes: self.refreshes,
            evictions: self.evictions,
            rejected_oversize: self.rejected_oversize,
        }
    }

    /// Number of cached packets.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget (exactly the sum of the
    /// live entries' accounted sizes).
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Approximate bytes of cached state (Table I memory proxy), including
    /// the exact-match wire index's key bytes and per-entry overhead (its
    /// `Data` clones share the cached packets' buffers, so only the
    /// bookkeeping is counted).
    pub fn state_bytes(&self) -> usize {
        self.bytes + self.by_wire.keys().map(|k| k.len() + 48).sum::<usize>()
    }

    /// Live entries in the slab arena (mirrors [`ContentStore::len`];
    /// exported as the `cs_arena_live` stat).
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Arena slots ever allocated — bounded by peak cache occupancy, not
    /// by insert volume.
    pub fn arena_allocated(&self) -> usize {
        self.arena.allocated()
    }

    /// What one packet is charged against the budget: the historical
    /// content + name-state formula under [`CsBudget::Count`] (keeping the
    /// Table I proxy identical to the pre-budget store), the wire size
    /// plus [`ENTRY_OVERHEAD`] under [`CsBudget::Bytes`].
    fn entry_size(&self, data: &Data) -> usize {
        match self.budget {
            CsBudget::Count(_) => data.content().len() + data.name().state_bytes() + 64,
            CsBudget::Bytes(_) => data.wire_size() + ENTRY_OVERHEAD,
        }
    }

    fn over_budget(&self) -> bool {
        match self.budget {
            CsBudget::Count(n) => self.len() > n,
            CsBudget::Bytes(b) => self.bytes > b,
        }
    }

    /// Inserts a Data packet with re-fetch cost 0. See
    /// [`ContentStore::insert_with_cost`].
    pub fn insert(&mut self, data: Data, now: SimTime) {
        self.insert_with_cost(data, 0, now);
    }

    /// Inserts a Data packet, evicting in policy order while over budget.
    ///
    /// Re-inserting an existing name refreshes the stored packet (and its
    /// freshness clock) in place without consuming extra capacity; the
    /// eviction rank refreshes per policy — FIFO keeps the original
    /// arrival rank (the pre-budget behaviour golden traces pin), the
    /// recency/frequency/cost policies treat the refresh as a touch. A
    /// zero budget caches nothing — the entry never enters the tables, so
    /// a refresh can't resurrect it either. Under a byte budget, a packet
    /// that alone exceeds the whole budget is rejected outright (counted
    /// in [`CsStats::rejected_oversize`]) instead of flushing every other
    /// entry on its way to an inevitable self-eviction; an existing entry
    /// under the same name stays untouched.
    ///
    /// `cost` is the re-fetch cost hint (hop distance to the origin)
    /// consulted by [`CostAwarePolicy`]; other policies ignore it.
    pub fn insert_with_cost(&mut self, data: Data, cost: u32, now: SimTime) {
        if self.budget.is_zero() {
            return;
        }
        let size = self.entry_size(&data);
        if let CsBudget::Bytes(b) = self.budget {
            if size > b {
                self.rejected_oversize += 1;
                return;
            }
        }
        let digest = if self.digest_index {
            Some(data.implicit_digest())
        } else {
            None
        };
        // Encode the name once; on a miss, entry and both wire indexes
        // share the key.
        let wire_key: Arc<[u8]> = data.name().to_wire_value().into();
        if let Some(&handle) = self.exact.get(&*wire_key) {
            // Refresh in place: the indexes are untouched (same name, same
            // digest-of-identical-wire unless the content changed, which the
            // digest map tracks).
            let entry = self
                .arena
                .get_mut(handle)
                .expect("indexed handles are live");
            let old_size = entry.size;
            if entry.digest != digest {
                if let Some(old) = entry.digest {
                    self.digests.remove(&old);
                }
                if let Some(new) = digest {
                    self.digests.insert(new, handle);
                }
                entry.digest = digest;
            }
            entry.data = data;
            entry.inserted = now;
            entry.size = size;
            entry.cost = cost;
            self.bytes = self.bytes.saturating_sub(old_size) + size;
            self.refreshes += 1;
            self.policy.get_mut().on_refresh(handle, cost);
        } else {
            let handle = self.arena.insert(CsEntry {
                data,
                inserted: now,
                wire_key: wire_key.clone(),
                size,
                cost,
                digest,
            });
            self.exact.insert(wire_key.clone(), handle);
            self.by_wire.insert(wire_key, handle);
            if let Some(d) = digest {
                self.digests.insert(d, handle);
            }
            self.bytes += size;
            self.insertions += 1;
            self.policy.get_mut().on_insert(handle, cost);
        }
        self.evict_over_budget();
    }

    /// Evicts in policy order until the budget holds again. The byte
    /// accounting subtracts each victim's recorded size with saturating
    /// arithmetic, so `bytes` always equals the sum over live entries and
    /// can never underflow.
    fn evict_over_budget(&mut self) {
        while self.over_budget() {
            let Some(victim) = self.policy.get_mut().pop_victim() else {
                return;
            };
            let Some(old) = self.arena.remove(victim) else {
                // A stale handle (already removed elsewhere) costs one loop
                // turn and is skipped; the indexes were cleaned when the
                // entry actually left.
                continue;
            };
            self.exact.remove(&*old.wire_key);
            self.by_wire.remove(&*old.wire_key);
            if let Some(d) = old.digest {
                self.digests.remove(&d);
            }
            self.bytes = self.bytes.saturating_sub(old.size);
            self.evictions += 1;
        }
    }

    fn entry(&self, handle: ArenaRef) -> &CsEntry {
        self.arena.get(handle).expect("indexed handles are live")
    }

    /// A hit on a live entry: tells the eviction policy and hands out the
    /// packet.
    fn serve(&self, handle: ArenaRef) -> &Data {
        self.policy.borrow_mut().on_hit(handle);
        &self.entry(handle).data
    }

    fn record(&self, hit: bool) {
        self.lookups.set(self.lookups.get() + 1);
        if hit {
            self.hits.set(self.hits.get() + 1);
        }
    }

    /// Looks up a packet for an Interest with the given semantics:
    /// `can_be_prefix` also matches names extending `name`;
    /// `must_be_fresh` only matches entries still within their
    /// FreshnessPeriod.
    pub fn lookup(
        &self,
        name: &Name,
        can_be_prefix: bool,
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<&Data> {
        let wire = name.to_wire_value();
        if can_be_prefix {
            self.lookup_wire_prefix(&wire, must_be_fresh, now)
        } else {
            self.lookup_wire_exact(&wire, must_be_fresh, now)
        }
    }

    /// Exact-name lookup ignoring freshness.
    pub fn lookup_exact(&self, name: &Name) -> Option<&Data> {
        let found = self
            .exact
            .get(name.to_wire_value().as_slice())
            .map(|&h| self.serve(h));
        self.record(found.is_some());
        found
    }

    /// Exact-name lookup against a peeked frame's borrowed name bytes, with
    /// the same freshness semantics as [`ContentStore::lookup`] for a
    /// non-CanBePrefix Interest — one hash probe, no `Name` construction.
    pub fn lookup_wire_exact(
        &self,
        name_wire: &[u8],
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<&Data> {
        let found = self
            .exact
            .get(name_wire)
            .copied()
            .filter(|&h| !must_be_fresh || self.entry(h).is_fresh(now))
            .map(|h| self.serve(h));
        self.record(found.is_some());
        found
    }

    /// Prefix lookup against a peeked frame's borrowed name bytes, with the
    /// same semantics — and, crucially, the same iteration order and
    /// therefore the same first match — as [`ContentStore::lookup`] with
    /// `can_be_prefix`. One ordered range walk, no `Name` construction.
    ///
    /// The caller must have validated that `name_wire` is a *complete* name
    /// TLV region (e.g. via [`crate::name::wire_component_boundaries`]): a
    /// region truncated mid-component could otherwise byte-prefix-match a
    /// cached name that is not a semantic extension of it.
    pub fn lookup_wire_prefix(
        &self,
        name_wire: &[u8],
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<&Data> {
        let found = self
            .by_wire
            .range::<[u8], _>((Bound::Included(name_wire), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(name_wire))
            .map(|(_, &h)| h)
            .find(|&h| !must_be_fresh || self.entry(h).is_fresh(now))
            .map(|h| self.serve(h));
        self.record(found.is_some());
        found
    }

    /// Content-addressed lookup: resolves a packet by its implicit
    /// SHA-256 digest in one probe, independent of its name. Freshness is
    /// irrelevant here — a digest names immutable bytes. Returns `None`
    /// when the digest index is disabled (see
    /// [`ContentStore::with_digest_index`]) or the digest is unknown.
    pub fn lookup_digest(&self, digest: &Digest) -> Option<&Data> {
        let found = self.digests.get(digest).map(|&h| self.serve(h));
        self.record(found.is_some());
        found
    }

    /// Prefix lookup ignoring freshness.
    pub fn lookup_prefix(&self, prefix: &Name) -> Option<&Data> {
        self.lookup(prefix, true, false, SimTime::ZERO)
    }

    /// Removes everything (used when resetting a node). Cumulative
    /// counters are kept.
    pub fn clear(&mut self) {
        self.arena = Arena::new();
        self.exact.clear();
        self.by_wire.clear();
        self.digests.clear();
        self.policy.get_mut().clear();
        self.bytes = 0;
    }

    /// Checks every cross-index invariant, returning the first violation:
    ///
    /// * the exact, ordered and digest indexes agree with the arena (no
    ///   dangling key resolves to a dead or different entry);
    /// * the eviction policy tracks exactly the live entries;
    /// * the tracked bytes equal the sum of live entries' recorded sizes;
    /// * the hit/miss counters decompose lookups exactly;
    /// * the store is within budget.
    ///
    /// Test and benchmark infrastructure; not called on hot paths.
    pub fn audit(&self) -> Result<(), String> {
        let stats = self.stats();
        if stats.hits + stats.misses != stats.lookups {
            return Err(format!(
                "counters do not decompose: {} hits + {} misses != {} lookups",
                stats.hits, stats.misses, stats.lookups
            ));
        }
        if self.over_budget() {
            return Err(format!(
                "over budget after quiescence: {} entries / {} bytes vs {:?}",
                self.len(),
                self.bytes,
                self.budget
            ));
        }
        if self.exact.len() != self.by_wire.len() || self.exact.len() != self.arena.live() {
            return Err(format!(
                "index sizes diverge: exact {} / by_wire {} / arena {}",
                self.exact.len(),
                self.by_wire.len(),
                self.arena.live()
            ));
        }
        let tracked = self.policy.borrow().tracked();
        if tracked != self.arena.live() {
            return Err(format!(
                "policy tracks {} entries, arena holds {}",
                tracked,
                self.arena.live()
            ));
        }
        let mut sum = 0usize;
        for (key, &h) in &self.by_wire {
            let Some(entry) = self.arena.get(h) else {
                return Err(format!("dangling ordered-index key {key:?}"));
            };
            if entry.wire_key != *key {
                return Err("ordered-index key resolves to a different entry".into());
            }
            if self.exact.get(key) != Some(&h) {
                return Err("exact and ordered indexes disagree".into());
            }
            if let Some(d) = entry.digest {
                if self.digests.get(&d) != Some(&h) {
                    return Err("digest index misses a live entry's digest".into());
                }
            }
            sum += entry.size;
        }
        if self.digests.len() > self.exact.len() {
            return Err("digest index holds more keys than live entries".into());
        }
        for (d, &h) in &self.digests {
            if self.arena.get(h).is_none() {
                return Err(format!("dangling digest-index key {d}"));
            }
        }
        if sum != self.bytes {
            return Err(format!(
                "byte accounting drifted: tracked {} vs summed {}",
                self.bytes, sum
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(uri: &str) -> Data {
        Data::new(Name::from_uri(uri), vec![0; 16])
    }

    fn sized_data(uri: &str, bytes: usize) -> Data {
        Data::new(Name::from_uri(uri), vec![0xAB; bytes])
    }

    fn fresh_data(uri: &str, freshness_ms: u64) -> Data {
        Data::new(Name::from_uri(uri), vec![0; 16]).with_freshness_ms(freshness_ms)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn exact_hit_and_miss() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/0"), t(0));
        assert!(cs.lookup_exact(&Name::from_uri("/col/f/0")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/col/f/1")).is_none());
        let stats = cs.stats();
        assert_eq!((stats.hits, stats.misses, stats.lookups), (1, 1, 2));
        cs.audit().expect("clean");
    }

    #[test]
    fn wire_exact_lookup_mirrors_name_lookup() {
        let mut cs = ContentStore::new(2);
        cs.insert(fresh_data("/col/f/0", 1_000), t(0));
        let key = Name::from_uri("/col/f/0").to_wire_value();
        assert_eq!(
            cs.lookup_wire_exact(&key, false, t(0)),
            cs.lookup(&Name::from_uri("/col/f/0"), false, false, t(0)),
        );
        // Freshness semantics match too.
        assert!(cs.lookup_wire_exact(&key, true, t(0)).is_some());
        assert!(cs.lookup_wire_exact(&key, true, t(5)).is_none());
        assert!(cs.lookup_wire_exact(&key, false, t(5)).is_some());
        // Eviction and clear keep the index in sync.
        cs.insert(data("/a"), t(1));
        cs.insert(data("/b"), t(2)); // evicts /col/f/0
        assert!(cs.lookup_wire_exact(&key, false, t(2)).is_none());
        let b_key = Name::from_uri("/b").to_wire_value();
        assert!(cs.lookup_wire_exact(&b_key, false, t(2)).is_some());
        cs.clear();
        assert!(cs.lookup_wire_exact(&b_key, false, t(2)).is_none());
    }

    #[test]
    fn wire_prefix_lookup_mirrors_name_lookup() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/3"), t(0));
        cs.insert(fresh_data("/col/f/5", 1_000), t(0));
        cs.insert(data("/cole/x"), t(0));
        for (q, fresh) in [
            ("/col", false),
            ("/col", true),
            ("/col/f", false),
            ("/col/f/3", false),
            ("/col/g", false),
            ("/cole", false),
            ("/other", false),
            ("/", false),
        ] {
            let name = Name::from_uri(q);
            assert_eq!(
                cs.lookup_wire_prefix(&name.to_wire_value(), fresh, t(0)),
                cs.lookup(&name, true, fresh, t(0)),
                "query {q} fresh={fresh}"
            );
        }
        // The ordered walk returns the same *first* match as the Name
        // walk, not just any match: /col/f/3 (stale-forever) precedes
        // /col/f/5.
        let got = cs
            .lookup_wire_prefix(&Name::from_uri("/col").to_wire_value(), false, t(0))
            .expect("hit");
        assert_eq!(got.name().to_string(), "/col/f/3");
        let fresh_only = cs
            .lookup_wire_prefix(&Name::from_uri("/col").to_wire_value(), true, t(0))
            .expect("fresh hit further along the range");
        assert_eq!(fresh_only.name().to_string(), "/col/f/5");
    }

    #[test]
    fn prefix_hit() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/3"), t(0));
        assert!(cs.lookup_prefix(&Name::from_uri("/col")).is_some());
        assert!(cs.lookup_prefix(&Name::from_uri("/col/f")).is_some());
        assert!(cs.lookup_prefix(&Name::from_uri("/col/g")).is_none());
        assert!(cs.lookup_prefix(&Name::from_uri("/other")).is_none());
    }

    #[test]
    fn prefix_does_not_match_sibling() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/cole/f/0"), t(0));
        // "/col" is a string prefix of "/cole" but not a name prefix.
        assert!(cs.lookup_prefix(&Name::from_uri("/col")).is_none());
    }

    #[test]
    fn exact_name_prefix_query_finds_itself() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col"), t(0));
        assert!(cs.lookup_prefix(&Name::from_uri("/col")).is_some());
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        cs.insert(data("/c"), t(2));
        assert_eq!(cs.len(), 2);
        assert!(
            cs.lookup_exact(&Name::from_uri("/a")).is_none(),
            "oldest evicted"
        );
        assert!(cs.lookup_exact(&Name::from_uri("/b")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/c")).is_some());
        assert_eq!(cs.stats().evictions, 1);
        cs.audit().expect("clean");
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/a"), t(1));
        cs.insert(data("/b"), t(2));
        assert_eq!(cs.len(), 2);
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_some());
        let stats = cs.stats();
        assert_eq!((stats.insertions, stats.refreshes), (2, 1));
    }

    #[test]
    fn reinsert_keeps_fifo_rank_in_both_generations() {
        // The eviction-vs-refresh contract the golden traces pin: under
        // FIFO, re-inserting an existing name refreshes the packet and
        // freshness clock but keeps the original arrival rank.
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        cs.insert(data("/a"), t(2)); // refresh, rank unchanged
        cs.insert(data("/c"), t(3)); // evicts /a (oldest arrival)
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_none());
        assert!(cs.lookup_exact(&Name::from_uri("/b")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/c")).is_some());
        cs.audit().expect("no dangling keys after refresh+evict");
    }

    #[test]
    fn eviction_leaves_no_dangling_wire_index_keys() {
        // Regression for the eviction-vs-refresh audit: after interleaved
        // refreshes and evictions, both wire indexes must only hold keys
        // that resolve to live entries.
        let mut cs = ContentStore::new(3);
        for round in 0..20u64 {
            cs.insert(data(&format!("/n/{}", round % 7)), t(round));
            cs.insert(data(&format!("/n/{}", (round + 3) % 7)), t(round));
            cs.audit().expect("indexes in sync after every insert");
        }
    }

    #[test]
    fn must_be_fresh_rejects_nonfresh_data() {
        let mut cs = ContentStore::new(10);
        // No freshness period: never satisfies MustBeFresh.
        cs.insert(data("/d/x"), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(0))
            .is_none());
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, false, t(0))
            .is_some());
    }

    #[test]
    fn zero_freshness_is_never_fresh_on_every_path() {
        // Pins the immutable-segment semantics: freshness_ms == 0 means
        // "no FreshnessPeriod" — served to freshness-agnostic Interests
        // forever, NEVER to MustBeFresh — and the header fast path
        // (borrowed wire bytes) must agree with the eager Name path at
        // every instant, including t == insertion time.
        let mut cs = ContentStore::new(10);
        let name = Name::from_uri("/col/seg/0");
        cs.insert(fresh_data("/col/seg/0", 0), t(0));
        let wire = name.to_wire_value();
        for now in [t(0), t(1), t(1_000_000)] {
            assert!(cs.lookup(&name, false, true, now).is_none(), "{now:?}");
            assert!(cs.lookup_wire_exact(&wire, true, now).is_none());
            assert!(cs.lookup_wire_prefix(&wire, true, now).is_none());
            assert!(cs.lookup(&name, false, false, now).is_some());
            assert!(cs.lookup_wire_exact(&wire, false, now).is_some());
            assert!(cs.lookup_wire_prefix(&wire, false, now).is_some());
        }
    }

    #[test]
    fn freshness_expires_over_time() {
        let mut cs = ContentStore::new(10);
        cs.insert(fresh_data("/d/x", 1_000), t(10));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(10))
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(11))
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(12))
            .is_none());
        // Still served to freshness-agnostic Interests.
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, false, t(12))
            .is_some());
    }

    #[test]
    fn reinsert_restarts_freshness_clock() {
        let mut cs = ContentStore::new(10);
        cs.insert(fresh_data("/d/x", 1_000), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(5))
            .is_none());
        cs.insert(fresh_data("/d/x", 1_000), t(5));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(5))
            .is_some());
    }

    #[test]
    fn prefix_lookup_skips_stale_finds_fresh() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/p/a"), t(0)); // stale forever
        cs.insert(fresh_data("/p/b", 10_000), t(0));
        let got = cs
            .lookup(&Name::from_uri("/p"), true, true, t(1))
            .expect("fresh entry further in the range");
        assert_eq!(got.name().to_string(), "/p/b");
    }

    #[test]
    fn lookup_respects_can_be_prefix_flag() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/0"), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/col"), true, false, t(0))
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/col"), false, false, t(0))
            .is_none());
    }

    #[test]
    fn zero_capacity_store_caches_nothing() {
        // Regression: the old post-insert eviction loop transiently held
        // one entry at capacity 0, and a refreshing re-insert resurrected
        // it indefinitely.
        let mut cs = ContentStore::new(0);
        cs.insert(data("/a"), t(0));
        assert!(cs.is_empty());
        assert_eq!(cs.state_bytes(), 0);
        cs.insert(data("/a"), t(1)); // would refresh if anything survived
        cs.insert(data("/a"), t(2));
        assert!(cs.is_empty(), "refresh must not resurrect an entry");
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_none());
        assert!(cs
            .lookup_wire_exact(&Name::from_uri("/a").to_wire_value(), false, t(2))
            .is_none());
        assert_eq!(cs.arena_live(), 0);
        assert_eq!(cs.arena_allocated(), 0, "nothing may enter the arena");
    }

    #[test]
    fn zero_byte_budget_caches_nothing() {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(0), EvictionPolicyKind::Lru);
        cs.insert(data("/a"), t(0));
        assert!(cs.is_empty());
        assert_eq!(cs.arena_allocated(), 0);
        cs.audit().expect("clean");
    }

    #[test]
    fn eviction_churn_reuses_arena_slots_and_keeps_indexes_synced() {
        let mut cs = ContentStore::new(2);
        for round in 0..50u64 {
            cs.insert(data(&format!("/n/{round}")), t(round));
        }
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.arena_live(), 2);
        assert!(
            cs.arena_allocated() <= 3,
            "allocation must track capacity, not volume: {}",
            cs.arena_allocated()
        );
        // Only the two newest survive, in every index.
        for round in 0..48u64 {
            let name = Name::from_uri(&format!("/n/{round}"));
            assert!(cs.lookup_exact(&name).is_none());
            assert!(cs
                .lookup_wire_exact(&name.to_wire_value(), false, t(50))
                .is_none());
        }
        for round in 48..50u64 {
            let name = Name::from_uri(&format!("/n/{round}"));
            assert!(cs.lookup_exact(&name).is_some());
            assert!(cs
                .lookup_wire_exact(&name.to_wire_value(), false, t(50))
                .is_some());
        }
    }

    #[test]
    fn state_bytes_grow_and_shrink() {
        let mut cs = ContentStore::new(1);
        assert_eq!(cs.state_bytes(), 0);
        cs.insert(data("/a"), t(0));
        let b1 = cs.state_bytes();
        assert!(b1 > 0);
        cs.insert(data("/b"), t(1)); // evicts /a
        assert!(cs.state_bytes() > 0);
        cs.clear();
        assert_eq!(cs.state_bytes(), 0);
    }

    #[test]
    fn byte_budget_evicts_by_size_not_count() {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(1024), EvictionPolicyKind::Fifo);
        let per = sized_data("/a", 100).wire_size() + ENTRY_OVERHEAD;
        let fit = 1024 / per;
        for i in 0..20 {
            cs.insert(sized_data(&format!("/n/{i}"), 100), t(i as u64));
        }
        assert!(
            cs.len() <= fit,
            "{} entries exceed the byte budget",
            cs.len()
        );
        assert!(cs.resident_bytes() <= 1024);
        assert!(cs.stats().evictions > 0);
        cs.audit().expect("clean");
    }

    #[test]
    fn oversize_packet_is_rejected_not_destructive() {
        // A packet larger than the whole budget must not flush the cache
        // on its way to an inevitable self-eviction.
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(2048), EvictionPolicyKind::Fifo);
        cs.insert(sized_data("/keep/a", 64), t(0));
        cs.insert(sized_data("/keep/b", 64), t(1));
        let before = cs.len();
        cs.insert(sized_data("/huge", 4096), t(2));
        assert_eq!(cs.len(), before, "resident set untouched");
        assert!(cs.lookup_exact(&Name::from_uri("/keep/a")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/huge")).is_none());
        assert_eq!(cs.stats().rejected_oversize, 1);
        cs.audit().expect("clean");
    }

    #[test]
    fn budget_smaller_than_one_packet_holds_nothing_without_underflow() {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(16), EvictionPolicyKind::Lru);
        for i in 0..5 {
            cs.insert(sized_data(&format!("/n/{i}"), 200), t(i as u64));
            assert!(cs.is_empty());
            assert_eq!(cs.resident_bytes(), 0, "no underflow");
            cs.audit().expect("clean");
        }
        assert_eq!(cs.stats().rejected_oversize, 5);
    }

    #[test]
    fn shrinking_the_budget_evicts_immediately() {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(1 << 20), EvictionPolicyKind::Fifo);
        for i in 0..10 {
            cs.insert(sized_data(&format!("/n/{i}"), 100), t(i as u64));
        }
        assert_eq!(cs.len(), 10);
        let two = 2 * (sized_data("/n/0", 100).wire_size() + ENTRY_OVERHEAD);
        cs.set_budget(CsBudget::Bytes(two));
        assert!(cs.len() <= 2, "shrink must evict immediately: {}", cs.len());
        assert!(cs.resident_bytes() <= two);
        // FIFO: the newest entries survive.
        assert!(cs.lookup_exact(&Name::from_uri("/n/9")).is_some());
        cs.audit().expect("clean");
        // Shrinking to a count budget works the same way.
        cs.set_budget(CsBudget::Count(1));
        assert_eq!(cs.len(), 1);
        cs.set_budget(CsBudget::Count(0));
        assert!(cs.is_empty());
        assert_eq!(cs.resident_bytes(), 0);
        cs.audit().expect("clean");
    }

    #[test]
    fn lru_evicts_least_recently_served() {
        let mut cs = ContentStore::with_budget(CsBudget::Count(2), EvictionPolicyKind::Lru);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        // Serve /a, making /b the LRU victim.
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_some());
        cs.insert(data("/c"), t(2));
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/b")).is_none());
        assert!(cs.lookup_exact(&Name::from_uri("/c")).is_some());
        cs.audit().expect("clean");
    }

    #[test]
    fn lru_refresh_counts_as_a_touch() {
        let mut cs = ContentStore::with_budget(CsBudget::Count(2), EvictionPolicyKind::Lru);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        cs.insert(data("/a"), t(2)); // refresh touches /a; /b becomes victim
        cs.insert(data("/c"), t(3));
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/b")).is_none());
    }

    #[test]
    fn lfu_protects_the_hot_set_from_a_cold_scan() {
        let mut cs = ContentStore::with_budget(CsBudget::Count(3), EvictionPolicyKind::Lfu);
        cs.insert(data("/hot"), t(0));
        for _ in 0..5 {
            assert!(cs.lookup_exact(&Name::from_uri("/hot")).is_some());
        }
        // A scan of cold names churns among themselves; /hot survives.
        for i in 0..10 {
            cs.insert(data(&format!("/cold/{i}")), t(1 + i as u64));
        }
        assert!(cs.lookup_exact(&Name::from_uri("/hot")).is_some());
        assert_eq!(cs.len(), 3);
        cs.audit().expect("clean");
    }

    #[test]
    fn cost_aware_evicts_cheapest_to_refetch_first() {
        let mut cs = ContentStore::with_budget(CsBudget::Count(2), EvictionPolicyKind::CostAware);
        cs.insert_with_cost(data("/far"), 8, t(0));
        cs.insert_with_cost(data("/near"), 1, t(1));
        cs.insert_with_cost(data("/mid"), 4, t(2)); // evicts /near (cost 1)
        assert!(cs.lookup_exact(&Name::from_uri("/far")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/near")).is_none());
        assert!(cs.lookup_exact(&Name::from_uri("/mid")).is_some());
        cs.audit().expect("clean");
    }

    #[test]
    fn digest_index_resolves_in_one_probe_and_follows_eviction() {
        let mut cs = ContentStore::with_budget(CsBudget::Count(2), EvictionPolicyKind::Fifo)
            .with_digest_index();
        let a = data("/a");
        let digest_a = a.implicit_digest();
        cs.insert(a, t(0));
        assert_eq!(
            cs.lookup_digest(&digest_a).map(|d| d.name().to_string()),
            Some("/a".to_owned())
        );
        // Refresh with different content re-keys the digest.
        let a2 = sized_data("/a", 32);
        let digest_a2 = a2.implicit_digest();
        cs.insert(a2, t(1));
        assert!(cs.lookup_digest(&digest_a).is_none(), "old digest dropped");
        assert!(cs.lookup_digest(&digest_a2).is_some());
        // Eviction drops the digest key with the entry.
        cs.insert(data("/b"), t(2));
        cs.insert(data("/c"), t(3)); // evicts /a
        assert!(cs.lookup_digest(&digest_a2).is_none());
        cs.audit().expect("clean");
        // Disabled index answers nothing.
        let plain = ContentStore::new(4);
        assert!(plain.lookup_digest(&digest_a).is_none());
    }

    #[test]
    fn policies_report_their_kind_and_labels_are_distinct() {
        let mut seen = Vec::new();
        for kind in EvictionPolicyKind::ALL {
            let cs = ContentStore::with_budget(CsBudget::Count(4), kind);
            assert_eq!(cs.policy_kind(), kind);
            assert!(!seen.contains(&kind.label()));
            seen.push(kind.label());
        }
    }

    #[test]
    fn clone_preserves_contents_policy_and_counters() {
        let mut cs = ContentStore::with_budget(CsBudget::Count(4), EvictionPolicyKind::Lru);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_some());
        let mut cloned = cs.clone();
        assert_eq!(cloned.stats(), cs.stats());
        // The clone's LRU state matches: /b is the victim in both.
        cloned.set_budget(CsBudget::Count(1));
        assert!(cloned.lookup_exact(&Name::from_uri("/a")).is_some());
        assert!(cloned.lookup_exact(&Name::from_uri("/b")).is_none());
        cloned.audit().expect("clean");
        cs.audit().expect("original untouched");
        assert_eq!(cs.len(), 2);
    }
}
