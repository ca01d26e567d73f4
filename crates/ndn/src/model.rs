//! Reference models of the PIT and Content Store, for differential tests.
//!
//! Each model is the naive table an NDN textbook would draw: one
//! `BTreeMap` keyed by [`Name`], prefix matching through [`Name::prefix`] /
//! [`Name::is_prefix_of`], and FIFO eviction by arrival order. The
//! proptests below drive the arena tables and the models with the same
//! random operation sequences and require identical observable results,
//! including through the borrowed-wire-bytes probes the peek fast path
//! uses. The Content Store side also runs [`ContentStore::audit`] after
//! every operation.

use crate::cs::ContentStore;
use crate::face::FaceId;
use crate::name::Name;
use crate::packet::Data;
use crate::pit::{Pit, PitInsert};
use dapes_netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Names the operations draw from: nested prefixes, a sibling that is a
/// string prefix but not a name prefix (`/ab` vs `/a/b`), and the root.
const NAMES: [&str; 10] = [
    "/", "/a", "/a/b", "/a/b/c", "/a/bc", "/ab", "/col", "/col/f", "/col/f/0", "/col/f/1",
];

fn name(idx: usize) -> Name {
    Name::from_uri(NAMES[idx % NAMES.len()])
}

struct ModelPitEntry {
    can_be_prefix: bool,
    downstreams: Vec<FaceId>,
    nonces: Vec<u32>,
    expiry: SimTime,
}

/// What a PIT match hands back, as compared between model and arena.
type Taken = (Name, bool, Vec<FaceId>, Vec<u32>, SimTime);

#[derive(Default)]
struct ModelPit {
    entries: BTreeMap<Name, ModelPitEntry>,
}

impl ModelPit {
    fn insert(
        &mut self,
        name: &Name,
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> PitInsert {
        let Some(e) = self.entries.get_mut(name) else {
            self.entries.insert(
                name.clone(),
                ModelPitEntry {
                    can_be_prefix,
                    downstreams: vec![ingress],
                    nonces: vec![nonce],
                    expiry,
                },
            );
            return PitInsert::New;
        };
        if e.nonces.contains(&nonce) {
            return PitInsert::DuplicateNonce;
        }
        e.nonces.push(nonce);
        e.can_be_prefix |= can_be_prefix;
        e.expiry = e.expiry.max(expiry);
        if !e.downstreams.contains(&ingress) {
            e.downstreams.push(ingress);
        }
        PitInsert::Aggregated
    }

    fn has_nonce(&self, name: &Name, nonce: u32) -> bool {
        self.entries
            .get(name)
            .is_some_and(|e| e.nonces.contains(&nonce))
    }

    fn is_cbp_prefix(&self, prefix: &Name) -> bool {
        self.entries.get(prefix).is_some_and(|e| e.can_be_prefix)
    }

    fn matches(&self, data_name: &Name) -> bool {
        self.entries.contains_key(data_name)
            || (0..data_name.len()).any(|k| self.is_cbp_prefix(&data_name.prefix(k)))
    }

    /// Exact entry first, then CanBePrefix entries shortest-first.
    fn take_matching(&mut self, data_name: &Name) -> Vec<Taken> {
        let mut keys = vec![data_name.clone()];
        keys.extend(
            (0..data_name.len())
                .map(|k| data_name.prefix(k))
                .filter(|p| self.is_cbp_prefix(p)),
        );
        keys.into_iter()
            .filter_map(|k| {
                let e = self.entries.remove(&k)?;
                Some((k, e.can_be_prefix, e.downstreams, e.nonces, e.expiry))
            })
            .collect()
    }

    fn expire(&mut self, now: SimTime) -> Vec<Name> {
        let expired: Vec<Name> = self
            .entries
            .iter()
            .filter(|(_, e)| e.expiry <= now)
            .map(|(n, _)| n.clone())
            .collect();
        for n in &expired {
            self.entries.remove(n);
        }
        expired
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.entries.values().map(|e| e.expiry).min()
    }
}

/// A count-capped FIFO cache. Re-inserting a cached name refreshes the
/// packet and its freshness clock but keeps the arrival rank.
struct ModelCs {
    capacity: usize,
    entries: BTreeMap<Name, (Data, SimTime)>,
    fifo: VecDeque<Name>,
    lookups: u64,
    hits: u64,
    insertions: u64,
    refreshes: u64,
    evictions: u64,
}

impl ModelCs {
    fn new(capacity: usize) -> Self {
        ModelCs {
            capacity,
            entries: BTreeMap::new(),
            fifo: VecDeque::new(),
            lookups: 0,
            hits: 0,
            insertions: 0,
            refreshes: 0,
            evictions: 0,
        }
    }

    fn insert(&mut self, data: Data, now: SimTime) {
        if self.capacity == 0 {
            return;
        }
        let name = data.name().clone();
        if let Some(slot) = self.entries.get_mut(&name) {
            *slot = (data, now);
            self.refreshes += 1;
            return;
        }
        self.entries.insert(name.clone(), (data, now));
        self.fifo.push_back(name);
        self.insertions += 1;
        while self.entries.len() > self.capacity {
            let victim = self.fifo.pop_front().expect("fifo tracks entries");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }

    fn lookup(
        &mut self,
        name: &Name,
        can_be_prefix: bool,
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<Name> {
        let usable = |(data, inserted): &(Data, SimTime)| {
            !must_be_fresh
                || (data.freshness_ms() > 0
                    && now.since(*inserted) <= SimDuration::from_millis(data.freshness_ms()))
        };
        let found = if can_be_prefix {
            self.entries
                .range(name.clone()..)
                .take_while(|(n, _)| name.is_prefix_of(n))
                .find(|(_, e)| usable(e))
                .map(|(n, _)| n.clone())
        } else {
            self.entries
                .get(name)
                .filter(|e| usable(e))
                .map(|_| name.clone())
        };
        self.lookups += 1;
        self.hits += u64::from(found.is_some());
        found
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pit_matches_naive_model(
        ops in proptest::collection::vec(
            (0u8..5, 0usize..NAMES.len(), 0u32..4, any::<bool>()), 1..80),
    ) {
        let mut pit = Pit::new();
        let mut model = ModelPit::default();
        let mut now = SimTime::ZERO;
        for (op, idx, arg, flag) in ops {
            let n = name(idx);
            let wire = n.to_wire_value();
            match op {
                0 => {
                    let face = if flag { FaceId::WIRELESS } else { FaceId::APP };
                    let expiry = now + SimDuration::from_millis(500 * (1 + arg as u64));
                    prop_assert_eq!(
                        pit.insert(&n, arg, flag, face, expiry),
                        model.insert(&n, arg, flag, face, expiry),
                        "insert {} nonce {}", n, arg
                    );
                }
                1 => {
                    let expected = model.matches(&n);
                    prop_assert_eq!(pit.matches(&n), expected, "matches {}", n);
                    prop_assert_eq!(pit.matches_wire(&wire), expected, "matches_wire {}", n);
                    let has = model.has_nonce(&n, arg);
                    prop_assert_eq!(pit.has_nonce(&n, arg), has);
                    prop_assert_eq!(pit.has_nonce_wire(&wire, arg), has);
                    let present = model.entries.get(&n);
                    prop_assert_eq!(pit.contains(&n), present.is_some());
                    prop_assert_eq!(pit.contains_wire(&wire), present.is_some());
                    let probe = pit.probe_wire(&wire).map(|p| (p.can_be_prefix, p.nonces.to_vec()));
                    prop_assert_eq!(probe, present.map(|e| (e.can_be_prefix, e.nonces.clone())));
                }
                2 => {
                    let taken: Vec<Taken> = pit
                        .take_matching(&n)
                        .into_iter()
                        .map(|e| (e.name, e.can_be_prefix, e.downstreams, e.nonces, e.expiry))
                        .collect();
                    prop_assert_eq!(taken, model.take_matching(&n), "take_matching {}", n);
                }
                3 => prop_assert_eq!(pit.expire(now), model.expire(now), "expire at {:?}", now),
                _ => now += SimDuration::from_millis(250 * arg as u64),
            }
            prop_assert_eq!(pit.len(), model.entries.len());
            prop_assert_eq!(pit.arena_live(), model.entries.len());
            prop_assert_eq!(pit.next_expiry(), model.next_expiry());
        }
    }

    #[test]
    fn fifo_content_store_matches_naive_model(
        capacity in 0usize..5,
        ops in proptest::collection::vec(
            (0u8..6, 0usize..NAMES.len(), 0u32..4, any::<bool>()), 1..80),
    ) {
        let mut cs = ContentStore::new(capacity);
        let mut model = ModelCs::new(capacity);
        let mut now = SimTime::ZERO;
        for (op, idx, arg, flag) in ops {
            let n = name(idx);
            let wire = n.to_wire_value();
            match op {
                0 if idx > 0 => {
                    // Freshness 0 (never fresh), 1 s, 2 s or 3 s.
                    let data = Data::new(n.clone(), vec![arg as u8; 8 + idx])
                        .with_freshness_ms(1_000 * arg as u64);
                    cs.insert(data.clone(), now);
                    model.insert(data, now);
                }
                1 => {
                    let got = cs.lookup(&n, flag, arg % 2 == 1, now).map(|d| d.name().clone());
                    prop_assert_eq!(got, model.lookup(&n, flag, arg % 2 == 1, now), "lookup {}", n);
                }
                2 => {
                    let fresh = arg % 2 == 1;
                    let got = if flag {
                        cs.lookup_wire_prefix(&wire, fresh, now)
                    } else {
                        cs.lookup_wire_exact(&wire, fresh, now)
                    }
                    .map(|d| d.name().clone());
                    prop_assert_eq!(got, model.lookup(&n, flag, fresh, now), "wire lookup {}", n);
                }
                3 => {
                    let got = cs.lookup_exact(&n).map(|d| d.name().clone());
                    prop_assert_eq!(got, model.lookup(&n, false, false, now), "exact {}", n);
                }
                4 => {
                    let got = cs.lookup_prefix(&n).map(|d| d.name().clone());
                    prop_assert_eq!(got, model.lookup(&n, true, false, now), "prefix {}", n);
                }
                _ => now += SimDuration::from_millis(700 * arg as u64),
            }
            prop_assert_eq!(cs.len(), model.entries.len());
            let s = cs.stats();
            prop_assert_eq!(
                (s.lookups, s.hits, s.insertions, s.refreshes, s.evictions),
                (model.lookups, model.hits, model.insertions, model.refreshes, model.evictions)
            );
            if let Err(e) = cs.audit() {
                panic!("audit failed: {e}");
            }
        }
    }
}
