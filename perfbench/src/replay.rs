//! Per-operation costs of the `ndn` and `crypto` work inside the DAPES
//! callbacks, measured by replaying the traced run's sampled payloads
//! through the public functions. Multiplied by the run's counts they give
//! *estimates* of each layer's share; spans inside the program would
//! measure it directly.

use crate::ANCHOR_SEED;
use dapes_core::auth;
use dapes_core::prelude::kinds;
use dapes_crypto::sha256::sha256;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::packet::{Data, Interest, Packet};
use dapes_netsim::prelude::{FrameKind, Payload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum time spent timing one operation over its sample.
const MIN_TIMED: Duration = Duration::from_millis(20);

/// Mean nanoseconds of `op` over `items`, repeating the whole sample until
/// at least [`MIN_TIMED`] has passed. `None` for an empty sample.
fn ns_per_op<T>(items: &[T], mut op: impl FnMut(&T)) -> Option<f64> {
    if items.is_empty() {
        return None;
    }
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < MIN_TIMED {
        for item in items {
            op(black_box(item));
        }
        ops += items.len() as u64;
    }
    Some(start.elapsed().as_nanos() as f64 / ops as f64)
}

/// Replay costs of one traced run.
#[derive(Clone, Debug, Default)]
pub struct ReplayCosts {
    /// `Packet::peek_header` ns per frame, by kind.
    pub peek_header_ns: BTreeMap<FrameKind, f64>,
    /// `Packet::decode_payload` ns per frame, by kind.
    pub decode_payload_ns: BTreeMap<FrameKind, f64>,
    /// `sha256` ns over one `CONTENT_DATA` packet's content.
    pub sha256_content_ns: Option<f64>,
    /// `TrustAnchor::verify` ns for one sealed advert (the HMAC key-id
    /// derivation plus the tag check `auth::open` performs).
    pub hmac_advert_ns: Option<f64>,
    /// Sampled adverts that failed to open. Every sampled advert came from
    /// an honest peer, so any failure means the replay is not timing the
    /// check the peers ran.
    pub bad_adverts: usize,
}

/// The sealed announcement a DAPES frame carries, with its claimed producer:
/// bitmap Interests carry it as application parameters, bitmap and discovery
/// Data as content.
fn sealed_advert(kind: FrameKind, payload: &Payload) -> Option<(Vec<u8>, String)> {
    let sealed = if kind == kinds::BITMAP_INTEREST {
        Interest::decode_payload(payload)
            .ok()?
            .app_parameters()?
            .to_vec()
    } else if kind == kinds::BITMAP_DATA || kind == kinds::DISCOVERY_DATA {
        Data::decode_payload(payload).ok()?.content().to_vec()
    } else {
        return None;
    };
    let (base, _, _) = auth::split(&sealed)?;
    let claimed = u32::from_be_bytes(base.get(..4)?.try_into().ok()?);
    Some((sealed, format!("peer-{claimed}")))
}

/// Times the replayed operations over `samples`.
pub fn replay(samples: &BTreeMap<FrameKind, Vec<Payload>>) -> ReplayCosts {
    let mut costs = ReplayCosts::default();
    for (&kind, payloads) in samples {
        if let Some(ns) = ns_per_op(payloads, |p| {
            black_box(Packet::peek_header(p).is_ok());
        }) {
            costs.peek_header_ns.insert(kind, ns);
        }
        if let Some(ns) = ns_per_op(payloads, |p| {
            black_box(Packet::decode_payload(p).is_ok());
        }) {
            costs.decode_payload_ns.insert(kind, ns);
        }
    }

    let contents: Vec<Vec<u8>> = samples
        .get(&kinds::CONTENT_DATA)
        .into_iter()
        .flatten()
        .filter_map(|p| Data::decode_payload(p).ok())
        .map(|d| d.content().to_vec())
        .collect();
    costs.sha256_content_ns = ns_per_op(&contents, |c| {
        black_box(sha256(c));
    });

    let anchor = TrustAnchor::from_seed(ANCHOR_SEED);
    let (adverts, bad): (Vec<_>, Vec<_>) = samples
        .iter()
        .flat_map(|(&kind, ps)| ps.iter().filter_map(move |p| sealed_advert(kind, p)))
        .partition(|(sealed, producer)| auth::open(sealed, producer, &anchor).is_ok());
    costs.bad_adverts = bad.len();
    costs.hmac_advert_ns = ns_per_op(&adverts, |(sealed, producer)| {
        let (base, _, sig) = auth::split(sealed).expect("opened above");
        black_box(anchor.verify(producer, &sealed[..base.len() + 8], &sig));
    });
    costs
}
