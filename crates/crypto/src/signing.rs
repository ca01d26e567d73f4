//! Signing under shared local trust anchors.
//!
//! The paper assumes (§III) that peers "have common 'local' trust anchors
//! established" and use them to decide whether the collection producer is
//! trusted. We model the anchor as a shared secret from which per-producer
//! keys are derived; signatures are HMAC-SHA256 tags under the producer key.
//! Any peer holding the anchor can verify any producer's signature — exactly
//! the verification capability the protocol requires — without big-integer
//! public-key arithmetic the protocol never observes. The substitution is
//! recorded in `DESIGN.md`.
//!
//! Key derivation is two-step: `producer name → key id → signing key`. Only
//! the key id travels on the wire, and verification needs nothing but the
//! anchor and the key id, mirroring how NDN verifiers locate a key by its
//! KeyLocator. All signing flows through the [`Signer`]/[`Verifier`] traits,
//! so a real asymmetric scheme can be dropped in without touching protocol
//! code.
//!
//! # The advert-signing flow
//!
//! The authenticated control plane (`dapes-core`'s `auth` module) builds on
//! these primitives. A producer's discovery reply or bitmap advertisement
//! is *sealed*: the plaintext advert is suffixed with a monotonic
//! microsecond timestamp and then signed with the producer's
//! [`ProducerKey`] — `sealed = advert ‖ timestamp ‖ Signature`. A receiver
//! derives the claimed producer's key id from the peer id carried inside
//! the advert ([`TrustAnchor::key_id_for`]), recomputes the tag over
//! `advert ‖ timestamp`, and compares in constant time. Only then does the
//! timestamp feed the per-producer replay guard: a stamp at or below the
//! producer's high-water mark — or older than the replay window — is
//! rejected as a replay even though its signature is genuine.
//!
//! # The key memo
//!
//! Deriving a producer's key is pure but not free: `key_id_for` and the
//! signing-key derivation cost five SHA-256 compressions, and building
//! the key's HMAC schedule two more. A [`TrustAnchor`] therefore memoizes
//! `KeyId → key schedule` and `producer name → KeyId`. The memo sits
//! behind an `Arc`, so every clone of an anchor (one per peer in a
//! simulated world) shares it, and behind locks, so clones on different
//! threads may share it too.
//!
//! **An entry is inserted only after a signature under it verifies.** A
//! key schedule enters when [`Verifier::verify_signature`] accepts a tag
//! made under it; a name's key id enters when [`TrustAnchor::verify`]
//! accepts a signature claimed for that name. Forged traffic — random key
//! ids, made-up producer names, tags from a rogue anchor — never passes,
//! so it cannot grow the memo and pays the full uncached derivation every
//! time, exactly as without a memo. The memo is bounded by the number of
//! genuine producers in the trust domain. Lookups that do not verify
//! ([`TrustAnchor::keypair`], [`TrustAnchor::key_id_for`]) read the memo
//! but never write it.
//!
//! # Caveat: a shared anchor is a shared secret
//!
//! Because the anchor is symmetric, *any* holder of the anchor can mint a
//! valid signature for *any* producer name — the scheme authenticates
//! "someone inside the trust domain", not a specific peer. That matches
//! the paper's threat model (the attacker is outside the common local
//! trust anchor), and the adversarial suite's forger accordingly signs
//! under a *rogue* anchor and is rejected. An insider attacker would
//! require the asymmetric drop-in replacement behind [`Signer`] /
//! [`Verifier`]; nothing in the protocol code would change.

use crate::digest::Digest;
use crate::hmac::{verify_tag, HmacKey};
use crate::sha256::sha256;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// A detached signature: the signing key's identifier plus the tag bytes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Identifies the producer key that made this signature.
    pub key_id: KeyId,
    /// The 32-byte tag.
    pub tag: Digest,
}

impl Signature {
    /// Size on the wire: key id + tag.
    pub const WIRE_SIZE: usize = 8 + 32;

    /// Serializes to bytes for embedding in a packet's SignatureValue.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        out.extend_from_slice(&self.key_id.0.to_be_bytes());
        out.extend_from_slice(self.tag.as_bytes());
        out
    }

    /// Parses a signature serialized by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::WIRE_SIZE {
            return None;
        }
        let key_id = KeyId(u64::from_be_bytes(bytes[..8].try_into().ok()?));
        let tag = Digest::from_slice(&bytes[8..])?;
        Some(Signature { key_id, tag })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(key={:x}, tag={})",
            self.key_id.0,
            self.tag.short_hex()
        )
    }
}

/// Compact identifier of a producer key, carried on the wire in place of a
/// full NDN KeyLocator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

impl fmt::Debug for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyId({:016x})", self.0)
    }
}

/// Anything that can produce signatures over byte strings.
pub trait Signer {
    /// Signs `message`, returning a detached signature.
    fn sign(&self, message: &[u8]) -> Signature;
    /// The key identifier that will appear in produced signatures.
    fn key_id(&self) -> KeyId;
}

/// Anything that can check signatures over byte strings.
pub trait Verifier {
    /// Returns `true` when `signature` is a valid signature of `message`.
    fn verify_signature(&self, message: &[u8], signature: &Signature) -> bool;
}

/// A shared local trust anchor from which per-producer keys derive.
///
/// # Examples
///
/// ```
/// use dapes_crypto::signing::{Signer, TrustAnchor, Verifier};
///
/// let anchor = TrustAnchor::from_seed(b"rural-area");
/// let producer = anchor.keypair("resident-a");
/// let sig = producer.sign(b"collection metadata");
/// assert!(anchor.verify("resident-a", b"collection metadata", &sig));
/// assert!(anchor.verify_signature(b"collection metadata", &sig));
/// assert!(!anchor.verify_signature(b"tampered", &sig));
/// ```
#[derive(Clone)]
pub struct TrustAnchor {
    /// The HMAC schedule of the anchor secret; every derivation keys off it.
    root: HmacKey,
    /// Verified derivations, shared by every clone of this anchor.
    memo: Arc<KeyMemo>,
}

/// The anchor's memo of verified derivations (see the module docs). Both
/// maps are point-probe indexes and are never iterated, so their hash
/// order cannot leak into protocol behaviour.
#[derive(Default)]
struct KeyMemo {
    keys: RwLock<HashMap<KeyId, HmacKey>>,
    ids: RwLock<HashMap<String, KeyId>>,
}

impl fmt::Debug for TrustAnchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "TrustAnchor(..)")
    }
}

impl TrustAnchor {
    /// Derives an anchor from an arbitrary seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        TrustAnchor {
            root: HmacKey::new(sha256(seed).as_bytes()),
            memo: Arc::default(),
        }
    }

    /// The key id a given producer name maps to.
    pub fn key_id_for(&self, producer_name: &str) -> KeyId {
        self.memoized_id(producer_name)
            .unwrap_or_else(|| self.derive_key_id(producer_name))
    }

    /// Creates the signing half for a named producer.
    pub fn keypair(&self, producer_name: &str) -> ProducerKey {
        let key_id = self.key_id_for(producer_name);
        ProducerKey {
            key: self
                .memoized_key(key_id)
                .unwrap_or_else(|| self.derive_key(key_id)),
            key_id,
            name: producer_name.to_owned(),
        }
    }

    /// Verifies a signature claimed to be from `producer_name`.
    ///
    /// This checks both that the signature's key id is the one derived from
    /// `producer_name` (producer authentication) and that the tag verifies
    /// (integrity).
    pub fn verify(&self, producer_name: &str, message: &[u8], signature: &Signature) -> bool {
        let memoized = self.memoized_id(producer_name);
        let key_id = memoized.unwrap_or_else(|| self.derive_key_id(producer_name));
        if key_id != signature.key_id || !self.verify_signature(message, signature) {
            return false;
        }
        if memoized.is_none() {
            write(&self.memo.ids).insert(producer_name.to_owned(), key_id);
        }
        true
    }

    fn derive_key_id(&self, producer_name: &str) -> KeyId {
        let name_key = self.root.mac(producer_name.as_bytes());
        let d = sha256(name_key.as_bytes());
        KeyId(u64::from_be_bytes(
            d.as_bytes()[..8].try_into().expect("8 bytes"),
        ))
    }

    /// Derives the schedule of the signing key bound to a key id.
    fn derive_key(&self, key_id: KeyId) -> HmacKey {
        HmacKey::new(self.root.mac(&key_id.0.to_be_bytes()).as_bytes())
    }

    fn memoized_id(&self, producer_name: &str) -> Option<KeyId> {
        read(&self.memo.ids).get(producer_name).copied()
    }

    fn memoized_key(&self, key_id: KeyId) -> Option<HmacKey> {
        read(&self.memo.keys).get(&key_id).cloned()
    }
}

impl Verifier for TrustAnchor {
    /// Verifies a signature using only the key id it carries.
    fn verify_signature(&self, message: &[u8], signature: &Signature) -> bool {
        let (key, memoized) = match self.memoized_key(signature.key_id) {
            Some(key) => (key, true),
            None => (self.derive_key(signature.key_id), false),
        };
        if !verify_tag(&key.mac(message), &signature.tag) {
            return false;
        }
        if !memoized {
            write(&self.memo.keys).insert(signature.key_id, key);
        }
        true
    }
}

// A memo holds only finished derivations, so a panic elsewhere while a
// lock was held cannot leave it inconsistent: poisoning is ignored.
fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The signing half handed to a collection producer.
#[derive(Clone)]
pub struct ProducerKey {
    key: HmacKey,
    key_id: KeyId,
    name: String,
}

impl fmt::Debug for ProducerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProducerKey({}, {:?})", self.name, self.key_id)
    }
}

impl ProducerKey {
    /// The producer's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Signer for ProducerKey {
    fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            key_id: self.key_id,
            tag: self.key.mac(message),
        }
    }

    fn key_id(&self) -> KeyId {
        self.key_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `(keys, ids)`: the sizes of the anchor's two memo maps.
    fn memo_sizes(anchor: &TrustAnchor) -> (usize, usize) {
        (read(&anchor.memo.keys).len(), read(&anchor.memo.ids).len())
    }

    fn random_tag(rng: &mut SmallRng) -> Digest {
        let mut bytes = [0u8; 32];
        bytes.iter_mut().for_each(|b| *b = rng.gen());
        Digest::from_bytes(bytes)
    }

    #[test]
    fn genuine_verifications_fill_the_memo_once() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let peer = anchor.clone();
        assert_eq!(memo_sizes(&anchor), (0, 0));
        let key = anchor.keypair("alice");
        assert_eq!(memo_sizes(&anchor), (0, 0), "keypair never inserts");
        let sig = key.sign(b"m");
        assert!(anchor.verify_signature(b"m", &sig));
        assert_eq!(memo_sizes(&anchor), (1, 0));
        assert!(peer.verify("alice", b"m", &sig), "clones share the memo");
        assert!(anchor.verify("alice", b"m", &sig));
        assert_eq!(memo_sizes(&anchor), (1, 1));
        // Memoized answers equal the derivations they stand for.
        assert_eq!(anchor.key_id_for("alice"), anchor.derive_key_id("alice"));
        assert_eq!(
            anchor.keypair("alice").sign(b"x"),
            Signature {
                key_id: sig.key_id,
                tag: anchor.derive_key(sig.key_id).mac(b"x"),
            }
        );
        assert!(!anchor.verify_signature(b"other", &sig));
        assert!(!anchor.verify("bob", b"m", &sig));
        assert_eq!(memo_sizes(&anchor), (1, 1), "failures insert nothing");
    }

    #[test]
    fn forged_flood_leaves_the_memo_unchanged() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let alice = anchor.keypair("alice");
        assert!(anchor.verify("alice", b"warm", &alice.sign(b"warm")));
        let before = memo_sizes(&anchor);
        let mut rng = SmallRng::seed_from_u64(7);
        for i in 0..2_000u32 {
            let forged = Signature {
                key_id: KeyId(rng.gen()),
                tag: random_tag(&mut rng),
            };
            let producer = format!("peer-{}", rng.gen::<u32>());
            let msg = i.to_be_bytes();
            assert!(!anchor.verify_signature(&msg, &forged));
            assert!(!anchor.verify(&producer, &msg, &forged));
            // A claimed producer with its own (derivable) key id but a
            // guessed tag fails the same way.
            let claimed = Signature {
                key_id: anchor.key_id_for(&producer),
                tag: random_tag(&mut rng),
            };
            assert!(!anchor.verify(&producer, &msg, &claimed));
            // A memoized key id with a guessed tag fails too.
            let guessed = Signature {
                key_id: alice.key_id(),
                tag: random_tag(&mut rng),
            };
            assert!(!anchor.verify("alice", &msg, &guessed));
        }
        assert_eq!(memo_sizes(&anchor), before);
    }

    #[test]
    fn warm_memo_still_rejects_a_rogue_anchor_signature() {
        let anchor = TrustAnchor::from_seed(b"honest");
        let rogue = TrustAnchor::from_seed(b"rogue");
        let alice = anchor.keypair("alice");
        assert!(anchor.verify("alice", b"warm", &alice.sign(b"warm")));
        // The rogue anchor signs under alice's key id on the honest anchor:
        // its tag comes from the rogue derivation for that id.
        let forged = Signature {
            key_id: alice.key_id(),
            tag: rogue.derive_key(alice.key_id()).mac(b"m"),
        };
        assert!(!anchor.verify_signature(b"m", &forged));
        assert!(!anchor.verify("alice", b"m", &forged));
        assert_eq!(memo_sizes(&anchor), (1, 1));
    }

    #[test]
    fn producer_key_signs_like_uncached_hmac() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let key = anchor.keypair("alice");
        let secret = sha256(b"seed");
        let name_key = hmac_sha256(secret.as_bytes(), b"alice");
        let id = KeyId(u64::from_be_bytes(
            sha256(name_key.as_bytes()).as_bytes()[..8]
                .try_into()
                .expect("8 bytes"),
        ));
        assert_eq!(key.key_id(), id);
        let signing_key = hmac_sha256(secret.as_bytes(), &id.0.to_be_bytes());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200 {
            let len = rng.gen_range(0..300usize);
            let msg: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(
                key.sign(&msg).tag,
                hmac_sha256(signing_key.as_bytes(), &msg)
            );
        }
    }

    #[test]
    fn producer_signature_verifies_with_name() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let key = anchor.keypair("alice");
        let sig = key.sign(b"hello");
        assert!(anchor.verify("alice", b"hello", &sig));
    }

    #[test]
    fn name_free_verification_succeeds() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let sig = anchor.keypair("alice").sign(b"metadata");
        assert!(anchor.verify_signature(b"metadata", &sig));
        assert!(!anchor.verify_signature(b"other", &sig));
    }

    #[test]
    fn wrong_name_or_message_fails() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let key = anchor.keypair("alice");
        let sig = key.sign(b"hello");
        assert!(!anchor.verify("bob", b"hello", &sig));
        assert!(!anchor.verify("alice", b"hellO", &sig));
    }

    #[test]
    fn different_anchors_do_not_cross_verify() {
        let a1 = TrustAnchor::from_seed(b"one");
        let a2 = TrustAnchor::from_seed(b"two");
        let sig = a1.keypair("alice").sign(b"m");
        assert!(!a2.verify("alice", b"m", &sig));
        assert!(!a2.verify_signature(b"m", &sig));
    }

    #[test]
    fn distinct_producers_have_distinct_key_ids() {
        let anchor = TrustAnchor::from_seed(b"seed");
        assert_ne!(anchor.key_id_for("alice"), anchor.key_id_for("bob"));
        assert_eq!(anchor.keypair("alice").key_id(), anchor.key_id_for("alice"));
    }

    #[test]
    fn tampered_key_id_fails() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let mut sig = anchor.keypair("alice").sign(b"m");
        sig.key_id = KeyId(sig.key_id.0 ^ 1);
        assert!(!anchor.verify_signature(b"m", &sig));
        assert!(!anchor.verify("alice", b"m", &sig));
    }

    #[test]
    fn tampered_tag_fails() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let mut sig = anchor.keypair("alice").sign(b"m");
        let mut bytes = sig.tag.into_bytes();
        bytes[0] ^= 1;
        sig.tag = Digest::from_bytes(bytes);
        assert!(!anchor.verify("alice", b"m", &sig));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let sig = anchor.keypair("p").sign(b"x");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), Signature::WIRE_SIZE);
        assert_eq!(Signature::from_bytes(&bytes), Some(sig));
        assert!(Signature::from_bytes(&bytes[..39]).is_none());
        assert!(Signature::from_bytes(&[]).is_none());
    }

    #[test]
    fn debug_never_prints_secret() {
        let anchor = TrustAnchor::from_seed(b"super-secret");
        let dbg = format!("{anchor:?}");
        assert!(!dbg.contains("super"));
    }
}
