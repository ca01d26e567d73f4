//! HMAC-SHA256 (RFC 2104), the MAC behind the trust-anchor signature scheme.
//!
//! [`HmacKey`] is a key schedule: the SHA-256 midstates after the inner and
//! outer pad blocks. A MAC under a held schedule costs the message's blocks
//! plus one outer compression; the two pad compressions (and the key hash,
//! for keys longer than a block) are paid once, when the schedule is built.

use crate::digest::Digest;
use crate::sha256::{sha256, Sha256};
use std::fmt;

const BLOCK: usize = 64;

/// An HMAC-SHA256 key schedule: the inner and outer SHA-256 midstates
/// after absorbing `key ⊕ ipad` and `key ⊕ opad`.
///
/// # Examples
///
/// ```
/// use dapes_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"Jefe");
/// let msg = b"what do ya want for nothing?";
/// assert_eq!(key.mac(msg), hmac_sha256(b"Jefe", msg));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The midstates are key material.
        write!(f, "HmacKey(..)")
    }
}

impl HmacKey {
    /// Builds the schedule for `key`. Keys longer than the 64-byte block
    /// are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h.midstate()
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// `HMAC-SHA256(key, message)` under this schedule.
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = Sha256::resume(self.inner, BLOCK as u64);
        inner.update(message);
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Builds a throwaway [`HmacKey`]; callers that MAC repeatedly under one
/// key should hold the schedule instead.
///
/// # Examples
///
/// ```
/// use dapes_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     tag.to_string(),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// Constant-time equality of two digests.
///
/// The simulator is not attacker-facing, but verification code should still
/// model the real discipline: compare the whole tag regardless of where the
/// first mismatch occurs.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(actual.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_string(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_string(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_string(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_string(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_schedule_passes_rfc4231_vectors() {
        // (key, data, tag) for RFC 4231 cases 1, 2, 3, 4, 6 and 7; case 5
        // tests truncated output, which this MAC never produces.
        let case4_key: Vec<u8> = (1u8..=25).collect();
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &case4_key,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, data, want)) in cases.iter().enumerate() {
            let schedule = HmacKey::new(key);
            assert_eq!(schedule.mac(data).to_string(), *want, "case {i}");
            // A schedule is reusable: the second MAC matches the first.
            assert_eq!(schedule.mac(data), schedule.mac(data), "case {i}");
        }
    }

    #[test]
    fn debug_never_prints_key_schedule() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey(..)");
    }

    #[test]
    fn different_keys_differ() {
        let a = hmac_sha256(b"key-a", b"msg");
        let b = hmac_sha256(b"key-b", b"msg");
        assert_ne!(a, b);
    }

    #[test]
    fn different_messages_differ() {
        let a = hmac_sha256(b"key", b"msg-a");
        let b = hmac_sha256(b"key", b"msg-b");
        assert_ne!(a, b);
    }

    #[test]
    fn verify_tag_detects_single_bit_flip() {
        let tag = hmac_sha256(b"key", b"msg");
        assert!(verify_tag(&tag, &tag));
        let mut bytes = tag.into_bytes();
        bytes[31] ^= 1;
        assert!(!verify_tag(&tag, &Digest::from_bytes(bytes)));
        let mut bytes2 = tag.into_bytes();
        bytes2[0] ^= 0x80;
        assert!(!verify_tag(&tag, &Digest::from_bytes(bytes2)));
    }

    #[test]
    fn verify_tag_rejects_every_single_bit_flip() {
        // Exhaustive: all 256 single-bit corruptions of the 32-byte tag
        // must fail verification. A MAC with any blind spot here would let
        // a tampered segment through the adversarial screens.
        let tag = hmac_sha256(b"key", b"the segment body under test");
        for byte in 0..32 {
            for bit in 0..8 {
                let mut bytes = tag.into_bytes();
                bytes[byte] ^= 1 << bit;
                assert!(
                    !verify_tag(&tag, &Digest::from_bytes(bytes)),
                    "flip of byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn exactly_block_sized_key_is_used_verbatim() {
        // A 64-byte key must not be hashed; 65 bytes must be.
        let key64 = [0x11u8; 64];
        let key65 = [0x11u8; 65];
        assert_ne!(hmac_sha256(&key64, b"m"), hmac_sha256(&key65, b"m"));
    }
}
