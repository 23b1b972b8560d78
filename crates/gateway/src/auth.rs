//! At-rest hardening for API keys: the wire-facing [`AuthConfig`] still
//! carries `key → tenant` in plain text (config files, env injection — the
//! contract is unchanged), but the running gateway never holds the keys
//! themselves. At startup every key is folded into a salted, iterated
//! digest ([`HashedKeys`]); lookups re-derive the digest from the presented
//! credential and compare in constant time, so neither a heap dump nor a
//! comparison-timing probe recovers a key.
//!
//! The digest is a PBKDF-shaped construction over FNV-1a (the only hash
//! this std-only workspace has): four independently-offset 64-bit lanes
//! over `salt ‖ key`, re-folded `ITERATIONS` (2048) times with the lane index
//! and round counter mixed in, yielding a 32-byte digest. This is a
//! work-factor construction against offline guessing of *leaked digests*,
//! not a cryptographic MAC — the threat model is accidental exposure
//! (logs, dumps, debug endpoints), which is exactly what storing plaintext
//! keys loses to.
//!
//! A work factor is a property of the function, set by the cheapest
//! implementation an attacker can run, so `derive` computes it in its
//! cheapest known form. The lanes are independent, so each byte is applied
//! to all four before the next: four multiply chains the CPU overlaps
//! instead of one. And the round counter's six high bytes are always zero,
//! so their six `(h ^ 0)·P` steps fold into one multiply by `P⁶`. Both are
//! exact rewrites: the digests are bit-identical to the byte-serial
//! definition (`derive_reference` in the tests pins it).
//!
//! [`AuthConfig`]: crate::AuthConfig

use std::collections::HashMap;

/// Rounds of re-folding per lane. High enough that bulk offline guessing
/// of a leaked digest costs real work; the price is one derivation per
/// configured key on every keyed request, about 65 µs each on a 2-core
/// x86-64 box.
const ITERATIONS: u32 = 2048;

// `derive` folds bytes 2–7 of the round counter as zeros.
const _: () = assert!(ITERATIONS <= 1 << 16);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Six `(h ^ 0)·P` steps in one multiply (exact under wrapping arithmetic).
const FNV_PRIME_POW6: u64 = FNV_PRIME.wrapping_pow(6);

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Derives the 32-byte digest of `key` under `salt`: each lane is seeded
/// from its index, the salt and the key, then every round folds in the
/// round counter's eight little-endian bytes and the salt. The lanes run
/// interleaved, one byte across all four at a time.
fn derive(salt: &[u8; 16], key: &str) -> [u8; 32] {
    let mut lanes: [u64; 4] = std::array::from_fn(|lane| {
        // Independent lane seeds, then the salted key.
        let hash = fnv1a(FNV_OFFSET ^ (lane as u64).wrapping_mul(FNV_PRIME), salt);
        fnv1a(hash, key.as_bytes())
    });
    for round in 0..ITERATIONS {
        let [low, high, ..] = round.to_le_bytes();
        fnv1a_lanes(&mut lanes, &[low, high]);
        for hash in &mut lanes {
            *hash = hash.wrapping_mul(FNV_PRIME_POW6);
        }
        fnv1a_lanes(&mut lanes, salt);
    }
    let mut digest = [0u8; 32];
    for (i, lane) in lanes.iter().enumerate() {
        digest[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_le_bytes());
    }
    digest
}

/// [`fnv1a`] over `bytes` on every lane, one byte across all lanes at a
/// time so the lanes' multiplies overlap.
fn fnv1a_lanes(lanes: &mut [u64; 4], bytes: &[u8]) {
    for &byte in bytes {
        for hash in lanes.iter_mut() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Constant-time equality over fixed-width digests: the comparison touches
/// every byte regardless of where the first mismatch sits.
fn digests_match(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

struct HashedKey {
    salt: [u8; 16],
    digest: [u8; 32],
    tenant: String,
}

/// The gateway's in-memory credential set: salted iterated digests only,
/// built once at startup from the plaintext `key → tenant` map and then
/// the sole authority for [`HashedKeys::tenant_for`] lookups.
pub struct HashedKeys {
    keys: Vec<HashedKey>,
}

impl HashedKeys {
    /// Hashes every configured key under a fresh per-key random salt. The
    /// plaintext map is consumed here and dropped by the caller — after
    /// this returns, the process holds digests only.
    pub fn build(plain: &HashMap<String, String>) -> HashedKeys {
        let keys = plain
            .iter()
            .map(|(key, tenant)| {
                let salt = crowdtune_obs::span::random_trace_id().0.to_le_bytes();
                HashedKey {
                    salt,
                    digest: derive(&salt, key),
                    tenant: tenant.clone(),
                }
            })
            .collect();
        HashedKeys { keys }
    }

    /// Whether any keys are configured at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Resolves a presented credential to its tenant: re-derives the
    /// digest under each stored salt and compares in constant time. Cost
    /// is one derivation per configured key, about 65 µs each on a 2-core
    /// x86-64 box, so it grows linearly with the number of keys and is
    /// paid on the gateway's reactor thread for every keyed request. An
    /// empty credential (what an unrecognized `Authorization` scheme
    /// presents) never matches and derives nothing.
    pub fn tenant_for(&self, presented: &str) -> Option<&str> {
        if presented.is_empty() {
            return None;
        }
        let mut found: Option<&str> = None;
        for key in &self.keys {
            let candidate = derive(&key.salt, presented);
            if digests_match(&candidate, &key.digest) && found.is_none() {
                found = Some(&key.tenant);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The byte-serial definition `derive` must reproduce: each lane runs
    /// its whole chain, every byte of the round counter included, before
    /// the next lane starts.
    fn derive_reference(salt: &[u8; 16], key: &str) -> [u8; 32] {
        let mut lanes = [0u64; 4];
        for (lane, out) in lanes.iter_mut().enumerate() {
            let mut hash = fnv1a(FNV_OFFSET ^ (lane as u64).wrapping_mul(FNV_PRIME), salt);
            hash = fnv1a(hash, key.as_bytes());
            for round in 0..ITERATIONS {
                hash = fnv1a(hash, &u64::from(round).to_le_bytes());
                hash = fnv1a(hash, salt);
            }
            *out = hash;
        }
        let mut digest = [0u8; 32];
        for (i, lane) in lanes.iter().enumerate() {
            digest[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_le_bytes());
        }
        digest
    }

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A random key: up to 100 chars mixing ASCII with 2-, 3- and 4-byte
    /// UTF-8 sequences.
    fn random_key(rng: &mut StdRng) -> String {
        const CHARS: [char; 8] = ['a', 'Z', '7', '-', ' ', 'é', '€', '🦀'];
        let len = rng.gen_range(0..=100usize);
        (0..len)
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect()
    }

    #[test]
    fn derive_is_bit_identical_to_the_byte_serial_reference() {
        let mut rng = StdRng::seed_from_u64(0x5eed_a11e);
        let mut keys = vec![
            String::new(),
            "k".to_owned(),
            "x".repeat(65),
            "pb-acme-0123456789abcdef".to_owned(),
            "clé-€-🦀".to_owned(),
        ];
        keys.extend((0..1_000).map(|_| random_key(&mut rng)));
        assert!(keys
            .iter()
            .any(|k| k.len() > 64 && k.len() > k.chars().count()));
        for key in &keys {
            let salt: [u8; 16] = std::array::from_fn(|_| rng.gen_range(0..=255u8));
            assert_eq!(
                derive(&salt, key),
                derive_reference(&salt, key),
                "salt {salt:?}, key {key:?}"
            );
        }
    }

    /// Digests of the byte-serial definition, pinned so the reference
    /// itself cannot drift.
    #[test]
    fn golden_digests_are_pinned() {
        let counting: [u8; 16] = std::array::from_fn(|i| i as u8);
        let cases: [(&[u8; 16], &str, &str); 3] = [
            (
                &[7u8; 16],
                "key",
                "3c9c7006cd1ec347dd1cd6998da70d31ead1fb509911625fdb5c672472c8fc0d",
            ),
            (
                &[7u8; 16],
                "",
                "f53485b5d7b11475066f7903f78cd5c693fe67ab8d75ca682c7c2b536ae6c072",
            ),
            (
                &counting,
                "pb-acme-0123456789abcdef",
                "8ba31d909d1ee83b74c1e9f471393a0b9d0fab9c6f2a93f736a8ccad021aabec",
            ),
        ];
        for (salt, key, expected) in cases {
            assert_eq!(hex(&derive_reference(salt, key)), expected, "key {key:?}");
            assert_eq!(hex(&derive(salt, key)), expected, "key {key:?}");
        }
    }

    fn keys(pairs: &[(&str, &str)]) -> HashedKeys {
        let plain: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        HashedKeys::build(&plain)
    }

    #[test]
    fn configured_keys_resolve_to_their_tenants() {
        let hashed = keys(&[("secret-a", "acme"), ("secret-b", "globex")]);
        assert_eq!(hashed.tenant_for("secret-a"), Some("acme"));
        assert_eq!(hashed.tenant_for("secret-b"), Some("globex"));
    }

    #[test]
    fn unknown_and_near_miss_keys_are_refused() {
        // An empty credential never matches, not even an empty key.
        let hashed = keys(&[("secret-a", "acme"), ("", "blank")]);
        assert_eq!(hashed.tenant_for("secret-A"), None);
        assert_eq!(hashed.tenant_for("secret-a "), None);
        assert_eq!(hashed.tenant_for(""), None);
        assert_eq!(hashed.tenant_for("secret-aa"), None);
    }

    #[test]
    fn salts_differ_so_equal_keys_hash_differently() {
        let plain: HashMap<String, String> = [("same".to_owned(), "t1".to_owned())].into();
        let a = HashedKeys::build(&plain);
        let b = HashedKeys::build(&plain);
        assert_ne!(
            (a.keys[0].salt, a.keys[0].digest),
            (b.keys[0].salt, b.keys[0].digest),
            "fresh salts must make digests non-comparable across builds"
        );
        assert_eq!(a.tenant_for("same"), Some("t1"));
        assert_eq!(b.tenant_for("same"), Some("t1"));
    }

    #[test]
    fn digest_derivation_is_deterministic_under_a_fixed_salt() {
        let salt = [7u8; 16];
        assert_eq!(derive(&salt, "key"), derive(&salt, "key"));
        assert_ne!(derive(&salt, "key"), derive(&salt, "kez"));
        assert_ne!(derive(&[8u8; 16], "key"), derive(&salt, "key"));
    }

    #[test]
    fn constant_time_compare_is_correct() {
        let a = [1u8; 32];
        let mut b = a;
        assert!(digests_match(&a, &b));
        b[31] ^= 0x80;
        assert!(!digests_match(&a, &b));
    }
}
