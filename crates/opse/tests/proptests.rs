//! Property-based tests of the OPSE/OPM invariants.

use proptest::prelude::*;
use rsse_crypto::SecretKey;
use rsse_opse::{Opm, OpseCipher, OpseParams, SearchTree};

fn key(seed: u64) -> SecretKey {
    SecretKey::derive(&seed.to_be_bytes(), "prop")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Buckets of all plaintexts are pairwise disjoint, ordered, and within
    /// the range — for arbitrary (M, N, key).
    #[test]
    fn buckets_are_ordered_partition(
        domain in 1u64..=48,
        slack_bits in 0u32..=16,
        seed in any::<u64>(),
    ) {
        let range = domain << slack_bits;
        let tree = SearchTree::new(key(seed), OpseParams::new(domain, range).unwrap());
        let mut prev_hi = 0u64;
        for m in 1..=domain {
            let (b, _) = tree.bucket_of_plaintext(m).unwrap();
            prop_assert!(b.lo > prev_hi, "m={m}");
            prop_assert!(b.hi <= range);
            prop_assert!(!b.is_empty());
            prev_hi = b.hi;
        }
    }

    /// Every ciphertext of every bucket decrypts to the bucket's plaintext.
    #[test]
    fn all_bucket_points_decrypt(
        domain in 1u64..=16,
        slack_bits in 0u32..=8,
        seed in any::<u64>(),
    ) {
        let range = domain << slack_bits;
        let tree = SearchTree::new(key(seed), OpseParams::new(domain, range).unwrap());
        for m in 1..=domain {
            let (b, _) = tree.bucket_of_plaintext(m).unwrap();
            for c in b.lo..=b.hi {
                let (back, _) = tree.bucket_of_ciphertext(c).unwrap();
                prop_assert_eq!(back.plaintext, m);
            }
        }
    }

    /// Ciphertexts outside every bucket (dead range space) always error,
    /// never mis-decrypt.
    #[test]
    fn dead_space_errors(
        domain in 2u64..=16,
        seed in any::<u64>(),
    ) {
        let range = domain * 8;
        let tree = SearchTree::new(key(seed), OpseParams::new(domain, range).unwrap());
        let mut covered = std::collections::HashSet::new();
        for m in 1..=domain {
            let (b, _) = tree.bucket_of_plaintext(m).unwrap();
            covered.extend(b.lo..=b.hi);
        }
        for c in 1..=range {
            let result = tree.bucket_of_ciphertext(c);
            if covered.contains(&c) {
                prop_assert!(result.is_ok());
            } else {
                prop_assert!(result.is_err(), "dead c={c} decrypted");
            }
        }
    }

    /// Deterministic OPSE ciphertexts sit inside their own buckets and the
    /// OPM variant shares exactly those buckets.
    #[test]
    fn opm_and_opse_share_buckets(
        domain in 1u64..=32,
        seed in any::<u64>(),
        file_id in any::<u64>(),
    ) {
        let params = OpseParams::new(domain, domain << 12).unwrap();
        let opse = OpseCipher::new(key(seed), params);
        let opm = Opm::new(key(seed), params);
        for m in 1..=domain {
            let bucket = opse.bucket(m).unwrap();
            prop_assert_eq!(bucket, opm.bucket(m).unwrap());
            prop_assert!(bucket.contains(opse.encrypt(m).unwrap()));
            prop_assert!(bucket.contains(opm.encrypt(m, file_id).unwrap()));
        }
    }

    /// The comparison of any two OPM ciphertexts equals the comparison of
    /// their plaintexts whenever the plaintexts differ.
    #[test]
    fn comparisons_transfer(
        m1 in 1u64..=64,
        m2 in 1u64..=64,
        f1 in any::<u64>(),
        f2 in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let params = OpseParams::new(64, 1 << 30).unwrap();
        let opm = Opm::new(key(seed), params);
        let c1 = opm.encrypt(m1, f1).unwrap();
        let c2 = opm.encrypt(m2, f2).unwrap();
        if m1 != m2 {
            prop_assert_eq!(m1 < m2, c1 < c2);
        } else {
            prop_assert_eq!(opm.decrypt(c1).unwrap(), opm.decrypt(c2).unwrap());
        }
    }
}
