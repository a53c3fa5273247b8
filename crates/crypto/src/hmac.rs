//! HMAC (RFC 2104 / FIPS 198-1), generic over any [`Digest`].
//!
//! HMAC is the workhorse of this crate: it instantiates the PRF `f`, the
//! keyed label function `pi`, and the deterministic coin tape `TapeGen`.

use crate::digest::Digest;

/// The longest digest block [`Hmac`] keys: SHA-1's and SHA-256's.
const MAX_BLOCK_LEN: usize = 64;

/// Streaming HMAC over a generic digest `D`.
///
/// # Example
///
/// ```
/// use rsse_crypto::{Hmac, Sha256};
///
/// let mut mac = Hmac::<Sha256>::new(b"key");
/// mac.update(b"The quick brown fox ");
/// mac.update(b"jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(tag.as_ref().len(), 32);
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    /// Outer hasher pre-keyed with `key ^ opad`, cloned at finalization.
    outer: D,
}

impl<D: Digest> core::fmt::Debug for Hmac<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Hmac<{}-byte digest>", D::OUTPUT_LEN)
    }
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance keyed with `key`.
    ///
    /// Keys longer than the digest block size are hashed first, per RFC 2104.
    /// The padded key lives in one stack buffer, so keying allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// If `D`'s block is longer than 64 bytes.
    pub fn new(key: &[u8]) -> Self {
        let mut buf = [0u8; MAX_BLOCK_LEN];
        let block_key = &mut buf[..D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let hashed = D::digest(key);
            block_key[..D::OUTPUT_LEN].copy_from_slice(hashed.as_ref());
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        block_key.iter_mut().for_each(|b| *b ^= 0x36);
        let mut inner = D::new();
        inner.update(block_key);
        block_key.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        let mut outer = D::new();
        outer.update(block_key);
        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the MAC state and returns the authentication tag.
    pub fn finalize(self) -> D::Output {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_ref());
        outer.finalize()
    }

    /// One-shot HMAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> D::Output {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

/// One-shot HMAC-SHA-256.
///
/// # Example
///
/// ```
/// use rsse_crypto::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"msg");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    Hmac::<crate::Sha256>::mac(key, data)
}

/// One-shot HMAC-SHA-1.
///
/// # Example
///
/// ```
/// use rsse_crypto::hmac_sha1;
/// let tag = hmac_sha1(b"key", b"msg");
/// assert_eq!(tag.len(), 20);
/// ```
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; 20] {
    Hmac::<crate::Sha1>::mac(key, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha1, Sha256};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case1() {
        let tag = Hmac::<Sha256>::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let tag = Hmac::<Sha256>::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        // Key longer than the block size must be hashed first.
        let key = [0xaa; 131];
        let tag = Hmac::<Sha256>::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 2202 test vectors for HMAC-SHA-1.
    #[test]
    fn rfc2202_case1() {
        let tag = Hmac::<Sha1>::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_case2() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"some key material";
        let data: Vec<u8> = (0u8..200).collect();
        let mut mac = Hmac::<Sha256>::new(key);
        for chunk in data.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), Hmac::<Sha256>::mac(key, &data));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha1(b"k1", b"m"), hmac_sha1(b"k2", b"m"));
    }
}
