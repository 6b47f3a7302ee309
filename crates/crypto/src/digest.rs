//! The 32-byte content identifier used throughout ForkBase.
//!
//! In the paper a chunk is identified by `cid = H(chunk.bytes)` and an
//! FObject's `uid` is an alias for its meta chunk's cid (§4.2.2). Both are
//! represented by [`Digest`].

use std::fmt;

/// A 256-bit digest. Ordered lexicographically, hashable, cheap to copy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The digest size in bytes.
    pub const LEN: usize = 32;

    /// The all-zero digest, used as a sentinel (never produced by SHA-256 in
    /// practice).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Wrap raw digest bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// View 32 bytes in place as a digest (no copy).
    pub fn from_array_ref(bytes: &[u8; 32]) -> &Digest {
        // SAFETY: `Digest` is `repr(transparent)` over `[u8; 32]`, so the
        // two types have the same layout and alignment.
        unsafe { &*(bytes as *const [u8; 32]).cast::<Digest>() }
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Copy out the raw bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Parse a digest from a 32-byte slice. Returns `None` on length
    /// mismatch.
    pub fn from_slice(slice: &[u8]) -> Option<Self> {
        let arr: [u8; 32] = slice.try_into().ok()?;
        Some(Digest(arr))
    }

    /// True if this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// The first 8 bytes as a big-endian u64 — a uniformly distributed value
    /// usable for partitioning decisions (§4.6) and the index-node split
    /// pattern P′ (§4.3.3).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8-byte prefix"))
    }

    /// Lowercase hex representation (64 chars).
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Parse a 64-char hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.as_bytes();
        if s.len() != 64 {
            return None;
        }
        let nibble = |c: u8| -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        };
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = (nibble(s[2 * i])? << 4) | nibble(s[2 * i + 1])?;
        }
        Some(Digest(out))
    }

    /// Short prefix for human-readable logs (first 8 hex chars).
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(b: [u8; 32]) -> Self {
        Digest(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let d = Digest::from_bytes(bytes);
        let hex = d.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(Digest::from_hex(&hex), Some(d));
        assert_eq!(Digest::from_hex(&hex.to_uppercase()), Some(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex(""), None);
        assert_eq!(Digest::from_hex(&"zz".repeat(32)), None);
        assert_eq!(Digest::from_hex(&"ab".repeat(31)), None);
    }

    #[test]
    fn zero_sentinel() {
        assert!(Digest::ZERO.is_zero());
        assert!(!Digest::from_bytes([1u8; 32]).is_zero());
    }

    #[test]
    fn from_slice_checks_length() {
        assert!(Digest::from_slice(&[0u8; 31]).is_none());
        assert!(Digest::from_slice(&[0u8; 33]).is_none());
        assert!(Digest::from_slice(&[0u8; 32]).is_some());
    }

    #[test]
    fn array_ref_views_the_same_bytes() {
        let bytes = [9u8; 32];
        let d = Digest::from_array_ref(&bytes);
        assert_eq!(*d, Digest::from_bytes(bytes));
        assert!(std::ptr::eq(d.as_bytes(), &bytes));
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut b = [0u8; 32];
        b[0] = 0x12;
        b[7] = 0x34;
        assert_eq!(Digest::from_bytes(b).prefix_u64(), 0x1200000000000034);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        a[0] = 1;
        b[0] = 2;
        assert!(Digest::from_bytes(a) < Digest::from_bytes(b));
    }
}
