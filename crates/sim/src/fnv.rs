//! FNV-1a-style 64-bit folding: the one hash behind every trace hash and run
//! fingerprint (`FaultTrace::hash`, the `reconfig_storm` fingerprint and the
//! bench's `scaling` sweep fingerprint).
//!
//! A hash is a left fold from [`OFFSET`]: `fold_u64(fold_u64(OFFSET, a), b)`.
//! Multi-byte values fold as their little-endian bytes, so a fingerprint is
//! the same on every host.
//!
//! The multiplier is `0x1000_0000_01b3`, sixteen times the standard FNV
//! prime. Every pinned trace hash and fingerprint in the repository was
//! computed with it, so it stays.

/// The FNV-64 offset basis: the hash of the empty input.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x1000_0000_01b3;

/// Fold `bytes` into the running hash `h`.
#[inline]
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Fold `v`'s little-endian bytes into the running hash `h`.
#[inline]
pub fn fold_u64(h: u64, v: u64) -> u64 {
    fold_bytes(h, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values() {
        assert_eq!(fold_bytes(OFFSET, b""), OFFSET);
        assert_eq!(fold_bytes(OFFSET, b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fold_bytes(OFFSET, b"foobar"), 0xf8ac_2471_f739_67e8);
        let v = u64::from_le_bytes(*b"foobar\0\0");
        assert_eq!(fold_u64(OFFSET, v), fold_bytes(OFFSET, b"foobar\0\0"));
    }
}
