//! Fleet-wide parsed-bitstream metadata cache.
//!
//! PR 1 made reconfiguration parse-once per *driver*: `CRcnfg` keeps parsed
//! shells in a registry keyed by digest. But every `reconfigure_*_bytes`
//! call still re-validates the raw blob — magic, header, CRC over tens of
//! megabytes, and a full frame-address scan — even when the very same blob
//! was deployed seconds ago by another tenant. On the real system the
//! orchestrator caches validated bitstream artifacts fleet-wide and keys
//! them by content hash, so repeat deployments skip straight to the ICAP.
//!
//! [`BitstreamCache`] is that artifact cache. It maps a fast 64-bit content
//! hash (plus the blob length) to the blob's [`BitstreamHeader`], the one
//! `Copy` type every deploy path programs from. [`BitstreamHeader::validate`]
//! consults the process-wide instance over a *borrowed* blob: on a hit it
//! returns the cached header without re-running the CRC or the frame scan;
//! on a miss it validates fully and inserts. Neither path copies the blob.
//! [`Bitstream::assemble`] primes the cache, because a blob it just wrote
//! is valid by construction.
//!
//! # Coherence
//!
//! The cache is keyed by *content*, not by name: any mutation of a blob —
//! an injected bit flip, a rewritten frame address, a truncation — changes
//! the content hash and therefore misses, falling back to full validation.
//! A cached entry can never mask corruption, it can only skip re-proving
//! the validity of bytes that were already proven valid. On a hit the
//! 32-byte header is additionally parsed by the same parser the full
//! validation uses and compared with the cached header, so a
//! (astronomically unlikely) hash collision between two well-formed blobs
//! would still need identical headers to go unnoticed.
//!
//! # Determinism
//!
//! The cache only affects host wall-clock, never simulated time: a hit and
//! a miss return the same header. Concurrent `par_map` workers may race on
//! insertions, but the *result* of every lookup is a pure function of the
//! blob bytes, so fingerprints are unaffected.
//!
//! [`BitstreamHeader`]: crate::BitstreamHeader
//! [`BitstreamHeader::validate`]: crate::BitstreamHeader::validate
//! [`Bitstream::assemble`]: crate::Bitstream::assemble

use crate::bitstream::{Bitstream, BitstreamHeader};
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Default entry capacity of the process-wide cache. Entries are ~100
/// bytes of metadata (the blob bytes themselves are never retained), so
/// this bounds the cache to a few tens of kilobytes.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (validation skipped).
    pub hits: u64,
    /// Lookups that fell back to full validation.
    pub misses: u64,
    /// Entries inserted (after a miss or at assembly).
    pub insertions: u64,
    /// Entries dropped by FIFO capacity eviction.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    // Keyed by (blob length, content hash). Lookup tables only — never
    // iterated, so bucket order cannot leak into any artifact.
    map: HashMap<(u64, u64), BitstreamHeader>,
    // FIFO insertion order for deterministic capacity eviction.
    order: VecDeque<(u64, u64)>,
    stats: CacheStats,
}

/// A bounded, thread-safe map from blob content hash to parsed metadata.
#[derive(Debug)]
pub struct BitstreamCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl BitstreamCache {
    /// An empty cache holding at most `capacity` entries (FIFO eviction).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BitstreamCache {
        assert!(capacity > 0, "zero-capacity bitstream cache");
        BitstreamCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
        }
    }

    /// The process-wide cache shared by every driver and tenant
    /// ([`BitstreamHeader::validate`] consults it).
    ///
    /// [`BitstreamHeader::validate`]: crate::BitstreamHeader::validate
    pub fn global() -> &'static BitstreamCache {
        static GLOBAL: OnceLock<BitstreamCache> = OnceLock::new();
        GLOBAL.get_or_init(|| BitstreamCache::new(DEFAULT_CACHE_CAPACITY))
    }

    /// Look up a blob by `(len, hash)`. Counts a hit or a miss.
    pub(crate) fn lookup(&self, len: u64, hash: u64) -> Option<BitstreamHeader> {
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        match inner.map.get(&(len, hash)).copied() {
            Some(header) => {
                inner.stats.hits += 1;
                Some(header)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert the header of a validated blob whose content hash is `hash`.
    pub(crate) fn insert(&self, hash: u64, header: BitstreamHeader) {
        let key = (header.len(), hash);
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        if inner.map.insert(key, header).is_none() {
            inner.order.push_back(key);
            inner.stats.insertions += 1;
            while inner.order.len() > self.capacity {
                let oldest = inner.order.pop_front().expect("non-empty order queue");
                inner.map.remove(&oldest);
                inner.stats.evictions += 1;
            }
        }
    }

    /// Record a validated bitstream (used by `assemble` to prime the cache
    /// with blobs that are valid by construction).
    pub fn admit(&self, bs: &Bitstream) {
        self.insert(content_hash64(bs.bytes()), bs.header());
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("bitstream cache poisoned")
            .map
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("bitstream cache poisoned").stats
    }

    /// Drop every entry and zero the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        inner.map.clear();
        inner.order.clear();
        inner.stats = CacheStats::default();
    }
}

/// Fast 64-bit content hash over a blob.
///
/// Four interleaved multiply-xorshift lanes (each bijective per step, so
/// every input bit perturbs its lane) folded with the length at the end.
/// Runs close to memory bandwidth — hashing a 37 MB shell image costs a
/// few milliseconds where the CRC + frame scan it replaces costs tens.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    // Not `coyote_sim::fnv`: a different, word-at-a-time hash; only its
    // first lane's seed shares the FNV offset.
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    #[inline(always)]
    fn mix(lane: u64, word: u64) -> u64 {
        let x = (lane ^ word).wrapping_mul(M);
        x ^ (x >> 29)
    }
    let mut lanes = [
        0xCBF2_9CE4_8422_2325u64,
        0x9AE1_6A3B_2F90_404Fu64,
        0xC2B2_AE3D_27D4_EB4Fu64,
        0x1656_67B1_9E37_79F9u64,
    ];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = mix(*lane, word);
        }
    }
    // Tail: fold the remaining 0..31 bytes into lane 0 eight at a time,
    // zero-padded, then mix in the true length so padding is unambiguous.
    let rem = chunks.remainder();
    for part in rem.chunks(8) {
        let mut word = [0u8; 8];
        word[..part.len()].copy_from_slice(part);
        lanes[0] = mix(lanes[0], u64::from_le_bytes(word));
    }
    let mut h = mix(lanes[0], bytes.len() as u64);
    h = mix(h, lanes[1]);
    h = mix(h, lanes[2]);
    h = mix(h, lanes[3]);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitstreamKind, DeviceKind};

    #[test]
    fn hash_is_bit_sensitive() {
        let mut blob = vec![0u8; 4096];
        let base = content_hash64(&blob);
        for byte in [0usize, 7, 31, 32, 4063, 4095] {
            for bit in 0..8 {
                blob[byte] ^= 1 << bit;
                assert_ne!(content_hash64(&blob), base, "byte {byte} bit {bit}");
                blob[byte] ^= 1 << bit;
            }
        }
        assert_eq!(content_hash64(&blob), base);
    }

    #[test]
    fn hash_distinguishes_lengths_and_padding() {
        // A blob and its zero-extended sibling must not collide even though
        // the tail is zero-padded into the same lane words.
        let a = vec![1u8; 33];
        let mut b = a.clone();
        b.push(0);
        assert_ne!(content_hash64(&a), content_hash64(&b));
        assert_ne!(content_hash64(&[]), content_hash64(&[0]));
    }

    #[test]
    fn fifo_eviction_is_bounded() {
        let cache = BitstreamCache::new(2);
        let header = BitstreamHeader {
            device: DeviceKind::U55C,
            kind: BitstreamKind::Full,
            frames: 1,
            digest: 0,
            len: 10,
        };
        cache.insert(1, header);
        cache.insert(2, header);
        cache.insert(3, header);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(10, 1).is_none(), "oldest entry evicted");
        assert!(cache.lookup(10, 2).is_some());
        assert!(cache.lookup(10, 3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let cache = BitstreamCache::new(2);
        let header = BitstreamHeader {
            device: DeviceKind::U55C,
            kind: BitstreamKind::Full,
            frames: 1,
            digest: 0,
            len: 10,
        };
        for _ in 0..10 {
            cache.insert(1, header);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }
}
