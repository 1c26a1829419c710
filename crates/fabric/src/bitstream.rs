//! Partial and full bitstreams as concrete byte blobs.
//!
//! §4: "Coyote v2 will then synthesize all the necessary partial bitstreams
//! which can dynamically be loaded onto the FPGA". The build flows in
//! `coyote-synth` *assemble* these blobs; the driver loads them from disk,
//! copies them to kernel space and streams them through a configuration
//! port, which *parses and validates* them. Sizes follow directly from the
//! floorplan's frame counts, which is what gives Table 3 its latencies.
//!
//! Each blob costs one pass to produce and nothing extra to deploy:
//!
//! * [`Bitstream::assemble`] fills and CRCs the frame records in fixed
//!   ranges of 1024 frames, one `coyote_sim::par_map` item each, and joins
//!   the range CRCs with [`crc32_combine`]. The bytes are the same at any
//!   thread count.
//! * [`BitstreamHeader::validate`] checks a *borrowed* blob, through the
//!   fleet-wide [`BitstreamCache`] on a repeat and with one serial CRC and
//!   frame-address pass on a miss, and returns the `Copy`
//!   [`BitstreamHeader`] that the configuration port and the driver
//!   program from.
//!
//! # Format
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CYT2"
//! 4       2     version (= 2), little-endian
//! 6       2     device id
//! 8       1     kind: 0 full, 1 shell, 2 app
//! 9       1     vFPGA id (0xFF unless kind = app)
//! 10      8     frame count
//! 18      8     design digest (identifies the routed design)
//! 26      6     reserved, zero
//! 32      n*376 frames: 4-byte frame address + 372-byte payload
//! 32+n*376 4    CRC-32 over everything before it
//! ```

use crate::cache::{content_hash64, BitstreamCache};
use crate::crc::{crc32, crc32_combine, Crc32};
use crate::device::{DeviceKind, FRAME_RECORD_BYTES};
use coyote_sim::par_map;
use std::sync::Mutex;

/// Header length in bytes.
pub const HEADER_BYTES: usize = 32;
/// Magic bytes.
pub const MAGIC: &[u8; 4] = b"CYT2";
/// Format version.
pub const VERSION: u16 = 2;

/// Frame records per range of the fanned-out assembly pass
/// (about 385 KB). A constant, not a tuning knob: the split decides only
/// which worker touches which bytes, never the bytes or the CRC.
const RANGE_FRAMES: usize = 1024;
const RANGE_BYTES: usize = RANGE_FRAMES * FRAME_RECORD_BYTES;

/// The splitmix64 increment of the frame payload stream.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// Splitmix words drawn per frame record: 372 payload bytes = 46 * 8 + 4.
const WORDS_PER_FRAME: u64 = 47;

/// What a bitstream reconfigures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitstreamKind {
    /// Whole device (Vivado Hardware Manager flow; Table 3 baseline).
    Full,
    /// The shell partition: services + all vFPGA regions (§4).
    Shell,
    /// A single vFPGA region.
    App {
        /// Target region index.
        vfpga: u8,
    },
}

impl BitstreamKind {
    fn code(self) -> (u8, u8) {
        match self {
            BitstreamKind::Full => (0, 0xFF),
            BitstreamKind::Shell => (1, 0xFF),
            BitstreamKind::App { vfpga } => (2, vfpga),
        }
    }

    fn from_code(kind: u8, vfpga: u8) -> Option<BitstreamKind> {
        match kind {
            0 => Some(BitstreamKind::Full),
            1 => Some(BitstreamKind::Shell),
            2 => Some(BitstreamKind::App { vfpga }),
            _ => None,
        }
    }
}

/// What a validated blob declares: the 32-byte header's fields plus the
/// blob length they were checked against.
///
/// Only this module makes one, by assembling a blob or by validating one
/// ([`BitstreamHeader::validate`]), so holding a header means its bytes
/// passed every check. It is `Copy`: the fleet cache stores it, and the
/// configuration port and driver program from it without holding the blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamHeader {
    pub(crate) device: DeviceKind,
    pub(crate) kind: BitstreamKind,
    pub(crate) frames: u64,
    pub(crate) digest: u64,
    pub(crate) len: u64,
}

impl BitstreamHeader {
    /// Validate a borrowed blob against the process-wide
    /// [`BitstreamCache`]: a content-hash hit whose header cross-checks
    /// skips the CRC and frame-address passes (any mutation of the bytes
    /// changes the hash and falls back to full validation). The blob is
    /// never copied.
    pub fn validate(bytes: &[u8]) -> Result<BitstreamHeader, BitstreamError> {
        BitstreamHeader::validate_in(BitstreamCache::global(), bytes)
    }

    /// [`BitstreamHeader::validate`] against an explicit cache instance
    /// (experiments that report cache statistics use a private cache so
    /// concurrent unrelated traffic cannot perturb their counters).
    pub fn validate_in(
        cache: &BitstreamCache,
        bytes: &[u8],
    ) -> Result<BitstreamHeader, BitstreamError> {
        let hash = content_hash64(bytes);
        if let Some(cached) = cache.lookup(bytes.len() as u64, hash) {
            // The cross-check defeats a hash collision between blobs whose
            // headers differ.
            if BitstreamHeader::parse(bytes) == Ok(cached) {
                return Ok(cached);
            }
        }
        let header = BitstreamHeader::parse_validated(bytes)?;
        cache.insert(hash, header);
        Ok(header)
    }

    /// The one header parser: length, magic, version, device, kind, and the
    /// frame count against the byte length, in that order. Serves both the
    /// full parse and the cache-hit cross-check.
    fn parse(bytes: &[u8]) -> Result<BitstreamHeader, BitstreamError> {
        if bytes.len() < HEADER_BYTES + 4 {
            return Err(BitstreamError::TooShort(bytes.len()));
        }
        if &bytes[0..4] != MAGIC {
            return Err(BitstreamError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(BitstreamError::BadVersion(version));
        }
        let dev_id = u16::from_le_bytes([bytes[6], bytes[7]]);
        let device = DeviceKind::from_id(dev_id).ok_or(BitstreamError::UnknownDevice(dev_id))?;
        let kind = BitstreamKind::from_code(bytes[8], bytes[9])
            .ok_or(BitstreamError::BadKind(bytes[8]))?;
        let frames = u64::from_le_bytes(bytes[10..18].try_into().expect("slice len 8"));
        let digest = u64::from_le_bytes(bytes[18..26].try_into().expect("slice len 8"));
        let frame_bytes = (bytes.len() - HEADER_BYTES - 4) as u64;
        // Checked arithmetic: a corrupted frame count must yield a clean
        // error, not an overflow (found by proptest).
        match frames.checked_mul(FRAME_RECORD_BYTES as u64) {
            Some(expected) if expected == frame_bytes => {}
            _ => {
                return Err(BitstreamError::Truncated {
                    expected_frames: frames,
                    have_bytes: frame_bytes as usize,
                })
            }
        }
        Ok(BitstreamHeader {
            device,
            kind,
            frames,
            digest,
            len: bytes.len() as u64,
        })
    }

    /// The uncached parse path: the header, then the CRC over the body,
    /// then the frame addresses. A CRC mismatch is reported before a bad
    /// frame address.
    fn parse_validated(bytes: &[u8]) -> Result<BitstreamHeader, BitstreamError> {
        let header = BitstreamHeader::parse(bytes)?;
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("slice len 4"));
        let computed = crc32(body);
        if stored != computed {
            return Err(BitstreamError::CrcMismatch { stored, computed });
        }
        // Frame addresses must be the sequence 0..frames. The CRC does not
        // protect against a blob that was *assembled* wrong (and therefore
        // carries a CRC over the wrong addresses), so this is a separate
        // typed check, not a corruption check.
        for (index, record) in (0u64..).zip(body[HEADER_BYTES..].chunks_exact(FRAME_RECORD_BYTES)) {
            let found = u32::from_le_bytes(record[..4].try_into().expect("slice len 4"));
            if u64::from(found) != index {
                return Err(BitstreamError::BadFrameAddress { index, found });
            }
        }
        Ok(header)
    }

    /// The 32-byte header encoding.
    fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut h = [0u8; HEADER_BYTES];
        h[0..4].copy_from_slice(MAGIC);
        h[4..6].copy_from_slice(&VERSION.to_le_bytes());
        h[6..8].copy_from_slice(&self.device.id().to_le_bytes());
        (h[8], h[9]) = self.kind.code();
        h[10..18].copy_from_slice(&self.frames.to_le_bytes());
        h[18..26].copy_from_slice(&self.digest.to_le_bytes());
        h
    }

    /// Target device.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// What the bitstream reconfigures.
    pub fn kind(&self) -> BitstreamKind {
        self.kind
    }

    /// Frame count.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Design digest (identifies the routed design the blob encodes).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Blob length in bytes; the quantity every reconfiguration latency in
    /// Tables 2 and 3 scales with.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Never empty: a valid blob holds at least a header and a trailer.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Split the validated blob `bytes` into contiguous frame runs for
    /// batched ICAP application: one address setup and one CRC check per
    /// *run* instead of per frame. `max_frames_per_run = None` yields a
    /// single run covering the whole blob, which programs in exactly the
    /// time the unbatched path took.
    ///
    /// Run 0 absorbs the 32-byte header and the last run absorbs the
    /// 4-byte CRC trailer, so the runs' byte lengths sum to `len()` and
    /// streaming every run moves the same bytes as streaming the blob.
    /// Each run carries a CRC-32 over its pristine byte range; a bit flip
    /// anywhere in a run's bytes (header and trailer included) fails that
    /// run's check without touching the others.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not carry this header at this length, i.e. is
    /// not the blob this header was validated from.
    pub fn frame_runs(&self, bytes: &[u8], max_frames_per_run: Option<u64>) -> Vec<FrameRun> {
        assert_eq!(
            BitstreamHeader::parse(bytes),
            Ok(*self),
            "frame runs of a different blob"
        );
        let per = max_frames_per_run.unwrap_or(u64::MAX).max(1);
        let n_runs = self.frames.div_ceil(per).max(1);
        let total_len = bytes.len();
        let mut runs = Vec::with_capacity(n_runs as usize);
        for i in 0..n_runs {
            let first_frame = i * per;
            let frames = per.min(self.frames - first_frame);
            let byte_off = if i == 0 {
                0
            } else {
                HEADER_BYTES + first_frame as usize * FRAME_RECORD_BYTES
            };
            let byte_end = if i == n_runs - 1 {
                total_len
            } else {
                HEADER_BYTES + (first_frame + frames) as usize * FRAME_RECORD_BYTES
            };
            runs.push(FrameRun {
                index: i as u32,
                first_frame,
                frames,
                byte_off,
                byte_len: byte_end - byte_off,
                crc: crc32(&bytes[byte_off..byte_end]),
            });
        }
        runs
    }
}

/// Fill the frame records of `range`, whose first record is frame
/// `first_frame`, and return their CRC-32. The payload words continue one
/// splitmix64 stream across the whole blob; the stream can be seeked, so
/// each range starts from the state after `47 · first_frame` words.
fn fill_range(range: &mut [u8], digest: u64, first_frame: u64) -> u32 {
    #[inline(always)]
    fn next(word: &mut u64) -> u64 {
        *word = word.wrapping_add(GAMMA);
        let mut z = *word;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut word = (digest ^ GAMMA).wrapping_add(
        WORDS_PER_FRAME
            .wrapping_mul(first_frame)
            .wrapping_mul(GAMMA),
    );
    // Each record is checksummed while it is still cache-hot, instead of
    // re-reading the range from memory in a second pass.
    let mut crc = Crc32::new();
    for (addr, record) in (first_frame..).zip(range.chunks_exact_mut(FRAME_RECORD_BYTES)) {
        let record: &mut [u8; FRAME_RECORD_BYTES] = record.try_into().expect("exact record chunk");
        record[..4].copy_from_slice(&(addr as u32).to_le_bytes());
        let payload = &mut record[4..];
        let mut chunks = payload.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&next(&mut word).to_le_bytes());
        }
        // 372 = 46 * 8 + 4: fill the tail from one more word.
        let tail = chunks.into_remainder();
        let last = next(&mut word).to_le_bytes();
        let n = tail.len();
        tail.copy_from_slice(&last[..n]);
        crc.update(record);
    }
    crc.finish()
}

/// Validation failures when parsing a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// Shorter than a header + trailer.
    TooShort(usize),
    /// Wrong magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown device id.
    UnknownDevice(u16),
    /// Unknown kind code.
    BadKind(u8),
    /// Declared frame count disagrees with the byte length.
    Truncated {
        /// Frames the header promised.
        expected_frames: u64,
        /// Bytes actually present for frame data.
        have_bytes: usize,
    },
    /// Integrity check failed.
    CrcMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// A frame record carries the wrong frame address. Frame records are
    /// written sequentially from zero; anything else means the blob was
    /// assembled wrong or rewritten (with a re-stamped CRC).
    BadFrameAddress {
        /// Record index within the blob.
        index: u64,
        /// Address found in the record header.
        found: u32,
    },
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::TooShort(n) => write!(f, "bitstream of {n} bytes is too short"),
            BitstreamError::BadMagic => write!(f, "bad magic (not a Coyote v2 bitstream)"),
            BitstreamError::BadVersion(v) => write!(f, "unsupported bitstream version {v}"),
            BitstreamError::UnknownDevice(id) => write!(f, "unknown device id {id:#06x}"),
            BitstreamError::BadKind(k) => write!(f, "unknown bitstream kind {k}"),
            BitstreamError::Truncated {
                expected_frames,
                have_bytes,
            } => {
                write!(f, "truncated: header promises {expected_frames} frames, {have_bytes} bytes present")
            }
            BitstreamError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            BitstreamError::BadFrameAddress { index, found } => {
                write!(
                    f,
                    "frame record {index} carries address {found} (expected {index})"
                )
            }
        }
    }
}

impl std::error::Error for BitstreamError {}

/// A validated bitstream that owns its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    bytes: Vec<u8>,
    header: BitstreamHeader,
}

impl Bitstream {
    /// Assemble a bitstream covering `frames` configuration frames for a
    /// design identified by `digest`. Frame payloads are a deterministic
    /// function of `(digest, frame index)` so distinct designs produce
    /// distinct, reproducible blobs.
    ///
    /// The frame records are filled and checksummed in fixed ranges, one
    /// `par_map` item each, and the range CRCs are joined in order with
    /// [`crc32_combine`]; the bytes are identical at any thread count.
    pub fn assemble(
        device: DeviceKind,
        kind: BitstreamKind,
        frames: u64,
        digest: u64,
    ) -> Bitstream {
        let body_len = HEADER_BYTES + frames as usize * FRAME_RECORD_BYTES;
        let header = BitstreamHeader {
            device,
            kind,
            frames,
            digest,
            len: body_len as u64 + 4,
        };
        // One zeroed allocation, filled in place: the workers' first
        // writes fault its pages in on separate cores.
        let mut bytes = vec![0u8; body_len + 4];
        bytes[..HEADER_BYTES].copy_from_slice(&header.encode());
        let header_crc = crc32(&bytes[..HEADER_BYTES]);
        let ranges: Vec<Mutex<&mut [u8]>> = bytes[HEADER_BYTES..body_len]
            .chunks_mut(RANGE_BYTES)
            .map(Mutex::new)
            .collect();
        let crcs = par_map(&ranges, |i, range| {
            // Uncontended: each range is one item, claimed by one worker.
            let mut range = range.lock().expect("range lock poisoned");
            let crc = fill_range(&mut range, digest, (i * RANGE_FRAMES) as u64);
            (crc, range.len() as u64)
        });
        drop(ranges);
        let crc = crcs
            .into_iter()
            .fold(header_crc, |acc, (crc, len)| crc32_combine(acc, crc, len));
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let bs = Bitstream { bytes, header };
        // A freshly assembled blob is valid by construction: prime the
        // fleet-wide cache so even its *first* deployment skips the parse.
        // The content hash stays a separate sequential pass: its lanes
        // chain across the whole blob.
        BitstreamCache::global().admit(&bs);
        bs
    }

    /// Validate a blob (see [`BitstreamHeader::validate`]) and take
    /// ownership of it.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Bitstream, BitstreamError> {
        let header = BitstreamHeader::validate(&bytes)?;
        Ok(Bitstream { bytes, header })
    }

    /// The raw blob (what sits in the `.bin` file).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The validated header.
    pub fn header(&self) -> BitstreamHeader {
        self.header
    }

    /// Blob length in bytes; the quantity every reconfiguration latency in
    /// Tables 2 and 3 scales with.
    pub fn len(&self) -> u64 {
        self.header.len
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Target device.
    pub fn device(&self) -> DeviceKind {
        self.header.device
    }

    /// What this bitstream reconfigures.
    pub fn kind(&self) -> BitstreamKind {
        self.header.kind
    }

    /// Frame count.
    pub fn frames(&self) -> u64 {
        self.header.frames
    }

    /// Design digest (identifies the routed design the blob encodes).
    pub fn digest(&self) -> u64 {
        self.header.digest
    }

    /// Iterate over the frame records as `(frame address, payload)` pairs —
    /// the view an offline verifier (e.g. `coyote-lint`) needs without going
    /// through the ICAP load path.
    pub fn frame_records(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.bytes[HEADER_BYTES..self.bytes.len() - 4]
            .chunks_exact(FRAME_RECORD_BYTES)
            .map(|rec| {
                let addr = u32::from_le_bytes(rec[..4].try_into().expect("slice len 4"));
                (addr, &rec[4..])
            })
    }
}

/// One contiguous run of frame records, as applied by the batched ICAP
/// path (see [`BitstreamHeader::frame_runs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRun {
    /// Run index within the batch.
    pub index: u32,
    /// First frame covered by this run.
    pub first_frame: u64,
    /// Frames in this run.
    pub frames: u64,
    /// Byte offset of the run within the blob.
    pub byte_off: usize,
    /// Bytes streamed for this run (run 0 includes the header, the last
    /// run includes the CRC trailer).
    pub byte_len: usize,
    /// CRC-32 over the pristine run bytes; the per-run integrity check.
    pub crc: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::floorplan::{Floorplan, PartitionId, ShellProfile};

    #[test]
    fn assemble_parse_roundtrip() {
        let bs = Bitstream::assemble(
            DeviceKind::U55C,
            BitstreamKind::App { vfpga: 3 },
            100,
            0xABCD,
        );
        let parsed = Bitstream::from_bytes(bs.bytes().to_vec()).unwrap();
        assert_eq!(parsed.device(), DeviceKind::U55C);
        assert_eq!(parsed.kind(), BitstreamKind::App { vfpga: 3 });
        assert_eq!(parsed.frames(), 100);
        assert_eq!(parsed.digest(), 0xABCD);
        assert_eq!(parsed.len(), bs.len());
    }

    #[test]
    fn shell_bitstream_size_matches_floorplan() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
        let tiles = fp.tiles_of(PartitionId::Shell).unwrap();
        let frames = Device::frames_for_tiles(tiles);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 1);
        let expected = HEADER_BYTES as u64 + frames * FRAME_RECORD_BYTES as u64 + 4;
        assert_eq!(bs.len(), expected);
        // ~37 MB: the scenario #1 shell of Table 3.
        assert!((37.0..37.5).contains(&(bs.len() as f64 / 1e6)));
    }

    #[test]
    fn corruption_is_detected() {
        let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::Shell, 10, 7);
        let mut bytes = bs.bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Bitstream::from_bytes(bytes),
            Err(BitstreamError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 10, 7);
        let mut bytes = bs.bytes().to_vec();
        bytes.truncate(bytes.len() - FRAME_RECORD_BYTES);
        // Re-stamp a valid CRC so only the length check can catch it.
        let body_end = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            Bitstream::from_bytes(bytes),
            Err(BitstreamError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 1, 0);
        let mut bad_magic = bs.bytes().to_vec();
        bad_magic[0] = b'X';
        assert_eq!(
            Bitstream::from_bytes(bad_magic).unwrap_err(),
            BitstreamError::BadMagic
        );

        let mut bad_version = bs.bytes().to_vec();
        bad_version[4] = 9;
        // CRC will also mismatch, but version is checked first.
        assert_eq!(
            Bitstream::from_bytes(bad_version).unwrap_err(),
            BitstreamError::BadVersion(9)
        );
    }

    #[test]
    fn distinct_digests_give_distinct_payloads() {
        let a = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 5, 1);
        let b = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 5, 2);
        assert_ne!(a.bytes()[HEADER_BYTES..], b.bytes()[HEADER_BYTES..]);
    }

    #[test]
    fn too_short_rejected() {
        assert!(matches!(
            Bitstream::from_bytes(vec![0u8; 10]),
            Err(BitstreamError::TooShort(10))
        ));
    }

    #[test]
    fn rewritten_frame_address_rejected_despite_valid_crc() {
        // Frame 5 of a small blob, and frame 2048 of a 3000-frame blob in
        // which frame 2500 is also rewritten: the lowest bad index is the
        // one reported.
        for (frames, index, also) in [(8u64, 5u64, None), (3000, 2048, Some(2500u64))] {
            let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 3);
            let mut bytes = bs.bytes().to_vec();
            for i in std::iter::once(index).chain(also) {
                let off = HEADER_BYTES + i as usize * FRAME_RECORD_BYTES;
                bytes[off..off + 4].copy_from_slice(&999u32.to_le_bytes());
            }
            // A stale CRC is reported before the bad address.
            assert!(matches!(
                Bitstream::from_bytes(bytes.clone()).unwrap_err(),
                BitstreamError::CrcMismatch { .. }
            ));
            // Re-stamp the CRC so only the address check can catch it.
            let body_end = bytes.len() - 4;
            let crc = crate::crc::crc32(&bytes[..body_end]).to_le_bytes();
            bytes[body_end..].copy_from_slice(&crc);
            assert_eq!(
                Bitstream::from_bytes(bytes).unwrap_err(),
                BitstreamError::BadFrameAddress { index, found: 999 }
            );
        }
    }

    #[test]
    fn frame_records_expose_sequential_addresses() {
        let bs = Bitstream::assemble(DeviceKind::U280, BitstreamKind::App { vfpga: 1 }, 6, 9);
        let records: Vec<(u32, usize)> = bs.frame_records().map(|(a, p)| (a, p.len())).collect();
        assert_eq!(records.len(), 6);
        for (i, (addr, len)) in records.iter().enumerate() {
            assert_eq!(*addr as usize, i);
            assert_eq!(*len, FRAME_RECORD_BYTES - 4);
        }
    }

    #[test]
    fn unknown_device_and_kind_rejected() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 1, 0);
        let mut bad_dev = bs.bytes().to_vec();
        bad_dev[6..8].copy_from_slice(&0xDEADu16.to_le_bytes());
        assert_eq!(
            Bitstream::from_bytes(bad_dev).unwrap_err(),
            BitstreamError::UnknownDevice(0xDEAD)
        );
        let mut bad_kind = bs.bytes().to_vec();
        bad_kind[8] = 7;
        assert_eq!(
            Bitstream::from_bytes(bad_kind).unwrap_err(),
            BitstreamError::BadKind(7)
        );
    }

    #[test]
    fn frame_runs_partition_the_blob_exactly() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 10, 3);
        // Single run covers everything.
        let single = bs.header().frame_runs(bs.bytes(), None);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].byte_off, 0);
        assert_eq!(single[0].byte_len as u64, bs.len());
        assert_eq!(single[0].frames, 10);
        assert_eq!(single[0].crc, crc32(bs.bytes()));

        // 4-frame runs: 4 + 4 + 2, contiguous, summing to the blob length.
        let runs = bs.header().frame_runs(bs.bytes(), Some(4));
        assert_eq!(runs.len(), 3);
        assert_eq!(runs.iter().map(|r| r.frames).sum::<u64>(), 10);
        assert_eq!(
            runs.iter().map(|r| r.byte_len as u64).sum::<u64>(),
            bs.len()
        );
        let mut off = 0;
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index as usize, i);
            assert_eq!(run.byte_off, off, "runs are contiguous");
            let range = &bs.bytes()[run.byte_off..run.byte_off + run.byte_len];
            assert_eq!(run.crc, crc32(range), "per-run CRC covers the run bytes");
            off += run.byte_len;
        }
        assert_eq!(runs[0].byte_off, 0, "run 0 absorbs the header");
        assert_eq!(off as u64, bs.len(), "last run absorbs the trailer");
    }

    #[test]
    #[should_panic(expected = "frame runs of a different blob")]
    fn frame_runs_reject_another_blob_of_the_same_length() {
        let a = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 10, 3);
        let b = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 10, 4);
        a.header().frame_runs(b.bytes(), None);
    }

    #[test]
    fn cache_hit_skips_validation_but_matches_full_parse() {
        let cache = crate::cache::BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U280, BitstreamKind::App { vfpga: 2 }, 20, 42);
        let first = BitstreamHeader::validate_in(&cache, bs.bytes()).unwrap();
        let second = BitstreamHeader::validate_in(&cache, bs.bytes()).unwrap();
        assert_eq!(first, second, "cached parse is identical");
        assert_eq!(second, bs.header());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "first parse validates fully");
        assert_eq!(stats.hits, 1, "second parse is answered from the cache");
    }

    #[test]
    fn mutated_blob_misses_cache_and_is_still_rejected() {
        let cache = crate::cache::BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 12, 9);
        BitstreamHeader::validate_in(&cache, bs.bytes()).unwrap();
        // Flip one payload bit: the content hash changes, so the cached
        // entry cannot mask the corruption.
        let mut corrupt = bs.bytes().to_vec();
        corrupt[HEADER_BYTES + 100] ^= 0x01;
        assert!(matches!(
            BitstreamHeader::validate_in(&cache, &corrupt),
            Err(BitstreamError::CrcMismatch { .. })
        ));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn overflowing_frame_count_rejected() {
        // A frame count whose byte size overflows u64 must yield Truncated,
        // not a panic.
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 1, 0);
        let mut bytes = bs.bytes().to_vec();
        bytes[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            Bitstream::from_bytes(bytes),
            Err(BitstreamError::Truncated { .. })
        ));
    }
}
