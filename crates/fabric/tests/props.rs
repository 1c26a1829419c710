//! Property-based tests on bitstreams and CRC.

use coyote_fabric::crc::{crc32, crc32_combine, Crc32};
use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind};
use proptest::prelude::*;

proptest! {
    /// Assemble -> parse is the identity for any geometry.
    #[test]
    fn bitstream_roundtrip(frames in 1u64..500, digest in any::<u64>(), vfpga in any::<u8>()) {
        for kind in [BitstreamKind::Full, BitstreamKind::Shell, BitstreamKind::App { vfpga }] {
            let bs = Bitstream::assemble(DeviceKind::U280, kind, frames, digest);
            let parsed = Bitstream::from_bytes(bs.bytes().to_vec()).unwrap();
            prop_assert_eq!(parsed.kind(), kind);
            prop_assert_eq!(parsed.frames(), frames);
            prop_assert_eq!(parsed.digest(), digest);
        }
    }

    /// Any single-byte corruption in the body is caught.
    #[test]
    fn corruption_always_detected(frames in 1u64..50, pos_seed in any::<u64>(), flip in 1u8..=255) {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 1);
        let mut bytes = bs.bytes().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(Bitstream::from_bytes(bytes).is_err(), "flip at {}", pos);
    }

    /// Streaming CRC equals one-shot CRC for any chunking.
    #[test]
    fn crc_chunking_invariant(data in prop::collection::vec(any::<u8>(), 0..4000),
                              chunk in 1usize..257) {
        let mut c = Crc32::new();
        for part in data.chunks(chunk) {
            c.update(part);
        }
        prop_assert_eq!(c.finish(), crc32(&data));
    }

    /// Joining the CRCs of two halves gives the CRC of the whole, for any
    /// split point, empty halves included.
    #[test]
    fn crc_combine_joins_any_split(data in prop::collection::vec(any::<u8>(), 0..4000),
                                   split_seed in any::<u64>()) {
        let split = (split_seed % (data.len() as u64 + 1)) as usize;
        for at in [0, split, data.len()] {
            let (a, b) = data.split_at(at);
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), crc32(&data));
        }
    }
}
