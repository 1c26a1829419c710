//! Assembled images are pinned byte for byte: the CRC-32 trailer and the
//! content hash (the fleet cache key) of each image must never change, at
//! any worker-thread count. The frame counts straddle the first two
//! boundaries of the assembly's 1024-frame ranges, and the largest is the
//! 98,936-frame (37.2 MB) Table 3 scenario #1 shell. Each image must also
//! pass the uncached parse.

use coyote_fabric::{
    content_hash64, crc32, Bitstream, BitstreamCache, BitstreamHeader, BitstreamKind, DeviceKind,
};

/// `(frames, CRC-32 trailer, content_hash64)` for each pinned design.
type Golden = [(u64, u32, u64); 9];

const SHELL_U55C_C0FFEE: Golden = [
    (0, 0x49ac_d5fa, 0x74e4_0cdd_9411_604b),
    (1, 0x07f0_962e, 0x0f13_3f80_8d5b_d576),
    (1023, 0x382c_d05f, 0x40d6_0a7a_2898_4ee3),
    (1024, 0x42e6_319c, 0x4b4d_dbb8_e756_2645),
    (1025, 0xe124_4cdf, 0x220c_5a70_b9ef_6b84),
    (2047, 0xb55d_ecc1, 0x6370_0e86_c043_15c1),
    (2048, 0x9e6e_6adf, 0x6f25_44af_4473_8a1d),
    (2049, 0x5d7d_62ae, 0x0042_9223_3bd2_f6ef),
    (98_936, 0x4d8e_00ba, 0xd7a6_3528_f34c_0fe4),
];

const APP2_U280_GAMMA: Golden = [
    (0, 0xf269_4c45, 0x5813_8cdf_bc6d_90c8),
    (1, 0xb76d_5113, 0xcab7_2220_91d8_4242),
    (1023, 0xdbaa_411c, 0xdf79_25eb_1ba9_8691),
    (1024, 0x2543_c53f, 0x21a8_7df8_5115_9b02),
    (1025, 0x7d71_3f9b, 0x0a3f_2320_a94f_b52f),
    (2047, 0xa24a_d6fb, 0x2196_4bd5_6bea_0754),
    (2048, 0x58eb_36f0, 0xf0dd_d396_113e_e516),
    (2049, 0x5b4f_c39f, 0x3477_0193_baf0_1097),
    (98_936, 0xf68d_d203, 0xfe42_8407_71e2_4e19),
];

fn check(device: DeviceKind, kind: BitstreamKind, digest: u64, golden: &Golden) {
    for &(frames, crc, hash) in golden {
        let bs = Bitstream::assemble(device, kind, frames, digest);
        let bytes = bs.bytes();
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        assert_eq!(stored, crc, "{frames} frames: CRC trailer");
        assert_eq!(
            crc32(body),
            crc,
            "{frames} frames: trailer matches a serial CRC"
        );
        assert_eq!(content_hash64(bytes), hash, "{frames} frames: content hash");
        assert_eq!(
            BitstreamHeader::validate_in(&BitstreamCache::new(1), bytes),
            Ok(bs.header()),
            "{frames} frames: uncached parse"
        );
    }
}

#[test]
fn assembled_shell_images_are_pinned() {
    check(
        DeviceKind::U55C,
        BitstreamKind::Shell,
        0xC0FFEE,
        &SHELL_U55C_C0FFEE,
    );
}

#[test]
fn assembled_app_images_are_pinned() {
    check(
        DeviceKind::U280,
        BitstreamKind::App { vfpga: 2 },
        0x9E37_79B9_7F4A_7C15,
        &APP2_U280_GAMMA,
    );
}
