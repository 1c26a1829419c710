//! Offline bitstream verification (BS001–BS004).
//!
//! The driver's ICAP load path validates blobs at reconfiguration time —
//! when a bad image already means a failed deployment. This module runs the
//! same structural checks *offline* over the raw bytes: each rule is one
//! class of [`BitstreamError`]. Deployment fit is not re-checked here: the
//! `ConfigPort` refuses a wrong-device image (`ConfigError::DeviceMismatch`)
//! and the build flows size every image to its own partition.

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote_fabric::{BitstreamError, BitstreamHeader};

fn loc(name: &str, path: &str) -> Location {
    Location::new(format!("bitstream:{name}"), path)
}

/// Verify one blob.
pub fn lint_bitstream(name: &str, bytes: &[u8]) -> Report {
    let mut report = Report::new();
    if let Err(e) = BitstreamHeader::validate(bytes) {
        let (rule, path) = match &e {
            BitstreamError::BadMagic
            | BitstreamError::BadVersion(_)
            | BitstreamError::UnknownDevice(_)
            | BitstreamError::BadKind(_) => ("BS001", "header".to_string()),
            BitstreamError::TooShort(_) | BitstreamError::Truncated { .. } => {
                ("BS002", "body".to_string())
            }
            BitstreamError::CrcMismatch { .. } => ("BS003", "trailer".to_string()),
            BitstreamError::BadFrameAddress { index, .. } => ("BS004", format!("frame[{index}]")),
        };
        report.push(
            Diagnostic::new(rule, Severity::Error, loc(name, &path), e.to_string())
                .with_suggestion("re-run the build flow; do not hand-edit blobs"),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_fabric::{
        Bitstream, BitstreamKind, Device, DeviceKind, Floorplan, PartitionId, ShellProfile,
        FRAME_RECORD_BYTES, HEADER_BYTES,
    };

    #[test]
    fn well_built_images_verify_clean() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 2);
        for (kind, part) in [
            (BitstreamKind::Shell, PartitionId::Shell),
            (BitstreamKind::App { vfpga: 1 }, PartitionId::Vfpga(1)),
        ] {
            let frames = Device::frames_for_tiles(fp.tiles_of(part).unwrap());
            let bs = Bitstream::assemble(DeviceKind::U55C, kind, frames, 0xC0FFEE);
            let r = lint_bitstream("image", bs.bytes());
            assert!(r.is_clean(), "{}", r.render_human());
        }
    }

    #[test]
    fn structural_failures_map_to_rules() {
        let good = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 8, 1);

        let mut bad_magic = good.bytes().to_vec();
        bad_magic[0] = b'Z';
        assert_eq!(
            lint_bitstream("m", &bad_magic).diagnostics[0].rule_id,
            "BS001"
        );

        let mut short = good.bytes().to_vec();
        short.truncate(HEADER_BYTES);
        assert_eq!(lint_bitstream("s", &short).diagnostics[0].rule_id, "BS002");

        let mut flipped = good.bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        assert_eq!(
            lint_bitstream("c", &flipped).diagnostics[0].rule_id,
            "BS003"
        );

        let mut resequenced = good.bytes().to_vec();
        let off = HEADER_BYTES + 3 * FRAME_RECORD_BYTES;
        resequenced[off..off + 4].copy_from_slice(&77u32.to_le_bytes());
        let end = resequenced.len() - 4;
        let crc = coyote_fabric::crc32(&resequenced[..end]).to_le_bytes();
        resequenced[end..].copy_from_slice(&crc);
        let r = lint_bitstream("r", &resequenced);
        assert_eq!(r.diagnostics[0].rule_id, "BS004");
        assert_eq!(r.diagnostics[0].location.path, "frame[3]");
    }
}
