//! Crash-resume trailer for `mdbgp_cli stream` snapshot files.
//!
//! An engine snapshot ([`mdbgp_stream::snapshot`]) carries everything the
//! *engine* needs to continue, but a replay harness holds state of its
//! own: how far through the input file the stream got, and — under churn
//! — the original→current id map ([`crate::churn::IdTracker`]) that lets
//! it keep scripting in original input ids after the engine recycled or
//! renumbered slots. That map used to die with the saving process, which
//! is why `--load-snapshot` historically refused any snapshot whose run
//! had removed vertices (and any id epoch but 0). The trailer fixes that:
//! `--save-snapshot` appends this small framed record *after* the engine
//! snapshot in the same file, and the load path reads it back to restore
//! the harness state exactly.
//!
//! Layout (everything little-endian): magic `b"MDBGPRPL"` (8 bytes) and
//! the trailer version (`u32`, currently 1), then one frame of the shared
//! codec ([`mdbgp_stream::codec`]) — the payload length (`u32`), its
//! FNV-1a 64 checksum (`u64`), and the payload — the same frame a batch-log
//! record uses.
//!
//! Payload: `arrived` (`u32`), `batch_no` (`u64`), map length (`u32`),
//! then one `u32` per original id (`u32::MAX` = removed). Every snapshot
//! file `mdbgp_cli stream --save-snapshot` writes carries a trailer, so a
//! file that ends right after the engine snapshot is rejected by name
//! like any other damage. Errors are `String`s in the CLI's error idiom;
//! every corruption case (a missing trailer, truncation, bad magic,
//! version skew, checksum mismatch, a map that disagrees with `arrived`)
//! names what was wrong and yields no partial state.

use std::io::{Read, Write};

use mdbgp_graph::VertexId;
use mdbgp_stream::codec::{self, PayloadReader, PayloadWriter};
use mdbgp_stream::SnapshotError;

/// First 8 bytes of a resume trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"MDBGPRPL";

/// Current trailer format version.
pub const TRAILER_VERSION: u32 = 1;

/// The replay-harness state a resumed process needs alongside the engine
/// snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeState {
    /// How many original input vertices had been streamed (bootstrap
    /// prefix + arrivals) when the snapshot was taken.
    pub arrived: u32,
    /// Batches completed so far (display/continuation numbering).
    pub batch_no: u64,
    /// The [`crate::churn::IdTracker`] map: current engine id per
    /// original id, `u32::MAX` for removed originals. Length always
    /// equals `arrived`.
    pub map: Vec<VertexId>,
}

fn inconsistent(arrived: u32, map_len: usize) -> String {
    format!(
        "resume trailer is inconsistent: {arrived} arrived vertices but the id map tracks \
         {map_len}"
    )
}

/// Appends the trailer to `w` (call right after
/// `StreamingPartitioner::save_snapshot` on the same writer).
pub fn write_trailer<W: Write>(w: &mut W, state: &ResumeState) -> Result<(), String> {
    if state.map.len() != state.arrived as usize {
        return Err(inconsistent(state.arrived, state.map.len()));
    }
    let mut payload = PayloadWriter::default();
    payload.put_u32(state.arrived);
    payload.put_u64(state.batch_no);
    payload.put_u32(state.map.len() as u32);
    for &cur in &state.map {
        payload.put_u32(cur);
    }
    let err = |e: std::io::Error| format!("write resume trailer: {e}");
    w.write_all(&TRAILER_MAGIC).map_err(err)?;
    w.write_all(&TRAILER_VERSION.to_le_bytes()).map_err(err)?;
    codec::write_frame(w, &payload.buf, "trailer frame", "trailer payload")
        .map_err(|e| format!("write resume trailer: {e}"))?;
    Ok(())
}

/// Reads the trailer that follows the engine snapshot on `r`. Every
/// irregularity, a file that ends before the trailer included, is an
/// error naming the problem.
pub fn read_trailer<R: Read>(r: &mut R) -> Result<ResumeState, String> {
    // The codec reports in the snapshot's terms; the trailer sits in the
    // same file, after the engine snapshot.
    let err = |e: SnapshotError| format!("resume trailer: {e}");
    let mut header = [0u8; 12];
    if !codec::read_exact(r, &mut header, "trailer header", true).map_err(err)? {
        return Err("no resume trailer follows the engine snapshot".into());
    }
    let mut h = PayloadReader::new(&header);
    let magic: [u8; 8] = h.get_array("trailer header").map_err(err)?;
    if magic != TRAILER_MAGIC {
        return Err(format!(
            "bytes after the engine snapshot are not a resume trailer (magic {magic:?})"
        ));
    }
    let version = h.get_u32("trailer header").map_err(err)?;
    if version != TRAILER_VERSION {
        return Err(format!(
            "unsupported resume-trailer version {version} (this build reads {TRAILER_VERSION})"
        ));
    }
    let payload = codec::read_frame(r, "trailer frame", "trailer payload")
        .map_err(err)?
        .ok_or("resume trailer truncated: its header is not followed by a frame")?;
    let mut p = PayloadReader::new(&payload);
    let arrived = p.get_u32("trailer arrived").map_err(err)?;
    let batch_no = p.get_u64("trailer batch_no").map_err(err)?;
    let map_len = p.get_u32("trailer id map length").map_err(err)? as usize;
    if map_len != arrived as usize {
        return Err(inconsistent(arrived, map_len));
    }
    let map = (0..map_len)
        .map(|_| p.get_u32("trailer id map"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    if !p.finished() {
        return Err(format!(
            "resume trailer payload is {} bytes but its id map declares {map_len} entries",
            payload.len()
        ));
    }
    Ok(ResumeState {
        arrived,
        batch_no,
        map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResumeState {
        ResumeState {
            arrived: 5,
            batch_no: 12,
            map: vec![0, u32::MAX, 2, 1, u32::MAX],
        }
    }

    #[test]
    fn trailer_round_trips() {
        let state = sample();
        let mut bytes = Vec::new();
        write_trailer(&mut bytes, &state).unwrap();
        let back = read_trailer(&mut &bytes[..]).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn missing_trailer_is_a_named_error() {
        let err = read_trailer(&mut &[][..]).unwrap_err();
        assert!(err.contains("no resume trailer"), "{err}");
    }

    /// The exact bytes of [`sample`], pinned: magic, version,
    /// then the codec frame (length 36, checksum) and the payload.
    #[test]
    fn trailer_bytes_are_pinned() {
        let mut bytes = Vec::new();
        write_trailer(&mut bytes, &sample()).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4d4442475052504c01000000\
             2400000042e7c20adaa24a80\
             050000000c000000000000000500000000000000ffffffff0200000001000000ffffffff"
        );
    }

    #[test]
    fn every_flip_and_every_prefix_is_rejected() {
        let mut bytes = Vec::new();
        write_trailer(&mut bytes, &sample()).unwrap();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut broken = bytes.clone();
                broken[at] ^= 1 << bit;
                assert!(
                    read_trailer(&mut &broken[..]).is_err(),
                    "flip of bit {bit} at byte {at} read as a trailer"
                );
            }
        }
        for cut in 1..bytes.len() {
            let err = read_trailer(&mut &bytes[..cut]).unwrap_err();
            assert!(err.contains("truncated"), "prefix of {cut} bytes: {err}");
        }
    }

    #[test]
    fn corruption_is_named_and_yields_no_state() {
        let mut bytes = Vec::new();
        write_trailer(&mut bytes, &sample()).unwrap();

        let mut broken = bytes.clone();
        broken[0] ^= 0xFF;
        let err = read_trailer(&mut &broken[..]).unwrap_err();
        assert!(err.contains("not a resume trailer"), "{err}");

        let mut broken = bytes.clone();
        broken[8] = 9;
        let err = read_trailer(&mut &broken[..]).unwrap_err();
        assert!(err.contains("version 9"), "{err}");

        let last = bytes.len() - 1;
        let mut broken = bytes.clone();
        broken[last] ^= 0x01;
        let err = read_trailer(&mut &broken[..]).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        let err = read_trailer(&mut &bytes[..last]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        let err = read_trailer(&mut &bytes[..12]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn inconsistent_map_length_is_rejected_on_write() {
        let mut state = sample();
        state.map.pop();
        let err = write_trailer(&mut Vec::new(), &state).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");
    }
}
