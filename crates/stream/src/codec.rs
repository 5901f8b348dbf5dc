//! The one byte codec behind every binary format the serving tier moves
//! between processes: the engine snapshot ([`crate::snapshot`]), the
//! replication batch log ([`crate::wire`]) and the CLI's resume trailer
//! (`mdbgp_bench::resume`).
//!
//! All three follow the same framing rule, and this module is the only
//! place that implements it:
//!
//! * a format opens with its magic and version, which the format itself
//!   checks (each names the mismatch in its own error type);
//! * a declared payload length only **bounds an incremental read** — it
//!   comes from bytes the checksum does not cover, so it is never trusted
//!   for an up-front allocation, and a corrupt length reports truncation
//!   (or a checksum mismatch) instead of aborting the process on a huge
//!   allocation ([`read_checked`]);
//! * an FNV-1a 64 checksum ([`fnv1a`]) is verified before any payload
//!   field is parsed ([`verify`]);
//! * a clean EOF before the first byte of a frame ends a stream, while an
//!   EOF inside one is a truncation naming what was being read
//!   ([`read_exact`]).
//!
//! The batch log's records and the resume trailer share one frame,
//! written by [`write_frame`] and read by [`read_frame`]:
//!
//! | size | field                                     |
//! |------|-------------------------------------------|
//! | 4    | payload length in bytes (`u32`)           |
//! | 8    | FNV-1a 64 checksum of the payload (`u64`) |
//! | …    | payload                                   |
//!
//! The snapshot header carries a `u64` length and the checksum among its
//! routing fields, then reads its payload with the same [`read_checked`].
//! Payloads (and fixed headers) are encoded with [`PayloadWriter`] and
//! decoded with the bounds-checked [`PayloadReader`]: everything is
//! little-endian, sequences are `u64`-length-prefixed, and every overrun
//! is a named truncation, never a panic.
//!
//! Failures come back in the snapshot's terms — the
//! [`SnapshotError::Io`], [`SnapshotError::Truncated`],
//! [`SnapshotError::ChecksumMismatch`] and [`SnapshotError::Corrupt`]
//! variants, each naming what was in flight; the batch log converts them
//! into the same-named [`crate::WireError`] variants and the resume
//! trailer into its messages. FNV-1a is an *integrity* check (bit rot,
//! torn writes), not an authenticity one; feed every format from trusted
//! storage.

use std::io::{Read, Write};

use crate::snapshot::SnapshotError;

/// Frame overhead in bytes ahead of a framed payload (length + checksum).
pub const FRAME_BYTES: usize = 4 + 8;

/// FNV-1a 64-bit — tiny, dependency-free, and plenty for the integrity
/// check these formats need (any accidental byte flip changes the hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Checks `bytes` against the checksum `stored` alongside them.
pub fn verify(bytes: &[u8], stored: u64) -> Result<(), SnapshotError> {
    let computed = fnv1a(bytes);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Fills `buf` from `r`, retrying interrupted reads. With `clean_eof`, a
/// stream that ends before the first byte returns `Ok(false)` (a clean
/// end at a frame boundary); any other early end is
/// [`SnapshotError::Truncated`] naming `context`.
pub fn read_exact<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
    clean_eof: bool,
) -> Result<bool, SnapshotError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && clean_eof => return Ok(false),
            Ok(0) => {
                return Err(SnapshotError::Truncated {
                    context,
                    needed: buf.len(),
                    available: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SnapshotError::io(context, e)),
        }
    }
    Ok(true)
}

/// Reads a payload of declared length `len` and verifies it against the
/// checksum `stored`. Both come from unchecksummed header bytes, so the
/// read is incremental: the buffer only grows to what the stream holds.
pub fn read_checked<R: Read>(
    r: &mut R,
    len: usize,
    stored: u64,
    context: &'static str,
) -> Result<Vec<u8>, SnapshotError> {
    let mut payload = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| SnapshotError::io(context, e))?;
    if payload.len() < len {
        return Err(SnapshotError::Truncated {
            context,
            needed: len,
            available: payload.len(),
        });
    }
    verify(&payload, stored)?;
    Ok(payload)
}

/// Writes `payload` as one frame (see the module docs) and flushes.
/// Returns the bytes written, frame included. I/O errors name
/// `frame_context` for the length and checksum, `payload_context` for
/// the payload.
pub fn write_frame<W: Write>(
    w: &mut W,
    payload: &[u8],
    frame_context: &'static str,
    payload_context: &'static str,
) -> Result<usize, SnapshotError> {
    let mut frame = [0u8; FRAME_BYTES];
    frame[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
    w.write_all(&frame)
        .map_err(|e| SnapshotError::io(frame_context, e))?;
    w.write_all(payload)
        .and_then(|()| w.flush())
        .map_err(|e| SnapshotError::io(payload_context, e))?;
    Ok(FRAME_BYTES + payload.len())
}

/// Reads and verifies the next frame's payload: `Ok(None)` at a clean
/// end of stream, [`SnapshotError::Truncated`] if the bytes stop inside
/// the frame (naming `frame_context` or `payload_context`), and
/// [`SnapshotError::ChecksumMismatch`] if the payload does not verify.
pub fn read_frame<R: Read>(
    r: &mut R,
    frame_context: &'static str,
    payload_context: &'static str,
) -> Result<Option<Vec<u8>>, SnapshotError> {
    let mut frame = [0u8; FRAME_BYTES];
    if !read_exact(r, &mut frame, frame_context, true)? {
        return Ok(None);
    }
    let mut fr = PayloadReader::new(&frame);
    let len = fr.get_u32(frame_context)? as usize;
    let stored = fr.get_u64(frame_context)?;
    read_checked(r, len, stored, payload_context).map(Some)
}

/// Append-only encoder: little-endian scalars, `u64`-length-prefixed
/// sequences.
#[derive(Default)]
pub struct PayloadWriter {
    /// The bytes encoded so far.
    pub buf: Vec<u8>,
}

impl PayloadWriter {
    /// Appends raw bytes (a magic, say) with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    fn put_vec<T: Copy>(&mut self, v: &[T], put: fn(&mut Self, T)) {
        self.put_usize(v.len());
        for &x in v {
            put(self, x);
        }
    }

    pub fn put_vec_u32(&mut self, v: &[u32]) {
        self.put_vec(v, Self::put_u32);
    }

    pub fn put_vec_usize(&mut self, v: &[usize]) {
        self.put_vec(v, Self::put_usize);
    }

    pub fn put_vec_f64(&mut self, v: &[f64]) {
        self.put_vec(v, Self::put_f64);
    }

    pub fn put_vec_bool(&mut self, v: &[bool]) {
        self.put_vec(v, Self::put_bool);
    }
}

/// Bounds-checked decoder over a verified payload; every overrun is a
/// named [`SnapshotError::Truncated`], never a panic.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader positioned at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Whether every byte was consumed (trailing bytes would mean the
    /// parse and the writer disagree about the format).
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `N` raw bytes (a magic, say).
    pub fn get_array<const N: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<[u8; N], SnapshotError> {
        let available = self.buf.len() - self.pos;
        let Some(bytes) = self.buf[self.pos..].first_chunk::<N>() else {
            return Err(SnapshotError::Truncated {
                context,
                needed: N,
                available,
            });
        };
        self.pos += N;
        Ok(*bytes)
    }

    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.get_array::<1>(context)?[0])
    }

    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.get_array(context)?))
    }

    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.get_array(context)?))
    }

    pub fn get_usize(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        let v = self.get_u64(context)?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("{context}: length {v} overflows usize")))
    }

    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!(
                "{context}: boolean byte is {other}"
            ))),
        }
    }

    /// Section tags are cheap structural markers inside a payload, so a
    /// parse that drifts out of sync fails loudly at the next boundary
    /// instead of misreading the rest.
    pub fn expect_section(&mut self, tag: u8) -> Result<(), SnapshotError> {
        let found = self.get_u8("section tag")?;
        if found != tag {
            return Err(SnapshotError::Corrupt(format!(
                "expected section tag {tag:#04x}, found {found:#04x}"
            )));
        }
        Ok(())
    }

    /// A `u64`-length-prefixed sequence. The length is bounded by the
    /// remaining bytes before anything is read, so a corrupt length
    /// cannot ask for an absurd allocation.
    fn get_vec<T>(
        &mut self,
        item_bytes: usize,
        context: &'static str,
        get: fn(&mut Self, &'static str) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = self.get_usize(context)?;
        let remaining = self.buf.len() - self.pos;
        if len > remaining / item_bytes {
            return Err(SnapshotError::Truncated {
                context,
                needed: len * item_bytes,
                available: remaining,
            });
        }
        (0..len).map(|_| get(self, context)).collect()
    }

    pub fn get_vec_u32(&mut self, context: &'static str) -> Result<Vec<u32>, SnapshotError> {
        self.get_vec(4, context, Self::get_u32)
    }

    pub fn get_vec_usize(&mut self, context: &'static str) -> Result<Vec<usize>, SnapshotError> {
        self.get_vec(8, context, Self::get_usize)
    }

    pub fn get_vec_f64(&mut self, context: &'static str) -> Result<Vec<f64>, SnapshotError> {
        self.get_vec(8, context, Self::get_f64)
    }

    pub fn get_vec_bool(&mut self, context: &'static str) -> Result<Vec<bool>, SnapshotError> {
        self.get_vec(1, context, Self::get_bool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most one byte per call and is
    /// interrupted before each, exercising the retry loop.
    struct Trickle<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = self.bytes.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_round_trip_through_a_trickling_reader() {
        let mut bytes = Vec::new();
        assert_eq!(write_frame(&mut bytes, b"abc", "f", "p").unwrap(), 15);
        assert_eq!(write_frame(&mut bytes, b"", "f", "p").unwrap(), 12);
        let mut r = Trickle {
            bytes: &bytes,
            interrupt: false,
        };
        assert_eq!(read_frame(&mut r, "f", "p").unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut r, "f", "p").unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, "f", "p").unwrap().is_none());
    }
}
