//! Length-prefixed binary framing and the primitive field codec.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +------------+-----------+----------+------------------+
//! | len: u32BE | ver: u8   | op: u8   | payload (len-2 B)|
//! +------------+-----------+----------+------------------+
//! ```
//!
//! `len` counts the version byte, the opcode byte, and the payload.
//! Frames larger than the decoder's configured maximum are a protocol
//! error (the connection closes) — a corrupted or hostile length prefix
//! must never translate into an unbounded allocation.
//!
//! Payload fields use fixed big-endian integers, `u8` booleans, and
//! `u32`-length-prefixed UTF-8 strings; repeated fields are a `u32`
//! count followed by the elements. The full field layout per opcode is
//! documented in `docs/SERVER.md`, which is the wire contract.
//!
//! The decoder ([`FrameDecoder`]) is incremental and panic-free:
//! truncated input parks as "need more bytes" (`Ok(None)`), and any
//! malformed byte sequence returns a typed [`WireError`] rather than
//! panicking, no matter what the peer sends.

// Panic-freedom: this file is on the request path or the engine core,
// so its non-test code returns typed errors instead of panicking.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt;

/// Hard ceiling on a frame body (version + opcode + payload), 32 MiB.
/// Large PTdf uploads and exports stream comfortably below this; anything
/// bigger is a corrupted length prefix or an abusive peer.
pub const MAX_FRAME: u32 = 32 * 1024 * 1024;

/// Wire-protocol errors. All of these are *protocol* failures: the
/// connection that produced one is no longer in a decodable state and
/// must be closed (after a best-effort error response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// Length the prefix claimed.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The length prefix is too small to hold the version + opcode bytes.
    FrameTooShort {
        /// Length the prefix claimed.
        len: u32,
    },
    /// A request's CRC-32 trailer does not match its fields: the
    /// payload was damaged in transit.
    BadChecksum,
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A payload field did not decode (truncation, bad UTF-8, bad enum
    /// discriminant, ...).
    Malformed(&'static str),
    /// The payload decoded but left unconsumed bytes behind.
    Trailing {
        /// Number of undecoded bytes left in the payload.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::FrameTooShort { len } => {
                write!(f, "frame of {len} bytes is too short for a header")
            }
            WireError::BadChecksum => f.write_str("request checksum mismatch"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Trailing { remaining } => {
                write!(f, "payload has {remaining} trailing bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame: header bytes plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version byte.
    pub version: u8,
    /// Opcode byte (see `docs/SERVER.md` for the table).
    pub opcode: u8,
    /// Raw payload bytes (field layout depends on the opcode).
    pub payload: Vec<u8>,
}

/// Assemble a complete frame (length prefix included) ready to write.
pub fn encode_frame(version: u8, opcode: u8, payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() + 2) as u32;
    let mut out = Vec::with_capacity(payload.len() + 6);
    out.extend_from_slice(&len.to_be_bytes());
    out.push(version);
    out.push(opcode);
    out.extend_from_slice(payload);
    out
}

/// Incremental frame decoder over a growable byte buffer.
///
/// Feed raw socket bytes with [`FrameDecoder::extend`]; drain complete
/// frames with [`FrameDecoder::next_frame`]. The decoder never panics on
/// any input byte sequence.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already returned as frames.
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder {
            buf: Vec::with_capacity(4096),
            consumed: 0,
        }
    }

    /// Append raw bytes received from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix here, once per read, rather than
        // once per frame; what moves is at most one partial frame.
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Try to decode the next complete frame. `Ok(None)` means "need
    /// more bytes"; an error means the stream is corrupt and the
    /// connection must be torn down.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let pending = self.buf.get(self.consumed..).unwrap_or_default();
        let Some(len) = be_u32(pending) else {
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(WireError::FrameTooLarge {
                len,
                max: MAX_FRAME,
            });
        }
        if len < 2 {
            return Err(WireError::FrameTooShort { len });
        }
        let Some(body) = pending.get(4..4 + len as usize) else {
            return Ok(None);
        };
        // `len >= 2` was checked above, so both header bytes exist; the
        // `get`-based destructuring keeps this provably panic-free.
        let (Some(&version), Some(&opcode)) = (body.first(), body.get(1)) else {
            return Err(WireError::FrameTooShort { len });
        };
        self.consumed += 4 + len as usize;
        Ok(Some(Frame {
            version,
            opcode,
            payload: body.get(2..).unwrap_or_default().to_vec(),
        }))
    }
}

/// Big-endian `u32` from the first four bytes, `None` when fewer than
/// four are available. Panic-free by construction.
fn be_u32(buf: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes([
        *buf.first()?,
        *buf.get(1)?,
        *buf.get(2)?,
        *buf.get(3)?,
    ]))
}

// ---------------------------------------------------------------------------
// Payload field primitives
// ---------------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a boolean as one byte (0/1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a `u32` count followed by each string.
pub fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

/// Sequential reader over a payload slice. Every accessor returns
/// [`WireError::Malformed`] on truncation instead of panicking.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed(what));
        }
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(WireError::Malformed(what))?;
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or(WireError::Malformed(what))
    }

    /// Read a boolean byte (anything nonzero is `true`).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        Ok(self.u8(what)? != 0)
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b: [u8; 4] = self
            .take(4, what)?
            .try_into()
            .map_err(|_| WireError::Malformed(what))?;
        Ok(u32::from_be_bytes(b))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b: [u8; 8] = self
            .take(8, what)?
            .try_into()
            .map_err(|_| WireError::Malformed(what))?;
        Ok(u64::from_be_bytes(b))
    }

    /// Read a `u32`-length-prefixed UTF-8 string. The declared length is
    /// validated against the remaining payload before any allocation, so
    /// a hostile length cannot trigger an OOM.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return Err(WireError::Malformed(what));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed(what))
    }

    /// Read a `u32`-count-prefixed list of strings.
    pub fn str_list(&mut self, what: &'static str) -> Result<Vec<String>, WireError> {
        let count = self.u32(what)? as usize;
        // Each element needs at least its 4-byte length prefix, which
        // bounds a hostile count by the actual payload size.
        if count > self.remaining() / 4 + 1 {
            return Err(WireError::Malformed(what));
        }
        let mut items = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            items.push(self.str(what)?);
        }
        Ok(items)
    }

    /// Assert the payload is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_through_decoder() {
        let frame = encode_frame(1, 0x42, b"hello");
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(got.version, 1);
        assert_eq!(got.opcode, 0x42);
        assert_eq!(got.payload, b"hello");
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let frame = encode_frame(1, 7, b"abc");
        let mut dec = FrameDecoder::new();
        for (i, b) in frame.iter().enumerate() {
            dec.extend(&[*b]);
            let r = dec.next_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(r.is_none(), "frame complete early at byte {i}");
            } else {
                assert_eq!(r.unwrap().payload, b"abc");
            }
        }
    }

    #[test]
    fn two_frames_in_one_read() {
        let mut bytes = encode_frame(1, 1, b"");
        bytes.extend_from_slice(&encode_frame(1, 2, b"x"));
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next_frame().unwrap().unwrap().opcode, 1);
        assert_eq!(dec.next_frame().unwrap().unwrap().opcode, 2);
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_is_an_error_not_an_allocation() {
        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn undersized_length_prefix_is_an_error() {
        let mut dec = FrameDecoder::new();
        dec.extend(&1u32.to_be_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::FrameTooShort { len: 1 })
        ));
    }

    #[test]
    fn reader_rejects_truncated_fields() {
        let mut out = Vec::new();
        put_u64(&mut out, 17);
        let mut r = PayloadReader::new(&out[..5]);
        assert!(r.u64("field").is_err());
    }

    #[test]
    fn reader_rejects_hostile_string_length() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // claims a 4 GiB string
        out.extend_from_slice(b"xy");
        let mut r = PayloadReader::new(&out);
        assert!(r.str("s").is_err());
    }

    #[test]
    fn reader_rejects_hostile_list_count() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // claims 4 G elements
        let mut r = PayloadReader::new(&out);
        assert!(r.str_list("list").is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut out = Vec::new();
        put_u32(&mut out, 5);
        let mut r = PayloadReader::new(&out);
        r.u8("v").unwrap();
        assert!(matches!(
            r.finish(),
            Err(WireError::Trailing { remaining: 3 })
        ));
    }

    #[test]
    fn string_roundtrip_with_unicode() {
        let mut out = Vec::new();
        put_str(&mut out, "naïve λ “quotes”");
        let mut r = PayloadReader::new(&out);
        assert_eq!(r.str("s").unwrap(), "naïve λ “quotes”");
        r.finish().unwrap();
    }
}
