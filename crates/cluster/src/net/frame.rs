//! Length-prefixed binary framing for the cluster wire.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! [magic: u32 LE][len: u32 LE][opcode: u8][payload: len-1 bytes][checksum: u32 LE]
//! ```
//!
//! * `magic` — [`MAGIC`], rejects cross-protocol garbage immediately;
//! * `len` — byte length of the body, `opcode + payload`, bounded by
//!   [`MAX_BODY_LEN`] so a corrupt length cannot make the decoder buffer
//!   more than a few frames' worth;
//! * `checksum` — [`checksum`] of the body. It guards the *framing*
//!   (torn writes, bit flips on the wire); chunk payloads are
//!   additionally content-verified end to end, because decoding a
//!   [`Chunk`](forkbase_chunk::Chunk) recomputes its cid.
//!
//! A frame is written where it is sent from: [`begin`] reserves the
//! header in the output buffer, the message appends its body behind it,
//! and [`finish`] fills the header in and checksums the body in place.
//!
//! Decoding is incremental and torn-read safe: [`FrameDecoder`] reads
//! whatever the socket produced — any split, down to one byte at a time
//! — into its own buffer and yields a frame only once every byte of it
//! has arrived. A partial frame is never misparsed, mirroring the
//! LogStore's torn-tail guarantees on disk. The payload it hands out is
//! a [`Bytes`] split off that buffer, so whatever a message decodes out
//! of it (a chunk's bytes, above all) is a slice of the frame, not a
//! copy.

use bytes::Bytes;
use forkbase_core::{FbError, Result};
use std::io::Read;

/// Frame magic: `FBW2` (ForkBase wire, version 2 — the word-wise
/// checksum).
pub const MAGIC: u32 = u32::from_le_bytes(*b"FBW2");

/// How many payload bytes a sender packs into one frame before it starts
/// the next: a `put_many` or a `get_many` reply larger than this travels
/// as several frames.
pub const FRAME_BUDGET: usize = 4 << 20;

/// Upper bound on `opcode + payload` length. A frame runs over
/// [`FRAME_BUDGET`] by at most its last item, so four budgets is room
/// for any chunk the engine cuts, and a corrupted length field fails
/// fast instead of allocating the moon.
pub const MAX_BODY_LEN: usize = 4 * FRAME_BUDGET;

/// Bytes in front of the body: magic + len.
pub const HEADER_LEN: usize = 4 + 4;

/// Bytes of framing around the body: magic + len + checksum.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 4;

/// How much the decoder asks the socket for while it does not know the
/// length of the frame it is in: a typical request and its header arrive
/// in one read.
const READ_HINT: usize = 16 << 10;

/// A decoded frame: opcode plus payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant (see [`super::proto`]).
    pub opcode: u8,
    /// Opcode-specific payload.
    pub payload: Bytes,
}

/// Framing-level decode failure. Fatal for the connection that produced
/// it: after corruption the stream offset can no longer be trusted, so
/// both sides drop the socket rather than resynchronize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The magic word did not match [`MAGIC`].
    BadMagic(u32),
    /// The length field was zero or exceeded [`MAX_BODY_LEN`].
    BadLength(u32),
    /// The body checksum did not match the header's.
    BadChecksum {
        /// Checksum carried by the frame.
        expected: u32,
        /// Checksum of the received body.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadLength(l) => write!(f, "bad frame length {l}"),
            FrameError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#010x}, body {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over the frame body taken eight bytes at a step (the tail
/// singly), 64-bit state folded to 32: one multiply per word instead of
/// one per byte.
pub fn checksum(body: &[u8]) -> u32 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut words = body.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        h = (h ^ word).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    (h ^ (h >> 32)) as u32
}

/// Empty a send buffer for its next message, keeping the capacity an
/// ordinary frame needs and giving back what a rare huge one grew it to
/// — the buffer lives as long as its connection.
pub fn recycle(out: &mut Vec<u8>) {
    out.clear();
    out.shrink_to(4 * READ_HINT);
}

/// Start a frame at the end of `out`: room for the header, then the
/// opcode. The caller appends the payload and calls [`finish`] with the
/// offset returned here.
pub fn begin(out: &mut Vec<u8>, opcode: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    out.push(opcode);
    start
}

/// Complete the frame begun at `start`: write its header and append the
/// checksum of the body as it lies in `out`. A body over
/// [`MAX_BODY_LEN`] is an error, not a frame the peer would refuse.
pub fn finish(out: &mut Vec<u8>, start: usize) -> Result<()> {
    let body_len = out.len() - start - HEADER_LEN;
    if body_len > MAX_BODY_LEN {
        return Err(FbError::Io(format!(
            "frame body of {body_len} bytes exceeds the {MAX_BODY_LEN}-byte bound"
        )));
    }
    out[start..start + 4].copy_from_slice(&MAGIC.to_le_bytes());
    out[start + 4..start + HEADER_LEN].copy_from_slice(&(body_len as u32).to_le_bytes());
    let sum = checksum(&out[start + HEADER_LEN..]);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Encode one frame with a ready-made payload into a fresh buffer.
pub fn encode(opcode: u8, payload: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + 1 + payload.len());
    let start = begin(&mut out, opcode);
    out.extend_from_slice(payload);
    finish(&mut out, start)?;
    Ok(out)
}

/// Incremental frame decoder over an arbitrarily-split byte stream.
///
/// Fill it from the socket with [`read_from`](Self::read_from); drain
/// complete frames with [`next_frame`](Self::next_frame). Bytes of an
/// incomplete frame stay buffered until the rest arrives — `next_frame`
/// returns `Ok(None)` in the meantime and never consumes a partial
/// frame.
#[derive(Default)]
pub struct FrameDecoder {
    /// The frame being received, from its first byte (and, if a read
    /// ran past its end, the start of the next).
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The whole length of the frame at the front of the buffer, once
    /// its header is here and sane.
    fn frame_len(&self) -> std::result::Result<Option<usize>, FrameError> {
        let Some(header) = self.buf.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let [m0, m1, m2, m3, l0, l1, l2, l3] = *header;
        let magic = u32::from_le_bytes([m0, m1, m2, m3]);
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let body_len = u32::from_le_bytes([l0, l1, l2, l3]);
        if body_len == 0 || body_len as usize > MAX_BODY_LEN {
            return Err(FrameError::BadLength(body_len));
        }
        Ok(Some(FRAME_OVERHEAD + body_len as usize))
    }

    /// Read from `src` into the buffer and return how many bytes came;
    /// `Ok(0)` is end of stream. While the length of the current frame
    /// is not known this is one `read` of up to `READ_HINT` bytes.
    /// Once it is, the buffer grows to exactly that frame and `src` is
    /// read until the frame is whole (or the stream ends or fails), so
    /// a frame of any size is assembled where it will be handed out
    /// from, and nothing of the next frame is taken.
    pub fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let have = self.buf.len();
        match self.frame_len() {
            Ok(Some(total)) if total > have => {
                let rest = total - have;
                self.buf.reserve_exact(rest);
                src.by_ref().take(rest as u64).read_to_end(&mut self.buf)
            }
            // No header yet, a frame waiting to be taken, or a header
            // `next_frame` is about to refuse.
            _ => {
                self.buf.resize(have + READ_HINT, 0);
                let read = src.read(&mut self.buf[have..]);
                self.buf.truncate(have + *read.as_ref().unwrap_or(&0));
                read
            }
        }
    }

    /// Decode the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> std::result::Result<Option<Frame>, FrameError> {
        let total = match self.frame_len()? {
            Some(total) if total <= self.buf.len() => total,
            _ => return Ok(None),
        };
        let body_end = total - 4;
        let expected = u32::from_le_bytes(
            *self.buf[body_end..total]
                .first_chunk()
                .expect("four checksum bytes"),
        );
        let actual = checksum(&self.buf[HEADER_LEN..body_end]);
        if expected != actual {
            return Err(FrameError::BadChecksum { expected, actual });
        }
        // The frame leaves as the buffer it arrived in; what a read took
        // of the next one stays behind.
        let rest = self.buf.split_off(total);
        let frame = Bytes::from(std::mem::replace(&mut self.buf, rest));
        Ok(Some(Frame {
            opcode: frame[HEADER_LEN],
            payload: frame.slice(HEADER_LEN + 1..body_end),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoder_over(mut bytes: &[u8]) -> FrameDecoder {
        let mut dec = FrameDecoder::new();
        while !bytes.is_empty() {
            dec.read_from(&mut bytes).expect("slice read");
        }
        dec
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut dec = decoder_over(&encode(7, b"hello frame").unwrap());
        let frame = dec.next_frame().expect("valid").expect("complete");
        assert_eq!(frame.opcode, 7);
        assert_eq!(&frame.payload[..], b"hello frame");
        assert_eq!(dec.next_frame().expect("valid"), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn empty_payload_frame() {
        let mut dec = decoder_over(&encode(1, b"").unwrap());
        let frame = dec.next_frame().expect("valid").expect("complete");
        assert_eq!(frame.opcode, 1);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn back_to_back_frames_in_one_read() {
        let mut bytes = encode(1, b"first").unwrap();
        bytes.extend_from_slice(&encode(2, b"second").unwrap());
        let mut dec = decoder_over(&bytes);
        assert_eq!(dec.next_frame().unwrap().unwrap().opcode, 1);
        assert_eq!(dec.next_frame().unwrap().unwrap().opcode, 2);
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn a_frame_longer_than_one_read_is_assembled_in_place() {
        let payload: Vec<u8> = (0..3 * READ_HINT).map(|i| (i % 251) as u8).collect();
        let bytes = encode(9, &payload).unwrap();
        let mut dec = decoder_over(&bytes);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(&frame.payload[..], &payload[..]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(1, b"x").unwrap();
        bytes[0] ^= 0xFF;
        let mut dec = decoder_over(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn oversize_length_rejected() {
        let mut bytes = encode(1, b"x").unwrap();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = decoder_over(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadLength(_))));
    }

    #[test]
    fn oversize_body_is_an_encode_error() {
        let mut out = Vec::new();
        let start = begin(&mut out, 1);
        out.resize(out.len() + MAX_BODY_LEN, 0);
        assert!(matches!(finish(&mut out, start), Err(FbError::Io(_))));
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = encode(3, b"sensitive payload").unwrap();
        bytes[10] ^= 0x01;
        let mut dec = decoder_over(&bytes);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn checksum_sees_every_byte_of_words_and_tail() {
        let body: Vec<u8> = (0..29u8).collect();
        let clean = checksum(&body);
        for i in 0..body.len() {
            let mut bent = body.clone();
            bent[i] ^= 0x40;
            assert_ne!(checksum(&bent), clean, "byte {i}");
        }
    }
}
