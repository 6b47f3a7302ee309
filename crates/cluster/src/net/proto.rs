//! Request/response messages carried by the frame layer.
//!
//! Every payload begins with a little-endian `u64` request id. The
//! client allocates ids and the server echoes them verbatim, so a caller
//! can tell its own answer from anything else that turns up on the
//! socket (a reply its previous owner stopped waiting for, say).
//! Response opcodes are the request opcode with the high bit set, plus
//! [`OP_ERR`] for server-side failures.
//!
//! A message is encoded once, straight into the buffer that is written
//! to the socket: the frame header is reserved, the body appended behind
//! it — chunk payloads copied from their [`Bytes`] exactly once — and
//! the checksum taken over the body where it lies. Decoding goes the
//! other way without a copy: a chunk's payload is a slice of the frame
//! it arrived in.
//!
//! Chunks travel in their canonical on-wire form (`[type: u8][payload…]`)
//! and are re-hashed on decode — a whole batch as one
//! [`hash_tagged_batch`](forkbase_crypto::hash_tagged_batch) call — so a
//! fetched chunk is verified against the requested cid end to end: the
//! wire inherits the storage layer's tamper evidence (§4.4) rather than
//! trusting the frame checksum alone.
//!
//! One request is one frame; the sender keeps it within
//! [`FRAME_BUDGET`]. A `get_many` reply cannot be sized by the asker, so
//! the server splits it: each frame answers the next run of cids, and
//! the client reads frames until every cid is answered.

use super::frame::{self, FRAME_BUDGET};
use bytes::Bytes;
use forkbase_chunk::{Chunk, ChunkType, PutOutcome, StoreStats};
use forkbase_core::{FbError, Result};
use forkbase_crypto::Digest;

/// Fetch one chunk.
pub const OP_GET: u8 = 0x01;
/// Fetch a batch of chunks.
pub const OP_GET_MANY: u8 = 0x02;
/// Store one chunk.
pub const OP_PUT: u8 = 0x03;
/// Store a batch of chunks.
pub const OP_PUT_MANY: u8 = 0x04;
/// Node statistics snapshot.
pub const OP_STATS: u8 = 0x05;
/// Response bit: `request opcode | OP_RESP` answers that request.
pub const OP_RESP: u8 = 0x80;
/// Server-side failure response (payload: request id + UTF-8 message).
pub const OP_ERR: u8 = 0xFF;

/// A decoded request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Fetch one chunk by cid.
    Get(Digest),
    /// Fetch many chunks; the response answers positionally.
    GetMany(Vec<Digest>),
    /// Store one chunk.
    Put(Chunk),
    /// Store many chunks; the response answers positionally.
    PutMany(Vec<Chunk>),
    /// Snapshot the node's [`StoreStats`].
    Stats,
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Get`].
    Get(Option<Chunk>),
    /// Answer to [`Request::GetMany`].
    GetMany(Vec<Option<Chunk>>),
    /// Answer to [`Request::Put`].
    Put(PutOutcome),
    /// Answer to [`Request::PutMany`].
    PutMany(Vec<PutOutcome>),
    /// Answer to [`Request::Stats`].
    Stats(StoreStats),
    /// The server failed to execute the request.
    Err(String),
}

fn put_u32(out: &mut Vec<u8>, v: usize) -> Result<()> {
    let v = u32::try_from(v).map_err(|_| FbError::Io(format!("count {v} does not fit a frame")))?;
    out.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

/// `[type][payload]`, the chunk's bytes copied out of their `Bytes` once.
fn put_chunk(out: &mut Vec<u8>, chunk: &Chunk) {
    out.push(chunk.ty() as u8);
    out.extend_from_slice(chunk.payload());
}

/// A chunk inside a batch: its encoded length, then the chunk.
fn put_sized_chunk(out: &mut Vec<u8>, chunk: &Chunk) -> Result<()> {
    put_u32(out, 1 + chunk.len())?;
    put_chunk(out, chunk);
    Ok(())
}

/// Bytes a chunk takes inside a batch — what a sender adds up
/// against [`FRAME_BUDGET`].
pub fn sized_chunk_len(chunk: &Chunk) -> usize {
    4 + 1 + chunk.len()
}

/// Sequential reader over a payload.
struct Cursor<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a Bytes) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(*self.take(4)?.first_chunk()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(*self.take(8)?.first_chunk()?))
    }

    fn digest(&mut self) -> Option<Digest> {
        Digest::from_slice(self.take(Digest::LEN)?)
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// The `len` bytes of an encoded chunk: its type, and its payload as
    /// a slice of the frame. Not yet a [`Chunk`] — the cid is still to
    /// be computed.
    fn chunk_parts(&mut self, len: usize) -> Option<(ChunkType, Bytes)> {
        let ty = ChunkType::from_u8(self.u8()?)?;
        let start = self.pos;
        self.take(len.checked_sub(1)?)?;
        Some((ty, self.buf.slice(start..self.pos)))
    }

    /// A chunk that fills the rest of the payload.
    fn chunk(&mut self) -> Option<Chunk> {
        let (ty, payload) = self.chunk_parts(self.buf.len() - self.pos)?;
        Some(Chunk::new(ty, payload))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn outcome_byte(outcome: PutOutcome) -> u8 {
    match outcome {
        PutOutcome::Stored => 0,
        PutOutcome::Deduplicated => 1,
    }
}

fn outcome_from(byte: u8) -> Option<PutOutcome> {
    match byte {
        0 => Some(PutOutcome::Stored),
        1 => Some(PutOutcome::Deduplicated),
        _ => None,
    }
}

impl Request {
    fn opcode(&self) -> u8 {
        match self {
            Request::Get(_) => OP_GET,
            Request::GetMany(_) => OP_GET_MANY,
            Request::Put(_) => OP_PUT,
            Request::PutMany(_) => OP_PUT_MANY,
            Request::Stats => OP_STATS,
        }
    }
}

impl Response {
    fn opcode(&self) -> u8 {
        match self {
            Response::Get(_) => OP_GET | OP_RESP,
            Response::GetMany(_) => OP_GET_MANY | OP_RESP,
            Response::Put(_) => OP_PUT | OP_RESP,
            Response::PutMany(_) => OP_PUT_MANY | OP_RESP,
            Response::Stats(_) => OP_STATS | OP_RESP,
            Response::Err(_) => OP_ERR,
        }
    }
}

/// Start a frame for `opcode` answering or asking `req_id`.
fn begin(out: &mut Vec<u8>, opcode: u8, req_id: u64) -> usize {
    let start = frame::begin(out, opcode);
    out.extend_from_slice(&req_id.to_le_bytes());
    start
}

/// Append a request to `out` as one complete frame.
pub fn encode_request(req_id: u64, req: &Request, out: &mut Vec<u8>) -> Result<()> {
    let start = begin(out, req.opcode(), req_id);
    match req {
        Request::Get(cid) => out.extend_from_slice(cid.as_bytes()),
        Request::GetMany(cids) => {
            put_u32(out, cids.len())?;
            for cid in cids {
                out.extend_from_slice(cid.as_bytes());
            }
        }
        Request::Put(chunk) => put_chunk(out, chunk),
        Request::PutMany(chunks) => {
            put_u32(out, chunks.len())?;
            for chunk in chunks {
                put_sized_chunk(out, chunk)?;
            }
        }
        Request::Stats => {}
    }
    frame::finish(out, start)
}

/// Decode a request frame body. `None` on any malformed payload — the
/// server drops the connection rather than guess.
pub fn decode_request(opcode: u8, payload: &Bytes) -> Option<(u64, Request)> {
    let mut c = Cursor::new(payload);
    let req_id = c.u64()?;
    let req = match opcode {
        OP_GET => Request::Get(c.digest()?),
        OP_GET_MANY => {
            let n = c.u32()? as usize;
            let mut cids = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                cids.push(c.digest()?);
            }
            Request::GetMany(cids)
        }
        OP_PUT => Request::Put(c.chunk()?),
        OP_PUT_MANY => {
            let n = c.u32()? as usize;
            let mut parts = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let len = c.u32()? as usize;
                parts.push(c.chunk_parts(len)?);
            }
            Request::PutMany(Chunk::new_batch_mixed(parts))
        }
        OP_STATS => Request::Stats,
        _ => return None,
    };
    c.done().then_some((req_id, req))
}

/// Append a response to `out`: one complete frame, except that a
/// [`Response::GetMany`] over [`FRAME_BUDGET`] becomes several, each
/// answering the next run of slots.
pub fn encode_response(req_id: u64, resp: &Response, out: &mut Vec<u8>) -> Result<()> {
    let mut start = begin(out, resp.opcode(), req_id);
    match resp {
        Response::Get(None) => out.push(0),
        Response::Get(Some(chunk)) => {
            out.push(1);
            put_chunk(out, chunk);
        }
        Response::GetMany(slots) => {
            let mut slots = &slots[..];
            loop {
                let count_at = out.len();
                out.extend_from_slice(&[0; 4]);
                let mut n = 0u32;
                while let Some((slot, tail)) = slots.split_first() {
                    let len = 1 + slot.as_ref().map_or(0, sized_chunk_len);
                    if n > 0 && out.len() - count_at + len > FRAME_BUDGET {
                        break;
                    }
                    match slot {
                        Some(chunk) => {
                            out.push(1);
                            put_sized_chunk(out, chunk)?;
                        }
                        None => out.push(0),
                    }
                    n += 1;
                    slots = tail;
                }
                out[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
                if slots.is_empty() {
                    break;
                }
                frame::finish(out, start)?;
                start = begin(out, resp.opcode(), req_id);
            }
        }
        Response::Put(outcome) => out.push(outcome_byte(*outcome)),
        Response::PutMany(outcomes) => {
            put_u32(out, outcomes.len())?;
            out.extend(outcomes.iter().map(|o| outcome_byte(*o)));
        }
        Response::Stats(stats) => out.extend_from_slice(&stats.to_wire()),
        Response::Err(msg) => out.extend_from_slice(msg.as_bytes()),
    }
    frame::finish(out, start)
}

/// Decode a response frame body. `None` on any malformed payload.
pub fn decode_response(opcode: u8, payload: &Bytes) -> Option<(u64, Response)> {
    let mut c = Cursor::new(payload);
    let req_id = c.u64()?;
    let resp = match opcode {
        o if o == OP_GET | OP_RESP => Response::Get(match c.u8()? {
            0 => None,
            1 => Some(c.chunk()?),
            _ => return None,
        }),
        o if o == OP_GET_MANY | OP_RESP => {
            let n = c.u32()? as usize;
            let mut present = Vec::with_capacity(n.min(1 << 16));
            let mut parts = Vec::new();
            for _ in 0..n {
                present.push(match c.u8()? {
                    0 => false,
                    1 => {
                        let len = c.u32()? as usize;
                        parts.push(c.chunk_parts(len)?);
                        true
                    }
                    _ => return None,
                });
            }
            let mut chunks = Chunk::new_batch_mixed(parts).into_iter();
            Response::GetMany(
                present
                    .into_iter()
                    .map(|here| here.then(|| chunks.next()).flatten())
                    .collect(),
            )
        }
        o if o == OP_PUT | OP_RESP => Response::Put(outcome_from(c.u8()?)?),
        o if o == OP_PUT_MANY | OP_RESP => {
            let n = c.u32()? as usize;
            let mut outcomes = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                outcomes.push(outcome_from(c.u8()?)?);
            }
            Response::PutMany(outcomes)
        }
        o if o == OP_STATS | OP_RESP => Response::Stats(StoreStats::from_wire(c.rest())?),
        OP_ERR => Response::Err(String::from_utf8_lossy(c.rest()).into_owned()),
        _ => return None,
    };
    c.done().then_some((req_id, resp))
}

#[cfg(test)]
mod tests {
    use super::super::frame::{Frame, FrameDecoder};
    use super::*;

    fn frames_of(mut bytes: &[u8]) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        loop {
            while let Some(frame) = dec.next_frame().expect("valid") {
                frames.push(frame);
            }
            if bytes.is_empty() {
                assert_eq!(dec.buffered(), 0, "no partial frame left over");
                return frames;
            }
            dec.read_from(&mut bytes).expect("slice read");
        }
    }

    fn round_trip_request(req: Request) -> (u64, Request) {
        let mut bytes = Vec::new();
        encode_request(77, &req, &mut bytes).expect("encodes");
        let [frame] = &frames_of(&bytes)[..] else {
            panic!("a request is one frame");
        };
        decode_request(frame.opcode, &frame.payload).expect("decodes")
    }

    fn round_trip_response(resp: Response) -> (u64, Response) {
        let mut bytes = Vec::new();
        encode_response(98, &resp, &mut bytes).expect("encodes");
        let [frame] = &frames_of(&bytes)[..] else {
            panic!("a small response is one frame");
        };
        decode_response(frame.opcode, &frame.payload).expect("decodes")
    }

    #[test]
    fn requests_round_trip() {
        let a = Chunk::new(ChunkType::Blob, &b"aaa"[..]);
        let b = Chunk::new(ChunkType::Map, &b"bbb"[..]);
        let empty = Chunk::new(ChunkType::Blob, Bytes::new());
        for req in [
            Request::Get(a.cid()),
            Request::GetMany(vec![a.cid(), b.cid()]),
            Request::GetMany(vec![]),
            Request::Put(a.clone()),
            Request::Put(empty.clone()),
            Request::PutMany(vec![a.clone(), empty, b.clone()]),
            Request::PutMany(vec![]),
            Request::Stats,
        ] {
            let (id, back) = round_trip_request(req.clone());
            assert_eq!(id, 77);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let a = Chunk::new(ChunkType::Blob, &b"aaa"[..]);
        let stats = StoreStats {
            stored_chunks: 3,
            io_errors: 9,
            cache_hits: 12,
            ..StoreStats::default()
        };
        for resp in [
            Response::Get(Some(a.clone())),
            Response::Get(None),
            Response::GetMany(vec![Some(a.clone()), None, Some(a.clone())]),
            Response::GetMany(vec![]),
            Response::Put(PutOutcome::Stored),
            Response::Put(PutOutcome::Deduplicated),
            Response::PutMany(vec![PutOutcome::Stored, PutOutcome::Deduplicated]),
            Response::Stats(stats),
            Response::Err("node on fire".into()),
        ] {
            let (id, back) = round_trip_response(resp.clone());
            assert_eq!(id, 98);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn a_decoded_chunk_is_a_slice_of_its_frame() {
        let a = Chunk::new(ChunkType::Blob, vec![7u8; 1000]);
        let mut bytes = Vec::new();
        encode_request(1, &Request::PutMany(vec![a.clone(), a.clone()]), &mut bytes).unwrap();
        let frame = frames_of(&bytes).pop().unwrap();
        let (_, Request::PutMany(chunks)) = decode_request(frame.opcode, &frame.payload).unwrap()
        else {
            panic!("a put_many");
        };
        let frame_range = frame.payload.as_ptr_range();
        for chunk in &chunks {
            assert_eq!(*chunk, a);
            assert!(frame_range.contains(&chunk.payload().as_ptr()));
        }
    }

    #[test]
    fn a_get_many_reply_over_the_budget_is_several_frames() {
        // Over three budgets of chunks, with absent slots mixed in.
        let slots: Vec<Option<Chunk>> = (0..4 * FRAME_BUDGET / (256 << 10))
            .map(|i| (i % 5 != 4).then(|| Chunk::new(ChunkType::Blob, vec![i as u8; 256 << 10])))
            .collect();
        let mut bytes = Vec::new();
        encode_response(5, &Response::GetMany(slots.clone()), &mut bytes).unwrap();
        let frames = frames_of(&bytes);
        assert!(frames.len() >= 3, "{} frames", frames.len());
        let mut back = Vec::new();
        for frame in &frames {
            assert!(frame.payload.len() <= FRAME_BUDGET + 16);
            match decode_response(frame.opcode, &frame.payload) {
                Some((5, Response::GetMany(run))) => {
                    assert!(!run.is_empty());
                    back.extend(run);
                }
                other => panic!("not a get_many run: {other:?}"),
            }
        }
        assert_eq!(back, slots);
    }

    #[test]
    fn a_chunk_no_frame_can_carry_is_an_error_not_a_panic() {
        let huge = Chunk::new(ChunkType::Blob, vec![0u8; frame::MAX_BODY_LEN]);
        let mut out = Vec::new();
        assert!(matches!(
            encode_request(1, &Request::Put(huge.clone()), &mut out),
            Err(FbError::Io(_))
        ));
        out.clear();
        assert!(matches!(
            encode_response(1, &Response::GetMany(vec![Some(huge)]), &mut out),
            Err(FbError::Io(_))
        ));
    }

    #[test]
    fn truncated_and_trailing_payloads_rejected() {
        let a = Chunk::new(ChunkType::Blob, &b"aaa"[..]);
        let mut bytes = Vec::new();
        encode_request(5, &Request::Get(a.cid()), &mut bytes).unwrap();
        let frame = frames_of(&bytes).pop().unwrap();
        // Truncated: drop the last payload byte.
        let short = frame.payload.slice(..frame.payload.len() - 1);
        assert_eq!(decode_request(frame.opcode, &short), None);
        // Trailing garbage after a well-formed body.
        let mut long = frame.payload.to_vec();
        long.push(0);
        assert_eq!(decode_request(frame.opcode, &Bytes::from(long)), None);
        // Unknown opcode.
        assert_eq!(decode_request(0x7E, &frame.payload), None);
    }
}
