//! The chunk service's commands on RESP.
//!
//! | request                  | reply                                       |
//! |--------------------------|---------------------------------------------|
//! | `CGET cid`               | the chunk as a bulk, or nil                 |
//! | `CGETMANY cid…`          | an array of bulk / nil, one per cid         |
//! | `CPUT cid chunk`         | `:1` stored, `:0` deduplicated              |
//! | `CPUTMANY (cid chunk)…`  | an array of those integers, one per chunk   |
//! | `STATS`                  | an array of integers: [`StoreStats`]' fields in declaration order |
//!
//! Every request is an array of bulk strings; a refused put is answered
//! `-CORRUPT message` and any other failure `-ERR message`. A chunk
//! travels as one bulk in its canonical form (`[type: u8][payload…]`),
//! written from its [`Bytes`] once, and a decoded chunk's payload is a
//! slice of the message it arrived in.
//!
//! Both directions are tamper-evident without a checksum of their own,
//! and without hashing anything twice:
//!
//! * **puts** carry the cid the writer computed. The server hashes every
//!   received chunk anyway — a whole batch as one
//!   [`hash_tagged_batch`](forkbase_crypto::hash_tagged_batch) call — and
//!   refuses, with a `-CORRUPT` reply, a request holding a chunk whose
//!   hash is not the cid it came with. A bit flipped in flight never
//!   stores a chunk under a cid its writer did not ask for; the writer
//!   hears the refusal as [`FbError::Corrupt`], not as a lost peer, and
//!   keeps the chunk in its own store.
//! * **gets** are re-hashed by the client and checked against the cids
//!   it asked for, so a fetched chunk is verified end to end (§4.4).

use crate::service::ChunkService;
use bytes::Bytes;
use forkbase_chunk::{Chunk, ChunkType, PutOutcome, StoreStats};
use forkbase_core::{FbError, Result};
use forkbase_crypto::resp::{put_bulk, put_header, put_nil, RespValue, MAX_BULK_LEN};
use forkbase_crypto::Digest;

/// A chunk-service request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `CGET`: fetch one chunk by cid.
    Get(Digest),
    /// `CGETMANY`: fetch many chunks; the reply answers positionally.
    GetMany(Vec<Digest>),
    /// `CPUT`: store one chunk.
    Put(Chunk),
    /// `CPUTMANY`: store many chunks; the reply answers positionally.
    PutMany(Vec<Chunk>),
    /// `STATS`: snapshot the node's [`StoreStats`].
    Stats,
}

/// The error code of a refused put's reply.
pub(crate) const REFUSED: &str = "CORRUPT";

fn bad(what: impl std::fmt::Display) -> FbError {
    FbError::Io(format!("malformed chunk-service message: {what}"))
}

/// Bytes a chunk adds to a `CPUTMANY` request, give or take its two
/// length headers — what a sender adds up against its budget.
pub(crate) fn sized_chunk_len(chunk: &Chunk) -> usize {
    Digest::LEN + 1 + chunk.len()
}

/// A chunk as one bulk, `[type][payload]`, its bytes copied out of their
/// `Bytes` once. A chunk over [`MAX_BULK_LEN`] is an error, not a
/// message the peer would refuse.
fn put_chunk(out: &mut Vec<u8>, chunk: &Chunk) -> Result<()> {
    let len = 1 + chunk.len();
    if len > MAX_BULK_LEN {
        return Err(FbError::Io(format!(
            "a chunk of {len} bytes exceeds the wire's {MAX_BULK_LEN}-byte bulk"
        )));
    }
    put_header(out, b'$', len as i64);
    out.push(chunk.ty() as u8);
    out.extend_from_slice(chunk.payload());
    out.extend_from_slice(b"\r\n");
    Ok(())
}

/// A bulk as a chunk's type and payload — not yet a [`Chunk`]: its cid
/// is still to be computed.
fn chunk_parts(bulk: &Bytes) -> Result<(ChunkType, Bytes)> {
    let ty = bulk
        .first()
        .and_then(|&b| ChunkType::from_u8(b))
        .ok_or_else(|| bad("a chunk bulk without a chunk type"))?;
    Ok((ty, bulk.slice(1..)))
}

fn digest(bulk: &Bytes) -> Result<Digest> {
    Digest::from_slice(bulk).ok_or_else(|| bad(format_args!("a {}-byte cid", bulk.len())))
}

/// `(cid, chunk)` pairs as chunks, hashed as one batch, each checked
/// against the cid it came with.
fn checked_chunks(pairs: &[Bytes]) -> Result<Vec<Chunk>> {
    let parts = pairs
        .chunks_exact(2)
        .map(|pair| chunk_parts(&pair[1]))
        .collect::<Result<Vec<_>>>()?;
    let chunks = Chunk::new_batch_mixed(parts);
    for (chunk, pair) in chunks.iter().zip(pairs.chunks_exact(2)) {
        if chunk.cid().as_bytes()[..] != pair[0][..] {
            return Err(FbError::Corrupt(format!(
                "refused a put: the chunk hashes to {}, not to the cid it was sent under",
                chunk.cid().short_hex()
            )));
        }
    }
    Ok(chunks)
}

fn outcome_int(outcome: PutOutcome) -> i64 {
    match outcome {
        PutOutcome::Stored => 1,
        PutOutcome::Deduplicated => 0,
    }
}

/// How many counters a `STATS` reply carries.
const STATS_FIELDS: usize = 12;

/// [`StoreStats`]' fields in declaration order.
fn stats_fields(stats: &StoreStats) -> [u64; STATS_FIELDS] {
    let StoreStats {
        stored_chunks,
        stored_bytes,
        puts,
        dedup_hits,
        dedup_bytes,
        gets,
        get_hits,
        io_errors,
        cache_hits,
        cache_misses,
        cache_evictions,
        refused_puts,
    } = *stats;
    [
        stored_chunks,
        stored_bytes,
        puts,
        dedup_hits,
        dedup_bytes,
        gets,
        get_hits,
        io_errors,
        cache_hits,
        cache_misses,
        cache_evictions,
        refused_puts,
    ]
}

impl Request {
    /// Append the request to `out` as one RESP array of bulks.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Request::Get(cid) => {
                put_header(out, b'*', 2);
                put_bulk(out, b"CGET");
                put_bulk(out, cid.as_bytes());
            }
            Request::GetMany(cids) => {
                put_header(out, b'*', 1 + cids.len() as i64);
                put_bulk(out, b"CGETMANY");
                for cid in cids {
                    put_bulk(out, cid.as_bytes());
                }
            }
            Request::Put(chunk) => {
                put_header(out, b'*', 3);
                put_bulk(out, b"CPUT");
                put_bulk(out, chunk.cid().as_bytes());
                put_chunk(out, chunk)?;
            }
            Request::PutMany(chunks) => {
                put_header(out, b'*', 1 + 2 * chunks.len() as i64);
                put_bulk(out, b"CPUTMANY");
                for chunk in chunks {
                    put_bulk(out, chunk.cid().as_bytes());
                    put_chunk(out, chunk)?;
                }
            }
            Request::Stats => {
                put_header(out, b'*', 1);
                put_bulk(out, b"STATS");
            }
        }
        Ok(())
    }

    /// Decode a request's argv. Refuses unknown commands, wrong arity
    /// (an empty batch included: no client sends one), malformed cids
    /// and chunks, and a put holding a chunk that does not hash to the
    /// cid sent with it.
    pub fn decode(argv: &[Bytes]) -> Result<Request> {
        let (name, args) = argv.split_first().ok_or_else(|| bad("an empty command"))?;
        Ok(match (&name[..], args) {
            (b"CGET", [cid]) => Request::Get(digest(cid)?),
            (b"CGETMANY", [_, ..]) => {
                Request::GetMany(args.iter().map(digest).collect::<Result<_>>()?)
            }
            (b"CPUT", [_, _]) => Request::Put(checked_chunks(args)?.swap_remove(0)),
            (b"CPUTMANY", [_, _, ..]) if args.len() % 2 == 0 => {
                Request::PutMany(checked_chunks(args)?)
            }
            (b"STATS", []) => Request::Stats,
            _ => {
                return Err(bad(format_args!(
                    "unknown command '{}' or wrong number of arguments ({})",
                    String::from_utf8_lossy(name),
                    args.len()
                )))
            }
        })
    }

    /// Execute the request against `service` and append its reply to
    /// `out`. On `Err` nothing is to be sent of what was appended; the
    /// caller answers with the error instead.
    pub fn answer(self, service: &dyn ChunkService, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Request::Get(cid) => match service.get(&cid)? {
                Some(chunk) => put_chunk(out, &chunk)?,
                None => put_nil(out),
            },
            Request::GetMany(cids) => {
                let found = service.get_many(&cids)?;
                put_header(out, b'*', found.len() as i64);
                for slot in &found {
                    match slot {
                        Some(chunk) => put_chunk(out, chunk)?,
                        None => put_nil(out),
                    }
                }
            }
            Request::Put(chunk) => put_header(out, b':', outcome_int(service.put(chunk)?)),
            Request::PutMany(chunks) => {
                let outcomes = service.put_many(chunks)?;
                put_header(out, b'*', outcomes.len() as i64);
                for outcome in outcomes {
                    put_header(out, b':', outcome_int(outcome));
                }
            }
            Request::Stats => {
                let fields = stats_fields(&service.stats()?);
                put_header(out, b'*', fields.len() as i64);
                for field in fields {
                    put_header(out, b':', field as i64);
                }
            }
        }
        Ok(())
    }
}

/// A single reply (`CGET`'s, `CPUT`'s) as an array of one, so that it
/// decodes as a batch's does; an error reply stays what it is.
pub fn single(reply: RespValue) -> RespValue {
    match reply {
        RespValue::Error(_) => reply,
        other => RespValue::Array(vec![other]),
    }
}

/// The elements of an array reply of `n` elements. An error reply is
/// [`FbError::Corrupt`] when it refuses a chunk and [`FbError::Io`]
/// otherwise.
fn elements(value: RespValue, n: usize) -> Result<Vec<RespValue>> {
    match value {
        RespValue::Error(msg) => {
            let msg = String::from_utf8_lossy(&msg);
            match msg.strip_prefix(REFUSED).and_then(|m| m.strip_prefix(' ')) {
                Some(what) => Err(FbError::Corrupt(format!("refused: {what}"))),
                None => Err(FbError::Io(format!("refused: {msg}"))),
            }
        }
        RespValue::Array(items) if items.len() == n => Ok(items),
        other => Err(bad(format_args!("{other:?} where {n} answers were due"))),
    }
}

/// The reply to `CGETMANY cids` (or, wrapped in an array of one, to
/// `CGET`): each slot a chunk verified against its cid, or absent.
pub fn decode_found(cids: &[Digest], value: RespValue) -> Result<Vec<Option<Chunk>>> {
    let slots = elements(value, cids.len())?;
    let mut parts = Vec::with_capacity(slots.len());
    for slot in &slots {
        match slot {
            RespValue::Bulk(bulk) => parts.push(chunk_parts(bulk)?),
            RespValue::Nil => {}
            other => return Err(bad(format_args!("{other:?} where a chunk was due"))),
        }
    }
    let mut chunks = Chunk::new_batch_mixed(parts).into_iter();
    let mut found = Vec::with_capacity(cids.len());
    for (slot, cid) in slots.iter().zip(cids) {
        let chunk = match slot {
            RespValue::Nil => None,
            _ => chunks.next(),
        };
        if let Some(chunk) = &chunk {
            if chunk.cid() != *cid {
                return Err(FbError::Corrupt(format!(
                    "returned chunk {} for requested cid {}",
                    chunk.cid().short_hex(),
                    cid.short_hex()
                )));
            }
        }
        found.push(chunk);
    }
    Ok(found)
}

/// The reply to a `CPUTMANY` of `n` chunks (or, wrapped in an array of
/// one, to `CPUT`).
pub fn decode_outcomes(n: usize, value: RespValue) -> Result<Vec<PutOutcome>> {
    elements(value, n)?
        .into_iter()
        .map(|item| match item {
            RespValue::Int(1) => Ok(PutOutcome::Stored),
            RespValue::Int(0) => Ok(PutOutcome::Deduplicated),
            other => Err(bad(format_args!("{other:?} where a put outcome was due"))),
        })
        .collect()
}

/// The reply to `STATS`.
pub fn decode_stats(value: RespValue) -> Result<StoreStats> {
    let mut fields = [0u64; STATS_FIELDS];
    for (field, item) in fields.iter_mut().zip(elements(value, STATS_FIELDS)?) {
        match item {
            RespValue::Int(n) => *field = n as u64,
            other => return Err(bad(format_args!("{other:?} where a counter was due"))),
        }
    }
    let [stored_chunks, stored_bytes, puts, dedup_hits, dedup_bytes, gets, get_hits, io_errors, cache_hits, cache_misses, cache_evictions, refused_puts] =
        fields;
    Ok(StoreStats {
        stored_chunks,
        stored_bytes,
        puts,
        dedup_hits,
        dedup_bytes,
        gets,
        get_hits,
        io_errors,
        cache_hits,
        cache_misses,
        cache_evictions,
        refused_puts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::StoreService;
    use forkbase_chunk::{ChunkStore, MemStore};
    use forkbase_crypto::resp::{Commands, RespDecoder};
    use std::sync::Arc;

    fn decode_command(wire: &[u8]) -> Vec<Bytes> {
        let mut dec = RespDecoder::new();
        dec.feed(wire);
        let argv = dec.next_command().expect("valid").expect("complete");
        assert_eq!(dec.buffered(), 0, "exactly one message");
        argv
    }

    fn decode_value(wire: &[u8]) -> RespValue {
        let mut dec = RespDecoder::new();
        dec.feed(wire);
        let value = dec.next_value().expect("valid").expect("complete");
        assert_eq!(dec.buffered(), 0, "exactly one message");
        value
    }

    fn round_trip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        req.encode(&mut wire).expect("encodes");
        Request::decode(&decode_command(&wire)).expect("decodes")
    }

    #[test]
    fn requests_round_trip() {
        let a = Chunk::new(ChunkType::Blob, &b"aaa"[..]);
        let b = Chunk::new(ChunkType::Map, &b"bbb"[..]);
        let empty = Chunk::new(ChunkType::Blob, Bytes::new());
        for req in [
            Request::Get(a.cid()),
            Request::GetMany(vec![a.cid(), b.cid()]),
            Request::Put(a.clone()),
            Request::Put(empty.clone()),
            Request::PutMany(vec![a.clone(), empty, b.clone()]),
            Request::Stats,
        ] {
            assert_eq!(round_trip_request(&req), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let store = Arc::new(MemStore::new());
        let service = StoreService::new(store.clone() as Arc<dyn ChunkStore>);
        let a = Chunk::new(ChunkType::Blob, &b"aaa"[..]);
        let absent = Chunk::new(ChunkType::Map, &b"absent"[..]).cid();
        let answer = |req: Request| {
            let mut wire = Vec::new();
            req.answer(&service, &mut wire).expect("answers");
            decode_value(&wire)
        };

        let one = |value| RespValue::Array(vec![value]);
        let put = answer(Request::Put(a.clone()));
        assert_eq!(decode_outcomes(1, one(put)).unwrap(), [PutOutcome::Stored]);
        let again = answer(Request::PutMany(vec![a.clone(), a.clone()]));
        assert_eq!(
            decode_outcomes(2, again).unwrap(),
            [PutOutcome::Deduplicated; 2]
        );
        let got = answer(Request::Get(a.cid()));
        assert_eq!(
            decode_found(&[a.cid()], one(got)).unwrap(),
            [Some(a.clone())]
        );
        let cids = [a.cid(), absent, a.cid()];
        let many = answer(Request::GetMany(cids.to_vec()));
        assert_eq!(
            decode_found(&cids, many).unwrap(),
            [Some(a.clone()), None, Some(a.clone())]
        );
        let stats = answer(Request::Stats);
        assert_eq!(decode_stats(stats).unwrap(), store.stats());
        // Every field crosses in its own place, and a u64 past i64::MAX
        // crosses bit-exact.
        let mut wire = Vec::new();
        let odd = StoreStats {
            stored_chunks: 3,
            stored_bytes: u64::MAX,
            io_errors: 9,
            cache_evictions: 12,
            refused_puts: 5,
            ..StoreStats::default()
        };
        let fields = stats_fields(&odd);
        put_header(&mut wire, b'*', fields.len() as i64);
        for field in fields {
            put_header(&mut wire, b':', field as i64);
        }
        assert_eq!(decode_stats(decode_value(&wire)).unwrap(), odd);
    }

    #[test]
    fn a_decoded_chunk_is_a_slice_of_its_frame() {
        let a = Chunk::new(ChunkType::Blob, vec![7u8; 1000]);
        let mut wire = Vec::new();
        Request::PutMany(vec![a.clone(), a.clone()])
            .encode(&mut wire)
            .unwrap();
        let argv = decode_command(&wire);
        let Request::PutMany(chunks) = Request::decode(&argv).unwrap() else {
            panic!("a put_many");
        };
        // The argv are slices of one copy of the message, in order.
        let message = argv[0].as_ptr()..argv[4].as_ptr_range().end;
        for chunk in &chunks {
            assert_eq!(*chunk, a);
            assert!(message.contains(&chunk.payload().as_ptr()));
        }
    }

    #[test]
    fn a_chunk_no_frame_can_carry_is_an_error_not_a_panic() {
        let huge = Chunk::new(ChunkType::Blob, vec![0u8; MAX_BULK_LEN]);
        let mut out = Vec::new();
        assert!(matches!(
            Request::Put(huge.clone()).encode(&mut out),
            Err(FbError::Io(_))
        ));
        let store = Arc::new(MemStore::new());
        store.put(huge.clone());
        let service = StoreService::new(store as Arc<dyn ChunkStore>);
        out.clear();
        assert!(matches!(
            Request::GetMany(vec![huge.cid()]).answer(&service, &mut out),
            Err(FbError::Io(_))
        ));
    }

    #[test]
    fn a_batch_holding_an_oversize_chunk_is_an_encode_error() {
        let small = Chunk::new(ChunkType::Blob, &b"small"[..]);
        let huge = Chunk::new(ChunkType::Blob, vec![0u8; MAX_BULK_LEN]);
        for batch in [
            vec![huge.clone(), small.clone()],
            vec![small.clone(), huge.clone()],
        ] {
            let mut out = Vec::new();
            assert!(matches!(
                Request::PutMany(batch).encode(&mut out),
                Err(FbError::Io(_))
            ));
        }
    }

    #[test]
    fn an_oversize_length_header_is_refused_before_its_body() {
        let a = Chunk::new(ChunkType::Blob, &b"aaa"[..]);
        let headers = |chunk_len: usize| {
            let mut wire = Vec::new();
            put_header(&mut wire, b'*', 3);
            put_bulk(&mut wire, b"CPUT");
            put_bulk(&mut wire, a.cid().as_bytes());
            put_header(&mut wire, b'$', chunk_len as i64);
            wire
        };
        // The largest bulk the wire carries waits for its body ...
        let mut dec = RespDecoder::new();
        dec.feed(&headers(MAX_BULK_LEN));
        assert!(matches!(dec.next_command(), Ok(None)));
        // ... one byte more is refused from its header alone.
        let mut dec = RespDecoder::new();
        dec.feed(&headers(MAX_BULK_LEN + 1));
        assert!(dec.next_command().is_err());
    }

    #[test]
    fn a_flipped_chunk_byte_is_refused_not_stored() {
        let a = Chunk::new(ChunkType::Blob, &b"sensitive payload"[..]);
        let mut wire = Vec::new();
        Request::Put(a.clone()).encode(&mut wire).unwrap();
        let at = wire.len() - 2 - 5;
        wire[at] ^= 0x01;
        let argv = decode_command(&wire);
        assert!(matches!(Request::decode(&argv), Err(FbError::Corrupt(_))));

        let store = Arc::new(MemStore::new());
        let service = StoreService::new(store.clone() as Arc<dyn ChunkStore>);
        let mut out = Vec::new();
        (&service as &dyn ChunkService).run(vec![argv], &mut out);
        assert!(out.starts_with(b"-CORRUPT "), "answered -CORRUPT");
        assert!(matches!(
            decode_outcomes(1, single(decode_value(&out))),
            Err(FbError::Corrupt(_))
        ));
        assert_eq!(store.stats().stored_chunks, 0);
    }

    #[test]
    fn truncated_and_trailing_payloads_rejected() {
        let a = Chunk::new(ChunkType::Blob, &b"aaa"[..]);
        let cid = Bytes::copy_from_slice(a.cid().as_bytes());
        let chunk = Bytes::from([&[ChunkType::Blob as u8][..], b"aaa"].concat());
        let word = |w: &'static str| Bytes::from(w);
        for argv in [
            vec![word("CGET"), cid.slice(..31)],
            vec![word("CGET"), cid.clone(), cid.clone()],
            vec![word("CPUT"), cid.clone()],
            vec![word("CPUT"), cid.clone(), chunk.slice(..3)],
            vec![word("CPUT"), cid.clone(), Bytes::new()],
            vec![word("CPUT"), cid.clone(), Bytes::from(vec![0xEE, 1, 2])],
            vec![word("CPUTMANY"), cid.clone(), chunk.clone(), cid.clone()],
            vec![word("CPUTMANY")],
            vec![word("CGETMANY")],
            vec![word("STATS"), cid.clone()],
            vec![word("cget"), cid.clone()],
            vec![word("NOSUCH")],
        ] {
            assert!(Request::decode(&argv).is_err(), "{argv:?}");
        }
        assert_eq!(
            Request::decode(&[word("CPUT"), cid, chunk]).unwrap(),
            Request::Put(a)
        );
    }
}
