//! The servlet-side TCP endpoint: the workspace's one
//! thread-per-connection [`Server`] over any [`ChunkService`] backend.
//!
//! Each connection's handler thread decodes frames, executes requests
//! against the backend, and writes the response back in one `write`.
//! Requests on one connection are served one after another; concurrency
//! comes from connections (the client keeps a few per peer and uses each
//! for one request at a time).

use super::frame::{self, FrameDecoder};
use super::proto::{self, Request, Response};
use crate::service::ChunkService;
use forkbase_crypto::serve::{Handler, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// A running chunk-service endpoint: `ChunkServer::bind(addr, backend)`
/// serves any `Arc` of a [`ChunkService`] until stopped or dropped.
pub type ChunkServer = Server<dyn ChunkService>;

impl Handler for dyn ChunkService {
    const NAME: &'static str = "fb-chunk";

    /// One connection's serve loop: read → decode → execute → respond.
    /// Returns (dropping the connection) on EOF, I/O failure, or the
    /// first malformed frame — after corruption the stream offset is
    /// untrusted.
    fn serve(&self, mut stream: TcpStream, requests: &AtomicU64) -> std::io::Result<()> {
        let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        loop {
            while let Some(frame) = decoder.next_frame().map_err(|e| invalid(e.to_string()))? {
                let (req_id, req) = proto::decode_request(frame.opcode, &frame.payload)
                    .ok_or_else(|| invalid("malformed request payload".into()))?;
                requests.fetch_add(1, Ordering::Relaxed);
                let resp = execute(self, req);
                frame::recycle(&mut out);
                if let Err(e) = proto::encode_response(req_id, &resp, &mut out) {
                    // What was found does not fit the wire: say so instead
                    // of leaving the caller to its timeout.
                    out.clear();
                    proto::encode_response(req_id, &Response::Err(e.to_string()), &mut out)
                        .map_err(|e| invalid(e.to_string()))?;
                }
                stream.write_all(&out)?;
            }
            if decoder.read_from(&mut stream)? == 0 {
                return Ok(()); // clean EOF
            }
        }
    }
}

/// Execute one request against the backend.
fn execute(backend: &dyn ChunkService, req: Request) -> Response {
    let executed = match req {
        Request::Get(cid) => backend.get(&cid).map(Response::Get),
        Request::GetMany(cids) => backend.get_many(&cids).map(Response::GetMany),
        Request::Put(chunk) => backend.put(chunk).map(Response::Put),
        Request::PutMany(chunks) => backend.put_many(chunks).map(Response::PutMany),
        Request::Stats => backend.stats().map(Response::Stats),
    };
    executed.unwrap_or_else(|e| Response::Err(e.to_string()))
}
