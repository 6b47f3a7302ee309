//! The servlet-side TCP endpoint: the workspace's one
//! thread-per-connection [`Server`] over any [`ChunkService`] backend.
//!
//! Every connection runs the one RESP loop ([`forkbase_crypto::resp`]);
//! this module is only the command set it hands the decoded requests
//! to. Requests on one connection are served one after another;
//! concurrency comes from connections (the client keeps a few per peer
//! and uses each for one request at a time).

use super::proto::{Request, REFUSED};
use crate::service::ChunkService;
use bytes::Bytes;
use forkbase_core::FbError;
use forkbase_crypto::resp::{self, Commands};
use forkbase_crypto::serve::Server;

/// A running chunk-service endpoint: `ChunkServer::bind(addr, backend)`
/// serves any `Arc` of a [`ChunkService`] until stopped or dropped.
pub type ChunkServer = Server<dyn ChunkService>;

impl Commands for dyn ChunkService {
    const NAME: &'static str = "fb-chunk";

    /// Answer each request in turn. A put under a cid its chunk does
    /// not hash to is refused with `-CORRUPT`; a request that does not
    /// decode or fails in the backend is answered `-ERR`, as is a reply
    /// the wire cannot carry — the caller hears why instead of waiting
    /// for its timeout.
    fn run(&self, batch: Vec<Vec<Bytes>>, out: &mut Vec<u8>) {
        for argv in batch {
            let at = out.len();
            match Request::decode(&argv).and_then(|req| req.answer(self, out)) {
                Ok(()) => {}
                Err(FbError::Corrupt(what)) => {
                    out.truncate(at);
                    resp::put_error(out, &format!("{REFUSED} {what}"));
                }
                Err(e) => {
                    out.truncate(at);
                    resp::put_error(out, &format!("ERR {e}"));
                }
            }
        }
    }
}
