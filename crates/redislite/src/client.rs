//! A minimal blocking RESP2 client — enough to drive a [`RespServer`]
//! from the benchmark harness and the wire-equivalence tests.
//!
//! One socket, commands encoded as multi-bulk requests, replies decoded
//! incrementally. [`pipeline`](RespClient::pipeline) writes the whole
//! batch in one syscall before reading any reply, so N commands pay one
//! round trip — the client half of the Redis pipelining model.
//!
//! [`RespServer`]: crate::RespServer

use crate::resp::{self, RespDecoder};
use crate::{Cmd, Reply};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking RESP2 connection.
pub struct RespClient {
    stream: TcpStream,
    decoder: RespDecoder,
}

impl RespClient {
    /// Dial a RESP endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RespClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RespClient {
            stream,
            decoder: RespDecoder::new(),
        })
    }

    /// Execute one command and wait for its reply.
    pub fn execute(&mut self, cmd: &Cmd) -> std::io::Result<Reply> {
        let mut out = Vec::new();
        resp::encode_command(&resp::cmd_to_argv(cmd), &mut out);
        self.stream.write_all(&out)?;
        self.read_reply()
    }

    /// Execute a batch: every command is written before any reply is
    /// read, so the whole batch pays one round trip. Replies come back
    /// in command order.
    pub fn pipeline(&mut self, cmds: &[Cmd]) -> std::io::Result<Vec<Reply>> {
        let mut out = Vec::new();
        for cmd in cmds {
            resp::encode_command(&resp::cmd_to_argv(cmd), &mut out);
        }
        self.stream.write_all(&out)?;
        cmds.iter().map(|_| self.read_reply()).collect()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        loop {
            match self.decoder.next_value() {
                Ok(Some(value)) => {
                    return resp::reply_from_value(value).map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            if self.decoder.read_from(&mut self.stream)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
        }
    }
}
