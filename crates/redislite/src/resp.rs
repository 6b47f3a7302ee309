//! The Redis command set on RESP2: the mapping between the wire and the
//! store's command algebra.
//!
//! The codec — [`RespValue`], [`RespDecoder`], [`encode_command`] — is
//! the workspace's one RESP codec, [`forkbase_crypto::resp`],
//! re-exported here so this crate's callers keep their paths. What lives here is the Redis side of it:
//! [`cmd_to_argv`]/[`parse_command`] round-trip a [`Cmd`] through its
//! argv form, and `encode_reply`/[`reply_from_value`] round-trip a
//! [`Reply`] — so the RESP server and the in-process API are provably
//! the same semantics.

use crate::{Cmd, Reply};
use bytes::Bytes;
pub use forkbase_crypto::resp::{encode_command, RespDecoder, RespError, RespValue};
use forkbase_crypto::resp::{put_bulk, put_error, put_header, put_nil};

/// Encode a [`Reply`] in RESP2 (what the server sends back).
pub(crate) fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    match reply {
        Reply::Ok => out.extend_from_slice(b"+OK\r\n"),
        Reply::Pong => out.extend_from_slice(b"+PONG\r\n"),
        Reply::Nil => put_nil(out),
        Reply::Value(v) => put_bulk(out, v),
        Reply::Len(n) => put_header(out, b':', *n as i64),
        Reply::Multi(items) => {
            put_header(out, b'*', items.len() as i64);
            for item in items {
                put_bulk(out, item);
            }
        }
        Reply::Err(msg) => put_error(out, msg),
    }
}

/// The argv form of a command (`SET k v` → `["SET", k, v]`).
pub fn cmd_to_argv(cmd: &Cmd) -> Vec<Bytes> {
    fn int(i: i64) -> Bytes {
        Bytes::from(i.to_string())
    }
    match cmd {
        Cmd::Ping => vec![Bytes::from_static(b"PING")],
        Cmd::Set(k, v) => vec![Bytes::from_static(b"SET"), k.clone(), v.clone()],
        Cmd::Get(k) => vec![Bytes::from_static(b"GET"), k.clone()],
        Cmd::MSet(pairs) => {
            let mut argv = Vec::with_capacity(1 + 2 * pairs.len());
            argv.push(Bytes::from_static(b"MSET"));
            for (k, v) in pairs {
                argv.push(k.clone());
                argv.push(v.clone());
            }
            argv
        }
        Cmd::Rpush(k, e) => vec![Bytes::from_static(b"RPUSH"), k.clone(), e.clone()],
        Cmd::Lindex(k, i) => vec![Bytes::from_static(b"LINDEX"), k.clone(), int(*i)],
        Cmd::Llen(k) => vec![Bytes::from_static(b"LLEN"), k.clone()],
        Cmd::Lset(k, i, v) => vec![Bytes::from_static(b"LSET"), k.clone(), int(*i), v.clone()],
        Cmd::Lrange(k, s, e) => vec![Bytes::from_static(b"LRANGE"), k.clone(), int(*s), int(*e)],
        Cmd::Del(k) => vec![Bytes::from_static(b"DEL"), k.clone()],
        Cmd::DbSize => vec![Bytes::from_static(b"DBSIZE")],
    }
}

/// Parse an argv into a [`Cmd`]. `Err` carries a full Redis-style error
/// message (without the `-` marker); the server replies it and keeps the
/// connection — a bad command is not a protocol error.
pub fn parse_command(argv: &[Bytes]) -> Result<Cmd, String> {
    let Some(name) = argv.first() else {
        return Err("ERR empty command".into());
    };
    let upper = name.to_ascii_uppercase();
    let arity = |ok: bool, cmd: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("ERR wrong number of arguments for '{cmd}' command"))
        }
    };
    let int_arg = |arg: &Bytes| {
        std::str::from_utf8(arg)
            .ok()
            .and_then(|s| s.parse::<i64>().ok())
            .ok_or_else(|| "ERR value is not an integer or out of range".to_string())
    };
    match upper.as_slice() {
        b"PING" => {
            arity(argv.len() == 1, "ping")?;
            Ok(Cmd::Ping)
        }
        b"SET" => {
            arity(argv.len() == 3, "set")?;
            Ok(Cmd::Set(argv[1].clone(), argv[2].clone()))
        }
        b"GET" => {
            arity(argv.len() == 2, "get")?;
            Ok(Cmd::Get(argv[1].clone()))
        }
        b"MSET" => {
            arity(argv.len() >= 3 && argv.len() % 2 == 1, "mset")?;
            let pairs = argv[1..]
                .chunks_exact(2)
                .map(|kv| (kv[0].clone(), kv[1].clone()))
                .collect();
            Ok(Cmd::MSet(pairs))
        }
        b"RPUSH" => {
            arity(argv.len() == 3, "rpush")?;
            Ok(Cmd::Rpush(argv[1].clone(), argv[2].clone()))
        }
        b"LINDEX" => {
            arity(argv.len() == 3, "lindex")?;
            Ok(Cmd::Lindex(argv[1].clone(), int_arg(&argv[2])?))
        }
        b"LLEN" => {
            arity(argv.len() == 2, "llen")?;
            Ok(Cmd::Llen(argv[1].clone()))
        }
        b"LSET" => {
            arity(argv.len() == 4, "lset")?;
            Ok(Cmd::Lset(
                argv[1].clone(),
                int_arg(&argv[2])?,
                argv[3].clone(),
            ))
        }
        b"LRANGE" => {
            arity(argv.len() == 4, "lrange")?;
            Ok(Cmd::Lrange(
                argv[1].clone(),
                int_arg(&argv[2])?,
                int_arg(&argv[3])?,
            ))
        }
        b"DEL" => {
            arity(argv.len() == 2, "del")?;
            Ok(Cmd::Del(argv[1].clone()))
        }
        b"DBSIZE" => {
            arity(argv.len() == 1, "dbsize")?;
            Ok(Cmd::DbSize)
        }
        _ => Err(format!(
            "ERR unknown command '{}'",
            String::from_utf8_lossy(name)
        )),
    }
}

/// Interpret a decoded reply value as a [`Reply`] (client side). Errors
/// on shapes the served command subset can never produce.
pub fn reply_from_value(value: RespValue) -> Result<Reply, RespError> {
    Ok(match value {
        RespValue::Simple(s) if &s[..] == b"OK" => Reply::Ok,
        RespValue::Simple(s) if &s[..] == b"PONG" => Reply::Pong,
        RespValue::Simple(s) => Reply::Value(s),
        RespValue::Error(e) => Reply::Err(String::from_utf8_lossy(&e).into_owned()),
        RespValue::Int(n) => {
            if n < 0 {
                return Err(RespError(format!(
                    "negative integer reply {n} outside the served subset"
                )));
            }
            Reply::Len(n as usize)
        }
        RespValue::Bulk(b) => Reply::Value(b),
        RespValue::Nil => Reply::Nil,
        RespValue::Array(items) => {
            let mut bulks = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    RespValue::Bulk(b) => bulks.push(b),
                    other => {
                        return Err(RespError(format!(
                            "non-bulk array element {other:?} outside the served subset"
                        )))
                    }
                }
            }
            Reply::Multi(bulks)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names_are_case_insensitive() {
        assert_eq!(
            parse_command(&[Bytes::from("get"), Bytes::from("k")]),
            Ok(Cmd::Get(Bytes::from("k")))
        );
        assert_eq!(
            parse_command(&[
                Bytes::from("LrAnGe"),
                Bytes::from("k"),
                Bytes::from("0"),
                Bytes::from("-1")
            ]),
            Ok(Cmd::Lrange(Bytes::from("k"), 0, -1))
        );
    }

    #[test]
    fn arity_and_integer_errors_are_command_errors() {
        assert!(parse_command(&[Bytes::from("SET"), Bytes::from("k")])
            .unwrap_err()
            .contains("wrong number of arguments"));
        assert!(
            parse_command(&[Bytes::from("LINDEX"), Bytes::from("k"), Bytes::from("abc")])
                .unwrap_err()
                .contains("not an integer")
        );
        assert!(parse_command(&[Bytes::from("EXPIRE"), Bytes::from("k")])
            .unwrap_err()
            .contains("unknown command"));
        // MSET with an odd tail is missing a value.
        assert!(parse_command(&[Bytes::from("MSET"), Bytes::from("k")])
            .unwrap_err()
            .contains("wrong number of arguments"));
    }

    #[test]
    fn reply_encodings() {
        let cases: Vec<(Reply, &[u8])> = vec![
            (Reply::Ok, b"+OK\r\n"),
            (Reply::Pong, b"+PONG\r\n"),
            (Reply::Nil, b"$-1\r\n"),
            (Reply::Value(Bytes::from("hi")), b"$2\r\nhi\r\n"),
            (Reply::Len(42), b":42\r\n"),
            (
                Reply::Multi(vec![Bytes::from("a"), Bytes::from("bc")]),
                b"*2\r\n$1\r\na\r\n$2\r\nbc\r\n",
            ),
            (Reply::Err("ERR boom".into()), b"-ERR boom\r\n"),
        ];
        for (reply, wire) in cases {
            let mut out = Vec::new();
            encode_reply(&reply, &mut out);
            assert_eq!(&out[..], wire, "{reply:?}");
            let mut dec = RespDecoder::new();
            dec.feed(&out);
            let value = dec.next_value().expect("valid").expect("complete");
            assert_eq!(reply_from_value(value), Ok(reply));
        }
    }
}
