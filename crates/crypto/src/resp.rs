//! RESP2, the workspace's one wire codec, and the connection loop that
//! every [`Server`](crate::serve::Server) runs over it.
//!
//! Requests are multi-bulk arrays (`*2\r\n$3\r\nGET\r\n$1\r\nk\r\n`) or
//! inline commands (`GET k\r\n`, the netcat-friendly form); replies are
//! simple strings (`+OK`), errors (`-ERR …`), integers (`:3`), bulk
//! strings (`$5\r\nhello`, `$-1` for nil) and arrays. `redislite`'s
//! Redis front and the cluster's chunk service both speak it; each
//! brings only the mapping between argvs and its own commands.
//!
//! Decoding is incremental and torn-read safe: [`RespDecoder`] takes
//! whatever the socket produced — any split, down to one byte at a time
//! — and yields a value or command only once every byte of it has
//! arrived. The scan of a message resumes where the last read left it
//! and never touches a bulk's bytes before all of them are here, and a
//! finished message is copied out of the buffer once, whole: every bulk
//! it holds is a [`Bytes`] slice of that one copy. Malformed input is a
//! [`RespError`] (connection-fatal, as in Redis), never a panic or a
//! wrong decode, and length headers are bounded ([`MAX_BULK_LEN`],
//! [`MAX_ARRAY_LEN`], [`MAX_LINE_LEN`]) so corrupt input cannot make
//! the decoder buffer gigabytes.

use bytes::Bytes;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on one bulk string (Redis's `proto-max-bulk-len` idea).
pub const MAX_BULK_LEN: usize = 64 << 20;
/// Upper bound on one array's length.
pub const MAX_ARRAY_LEN: usize = 1 << 20;
/// Upper bound on one line (inline command or length header).
pub const MAX_LINE_LEN: usize = 64 << 10;
/// Reply arrays never nest deeper than this.
const MAX_DEPTH: usize = 4;
/// How much a read asks the socket for at least: a request or reply of
/// the usual size, or the headers and first bulks of a large message.
const READ_HINT: usize = 16 << 10;
/// A connection's send buffer keeps this much capacity between replies
/// and gives back what a rare huge one grew it to.
const KEPT_BUFFER: usize = 1 << 20;

/// One decoded RESP2 value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RespValue {
    /// `+…` simple string.
    Simple(Bytes),
    /// `-…` error string.
    Error(Bytes),
    /// `:n` integer.
    Int(i64),
    /// `$n` bulk string.
    Bulk(Bytes),
    /// `$-1` / `*-1` nil.
    Nil,
    /// `*n` array.
    Array(Vec<RespValue>),
}

/// Protocol-level decode failure. Fatal for the connection that produced
/// it: after a malformed message the stream offset can no longer be
/// trusted, so the server answers `-ERR Protocol error` and drops the
/// socket, exactly like Redis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RespError(pub String);

impl std::fmt::Display for RespError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Protocol error: {}", self.0)
    }
}

impl std::error::Error for RespError {}

/// One element of the message being scanned: where its bytes lie,
/// counted from the message's first byte — not the bytes.
#[derive(Clone, Copy, Debug)]
enum Token {
    Simple(usize, usize),
    Error(usize, usize),
    Int(i64),
    Bulk(usize, usize),
    Nil,
    Array(usize),
}

/// Locate the newline-terminated line at the start of `buf`: returns the
/// line's length (without its terminator) and the bytes it takes.
/// Accepts `\r\n` and bare `\n` (Redis's inline parser does too).
fn take_line(buf: &[u8]) -> Result<Option<(usize, usize)>, RespError> {
    let limit = buf.len().min(MAX_LINE_LEN + 2);
    if let Some(i) = buf[..limit].iter().position(|&b| b == b'\n') {
        let len = if i > 0 && buf[i - 1] == b'\r' {
            i - 1
        } else {
            i
        };
        return Ok(Some((len, i + 1)));
    }
    if buf.len() > MAX_LINE_LEN {
        return Err(RespError(format!(
            "line exceeds {MAX_LINE_LEN} bytes without a terminator"
        )));
    }
    Ok(None)
}

/// Strict decimal i64 (optional leading `-`), as in RESP length headers.
fn parse_int(line: &[u8]) -> Result<i64, RespError> {
    std::str::from_utf8(line)
        .ok()
        .and_then(|s| s.parse::<i64>().ok())
        .ok_or_else(|| {
            RespError(format!(
                "invalid integer {:?}",
                String::from_utf8_lossy(line)
            ))
        })
}

/// A length header's value: `None` for `-1` (nil), an error past `max`.
fn parse_len(line: &[u8], max: usize, what: &str) -> Result<Option<usize>, RespError> {
    match parse_int(line)? {
        -1 => Ok(None),
        n if n < 0 || n as usize > max => Err(RespError(format!("invalid {what} length {n}"))),
        n => Ok(Some(n as usize)),
    }
}

/// The value whose tokens `tokens` yields next, its bulks and strings
/// sliced out of `msg`. A whole message has a token for every element.
fn build(msg: &Bytes, tokens: &mut std::slice::Iter<'_, Token>) -> RespValue {
    match tokens.next() {
        Some(&Token::Simple(s, e)) => RespValue::Simple(msg.slice(s..e)),
        Some(&Token::Error(s, e)) => RespValue::Error(msg.slice(s..e)),
        Some(&Token::Int(n)) => RespValue::Int(n),
        Some(&Token::Bulk(s, e)) => RespValue::Bulk(msg.slice(s..e)),
        Some(&Token::Array(n)) => RespValue::Array((0..n).map(|_| build(msg, tokens)).collect()),
        Some(Token::Nil) | None => RespValue::Nil,
    }
}

/// Incremental RESP2 decoder over an arbitrarily-split byte stream.
///
/// Fill it from a socket with [`read_from`](Self::read_from) (or hand
/// it bytes with [`feed`](Self::feed)); drain complete messages with
/// [`next_value`](Self::next_value) (reply side) or
/// [`next_command`](Self::next_command) (request side, which also
/// accepts inline commands). Bytes of an incomplete message stay
/// buffered until the rest arrives — both drains return `Ok(None)` in
/// the meantime and never consume a partial message.
#[derive(Default)]
pub struct RespDecoder {
    /// Received bytes are `buf[..filled]`; the rest is room for the next
    /// read. Given back whenever every received byte is decoded, so a
    /// connection between messages holds no buffer.
    buf: Vec<u8>,
    filled: usize,
    /// Start of the message being decoded; what lies before is consumed.
    pos: usize,
    /// The elements of that message scanned so far.
    tokens: Vec<Token>,
    /// Offset from `pos` of the first byte not yet scanned.
    scanned: usize,
    /// Elements still to come in each array open at `scanned`, innermost
    /// last.
    open: Vec<usize>,
    /// Where in `buf` the bulk whose header stopped the scan ends: the
    /// scan cannot move on before `filled` reaches it. 0 when no bulk
    /// is waiting.
    need: usize,
}

impl RespDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> RespDecoder {
        RespDecoder::default()
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.filled - self.pos
    }

    /// Move the unconsumed bytes — what a read took of the next message,
    /// moved once — to the front of the buffer.
    fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        self.buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.need = self.need.saturating_sub(self.pos);
        self.pos = 0;
    }

    /// Append received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.filled);
        self.buf.extend_from_slice(bytes);
        self.filled = self.buf.len();
    }

    /// One `read` from `src` into the buffer; returns how many bytes
    /// came, `Ok(0)` being end of stream. It asks for at least
    /// `READ_HINT` bytes, and for all of a bulk the scan is waiting
    /// for, so a large bulk lands where it is decoded from in as few
    /// reads as the socket allows.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.compact();
        let want = self.need.saturating_sub(self.filled).max(READ_HINT);
        if self.buf.len() < self.filled + want {
            self.buf.resize(self.filled + want, 0);
        }
        let n = src.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Scan the message at `pos` on from where the last call stopped.
    /// `Some(length)` once it is whole. Arrays nest at most `max_depth`
    /// deep.
    fn scan(&mut self, max_depth: usize) -> Result<Option<usize>, RespError> {
        if self.filled < self.need {
            return Ok(None);
        }
        let msg = &self.buf[self.pos..self.filled];
        loop {
            let at = self.scanned;
            let Some(&tag) = msg.get(at) else {
                return Ok(None);
            };
            let Some((line, used)) = take_line(&msg[at + 1..])? else {
                return Ok(None);
            };
            let (start, end) = (at + 1, at + 1 + line);
            let mut next = at + 1 + used;
            let token = match tag {
                b'+' => Token::Simple(start, end),
                b'-' => Token::Error(start, end),
                b':' => Token::Int(parse_int(&msg[start..end])?),
                b'$' => match parse_len(&msg[start..end], MAX_BULK_LEN, "bulk")? {
                    None => Token::Nil,
                    Some(n) if msg.len() < next + n + 2 => {
                        self.need = self.pos + next + n + 2;
                        return Ok(None);
                    }
                    Some(n) => {
                        if &msg[next + n..next + n + 2] != b"\r\n" {
                            return Err(RespError("bulk string not CRLF-terminated".into()));
                        }
                        let bulk = Token::Bulk(next, next + n);
                        next += n + 2;
                        bulk
                    }
                },
                b'*' => {
                    if self.open.len() == max_depth {
                        return Err(RespError("array nested too deeply".into()));
                    }
                    match parse_len(&msg[start..end], MAX_ARRAY_LEN, "array")? {
                        None => Token::Nil,
                        Some(n) => Token::Array(n),
                    }
                }
                other => return Err(RespError(format!("unexpected type byte {other:#04x}"))),
            };
            self.tokens.push(token);
            self.scanned = next;
            self.need = 0;
            if let Token::Array(n @ 1..) = token {
                self.open.push(n);
                continue;
            }
            // An element is whole, and so is every array it completes.
            loop {
                let Some(left) = self.open.last_mut() else {
                    return Ok(Some(next));
                };
                *left -= 1;
                if *left > 0 {
                    break;
                }
                self.open.pop();
            }
        }
    }

    /// Consume the next `len` bytes as one message: its one copy.
    fn take(&mut self, len: usize) -> Bytes {
        let msg = Bytes::copy_from_slice(&self.buf[self.pos..self.pos + len]);
        self.pos += len;
        self.scanned = 0;
        if self.pos == self.filled {
            self.buf = Vec::new();
            (self.filled, self.pos) = (0, 0);
        }
        msg
    }

    /// Decode the next complete value (reply side), if buffered.
    pub fn next_value(&mut self) -> Result<Option<RespValue>, RespError> {
        let Some(len) = self.scan(MAX_DEPTH)? else {
            return Ok(None);
        };
        let msg = self.take(len);
        let value = build(&msg, &mut self.tokens.iter());
        self.tokens.clear();
        Ok(Some(value))
    }

    /// Decode the next complete command (request side) into its argv.
    ///
    /// Multi-bulk requests must be arrays of bulk strings (as Redis
    /// requires); anything else that starts with `*` is a protocol
    /// error. Any other first byte starts an inline command: one
    /// whitespace-separated line. Empty lines and empty arrays are
    /// skipped, not surfaced.
    pub fn next_command(&mut self) -> Result<Option<Vec<Bytes>>, RespError> {
        loop {
            let Some(&tag) = self.buf[..self.filled].get(self.pos) else {
                return Ok(None);
            };
            let argv: Vec<Bytes> = if tag == b'*' {
                // Depth 1: the command array itself may not nest.
                let Some(len) = self.scan(1)? else {
                    return Ok(None);
                };
                let msg = self.take(len);
                let argv = self.tokens[1..]
                    .iter()
                    .map(|token| match *token {
                        Token::Bulk(s, e) => Ok(msg.slice(s..e)),
                        _ => Err(RespError("command array may hold only bulk strings".into())),
                    })
                    .collect::<Result<_, _>>();
                self.tokens.clear();
                argv?
            } else {
                let Some((line, used)) = take_line(&self.buf[self.pos..self.filled])? else {
                    return Ok(None);
                };
                let msg = self.take(used);
                let mut words = Vec::new();
                let mut at = 0;
                for word in msg[..line].split(|&b| b == b' ' || b == b'\t') {
                    if !word.is_empty() {
                        words.push(msg.slice(at..at + word.len()));
                    }
                    at += word.len() + 1;
                }
                words
            };
            // `*0`, `*-1` and a bare newline carry nothing to run.
            if !argv.is_empty() {
                return Ok(Some(argv));
            }
        }
    }
}

/// Append a `<tag><n>\r\n` line: the header of a bulk (`$`) or an
/// array (`*`), or an integer reply (`:`).
pub fn put_header(out: &mut Vec<u8>, tag: u8, n: i64) {
    out.push(tag);
    let _ = write!(out, "{n}\r\n");
}

/// Append a bulk string.
pub fn put_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    put_header(out, b'$', bytes.len() as i64);
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Append a nil bulk.
pub fn put_nil(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

/// Append an error reply, its line breaks blanked so it stays one line.
pub fn put_error(out: &mut Vec<u8>, msg: &str) {
    out.push(b'-');
    out.extend(
        msg.bytes()
            .map(|b| if b == b'\r' || b == b'\n' { b' ' } else { b }),
    );
    out.extend_from_slice(b"\r\n");
}

/// Encode an argv as a multi-bulk request (what clients send).
pub fn encode_command(argv: &[Bytes], out: &mut Vec<u8>) {
    put_header(out, b'*', argv.len() as i64);
    for arg in argv {
        put_bulk(out, arg);
    }
}

/// A command set served over RESP by a [`Server`](crate::serve::Server).
pub trait Commands: Send + Sync + 'static {
    /// Thread-name prefix of the accept loop and connection threads.
    const NAME: &'static str;

    /// Run `batch` — every command one socket read completed, in order —
    /// and append one reply per command to `out`. A command the set does
    /// not know is answered with an error reply; the connection lives
    /// on.
    fn run(&self, batch: Vec<Vec<Bytes>>, out: &mut Vec<u8>);
}

/// One connection's loop: read → decode every complete command → run
/// them as one batch → write every reply in one `write`. Returns
/// (dropping the connection) on EOF or I/O failure; on the first
/// protocol error it answers what decoded cleanly, then the error, and
/// hangs up — the stream offset is no longer to be trusted. Every
/// decoded command counts in `requests`.
pub(crate) fn serve_connection<C: Commands + ?Sized>(
    commands: &C,
    mut stream: TcpStream,
    requests: &AtomicU64,
) -> io::Result<()> {
    let mut decoder = RespDecoder::new();
    let mut out = Vec::new();
    loop {
        if decoder.read_from(&mut stream)? == 0 {
            return Ok(()); // clean EOF
        }
        let mut batch = Vec::new();
        let failed = loop {
            match decoder.next_command() {
                Ok(Some(argv)) => batch.push(argv),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
        out.clear();
        out.shrink_to(KEPT_BUFFER);
        if !batch.is_empty() {
            commands.run(batch, &mut out);
        }
        if let Some(e) = failed {
            put_error(&mut out, &format!("ERR {e}"));
            stream.write_all(&out)?;
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
        }
        if !out.is_empty() {
            stream.write_all(&out)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<Bytes> {
        words.iter().map(|w| Bytes::from(*w)).collect()
    }

    #[test]
    fn multibulk_command_round_trip() {
        let cmd = argv(&["SET", "key", "value"]);
        let mut wire = Vec::new();
        encode_command(&cmd, &mut wire);
        assert_eq!(
            &wire[..],
            b"*3\r\n$3\r\nSET\r\n$3\r\nkey\r\n$5\r\nvalue\r\n"
        );
        let mut dec = RespDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_command().expect("valid"), Some(cmd));
        assert_eq!(dec.next_command().expect("valid"), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn inline_command_parses() {
        let mut dec = RespDecoder::new();
        dec.feed(b"  SET  k   v \r\nPING\n\r\nGET k\r\n");
        assert_eq!(dec.next_command().unwrap(), Some(argv(&["SET", "k", "v"])));
        assert_eq!(dec.next_command().unwrap(), Some(argv(&["PING"])));
        assert_eq!(dec.next_command().unwrap(), Some(argv(&["GET", "k"])));
        assert_eq!(dec.next_command().unwrap(), None);
    }

    #[test]
    fn back_to_back_messages_in_one_read() {
        let mut dec = RespDecoder::new();
        dec.feed(b"+OK\r\n:-42\r\n$-1\r\n*2\r\n$2\r\nhi\r\n*1\r\n-ERR x\r\n$0\r\n\r\n");
        let mut got = Vec::new();
        while let Some(value) = dec.next_value().expect("valid") {
            got.push(value);
        }
        assert_eq!(
            got,
            vec![
                RespValue::Simple(Bytes::from("OK")),
                RespValue::Int(-42),
                RespValue::Nil,
                RespValue::Array(vec![
                    RespValue::Bulk(Bytes::from("hi")),
                    RespValue::Array(vec![RespValue::Error(Bytes::from("ERR x"))]),
                ]),
                RespValue::Bulk(Bytes::new()),
            ]
        );
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn torn_bulk_never_yields_until_complete() {
        let mut wire = Vec::new();
        encode_command(&argv(&["SET", "k", "v"]), &mut wire);
        let mut dec = RespDecoder::new();
        for &b in &wire[..wire.len() - 1] {
            dec.feed(&[b]);
            assert_eq!(dec.next_command().expect("no error yet"), None);
        }
        dec.feed(&wire[wire.len() - 1..]);
        assert!(dec.next_command().expect("valid").is_some());
    }

    /// Hands out `data` a few bytes per `read`, as a slow socket would.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.reads += 1;
            Ok(n)
        }
    }

    #[test]
    fn a_message_longer_than_one_read_is_assembled_in_place() {
        // A reply of many bulks, delivered 1000 bytes per read: every
        // bulk comes out as a slice of one copy of the whole message.
        let bulks: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 3000 + i as usize]).collect();
        let mut wire = Vec::new();
        put_header(&mut wire, b'*', bulks.len() as i64);
        for bulk in &bulks {
            put_bulk(&mut wire, bulk);
        }
        let mut src = Trickle {
            data: &wire,
            step: 1000,
            reads: 0,
        };
        let mut dec = RespDecoder::new();
        let value = loop {
            if let Some(value) = dec.next_value().expect("valid") {
                break value;
            }
            assert_ne!(dec.read_from(&mut src).expect("read"), 0, "early EOF");
        };
        assert_eq!(src.reads, wire.len().div_ceil(1000));
        let RespValue::Array(items) = value else {
            panic!("an array");
        };
        let first = match &items[0] {
            RespValue::Bulk(b) => b.as_ptr(),
            other => panic!("{other:?}"),
        };
        for (item, bulk) in items.iter().zip(&bulks) {
            let RespValue::Bulk(b) = item else {
                panic!("{item:?}");
            };
            assert_eq!(&b[..], &bulk[..]);
            // Slices of one allocation, in wire order.
            let offset = b.as_ptr() as usize - first as usize;
            assert!(offset < wire.len());
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn a_large_bulk_is_read_in_reads_as_large_as_the_socket_gives() {
        let bulk = vec![7u8; 8 * READ_HINT];
        let mut wire = Vec::new();
        put_bulk(&mut wire, &bulk);
        let mut src = Trickle {
            data: &wire,
            step: usize::MAX,
            reads: 0,
        };
        let mut dec = RespDecoder::new();
        let value = loop {
            if let Some(value) = dec.next_value().expect("valid") {
                break value;
            }
            dec.read_from(&mut src).expect("read");
        };
        assert_eq!(value, RespValue::Bulk(Bytes::from(bulk)));
        // The header's read, then the rest of the bulk in one.
        assert_eq!(src.reads, 2);
    }

    #[test]
    fn oversize_lengths_rejected() {
        for wire in [
            &b"$999999999999\r\n"[..],
            b"*-7\r\n",
            b"*99999999\r\n",
            b"$-2\r\n",
        ] {
            let mut dec = RespDecoder::new();
            dec.feed(wire);
            assert!(dec.next_value().is_err(), "{wire:?}");
        }
        let mut dec = RespDecoder::new();
        dec.feed(&vec![b'+'; MAX_LINE_LEN + 3]);
        assert!(dec.next_value().is_err());
    }

    #[test]
    fn unexpected_type_byte_rejected() {
        let mut dec = RespDecoder::new();
        dec.feed(b"?3\r\n");
        assert!(dec.next_value().is_err());
        let mut dec = RespDecoder::new();
        dec.feed(b"$3\r\nabcd\r\n");
        assert!(dec.next_value().is_err(), "bulk overruns its CRLF");
    }

    #[test]
    fn nested_command_array_is_a_protocol_error() {
        let mut dec = RespDecoder::new();
        dec.feed(b"*1\r\n*1\r\n$1\r\nx\r\n");
        assert!(dec.next_command().is_err());
        let mut dec = RespDecoder::new();
        dec.feed(b"*2\r\n$1\r\nx\r\n:5\r\n");
        assert!(dec.next_command().is_err());
        let mut dec = RespDecoder::new();
        dec.feed(&b"*1\r\n".repeat(MAX_DEPTH + 1));
        assert!(dec.next_value().is_err());
    }

    #[test]
    fn writers_emit_what_the_decoder_reads() {
        let mut out = Vec::new();
        put_header(&mut out, b'*', 4);
        put_header(&mut out, b':', -3);
        put_nil(&mut out);
        put_bulk(&mut out, b"a\r\nb");
        put_error(&mut out, "ERR two\r\nlines");
        assert_eq!(
            &out[..],
            b"*4\r\n:-3\r\n$-1\r\n$4\r\na\r\nb\r\n-ERR two  lines\r\n"
        );
        let mut dec = RespDecoder::new();
        dec.feed(&out);
        assert_eq!(
            dec.next_value().unwrap(),
            Some(RespValue::Array(vec![
                RespValue::Int(-3),
                RespValue::Nil,
                RespValue::Bulk(Bytes::from("a\r\nb")),
                RespValue::Error(Bytes::from("ERR two  lines")),
            ]))
        );
    }
}
