//! Segmented, group-committed persistent chunk store (§4.4).
//!
//! Chunks are immutable, so the natural persistent layout is an
//! append-only log. This store splits the log into fixed-size **segment
//! files** (`seg-NNNNNN.log`) inside a directory, writes an **index
//! snapshot** (`snapshot.idx`) so reopen replays only the tail, and
//! coalesces concurrent `put`s into shared write+fsync rounds (**group
//! commit**).
//!
//! # On-disk format
//!
//! Every record is
//!
//! ```text
//! [magic u32 LE][payload_len u32 LE][type u8][payload][cid 32B]
//! ```
//!
//! The cid (`SHA-256(type ‖ payload)`) doubles as a record checksum: a
//! torn or corrupted tail is detected by magic/length/cid mismatch on
//! reopen and truncated away. Records never span segments; a record
//! larger than the segment budget gets an oversized segment of its own.
//! Segment ids increase monotonically and are never reused (compaction
//! writes fresh segments and deletes the old ones).
//!
//! A **root record** is the same frame under a type tag that is no
//! [`ChunkType`] (`0xFF`), its payload the cid of the chunk the
//! application recovers from (a branch-table checkpoint) and its trailer
//! `SHA-256(tag ‖ payload)`. [`LogStore::sync_root`] appends one behind
//! everything queued and fsyncs; [`LogStore::root`] is the last one the
//! scan met. It is validated and torn-tail-truncated like any record but
//! never indexed or counted: it is not a chunk. Because the scan stops at
//! the first record that fails — and because the writer fsyncs a segment
//! before it opens the next, so a later segment never outlives an earlier
//! one's tail — a root is recovered only if every record before it is
//! intact: the recovery point needs no file of its own.
//!
//! The snapshot file caches the cid → (segment, offset, len) index and
//! the root up to a *synced* log position:
//!
//! ```text
//! [magic u32][version u32][covered_seg u32][covered_off u64][count u64]
//! [root 32B, all-zero = none]
//! [cid 32B][seg u32][off u64][plen u32] × count
//! [fxhash-64 of everything above]
//! ```
//!
//! On reopen the snapshot is loaded (if valid; a file of another version
//! is discarded) and only records past `(covered_seg, covered_off)` are
//! scanned — the tail a crash may have torn — instead of the whole log.
//! The scan streams one record at a time through a reusable buffer, so
//! reopening a multi-GB store never loads it into memory.
//!
//! # Durability and group commit
//!
//! One rule decides who touches the segment file: **a caller that must
//! wait for durability leads its own round; a caller that need not wait
//! never touches the file.** A *round* is the group commit: the leader
//! takes the whole queue, releases the commit lock, issues one `write`
//! (+ one fsync when the round owes one), re-locks and publishes.
//!
//! * Callers that wait — a `put` under [`Always`](Durability::Always),
//!   [`sync`](LogStore::sync), [`sync_root`](LogStore::sync_root), close
//!   and compaction — lead inline. When several arrive together one
//!   becomes the **leader**, the rest wait for its fsync: N threads share
//!   one. A `sync` (and `sync_root`) leads only until everything queued
//!   when it came in is fsynced — one round — not until producers pause;
//!   what they queue meanwhile is the writer thread's. Compaction and an
//!   explicit snapshot drain everything: they hold the commit lock through
//!   their round.
//! * Everything else is the **writer thread**'s (`logstore-writer`, one
//!   per store, joined on close). A `put` under
//!   [`Batch`](Durability::Batch) or [`Os`](Durability::Os) encodes its
//!   record into the queue and returns; when that made the backlog *due*
//!   — `max_records` or `interval` reached under `Batch`, 1 MiB queued
//!   in either mode, or one `put_many` of at least 256 KiB — it signals
//!   the writer, which leads the round. The writer sleeps on a condvar of
//!   the commit mutex, so a signal cannot fall between its check and its
//!   wait; under `Batch` it also wakes every half interval, so an idle
//!   store's unsynced window is bounded by wall-clock. A putter that finds
//!   8 MiB queued (a disk slower than its producers) waits for the
//!   writer's next round: queue memory is bounded.
//!
//! # Write-behind
//!
//! A round that owes no fsync (the writer thread's, unless a `Batch`
//! window is due) ends by starting the writeback of the bytes it wrote:
//! `sync_file_range(SYNC_FILE_RANGE_WRITE)` on Linux, nothing elsewhere.
//! The pages then travel to the disk while producers go on, and the next
//! forced round's fsync waits only for what is still dirty — its own
//! tail. This is what the 256 KiB `put_many` trigger is for: a block
//! commit hands its leaves over before it builds the index levels above
//! them, the writer writes them and starts their writeback meanwhile, and
//! the checkpoint's round writes and fsyncs only the index nodes, meta
//! chunks, checkpoint and root record. Starting writeback is not an
//! fsync. It promises nothing about durability — no metadata, no device
//! cache flush, no wait — and changes nothing about what a crash may
//! lose or what a reopen recovers: a root record still counts only once
//! the fsync of its own round returns, and recovery still stops at the
//! first record that fails.
//!
//! [`Durability`] picks the policy:
//!
//! * [`Always`](Durability::Always) — a `put` returns only after its
//!   record is fsynced.
//! * [`Batch`](Durability::Batch) — a `put` returns once its record is
//!   queued. A crash loses at most one window: the `max_records` (or
//!   `interval`) that signal the writer, plus what arrives while its
//!   round is in flight.
//! * [`Os`](Durability::Os) — records are handed to the OS page cache
//!   1 MiB at a time; fsync happens only on [`sync`](LogStore::sync), on
//!   close, and of a full segment when the writer leaves it.
//!
//! A failed round drops the records it took, latches
//! [`poisoned`](LogStore::poisoned) and counts in `io_errors` whoever led
//! it; the next [`sync`](LogStore::sync) returns `Err`, once.
//!
//! Periodic index snapshots (every `snapshot_bytes` appended) are the
//! writer thread's too, whoever led the round that made one due: the
//! index up to the synced position is serialised under the commit lock,
//! and the file is written, fsynced and renamed with the lock released —
//! puts and rounds go on meanwhile. A snapshot never covers a byte past
//! the synced position and never overlaps a compaction (which waits for
//! it, then holds the commit lock throughout).
//!
//! Reads never take the commit lock: chunks still in the commit queue
//! are served from a pending-chunk map, everything else via positioned
//! reads (`pread`) on per-segment read handles. A batched read sorts its
//! misses by log position and fetches each run of adjacent records — a
//! blob's leaves, written by one `put_many` — with one `pread`.
//!
//! # Failure reporting
//!
//! A read that hits an I/O error — or a payload whose recomputed cid
//! does not match the requested one — returns `None` (the `ChunkStore`
//! contract reports presence), but the failure is **not** swallowed: it
//! bumps `StoreStats::io_errors` and latches the
//! [`poisoned`](LogStore::poisoned) flag so callers can distinguish
//! "absent" from "unreadable".

use crate::chunk::{Chunk, ChunkType};
use crate::store::{ChunkStore, PutOutcome, StatCounters, StoreStats};
use bytes::Bytes;
use forkbase_crypto::fx::{FxHashMap, FxHashSet};
use forkbase_crypto::Digest;
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const MAGIC: u32 = 0xF0_4B_BA_5E; // "ForkBase"
const SNAP_MAGIC: u32 = 0xF0_4B_1D_E0;
/// 2: the header carries the root.
const SNAP_VERSION: u32 = 2;
/// Snapshot header bytes before the index entries.
const SNAP_HEADER: usize = 4 + 4 + 4 + 8 + 8 + 32;
const SNAPSHOT_FILE: &str = "snapshot.idx";
/// Type tag of a root record; no [`ChunkType`] has it.
const ROOT_TAG: u8 = 0xFF;
/// Record framing overhead: magic + len + type tag + trailing cid.
const REC_OVERHEAD: usize = 4 + 4 + 1 + 32;
/// Hand the commit queue to the OS once it holds this many bytes even
/// when no sync deadline requires it.
const QUEUE_HIGH_WATER: usize = 1 << 20;
/// A putter that finds this much queued waits for the writer thread's
/// next round (bounds queue memory under a disk slower than its
/// producers).
const QUEUE_BOUND: usize = 8 * QUEUE_HIGH_WATER;
/// A `put_many` that queues at least this many record bytes wakes the
/// writer thread to write them ahead of the next forced round — a block's
/// leaves while its caller still builds the index levels over them (the
/// tree layer hands leaves of builds this large to the store on their
/// own, at the same threshold).
const WRITE_AHEAD_BYTES: usize = forkbase_crypto::parallel::PARALLEL_THRESHOLD_BYTES;
/// Longest run of adjacent records a batched read fetches with one
/// `pread` (bounds its scratch buffer).
const RUN_MAX_BYTES: u64 = 1 << 20;

/// When a `put` counts as committed — and so who writes it: a `put` that
/// waits for its fsync leads the commit round itself, a `put` that does
/// not only queues its record and leaves the file to the store's writer
/// thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// Every `put` waits for an fsync covering its record; concurrent
    /// callers share one fsync via group commit.
    Always,
    /// `put` returns as soon as the record is queued and never touches
    /// the file; the writer thread writes and fsyncs the queue once it
    /// holds `max_records` or its oldest record is `interval` old,
    /// whichever first. A crash loses at most that window plus what was
    /// put while the writer's round was in flight.
    Batch {
        /// Unsynced records that signal the writer thread.
        max_records: usize,
        /// Maximum age of an unsynced record (checked on put, and by the
        /// writer thread every half interval).
        interval: Duration,
    },
    /// `put` queues; the writer thread hands the queue to the OS 1 MiB
    /// at a time. No fsync except [`LogStore::sync`], close, and of each
    /// full segment as the writer leaves it.
    Os,
}

impl Default for Durability {
    /// Bounded loss: at most 512 records or 10 ms.
    fn default() -> Self {
        Durability::Batch {
            max_records: 512,
            interval: Duration::from_millis(10),
        }
    }
}

/// Sizing knobs for the segmented log.
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Write an index snapshot after this many appended bytes (keeps the
    /// reopen tail-replay short); one is also written on clean close.
    pub snapshot_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 64 << 20,
            snapshot_bytes: 32 << 20,
        }
    }
}

/// Where a record lives: segment id, byte offset of the record start,
/// payload length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Loc {
    seg: u32,
    off: u64,
    plen: u32,
}

impl Loc {
    /// Where the record ends: the offset of the next one in the segment.
    fn end(&self) -> u64 {
        self.off + REC_OVERHEAD as u64 + self.plen as u64
    }
}

/// What the last reopen had to do — lets tests (and operators) assert
/// that snapshots actually bound recovery work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReopenStats {
    /// Bytes scanned record-by-record to rebuild the index tail.
    pub bytes_scanned: u64,
    /// Chunks recovered by the tail scan (past the snapshot).
    pub replayed_chunks: u64,
    /// Chunks restored straight from the index snapshot.
    pub snapshot_chunks: u64,
    /// Whether a valid snapshot was used.
    pub used_snapshot: bool,
}

/// Result of an in-place compaction ([`LogStore::compact_retain`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Chunks rewritten into fresh segments.
    pub kept_chunks: u64,
    /// Payload bytes rewritten.
    pub kept_bytes: u64,
    /// Chunks dropped with the old segments.
    pub dropped_chunks: u64,
    /// Payload bytes dropped.
    pub dropped_bytes: u64,
    /// Old segment files deleted.
    pub segments_removed: usize,
}

/// Whose a queued record is.
#[derive(Clone, Copy)]
enum Rec {
    /// A chunk, by cid: indexed, and served from the pending map until
    /// its bytes are in the segment file.
    Chunk(Digest),
    /// A root record naming this cid: neither indexed nor pending.
    Root(Digest),
}

/// What a group-commit leader is out to do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lead {
    /// Rounds while the durability policy says one is due: the writer
    /// thread, an `Always` putter.
    Policy,
    /// Write and fsync everything queued so far: one round, ending the
    /// lead however much producers queue during it.
    Sync,
    /// As `Sync`, with the commit lock held through the I/O: nothing can
    /// be queued behind the round, so it ends with the log quiescent.
    Quiesce,
}

/// One contiguous run of queued record bytes, all in one segment.
struct PendingRun {
    seg: u32,
    bytes: Vec<u8>,
    /// (owner, encoded record length) per record, in `bytes` order — the
    /// lengths let error recovery re-slice and re-locate the records.
    recs: Vec<(Rec, u32)>,
}

/// Append one framed record to `buf` — the only writer of the on-disk
/// record format. `hash` is the trailer: `SHA-256(tag ‖ payload)`, which
/// for a chunk is its cid.
fn write_record(buf: &mut Vec<u8>, tag: u8, payload: &[u8], hash: &Digest) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(hash.as_bytes());
}

/// Trailer of the root record naming `cid`.
fn root_hash(cid: &Digest) -> Digest {
    forkbase_crypto::hash_parts(&[&[ROOT_TAG], cid.as_bytes()])
}

impl CommitState {
    /// Place one record of `rec_len` encoded bytes at the logical head:
    /// rotate to a fresh segment when full, assign its on-disk location,
    /// enter it in the queue runs, and advance the head. Returns the
    /// location and the run buffer, into which the caller encodes exactly
    /// `rec_len` bytes — records are written once, where the leader's
    /// `write` will read them. `reserve` (≥ `rec_len`) is what the caller
    /// is about to queue in all, so a batch grows the buffer once. The
    /// single source of truth for the placement rule — used by the normal
    /// enqueue path and by failed-round rollback when queued records are
    /// re-located.
    fn place_record(
        &mut self,
        segment_bytes: u64,
        rec: Rec,
        rec_len: usize,
        reserve: usize,
    ) -> (Loc, &mut Vec<u8>) {
        if self.head_off > 0 && self.head_off + rec_len as u64 > segment_bytes {
            self.head_seg += 1;
            self.head_off = 0;
        }
        let loc = Loc {
            seg: self.head_seg,
            off: self.head_off,
            plen: (rec_len - REC_OVERHEAD) as u32,
        };
        self.queue_bytes += rec_len;
        self.queue_records += 1;
        self.head_off += rec_len as u64;
        if self.queue.last().map(|run| run.seg) != Some(loc.seg) {
            self.queue.push(PendingRun {
                seg: loc.seg,
                bytes: Vec::new(),
                recs: Vec::new(),
            });
        }
        let run = self.queue.last_mut().expect("a run for the head segment");
        run.recs.push((rec, rec_len as u32));
        run.bytes.reserve(reserve);
        (loc, &mut run.bytes)
    }
}

/// Writer-side state behind the commit mutex.
struct CommitState {
    /// Queued runs not yet handed to the OS.
    queue: Vec<PendingRun>,
    queue_bytes: usize,
    queue_records: usize,
    /// Monotonic put sequence / highest fsynced sequence.
    seq_enqueued: u64,
    seq_synced: u64,
    /// Highest sequence dropped by a failed commit round — waiters up to
    /// here must stop waiting (their data is gone; the store is
    /// poisoned).
    seq_failed: u64,
    /// A leader is currently draining the queue (commit lock released
    /// during its I/O).
    writing: bool,
    /// Logical append position, including queued-but-unwritten bytes.
    head_seg: u32,
    head_off: u64,
    /// Writer handle (`None` only while a leader borrows it).
    file: Option<File>,
    /// Segment `file` appends to, and how much of it is written.
    file_seg: u32,
    written_off: u64,
    /// Records written to the OS but not yet fsynced. All of them are in
    /// the segment `file` appends to: a segment is fsynced before the
    /// writer leaves it.
    unsynced_records: usize,
    /// A segment file was created since the last directory fsync; the
    /// next sync round must fsync the directory too, or a power loss
    /// could drop the whole file's dirent.
    dir_dirty: bool,
    /// When the oldest not-yet-fsynced record was enqueued (drives the
    /// `Batch` interval deadline).
    oldest_unsynced: Option<Instant>,
    /// Appended bytes since the last snapshot.
    bytes_since_snapshot: u64,
    /// Position up to which everything is fsynced (snapshots may only
    /// cover this much).
    synced_seg: u32,
    synced_off: u64,
    /// The last root record at or before the synced position — what a
    /// reopen would recover.
    root: Option<Digest>,
    /// The last root record written behind the synced position; the next
    /// sync round promotes it to `root`.
    unsynced_root: Option<Digest>,
    /// Highest `seq_failed` a [`sync`](LogInner::sync) has returned `Err`
    /// for: a round that failed with nobody waiting on it (the writer
    /// thread's) is reported by the next sync.
    failed_reported: u64,
    /// The writer thread is writing a periodic snapshot (commit lock
    /// released during its I/O); compaction, `snapshot()` and close wait
    /// for it.
    snapshotting: bool,
    /// Threads in [`quiesce`](LogInner::quiesce) waiting to have the log
    /// to themselves: a leader stops after the round it is in and nobody
    /// else starts one, however much is queued.
    quiescers: usize,
    /// The writer thread has been signalled and has not looked yet —
    /// spares every further put the `notify`.
    writer_woken: bool,
    /// A `put_many` of at least [`WRITE_AHEAD_BYTES`] is queued and no
    /// round has taken it yet: the writer thread writes it ahead.
    write_ahead: bool,
    /// Close asked the writer thread to exit.
    stop: bool,
}

/// Shared store state: everything the API surface and the writer thread
/// both need.
struct LogInner {
    dir: PathBuf,
    cfg: LogConfig,
    durability: Durability,
    index: RwLock<FxHashMap<Digest, Loc>>,
    /// Chunks queued but not yet written to their segment file.
    pending: RwLock<FxHashMap<Digest, Chunk>>,
    commit: Mutex<CommitState>,
    /// Waiters on a round: `Always` putters and syncs behind a leader,
    /// putters held at [`QUEUE_BOUND`], whoever waits out a snapshot.
    commit_cv: Condvar,
    /// The writer thread's, also on the commit mutex.
    writer_cv: Condvar,
    /// Lazily opened per-segment read handles (positioned reads only).
    readers: RwLock<FxHashMap<u32, Arc<File>>>,
    stats: StatCounters,
    /// fsyncs issued ([`LogStore::fsync_count`]).
    fsyncs: AtomicU64,
    /// Rounds led by a caller ([`LogStore::caller_rounds`]).
    caller_rounds: AtomicU64,
    /// Record bytes written by rounds a caller led and by the writer
    /// thread's ([`LogStore::caller_bytes_written`],
    /// [`LogStore::writer_bytes_written`]).
    caller_bytes: AtomicU64,
    writer_bytes: AtomicU64,
    /// Nanoseconds rounds a caller led spent in `write` and in
    /// `fdatasync` ([`LogStore::caller_write_ns`],
    /// [`LogStore::caller_fsync_ns`]).
    caller_write_ns: AtomicU64,
    caller_fsync_ns: AtomicU64,
    /// Writeback starts issued ([`LogStore::writeback_starts`]).
    writeback_starts: AtomicU64,
    /// Positioned segment reads ([`LogStore::read_count`]).
    reads: AtomicU64,
    poisoned: AtomicBool,
    reopen: ReopenStats,
}

/// Append-only segmented persistent chunk store with group commit.
///
/// The handle owns the shared store state plus the writer thread, which
/// leads every commit round no caller waits for and writes the periodic
/// index snapshots. Dropping the store stops and joins the writer, then
/// flushes and snapshots.
pub struct LogStore {
    inner: Arc<LogInner>,
    /// `None` only once `drop` has joined it.
    writer: Option<std::thread::JoinHandle<()>>,
}

fn segment_path(dir: &Path, seg: u32) -> PathBuf {
    dir.join(format!("seg-{seg:06}.log"))
}

fn open_rw(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)
}

/// Persist directory entries (newly created/renamed files). Best effort
/// — not every filesystem supports fsync on a directory handle.
fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
}

/// Start writeback of `len` bytes of `file` at `off` and return at once
/// (Linux `sync_file_range(SYNC_FILE_RANGE_WRITE)`): the pages go to the
/// disk while the caller goes on, and a later fsync of the file waits
/// only for what is still dirty. Not an fsync: it promises nothing about
/// durability — no metadata, no device cache flush, no wait. Returns
/// whether the writeback was started; elsewhere it never is.
#[cfg(target_os = "linux")]
fn start_writeback(file: &File, off: u64, len: u64) -> bool {
    use std::os::fd::AsRawFd;
    const SYNC_FILE_RANGE_WRITE: u32 = 2;
    extern "C" {
        fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
    }
    let (Ok(off), Ok(len)) = (i64::try_from(off), i64::try_from(len)) else {
        return false;
    };
    // SAFETY: the call reads no memory of ours; `file` keeps the
    // descriptor open for its duration, and the kernel checks the
    // range and flags.
    unsafe { sync_file_range(file.as_raw_fd(), off, len, SYNC_FILE_RANGE_WRITE) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn start_writeback(_file: &File, _off: u64, _len: u64) -> bool {
    false
}

impl LogInner {
    /// `sync_data`, counted.
    fn fsync(&self, file: &File) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        file.sync_data()
    }

    /// [`fsync_dir`] of the store directory, counted.
    fn fsync_dir(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        fsync_dir(&self.dir);
    }
}

/// Nanoseconds since `t`.
fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn fx64(bytes: &[u8]) -> u64 {
    let mut h = forkbase_crypto::fx::FxHasher::default();
    h.write(bytes);
    h.finish()
}

impl LogStore {
    /// Open (or create) a store in directory `path` with default sizing
    /// and the default [`Durability`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<LogStore> {
        Self::open_with(path, LogConfig::default(), Durability::default())
    }

    /// Open with explicit sizing and durability. Reopen loads the index
    /// snapshot (when present and valid) and replays only records past
    /// it; a torn or corrupt tail is truncated, and segments after a
    /// corrupt record are discarded (append order is monotonic across
    /// segments, so everything there is younger than the corruption).
    pub fn open_with(
        path: impl AsRef<Path>,
        cfg: LogConfig,
        durability: Durability,
    ) -> io::Result<LogStore> {
        let inner = Arc::new(LogInner::open_with(path, cfg, durability)?);
        let writer = Some(LogInner::spawn_writer(&inner));
        Ok(LogStore { inner, writer })
    }

    /// Directory holding the segments and snapshot.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// What the last open had to replay.
    pub fn reopen_stats(&self) -> ReopenStats {
        self.inner.reopen
    }

    /// True once any read or commit has failed with an I/O error or a
    /// cid mismatch; counts are in [`StoreStats::io_errors`].
    pub fn poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Relaxed)
    }

    /// Number of distinct chunks indexed.
    pub fn chunk_count(&self) -> usize {
        self.inner.index.read().len()
    }

    /// The configured durability policy.
    pub fn durability(&self) -> Durability {
        self.inner.durability
    }

    /// Acknowledged puts not yet covered by an fsync (the records a
    /// crash right now would lose, queue and written-but-unsynced alike).
    /// Under `Batch` the writer thread drives this back to zero within
    /// roughly one interval even when no call arrives.
    pub fn pending_unsynced(&self) -> u64 {
        let state = self.inner.commit.lock().expect("commit lock");
        state.seq_enqueued - state.seq_synced.max(state.seq_failed)
    }

    /// Drain the commit queue and fsync: after this, every `put`
    /// acknowledged before the call is on disk regardless of durability
    /// mode. Puts that race the call are left to the writer thread, so it
    /// returns however fast producers are.
    pub fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }

    /// Make `root` the recovery point: queue the chunk (unless the store
    /// holds it) and a root record naming its cid behind everything
    /// already queued, then [`sync`](Self::sync) — in every durability
    /// mode the chunk, its root record and all that came before go out in
    /// one group-commit round: one `write`, one fsync. On `Ok`,
    /// [`root`](Self::root) is the chunk's cid here and after any reopen,
    /// until the next call.
    pub fn sync_root(&self, root: Chunk) -> io::Result<()> {
        self.inner.sync_root(root)
    }

    /// The cid named by the last durable root record, `None` when there
    /// has never been one. After a crash this is the last root whose
    /// record — and every record before it — is intact in the log.
    pub fn root(&self) -> Option<Digest> {
        self.inner.commit.lock().expect("commit lock").root
    }

    /// How many fsyncs this handle has issued, of segment files, the
    /// snapshot and the directory alike — the count to watch when a commit
    /// barrier seems slow.
    pub fn fsync_count(&self) -> u64 {
        self.inner.fsyncs.load(Ordering::Relaxed)
    }

    /// How many times a caller — an `Always` put, [`sync`](Self::sync),
    /// [`sync_root`](Self::sync_root), compaction, close — led a commit
    /// round on its own thread. `Batch` and `Os` puts never move it: their
    /// rounds are the writer thread's.
    pub fn caller_rounds(&self) -> u64 {
        self.inner.caller_rounds.load(Ordering::Relaxed)
    }

    /// Record bytes written to segment files by rounds a caller led — the
    /// bytes a `sync` or `sync_root` waits to `write` itself.
    pub fn caller_bytes_written(&self) -> u64 {
        self.inner.caller_bytes.load(Ordering::Relaxed)
    }

    /// Record bytes written to segment files by the writer thread's rounds.
    pub fn writer_bytes_written(&self) -> u64 {
        self.inner.writer_bytes.load(Ordering::Relaxed)
    }

    /// Nanoseconds rounds a caller led spent in `write`.
    pub fn caller_write_ns(&self) -> u64 {
        self.inner.caller_write_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds rounds a caller led spent in `fdatasync`, of segment
    /// files and the directory.
    pub fn caller_fsync_ns(&self) -> u64 {
        self.inner.caller_fsync_ns.load(Ordering::Relaxed)
    }

    /// How many times a round that wrote without an fsync started the
    /// writeback of what it wrote.
    pub fn writeback_starts(&self) -> u64 {
        self.inner.writeback_starts.load(Ordering::Relaxed)
    }

    /// How many positioned reads this handle has issued against segment
    /// files; a batched read costs one per run of adjacent records.
    pub fn read_count(&self) -> u64 {
        self.inner.reads.load(Ordering::Relaxed)
    }

    /// Force an index snapshot now (they normally happen every
    /// `snapshot_bytes` of appends and on clean close). Implies
    /// [`sync`](Self::sync).
    pub fn snapshot(&self) -> io::Result<()> {
        self.inner.snapshot()
    }

    /// Rewrite exactly the chunks in `live` into fresh segments, delete
    /// every old segment, and write a new snapshot covering the result.
    /// The [`root`](Self::root) is carried over when `live` retains its
    /// chunk, and dropped with the chunk otherwise.
    /// The store stays open throughout; the index swap redirects reads.
    /// (A reader that resolved a location *before* the swap may race the
    /// old segment's deletion and observe a spurious read error — run
    /// compaction on a quiesced instance when that matters.)
    pub fn compact_retain(&self, live: &FxHashSet<Digest>) -> io::Result<CompactStats> {
        self.inner.compact_retain(live)
    }
}

impl Drop for LogStore {
    /// Clean close: stop and join the writer thread, then flush + fsync
    /// everything acknowledged and leave a fresh snapshot so the next
    /// open replays nothing. The snapshot is skipped when nothing was
    /// appended since the last one — a read-only session must not
    /// rewrite store metadata.
    fn drop(&mut self) {
        if let Some(handle) = self.writer.take() {
            if let Ok(mut state) = self.inner.commit.lock() {
                state.stop = true;
                self.inner.wake_writer(&mut state);
            }
            // A panicked writer poisoned the commit mutex: nothing below
            // can run, and `drop` must not panic over it.
            if handle.join().is_err() {
                return;
            }
        }
        self.inner.close();
    }
}

impl ChunkStore for LogStore {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        self.inner.get(cid)
    }

    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        self.inner.get_many(cids)
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        self.inner.put(chunk)
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        self.inner.put_many(chunks)
    }

    fn contains(&self, cid: &Digest) -> bool {
        self.inner.index.read().contains_key(cid)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats.snapshot()
    }
}

impl LogInner {
    fn open_with(
        path: impl AsRef<Path>,
        cfg: LogConfig,
        durability: Durability,
    ) -> io::Result<LogInner> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut seg_ids: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse().ok())
            {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();

        let mut rec = Recovered::default();

        // Load the snapshot; fall back to a full scan when it is absent,
        // corrupt, of another version, or points at segments that no
        // longer exist (e.g. a crash between compaction's segment
        // deletion and its fresh snapshot).
        let mut resume = None;
        if let Some(snap) = read_snapshot(&dir.join(SNAPSHOT_FILE)) {
            let (seg, off) = (snap.seg, snap.off);
            let covered_exists = match seg_ids.binary_search(&seg) {
                Ok(_) => std::fs::metadata(segment_path(&dir, seg))
                    .map(|m| m.len() >= off)
                    .unwrap_or(false),
                // A snapshot taken exactly at a rotation boundary may
                // cover the zero-length start of a not-yet-created file.
                Err(_) => off == 0,
            };
            if covered_exists {
                for loc in snap.index.values() {
                    rec.stats.record_store(loc.plen as u64);
                }
                rec.reopen.snapshot_chunks = snap.index.len() as u64;
                rec.reopen.used_snapshot = true;
                rec.index = snap.index;
                rec.root = snap.root;
                resume = Some((seg, off));
            }
        }
        let (resume_seg, resume_off) = resume.unwrap_or((*seg_ids.first().unwrap_or(&0), 0));

        // Tail replay: stream every record past the resume point through
        // a reusable per-record buffer. The first torn or corrupt record
        // ends recovery; its segment is truncated there and later
        // segments are deleted.
        let mut scratch = Vec::new();
        let mut clean = true;
        let mut tail = (resume_seg, resume_off);
        for &seg in seg_ids.iter().filter(|&&s| s >= resume_seg) {
            if !clean {
                std::fs::remove_file(segment_path(&dir, seg))?;
                continue;
            }
            let start = if seg == resume_seg { resume_off } else { 0 };
            let path = segment_path(&dir, seg);
            let file = File::open(&path)?;
            let len = file.metadata()?.len();
            let valid_end = scan_segment(&file, seg, start, &mut rec, &mut scratch)?;
            drop(file);
            if valid_end < len {
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid_end)?;
                clean = false;
            }
            tail = (seg, valid_end);
        }
        let Recovered {
            index,
            root,
            stats: recovered,
            reopen,
        } = rec;

        // Recovery scans are not client traffic: keep only held-data
        // counters.
        let recovered = recovered.snapshot();
        let stats = StatCounters::default();
        stats
            .stored_chunks
            .store(recovered.stored_chunks, Ordering::Relaxed);
        stats
            .stored_bytes
            .store(recovered.stored_bytes, Ordering::Relaxed);

        let (head_seg, head_off) = tail;
        let mut file = open_rw(&segment_path(&dir, head_seg))?;
        file.seek(SeekFrom::Start(head_off))?;
        // The head segment may have just been created: persist its
        // directory entry before any record relies on it.
        fsync_dir(&dir);

        Ok(LogInner {
            dir,
            cfg,
            durability,
            index: RwLock::new(index),
            pending: RwLock::new(FxHashMap::default()),
            commit: Mutex::new(CommitState {
                queue: Vec::new(),
                queue_bytes: 0,
                queue_records: 0,
                seq_enqueued: 0,
                seq_synced: 0,
                seq_failed: 0,
                writing: false,
                head_seg,
                head_off,
                file: Some(file),
                file_seg: head_seg,
                written_off: head_off,
                unsynced_records: 0,
                dir_dirty: false,
                oldest_unsynced: None,
                bytes_since_snapshot: 0,
                synced_seg: head_seg,
                synced_off: head_off,
                root,
                unsynced_root: None,
                failed_reported: 0,
                snapshotting: false,
                quiescers: 0,
                writer_woken: false,
                write_ahead: false,
                stop: false,
            }),
            commit_cv: Condvar::new(),
            writer_cv: Condvar::new(),
            readers: RwLock::new(FxHashMap::default()),
            stats,
            fsyncs: AtomicU64::new(0),
            caller_rounds: AtomicU64::new(0),
            caller_bytes: AtomicU64::new(0),
            writer_bytes: AtomicU64::new(0),
            caller_write_ns: AtomicU64::new(0),
            caller_fsync_ns: AtomicU64::new(0),
            writeback_starts: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            reopen,
        })
    }

    /// Start the writer thread. It sleeps on `writer_cv` until a put
    /// makes the backlog due, a round makes a snapshot due, or close asks
    /// it to stop; under `Batch` it also wakes every half interval, so an
    /// idle store's unsynced window is bounded by wall-clock.
    fn spawn_writer(inner: &Arc<LogInner>) -> std::thread::JoinHandle<()> {
        let tick = match inner.durability {
            Durability::Batch { interval, .. } => {
                Some((interval / 2).max(Duration::from_millis(1)))
            }
            Durability::Always | Durability::Os => None,
        };
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name("logstore-writer".into())
            .spawn(move || inner.writer_loop(tick))
            .expect("spawn logstore writer")
    }

    /// Body of the writer thread: lead every round no caller waits for,
    /// write every periodic snapshot. `writer_woken` and `stop` are set
    /// under the commit lock this loop checks them under, so neither can
    /// be missed. A failed round is not retried before the next signal or
    /// tick; it poisons the store and the next `sync` reports it.
    fn writer_loop(&self, tick: Option<Duration>) {
        let mut state = self.commit.lock().expect("commit lock");
        while !state.stop {
            if !state.writer_woken {
                state = match tick {
                    Some(tick) => {
                        self.writer_cv
                            .wait_timeout(state, tick)
                            .expect("commit lock")
                            .0
                    }
                    None => self.writer_cv.wait(state).expect("commit lock"),
                };
            }
            state.writer_woken = false;
            // A quiescer does both itself, and is waiting for the log.
            if state.stop || state.quiescers > 0 {
                continue;
            }
            if !state.writing && self.backlog_due(&state) {
                state = self.drain_as_leader(state, Lead::Policy, false).0;
            }
            if !state.stop && state.bytes_since_snapshot >= self.cfg.snapshot_bytes {
                state = self.periodic_snapshot(state);
            }
        }
    }

    /// Signal the writer thread, once until it has looked. Commit lock
    /// held.
    fn wake_writer(&self, state: &mut CommitState) {
        if !state.writer_woken {
            state.writer_woken = true;
            self.writer_cv.notify_one();
        }
    }

    /// Clean-close body shared by [`LogStore::drop`]; the writer thread
    /// is gone.
    fn close(&self) {
        let state = self.commit.lock().expect("commit lock");
        if state.queue.is_empty() && state.unsynced_records == 0 && state.bytes_since_snapshot == 0
        {
            return;
        }
        if let (mut state, Ok(())) = self.sync_locked(state, Lead::Sync) {
            let _ = self.write_snapshot(&mut state);
        }
    }

    /// Drain the commit queue and fsync; see [`LogStore::sync`].
    fn sync(&self) -> io::Result<()> {
        self.sync_locked(self.commit.lock().expect("commit lock"), Lead::Sync)
            .1
    }

    /// [`sync`](Self::sync) for a caller that already holds the commit
    /// lock — everything it queued under that hold is covered — leading
    /// as `lead` (`Sync` or `Quiesce`). Returns the guard it ends with
    /// and the verdict. On `Ok` under `Sync`, everything queued when the
    /// call came in is fsynced: it leads rounds only until then, not
    /// until producers pause. Under `Quiesce` nothing is queued, nothing
    /// unsynced and no round in flight — for good, until the guard is
    /// dropped — and no periodic snapshot is being written.
    fn sync_locked<'a>(
        &'a self,
        mut state: MutexGuard<'a, CommitState>,
        lead: Lead,
    ) -> (MutexGuard<'a, CommitState>, io::Result<()>) {
        // Rounds that failed with nobody waiting on them count too.
        let failed_before = state.failed_reported;
        let upto = state.seq_enqueued;
        loop {
            // A round someone else led may have covered a `Sync`, even
            // with a later one in flight.
            let covered = lead == Lead::Sync && state.seq_synced >= upto;
            let blocked = !covered
                && (state.writing
                    || match lead {
                        Lead::Quiesce => state.snapshotting,
                        _ => state.quiescers > 0,
                    });
            if blocked {
                state = self.commit_cv.wait(state).expect("commit lock");
                continue;
            }
            let drained = state.queue.is_empty() && state.unsynced_records == 0;
            let result = if covered || drained {
                // Nothing left may also mean a round failed and dropped
                // what was queued.
                if state.seq_failed == failed_before {
                    return (state, Ok(()));
                }
                Err(io::Error::other("a commit round failed before this sync"))
            } else {
                let (s, result) = self.drain_as_leader(state, lead, true);
                state = s;
                result
            };
            if result.is_err() {
                state.failed_reported = state.seq_failed;
                return (state, result);
            }
        }
    }

    /// Take the log for oneself: drained, fsynced, no round and no
    /// snapshot in flight, and the commit lock held — what compaction and
    /// an explicit snapshot start from. Leaders yield to a quiescer after
    /// the round they are in, and its own round keeps the lock through
    /// the I/O, so this ends however fast the producers are.
    fn quiesce(&self) -> io::Result<MutexGuard<'_, CommitState>> {
        let mut state = self.commit.lock().expect("commit lock");
        state.quiescers += 1;
        let (mut state, result) = self.sync_locked(state, Lead::Quiesce);
        state.quiescers -= 1;
        self.commit_cv.notify_all();
        result.map(|()| state)
    }

    /// Force an index snapshot now; see [`LogStore::snapshot`].
    fn snapshot(&self) -> io::Result<()> {
        let mut state = self.quiesce()?;
        self.write_snapshot(&mut state)
    }

    // ---- write path ------------------------------------------------------

    /// Queue one record at the head, encoding it straight into the run
    /// buffer the leader writes from (`reserve` as in
    /// [`CommitState::place_record`]). Commit lock held.
    fn enqueue(
        &self,
        state: &mut CommitState,
        rec: Rec,
        tag: u8,
        payload: &[u8],
        reserve: usize,
    ) -> Loc {
        let rec_len = REC_OVERHEAD + payload.len();
        let hash = match rec {
            Rec::Chunk(cid) => cid,
            Rec::Root(cid) => root_hash(&cid),
        };
        let (loc, buf) = state.place_record(self.cfg.segment_bytes, rec, rec_len, reserve);
        write_record(buf, tag, payload, &hash);
        state.seq_enqueued += 1;
        state.bytes_since_snapshot += rec_len as u64;
        if state.oldest_unsynced.is_none() {
            state.oldest_unsynced = Some(Instant::now());
        }
        loc
    }

    /// Queue a chunk the index does not hold and publish it to readers:
    /// pending first, then index, so a reader that sees the index entry
    /// always finds the bytes somewhere. Commit lock held.
    fn enqueue_chunk(&self, state: &mut CommitState, chunk: Chunk, reserve: usize) {
        let (cid, bytes) = (chunk.cid(), chunk.len() as u64);
        let loc = self.enqueue(
            state,
            Rec::Chunk(cid),
            chunk.ty() as u8,
            chunk.payload(),
            reserve,
        );
        self.pending.write().insert(cid, chunk);
        self.index.write().insert(cid, loc);
        self.stats.record_store(bytes);
    }

    /// The chunk, then its root record, then one forced drain; see
    /// [`LogStore::sync_root`].
    fn sync_root(&self, root: Chunk) -> io::Result<()> {
        let cid = root.cid();
        let mut state = self.commit.lock().expect("commit lock");
        if self.index.read().contains_key(&cid) {
            self.stats.record_dedup(root.len() as u64);
        } else {
            let reserve = 2 * REC_OVERHEAD + root.len() + 32;
            self.enqueue_chunk(&mut state, root, reserve);
        }
        let rec_len = REC_OVERHEAD + 32;
        self.enqueue(
            &mut state,
            Rec::Root(cid),
            ROOT_TAG,
            cid.as_bytes(),
            rec_len,
        );
        self.sync_locked(state, Lead::Sync).1
    }

    /// Under `Always`, `Deduplicated` is as strong an acknowledgement as
    /// `Stored` — if the racing put that owns the record is still in
    /// flight (its chunk sits in the pending map until its commit round
    /// fsyncs), wait for that round before acknowledging. In every other
    /// mode dedup acknowledges immediately, like `Stored` does.
    fn await_dedup_durable(&self, cid: &Digest) {
        if matches!(self.durability, Durability::Always) && self.pending.read().contains_key(cid) {
            // Errors poison the store and are counted; the dedup reply
            // itself stays infallible like the rest of the trait.
            let _ = self.sync();
        }
    }

    /// Is there a backlog, and should a round fsync it now?
    fn wants_sync(&self, state: &CommitState, force: bool) -> bool {
        let outstanding = state.unsynced_records + state.queue_records;
        outstanding > 0
            && (force
                || match self.durability {
                    Durability::Always => true,
                    Durability::Batch {
                        max_records,
                        interval,
                    } => {
                        outstanding >= max_records
                            || state
                                .oldest_unsynced
                                .is_some_and(|t| t.elapsed() >= interval)
                    }
                    Durability::Os => false,
                })
    }

    /// Is the backlog the writer thread's to drain now: a `Batch` window
    /// is full or old, the queue holds enough to hand to the OS, or a
    /// large `put_many` is to be written ahead.
    fn backlog_due(&self, state: &CommitState) -> bool {
        self.wants_sync(state, false) || state.queue_bytes >= QUEUE_HIGH_WATER || state.write_ahead
    }

    /// What a put owes once its records, the last of them `my_seq`, are
    /// queued. Under `Always`: wait until a round has fsynced them,
    /// leading it when nobody else is. Otherwise nothing that touches the
    /// file: signal the writer thread when the backlog is due, and wait
    /// for it only while the queue is at its bound.
    fn settle_put<'a>(&'a self, mut state: MutexGuard<'a, CommitState>, my_seq: u64) {
        match self.durability {
            Durability::Always => loop {
                if state.seq_synced >= my_seq || state.seq_failed >= my_seq {
                    // Either durable, or dropped by a failed round (the
                    // poisoned flag and io_errors report the latter).
                    break;
                }
                if state.writing || state.quiescers > 0 {
                    state = self.commit_cv.wait(state).expect("commit lock");
                    continue;
                }
                let (s, result) = self.drain_as_leader(state, Lead::Policy, true);
                state = s;
                if result.is_err() {
                    break; // poisoned flag + io_errors already recorded
                }
            },
            Durability::Batch { .. } | Durability::Os => loop {
                // A leader at work looks at the backlog again before it
                // finishes; only an idle log needs the signal.
                if !state.writing && self.backlog_due(&state) {
                    self.wake_writer(&mut state);
                }
                if state.queue_bytes < QUEUE_BOUND {
                    break;
                }
                state = self.commit_cv.wait(state).expect("commit lock");
            },
        }
    }

    /// Group-commit leader: while a round is due, take the whole queue,
    /// release the commit lock, write (rotating segment files as needed)
    /// and optionally fsync, then re-lock and publish. Waiters blocked in
    /// `put(Always)` are woken once their sequence is synced, putters held
    /// at the queue bound once the queue is taken. `caller` says whose
    /// thread this is, for the round counters ([`LogStore::caller_rounds`]
    /// and the rest). Returns the re-acquired guard and the I/O verdict.
    fn drain_as_leader<'a>(
        &'a self,
        mut state: MutexGuard<'a, CommitState>,
        lead: Lead,
        caller: bool,
    ) -> (MutexGuard<'a, CommitState>, io::Result<()>) {
        state.writing = true;
        let mut verdict = Ok(());
        loop {
            // Lead while a round is due, not while the queue is
            // non-empty: a writer thread that chased every record its
            // producers add meanwhile would never stop.
            let do_sync = self.wants_sync(&state, lead != Lead::Policy);
            if !do_sync && !self.backlog_due(&state) {
                break;
            }
            // Whoever waits to quiesce the log takes it from here.
            if state.quiescers > 0 && lead != Lead::Quiesce {
                break;
            }
            // The writer handle can be absent after a failed repair; one
            // reopen attempt, then give up cleanly.
            if state.file.is_none() {
                let (seg, off) = (state.file_seg, state.written_off);
                let reopened = open_rw(&segment_path(&self.dir, seg)).and_then(|mut f| {
                    f.seek(SeekFrom::Start(off))?;
                    Ok(f)
                });
                match reopened {
                    Ok(f) => state.file = Some(f),
                    Err(e) => {
                        verdict = Err(e);
                        break;
                    }
                }
            }
            let runs = std::mem::take(&mut state.queue);
            state.queue_bytes = 0;
            state.queue_records = 0;
            state.write_ahead = false;
            let seq_hi = state.seq_enqueued;
            if caller {
                self.caller_rounds.fetch_add(1, Ordering::Relaxed);
            }
            let mut file = state.file.take().expect("writer file present");
            let mut file_seg = state.file_seg;
            let mut written_off = state.written_off;
            // Where this round started — error recovery truncates back
            // to here.
            let start_seg = file_seg;
            let start_off = written_off;
            let dir_dirty_before = state.dir_dirty;
            let mut created_segment = false;
            let held = (lead == Lead::Quiesce).then_some(state);

            let (mut write_ns, mut fsync_ns) = (0, 0);

            // ---- commit lock released (unless quiescing): the I/O ------
            let io: io::Result<Option<(u32, u64)>> = (|| {
                for run in &runs {
                    if run.seg != file_seg {
                        // In every round, sync or not: no byte of a
                        // segment may reach the disk before the one it
                        // follows is whole there, or recovery — which
                        // cannot tell a segment that lost its tail from
                        // one that was left early — would accept a root
                        // record whose predecessors are gone.
                        let t = Instant::now();
                        self.fsync(&file)?;
                        fsync_ns += ns_since(t);
                        file = open_rw(&segment_path(&self.dir, run.seg))?;
                        file_seg = run.seg;
                        written_off = 0;
                        created_segment = true;
                    }
                    let t = Instant::now();
                    file.write_all(&run.bytes)?;
                    write_ns += ns_since(t);
                    written_off += run.bytes.len() as u64;
                }
                if do_sync {
                    let t = Instant::now();
                    self.fsync(&file)?;
                    // Data is durable; now persist the dirents of any
                    // segment files created since the last dir fsync.
                    if created_segment || dir_dirty_before {
                        self.fsync_dir();
                    }
                    fsync_ns += ns_since(t);
                    Ok(Some((file_seg, written_off)))
                } else {
                    // Start the writeback of what this round wrote to the
                    // file it ends in (a segment it left is fsynced), so
                    // the fsync that later covers it waits for the tail.
                    let from = if file_seg == start_seg { start_off } else { 0 };
                    if written_off > from && start_writeback(&file, from, written_off - from) {
                        self.writeback_starts.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(None)
                }
            })();
            let mut written_root = None;
            if io.is_ok() {
                // Written chunks are now readable via positioned reads;
                // drop them from the pending map.
                let mut pending = self.pending.write();
                for (rec, _) in runs.iter().flat_map(|run| &run.recs) {
                    match rec {
                        Rec::Chunk(cid) => drop(pending.remove(cid)),
                        Rec::Root(cid) => written_root = Some(*cid),
                    }
                }
            }

            // ---- re-locked: publish ------------------------------------
            state = held.unwrap_or_else(|| self.commit.lock().expect("commit lock"));
            match io {
                Ok(synced_to) => {
                    let bytes: u64 = runs.iter().map(|r| r.bytes.len() as u64).sum();
                    if caller {
                        self.caller_bytes.fetch_add(bytes, Ordering::Relaxed);
                        self.caller_write_ns.fetch_add(write_ns, Ordering::Relaxed);
                        self.caller_fsync_ns.fetch_add(fsync_ns, Ordering::Relaxed);
                    } else {
                        self.writer_bytes.fetch_add(bytes, Ordering::Relaxed);
                    }
                    state.file = Some(file);
                    state.file_seg = file_seg;
                    state.written_off = written_off;
                    state.unsynced_records += runs.iter().map(|r| r.recs.len()).sum::<usize>();
                    if written_root.is_some() {
                        state.unsynced_root = written_root;
                    }
                    if let Some((seg, off)) = synced_to {
                        if state.unsynced_root.is_some() {
                            state.root = state.unsynced_root.take();
                        }
                        state.seq_synced = seq_hi;
                        state.unsynced_records = 0;
                        state.dir_dirty = false;
                        // Records enqueued while the lock was released are
                        // not covered by this fsync; restart their clock.
                        state.oldest_unsynced = (state.queue_records > 0).then(Instant::now);
                        state.synced_seg = seg;
                        state.synced_off = off;
                        if state.bytes_since_snapshot >= self.cfg.snapshot_bytes {
                            self.wake_writer(&mut state);
                        }
                    } else {
                        state.dir_dirty = dir_dirty_before || created_segment;
                    }
                    self.commit_cv.notify_all();
                    // A sync is owed everything queued when it came in —
                    // this round took it all — and no more: what producers
                    // queued meanwhile is the writer thread's.
                    if lead == Lead::Sync {
                        break;
                    }
                }
                Err(e) => {
                    self.rollback_failed_round(&mut state, runs, seq_hi, start_seg, start_off);
                    verdict = Err(e);
                    break;
                }
            }
        }
        state.writing = false;
        self.commit_cv.notify_all();
        if verdict.is_err() {
            self.poisoned.store(true, Ordering::Relaxed);
            self.stats.record_io_error();
        } else if caller && self.durability != Durability::Always && self.backlog_due(&state) {
            // Puts that arrived while this caller's round was in flight
            // did not signal the writer thread; it takes them from here.
            self.wake_writer(&mut state);
        }
        (state, verdict)
    }

    /// A commit round failed mid-I/O: the taken `runs` may be partially
    /// (or torn) on disk and the logical head has advanced past them.
    /// Restore consistency by rolling the store back to the position the
    /// round started at: the failed records are dropped from the index
    /// and pending map (their puts are reported via `seq_failed`, the
    /// poisoned flag and `io_errors`), records still in the queue are
    /// re-located against the rewound head, the started segment is
    /// truncated back, and segments created by the failed round are
    /// deleted. Commit lock held; `state.file` is absent (the leader
    /// took it).
    fn rollback_failed_round(
        &self,
        state: &mut CommitState,
        runs: Vec<PendingRun>,
        seq_hi: u64,
        start_seg: u32,
        start_off: u64,
    ) {
        state.seq_failed = state.seq_failed.max(seq_hi);
        {
            let mut index = self.index.write();
            let mut pending = self.pending.write();
            for (rec, _) in runs.iter().flat_map(|run| &run.recs) {
                if let Rec::Chunk(cid) = rec {
                    index.remove(cid);
                    pending.remove(cid);
                }
            }
            // Re-locate the records that arrived while the failed round
            // was in flight: their locations assumed the dropped bytes.
            let stale_queue = std::mem::take(&mut state.queue);
            state.queue_bytes = 0;
            state.queue_records = 0;
            state.head_seg = start_seg;
            state.head_off = start_off;
            for run in stale_queue {
                let mut pos = 0usize;
                for (rec, len) in run.recs {
                    let len = len as usize;
                    // seq numbers and clocks were assigned at the
                    // original enqueue; only the placement is redone.
                    let (loc, buf) = state.place_record(self.cfg.segment_bytes, rec, len, len);
                    buf.extend_from_slice(&run.bytes[pos..pos + len]);
                    pos += len;
                    if let Rec::Chunk(cid) = rec {
                        index.insert(cid, loc);
                    }
                }
            }
        }
        // Repair the files: drop the round's partial bytes and delete
        // any segments the failed round created. Best effort — the
        // poisoned flag is already latched, and reopen's cid-checked
        // scan truncates whatever garbage remains.
        let max_touched = runs
            .iter()
            .map(|r| r.seg)
            .max()
            .unwrap_or(start_seg)
            .max(state.head_seg);
        for seg in (start_seg + 1)..=max_touched.max(start_seg + 1) {
            std::fs::remove_file(segment_path(&self.dir, seg)).ok();
            self.readers.write().remove(&seg);
        }
        state.file_seg = start_seg;
        state.written_off = start_off;
        state.file = match open_rw(&segment_path(&self.dir, start_seg)) {
            Ok(mut file) => {
                file.set_len(start_off).ok();
                file.seek(SeekFrom::Start(start_off)).ok();
                Some(file)
            }
            // A later drain re-attempts the open and errors cleanly.
            Err(_) => None,
        };
        self.commit_cv.notify_all();
    }

    /// Serialize the index up to the synced position. Entries past it are
    /// excluded — a crash must never leave the snapshot ahead of the
    /// data. Commit lock held; resets the snapshot clock.
    fn encode_snapshot(&self, state: &mut CommitState) -> Vec<u8> {
        let (seg, off) = (state.synced_seg, state.synced_off);
        let index = self.index.read();
        let mut buf = Vec::with_capacity(SNAP_HEADER + 8 + index.len() * 48);
        buf.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        buf.extend_from_slice(&seg.to_le_bytes());
        buf.extend_from_slice(&off.to_le_bytes());
        let covered: Vec<(&Digest, &Loc)> = index
            .iter()
            .filter(|(_, l)| (l.seg, l.off) < (seg, off))
            .collect();
        buf.extend_from_slice(&(covered.len() as u64).to_le_bytes());
        // `root` only ever names a record before the synced position.
        buf.extend_from_slice(state.root.unwrap_or(Digest::ZERO).as_bytes());
        for (cid, loc) in covered {
            buf.extend_from_slice(cid.as_bytes());
            buf.extend_from_slice(&loc.seg.to_le_bytes());
            buf.extend_from_slice(&loc.off.to_le_bytes());
            buf.extend_from_slice(&loc.plen.to_le_bytes());
        }
        state.bytes_since_snapshot = 0;
        buf
    }

    /// Checksum an encoded snapshot and atomically replace
    /// `snapshot.idx` with it. One caller at a time (the temporary's name
    /// is fixed): the commit lock or the `snapshotting` flag.
    fn store_snapshot(&self, mut buf: Vec<u8>) -> io::Result<()> {
        let check = fx64(&buf);
        buf.extend_from_slice(&check.to_le_bytes());
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            self.fsync(&f)?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Make the rename durable.
        self.fsync_dir();
        Ok(())
    }

    /// Snapshot with the commit lock held throughout — for callers that
    /// have quiesced the log ([`quiesce`](Self::quiesce), close).
    fn write_snapshot(&self, state: &mut CommitState) -> io::Result<()> {
        let buf = self.encode_snapshot(state);
        self.store_snapshot(buf)
    }

    /// The writer thread's snapshot: encoded under the lock, written with
    /// the lock released. What it covers stays valid meanwhile — the log
    /// before the synced position changes only under compaction, which
    /// waits for `snapshotting` to clear. A failure poisons the store and
    /// the next attempt comes `snapshot_bytes` later.
    fn periodic_snapshot<'a>(
        &'a self,
        mut state: MutexGuard<'a, CommitState>,
    ) -> MutexGuard<'a, CommitState> {
        let buf = self.encode_snapshot(&mut state);
        state.snapshotting = true;
        drop(state);
        if self.store_snapshot(buf).is_err() {
            self.poisoned.store(true, Ordering::Relaxed);
            self.stats.record_io_error();
        }
        let mut state = self.commit.lock().expect("commit lock");
        state.snapshotting = false;
        self.commit_cv.notify_all();
        state
    }

    // ---- read path -------------------------------------------------------

    fn reader(&self, seg: u32) -> io::Result<Arc<File>> {
        if let Some(f) = self.readers.read().get(&seg) {
            return Ok(f.clone());
        }
        let f = Arc::new(File::open(segment_path(&self.dir, seg))?);
        Ok(self.readers.write().entry(seg).or_insert(f).clone())
    }

    /// Read the records of `run` — `(i, loc)`: the record of `cids[i]`;
    /// same segment, ascending, each starting where the one before ends —
    /// with one positioned read into `scratch`, and hand `each` every `i`
    /// with its chunk, or why there is none. Every payload is copied
    /// once, into the `Bytes` its chunk owns (a chunk the cache keeps must
    /// not pin the run), and its cid recomputed and compared. A failed
    /// read fails every record of the run; a bad tag or a cid mismatch
    /// only its own.
    fn read_run(
        &self,
        scratch: &mut Vec<u8>,
        cids: &[Digest],
        run: &[(usize, Loc)],
        mut each: impl FnMut(usize, io::Result<Chunk>),
    ) {
        let (first, last) = (run[0].1, run[run.len() - 1].1);
        // From the first record's type tag to the last one's payload end.
        let base = first.off + 8;
        let len = (last.off + 9 + last.plen as u64 - base) as usize;
        if scratch.len() < len {
            scratch.resize(len, 0);
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        let read = self
            .reader(first.seg)
            .and_then(|file| file.read_exact_at(&mut scratch[..len], base));
        if let Err(e) = read {
            for &(i, _) in run {
                each(i, Err(io::Error::new(e.kind(), e.to_string())));
            }
            return;
        }
        for &(i, loc) in run {
            let cid = cids[i];
            let at = (loc.off + 8 - base) as usize;
            let payload = &scratch[at + 1..at + 1 + loc.plen as usize];
            let chunk = match ChunkType::from_u8(scratch[at]) {
                Some(ty) => Ok(Chunk::new(ty, Bytes::copy_from_slice(payload))),
                None => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad chunk type tag on disk",
                )),
            };
            each(
                i,
                chunk.and_then(|chunk| {
                    if chunk.cid() == cid {
                        Ok(chunk)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("cid mismatch reading {}", cid.short_hex()),
                        ))
                    }
                }),
            );
        }
    }

    /// One record: a run of one.
    fn read_record(&self, cid: &Digest, loc: Loc) -> io::Result<Chunk> {
        let mut out = None;
        self.read_run(&mut Vec::new(), &[*cid], &[(0, loc)], |_, chunk| {
            out = Some(chunk)
        });
        out.expect("one record, one result")
    }

    /// Latch the poisoned flag and count a failed read. Only the first
    /// failure is printed — `io_errors` carries the running count, and a
    /// library must not flood stderr on every retried get.
    fn note_read_error(&self, err: &io::Error) {
        let first = !self.poisoned.swap(true, Ordering::Relaxed);
        self.stats.record_io_error();
        if first {
            eprintln!("forkbase-chunk: LogStore read error (store poisoned): {err}");
        }
    }

    // ---- compaction ------------------------------------------------------

    /// In-place compaction body; see [`LogStore::compact_retain`].
    fn compact_retain(&self, live: &FxHashSet<Digest>) -> io::Result<CompactStats> {
        // Quiesce the write path — drained, fsynced, no round and no
        // snapshot in flight — and keep that one hold of the commit lock
        // to the end, so nothing lands mid-compaction.
        let mut state = self.quiesce()?;

        let old_index: Vec<(Digest, Loc)> =
            self.index.read().iter().map(|(c, l)| (*c, *l)).collect();
        let mut old_segs: Vec<u32> = old_index.iter().map(|(_, l)| l.seg).collect();
        old_segs.push(state.head_seg);
        old_segs.sort_unstable();
        old_segs.dedup();

        let mut stats = CompactStats::default();
        let mut new_index: FxHashMap<Digest, Loc> = FxHashMap::default();
        let mut seg = state.head_seg + 1;
        let mut off = 0u64;
        let mut file = open_rw(&segment_path(&self.dir, seg))?;
        let mut rec = Vec::new();
        // Append the record in `rec` to the fresh segments, rotating as
        // the commit path does, and return where it landed.
        let mut append = |rec: &[u8]| -> io::Result<(u32, u64)> {
            if off > 0 && off + rec.len() as u64 > self.cfg.segment_bytes {
                self.fsync(&file)?;
                seg += 1;
                off = 0;
                file = open_rw(&segment_path(&self.dir, seg))?;
            }
            file.write_all(rec)?;
            let at = (seg, off);
            off += rec.len() as u64;
            Ok(at)
        };
        for (cid, loc) in &old_index {
            if !live.contains(cid) {
                stats.dropped_chunks += 1;
                stats.dropped_bytes += loc.plen as u64;
                continue;
            }
            let chunk = match self.read_record(cid, *loc) {
                Ok(c) => c,
                Err(e) => {
                    self.note_read_error(&e);
                    return Err(e);
                }
            };
            rec.clear();
            write_record(&mut rec, chunk.ty() as u8, chunk.payload(), cid);
            let (seg, off) = append(&rec)?;
            let plen = loc.plen;
            new_index.insert(*cid, Loc { seg, off, plen });
            stats.kept_chunks += 1;
            stats.kept_bytes += loc.plen as u64;
        }
        // The root goes where its chunk goes, behind every live chunk as
        // in the old log: once the old segments are gone, a reopen
        // recovers it from the fresh ones.
        let root = state.root.filter(|root| new_index.contains_key(root));
        if let Some(root) = root {
            rec.clear();
            write_record(&mut rec, ROOT_TAG, root.as_bytes(), &root_hash(&root));
            append(&rec)?;
        }
        self.fsync(&file)?;
        // Persist the fresh segments' dirents before the old segments
        // (the only other copy of the data) are deleted.
        self.fsync_dir();

        // Publish: swap the index, repoint the writer at the new tail,
        // then delete old segments (open handles stay valid on unix).
        *self.index.write() = new_index;
        state.head_seg = seg;
        state.head_off = off;
        state.file = Some(file);
        state.file_seg = seg;
        state.written_off = off;
        state.unsynced_records = 0;
        state.dir_dirty = false;
        state.oldest_unsynced = None;
        state.synced_seg = seg;
        state.synced_off = off;
        state.root = root;
        self.stats
            .stored_chunks
            .store(stats.kept_chunks, Ordering::Relaxed);
        self.stats
            .stored_bytes
            .store(stats.kept_bytes, Ordering::Relaxed);
        for old in &old_segs {
            std::fs::remove_file(segment_path(&self.dir, *old)).ok();
            self.readers.write().remove(old);
        }
        stats.segments_removed = old_segs.len();
        self.write_snapshot(&mut state)?;
        Ok(stats)
    }

    // ---- ChunkStore bodies (called through the LogStore facade) ----------

    fn get(&self, cid: &Digest) -> Option<Chunk> {
        let loc = self.index.read().get(cid).copied();
        let found = match loc {
            Some(loc) => {
                if let Some(chunk) = self.pending.read().get(cid).cloned() {
                    Some(chunk)
                } else {
                    match self.read_record(cid, loc) {
                        Ok(chunk) => Some(chunk),
                        Err(e) => {
                            self.note_read_error(&e);
                            None
                        }
                    }
                }
            }
            None => None,
        };
        self.stats.record_get(found.is_some());
        found
    }

    /// Batched get: all locations are resolved under **one** index
    /// read-lock acquisition, all still-queued chunks under one
    /// pending-map acquisition, and the rest — sorted by log position —
    /// with one positioned read per run of adjacent records.
    /// Equivalent to mapping [`get`](Self::get), including per-request
    /// stats.
    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        let mut out: Vec<Option<Chunk>> = vec![None; cids.len()];
        // (position in `cids`, where on disk) of every miss.
        let mut disk: Vec<(usize, Loc)> = {
            let index = self.index.read();
            cids.iter()
                .enumerate()
                .filter_map(|(i, cid)| Some((i, *index.get(cid)?)))
                .collect()
        };
        {
            let pending = self.pending.read();
            disk.retain(|&(i, _)| match pending.get(&cids[i]) {
                Some(chunk) => {
                    out[i] = Some(chunk.clone());
                    false
                }
                None => true,
            });
        }
        disk.sort_unstable_by_key(|&(_, loc)| (loc.seg, loc.off));
        let mut scratch = Vec::new();
        let mut rest = disk.as_slice();
        while let Some(&(_, first)) = rest.first() {
            // The run: records that each start where the one before ends.
            let mut n = 1;
            while let Some(&(_, next)) = rest.get(n) {
                let adjacent = next.seg == first.seg && next.off == rest[n - 1].1.end();
                if !adjacent || next.end() - first.off > RUN_MAX_BYTES {
                    break;
                }
                n += 1;
            }
            let (run, tail) = rest.split_at(n);
            rest = tail;
            self.read_run(&mut scratch, cids, run, |i, chunk| match chunk {
                Ok(chunk) => out[i] = Some(chunk),
                Err(e) => self.note_read_error(&e),
            });
        }
        for found in &out {
            self.stats.record_get(found.is_some());
        }
        out
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        let cid = chunk.cid();
        let bytes = chunk.len() as u64;
        // Dedup fast path without the commit lock.
        if self.index.read().contains_key(&cid) {
            self.await_dedup_durable(&cid);
            self.stats.record_dedup(bytes);
            return PutOutcome::Deduplicated;
        }

        let mut state = self.commit.lock().expect("commit lock");
        // Re-check: a racing put may have landed before we got the lock.
        if self.index.read().contains_key(&cid) {
            drop(state);
            self.await_dedup_durable(&cid);
            self.stats.record_dedup(bytes);
            return PutOutcome::Deduplicated;
        }
        self.enqueue_chunk(&mut state, chunk, REC_OVERHEAD + bytes as usize);
        let my_seq = state.seq_enqueued;
        self.settle_put(state, my_seq);
        PutOutcome::Stored
    }

    /// Batched put: the whole batch is enqueued under **one** commit-lock
    /// acquisition — each new chunk's record encoded once, straight from
    /// its payload into the run buffer the leader writes from — and
    /// acknowledged by **one** group-commit round: under `Always` the
    /// batch pays a single fsync instead of one per chunk. Under `Batch`
    /// and `Os` a batch of at least [`WRITE_AHEAD_BYTES`] wakes the writer
    /// thread to write it and start its writeback. Outcomes match
    /// mapping [`put`](Self::put), including within-batch duplicate cids
    /// (later occurrences deduplicate).
    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        let mut out = vec![PutOutcome::Deduplicated; chunks.len()];
        // Dedup fast path without the commit lock. `fresh` keeps
        // candidate inserts in batch order.
        let mut fresh: Vec<(usize, Chunk)> = Vec::with_capacity(chunks.len());
        let mut dedup: Vec<(usize, Digest, u64)> = Vec::new();
        {
            let index = self.index.read();
            for (i, chunk) in chunks.into_iter().enumerate() {
                if index.contains_key(&chunk.cid()) {
                    dedup.push((i, chunk.cid(), chunk.len() as u64));
                } else {
                    fresh.push((i, chunk));
                }
            }
        }
        if !fresh.is_empty() {
            let mut state = self.commit.lock().expect("commit lock");
            {
                // Re-check under the lock (racing puts, or the same cid
                // twice within this batch).
                let index = self.index.read();
                let mut seen: FxHashSet<Digest> = FxHashSet::default();
                fresh.retain(|(i, chunk)| {
                    let cid = chunk.cid();
                    let new = !index.contains_key(&cid) && seen.insert(cid);
                    if !new {
                        dedup.push((*i, cid, chunk.len() as u64));
                    }
                    new
                });
            }
            // Publish pending before index, so readers that see the
            // entry always find the bytes.
            {
                let mut pending = self.pending.write();
                for (_, chunk) in &fresh {
                    pending.insert(chunk.cid(), chunk.clone());
                }
            }
            let queued: usize = fresh.iter().map(|(_, c)| REC_OVERHEAD + c.len()).sum();
            let mut remaining = queued;
            let locs: Vec<Loc> = fresh
                .iter()
                .map(|(_, chunk)| {
                    let rec = Rec::Chunk(chunk.cid());
                    let loc = self.enqueue(
                        &mut state,
                        rec,
                        chunk.ty() as u8,
                        chunk.payload(),
                        remaining,
                    );
                    remaining -= REC_OVERHEAD + chunk.len();
                    loc
                })
                .collect();
            {
                let mut index = self.index.write();
                for ((i, chunk), loc) in fresh.into_iter().zip(locs) {
                    index.insert(chunk.cid(), loc);
                    self.stats.record_store(chunk.len() as u64);
                    out[i] = PutOutcome::Stored;
                }
            }
            if queued >= WRITE_AHEAD_BYTES && self.durability != Durability::Always {
                state.write_ahead = true;
            }
            let my_seq = state.seq_enqueued;
            self.settle_put(state, my_seq);
        }
        for (i, cid, bytes) in dedup {
            self.await_dedup_durable(&cid);
            self.stats.record_dedup(bytes);
            out[i] = PutOutcome::Deduplicated;
        }
        out
    }
}

/// What a reopen rebuilds from the snapshot and the log behind it.
#[derive(Default)]
struct Recovered {
    index: FxHashMap<Digest, Loc>,
    /// The cid named by the last root record met.
    root: Option<Digest>,
    stats: StatCounters,
    reopen: ReopenStats,
}

/// Scan segment `seg` from `start`, adding every intact chunk record to
/// `rec.index` and noting every intact root record in `rec.root`.
/// Returns where the intact prefix ends. Streams through `scratch`:
/// memory is bounded by the largest single record, not the log size.
fn scan_segment(
    file: &File,
    seg: u32,
    start: u64,
    rec: &mut Recovered,
    scratch: &mut Vec<u8>,
) -> io::Result<u64> {
    let len = file.metadata()?.len();
    let mut pos = start;
    let mut header = [0u8; 9];
    while len.saturating_sub(pos) >= REC_OVERHEAD as u64 {
        file.read_exact_at(&mut header, pos)?;
        rec.reopen.bytes_scanned += header.len() as u64;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            break;
        }
        let plen = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let rec_len = (REC_OVERHEAD + plen) as u64;
        if len - pos < rec_len {
            break; // torn tail
        }
        let tag = header[8];
        if ChunkType::from_u8(tag).is_none() && !(tag == ROOT_TAG && plen == 32) {
            break;
        }
        scratch.resize(plen + 32, 0);
        file.read_exact_at(scratch, pos + 9)?;
        rec.reopen.bytes_scanned += (plen + 32) as u64;
        let Some(stored_hash) = Digest::from_slice(&scratch[plen..]) else {
            break;
        };
        if forkbase_crypto::hash_parts(&[&[tag], &scratch[..plen]]) != stored_hash {
            break; // corruption: stop at the last intact prefix
        }
        if tag == ROOT_TAG {
            rec.root = Digest::from_slice(&scratch[..plen]);
        } else {
            let loc = Loc {
                seg,
                off: pos,
                plen: plen as u32,
            };
            if rec.index.insert(stored_hash, loc).is_none() {
                rec.stats.record_store(plen as u64);
            }
            rec.reopen.replayed_chunks += 1;
        }
        pos += rec_len;
    }
    Ok(pos)
}

/// A parsed snapshot file: the index and root up to a covered position.
struct Snapshot {
    index: FxHashMap<Digest, Loc>,
    root: Option<Digest>,
    seg: u32,
    off: u64,
}

/// Parse and checksum-validate a snapshot file. `None` when missing,
/// invalid or of another [`SNAP_VERSION`].
fn read_snapshot(path: &Path) -> Option<Snapshot> {
    let buf = std::fs::read(path).ok()?;
    if buf.len() < SNAP_HEADER + 8 {
        return None;
    }
    let (body, check) = buf.split_at(buf.len() - 8);
    if fx64(body) != u64::from_le_bytes(check.try_into().ok()?) {
        return None;
    }
    let magic = u32::from_le_bytes(body[0..4].try_into().ok()?);
    let version = u32::from_le_bytes(body[4..8].try_into().ok()?);
    if magic != SNAP_MAGIC || version != SNAP_VERSION {
        return None;
    }
    let seg = u32::from_le_bytes(body[8..12].try_into().ok()?);
    let off = u64::from_le_bytes(body[12..20].try_into().ok()?);
    let count = u64::from_le_bytes(body[20..28].try_into().ok()?) as usize;
    let root = Digest::from_slice(&body[28..SNAP_HEADER]).filter(|r| *r != Digest::ZERO);
    if count.checked_mul(48) != Some(body.len() - SNAP_HEADER) {
        return None;
    }
    let mut index = FxHashMap::default();
    for entry in body[SNAP_HEADER..].chunks_exact(48) {
        let cid = Digest::from_slice(&entry[..32])?;
        let loc = Loc {
            seg: u32::from_le_bytes(entry[32..36].try_into().ok()?),
            off: u64::from_le_bytes(entry[36..44].try_into().ok()?),
            plen: u32::from_le_bytes(entry[44..48].try_into().ok()?),
        };
        index.insert(cid, loc);
    }
    Some(Snapshot {
        index,
        root,
        seg,
        off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "forkbase-logstore-{}-{}-{}",
            tag,
            std::process::id(),
            n
        ))
    }

    fn tiny_cfg() -> LogConfig {
        LogConfig {
            segment_bytes: 4096,
            snapshot_bytes: u64::MAX, // only explicit / close snapshots
        }
    }

    /// The record format written out longhand, one `Vec` per chunk — what
    /// the write path did before it encoded into the run buffer, kept as
    /// the reference its bytes are compared with.
    fn encode_record(chunk: &Chunk) -> Vec<u8> {
        let mut rec = Vec::with_capacity(REC_OVERHEAD + chunk.len());
        rec.extend_from_slice(&MAGIC.to_le_bytes());
        rec.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        rec.push(chunk.ty() as u8);
        rec.extend_from_slice(chunk.payload());
        rec.extend_from_slice(chunk.cid().as_bytes());
        rec
    }

    fn checkpoint_chunk(i: u32) -> Chunk {
        Chunk::new(ChunkType::Checkpoint, i.to_le_bytes().to_vec())
    }

    #[test]
    fn put_many_writes_the_reference_encoding() {
        let dir = temp_dir("golden-bytes");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Os).expect("open");
        // Every chunk type, empty and multi-KB payloads, a duplicate in
        // the batch and one already stored, across a segment rotation.
        let pre = Chunk::new(ChunkType::Meta, &b"stored before the batch"[..]);
        store.put(pre.clone());
        let types = [
            ChunkType::Meta,
            ChunkType::UIndex,
            ChunkType::SIndex,
            ChunkType::Blob,
            ChunkType::List,
            ChunkType::Set,
            ChunkType::Map,
            ChunkType::Checkpoint,
        ];
        let mut batch: Vec<Chunk> = types
            .iter()
            .enumerate()
            .map(|(i, ty)| Chunk::new(*ty, vec![i as u8; [0, 1, 700, 3000][i % 4]]))
            .collect();
        batch.insert(3, pre.clone());
        batch.push(batch[2].clone());
        store.put_many(batch.clone());
        let root = checkpoint_chunk(7);
        store.sync_root(root.clone()).expect("sync_root");

        // What the log must hold: each distinct chunk once in batch
        // order, rotated by the placement rule, then the root record.
        let mut want: Vec<Vec<u8>> = vec![Vec::new()];
        let mut distinct = vec![pre];
        for chunk in batch.into_iter().chain([root.clone()]) {
            if !distinct.contains(&chunk) {
                distinct.push(chunk);
            }
        }
        let mut root_rec = Vec::new();
        write_record(
            &mut root_rec,
            ROOT_TAG,
            root.cid().as_bytes(),
            &root_hash(&root.cid()),
        );
        for rec in distinct.iter().map(encode_record).chain([root_rec]) {
            let seg = want.last_mut().expect("a segment");
            if !seg.is_empty() && seg.len() + rec.len() > 4096 {
                want.push(rec);
            } else {
                seg.extend_from_slice(&rec);
            }
        }
        assert!(want.len() > 1, "the batch crossed a rotation");
        for (seg, bytes) in want.iter().enumerate() {
            let got = std::fs::read(segment_path(&dir, seg as u32)).expect("segment");
            assert_eq!(&got, bytes, "segment {seg}");
        }
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sync_root_is_one_round_in_every_mode() {
        let batch = Durability::Batch {
            max_records: 1_000_000,
            interval: Duration::from_secs(3600),
        };
        for durability in [Durability::Always, batch, Durability::Os] {
            let dir = temp_dir("root-round");
            let store = LogStore::open_with(&dir, tiny_cfg(), durability).expect("open");
            assert_eq!(store.root(), None);
            let bytes_before = store.stats().stored_bytes;
            if durability != Durability::Always {
                store.put(Chunk::new(ChunkType::Blob, &b"queued ahead"[..]));
                assert_eq!(store.pending_unsynced(), 1);
            }
            let fsyncs = store.fsync_count();
            let root = checkpoint_chunk(1);
            store.sync_root(root.clone()).expect("sync_root");
            assert_eq!(
                store.fsync_count() - fsyncs,
                1,
                "{durability:?}: the chunk, its root record and the backlog share one fsync"
            );
            assert_eq!(store.pending_unsynced(), 0);
            assert_eq!(store.root(), Some(root.cid()));
            assert_eq!(store.get(&root.cid()), Some(root.clone()));
            // A root record is not a chunk.
            let queued = if durability == Durability::Always {
                0
            } else {
                12
            };
            assert_eq!(store.stats().stored_bytes - bytes_before, queued + 4);
            assert_eq!(store.chunk_count(), if queued == 0 { 1 } else { 2 });
            // Naming a chunk the store holds appends only the record.
            store.sync_root(root.clone()).expect("again");
            assert_eq!(store.fsync_count() - fsyncs, 2);
            assert_eq!(store.stats().stored_bytes - bytes_before, queued + 4);
            std::mem::forget(store); // crash: no close-time snapshot
            let store = LogStore::open_with(&dir, tiny_cfg(), durability).expect("reopen");
            assert_eq!(store.root(), Some(root.cid()), "{durability:?}");
            assert_eq!(
                store.reopen_stats().replayed_chunks,
                store.chunk_count() as u64
            );
            drop(store);
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn put_get_round_trip() {
        let dir = temp_dir("rt");
        let store = LogStore::open(&dir).expect("open");
        let chunk = Chunk::new(ChunkType::Blob, &b"persistent payload"[..]);
        assert_eq!(store.put(chunk.clone()), PutOutcome::Stored);
        assert_eq!(store.get(&chunk.cid()), Some(chunk));
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn put_many_batch_commits_and_dedups() {
        let dir = temp_dir("putmany");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
        let pre = Chunk::new(ChunkType::Blob, &b"already stored"[..]);
        store.put(pre.clone());

        // One batch mixing fresh chunks, a chunk already in the store,
        // and an in-batch duplicate pair.
        let fresh: Vec<Chunk> = (0..8u32)
            .map(|i| Chunk::new(ChunkType::Map, i.to_le_bytes().to_vec()))
            .collect();
        let dup = Chunk::new(ChunkType::Blob, &b"twice in one batch"[..]);
        let mut batch = fresh.clone();
        batch.push(pre.clone());
        batch.push(dup.clone());
        batch.push(dup.clone());
        let outcomes = store.put_many(batch);

        assert_eq!(outcomes.len(), 11);
        assert!(outcomes[..8].iter().all(|o| *o == PutOutcome::Stored));
        assert_eq!(outcomes[8], PutOutcome::Deduplicated, "pre-existing cid");
        assert_eq!(outcomes[9], PutOutcome::Stored, "first copy in batch");
        assert_eq!(outcomes[10], PutOutcome::Deduplicated, "second copy");
        assert_eq!(store.chunk_count(), 10);

        // Everything in the batch is durable: reopen and re-read.
        drop(store);
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        for chunk in fresh.iter().chain([&pre, &dup]) {
            assert_eq!(store.get(&chunk.cid()), Some(chunk.clone()));
        }
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn put_many_empty_batch_is_a_no_op() {
        let dir = temp_dir("putmany-empty");
        let store = LogStore::open(&dir).expect("open");
        assert!(store.put_many(Vec::new()).is_empty());
        assert_eq!(store.chunk_count(), 0);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_recovers_index_across_segments() {
        let dir = temp_dir("reopen");
        let mut cids = Vec::new();
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            for i in 0..50u32 {
                let chunk = Chunk::new(ChunkType::Map, vec![i as u8; 200]);
                cids.push((i, chunk.cid()));
                store.put(chunk);
            }
        }
        // 50 × ~241-byte records over 4 KiB segments ⇒ several segments.
        let segs = std::fs::read_dir(&dir)
            .expect("ls")
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("seg-")
            })
            .count();
        assert!(segs > 1, "expected rotation, got {segs} segment(s)");

        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        assert_eq!(store.chunk_count(), 50);
        for (i, cid) in &cids {
            let chunk = store.get(cid).expect("recovered");
            assert_eq!(chunk.payload().as_ref(), vec![*i as u8; 200]);
        }
        assert_eq!(store.stats().stored_chunks, 50);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = temp_dir("torn");
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            for i in 0..10u32 {
                store.put(Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()));
            }
        }
        // Crash mid-append: garbage half-record at the tail of the last
        // segment.
        let last_seg = std::fs::read_dir(&dir)
            .expect("ls")
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("seg-").then_some(p)
            })
            .max()
            .expect("segments");
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(&last_seg)
                .expect("open raw");
            f.write_all(&MAGIC.to_le_bytes()).expect("write");
            f.write_all(&100u32.to_le_bytes()).expect("write");
            f.write_all(&[3, 1, 2, 3]).expect("write"); // truncated payload
        }
        // Delete the snapshot so recovery actually re-scans the tail.
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).ok();
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("recover");
        assert_eq!(store.chunk_count(), 10, "intact records survive");
        let chunk = Chunk::new(ChunkType::Blob, &b"after crash"[..]);
        store.put(chunk.clone());
        assert_eq!(store.get(&chunk.cid()), Some(chunk));
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_record_detected() {
        let dir = temp_dir("corrupt");
        let cid0;
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            let c = Chunk::new(ChunkType::Blob, &b"AAAA"[..]);
            cid0 = c.cid();
            store.put(c);
            for i in 0..5u32 {
                store.put(Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()));
            }
        }
        // Flip a payload byte of the first record of the first segment.
        {
            let path = segment_path(&dir, 0);
            let mut data = std::fs::read(&path).expect("read");
            data[9] ^= 0xFF;
            std::fs::write(&path, data).expect("write");
        }
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).ok();
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("recover");
        // Recovery stops at the corrupt record: everything from it on is
        // discarded; the store never serves tampered bytes.
        assert_eq!(store.chunk_count(), 0);
        assert_eq!(store.get(&cid0), None);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dedup_across_reopen() {
        let dir = temp_dir("dedup");
        let chunk = Chunk::new(ChunkType::Blob, &b"dup"[..]);
        {
            let store = LogStore::open(&dir).expect("open");
            assert_eq!(store.put(chunk.clone()), PutOutcome::Stored);
        }
        let store = LogStore::open(&dir).expect("reopen");
        assert_eq!(store.put(chunk), PutOutcome::Deduplicated);
        assert_eq!(store.chunk_count(), 1);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = temp_dir("snap");
        let mut cids = Vec::new();
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            for i in 0..30u32 {
                let c = Chunk::new(ChunkType::Blob, vec![i as u8; 150]);
                cids.push(c.cid());
                store.put(c);
            }
            let root = checkpoint_chunk(30);
            cids.push(root.cid());
            store.sync_root(root).expect("sync_root");
            store.snapshot().expect("snapshot");
        }
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        let stats = store.reopen_stats();
        assert!(stats.used_snapshot);
        assert_eq!(
            (stats.snapshot_chunks, stats.replayed_chunks),
            (31, 0),
            "all chunks from the snapshot, nothing replayed: {stats:?}"
        );
        assert_eq!(stats.bytes_scanned, 0);
        assert_eq!(
            store.root(),
            cids.last().copied(),
            "the snapshot carries the root"
        );
        for cid in &cids {
            assert!(store.get(cid).is_some());
        }
        drop(store);

        // A version-1 file (no root field, entries right behind the
        // count) must be discarded, not read with the first entry's cid
        // taken for the root.
        let path = dir.join(SNAPSHOT_FILE);
        let v2 = std::fs::read(&path).expect("snapshot");
        let mut v1 = v2[..28].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[SNAP_HEADER..v2.len() - 8]);
        let check = fx64(&v1);
        v1.extend_from_slice(&check.to_le_bytes());
        std::fs::write(&path, v1).expect("write v1");
        assert!(read_snapshot(&path).is_none());
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen v1");
        let stats = store.reopen_stats();
        assert!(!stats.used_snapshot, "{stats:?}");
        assert_eq!(stats.replayed_chunks, 31, "the log was rescanned");
        assert_eq!(
            store.root(),
            cids.last().copied(),
            "and the root found in it"
        );
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn os_durability_reads_own_writes() {
        let dir = temp_dir("os");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Os).expect("open");
        let mut cids = Vec::new();
        for i in 0..100u32 {
            let c = Chunk::new(ChunkType::List, vec![i as u8; 64]);
            cids.push(c.cid());
            store.put(c);
        }
        // Queued chunks are readable before any flush.
        for cid in &cids {
            assert!(store.get(cid).is_some(), "read-your-writes");
        }
        store.sync().expect("sync");
        for cid in &cids {
            assert!(store.get(cid).is_some());
        }
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_segment_is_fsynced_before_the_writer_leaves_it() {
        // Os durability + tiny segments: the writer thread's high-water
        // drains are rounds that owe nobody an fsync, and rotate through
        // hundreds of segments. Each must be durable before the next gets
        // a byte (recovery trusts a later segment only because of that),
        // so whoever leads fsyncs once per rotation, and the closing
        // sync() once more.
        let dir = temp_dir("dirty-rot");
        let cfg = LogConfig {
            segment_bytes: 4096,
            snapshot_bytes: u64::MAX,
        };
        let store = LogStore::open_with(&dir, cfg, Durability::Os).expect("open");
        let mut cids = Vec::new();
        // ~1.6 MiB of records: crosses the 1 MiB queue high-water (a
        // non-sync drain over hundreds of segment rotations, on the
        // writer thread) and leaves a tail for sync().
        for i in 0..400u32 {
            let mut payload = vec![(i % 251) as u8; 4000];
            payload[..4].copy_from_slice(&i.to_le_bytes());
            let c = Chunk::new(ChunkType::Blob, payload);
            cids.push(c.cid());
            store.put(c);
        }
        store.sync().expect("sync");
        let segs = std::fs::read_dir(&dir).expect("ls").count() as u64;
        assert_eq!(store.fsync_count(), segs + 1, "segments + their directory");
        store.snapshot().expect("snapshot");
        drop(store);
        let store = LogStore::open_with(&dir, cfg, Durability::Os).expect("reopen");
        assert!(store.reopen_stats().used_snapshot);
        for cid in &cids {
            assert!(store.get(cid).is_some(), "all records durable");
        }
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A putter that finds `QUEUE_BOUND` queued waits for the writer
    /// thread and goes on once a round has taken the queue. The test
    /// stands in for a leader stuck on a slow disk by setting `writing`
    /// itself, so the writer leads nothing until it says so, and the
    /// putter's state is read off the commit lock, not guessed from a
    /// clock.
    #[test]
    fn a_putter_held_at_the_queue_bound_resumes_when_the_writer_drains() {
        let dir = temp_dir("bound");
        let store = LogStore::open_with(&dir, LogConfig::default(), Durability::Os).expect("open");
        store.inner.commit.lock().expect("commit lock").writing = true;
        let chunks: Vec<Chunk> = (0..12u32)
            .map(|i| {
                let mut payload = vec![i as u8; 1 << 20];
                payload[..4].copy_from_slice(&i.to_le_bytes());
                Chunk::new(ChunkType::Blob, payload)
            })
            .collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (i, chunk) in chunks.iter().enumerate() {
                    store.put(chunk.clone());
                    done_tx.send(i).expect("receiver alive");
                }
            });
            // The eighth MiB reaches the bound. Its putter holds the
            // commit lock from the enqueue to its wait, so once the queue
            // is seen this full under the lock, that putter is parked.
            while store.inner.commit.lock().expect("commit lock").queue_bytes < QUEUE_BOUND {
                std::thread::yield_now();
            }
            let returned: Vec<usize> = done_rx.try_iter().collect();
            let queued = store.pending_unsynced();
            {
                let mut state = store.inner.commit.lock().expect("commit lock");
                state.writing = false;
                store.inner.commit_cv.notify_all();
            }
            assert_eq!(returned, (0..7).collect::<Vec<_>>(), "the eighth is held");
            assert_eq!(queued, 8);
            for i in 7..12 {
                let done = done_rx.recv_timeout(Duration::from_secs(30));
                assert_eq!(done, Ok(i), "the held putter never resumed");
            }
        });
        assert_eq!(store.caller_rounds(), 0, "every round was the writer's");
        store.sync().expect("sync");
        for chunk in &chunks {
            assert_eq!(store.get(&chunk.cid()).as_ref(), Some(chunk));
        }
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compact_retain_drops_dead_chunks_and_reclaims_segments() {
        let dir = temp_dir("compact");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
        let mut live = FxHashSet::default();
        let mut dead = Vec::new();
        for i in 0..40u32 {
            let c = Chunk::new(ChunkType::Blob, vec![i as u8; 180]);
            if i % 2 == 0 {
                live.insert(c.cid());
            } else {
                dead.push(c.cid());
            }
            store.put(c);
        }
        let root = checkpoint_chunk(40);
        live.insert(root.cid());
        store.sync_root(root.clone()).expect("sync_root");
        let before = store.stats().stored_bytes;
        let report = store.compact_retain(&live).expect("compact");
        assert_eq!(store.root(), Some(root.cid()));
        assert_eq!(report.kept_chunks, 21);
        assert_eq!(report.dropped_chunks, 20);
        assert!(report.segments_removed > 1);
        assert!(store.stats().stored_bytes < before);
        for cid in &live {
            assert!(store.get(cid).is_some(), "live chunk survives");
        }
        for cid in &dead {
            assert!(store.get(cid).is_none(), "dead chunk gone");
        }
        assert!(!store.poisoned());
        // Still appendable, and the compacted state survives reopen.
        let extra = Chunk::new(ChunkType::Blob, &b"post-compaction"[..]);
        store.put(extra.clone());
        // Crash right there: the root must come from the fresh segments
        // alone (no close-time snapshot, and the one compaction wrote is
        // removed below so the log itself is what is scanned).
        std::mem::forget(store);
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).expect("compaction's snapshot");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        assert_eq!(store.chunk_count(), 22);
        assert_eq!(store.get(&extra.cid()), Some(extra.clone()));
        assert_eq!(store.root(), Some(root.cid()), "compaction re-appended it");

        // A compaction that drops the root's chunk drops the root too.
        live.remove(&root.cid());
        live.insert(extra.cid());
        store.compact_retain(&live).expect("compact again");
        assert_eq!(store.root(), None);
        drop(store);
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        assert_eq!(store.root(), None);
        assert_eq!(store.chunk_count(), 21);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_errors_poison_not_swallowed() {
        let dir = temp_dir("poison");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
        let chunk = Chunk::new(ChunkType::Blob, vec![7u8; 100]);
        store.put(chunk.clone());
        // Sabotage: delete the segment before any read handle is opened.
        std::fs::remove_file(segment_path(&dir, 0)).expect("rm");
        assert_eq!(store.get(&chunk.cid()), None, "unreadable reports absent");
        assert!(store.poisoned(), "but the failure is latched");
        assert_eq!(store.stats().io_errors, 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
