//! Write-ahead log.
//!
//! The engine uses *logical* (table-level) WAL: every row mutation appends
//! an `Insert`/`Update`/`Delete` record carrying the table id, the `RowId`
//! the mutation applied to, and the row images needed to redo it. `Commit`
//! seals a transaction; recovery redoes, in log order, exactly the
//! operations of transactions whose `Commit` record is present and intact.
//!
//! Durability protocol:
//! * operations are appended (buffered) as they execute;
//! * `Commit` forces the log to stable storage (`fsync`);
//! * a checkpoint flushes all dirty pages, truncates the log, and writes a
//!   `Checkpoint` record, so the log only ever describes changes newer than
//!   the page file.
//!
//! Each record is framed as `len | crc32 | payload`; a torn tail (partial
//! final record after a crash) fails the length or CRC check and cleanly
//! terminates the recovery scan.

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

use crate::error::{Result, StoreError};
use crate::metrics::{Counter, LatencyHistogram, WalStatsSnapshot};
use crate::page::RowId;
use crate::sync::{Level, Mutex};
use crate::vfs::{MemVfs, StdVfs, Vfs, VfsFile};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        table
    })
}

/// CRC-32 checksum of `data` (IEEE polynomial).
#[expect(
    clippy::indexing_slicing,
    reason = "index is masked to 0xFF and the table has 256 entries"
)]
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A redo-able row mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Row `row` (encoded) was inserted into `table` at `rowid`.
    Insert {
        /// Table id the row belongs to.
        table: u32,
        /// Where the row was placed.
        rowid: RowId,
        /// Encoded row image.
        row: Vec<u8>,
    },
    /// Row at `rowid` changed from `old` to `new`.
    Update {
        /// Table id the row belongs to.
        table: u32,
        /// Address of the updated row.
        rowid: RowId,
        /// Encoded row image before the update (undo).
        old: Vec<u8>,
        /// Encoded row image after the update (redo).
        new: Vec<u8>,
    },
    /// Row at `rowid` (encoded image `old`) was deleted.
    Delete {
        /// Table id the row belonged to.
        table: u32,
        /// Address the row occupied.
        rowid: RowId,
        /// Encoded row image before deletion (undo).
        old: Vec<u8>,
    },
    /// Page `page` was allocated for `table`'s heap. Page allocation is
    /// *not* transactional: recovery replays it regardless of commit state
    /// (an aborted transaction's pages simply remain empty heap pages).
    AllocPage {
        /// Table id whose heap grew.
        table: u32,
        /// The newly allocated page number.
        page: u32,
    },
}

/// Payload of one WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalPayload {
    /// A row mutation (redo information).
    Op(WalOp),
    /// Seals the transaction: its ops are durable once this record is.
    Commit,
    /// The transaction was rolled back; its ops must not be redone.
    Abort,
    /// All preceding records are reflected in the page file.
    Checkpoint,
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number (monotonically increasing, 1-based).
    pub lsn: u64,
    /// Id of the transaction that wrote the record (0 = non-transactional).
    pub txn: u64,
    /// The record payload.
    pub payload: WalPayload,
}

const K_INSERT: u8 = 1;
const K_UPDATE: u8 = 2;
const K_DELETE: u8 = 3;
const K_COMMIT: u8 = 4;
const K_ABORT: u8 = 5;
const K_CHECKPOINT: u8 = 6;
const K_ALLOC: u8 = 7;

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

fn encode_payload(lsn: u64, txn: u64, payload: &WalPayload, out: &mut Vec<u8>) {
    out.extend_from_slice(&lsn.to_be_bytes());
    out.extend_from_slice(&txn.to_be_bytes());
    match payload {
        WalPayload::Op(WalOp::Insert { table, rowid, row }) => {
            out.push(K_INSERT);
            out.extend_from_slice(&table.to_be_bytes());
            out.extend_from_slice(&rowid.to_u64().to_be_bytes());
            put_bytes(out, row);
        }
        WalPayload::Op(WalOp::Update {
            table,
            rowid,
            old,
            new,
        }) => {
            out.push(K_UPDATE);
            out.extend_from_slice(&table.to_be_bytes());
            out.extend_from_slice(&rowid.to_u64().to_be_bytes());
            put_bytes(out, old);
            put_bytes(out, new);
        }
        WalPayload::Op(WalOp::Delete { table, rowid, old }) => {
            out.push(K_DELETE);
            out.extend_from_slice(&table.to_be_bytes());
            out.extend_from_slice(&rowid.to_u64().to_be_bytes());
            put_bytes(out, old);
        }
        WalPayload::Op(WalOp::AllocPage { table, page }) => {
            out.push(K_ALLOC);
            out.extend_from_slice(&table.to_be_bytes());
            out.extend_from_slice(&page.to_be_bytes());
        }
        WalPayload::Commit => out.push(K_COMMIT),
        WalPayload::Abort => out.push(K_ABORT),
        WalPayload::Checkpoint => out.push(K_CHECKPOINT),
    }
}

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated() -> StoreError {
    StoreError::Corrupt("wal record truncated".into())
}

/// Big-endian `u32` at `off`, `None` if out of bounds. Panic-free by
/// construction, which is what the recovery scan needs: a torn or
/// corrupt tail ends the scan, it never aborts the process.
fn be_u32_at(buf: &[u8], off: usize) -> Option<u32> {
    let b: [u8; 4] = buf.get(off..off.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_be_bytes(b))
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(truncated)?;
        let s = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        self.take(1)?.first().copied().ok_or_else(truncated)
    }
    fn u32(&mut self) -> Result<u32> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| truncated())?;
        Ok(u32::from_be_bytes(b))
    }
    fn u64(&mut self) -> Result<u64> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| truncated())?;
        Ok(u64::from_be_bytes(b))
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
}

fn decode_payload(buf: &[u8]) -> Result<WalRecord> {
    let mut d = Decoder { buf, pos: 0 };
    let lsn = d.u64()?;
    let txn = d.u64()?;
    let kind = d.u8()?;
    let payload = match kind {
        K_INSERT => WalPayload::Op(WalOp::Insert {
            table: d.u32()?,
            rowid: RowId::from_u64(d.u64()?),
            row: d.bytes()?,
        }),
        K_UPDATE => WalPayload::Op(WalOp::Update {
            table: d.u32()?,
            rowid: RowId::from_u64(d.u64()?),
            old: d.bytes()?,
            new: d.bytes()?,
        }),
        K_DELETE => WalPayload::Op(WalOp::Delete {
            table: d.u32()?,
            rowid: RowId::from_u64(d.u64()?),
            old: d.bytes()?,
        }),
        K_ALLOC => WalPayload::Op(WalOp::AllocPage {
            table: d.u32()?,
            page: d.u32()?,
        }),
        K_COMMIT => WalPayload::Commit,
        K_ABORT => WalPayload::Abort,
        K_CHECKPOINT => WalPayload::Checkpoint,
        other => {
            return Err(StoreError::Corrupt(format!("bad wal record kind {other}")));
        }
    };
    Ok(WalRecord { lsn, txn, payload })
}

// ---------------------------------------------------------------------------
// Log file
// ---------------------------------------------------------------------------

struct WalInner {
    file: Arc<dyn VfsFile>,
    /// Write buffer: records accumulate here and reach the file on sync.
    pending: Vec<u8>,
    /// Length of the durably synced log prefix. Flushes always write at
    /// this offset, so a failed (possibly partial) flush is simply
    /// overwritten by the retry — sync is idempotent.
    durable_len: u64,
}

/// Observability counters for one [`Wal`].
#[derive(Debug, Default)]
struct WalStats {
    appends: Counter,
    append_bytes: Counter,
    syncs: Counter,
    sync_latency: LatencyHistogram,
}

/// Result of scanning the durable log: the intact record prefix plus the
/// byte accounting needed to detect a torn tail.
#[derive(Debug)]
pub struct WalScanReport {
    /// Every record in the intact prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of the log the intact prefix covers.
    pub consumed_bytes: u64,
    /// Total bytes in the durable log file.
    pub total_bytes: u64,
}

impl WalScanReport {
    /// Bytes past the last intact record (0 = clean end of log).
    pub fn torn_bytes(&self) -> u64 {
        self.total_bytes - self.consumed_bytes
    }
}

/// Append-only write-ahead log.
pub struct Wal {
    inner: Mutex<WalInner>,
    next_lsn: AtomicU64,
    stats: WalStats,
}

impl Wal {
    /// Log kept in memory (no durability; tests and ephemeral stores).
    #[expect(
        clippy::expect_used,
        reason = "MemVfs::open is infallible; no untrusted input reaches this"
    )]
    pub fn in_memory() -> Self {
        Self::open_with_vfs(&MemVfs::new(), Path::new("wal.mem"))
            .expect("in-memory log cannot fail to open")
    }

    /// Open (or create) a log file on the real filesystem.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_vfs(&StdVfs, path)
    }

    /// Open (or create) a log file through an explicit VFS. Existing
    /// contents are preserved for recovery; the next LSN continues after
    /// the last intact record.
    pub fn open_with_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        let file = vfs.open(path)?;
        let durable_len = file.len()?;
        let wal = Wal {
            inner: Mutex::new(
                Level::Wal,
                WalInner {
                    file,
                    pending: Vec::new(),
                    durable_len,
                },
            ),
            next_lsn: AtomicU64::new(1),
            stats: WalStats::default(),
        };
        let max_lsn = wal.read_all()?.iter().map(|r| r.lsn).max().unwrap_or(0);
        wal.next_lsn.store(max_lsn + 1, Ordering::Release);
        Ok(wal)
    }

    /// Append a record; returns its LSN. The record is buffered until
    /// [`Wal::sync`].
    pub fn append(&self, txn: u64, payload: &WalPayload) -> u64 {
        let lsn = self.next_lsn.fetch_add(1, Ordering::AcqRel);
        let mut body = Vec::with_capacity(64);
        encode_payload(lsn, txn, payload, &mut body);
        self.stats.appends.inc();
        self.stats.append_bytes.add(body.len() as u64);
        debug_assert!(
            matches!(
                decode_payload(&body),
                Ok(r) if r.lsn == lsn && r.txn == txn && &r.payload == payload
            ),
            "WAL encode/decode roundtrip broken for lsn {lsn}"
        );
        let mut inner = self.inner.lock();
        inner
            .pending
            .extend_from_slice(&(body.len() as u32).to_be_bytes());
        inner.pending.extend_from_slice(&crc32(&body).to_be_bytes());
        inner.pending.extend_from_slice(&body);
        lsn
    }

    /// Flush buffered records to the log file and fsync.
    ///
    /// Retry-safe: records are written at the durable-prefix offset, so
    /// a flush that failed part-way (short write, failed fsync) is fully
    /// rewritten by the next attempt instead of leaving a gap of garbage
    /// mid-log. Pending records are only discarded once the fsync
    /// succeeds.
    pub fn sync(&self) -> Result<()> {
        let start = std::time::Instant::now();
        let mut inner = self.inner.lock();
        if inner.pending.is_empty() {
            inner.file.sync()?;
            self.stats.syncs.inc();
            self.stats.sync_latency.record_duration(start.elapsed());
            return Ok(());
        }
        let off = inner.durable_len;
        let pending = std::mem::take(&mut inner.pending);
        let flushed = inner
            .file
            .write_at(off, &pending)
            .and_then(|()| inner.file.sync());
        match flushed {
            Ok(()) => inner.durable_len = off + pending.len() as u64,
            Err(e) => {
                // Put the records back; a later sync rewrites them at
                // the same offset.
                inner.pending = pending;
                return Err(e);
            }
        }
        drop(inner);
        self.stats.syncs.inc();
        self.stats.sync_latency.record_duration(start.elapsed());
        Ok(())
    }

    /// Snapshot of append/sync counters and fsync latency.
    pub fn stats(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            appends: self.stats.appends.get(),
            append_bytes: self.stats.append_bytes.get(),
            syncs: self.stats.syncs.get(),
            sync_latency: self.stats.sync_latency.snapshot(),
        }
    }

    /// Read every intact record from the start of the log. Scanning stops
    /// silently at the first torn or corrupt record (crash tail).
    pub fn read_all(&self) -> Result<Vec<WalRecord>> {
        Ok(self.scan_report()?.records)
    }

    /// Scan the durable log like [`Wal::read_all`], additionally reporting
    /// how many bytes the intact prefix covers so callers (the `fsck`
    /// verifier) can distinguish a clean end-of-log from a torn tail.
    /// Buffered-but-unsynced records are not visible, matching recovery.
    pub fn scan_report(&self) -> Result<WalScanReport> {
        let inner = self.inner.lock();
        let len = inner.file.len()?;
        let mut raw = vec![0u8; len as usize];
        if len > 0 {
            inner.file.read_at(0, &mut raw)?;
        }
        drop(inner);
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= raw.len() {
            let (Some(len), Some(crc)) = (be_u32_at(&raw, pos), be_u32_at(&raw, pos + 4)) else {
                break; // torn tail
            };
            let len = len as usize;
            if pos + 8 + len > raw.len() {
                break; // torn tail
            }
            let Some(body) = raw.get(pos + 8..pos + 8 + len) else {
                break; // torn tail
            };
            if crc32(body) != crc {
                break; // corrupt tail
            }
            match decode_payload(body) {
                Ok(r) => records.push(r),
                Err(_) => break,
            }
            pos += 8 + len;
        }
        Ok(WalScanReport {
            records,
            consumed_bytes: pos as u64,
            total_bytes: raw.len() as u64,
        })
    }

    /// Discard the entire log (used after a checkpoint has made its
    /// contents redundant) and start fresh.
    pub fn truncate(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.pending.clear();
        inner.file.truncate(0)?;
        inner.file.sync()?;
        inner.durable_len = 0;
        Ok(())
    }

    /// Byte length of the durable portion of the log.
    pub fn len(&self) -> Result<u64> {
        self.inner.lock().file.len()
    }

    /// True if the durable log is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests exercise the real-disk log on host scratch files"
)]
mod tests {
    use super::*;
    use crate::page::PageId;

    fn rid(p: u32, s: u16) -> RowId {
        RowId {
            page: PageId(p),
            slot: s,
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn append_sync_read_roundtrip() {
        let wal = Wal::in_memory();
        let ops = vec![
            WalPayload::Op(WalOp::Insert {
                table: 1,
                rowid: rid(0, 0),
                row: vec![1, 2, 3],
            }),
            WalPayload::Op(WalOp::Update {
                table: 1,
                rowid: rid(0, 0),
                old: vec![1, 2, 3],
                new: vec![4, 5],
            }),
            WalPayload::Op(WalOp::Delete {
                table: 2,
                rowid: rid(3, 7),
                old: vec![9],
            }),
            WalPayload::Op(WalOp::AllocPage { table: 1, page: 5 }),
            WalPayload::Commit,
        ];
        for p in &ops {
            wal.append(42, p);
        }
        wal.sync().unwrap();
        let recs = wal.read_all().unwrap();
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.txn, 42);
            assert_eq!(r.lsn, i as u64 + 1);
            assert_eq!(&r.payload, &ops[i]);
        }
    }

    #[test]
    fn unsynced_records_are_not_durable() {
        let wal = Wal::in_memory();
        wal.append(1, &WalPayload::Commit);
        assert!(wal.read_all().unwrap().is_empty(), "pending is volatile");
        wal.sync().unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 1);
    }

    #[test]
    fn torn_tail_stops_scan() {
        let dir = std::env::temp_dir().join(format!("ptstore-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(1, &WalPayload::Commit);
            wal.append(2, &WalPayload::Commit);
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let wal = Wal::open(&path).unwrap();
        let recs = wal.read_all().unwrap();
        assert_eq!(recs.len(), 1, "only the intact record survives");
        assert_eq!(recs[0].txn, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_report_accounts_for_torn_bytes() {
        let dir = std::env::temp_dir().join(format!("ptstore-walscan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(1, &WalPayload::Commit);
            wal.sync().unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let wal = Wal::open(&path).unwrap();
            let rep = wal.scan_report().unwrap();
            assert_eq!(rep.records.len(), 1);
            assert_eq!(rep.consumed_bytes, clean_len);
            assert_eq!(rep.torn_bytes(), 0);
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        std::fs::write(&path, &bytes).unwrap();
        let wal = Wal::open(&path).unwrap();
        let rep = wal.scan_report().unwrap();
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.consumed_bytes, clean_len);
        assert_eq!(rep.torn_bytes(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_scan() {
        let dir = std::env::temp_dir().join(format!("ptstore-walcrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crc.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(1, &WalPayload::Commit);
            wal.append(2, &WalPayload::Commit);
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a bit in the second record's body
        std::fs::write(&path, &bytes).unwrap();
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_continues_lsn_sequence() {
        let dir = std::env::temp_dir().join(format!("ptstore-wallsn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lsn.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(1, &WalPayload::Commit);
            wal.append(1, &WalPayload::Commit);
            wal.sync().unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        let lsn = wal.append(2, &WalPayload::Commit);
        assert_eq!(lsn, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_count_appends_and_syncs() {
        let wal = Wal::in_memory();
        wal.append(1, &WalPayload::Commit);
        wal.append(
            1,
            &WalPayload::Op(WalOp::Insert {
                table: 1,
                rowid: rid(0, 0),
                row: vec![1, 2, 3],
            }),
        );
        wal.sync().unwrap();
        let s = wal.stats();
        assert_eq!(s.appends, 2);
        assert!(s.append_bytes > 0);
        assert_eq!(s.syncs, 1);
        assert_eq!(s.sync_latency.count, 1);
    }

    #[test]
    fn failed_sync_is_retryable_without_corruption() {
        use crate::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs};
        let fv = FaultVfs::new(Arc::new(MemVfs::new()));
        // First flush attempt tears mid-write AND the fsync fails.
        fv.arm(FaultRule {
            trigger: FaultTrigger::NthWrite(0),
            kind: FaultKind::ShortWrite { keep: 5 },
            once: true,
        });
        let wal = Wal::open_with_vfs(&fv, Path::new("retry.wal")).unwrap();
        wal.append(1, &WalPayload::Commit);
        wal.append(2, &WalPayload::Commit);
        let err = wal.sync().unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // Retry rewrites the whole batch at the same offset: both
        // records intact, zero torn bytes.
        wal.sync().unwrap();
        let rep = wal.scan_report().unwrap();
        assert_eq!(rep.records.len(), 2);
        assert_eq!(rep.torn_bytes(), 0);
    }

    #[test]
    fn truncate_empties_log() {
        let wal = Wal::in_memory();
        wal.append(1, &WalPayload::Commit);
        wal.sync().unwrap();
        assert!(!wal.is_empty().unwrap());
        wal.truncate().unwrap();
        assert!(wal.is_empty().unwrap());
        assert!(wal.read_all().unwrap().is_empty());
    }
}
