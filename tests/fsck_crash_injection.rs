//! Crash injection against the WAL, gated by the integrity verifier:
//! take a store that "crashed" with a dirty log, then truncate or
//! bit-flip the log at and around every record boundary. Every mutation
//! must lead to one of exactly two outcomes — recovery succeeds and a
//! deep fsck reports zero errors, or the open fails with a clean error.
//! Never a panic, never a silently inconsistent store.

use perftrack::PTDataStore;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-fsckcrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DOC: &str = "\
Application A
Execution e1 A
Resource /m grid
Resource /m/n0 grid/machine
Resource /r application
PerfResult e1 /r(primary) T m 1.5 u
PerfResult e1 /m/n0(primary) T m2 2.5 u
";

/// Results in `DOC`.
const FIRST_LOAD_RESULTS: usize = 2;

/// Results in the second load: enough that the `performance_result`
/// and `result_has_focus` runs each fill their table's last page and go
/// on in a new one, so the log holds an `AllocPage` record between two
/// `Insert` records of one table.
const SECOND_LOAD_RESULTS: usize = 400;

/// Build a store directory whose WAL still holds live records, as after
/// a crash: load, checkpoint, load again, then forget without dropping.
fn crashed_fixture(dir: &Path) {
    let store = PTDataStore::open(dir).unwrap();
    store.load_ptdf_str(DOC).unwrap();
    store.checkpoint().unwrap();
    let mut second = String::from("Execution e2 A\n");
    for i in 0..SECOND_LOAD_RESULTS {
        second.push_str(&format!("PerfResult e2 /r(primary) T m {i}.5 u\n"));
    }
    store.load_ptdf_str(&second).unwrap();
    std::mem::forget(store);
}

const K_INSERT: u8 = 1;
const K_COMMIT: u8 = 4;
const K_ALLOC: u8 = 7;

/// The kind byte and table id of each record between `bounds`: a body
/// is `lsn u64 | txn u64 | kind u8 | table u32 | ...` (no table for
/// `Commit`, `Abort` and `Checkpoint`, read as 0).
fn kinds_and_tables(wal: &[u8], bounds: &[usize]) -> Vec<(u8, u32)> {
    let record = |w: &[usize]| {
        let body = &wal[w[0] + 8..w[1]];
        let table = body
            .get(17..21)
            .map_or(0, |b| u32::from_be_bytes(b.try_into().unwrap()));
        (body[16], table)
    };
    bounds.windows(2).map(record).collect()
}

/// Indexes into `bounds` of the `AllocPage` records that sit inside one
/// table's run of inserts: the record before and the record after are
/// both `Insert`s into the table the page was allocated for.
fn mid_run_allocs(wal: &[u8], bounds: &[usize]) -> Vec<usize> {
    let kinds = kinds_and_tables(wal, bounds);
    (1..kinds.len().saturating_sub(1))
        .filter(|&i| {
            let (kind, table) = kinds[i];
            kind == K_ALLOC
                && kinds[i - 1] == (K_INSERT, table)
                && kinds[i + 1] == (K_INSERT, table)
        })
        .collect()
}

/// Parse the WAL framing (`len u32 | crc u32 | body`) into the byte
/// offsets where each record starts, plus the end offset.
fn record_boundaries(wal: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0usize];
    let mut pos = 0usize;
    while pos + 8 <= wal.len() {
        let len = u32::from_be_bytes([wal[pos], wal[pos + 1], wal[pos + 2], wal[pos + 3]]) as usize;
        if pos + 8 + len > wal.len() {
            break;
        }
        pos += 8 + len;
        offsets.push(pos);
    }
    offsets
}

/// Restore a pristine copy of the fixture into `trial`, with `wal` as
/// the (possibly mutated) log contents.
fn restore(pristine: &Path, trial: &Path, wal: &[u8]) {
    let _ = std::fs::remove_dir_all(trial);
    std::fs::create_dir_all(trial).unwrap();
    for entry in std::fs::read_dir(pristine).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), trial.join(entry.file_name())).unwrap();
    }
    std::fs::write(trial.join("wal.log"), wal).unwrap();
}

/// Open the mutated store. Success must come with a clean deep fsck and
/// the result count of a committed prefix: the first load's, or both
/// loads'. Failure must be a clean error. Returns the result count when
/// the store recovered.
fn open_and_verify(trial: &Path, what: &str) -> Option<usize> {
    match PTDataStore::open(trial) {
        Ok(store) => {
            let report = store.fsck(true).unwrap();
            assert_eq!(
                report.error_count(),
                0,
                "{what}: recovered store fails fsck: {}",
                report.summary()
            );
            let results = store.result_count().unwrap();
            assert!(
                results == FIRST_LOAD_RESULTS
                    || results == FIRST_LOAD_RESULTS + SECOND_LOAD_RESULTS,
                "{what}: {results} results is no committed prefix"
            );
            Some(results)
        }
        Err(e) => {
            assert!(!e.to_string().is_empty(), "{what}: empty error");
            None
        }
    }
}

#[test]
fn wal_truncation_at_every_boundary_recovers_or_rejects_cleanly() {
    let pristine = tmpdir("trunc-pristine");
    crashed_fixture(&pristine);
    let wal = std::fs::read(pristine.join("wal.log")).unwrap();
    assert!(!wal.is_empty(), "fixture must carry a dirty WAL");
    let bounds = record_boundaries(&wal);
    assert!(bounds.len() > 2, "fixture must carry several records");

    let trial = tmpdir("trunc-trial");
    let mut recovered = 0usize;
    // Cut exactly at each record boundary, and ragged cuts just past it
    // (mid-header and mid-body) — a torn tail in three flavours.
    let mut cuts: Vec<usize> = Vec::new();
    for &b in &bounds {
        cuts.push(b);
        cuts.push((b + 3).min(wal.len()));
        cuts.push((b + 11).min(wal.len()));
    }
    cuts.sort_unstable();
    cuts.dedup();
    // Keep the run bounded: sample evenly up to 30 cuts, plus every cut
    // that ends the log inside a run: just before a mid-run page
    // allocation, just after it, and one insert into the new page.
    let step = (cuts.len() / 30).max(1);
    let mut sampled: Vec<usize> = cuts.iter().step_by(step).copied().collect();
    let allocs = mid_run_allocs(&wal, &bounds);
    assert!(!allocs.is_empty(), "fixture must allocate a page mid-run");
    for i in allocs {
        sampled.extend([bounds[i], bounds[i + 1], bounds[i + 2]]);
    }
    sampled.sort_unstable();
    sampled.dedup();
    // The second load's commit is the log's last record.
    let commit_end = *bounds.last().unwrap();
    assert_eq!(kinds_and_tables(&wal, &bounds).last().unwrap().0, K_COMMIT);
    for cut in &sampled {
        restore(&pristine, &trial, &wal[..*cut]);
        let what = format!("truncate at {cut}");
        if let Some(results) = open_and_verify(&trial, &what) {
            let committed = *cut >= commit_end;
            let want = FIRST_LOAD_RESULTS + if committed { SECOND_LOAD_RESULTS } else { 0 };
            assert_eq!(
                results, want,
                "{what}: the second load's commit ends at {commit_end}"
            );
            recovered += 1;
        }
    }
    assert!(recovered > 0, "no truncation point recovered at all");
    std::fs::remove_dir_all(&pristine).ok();
    std::fs::remove_dir_all(&trial).ok();
}

#[test]
fn wal_bitflips_at_record_boundaries_recover_or_reject_cleanly() {
    let pristine = tmpdir("flip-pristine");
    crashed_fixture(&pristine);
    let wal = std::fs::read(pristine.join("wal.log")).unwrap();
    let bounds = record_boundaries(&wal);
    assert!(bounds.len() > 2);

    let trial = tmpdir("flip-trial");
    // Flip a bit in the length word, the checksum, and the body of each
    // record (sampled to keep the run bounded).
    let mut targets: Vec<usize> = Vec::new();
    for &b in &bounds {
        for delta in [0usize, 5, 9] {
            if b + delta < wal.len() {
                targets.push(b + delta);
            }
        }
    }
    targets.sort_unstable();
    targets.dedup();
    let step = (targets.len() / 30).max(1);
    for byte in targets.iter().step_by(step) {
        let mut mutated = wal.clone();
        mutated[*byte] ^= 0x40;
        restore(&pristine, &trial, &mutated);
        open_and_verify(&trial, &format!("bit-flip at byte {byte}"));
    }

    // Control: the unmutated fixture recovers and passes a deep fsck.
    restore(&pristine, &trial, &wal);
    assert_eq!(
        open_and_verify(&trial, "control"),
        Some(FIRST_LOAD_RESULTS + SECOND_LOAD_RESULTS)
    );
    std::fs::remove_dir_all(&pristine).ok();
    std::fs::remove_dir_all(&trial).ok();
}
