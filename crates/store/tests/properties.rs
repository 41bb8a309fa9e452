//! Property tests for the storage engine's core invariants: row codec
//! round-trips, order-preserving key encoding, B+tree-vs-model
//! equivalence (random and append-heavy schedules), slotted-page
//! behaviour under random operation sequences,
//! and WAL recovery equivalence under simulated crashes. Cases are drawn
//! from a seeded generator; a failure prints the case seed that replays it.

use perftrack_store::btree::BTreeIndex;
use perftrack_store::page::{PageMut, PageRef, PageType, PAGE_SIZE};
use perftrack_store::value::{decode_row, encode_key_vec, encode_row_vec, Value};
use perftrack_workloads::rng::{check_cases, Rng};

fn arb_value(rng: &mut Rng) -> Value {
    match rng.gen_range(0..5) {
        0 => Value::Null,
        // The extremes are where an order-preserving encoding breaks.
        1 if rng.gen_bool(0.25) => Value::Int([i64::MIN, -1, 0, 1, i64::MAX][rng.gen_range(0..5)]),
        1 => Value::Int(rng.gen::<u64>() as i64),
        // Finite reals only: NaN breaks PartialEq-based comparison in the
        // roundtrip assertion (bit-exactness is covered by a unit test).
        2 => Value::Real(rng.gen_range(-1e12..1e12)),
        3 => {
            let printable: Vec<u8> = (b' '..=b'~').collect();
            Value::Text(rng.gen_string(&printable, 0..41))
        }
        _ => Value::Bool(rng.gen()),
    }
}

fn arb_row(rng: &mut Rng) -> Vec<Value> {
    (0..rng.gen_range(0..12)).map(|_| arb_value(rng)).collect()
}

fn arb_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    (0..rng.gen_range(0..max_len))
        .map(|_| rng.gen::<u64>() as u8)
        .collect()
}

/// One B+tree operation: insert or remove, a rowid below `rids`, and a
/// key of 1 to `max_len` letters from the first `letters` of the alphabet
/// (few distinct keys, so duplicates and removals of present entries are
/// common).
fn arb_tree_op(rng: &mut Rng, rids: u64, letters: usize, max_len: usize) -> (bool, u64, Vec<u8>) {
    let key = rng.gen_string(&b"abcdef"[..letters], 1..max_len + 1);
    (rng.gen(), rng.gen_range(0..rids), key.into_bytes())
}

#[test]
fn row_codec_roundtrips() {
    check_cases(0x5707_0100, 128, |rng| {
        let row = arb_row(rng);
        let enc = encode_row_vec(&row);
        assert_eq!(decode_row(&enc).unwrap(), row);
    });
}

#[test]
fn row_codec_rejects_truncation() {
    check_cases(0x5707_0200, 128, |rng| {
        let enc = encode_row_vec(&arb_row(rng));
        if enc.len() > 2 {
            // Any strict prefix longer than the header must fail to decode
            // or decode to something different — never panic.
            let cut = enc.len() - 1;
            let _ = decode_row(&enc[..cut]);
        }
    });
}

#[test]
fn key_encoding_preserves_order() {
    check_cases(0x5707_0300, 128, |rng| {
        // For rows of equal arity, byte order of encoded keys must equal
        // the lexicographic total_cmp order.
        let (a, b) = (arb_row(rng), arb_row(rng));
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let ka = encode_key_vec(a);
        let kb = encode_key_vec(b);
        let mut logical = std::cmp::Ordering::Equal;
        for (x, y) in a.iter().zip(b) {
            logical = x.total_cmp(y);
            if logical != std::cmp::Ordering::Equal {
                break;
            }
        }
        assert_eq!(ka.cmp(&kb), logical);
    });
}

#[test]
fn btree_matches_btreeset_model() {
    check_cases(0x5707_0400, 128, |rng| {
        let mut tree = BTreeIndex::new();
        let mut model = std::collections::BTreeSet::<(Vec<u8>, u64)>::new();
        for _ in 0..rng.gen_range(1..400) {
            let (is_insert, rid, kb) = arb_tree_op(rng, 40, 4, 3);
            if is_insert {
                if !model.contains(&(kb.clone(), rid)) {
                    tree.insert(&kb, rid);
                    model.insert((kb, rid));
                }
            } else {
                let a = tree.remove(&kb, rid);
                let b = model.remove(&(kb, rid));
                assert_eq!(a, b);
            }
        }
        assert_eq!(tree.len(), model.len());
        let mut flat = Vec::new();
        tree.for_range(
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
            |k, r| {
                flat.push((k.to_vec(), r));
                true
            },
        );
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(flat, expect);
    });
}

/// Schedules shaped like index maintenance: runs of ascending appends
/// (some repeating one key with ascending rowids, as a foreign key does),
/// random-key inserts that land inside the tree, and removes of present
/// and absent entries. After each case every read path agrees with a
/// `BTreeSet` oracle.
///
/// Key lengths run from 0 to 40 bytes, across the 22 bytes a tree holds
/// in place, so one leaf mixes keys held in place with keys on the heap:
/// appended key `n` is its group `n / 4` as a length byte and big-endian
/// digits, padded with 0x00 to a length below 22, one of exactly 22 and
/// one above it (the last two share their first 22 bytes), and random
/// inserts draw keys of 0 to 40 bytes over {0x00, 0x01, 0x02}.
#[test]
fn btree_appends_inserts_and_removes_match_oracle() {
    use std::collections::BTreeSet;
    use std::ops::Bound;
    let key = |n: u64| {
        let digits: Vec<u8> = (n / 4)
            .to_be_bytes()
            .into_iter()
            .skip_while(|&b| b == 0)
            .collect();
        let mut k = vec![digits.len() as u8];
        k.extend(digits);
        let (a, spread) = (
            k.len(),
            (n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize,
        );
        let len = match n % 4 {
            0 => a,
            1 => a + 1 + spread % (21 - a),
            2 => 22,
            _ => 23 + spread % 18,
        };
        k.resize(len, 0);
        k
    };
    let arb_key = |rng: &mut Rng| -> Vec<u8> {
        (0..rng.gen_range(0..41))
            .map(|_| rng.gen_range(0..3u8))
            .collect()
    };
    check_cases(0x5707_0900, 32, |rng| {
        let mut tree = BTreeIndex::new();
        let mut model = BTreeSet::<(Vec<u8>, u64)>::new();
        let (mut next_key, mut next_rid) = (0u64, 0u64);
        for _ in 0..rng.gen_range(1..40) {
            match rng.gen_range(0..4) {
                // Ascending appends: each key once, or repeated with
                // ascending rowids.
                0 | 1 => {
                    let repeat = if rng.gen_bool(0.5) {
                        1
                    } else {
                        rng.gen_range(2..20)
                    };
                    for _ in 0..rng.gen_range(1..120) {
                        for _ in 0..repeat {
                            // A random insert may already hold this pair.
                            if model.insert((key(next_key), next_rid)) {
                                tree.insert(&key(next_key), next_rid);
                            }
                            next_rid += 1;
                        }
                        next_key += rng.gen_range(1..3);
                    }
                }
                // Random keys below the right edge or of random bytes,
                // random rowids.
                2 => {
                    for _ in 0..rng.gen_range(1..60) {
                        let k = if rng.gen_bool(0.5) {
                            key(rng.gen_range(0..next_key + 1))
                        } else {
                            arb_key(rng)
                        };
                        let entry = (k, rng.gen_range(0..next_rid + 1));
                        if model.insert(entry.clone()) {
                            tree.insert(&entry.0, entry.1);
                        }
                    }
                }
                // Removes: present entries mostly, absent ones sometimes.
                _ => {
                    for _ in 0..rng.gen_range(1..60) {
                        let entry = match model.iter().nth(rng.gen_range(0..model.len() + 1)) {
                            Some(e) if rng.gen_bool(0.8) => e.clone(),
                            _ => (
                                key(rng.gen_range(0..next_key + 2)),
                                rng.gen_range(0..next_rid + 2),
                            ),
                        };
                        assert_eq!(tree.remove(&entry.0, entry.1), model.remove(&entry));
                    }
                }
            }
        }
        assert_eq!(tree.len(), model.len());
        let mut flat = Vec::new();
        tree.for_range(Bound::Unbounded, Bound::Unbounded, |k, r| {
            flat.push((k.to_vec(), r));
            true
        });
        assert!(
            flat.iter().eq(model.iter()),
            "full scan differs from the oracle"
        );
        // Probe keys: every appended key, one past the end, every key
        // in the tree, and a few random ones.
        let mut probes: Vec<Vec<u8>> = (0..next_key + 2).map(key).collect();
        probes.extend(model.iter().map(|(k, _)| k.clone()));
        probes.extend((0..8).map(|_| arb_key(rng)));
        probes.sort_unstable();
        probes.dedup();
        let expect_eq = |k: &[u8]| -> Vec<u64> {
            let span = (k.to_vec(), 0)..=(k.to_vec(), u64::MAX);
            model.range(span).map(|&(_, r)| r).collect()
        };
        for k in &probes {
            assert_eq!(tree.get_eq(k), expect_eq(k));
            assert_eq!(tree.contains_key(k), !expect_eq(k).is_empty());
        }
        let refs: Vec<&[u8]> = probes.iter().rev().map(Vec::as_slice).collect();
        let batch = tree.get_eq_batch(&refs);
        for (k, got) in refs.iter().zip(&batch) {
            assert_eq!(got, &expect_eq(k));
        }
        // A bounded range over random endpoints.
        let (a, b) = (
            key(rng.gen_range(0..next_key + 1)),
            key(rng.gen_range(0..next_key + 1)),
        );
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut ranged = Vec::new();
        tree.for_range(Bound::Included(&lo), Bound::Excluded(&hi), |k, r| {
            ranged.push((k.to_vec(), r));
            true
        });
        let expect: Vec<(Vec<u8>, u64)> = model.range((lo, 0)..(hi.clone(), 0)).cloned().collect();
        assert_eq!(ranged, expect);
        // The last entry within an upper bound.
        let last = |r: Option<&(Vec<u8>, u64)>| r.map(|&(_, rid)| rid);
        assert_eq!(tree.last_within(Bound::Unbounded), last(model.last()));
        assert_eq!(
            tree.last_within(Bound::Excluded(&hi)),
            last(model.range(..(hi.clone(), 0)).next_back())
        );
        assert_eq!(
            tree.last_within(Bound::Included(&hi)),
            last(model.range(..=(hi, u64::MAX)).next_back())
        );
    });
}

#[test]
fn page_random_ops_match_model() {
    check_cases(0x5707_0500, 128, |rng| {
        let mut buf = vec![0u8; PAGE_SIZE];
        PageMut::new(&mut buf).format(PageType::Heap);
        let mut model: Vec<Option<Vec<u8>>> = Vec::new(); // slot -> record
        for _ in 0..rng.gen_range(1..120) {
            let (kind, payload) = (rng.gen_range(0u8..3), arb_bytes(rng, 300));
            match kind {
                0 => {
                    // insert
                    let res = PageMut::new(&mut buf).insert(&payload);
                    if let Ok(slot) = res {
                        let slot = slot as usize;
                        if slot == model.len() {
                            model.push(Some(payload));
                        } else {
                            assert!(model[slot].is_none(), "insert reused a live slot");
                            model[slot] = Some(payload);
                        }
                    }
                }
                1 => {
                    // delete lowest live slot
                    if let Some(slot) = model.iter().position(Option::is_some) {
                        PageMut::new(&mut buf).delete(slot as u16).unwrap();
                        model[slot] = None;
                    }
                }
                _ => {
                    // update lowest live slot
                    if let Some(slot) = model.iter().position(Option::is_some) {
                        if PageMut::new(&mut buf).update(slot as u16, &payload).is_ok() {
                            model[slot] = Some(payload);
                        }
                    }
                }
            }
            // Every live record matches the model after every step.
            let page = PageRef::new(&buf);
            for (slot, expect) in model.iter().enumerate() {
                assert_eq!(page.get(slot as u16), expect.as_deref());
            }
        }
    });
}

// ---------------------------------------------------------------------------
// WAL recovery equivalence (randomized crash points)
// ---------------------------------------------------------------------------

use perftrack_store::prelude::*;

fn schema() -> Vec<Column> {
    vec![
        Column::new("k", ColumnType::Int),
        Column::new("payload", ColumnType::Text),
    ]
}

/// Commit N batches, then start one more batch that never commits and
/// "crash" (forget the db without checkpoint). After reopen, exactly
/// the committed rows exist.
#[test]
fn recovery_preserves_committed_prefix() {
    check_cases(0x5707_0600, 16, |rng| {
        let batches: Vec<usize> = (0..rng.gen_range(1..5))
            .map(|_| rng.gen_range(1..30))
            .collect();
        let uncommitted = rng.gen_range(0usize..20);
        let dir = std::env::temp_dir().join(format!(
            "ptstore-prop-{}-{:08x}",
            std::process::id(),
            rng.gen::<u32>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut expected: Vec<i64> = Vec::new();
        {
            let db = Database::open(&dir).unwrap();
            let t = db.create_table("t", schema()).unwrap();
            db.create_index("t_k", t, &["k"], true).unwrap();
            let mut next_key = 0i64;
            for batch in &batches {
                let mut txn = db.begin();
                for _ in 0..*batch {
                    txn.insert(
                        t,
                        vec![Value::Int(next_key), Value::Text(format!("v{next_key}"))],
                    )
                    .unwrap();
                    expected.push(next_key);
                    next_key += 1;
                }
                txn.commit().unwrap();
            }
            let mut txn = db.begin();
            for _ in 0..uncommitted {
                txn.insert(t, vec![Value::Int(next_key), Value::Text("phantom".into())])
                    .unwrap();
                next_key += 1;
            }
            std::mem::forget(txn);
            std::mem::forget(db);
        }
        let db = Database::open(&dir).unwrap();
        let t = db.table_id("t").unwrap();
        let mut found: Vec<i64> = db
            .scan_iter(t)
            .unwrap()
            .map(|item| item.unwrap().1[0].as_int().unwrap())
            .collect();
        found.sort_unstable();
        assert_eq!(found, expected);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    });
}

// ---------------------------------------------------------------------------
// Structural verification (`check`) under random operation sequences
// ---------------------------------------------------------------------------

use perftrack_store::check::{check_page, verify_tree, Severity};

/// No error-severity findings; warnings (e.g. underfull leaves after
/// deletes) are legal states.
fn no_errors(findings: &[perftrack_store::check::Finding]) -> bool {
    findings.iter().all(|f| f.severity != Severity::Error)
}

/// Every batch of random inserts/removes leaves the B+tree in a state
/// the structural verifier accepts: sorted entries, uniform leaf
/// depth, bounded fanout, separator bounds respected.
#[test]
fn btree_verifies_after_every_batch() {
    check_cases(0x5707_0700, 64, |rng| {
        let mut tree = BTreeIndex::new();
        let mut model = std::collections::BTreeSet::<(Vec<u8>, u64)>::new();
        for _ in 0..rng.gen_range(1..6) {
            for _ in 0..rng.gen_range(1..80) {
                let (is_insert, rid, kb) = arb_tree_op(rng, 60, 6, 4);
                if is_insert {
                    if model.insert((kb.clone(), rid)) {
                        tree.insert(&kb, rid);
                    }
                } else {
                    let a = tree.remove(&kb, rid);
                    assert_eq!(a, model.remove(&(kb, rid)));
                }
            }
            let findings = verify_tree(&tree, "prop");
            assert!(no_errors(&findings), "verifier errors: {findings:?}");
            assert_eq!(tree.len(), model.len());
        }
    });
}

/// Every random insert/delete/update sequence leaves the slotted page
/// in a state `check_page` accepts: consistent slot directory,
/// in-bounds free-space pointers, no overlapping live records.
#[test]
fn page_verifies_after_every_op() {
    check_cases(0x5707_0800, 64, |rng| {
        let mut buf = vec![0u8; PAGE_SIZE];
        PageMut::new(&mut buf).format(PageType::Heap);
        let mut live: Vec<u16> = Vec::new();
        for _ in 0..rng.gen_range(1..100) {
            let (kind, payload) = (rng.gen_range(0u8..3), arb_bytes(rng, 600));
            match kind {
                0 => {
                    if let Ok(slot) = PageMut::new(&mut buf).insert(&payload) {
                        live.push(slot);
                        live.sort_unstable();
                        live.dedup();
                    }
                }
                1 => {
                    if let Some(&slot) = live.first() {
                        PageMut::new(&mut buf).delete(slot).unwrap();
                        live.remove(0);
                    }
                }
                _ => {
                    if let Some(&slot) = live.last() {
                        let _ = PageMut::new(&mut buf).update(slot, &payload);
                    }
                }
            }
            let findings = check_page(&buf, 0);
            assert!(no_errors(&findings), "verifier errors: {findings:?}");
        }
    });
}
