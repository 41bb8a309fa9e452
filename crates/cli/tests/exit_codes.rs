//! `pt load` exit-code contract, driven through the real binary:
//! 0 = success, 1 = generic failure, 4 = corruption detected. Codes 2
//! (completed after transient retries) and 3 (read-only degraded mode)
//! need fault injection below the process boundary and are covered by
//! the library-level fault-matrix and degradation tests; this test pins
//! the codes that are reachable from a plain filesystem.

use std::path::PathBuf;
use std::process::Command;

fn pt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const PTDF: &str = "\
Application A
Execution e1 A
Resource /r application
PerfResult e1 /r(primary) A m 1.5 u
";

#[test]
fn successful_load_exits_zero() {
    let dir = tmpdir("ok");
    let file = dir.join("in.ptdf");
    std::fs::write(&file, PTDF).unwrap();
    let store = dir.join("store");
    let out = pt()
        .args([
            "load",
            store.to_str().unwrap(),
            file.to_str().unwrap(),
            "--verify",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("manifest:"),
        "resumable path used: {stdout}"
    );

    // A --resume re-run is also a success (everything skipped).
    let out = pt()
        .args([
            "load",
            store.to_str().unwrap(),
            file.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("1 skipped"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_one() {
    let out = pt().args(["load"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = pt().args(["no-such-command"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// Load a store, flip the 64 bytes of its page file starting at
/// `at(file length)`, and `pt load --resume` it: the open-time (or
/// load-time) verification must classify this as corruption.
fn flipped_store_exits_four(tag: &str, at: impl Fn(usize) -> usize) {
    let dir = tmpdir(tag);
    let file = dir.join("in.ptdf");
    std::fs::write(&file, PTDF).unwrap();
    let store = dir.join("store");
    let out = pt()
        .args(["load", store.to_str().unwrap(), file.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let pages = store.join("pages.db");
    let mut bytes = std::fs::read(&pages).unwrap();
    let mid = at(bytes.len());
    for b in &mut bytes[mid..mid + 64] {
        *b ^= 0xFF;
    }
    std::fs::write(&pages, &bytes).unwrap();

    let out = pt()
        .args([
            "load",
            store.to_str().unwrap(),
            file.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_exits_four() {
    // The file's middle bytes, wherever in a page they land: a header,
    // slots, records or the free gap between them.
    flipped_store_exits_four("corrupt", |len| len / 2);
}

#[test]
fn corrupt_page_header_exits_four() {
    // The first bytes of the middle page: its header and first slots.
    let page = perftrack_store::page::PAGE_SIZE;
    flipped_store_exits_four("corrupt-header", |len| len / page / 2 * page);
}

#[test]
fn unknown_options_exit_one_before_the_store_changes() {
    let dir = tmpdir("unknown-opt");
    let file = dir.join("in.ptdf");
    std::fs::write(&file, PTDF).unwrap();
    let store = dir.join("store");
    let (store, file) = (store.to_str().unwrap(), file.to_str().unwrap());
    let load = |extra: &[&str]| {
        pt().args(["load", store, file])
            .args(extra)
            .output()
            .unwrap()
    };
    let rows = || {
        pt().args(["query", store, "--name", "/r"])
            .output()
            .unwrap()
            .stdout
    };
    assert_eq!(load(&[]).status.code(), Some(0));
    let before = rows();
    assert!(String::from_utf8_lossy(&before).ends_with("(1 rows)\n"));
    // A typo of --resume and an option `load` does not declare are
    // usage errors: neither re-applies the file.
    for extra in [
        &["--resmue"][..],
        &["--threads", "2"][..],
        &["--max-retries", "3"][..],
    ] {
        let out = load(extra);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
        assert_eq!(rows(), before, "{extra:?} changed the store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
