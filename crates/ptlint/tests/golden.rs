//! Golden-output tests over the seeded-violation fixture.
//!
//! The fixture under `tests/fixtures/seeded/` plants one reversed lock
//! acquisition, which is both a new edge and a cycle. The rendered table
//! and JSON are compared byte-for-byte against committed golden files
//! so any drift in sorting, alignment, or escaping is caught — the
//! same contract `pt fsck` output is held to.
//!
//! To regenerate after an intentional rendering change (each command
//! exits 1, because the fixture's findings are errors):
//!
//! ```text
//! cargo run -p ptlint -- --root crates/ptlint/tests/fixtures/seeded \
//!     --out crates/ptlint/tests/fixtures/seeded-expected.table
//! cargo run -p ptlint -- --root crates/ptlint/tests/fixtures/seeded \
//!     --json --out crates/ptlint/tests/fixtures/seeded-expected.json
//! ```

use std::path::{Path, PathBuf};

use ptlint::findings::{LintReport, Severity};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded")
}

fn fixture_report() -> LintReport {
    ptlint::run_at(&fixture_root())
}

#[test]
fn table_output_matches_golden_byte_for_byte() {
    let expected = include_str!("fixtures/seeded-expected.table");
    assert_eq!(fixture_report().render_table(), expected);
}

#[test]
fn json_output_matches_golden_byte_for_byte() {
    let expected = include_str!("fixtures/seeded-expected.json");
    assert_eq!(fixture_report().to_json(), expected);
}

#[test]
fn fixture_plants_exactly_one_violation_per_check_family() {
    let report = fixture_report();
    assert_eq!(report.errors(), 2, "{}", report.render_table());
    assert_eq!(report.warnings(), 0, "{}", report.render_table());
    let families: Vec<&str> = report
        .findings
        .iter()
        .map(|f| f.code.split('.').next().unwrap_or(f.code))
        .collect();
    // The reversed order is reported both as an unlisted edge and as
    // the cycle it closes.
    assert_eq!(families, ["locks", "locks"]);
}

/// `backward()` acquires `pool.a` under
/// `pool.b`, which is both an edge missing from the allowlist and a
/// cycle against the committed `pool.a -> pool.b` order.
#[test]
fn lock_check_reports_new_edge_and_closed_cycle() {
    let report = fixture_report();
    let new_edge = report
        .findings
        .iter()
        .find(|f| f.code == "locks.new-edge")
        .expect("locks.new-edge finding");
    assert_eq!(new_edge.file, "crates/store/src/buffer.rs");
    assert_eq!(new_edge.line, 18);
    assert!(new_edge.detail.contains("tools/lock-order.toml"));

    let cycle = report
        .findings
        .iter()
        .find(|f| f.code == "locks.cycle")
        .expect("locks.cycle finding");
    assert!(
        cycle.detail.contains("pool.a -> pool.b -> pool.a"),
        "cycle should render closed: {}",
        cycle.detail
    );
}

/// Every finding in the golden report is an error: the seeded fixture
/// must keep exercising the failing path (`ptlint` exits non-zero).
#[test]
fn seeded_findings_are_all_errors() {
    let report = fixture_report();
    assert!(report
        .findings
        .iter()
        .all(|f| f.severity == Severity::Error));
}

/// The real workspace two levels up must lint clean — the same gate
/// CI enforces with `cargo run -p ptlint`.
#[test]
fn real_workspace_has_no_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = ptlint::run_at(&root);
    assert_eq!(report.errors(), 0, "{}", report.render_table());
}
