//! Every fsck finding code is documented in `docs/FSCK.md`, and every
//! documented code is still emitted: the doc's code tables and the
//! code-shaped string literals of the two fsck sources (the store's
//! `check` module and core's `fsck` module, test modules excluded) name
//! the same set. A literal counts wherever it is written, so a code passed
//! through a helper such as `push_pair_diffs` counts too.

use std::collections::BTreeSet;

const FSCK_DOC: &str = include_str!("../../../docs/FSCK.md");
const SOURCES: [&str; 2] = [
    include_str!("../../store/src/check.rs"),
    include_str!("../src/fsck.rs"),
];

/// The first cell of each row of every table headed `| Code | ...`.
fn documented_codes(doc: &str) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    let mut in_code_table = false;
    for line in doc.lines() {
        if !line.starts_with('|') {
            in_code_table = false;
        } else if line.starts_with("| Code |") {
            in_code_table = true;
        } else if in_code_table {
            let cell = line.split('|').nth(1).unwrap_or("").trim();
            if let Some(code) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
                out.insert(code);
            }
        }
    }
    out
}

/// `family.name`, where the family is a lowercase word and the name is
/// lowercase words joined by `-` (`page.free-end`).
fn is_code(s: &str) -> bool {
    let lower_word = |w: &str| !w.is_empty() && w.bytes().all(|b| b.is_ascii_lowercase());
    s.split_once('.')
        .is_some_and(|(family, name)| lower_word(family) && name.split('-').all(lower_word))
}

/// Code-shaped text between two double quotes, before the test module.
fn emitted_codes(source: &str) -> BTreeSet<&str> {
    let body = source.split("#[cfg(test)]").next().unwrap_or(source);
    body.match_indices('"')
        .filter_map(|(i, _)| {
            let rest = &body[i + 1..];
            rest.find('"').map(|end| &rest[..end])
        })
        .filter(|s| is_code(s))
        .collect()
}

#[test]
fn documented_and_emitted_fsck_codes_agree() {
    let documented = documented_codes(FSCK_DOC);
    let emitted: BTreeSet<&str> = SOURCES.iter().flat_map(|s| emitted_codes(s)).collect();
    // Both parsers see codes from both layers.
    for code in [
        "page.magic",
        "fsck.truncated",
        "closure.missing",
        "focus.orphan",
    ] {
        assert!(documented.contains(code), "{code} not parsed from the doc");
        assert!(emitted.contains(code), "{code} not parsed from the sources");
    }
    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "emitted but not in docs/FSCK.md: {undocumented:?}"
    );
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(stale.is_empty(), "documented but never emitted: {stale:?}");
}
