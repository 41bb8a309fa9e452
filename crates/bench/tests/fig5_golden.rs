//! Golden test for the Figure 5 artefact: `fig5` run with no arguments
//! must print `fig5_output.txt` byte for byte. The only fields masked on
//! both sides are the operator profile's timings (the table's `elapsed`
//! column and the JSON's `elapsed_nanos` / `total_nanos`); every count,
//! value, chart bar and verdict line is compared exactly.
//!
//! After an intended change to the harness or the IRS generator,
//! regenerate the file with
//! `cargo run --release -p perftrack-bench --bin fig5 > fig5_output.txt`.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../fig5_output.txt");

/// Replace the digits after every `key` with `N`.
fn mask_number_after(line: &str, key: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(key) {
        let (head, tail) = rest.split_at(at + key.len());
        out.push_str(head);
        out.push('N');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Mask the profile's wall-clock fields; leave every other line as is.
fn mask_timings(text: &str) -> String {
    let mut in_table = false;
    let mut out = String::new();
    for line in text.lines() {
        let masked = if line.starts_with("operator ") && line.ends_with("elapsed") {
            in_table = true;
            line.to_string()
        } else if in_table {
            in_table = !line.starts_with("total");
            // The elapsed column is the last field; the fixed-width
            // columns before it stay compared.
            let head = line.trim_end().rsplit_once(' ').map_or(line, |(h, _)| h);
            format!("{} <elapsed>", head.trim_end())
        } else if line.starts_with("profile JSON: ") {
            mask_number_after(
                &mask_number_after(line, "\"elapsed_nanos\":"),
                "\"total_nanos\":",
            )
        } else {
            line.to_string()
        };
        out.push_str(&masked);
        out.push('\n');
    }
    out
}

#[test]
fn fig5_output_matches_committed_artefact() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig5")).output().unwrap();
    assert!(out.status.success(), "fig5 failed: {out:?}");
    let actual = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        mask_timings(&actual),
        mask_timings(GOLDEN),
        "fig5 output differs from fig5_output.txt; regenerate the file if the change is intended"
    );
}
