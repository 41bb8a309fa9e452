//! Property tests for PTdf: print→parse identity over arbitrary
//! statements, and tokenizer quoting round-trips. Cases are drawn from a
//! seeded generator; a failure prints the case seed that replays it.

use perftrack_ptdf::lexer::{quote, tokenize};
use perftrack_ptdf::{parse_str, to_string, AttrType, PtdfResourceSet, PtdfStatement};
use perftrack_workloads::rng::{check_cases, Rng};
use std::ops::Range;

const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Printable ASCII, space through tilde.
fn arb_printable(rng: &mut Rng, len: Range<usize>) -> String {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    rng.gen_string(&printable, len)
}

/// Free-form names (may need quoting), not blank.
fn arb_name(rng: &mut Rng) -> String {
    loop {
        let s = arb_printable(rng, 1..25);
        if !s.trim().is_empty() {
            return s;
        }
    }
}

/// Resource names: no commas/colons/parens (the resource-set field's
/// structural characters), as the format requires.
fn arb_resource_name(rng: &mut Rng) -> String {
    let alphabet = [LETTERS, b"0123456789_.{}-"].concat();
    let segs: Vec<String> = (0..rng.gen_range(1..4))
        .map(|_| rng.gen_string(&alphabet, 1..9))
        .collect();
    format!("/{}", segs.join("/"))
}

fn arb_resource_set(rng: &mut Rng) -> PtdfResourceSet {
    const SET_TYPES: [&str; 5] = ["primary", "parent", "child", "sender", "receiver"];
    PtdfResourceSet {
        resources: (0..rng.gen_range(1..4))
            .map(|_| arb_resource_name(rng))
            .collect(),
        set_type: SET_TYPES[rng.gen_range(0..SET_TYPES.len())].to_string(),
    }
}

fn arb_statement(rng: &mut Rng) -> PtdfStatement {
    match rng.gen_range(0..7) {
        0 => PtdfStatement::Application {
            name: arb_name(rng),
        },
        1 => PtdfStatement::ResourceType {
            type_path: (0..rng.gen_range(1..4))
                .map(|_| rng.gen_string(LETTERS, 1..9))
                .collect::<Vec<_>>()
                .join("/"),
        },
        2 => PtdfStatement::Execution {
            name: arb_name(rng),
            application: arb_name(rng),
        },
        3 => PtdfStatement::Resource {
            name: arb_resource_name(rng),
            type_path: rng.gen_string(b"abcdefghijklmnopqrstuvwxyz/", 1..17),
            execution: rng.gen_bool(0.5).then(|| arb_name(rng)),
        },
        4 => PtdfStatement::ResourceAttribute {
            resource: arb_resource_name(rng),
            attribute: arb_name(rng),
            value: arb_name(rng),
            attr_type: AttrType::String,
        },
        5 => PtdfStatement::PerfResult {
            execution: arb_name(rng),
            resource_sets: (0..rng.gen_range(1..4))
                .map(|_| arb_resource_set(rng))
                .collect(),
            tool: arb_name(rng),
            metric: arb_name(rng),
            value: rng.gen_range(-1.0e12..1.0e12),
            units: arb_name(rng),
        },
        _ => PtdfStatement::ResourceConstraint {
            first: arb_resource_name(rng),
            second: arb_resource_name(rng),
        },
    }
}

/// Any statement prints to a line that parses back to itself; for a
/// `PerfResult` that includes the float, exactly, via `Display`.
#[test]
fn print_parse_identity() {
    check_cases(0x97df_0100, 256, |rng| {
        let stmt = arb_statement(rng);
        let text = to_string(std::slice::from_ref(&stmt));
        let parsed =
            parse_str(&text).unwrap_or_else(|e| panic!("reparse failed for {text:?}: {e}"));
        assert_eq!(parsed, [stmt]);
    });
}

/// Documents of many statements round-trip as a whole.
#[test]
fn document_roundtrip() {
    check_cases(0x97df_0200, 256, |rng| {
        let stmts: Vec<PtdfStatement> = (0..rng.gen_range(0..20))
            .map(|_| arb_statement(rng))
            .collect();
        let text = to_string(&stmts);
        assert_eq!(parse_str(&text).unwrap(), stmts);
    });
}

/// quote() always produces a single token that tokenizes back.
#[test]
fn quote_tokenize_roundtrip() {
    check_cases(0x97df_0300, 256, |rng| {
        let token = arb_printable(rng, 0..41);
        let quoted = quote(&token);
        let toks = tokenize(&quoted, 1).unwrap();
        assert_eq!(toks, [token], "quoted {quoted:?}");
    });
}

/// Tokenizing any line never panics and errors carry the line number.
#[test]
fn tokenizer_total() {
    check_cases(0x97df_0400, 256, |rng| {
        let line = arb_printable(rng, 0..81);
        let line_no = rng.gen_range(1usize..1000);
        if let Err(e) = tokenize(&line, line_no) {
            assert!(e.to_string().contains(&format!("line {line_no}")));
        }
    });
}
