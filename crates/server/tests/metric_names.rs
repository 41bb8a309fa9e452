//! Every metric name `pt stats` renders is documented in
//! `docs/METRICS.md`: one test per metrics crate renders its table and
//! looks each name up in the doc. For `server.*` the check also runs the
//! other way: every concrete name the doc lists must be rendered.
//!
//! A doc name matches a rendered name segment by segment, where a
//! `<...>` placeholder matches any segment (`server.op.<label>.count`), a
//! trailing `*` matches any longer name under its prefix
//! (`server.op.<label>.*`), and a histogram's name also covers its
//! derived `.count`/`.mean`/`.p99`/`.max`/`.sum` lines
//! (`wal.sync_latency`).

use perftrack_server::metrics::{ServerMetrics, OP_LABELS};
use perftrack_store::Database;
use std::time::Duration;

const METRICS_DOC: &str = include_str!("../../../docs/METRICS.md");

/// Backtick-quoted dotted names in the doc, split into segments.
fn documented_names(doc: &str) -> Vec<Vec<&str>> {
    doc.split('`')
        .skip(1)
        .step_by(2)
        .filter(|chunk| chunk.contains('.') && !chunk.contains(' '))
        .map(|chunk| chunk.split('.').collect::<Vec<_>>())
        .filter(|segs| segs.iter().all(|s| !s.is_empty()))
        .collect()
}

/// Is the rendered metric `name` documented by one of `documented`?
fn is_documented(name: &str, documented: &[Vec<&str>]) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    documented.iter().any(|doc| {
        let (doc, wildcard_tail) = match doc.split_last() {
            Some((&"*", prefix)) => (prefix, true),
            _ => (doc.as_slice(), false),
        };
        let Some(tail) = segs.get(doc.len()..) else {
            return false;
        };
        let tail_ok = wildcard_tail
            || tail
                .iter()
                .all(|s| matches!(*s, "count" | "mean" | "p99" | "max" | "sum"));
        tail_ok
            && segs
                .iter()
                .zip(doc)
                .all(|(s, d)| s == d || (d.starts_with('<') && d.ends_with('>')))
    })
}

/// The metric names of a rendered `name  value` table.
fn rendered_names(table: &str) -> Vec<&str> {
    table
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect()
}

fn assert_documented(names: &[&str]) {
    let documented = documented_names(METRICS_DOC);
    let missing: Vec<&&str> = names
        .iter()
        .filter(|n| !is_documented(n, &documented))
        .collect();
    assert!(
        missing.is_empty(),
        "rendered but not in docs/METRICS.md: {missing:?}"
    );
}

#[test]
fn doc_matching_rules() {
    let doc = documented_names(
        "| `wal.sync_latency` | histogram | and `table.<name>.rows` plus `server.op.<label>.*` |",
    );
    assert!(is_documented("wal.sync_latency.mean", &doc));
    assert!(is_documented("wal.sync_latency.p99", &doc));
    assert!(!is_documented("wal.sync_latency.surprise", &doc));
    assert!(!is_documented("wal", &doc));
    assert!(is_documented("table.result.rows", &doc));
    assert!(!is_documented("table.result.pages", &doc));
    assert!(is_documented("server.op.query.count", &doc));
    assert!(!is_documented("client.op.query.count", &doc));
}

#[test]
fn store_metric_names_are_documented() {
    let table = Database::in_memory().metrics().render_table();
    let names = rendered_names(&table);
    assert!(names.contains(&"buffer_pool.contended"), "{table}");
    assert!(names.contains(&"wal.sync_latency.p99"), "{table}");
    assert_documented(&names);
}

#[test]
fn server_metric_names_are_documented() {
    let metrics = ServerMetrics::new();
    // Histogram lines render only for opcodes that have run.
    for label in OP_LABELS {
        metrics.record_request(label, Duration::from_micros(5), false);
    }
    let table = metrics.render_table();
    let names = rendered_names(&table);
    for label in OP_LABELS {
        assert!(
            names.contains(&format!("server.op.{label}.p99").as_str()),
            "{table}"
        );
    }
    assert_documented(&names);
    // The other way round: every concrete `server.*` name in the doc is
    // rendered, so a row left behind by a deleted metric fails here.
    let stale: Vec<String> = documented_names(METRICS_DOC)
        .into_iter()
        .filter(|segs| segs.first() == Some(&"server"))
        .filter(|segs| segs.iter().all(|s| !s.contains('<') && !s.contains('*')))
        .map(|segs| segs.join("."))
        .filter(|name| !names.contains(&name.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "in docs/METRICS.md but not rendered: {stale:?}"
    );
}
