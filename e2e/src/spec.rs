//! The benchmark's contract in one place: workload names, metric names,
//! units and directions. `BENCHMARK.json` carries the same lists plus the
//! regression bounds; `tests/smoke.rs` fails when the two drift apart.

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Workload names. Permanent: later issues cite them.
pub const WORKLOADS: [&str; 4] = [
    "load.smg_uv",
    "query.irs_warm",
    "open.smg_cold",
    "serve.irs_mixed",
];

/// End-to-end metrics. Every workload reports every one of them, so the
/// names are generic; [`meaning`] says what each measures on a workload.
pub const END_TO_END: [MetricSpec; 5] = [
    lower("op_p50_ms", "ms"),
    lower("op_tail_ms", "ms"),
    lower("second_op_p50_ms", "ms"),
    higher("work_per_s", "1/s"),
    lower("setup_s", "s"),
];

/// What an end-to-end metric measures on a workload: the user-visible
/// name the issue and the README use for that cell.
pub fn meaning(workload: &str, metric: &str) -> &'static str {
    match (workload, metric) {
        (_, "setup_s") => "setup_s",
        ("load.smg_uv", "op_p50_ms") => "load_file_p50_ms",
        ("load.smg_uv", "op_tail_ms") => "load_file_tail_ms",
        ("load.smg_uv", "second_op_p50_ms") => "load_late_file_p50_ms",
        ("load.smg_uv", "work_per_s") => "load_stmts_per_s",
        ("query.irs_warm", "op_p50_ms") => "query_p50_ms",
        ("query.irs_warm", "op_tail_ms") => "query_tail_ms",
        ("query.irs_warm", "second_op_p50_ms") => "compare_p50_ms",
        ("query.irs_warm", "work_per_s") => "query_ops_per_s",
        ("open.smg_cold", "op_p50_ms") => "cli_query_p50_ms",
        ("open.smg_cold", "op_tail_ms") => "cli_query_tail_ms",
        ("open.smg_cold", "second_op_p50_ms") => "open_p50_ms",
        ("open.smg_cold", "work_per_s") => "cli_queries_per_s",
        ("serve.irs_mixed", "op_p50_ms") => "serve_query_p50_ms",
        ("serve.irs_mixed", "op_tail_ms") => "serve_query_tail_ms",
        ("serve.irs_mixed", "second_op_p50_ms") => "serve_compare_p50_ms",
        ("serve.irs_mixed", "work_per_s") => "serve_ops_per_s",
        _ => "",
    }
}

/// Per-layer metrics, reported by the traced run. A `*_ms` metric is the
/// self time of the span of the same name (without `_ms`), averaged over
/// the ops that contain such a span, hence the unit `ms/op`; a `*_per_op`
/// metric is a counter difference divided by the traced ops. A layer a
/// workload does not touch reads 0.
pub const PER_LAYER: [MetricSpec; 47] = [
    // ptdf
    lower("ptdf.parse_ms", "ms/op"),
    lower("ptdf.stmts_per_op", "count"),
    // core::datastore (loader)
    lower("core.loader.apply_ms", "ms/op"),
    lower("core.loader.results_per_op", "count"),
    // store::db + store::wal (commit)
    lower("store.commit_ms", "ms/op"),
    lower("store.txn.commits_per_op", "count"),
    lower("store.wal.appends_per_op", "count"),
    lower("store.wal.bytes_per_op", "bytes"),
    lower("store.wal.syncs_per_op", "count"),
    lower("store.wal.sync_mean_us", "us/sync"),
    lower("store.wal.bytes_per_ptdf_byte", "ratio"),
    lower("store.bytes_per_ptdf_byte", "ratio"),
    lower("core.fsck_ms", "ms/op"),
    // store::buffer
    higher("store.pool.hit_rate", "ratio"),
    lower("store.pool.misses_per_op", "count"),
    lower("store.pool.evictions_per_op", "count"),
    lower("store.pool.writebacks_per_op", "count"),
    lower("store.pool.contended_per_op", "count"),
    // store::btree
    lower("store.btree.batch_probes_per_op", "count"),
    lower("store.btree.point_probes_per_op", "count"),
    lower("store.btree.node_reads_per_op", "count"),
    // store::db (open)
    lower("store.open_ms", "ms/op"),
    lower("core.open_ms", "ms/op"),
    lower("store.open.verify_ms", "ms/op"),
    lower("store.open.checkpoint_ms", "ms/op"),
    lower("store.open.rss_mb", "MB"),
    lower("store.close_ms", "ms/op"),
    // store::planner / core::planner
    lower("planner.plan_ms", "ms/op"),
    lower("planner.plans_per_op", "count"),
    lower("planner.stats_hits_per_op", "count"),
    lower("planner.stale_fallbacks_per_op", "count"),
    // core::query
    lower("core.query.retrieve_ms", "ms/op"),
    lower("core.query.family_ms", "ms/op"),
    lower("core.query.match_ms", "ms/op"),
    lower("core.query.fetch_ms", "ms/op"),
    lower("core.query.fetched_per_returned", "ratio"),
    // core::session
    lower("core.session.render_ms", "ms/op"),
    // core::compare
    lower("core.compare.tree_compare_ms", "ms/op"),
    lower("core.compare.render_table_ms", "ms/op"),
    // server (wire + admission + gate)
    lower("server.call_ms", "ms/op"),
    lower("server.ping_p50_us", "us/ping"),
    lower("server.overhead_ms", "ms/op"),
    lower("server.load_p50_ms", "ms/op"),
    lower("server.admission.shed", "count"),
    lower("server.client_retries", "count"),
    // the trace itself
    lower("trace.overhead", "ratio"),
    lower("trace.unattributed_share", "ratio"),
];

/// A traced workload whose ops spend a larger share than this outside
/// every child span is flagged: its breakdown does not explain its time.
pub const UNATTRIBUTED_LIMIT: f64 = 0.15;
