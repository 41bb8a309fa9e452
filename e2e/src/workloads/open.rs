//! `open.smg_cold` — what one `pt query <dir>` invocation costs. The
//! store (SMG-UV executions plus a paper-scale Paradyn export with its
//! ≈ 17k-resource closure tables) is larger than the buffer pool. Each op
//! is `PTDataStore::open` → one medium query → `render` → drop: recover →
//! `rebuild_indexes` full heap scan → core `rebuild_runtime_state` →
//! checkpoint → verify, then a query against a cold pool. The OS cache
//! is warm; the program's caches are cold by construction. This is the
//! workload page-resident B+trees (ROADMAP item 5) must win on.

use super::{load_fresh, query_spans, right_answer, QueryCase};
use crate::dataset::{self, Expected};
use crate::layers::{rss_mb, EngineCounters, Layer};
use crate::trace::Tracer;
use crate::{ms_since, stats, Checks, Config, Result, Rng64, Window, Workload};
use perftrack::PTDataStore;
use perftrack_store::{Database, DbOptions};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Distinct executions the medium queries ask for.
const QUERY_POOL: usize = 8;
/// Times the probes open the bare `Database`.
const PROBE_OPENS: usize = 3;

pub struct OpenSmgCold {
    store_dir: PathBuf,
    /// Default options but for the scaled pool.
    opts: DbOptions,
    queries: Vec<QueryCase>,
    warmup_ops: usize,
    issued: usize,
}

/// Open the store at `dir` and return how much the resident set grew,
/// in MB. Only a process that has done nothing else gives a meaningful
/// number: this one's allocator still holds what set-up freed.
pub fn open_rss_mb(dir: &Path, pool_frames: usize) -> Result<f64> {
    let before = rss_mb();
    let store = PTDataStore::open_with(
        dir,
        DbOptions {
            pool_frames,
            ..DbOptions::default()
        },
    )?;
    let grown = rss_mb() - before;
    drop(store);
    Ok(grown)
}

impl OpenSmgCold {
    /// [`open_rss_mb`] in a child process (`pt-e2e open-rss DIR FRAMES`),
    /// waited for before returning.
    fn open_rss_in_child(&self) -> Result<f64> {
        let out = Command::new(std::env::current_exe()?)
            .arg("open-rss")
            .arg(&self.store_dir)
            .arg(self.opts.pool_frames.to_string())
            .output()?;
        if !out.status.success() {
            return Err(format!(
                "open-rss child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
            .into());
        }
        Ok(String::from_utf8_lossy(&out.stdout).trim().parse()?)
    }

    fn one_op(&mut self, t: &mut Tracer, w: &mut Window, checks: &mut Checks) -> Result<()> {
        let case = &self.queries[self.issued % self.queries.len()];
        self.issued += 1;
        w.attempted += 1;
        let started = Instant::now();
        let (open_ms, rows, counters) = t.span("op", |t| -> Result<_> {
            let store = t.span("core.open", |_| {
                PTDataStore::open_with(&self.store_dir, self.opts.clone())
            })?;
            let open_ms = ms_since(started);
            let rows = query_spans(&store, case, t)?;
            let counters = EngineCounters::read(store.db());
            t.span("store.close", |_| drop(store));
            Ok((open_ms, rows, counters))
        })?;
        w.op_ms.push(ms_since(started));
        w.second_ms.push(open_ms);
        w.engine.add(&counters);
        right_answer(checks, "query rows after open", rows, case.rows);
        Ok(())
    }
}

impl Workload for OpenSmgCold {
    const NAME: &'static str = "open.smg_cold";

    fn setup(cfg: &Config, dir: &Path) -> Result<Self> {
        let mut docs = dataset::smg_uv(cfg.seed, cfg.scale.open_uv_execs);
        docs.extend(dataset::paradyn(
            cfg.seed,
            cfg.scale.open_paradyn_execs,
            cfg.scale.paradyn_small,
        ));
        let paths = dataset::write_ptdf(&dir.join("ptdf"), &docs)?;
        let store_dir = dir.join("store");
        let store = load_fresh(&store_dir, &paths, &Expected::of(&docs))?;
        store.db().analyze()?;
        drop(store);

        let mut rng = Rng64(cfg.seed ^ 0x09E4);
        let queries = (0..QUERY_POOL)
            .map(|_| {
                let patterns = vec![docs[rng.below(docs.len())].run_resource()];
                QueryCase {
                    rows: dataset::oracle_rows(&docs, &patterns),
                    patterns,
                }
            })
            .collect();
        Ok(OpenSmgCold {
            store_dir,
            opts: DbOptions {
                pool_frames: cfg.scale.open_pool_frames,
                ..DbOptions::default()
            },
            queries,
            warmup_ops: cfg.scale.warmup_ops.min(3),
            issued: 0,
        })
    }

    fn warm_up(&mut self, checks: &mut Checks) -> Result<()> {
        let mut scratch = Window::default();
        for _ in 0..self.warmup_ops {
            self.one_op(&mut Tracer::off(), &mut scratch, checks)?;
        }
        Ok(())
    }

    fn measure(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Window> {
        let mut w = Window::default();
        let started = Instant::now();
        loop {
            self.one_op(tracer, &mut w, checks)?;
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        w.work_s = started.elapsed().as_secs_f64();
        w.work = w.attempted as f64;
        Ok(w)
    }

    /// `PTDataStore::open` is `Database::open` plus the core's own
    /// rebuild; open the bare database to tell them apart, and time the
    /// verify and checkpoint passes that `Database::open` ends with.
    fn probes(&mut self, traced: &Window, t: &mut Tracer, layer: &mut Layer) -> Result<()> {
        let mut store_open_ms = Vec::new();
        for _ in 0..PROBE_OPENS {
            t.span("probe", |t| -> Result<()> {
                let started = Instant::now();
                let db = t.span("store.open", |_| {
                    Database::open_with(&self.store_dir, self.opts.clone())
                })?;
                store_open_ms.push(ms_since(started));
                let report = t.span("store.open.verify", |_| db.verify(false))?;
                std::hint::black_box(report);
                t.span("store.open.checkpoint", |_| db.checkpoint())?;
                Ok(())
            })?;
        }
        // A difference of two measurements: small, and it can be negative.
        layer.insert(
            "core.open_ms",
            stats::median(&traced.second_ms) - stats::median(&store_open_ms),
        );
        layer.insert("store.open.rss_mb", self.open_rss_in_child()?);
        Ok(())
    }

    fn finish(self, checks: &mut Checks) -> Result<()> {
        let store = PTDataStore::open(&self.store_dir)?;
        let report = store.fsck(false)?;
        checks.ensure(report.error_count() == 0, || {
            format!("fsck after opens: {}", report.summary())
        });
        Ok(())
    }
}
