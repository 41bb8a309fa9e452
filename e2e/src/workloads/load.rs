//! `load.smg_uv` — the write side. SMG-UV executions (the paper's Table 1
//! loaded 35) go through `load_ptdf_files_resumable`, one PTdf file per
//! execution, into a fresh on-disk store that ends larger than the buffer
//! pool: PTdf parse → `Loader::apply`/`ensure_*` → heap insert → index
//! maintenance → WAL append → fsync per 256-statement batch, with eviction
//! and writeback once the store outgrows the pool. Reads do almost
//! nothing here.

use crate::dataset::{self, Expected};
use crate::layers::EngineCounters;
use crate::trace::Tracer;
use crate::{ms_since, Checks, Config, Result, Window, Workload};
use perftrack::{BulkLoadOptions, LoadStats, PTDataStore};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct LoadSmgUv {
    dir: PathBuf,
    paths: Vec<PathBuf>,
    expected: Expected,
    stores_made: usize,
}

/// The traced twin of `PTDataStore::load_file_resumable` (private to the
/// engine): the same calls in the same order, each in a span.
fn load_file_traced(store: &PTDataStore, path: &Path, t: &mut Tracer) -> Result<LoadStats> {
    let opts = BulkLoadOptions::default();
    t.span("op", |t| {
        let text = t.span("fs.read", |_| std::fs::read_to_string(path))?;
        let key = path.to_string_lossy();
        let hash = t.span("core.loader.manifest", |_| {
            store
                .manifest_entry(&key)
                .map(|_| perftrack_store::wal::crc32(text.as_bytes()) as i64)
        })?;
        let stmts = t.span("ptdf.parse", |_| perftrack_ptdf::parse_str(&text))?;
        let mut stats = LoadStats::default();
        let mut done = 0;
        for batch in stmts.chunks(opts.batch_statements) {
            done += batch.len();
            let mut loader = t.span("core.loader.begin", |_| store.begin_load());
            t.span("core.loader.apply", |_| {
                batch.iter().try_for_each(|s| loader.apply(s))
            })?;
            t.span("core.loader.set_manifest", |_| {
                loader.set_manifest(&key, hash, done as i64, done == stmts.len())
            })?;
            stats.merge(&t.span("store.commit", |_| loader.commit())?);
        }
        Ok(stats)
    })
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    std::fs::read_dir(dir)?
        .map(|e| Ok(e?.metadata()?.len()))
        .sum()
}

impl LoadSmgUv {
    /// Load every file into a fresh store, check it, and throw it away.
    fn load_one_store(
        &mut self,
        t: &mut Tracer,
        w: &mut Window,
        checks: &mut Checks,
    ) -> Result<()> {
        self.stores_made += 1;
        let dir = self.dir.join(format!("store-{}", self.stores_made));
        let store = PTDataStore::open(&dir)?;
        let opened = EngineCounters::read(store.db());
        let mut total = LoadStats::default();
        // The second op: files loaded once the store has outgrown the
        // pool (at full size it fills at file ≈ 20 of 35), when every
        // insert may evict and write back.
        let late = self.paths.len() - self.paths.len().div_ceil(3);
        for (i, path) in self.paths.iter().enumerate() {
            let started = Instant::now();
            let stats = if t.enabled() {
                load_file_traced(&store, path, t)?
            } else {
                store
                    .load_ptdf_files_resumable(
                        std::slice::from_ref(path),
                        &BulkLoadOptions::default(),
                    )?
                    .stats
            };
            let took_ms = ms_since(started);
            w.work_s += took_ms / 1e3;
            w.op_ms.push(took_ms);
            if i >= late {
                w.second_ms.push(took_ms);
            }
            w.work += stats.statements as f64;
            w.attempted += 1;
            total.merge(&stats);
        }
        let moved = EngineCounters::read(store.db()).since(&opened);
        w.engine.add(&moved);

        // The gate `pt load --verify` applies, plus the input's counts.
        let got = (total.statements, total.results, total.resources);
        let want = (
            self.expected.statements,
            self.expected.results,
            self.expected.resources,
        );
        checks.ensure(got == want, || {
            format!("LoadStats (statements, results, resources) {got:?}, inputs have {want:?}")
        });
        let in_store = (store.result_count()?, store.resource_count()?);
        checks.ensure(in_store == (want.1, want.2), || {
            format!("store holds (results, resources) {in_store:?}, inputs have {want:?}")
        });
        let report = t.span("probe", |t| t.span("core.fsck", |_| store.fsck(false)))?;
        checks.ensure(report.error_count() == 0, || {
            format!("fsck after load: {}", report.summary())
        });

        drop(store);
        let ptdf_bytes = self.expected.ptdf_bytes as f64;
        w.layer.insert(
            "store.bytes_per_ptdf_byte",
            dir_bytes(&dir)? as f64 / ptdf_bytes,
        );
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }
}

impl Workload for LoadSmgUv {
    const NAME: &'static str = "load.smg_uv";

    fn setup(cfg: &Config, dir: &Path) -> Result<Self> {
        let docs = dataset::smg_uv(cfg.seed, cfg.scale.load_execs);
        let paths = dataset::write_ptdf(&dir.join("ptdf"), &docs)?;
        Ok(LoadSmgUv {
            dir: dir.to_path_buf(),
            expected: Expected::of(&docs),
            paths,
            stores_made: 0,
        })
    }

    /// One file into a scratch store: pages in the binary and the PTdf
    /// files. A load has no cache of its own to warm.
    fn warm_up(&mut self, _checks: &mut Checks) -> Result<()> {
        let dir = self.dir.join("store-warm");
        let store = PTDataStore::open(&dir)?;
        store.load_ptdf_files_resumable(&self.paths[..1], &BulkLoadOptions::default())?;
        drop(store);
        Ok(std::fs::remove_dir_all(&dir)?)
    }

    fn measure(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Window> {
        let mut w = Window::default();
        let started = Instant::now();
        // Whole stores only: throughput falls as a store grows past the
        // pool, so a partly loaded one would flatter the number.
        loop {
            self.load_one_store(tracer, &mut w, checks)?;
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let files = self.paths.len() as f64;
        let stores = w.attempted as f64 / files;
        w.layer
            .insert("ptdf.stmts_per_op", self.expected.statements as f64 / files);
        w.layer.insert(
            "core.loader.results_per_op",
            self.expected.results as f64 / files,
        );
        w.layer.insert(
            "store.wal.bytes_per_ptdf_byte",
            w.engine.wal_bytes() as f64 / (self.expected.ptdf_bytes as f64 * stores),
        );
        Ok(w)
    }

    // No probes: the traced op already mirrors the load path call by call.
}
