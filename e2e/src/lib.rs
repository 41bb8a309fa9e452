//! `pt-e2e`: the on-disk end-to-end benchmark of PerfTrack-rs.
//!
//! Four workloads drive the public functions `pt load`, `pt query`,
//! `pt compare` and `pt serve` call, against on-disk stores with real
//! fsync, default `DbOptions` and the CLI's default flush policy. Each
//! run checks its outputs against counts taken from the generated inputs,
//! and reports either the end-to-end metrics (untraced) or the per-layer
//! metrics (traced). `README.md` beside this crate says why each workload
//! and metric exists and how to read the output.

pub mod dataset;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use layers::{EngineCounters, Layer};
use spec::MetricSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Errors are reported, never matched on.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Dataset sizes. Only counts are scaled, never a workload's mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// SMG-UV executions loaded into each fresh store of `load.smg_uv`.
    pub load_execs: usize,
    /// IRS executions behind `query.irs_warm` and `serve.irs_mixed`.
    pub irs_execs: usize,
    /// SMG-UV executions in the `open.smg_cold` store.
    pub open_uv_execs: usize,
    /// Paradyn exports in the `open.smg_cold` store.
    pub open_paradyn_execs: usize,
    /// Paradyn exports at test size instead of the paper's.
    pub paradyn_small: bool,
    /// Buffer pool frames (8 KiB each) `open.smg_cold` opens its store
    /// with. Scaled down with the store, so that the store stays 1.7×
    /// the pool as 35 SMG-UV executions are to the default 4096 frames.
    pub open_pool_frames: usize,
    /// Untimed ops before a measured window.
    pub warmup_ops: usize,
    /// Set-up is repeated, and its median time reported, until it has
    /// taken this many seconds in total (at most [`SETUP_REPEAT_MAX`]
    /// times): a short set-up is noisy, a long one is not.
    pub setup_budget_s: f64,
}

impl Scale {
    /// The recorded benchmark sizes (README.md, "Sizes").
    pub const FULL: Scale = Scale {
        load_execs: 35,
        irs_execs: 31,
        open_uv_execs: 5,
        open_paradyn_execs: 1,
        paradyn_small: false,
        open_pool_frames: 1024,
        warmup_ops: 10,
        setup_budget_s: 3.0,
    };

    /// Tiny sizes: every code path, no meaningful number.
    pub const SMOKE: Scale = Scale {
        load_execs: 1,
        irs_execs: 3,
        open_uv_execs: 1,
        open_paradyn_execs: 1,
        paradyn_small: true,
        open_pool_frames: 64,
        warmup_ops: 1,
        setup_budget_s: 0.0,
    };
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced window instead of the
    /// end-to-end metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for PTdf files and stores; created and removed
    /// by the run.
    pub work_dir: PathBuf,
    /// Where `trace.<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// One message per op that failed, was refused or answered wrongly, and
/// per correctness check that did not hold. Each makes the run incorrect
/// and counts in `failed_share`.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    /// Record `what()` as a failure unless `ok`.
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Latencies of the workload's primary op, in ms.
    pub op_ms: Vec<f64>,
    /// Latencies of its second op, in ms.
    pub second_ms: Vec<f64>,
    /// Work done, in the unit `work_per_s` counts for this workload...
    pub work: f64,
    /// ...and the seconds it took.
    pub work_s: f64,
    /// Ops of any kind started; per-op counters divide by this.
    pub attempted: u64,
    /// Engine counter movement over the window.
    pub engine: EngineCounters,
    /// Per-layer values the workload computes itself.
    pub layer: Layer,
}

/// A benchmark workload. `setup` builds the fixture (timed as `setup_s`),
/// `measure` runs ops for a window, `finish` runs the checks that need
/// the workload to have stopped.
pub trait Workload: Sized {
    const NAME: &'static str;

    fn setup(cfg: &Config, dir: &Path) -> Result<Self>;

    /// Untimed ops, so that caches and lazy state are as a user who has
    /// been working for a while finds them.
    fn warm_up(&mut self, checks: &mut Checks) -> Result<()>;

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer, checks: &mut Checks)
        -> Result<Window>;

    /// Traced runs only: decompose ops further by calling the stages
    /// behind a public entry point one by one. Extra work, so it runs
    /// after the `traced` window, under `probe` root spans.
    fn probes(&mut self, _traced: &Window, _tracer: &mut Tracer, _layer: &mut Layer) -> Result<()> {
        Ok(())
    }

    /// Checks that need the workload to have stopped.
    fn finish(self, _checks: &mut Checks) -> Result<()> {
        Ok(())
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub spec: MetricSpec,
    pub value: f64,
    /// Sample count and other context, for people.
    pub note: String,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.spec.name == metric)
            .map(|m| m.value)
    }
}

pub const SETUP_REPEAT_MAX: usize = 5;

fn clean_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Run workload `W` once under `cfg`.
pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome> {
    let dir = cfg.work_dir.join(W::NAME);
    // A traced run does not report `setup_s`: it sets up once.
    let setup_budget_s = if cfg.trace {
        0.0
    } else {
        cfg.scale.setup_budget_s
    };
    let mut setup_s = Vec::new();
    let mut fixture = loop {
        clean_dir(&dir)?;
        let t = Instant::now();
        let fixture = W::setup(cfg, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() >= SETUP_REPEAT_MAX || setup_s.iter().sum::<f64>() >= setup_budget_s {
            break fixture;
        }
    };
    let mut checks = Checks::default();
    fixture.warm_up(&mut checks)?;

    let (window, metrics) = if cfg.trace {
        // A third of the time untraced, for the overhead of tracing;
        // the rest traced.
        let plain = fixture.measure(cfg.seconds / 3.0, &mut Tracer::off(), &mut checks)?;
        let mut tracer = Tracer::on();
        let mut traced = fixture.measure(cfg.seconds * 2.0 / 3.0, &mut tracer, &mut checks)?;
        let mut layer = std::mem::take(&mut traced.layer);
        fixture.probes(&traced, &mut tracer, &mut layer)?;
        let metrics = per_layer(&plain, &traced, &tracer, layer)?;
        std::fs::create_dir_all(&cfg.out_dir)?;
        let summary = metrics
            .iter()
            .filter(|m| m.spec.name.starts_with("trace."))
            .map(|m| (m.spec.name.to_string(), perftrack_store::Json::Num(m.value)))
            .collect();
        std::fs::write(
            cfg.out_dir.join(format!("trace.{}.json", W::NAME)),
            tracer.to_json(W::NAME, summary).emit(),
        )?;
        traced.attempted += plain.attempted;
        (traced, metrics)
    } else {
        let window = fixture.measure(cfg.seconds, &mut Tracer::off(), &mut checks)?;
        let metrics = end_to_end(&window, stats::median(&setup_s), setup_s.len());
        (window, metrics)
    };
    fixture.finish(&mut checks)?;
    std::fs::remove_dir_all(&dir)?;

    Ok(Outcome {
        workload: W::NAME,
        seed: cfg.seed,
        traced: cfg.trace,
        attempted: window.attempted.max(1),
        failed: (checks.failures.len() as u64).min(window.attempted.max(1)),
        failures: checks.failures,
        metrics,
    })
}

/// Run the workload called `name`.
pub fn run_named(name: &str, cfg: &Config) -> Result<Outcome> {
    match name {
        workloads::load::LoadSmgUv::NAME => run::<workloads::load::LoadSmgUv>(cfg),
        workloads::query::QueryIrsWarm::NAME => run::<workloads::query::QueryIrsWarm>(cfg),
        workloads::open::OpenSmgCold::NAME => run::<workloads::open::OpenSmgCold>(cfg),
        workloads::serve::ServeIrsMixed::NAME => run::<workloads::serve::ServeIrsMixed>(cfg),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            spec::WORKLOADS.join(", ")
        )
        .into()),
    }
}

fn end_to_end(w: &Window, setup_s: f64, setups: usize) -> Vec<Measured> {
    let (tail_p, tail_ms) = stats::tail(&w.op_ms);
    let values = [
        (stats::median(&w.op_ms), format!("n={}", w.op_ms.len())),
        (
            tail_ms,
            format!("p{:.1}, n={}", tail_p * 100.0, w.op_ms.len()),
        ),
        (
            stats::median(&w.second_ms),
            format!("n={}", w.second_ms.len()),
        ),
        (
            w.work / w.work_s.max(1e-9),
            format!("{:.0} in {:.2} s", w.work, w.work_s),
        ),
        (setup_s, format!("median of {setups}")),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(&spec, (value, note))| Measured { spec, value, note })
        .collect()
}

fn per_layer(
    plain: &Window,
    traced: &Window,
    tracer: &Tracer,
    overrides: Layer,
) -> Result<Vec<Measured>> {
    let mut layer = Layer::new();
    traced.engine.emit(traced.attempted, &mut layer);
    let rows = tracer.self_times();
    for spec in &spec::PER_LAYER {
        let span = spec.name.strip_suffix("_ms");
        if let Some(row) = rows.iter().find(|r| Some(r.name) == span) {
            layer.insert(spec.name, row.self_ms_per_op());
        }
    }
    layer.insert(
        "trace.overhead",
        stats::median(&traced.op_ms) / stats::median(&plain.op_ms).max(1e-9),
    );
    layer.insert("trace.unattributed_share", tracer.unattributed_share("op"));
    layer.extend(overrides);
    let metrics = spec::PER_LAYER
        .iter()
        .map(|&spec| Measured {
            spec,
            value: layer.remove(spec.name).unwrap_or(0.0),
            note: String::new(),
        })
        .collect();
    match layer.keys().next() {
        Some(stray) => Err(format!("{stray} is not a per-layer metric of spec.rs").into()),
        None => Ok(metrics),
    }
}

/// Milliseconds since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// splitmix64, for the choices a workload draws from its seed.
pub(crate) struct Rng64(pub u64);

impl Rng64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}
