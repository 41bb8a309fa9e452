//! `query.irs_warm` — the interactive read side with a resident working
//! set. IRS executions (the paper loaded 62) fit the buffer pool; the
//! store is opened and analysed once, then one analyst issues pr-filter
//! queries through `SelectionDialog::retrieve` + `ResultTable::render`
//! at a 60/30/10 narrow/medium/wide mix, with a two-execution
//! `tree_compare` + `render_table` every [`COMPARE_EVERY`]th op: planner,
//! family and closure expansion, batched probes, row fetch, render,
//! compare. WAL, fsync, open and pool misses are ≈ 0 here, so a
//! write-side or open-side change must show no movement.

use super::{compare_op, query_spans, right_answer, IrsFixture};
use crate::layers::{EngineCounters, Layer};
use crate::trace::Tracer;
use crate::{ms_since, Checks, Config, Result, Window, Workload};
use perftrack::QueryEngine;
use perftrack_model::{Relatives, ResourceFilter};
use std::path::Path;
use std::time::Instant;

/// One op in this many is a comparison. The issue asked for one in 20;
/// a window of a few hundred ops then holds too few comparisons for a
/// steady median.
pub const COMPARE_EVERY: u64 = 8;

/// Query cases the probes decompose.
const PROBED_CASES: usize = 12;

pub struct QueryIrsWarm {
    fx: IrsFixture,
    warmup_ops: usize,
    /// Ops issued so far; positions the next op in the cycles.
    issued: u64,
}

impl QueryIrsWarm {
    fn one_op(&mut self, t: &mut Tracer, w: &mut Window, checks: &mut Checks) -> Result<()> {
        let i = self.issued;
        self.issued += 1;
        w.attempted += 1;
        let started = Instant::now();
        if i % COMPARE_EVERY == COMPARE_EVERY - 1 {
            let pair = &self.fx.compares[(i / COMPARE_EVERY) as usize % self.fx.compares.len()];
            let aligned = compare_op(&self.fx.store, pair, t)?;
            w.second_ms.push(ms_since(started));
            right_answer(checks, "compare aligned cells", aligned, pair.aligned_cells);
        } else {
            let case = &self.fx.queries[i as usize % self.fx.queries.len()];
            let rows = t.span("op", |t| query_spans(&self.fx.store, case, t))?;
            w.op_ms.push(ms_since(started));
            right_answer(checks, "query rows", rows, case.rows);
        }
        Ok(())
    }
}

impl Workload for QueryIrsWarm {
    const NAME: &'static str = "query.irs_warm";

    fn setup(cfg: &Config, dir: &Path) -> Result<Self> {
        Ok(QueryIrsWarm {
            fx: IrsFixture::build(cfg.seed, cfg.scale.irs_execs, dir)?,
            warmup_ops: cfg.scale.warmup_ops,
            issued: 0,
        })
    }

    fn warm_up(&mut self, checks: &mut Checks) -> Result<()> {
        let mut scratch = Window::default();
        for _ in 0..self.warmup_ops.max(COMPARE_EVERY as usize) {
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
        let before = EngineCounters::read(self.fx.store.db());
        let started = Instant::now();
        // At least one comparison, however short the window.
        while started.elapsed().as_secs_f64() < seconds || w.second_ms.is_empty() {
            self.one_op(tracer, &mut w, checks)?;
        }
        w.work_s = started.elapsed().as_secs_f64();
        w.work = w.attempted as f64;
        w.engine = EngineCounters::read(self.fx.store.db()).since(&before);
        Ok(w)
    }

    /// `retrieve` is one public call; the stages behind it are public
    /// too, so run them one by one over a sample of the cycle.
    fn probes(&mut self, _traced: &Window, t: &mut Tracer, layer: &mut Layer) -> Result<()> {
        let (mut fetched, mut returned) = (0usize, 0usize);
        for case in self.fx.queries.iter().take(PROBED_CASES) {
            t.span("probe", |t| -> Result<()> {
                let engine = QueryEngine::new(&self.fx.store);
                let filters: Vec<ResourceFilter> = case
                    .patterns
                    .iter()
                    .map(|p| ResourceFilter::by_name(p).relatives(Relatives::Descendants))
                    .collect();
                let plan = t.span("planner.plan", |_| engine.explain(&filters));
                std::hint::black_box(plan);
                let families = t.span("core.query.family", |_| {
                    filters
                        .iter()
                        .map(|f| engine.family(f))
                        .collect::<perftrack::Result<Vec<_>>>()
                })?;
                let ids = t.span("core.query.match", |_| {
                    engine.matching_result_ids(&families)
                })?;
                let rows = t.span("core.query.fetch", |_| engine.fetch_rows(&ids))?;
                fetched += ids.len();
                returned += rows.len();
                Ok(())
            })?;
        }
        layer.insert(
            "core.query.fetched_per_returned",
            fetched as f64 / returned.max(1) as f64,
        );
        Ok(())
    }

    fn finish(self, checks: &mut Checks) -> Result<()> {
        let report = self.fx.store.fsck(false)?;
        checks.ensure(report.error_count() == 0, || {
            format!("fsck after queries: {}", report.summary())
        });
        Ok(())
    }
}
