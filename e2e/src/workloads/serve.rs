//! `serve.irs_mixed` — the `query.irs_warm` store behind an in-process
//! `Server::start` (default `ServerConfig`) on `127.0.0.1:0`, driven by
//! two `Client` connections, each a closed loop: an analyst waits for
//! each answer before asking again. 85 % `Query` (the same three
//! classes), 5 % `Compare`, 10 % tokened `LoadPtdf` of one fresh SMG-BG/L
//! execution (8 results; writer gate + commit fsync). The same read
//! layers as `query.irs_warm`, through wire → admission → read/write
//! gate, with writes beside reads: a read-path gain that costs writers,
//! or a gate or commit change that stalls readers, shows here. The gap
//! between this workload's query p50 and `query.irs_warm`'s is the
//! server's own cost.

use super::{query_spans, ComparePair, IrsFixture, QueryCase};
use crate::dataset;
use crate::layers::{EngineCounters, Layer};
use crate::trace::Tracer;
use crate::{ms_since, stats, Checks, Config, Result, Window, Workload};
use perftrack::PTDataStore;
use perftrack_server::{
    Client, NameFilter, QuerySpec, Request, Response, Server, ServerConfig, ServerHandle,
};
use perftrack_store::Json;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop client connections; the sandbox has two cores.
pub const CLIENTS: usize = 2;
/// Results in one SMG-BG/L execution.
const BGL_RESULTS: u64 = 8;
/// Pings the probes send for the wire floor.
const PROBE_PINGS: usize = 200;
/// In-process queries the probes run for the server's overhead.
const PROBE_QUERIES: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Compare,
    Load,
}

/// The mix as a fixed cycle of 20 ops: 17 queries, 1 comparison, 2
/// loads. Each client starts at its own offset, so loads interleave
/// with the other client's reads.
const MIX: [Kind; 20] = {
    let mut mix = [Kind::Query; 20];
    mix[3] = Kind::Load;
    mix[9] = Kind::Compare;
    mix[13] = Kind::Load;
    mix
};

/// A tokened load a client sent.
struct SentLoad {
    token: String,
    execution: String,
    acknowledged: bool,
}

/// What one client's loop produced.
#[derive(Default)]
struct ClientRun {
    query_ms: Vec<f64>,
    compare_ms: Vec<f64>,
    load_ms: Vec<f64>,
    attempted: u64,
    /// One message per op that failed, was refused, or answered wrongly.
    wrong: Vec<String>,
    loads: Vec<SentLoad>,
    retries: u64,
}

pub struct ServeIrsMixed {
    store_dir: PathBuf,
    store: Option<Arc<PTDataStore>>,
    server: Option<ServerHandle>,
    queries: Vec<QueryCase>,
    compares: Vec<ComparePair>,
    base_results: usize,
    seed: u64,
    warmup_ops: usize,
    /// Ops each client has issued; positions it in the cycles and keeps
    /// execution names unique.
    issued: [u64; CLIENTS],
    loads: Vec<SentLoad>,
}

/// The idempotency token of the load of `execution`.
fn token_for(execution: &str) -> String {
    format!("e2e-{execution}")
}

fn request_for(
    kind: Kind,
    case: &QueryCase,
    pair: &ComparePair,
    execution: &str,
    seed: u64,
) -> Request {
    match kind {
        Kind::Query => Request::Query(QuerySpec {
            names: case
                .patterns
                .iter()
                .map(|p| NameFilter {
                    pattern: p.clone(),
                    relatives: 'D',
                })
                .collect(),
            ..QuerySpec::default()
        }),
        Kind::Compare => Request::Compare {
            executions: vec![pair.a.clone(), pair.b.clone()],
            top: 10,
            threshold_pct: 25,
        },
        Kind::Load => Request::LoadPtdf {
            text: dataset::smg_bgl_named(execution, seed).text,
            token: token_for(execution),
        },
    }
}

impl ServeIrsMixed {
    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server runs until finish")
    }

    fn store(&self) -> &PTDataStore {
        self.store.as_ref().expect("store is shared until finish")
    }

    /// One client's closed loop: build the request (think time, not
    /// measured), call, check the answer, repeat until `seconds` have
    /// passed and `min_ops` ops are done.
    fn client_loop(
        &self,
        client_no: usize,
        first_op: u64,
        seconds: f64,
        min_ops: u64,
        t: &mut Tracer,
    ) -> ClientRun {
        let mut run = ClientRun::default();
        let mut client = Client::connect(self.server().local_addr().to_string());
        let started = Instant::now();
        let mut i = first_op;
        while started.elapsed().as_secs_f64() < seconds || i - first_op < min_ops {
            let kind = MIX[(i as usize + client_no * 7) % MIX.len()];
            let case = &self.queries[(i as usize * CLIENTS + client_no) % self.queries.len()];
            let pair = &self.compares[(i as usize + client_no) % self.compares.len()];
            let execution = format!("smg-bgl-c{client_no}-{i:06}");
            let req = request_for(kind, case, pair, &execution, self.seed.wrapping_add(i));
            i += 1;
            run.attempted += 1;

            let sent = Instant::now();
            let answer = t.span("op", |t| t.span("server.call", |_| client.call(&req)));
            let took = ms_since(sent);
            let mut acknowledged = false;
            match (kind, answer) {
                (Kind::Query, Ok(Response::Table { rows, .. })) => {
                    run.query_ms.push(took);
                    if rows.len() != case.rows {
                        run.wrong.push(format!(
                            "served query rows: got {}, inputs say {}",
                            rows.len(),
                            case.rows
                        ));
                    }
                }
                (Kind::Compare, Ok(Response::CompareDone { json, .. })) => {
                    run.compare_ms.push(took);
                    let aligned = Json::parse(&json)
                        .ok()
                        .and_then(|doc| doc.get("aligned_cells").and_then(Json::as_u64));
                    if aligned != Some(pair.aligned_cells as u64) {
                        run.wrong.push(format!(
                            "served compare aligned cells: got {aligned:?}, inputs say {}",
                            pair.aligned_cells
                        ));
                    }
                }
                (Kind::Load, Ok(Response::Loaded { stats, replayed })) => {
                    run.load_ms.push(took);
                    acknowledged = true;
                    if stats.results != BGL_RESULTS || replayed {
                        run.wrong.push(format!(
                            "served load of {execution}: {} results, replayed {replayed}",
                            stats.results
                        ));
                    }
                }
                (_, Ok(other)) => run.wrong.push(format!("unexpected response {other:?}")),
                // Refused, shed after retries, or failed: no answer.
                (_, Err(e)) => run.wrong.push(format!("request failed: {e}")),
            }
            if kind == Kind::Load {
                run.loads.push(SentLoad {
                    token: token_for(&execution),
                    execution,
                    acknowledged,
                });
            }
        }
        run.retries = client.retries_performed();
        run
    }

    /// Run every client for `seconds` and at least `min_ops` ops each,
    /// and merge.
    fn drive(
        &mut self,
        seconds: f64,
        min_ops: u64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Window {
        let mut w = Window::default();
        let mut forks: Vec<Tracer> = (0..CLIENTS).map(|_| tracer.fork()).collect();
        let started = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let this = &*self;
            let handles: Vec<_> = forks
                .iter_mut()
                .enumerate()
                .map(|(c, t)| {
                    s.spawn(move || this.client_loop(c, this.issued[c], seconds, min_ops, t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        w.work_s = started.elapsed().as_secs_f64();
        for t in forks {
            tracer.absorb(t);
        }
        let (mut retries, mut load_ms) = (0, Vec::new());
        for (c, run) in runs.into_iter().enumerate() {
            self.issued[c] += run.attempted;
            w.op_ms.extend(run.query_ms);
            w.second_ms.extend(run.compare_ms);
            load_ms.extend(run.load_ms);
            w.attempted += run.attempted;
            checks.failures.extend(run.wrong);
            self.loads.extend(run.loads);
            retries += run.retries;
        }
        w.work = w.attempted as f64;
        w.layer.insert("server.client_retries", retries as f64);
        // Bounded by no regression rule: a load waits out the other
        // client's query at the write gate, so its median swings ±40 %
        // from run to run at the ≈ 50 loads a window holds.
        w.layer
            .insert("server.load_p50_ms", stats::median(&load_ms));
        w
    }
}

impl Workload for ServeIrsMixed {
    const NAME: &'static str = "serve.irs_mixed";

    fn setup(cfg: &Config, dir: &Path) -> Result<Self> {
        let IrsFixture {
            store,
            queries,
            compares,
            expected,
        } = IrsFixture::build(cfg.seed, cfg.scale.irs_execs, dir)?;
        let store = Arc::new(store);
        let server = Server::start(Arc::clone(&store), ServerConfig::default())?;
        Ok(ServeIrsMixed {
            store_dir: dir.join("store"),
            store: Some(store),
            server: Some(server),
            queries,
            compares,
            base_results: expected.results,
            seed: cfg.seed,
            warmup_ops: cfg.scale.warmup_ops,
            issued: [0; CLIENTS],
            loads: Vec::new(),
        })
    }

    fn warm_up(&mut self, checks: &mut Checks) -> Result<()> {
        let ops = self.warmup_ops.max(1) as u64;
        self.drive(0.0, ops, &mut Tracer::off(), checks);
        Ok(())
    }

    fn measure(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Window> {
        let before = EngineCounters::read(self.store().db());
        let shed_before = self.server().metrics().admission_shed.get();
        // A whole mix cycle at least, so the window holds a comparison.
        let mut w = self.drive(seconds, MIX.len() as u64, tracer, checks);
        w.engine = EngineCounters::read(self.store().db()).since(&before);
        w.layer.insert(
            "server.admission.shed",
            (self.server().metrics().admission_shed.get() - shed_before) as f64,
        );
        Ok(w)
    }

    /// The wire floor (pings), and the same queries in process while
    /// the server idles: what the server adds to a query.
    fn probes(&mut self, traced: &Window, t: &mut Tracer, layer: &mut Layer) -> Result<()> {
        let mut client = Client::connect(self.server().local_addr().to_string());
        let mut ping_us = Vec::with_capacity(PROBE_PINGS);
        for _ in 0..PROBE_PINGS {
            let sent = Instant::now();
            client.call(&Request::Ping)?;
            ping_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        layer.insert("server.ping_p50_us", stats::median(&ping_us));

        let mut in_process_ms = Vec::with_capacity(PROBE_QUERIES);
        for case in self.queries.iter().cycle().take(PROBE_QUERIES) {
            let started = Instant::now();
            t.span("probe", |t| query_spans(self.store(), case, t))?;
            in_process_ms.push(ms_since(started));
        }
        layer.insert(
            "server.overhead_ms",
            stats::median(&traced.op_ms) - stats::median(&in_process_ms),
        );
        Ok(())
    }

    /// Durability and exactly-once: stop the server, reopen the store,
    /// and find every acknowledged load there once, with its 8 results.
    fn finish(mut self, checks: &mut Checks) -> Result<()> {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let store = self.store.take().expect("store is shared until finish");
        drop(Arc::try_unwrap(store).map_err(|_| "the stopped server still holds the store")?);

        let store = PTDataStore::open(&self.store_dir)?;
        let executions = store.executions();
        let mut applied = 0;
        for load in &self.loads {
            let recorded = store.load_token_entry(&load.token)?;
            let times = executions
                .iter()
                .filter(|(_, name)| *name == load.execution)
                .count();
            applied += times;
            if load.acknowledged {
                let results = recorded.map(|s| s.results as u64);
                checks.ensure(results == Some(BGL_RESULTS) && times == 1, || {
                    format!(
                        "acknowledged load {} is there {times} times with {results:?} results",
                        load.execution
                    )
                });
            } else {
                // Never acknowledged: applied once or not at all.
                checks.ensure(times <= 1 && (times == 1) == recorded.is_some(), || {
                    format!(
                        "unacknowledged load {} is there {times} times",
                        load.execution
                    )
                });
            }
        }
        let results = store.result_count()?;
        let want = self.base_results + applied * BGL_RESULTS as usize;
        checks.ensure(results == want, || {
            format!("store holds {results} results, loads account for {want}")
        });
        let report = store.fsck(false)?;
        checks.ensure(report.error_count() == 0, || {
            format!("fsck after serving: {}", report.summary())
        });
        Ok(())
    }
}

impl Drop for ServeIrsMixed {
    /// A fixture built only to time set-up is dropped without `finish`;
    /// its server threads must not outlive it.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}
