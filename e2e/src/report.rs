//! Output: the one-line result the driver reads, the table people read,
//! the stored run (`pt-e2e/v1`) that `compare-runs` checks against the
//! bounds in `BENCHMARK.json`, and the run as PTdf, so that PerfTrack
//! can hold and compare its own benchmark history.

use crate::spec::{self, MetricSpec};
use crate::{stats, Outcome, Result};
use perftrack_ptdf::{AttrType, PtdfResourceSet, PtdfStatement};
use perftrack_store::Json;
use std::fmt::Write as _;

/// A JSON number of either kind.
fn number(j: Option<&Json>) -> Option<f64> {
    match j {
        Some(Json::Num(v)) => Some(*v),
        Some(Json::UInt(v)) => Some(*v as f64),
        _ => None,
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The last line of standard output in driver mode.
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.spec.name.to_string(),
                obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.spec.unit.into())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::UInt(o.attempted)),
        ("failed", Json::UInt(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .emit()
}

/// One run of one workload, for people: every metric by name with its
/// unit, what it means on this workload, and its sample count.
pub fn render(o: &Outcome) -> String {
    let mut out = format!(
        "== {} (seed {}, {})\n",
        o.workload,
        o.seed,
        if o.traced { "traced" } else { "untraced" }
    );
    // A layer the workload does not touch reads 0: not worth a line.
    for m in o.metrics.iter().filter(|m| !(o.traced && m.value == 0.0)) {
        let meaning = spec::meaning(o.workload, m.spec.name);
        let _ = writeln!(
            out,
            "  {:<34} {:>14.4} {:<7} {:<22} {}",
            m.spec.name, m.value, m.spec.unit, meaning, m.note
        );
    }
    let _ = writeln!(
        out,
        "  {:<34} {:>14.6} {:<6} {} failed of {} attempted",
        "failed_share",
        o.failed_share(),
        "ratio",
        o.failed,
        o.attempted
    );
    for f in o.failures.iter().take(8) {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    if o.traced && o.value("trace.unattributed_share").unwrap_or(0.0) > spec::UNATTRIBUTED_LIMIT {
        let _ = writeln!(
            out,
            "  FLAG: more than {:.0} % of op time lies outside every child span",
            spec::UNATTRIBUTED_LIMIT * 100.0
        );
    }
    out
}

/// A metric over the repeats of a full run: median and median absolute
/// deviation.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub spec: MetricSpec,
    pub median: f64,
    pub mad: f64,
    pub n: usize,
}

/// One workload of a stored run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Summary>,
    pub per_layer: Vec<Summary>,
}

fn summarize(runs: &[Outcome]) -> Vec<Summary> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .metrics
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.value(m.spec.name)).collect();
            Summary {
                spec: m.spec,
                median: stats::median(&values),
                mad: stats::mad(&values),
                n: values.len(),
            }
        })
        .collect()
}

impl WorkloadReport {
    /// Fold the untraced repeats and the traced run of one workload.
    pub fn of(untraced: &[Outcome], traced: &Outcome) -> Self {
        WorkloadReport {
            name: traced.workload,
            attempted: untraced.iter().map(|o| o.attempted).sum::<u64>() + traced.attempted,
            failed: untraced.iter().map(|o| o.failed).sum::<u64>() + traced.failed,
            end_to_end: summarize(untraced),
            per_layer: summarize(std::slice::from_ref(traced)),
        }
    }
}

/// A stored run: what `run.sh` keeps and `compare-runs` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub seed: u64,
    pub seconds: f64,
    pub commit: String,
    pub machine: String,
    pub workloads: Vec<WorkloadReport>,
}

fn summaries_json(rows: &[Summary]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|s| {
                (
                    s.spec.name.to_string(),
                    obj(vec![
                        ("value", Json::Num(s.median)),
                        ("unit", Json::Str(s.spec.unit.into())),
                        ("mad", Json::Num(s.mad)),
                        ("n", Json::UInt(s.n as u64)),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunReport {
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema", Json::Str("pt-e2e/v1".into())),
            ("seed", Json::UInt(self.seed)),
            ("seconds", Json::Num(self.seconds)),
            ("commit", Json::Str(self.commit.clone())),
            ("machine", Json::Str(self.machine.clone())),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            obj(vec![
                                ("name", Json::Str(w.name.into())),
                                ("attempted", Json::UInt(w.attempted)),
                                ("failed", Json::UInt(w.failed)),
                                ("end_to_end", summaries_json(&w.end_to_end)),
                                ("per_layer", summaries_json(&w.per_layer)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Median ± MAD of every metric of every workload; per-layer metrics
    /// of layers a workload does not touch read 0 and are left out.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "== {}: failed_share {:.6} ({} of {})",
                w.name,
                w.failed as f64 / w.attempted.max(1) as f64,
                w.failed,
                w.attempted
            );
            let touched = w.per_layer.iter().filter(|s| s.median != 0.0);
            for s in w.end_to_end.iter().chain(touched) {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>14.4} {:<7} ±{:<12.4} n={:<3} {}",
                    s.spec.name,
                    s.median,
                    s.spec.unit,
                    s.mad,
                    s.n,
                    spec::meaning(w.name, s.spec.name)
                );
            }
        }
        out
    }

    /// The run as PTdf: machine, commit, workload and layer as
    /// resources, every metric a performance result of one execution.
    pub fn to_ptdf(&self) -> Vec<PtdfStatement> {
        let execution = format!("e2e-{}-s{}", self.commit, self.seed);
        let run = format!("/{execution}-run");
        let machine = format!("/sandbox/{}", self.machine);
        let resource = |name: &str, type_path: &str| PtdfStatement::Resource {
            name: name.to_string(),
            type_path: type_path.to_string(),
            execution: None,
        };
        let mut out = vec![
            PtdfStatement::Application {
                name: "pt-e2e".into(),
            },
            PtdfStatement::Execution {
                name: execution.clone(),
                application: "pt-e2e".into(),
            },
        ];
        for t in [
            "benchmark",
            "benchmark/workload",
            "benchmark/workload/layer",
        ] {
            out.push(PtdfStatement::ResourceType {
                type_path: t.into(),
            });
        }
        out.push(resource(&run, "execution"));
        out.push(resource("/sandbox", "grid"));
        out.push(resource(&machine, "grid/machine"));
        out.push(resource("/pt-e2e", "benchmark"));
        // The machine is a resource of its own and an attribute of the run,
        // not a context of the results: in a context it would collect one
        // cell per metric name, averaged over the workloads.
        for (attribute, value) in [
            ("machine", machine.clone()),
            ("commit", self.commit.clone()),
            ("seed", self.seed.to_string()),
            ("seconds", self.seconds.to_string()),
        ] {
            out.push(PtdfStatement::ResourceAttribute {
                resource: run.clone(),
                attribute: attribute.into(),
                value,
                attr_type: AttrType::String,
            });
        }
        let mut declared = std::collections::BTreeSet::new();
        for w in &self.workloads {
            let workload = format!("/pt-e2e/{}", w.name);
            out.push(resource(&workload, "benchmark/workload"));
            for s in w.end_to_end.iter().chain(&w.per_layer) {
                // `store.wal.syncs_per_op` belongs to layer `store.wal`;
                // an end-to-end metric belongs to the workload itself.
                let at = match s.spec.name.rsplit_once('.') {
                    Some((layer, _)) => {
                        let name = format!("{workload}/{layer}");
                        if declared.insert(name.clone()) {
                            out.push(resource(&name, "benchmark/workload/layer"));
                        }
                        name
                    }
                    None => workload.clone(),
                };
                out.push(PtdfStatement::PerfResult {
                    execution: execution.clone(),
                    resource_sets: vec![PtdfResourceSet {
                        resources: vec![at, run.clone()],
                        set_type: "primary".into(),
                    }],
                    tool: "pt-e2e".into(),
                    metric: s.spec.name.into(),
                    value: s.median,
                    units: s.spec.unit.into(),
                });
            }
        }
        out
    }
}

/// The end-to-end values of a stored run: (workload, metric) → value.
fn stored_values(doc: &Json) -> Result<Vec<(String, String, f64)>> {
    if doc.get("schema").and_then(Json::as_str) != Some("pt-e2e/v1") {
        return Err("not a pt-e2e/v1 run".into());
    }
    let mut out = Vec::new();
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        if let Some(Json::Obj(metrics)) = w.get("end_to_end") {
            for (metric, m) in metrics {
                let value = number(m.get("value"))
                    .ok_or_else(|| format!("{name}.{metric} has no value"))?;
                out.push((name.to_string(), metric.clone(), value));
            }
        }
    }
    Ok(out)
}

/// The bound of each end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark: &Json) -> Result<Vec<(String, f64)>> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            name.zip(number(m.get("bound")))
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "an end_to_end metric lacks a name or a bound".into())
        })
        .collect()
}

/// Compare two stored runs: the table, and whether every end-to-end
/// metric of every workload agrees within its bound.
pub fn compare_runs(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, bool)> {
    let bounds = bounds(benchmark)?;
    let b_values = stored_values(b)?;
    let mut table = String::new();
    let mut agree = true;
    for (workload, metric, va) in stored_values(a)? {
        let vb = b_values
            .iter()
            .find(|(w, m, _)| *w == workload && *m == metric)
            .map(|(_, _, v)| *v)
            .ok_or_else(|| format!("{workload}.{metric} is missing from the second run"))?;
        let bound = bounds
            .iter()
            .find(|(n, _)| *n == metric)
            .map(|(_, b)| *b)
            .ok_or_else(|| format!("{metric} has no bound in BENCHMARK.json"))?;
        let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
        let within = change.abs() <= bound;
        agree &= within;
        let _ = writeln!(
            table,
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>+8.2} %  bound {:>4.0} %  {}",
            workload,
            metric,
            va,
            vb,
            change * 100.0,
            bound * 100.0,
            if within { "ok" } else { "DIFFERS" }
        );
    }
    Ok((table, agree))
}

/// The regression bound the noise floor of a stored run supports, per
/// end-to-end metric: `max(5 %, 3 × MAD ÷ median)`, the largest over the
/// workloads, with the repeats it rests on.
pub fn supported_bounds(run: &Json) -> Result<String> {
    let mut out = String::new();
    for spec in &spec::END_TO_END {
        let mut bound: f64 = 0.05;
        let mut repeats = u64::MAX;
        for w in run.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
            let m = w
                .get("end_to_end")
                .and_then(|e| e.get(spec.name))
                .ok_or_else(|| format!("the run has no {}", spec.name))?;
            let field = |key: &str| number(m.get(key)).unwrap_or(0.0);
            bound = bound.max(3.0 * field("mad") / field("value").abs().max(f64::MIN_POSITIVE));
            repeats = repeats.min(field("n") as u64);
        }
        let _ = writeln!(
            out,
            "{:<18} bound {:>5.1} %  from {repeats} repeats{}",
            spec.name,
            bound * 100.0,
            if repeats < 5 {
                " (fewer than 5: a guess)"
            } else {
                ""
            }
        );
    }
    Ok(out)
}
