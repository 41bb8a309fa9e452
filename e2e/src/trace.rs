//! Spans recorded from outside the engine: the benchmark wraps each call
//! into a layer's public function in a span. Spans stay in memory and are
//! written out when the run ends. Spans inside the engine are a later
//! change (ROADMAP item 2); until then this is the only breakdown.

use perftrack_store::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an op's root span.
    pub parent: Option<u32>,
    /// Spans of one op share its id.
    pub op_id: u32,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. A disabled tracer runs the closures and
/// records nothing, so the untraced run shares the op code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u32,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// A tracer that only runs the closures.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// Take over the spans of a forked tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let op_base = self.next_op;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op_id += op_base;
            s
        }));
        self.next_op += other.next_op;
    }

    /// Run `f` inside a span named `name`. A span opened while no other
    /// is open is the root of a new op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied();
        let op_id = match parent {
            Some(p) => self.spans[p as usize].op_id,
            None => {
                self.next_op += 1;
                self.next_op - 1
            }
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op_id,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus what its child
    /// spans cover.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.nanos();
            }
        }
        let mut by_name: BTreeMap<&'static str, (SelfTime, BTreeSet<u32>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let (row, ops) = by_name.entry(s.name).or_insert_with(|| {
                (
                    SelfTime {
                        name: s.name,
                        count: 0,
                        ops: 0,
                        total_ns: 0,
                        self_ns: 0,
                    },
                    BTreeSet::new(),
                )
            });
            row.count += 1;
            row.total_ns += s.nanos();
            row.self_ns += s.nanos().saturating_sub(child_ns[i]);
            ops.insert(s.op_id);
        }
        by_name
            .into_values()
            .map(|(mut row, ops)| {
                row.ops = ops.len() as u64;
                row
            })
            .collect()
    }

    /// Share of the time of the root spans named `root` that no child
    /// span covers.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            match s.parent {
                None if s.name == root => total += s.nanos(),
                Some(p) => {
                    let parent = &self.spans[p as usize];
                    if parent.parent.is_none() && parent.name == root {
                        covered += s.nanos();
                    }
                }
                None => {}
            }
        }
        if total == 0 {
            0.0
        } else {
            total.saturating_sub(covered) as f64 / total as f64
        }
    }

    /// The trace as a JSON document: every span, then the self-time table.
    pub fn to_json(&self, workload: &str, summary: Vec<(String, Json)>) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::UInt(s.start_ns)),
                    ("end_ns".into(), Json::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::UInt(u64::from(p))),
                    ),
                    ("op_id".into(), Json::UInt(u64::from(s.op_id))),
                ])
            })
            .collect();
        let table = self.self_times().iter().map(SelfTime::to_json).collect();
        let mut doc = vec![
            ("schema".into(), Json::Str("pt-e2e-trace/v1".into())),
            ("workload".into(), Json::Str(workload.into())),
        ];
        doc.extend(summary);
        doc.push(("self_time".into(), Json::Arr(table)));
        doc.push(("spans".into(), Json::Arr(spans)));
        Json::Obj(doc)
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    pub name: &'static str,
    /// Spans of this name.
    pub count: u64,
    /// Ops that contain at least one such span.
    pub ops: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time, in milliseconds, per op that contains the span.
    pub fn self_ms_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e6 / self.ops as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.into())),
            ("count".into(), Json::UInt(self.count)),
            ("ops".into(), Json::UInt(self.ops)),
            ("total_ms".into(), Json::Num(self.total_ns as f64 / 1e6)),
            ("self_ms".into(), Json::Num(self.self_ns as f64 / 1e6)),
            ("self_ms_per_op".into(), Json::Num(self.self_ms_per_op())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.span("op", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| {
                t.span("a", |_| ());
            });
        });
        t.span("op", |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].op_id, 0);
        assert_eq!(spans[4].op_id, 1);
        let rows = t.self_times();
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!((a.count, a.ops), (2, 1));
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        assert_eq!(op.ops, 2);
        assert!(op.self_ns < op.total_ns);
        assert!(t.unattributed_share("op") < 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_forks_merge() {
        let mut off = Tracer::off();
        assert_eq!(off.span("op", |_| 7), 7);
        assert!(off.spans().is_empty());

        let mut main = Tracer::on();
        main.span("op", |_| ());
        let mut child = main.fork();
        child.span("op", |t| t.span("x", |_| ()));
        main.absorb(child);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].op_id, 1);
    }
}
