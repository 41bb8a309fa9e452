//! Performance prediction models (§6: "we plan to explore the
//! incorporation of performance predictions and models into PerfTrack for
//! direct comparison to actual program runs").
//!
//! A [`ScalingModel`] is fit from the executions already in the data
//! store: for a chosen metric (and optionally a specific context
//! resource), observations `(process count, value)` are fit to the
//! Amdahl-style form `T(p) = serial + parallel / p` by least squares on
//! the transformed regressor `x = 1/p`. Predictions can be compared
//! against held-out runs, and stored back into PerfTrack as ordinary
//! performance results (tool `PerfTrackModel`) so the existing query and
//! comparison machinery treats them like measurements.

use crate::compare::Compare;
use crate::datastore::PTDataStore;
use crate::error::{PtError, Result};
use crate::query::ResultRow;
use perftrack_model::{PerformanceResult, ResourceName, ResourceSet};

/// One observation used to fit a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    pub processes: usize,
    pub value: f64,
}

/// An Amdahl-style scaling model `T(p) = serial + parallel / p`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingModel {
    pub metric: String,
    pub serial: f64,
    pub parallel: f64,
    /// Coefficient of determination over the training observations.
    pub r_squared: f64,
    pub observations: Vec<Observation>,
}

impl ScalingModel {
    /// Fit from observations by least squares on `x = 1/p`. Needs at
    /// least two distinct process counts.
    pub fn fit(metric: &str, observations: &[Observation]) -> Result<ScalingModel> {
        let distinct: std::collections::BTreeSet<usize> =
            observations.iter().map(|o| o.processes).collect();
        if distinct.len() < 2 {
            return Err(PtError::Invalid(format!(
                "scaling fit needs ≥2 distinct process counts, got {}",
                distinct.len()
            )));
        }
        let n = observations.len() as f64;
        let xs: Vec<f64> = observations
            .iter()
            .map(|o| 1.0 / o.processes as f64)
            .collect();
        let ys: Vec<f64> = observations.iter().map(|o| o.value).collect();
        let sx: f64 = xs.iter().sum();
        let sy: f64 = ys.iter().sum();
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return Err(PtError::Invalid("degenerate regression".into()));
        }
        let mut parallel = (n * sxy - sx * sy) / denom;
        let mut serial = (sy - parallel * sx) / n;
        // Physical constraint: the serial fraction cannot be negative.
        // Noise can push the unconstrained fit slightly below zero, which
        // makes efficiency extrapolations blow up; clamp and refit the
        // slope through the origin instead.
        if serial < 0.0 {
            serial = 0.0;
            parallel = sxy / sxx;
        }
        // R².
        let mean = sy / n;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
        let ss_res: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (y - (serial + parallel * x)).powi(2))
            .sum();
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };
        Ok(ScalingModel {
            metric: metric.to_string(),
            serial,
            parallel,
            r_squared,
            observations: observations.to_vec(),
        })
    }

    /// Predicted value at `processes`.
    pub fn predict(&self, processes: usize) -> f64 {
        self.serial + self.parallel / processes as f64
    }

    /// Predicted parallel efficiency at `processes` relative to the
    /// smallest trained process count.
    pub fn efficiency(&self, processes: usize) -> f64 {
        let p0 = self
            .observations
            .iter()
            .map(|o| o.processes)
            .min()
            .unwrap_or(1);
        let t0 = self.predict(p0);
        let tp = self.predict(processes);
        (t0 * p0 as f64) / (tp * processes as f64)
    }
}

/// Model fitting and prediction over a data store.
pub struct Predictor<'s> {
    store: &'s PTDataStore,
}

/// How a prediction compared to a real run.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionCheck {
    pub execution: String,
    pub processes: usize,
    pub predicted: f64,
    pub actual: f64,
    /// `(actual - predicted) / actual`.
    pub relative_error: f64,
}

impl<'s> Predictor<'s> {
    /// Bind to a store.
    pub fn new(store: &'s PTDataStore) -> Self {
        Predictor { store }
    }

    /// Observations of `metric` per execution, reading the process count
    /// from the run resource's `processes` attribute (PTrun/IRS capture
    /// both record it).
    pub fn observations(&self, metric: &str, executions: &[&str]) -> Result<Vec<Observation>> {
        let all = Compare::new(self.store).rows_of(executions)?;
        let mut out = Vec::new();
        for exec in executions {
            let rows: Vec<&ResultRow> = all
                .iter()
                .filter(|r| &*r.execution == *exec && &*r.metric == metric)
                .collect();
            if rows.is_empty() {
                return Err(PtError::NotFound(format!("{metric} for execution {exec}")));
            }
            let processes = self.processes_of(rows[0])?;
            // Mean over matching rows (usually one).
            let value = rows.iter().map(|r| r.value).sum::<f64>() / rows.len() as f64;
            out.push(Observation { processes, value });
        }
        Ok(out)
    }

    fn processes_of(&self, row: &ResultRow) -> Result<usize> {
        for &res in row.context.iter() {
            let attrs = self.store.attributes_of(res)?;
            for (name, value, _) in attrs {
                if name == "processes" || name == "process count" {
                    if let Ok(n) = value.parse() {
                        return Ok(n);
                    }
                }
            }
        }
        Err(PtError::NotFound(format!(
            "process count attribute in context of result {}",
            row.result_id
        )))
    }

    /// Fit a scaling model for `metric` from the named executions.
    pub fn fit_scaling(&self, metric: &str, executions: &[&str]) -> Result<ScalingModel> {
        let obs = self.observations(metric, executions)?;
        ScalingModel::fit(metric, &obs)
    }

    /// Compare the model against a held-out execution.
    pub fn check(&self, model: &ScalingModel, execution: &str) -> Result<PredictionCheck> {
        let obs = self.observations(&model.metric, &[execution])?;
        let o = obs[0];
        let predicted = model.predict(o.processes);
        Ok(PredictionCheck {
            execution: execution.to_string(),
            processes: o.processes,
            predicted,
            actual: o.value,
            relative_error: (o.value - predicted) / o.value,
        })
    }

    /// Store a model's prediction as a performance result (tool
    /// `PerfTrackModel`) on a *predicted* execution, so it can be compared
    /// to real runs with the ordinary comparison operators.
    pub fn store_prediction(
        &self,
        model: &ScalingModel,
        predicted_exec: &str,
        application: &str,
        processes: usize,
        context: Vec<ResourceName>,
        units: &str,
    ) -> Result<i64> {
        let mut loader = self.store.begin_load();
        loader.ensure_execution(predicted_exec, application)?;
        let run = format!("/{predicted_exec}-run");
        loader.ensure_resource(&run, "execution")?;
        loader.add_attribute(
            &run,
            "processes",
            &processes.to_string(),
            perftrack_ptdf::AttrType::String,
        )?;
        loader.add_attribute(&run, "predicted", "true", perftrack_ptdf::AttrType::String)?;
        let mut resources = vec![ResourceName::new(&run).map_err(PtError::Model)?];
        resources.extend(context);
        let id = loader.add_performance_result(&PerformanceResult {
            execution: predicted_exec.to_string(),
            metric: model.metric.clone(),
            value: model.predict(processes),
            units: units.to_string(),
            tool: "PerfTrackModel".to_string(),
            resource_sets: vec![ResourceSet::primary(resources)],
        })?;
        loader.commit()?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_amdahl_parameters() {
        // T(p) = 2 + 40/p exactly.
        let obs: Vec<Observation> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&p| Observation {
                processes: p,
                value: 2.0 + 40.0 / p as f64,
            })
            .collect();
        let m = ScalingModel::fit("wall time", &obs).unwrap();
        assert!((m.serial - 2.0).abs() < 1e-9, "serial {}", m.serial);
        assert!((m.parallel - 40.0).abs() < 1e-9);
        assert!(m.r_squared > 0.999999);
        assert!((m.predict(32) - (2.0 + 40.0 / 32.0)).abs() < 1e-9);
        // Efficiency falls with p when there is a serial fraction.
        assert!(m.efficiency(16) < m.efficiency(2));
    }

    #[test]
    fn fit_requires_two_process_counts() {
        let obs = vec![
            Observation {
                processes: 4,
                value: 10.0,
            },
            Observation {
                processes: 4,
                value: 11.0,
            },
        ];
        assert!(ScalingModel::fit("m", &obs).is_err());
    }

    #[test]
    fn fit_tolerates_noise() {
        let obs: Vec<Observation> = [2usize, 4, 8, 16, 32]
            .iter()
            .enumerate()
            .map(|(i, &p)| Observation {
                processes: p,
                value: (1.0 + 100.0 / p as f64) * (1.0 + 0.02 * ((i % 3) as f64 - 1.0)),
            })
            .collect();
        let m = ScalingModel::fit("t", &obs).unwrap();
        assert!((m.parallel - 100.0).abs() / 100.0 < 0.1);
        assert!(m.r_squared > 0.99);
    }

    fn store_with_sweep(nps: &[usize]) -> PTDataStore {
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf = String::from("Application A\nResource /A application\n");
        for &np in nps {
            let exec = format!("e{np}");
            ptdf.push_str(&format!("Execution {exec} A\n"));
            ptdf.push_str(&format!("Resource /{exec}-run execution\n"));
            ptdf.push_str(&format!(
                "ResourceAttribute /{exec}-run processes {np} string\n"
            ));
            ptdf.push_str(&format!(
                "PerfResult {exec} \"/A,/{exec}-run(primary)\" T \"solve time\" {} seconds\n",
                3.0 + 120.0 / np as f64
            ));
        }
        store.load_ptdf_str(&ptdf).unwrap();
        store
    }

    #[test]
    fn fit_from_store_and_check_holdout() {
        let store = store_with_sweep(&[4, 8, 16, 32, 64]);
        let p = Predictor::new(&store);
        // Train on four, hold out np=64.
        let model = p
            .fit_scaling("solve time", &["e4", "e8", "e16", "e32"])
            .unwrap();
        assert!((model.serial - 3.0).abs() < 1e-6);
        assert!((model.parallel - 120.0).abs() < 1e-6);
        let check = p.check(&model, "e64").unwrap();
        assert_eq!(check.processes, 64);
        assert!(check.relative_error.abs() < 1e-6, "{check:?}");
    }

    #[test]
    fn missing_metric_or_attribute_errors() {
        let store = store_with_sweep(&[4, 8]);
        let p = Predictor::new(&store);
        assert!(p.fit_scaling("no such metric", &["e4", "e8"]).is_err());
        assert!(p.observations("solve time", &["ghost"]).is_err());
    }

    #[test]
    fn stored_prediction_is_comparable_to_reality() {
        let store = store_with_sweep(&[4, 8, 16, 32, 128]);
        let p = Predictor::new(&store);
        let model = p
            .fit_scaling("solve time", &["e4", "e8", "e16", "e32"])
            .unwrap();
        p.store_prediction(
            &model,
            "predicted-128",
            "A",
            128,
            vec![ResourceName::new("/A").unwrap()],
            "seconds",
        )
        .unwrap();
        // The prediction behaves like a measurement: the comparison
        // operators align it against the real np=128 run.
        let t = Compare::new(&store)
            .tree_compare(&["predicted-128", "e128"], &Default::default())
            .unwrap();
        assert_eq!(t.aligned_cells, 1);
        assert!(t.drift.is_empty(), "{:?}", t.drift);
        let cell = &t.roots[0].metrics["solve time"];
        let ratio = cell[1].unwrap() / cell[0].unwrap();
        assert!((ratio - 1.0).abs() < 0.01, "prediction within 1%: {ratio}");
        // Predicted executions are flagged.
        let run = store
            .resource_by_name("/predicted-128-run")
            .unwrap()
            .unwrap();
        let attrs = store.attributes_of(run.id).unwrap();
        assert!(attrs
            .iter()
            .any(|(n, v, _)| n == "predicted" && v == "true"));
    }
}
