//! A pass's outcome: the result line a `BENCHMARK.json` harness reads,
//! the human-readable table, and the result file compare mode reads.

use wadc_obs::json::Json;

use crate::provenance::Provenance;
use crate::spec::{self, Metric};

/// The outcome of one pass.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// `true` for the traced (per-layer) pass.
    pub trace: bool,
    /// Engine runs attempted.
    pub attempted: u64,
    /// Runs that failed a check (see `failed_frac`).
    pub failed: u64,
    /// Checks that failed, one line each.
    pub failures: Vec<String>,
    /// Context printed with the table, such as the paper's figures.
    pub notes: Vec<String>,
    /// Measured metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Self {
        Outcome {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records a line of context for the table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "unknown metric {name}");
        self.metrics.push((name, value));
    }

    /// The metrics this pass must report.
    pub fn expected(&self) -> &'static [Metric] {
        if self.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        }
    }

    /// Every check passed and every expected metric is present and finite.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.failed == 0
            && self.expected().iter().all(|m| {
                self.metrics
                    .iter()
                    .any(|&(n, v)| n == m.name && v.is_finite())
            })
    }

    fn metrics_json(&self) -> Json {
        let mut j = Json::obj();
        for &(name, value) in &self.metrics {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            j = j.field(name, Json::obj().field("value", value).field("unit", unit));
        }
        j
    }

    /// The result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted as f64)
            .field("failed", self.failed as f64)
            .field("metrics", self.metrics_json())
            .to_string_compact()
    }

    /// The full record written under `out/`: the result plus workload,
    /// seed, failures, notes and provenance.
    pub fn record(&self, provenance: &Provenance, seconds: f64) -> Json {
        Json::obj()
            .field("workload", self.workload)
            .field("seed", self.seed as f64)
            .field("trace", self.trace)
            .field("seconds", seconds)
            .field("correct", self.correct())
            .field("attempted", self.attempted as f64)
            .field("failed", self.failed as f64)
            .field(
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            )
            .field(
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::from(n.as_str())).collect()),
            )
            .field("metrics", self.metrics_json())
            .field("provenance", provenance.to_json())
    }

    /// The human-readable table: every metric with unit and direction.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({} pass): {} runs, {} failed\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for &(name, value) in &self.metrics {
            let m = spec::metric(name).expect("metrics come from the tables");
            out.push_str(&format!(
                "  {:<36} {:>16.6} {:<9} ({} is better)\n",
                name,
                value,
                m.unit,
                m.better.label()
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}
