//! Compare mode: a parent's and a change's result sets, metric by metric.
//!
//! Each side is a directory of result records (what a pass writes under
//! `out/`). For every (workload, end-to-end metric) the report gives
//! each side's median and quartiles and a verdict:
//!
//! - **better**: the change wins at least nine tenths of the seed-paired
//!   runs and the medians differ by more than the parent's interquartile
//!   range;
//! - **unresolved**: the parent's own spread is wider than the bound, and
//!   not every change run beats every parent run;
//! - **worse**: the change's median is worse than the parent's by more than
//!   the bound;
//! - **within bound** otherwise.
//!
//! Beside each workload it prints the per-layer medians of the traced
//! records, so a delta can be read layer by layer. Records from different
//! machines are refused.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use wadc_obs::json::Json;

use crate::provenance::Provenance;
use crate::spec::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

/// One result record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Traced pass.
    pub trace: bool,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
    /// Machine key (see [`Provenance::machine`]).
    pub machine: String,
}

impl Record {
    /// Parses a record written by a pass.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing field.
    pub fn parse(text: &str) -> Result<Record, String> {
        let j = Json::parse(text)?;
        let field = |k: &str| j.get(k).ok_or_else(|| format!("record lacks {k:?}"));
        let mut metrics = BTreeMap::new();
        if let Json::Obj(fields) = field("metrics")? {
            for (name, v) in fields {
                if let Some(x) = v.get("value").and_then(Json::as_num) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .into(),
            seed: field("seed")?.as_num().ok_or("seed is not a number")? as u64,
            trace: matches!(field("trace")?, Json::Bool(true)),
            metrics,
            machine: Provenance::machine_of(field("provenance")?)
                .ok_or("record lacks machine provenance")?,
        })
    }
}

/// Loads every `*.json` record under `dir`, recursively.
///
/// # Errors
///
/// An unreadable directory or file, or a malformed record.
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            out.extend(load_dir(&p)?);
        } else if p.extension().is_some_and(|x| x == "json") && !is_span_trace(&p) {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            out.push(Record::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?);
        }
    }
    Ok(out)
}

fn is_span_trace(p: &Path) -> bool {
    p.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".trace.json"))
}

/// A verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule above.
    Better,
    /// A regression beyond the bound.
    Worse,
    /// No regression beyond the bound.
    WithinBound,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies seed-paired values `(seed, value)` of one metric.
pub fn classify(parent: &[(u64, f64)], change: &[(u64, f64)], m: &Metric) -> Option<Verdict> {
    let p: Vec<f64> = parent.iter().map(|x| x.1).collect();
    let c: Vec<f64> = change.iter().map(|x| x.1).collect();
    let (mp, mc) = (median(&p)?, median(&c)?);
    let (q1, q3) = quartiles(&p).unwrap_or((mp, mp));
    let bound = m.bound.unwrap_or(0.0);
    // Gain in the metric's good direction.
    let gain = |from: f64, to: f64| match m.better {
        Better::Higher => to - from,
        Better::Lower => from - to,
    };
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|&(s, pv)| change.iter().find(|x| x.0 == s).map(|&(_, cv)| (pv, cv)))
        .collect();
    let wins = pairs.iter().filter(|&&(pv, cv)| gain(pv, cv) > 0.0).count();
    let all_better = p.iter().all(|&pv| c.iter().all(|&cv| gain(pv, cv) > 0.0));
    let spread = q3 - q1;
    let nine_tenths = !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && gain(mp, mc) > spread;
    Some(if nine_tenths || all_better {
        Verdict::Better
    } else if spread > bound * mp.abs() {
        Verdict::Unresolved
    } else if -gain(mp, mc) > bound * mp.abs() {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    })
}

fn values(records: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<(u64, f64)> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).map(|&v| (r.seed, v)))
        .collect()
}

fn summary(v: &[(u64, f64)]) -> String {
    let xs: Vec<f64> = v.iter().map(|x| x.1).collect();
    match (median(&xs), quartiles(&xs)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", xs.len()),
        (Some(m), None) => format!("{m:.6} n={}", xs.len()),
        _ => "-".into(),
    }
}

/// Compares the records under `parent` with those under `change`.
///
/// # Errors
///
/// Unreadable records, or records from more than one machine.
pub fn compare(parent: &Path, change: &Path) -> Result<String, String> {
    let p = load_dir(parent)?;
    let c = load_dir(change)?;
    let machines: std::collections::BTreeSet<&str> =
        p.iter().chain(&c).map(|r| r.machine.as_str()).collect();
    if machines.len() > 1 {
        return Err(format!(
            "results come from different machines and cannot be compared: {machines:?}"
        ));
    }
    let workloads: std::collections::BTreeSet<&str> =
        p.iter().chain(&c).map(|r| r.workload.as_str()).collect();
    let mut out = String::new();
    for w in workloads {
        let _ = writeln!(out, "== {w}");
        for m in END_TO_END {
            let (pv, cv) = (values(&p, w, false, m.name), values(&c, w, false, m.name));
            let verdict = classify(&pv, &cv, m).map_or("no data", Verdict::label);
            let _ = writeln!(
                out,
                "  {:<18} {:<6} parent {}  change {}  -> {verdict}",
                m.name,
                m.unit,
                summary(&pv),
                summary(&cv)
            );
        }
        let _ = writeln!(out, "  per-layer medians (parent -> change):");
        for m in PER_LAYER {
            let pv: Vec<f64> = values(&p, w, true, m.name).iter().map(|x| x.1).collect();
            let cv: Vec<f64> = values(&c, w, true, m.name).iter().map(|x| x.1).collect();
            if let (Some(a), Some(b)) = (median(&pv), median(&cv)) {
                let delta = if a != 0.0 {
                    format!("{:+.1}%", (b - a) / a.abs() * 100.0)
                } else {
                    "-".into()
                };
                let _ = writeln!(
                    out,
                    "    {:<36} {a:>14.4} -> {b:>14.4} {:<9} {delta}",
                    m.name, m.unit
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn seeded(xs: &[f64]) -> Vec<(u64, f64)> {
        xs.iter().enumerate().map(|(i, &x)| (i as u64, x)).collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let m = spec::metric("runs_per_s").expect("named");
        let parent = seeded(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ]);
        let faster: Vec<(u64, f64)> = parent.iter().map(|&(s, v)| (s, v * 1.2)).collect();
        let bound = m.bound.expect("an end-to-end metric");
        let slower: Vec<(u64, f64)> = parent
            .iter()
            .map(|&(s, v)| (s, v * (1.0 - 1.5 * bound)))
            .collect();
        let same: Vec<(u64, f64)> = parent.iter().map(|&(s, v)| (s, v * 0.99)).collect();
        assert_eq!(classify(&parent, &faster, m), Some(Verdict::Better));
        assert_eq!(classify(&parent, &slower, m), Some(Verdict::Worse));
        assert_eq!(classify(&parent, &same, m), Some(Verdict::WithinBound));
        let noisy = seeded(&[
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ]);
        assert_eq!(classify(&noisy, &same, m), Some(Verdict::Unresolved));
    }
}
