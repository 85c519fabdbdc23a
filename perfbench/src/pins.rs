//! Pinned per-run digests: the output check of every pass.
//!
//! `pins/<workload>.txt` holds one line per pool configuration, in
//! configuration order: the index, then the `RunResult::digest` of each
//! algorithm in [`Workload::algorithms`] order. The pins are what the
//! library's own study driver (`run_study_parallel` at threads = 1)
//! produces for the pool; `wadc-perfbench pin` regenerates them.

use std::fmt::Write as _;
use std::path::PathBuf;

use wadc_core::study::run_study_parallel;

use crate::workload::Workload;

/// Pinned digests, `[config][algorithm]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pins(pub Vec<Vec<u64>>);

/// The pin file of `workload`.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("pins")
        .join(format!("{workload}.txt"))
}

impl Pins {
    /// The pinned digest of algorithm `alg` on configuration `config`.
    pub fn get(&self, config: usize, alg: usize) -> Option<u64> {
        self.0.get(config)?.get(alg).copied()
    }

    /// Loads the pins of `w`, checking they cover its pool.
    ///
    /// # Errors
    ///
    /// A missing or malformed file, or one whose shape is not the pool's.
    pub fn load(w: &Workload) -> Result<Pins, String> {
        let file = path(w.name);
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let mut rows = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let mut fields = line.split_whitespace();
            let index: usize = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("bad pin line {line:?}"))?;
            if index != rows.len() {
                return Err(format!("pin lines out of order at config {index}"));
            }
            let digests = fields
                .map(|f| u64::from_str_radix(f, 16).map_err(|_| format!("bad digest {f:?}")))
                .collect::<Result<Vec<_>, _>>()?;
            if digests.len() != w.algorithms().len() {
                return Err(format!("config {index}: {} digests", digests.len()));
            }
            rows.push(digests);
        }
        if rows.len() != w.params.n_configs {
            return Err(format!(
                "{} pins {} configs, the pool has {}",
                w.name,
                rows.len(),
                w.params.n_configs
            ));
        }
        Ok(Pins(rows))
    }

    /// Computes the pins of `w` with the library's study driver.
    pub fn compute(w: &Workload) -> Pins {
        let study = run_study_parallel(&w.params, 1);
        Pins(
            study
                .outcomes
                .iter()
                .map(|o| {
                    std::iter::once(&o.download_all)
                        .chain(&o.results)
                        .map(|r| r.digest())
                        .collect()
                })
                .collect(),
        )
    }

    /// The pin file's text.
    pub fn render(&self, w: &Workload) -> String {
        let names: Vec<&str> = w.algorithms().iter().map(|a| a.name()).collect();
        let mut out = format!(
            "# {}: RunResult::digest per run, study seed {}, {} configs\n# config {}\n",
            w.name,
            w.params.master_seed,
            self.0.len(),
            names.join(" ")
        );
        for (i, row) in self.0.iter().enumerate() {
            let _ = write!(out, "{i}");
            for d in row {
                let _ = write!(out, " {d:016x}");
            }
            out.push('\n');
        }
        out
    }
}
