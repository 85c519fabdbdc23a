//! # wadc-bench — figure regeneration and performance benches
//!
//! One binary per figure of the paper's evaluation:
//!
//! | binary | paper figure | content |
//! |---|---|---|
//! | `fig2` | Figure 2 | bandwidth variation of one host pair (10 min / 2 days) |
//! | `fig6` | Figure 6 | sorted speedup curves, 300 configs, 8 servers |
//! | `fig7` | Figure 7 | local algorithm with k = 0..6 extra candidate sites |
//! | `fig8` | Figure 8 | scaling: 4 → 32 servers |
//! | `fig9` | Figure 9 | relocation period 2 min → 1 hour |
//! | `fig10` | Figure 10 | complete-binary vs left-deep ordering |
//!
//! Run with `cargo run --release -p wadc-bench --bin figN`. `fig6`–`fig10`
//! and `chaos` accept [`FIG_FLAGS`]: `--configs N` (default: the paper's
//! 300; 24 for `chaos`), `--threads T`, `--seed S` and `--json PATH`
//! (machine-readable series archive). `fig2` takes only `--seed` and
//! `--json`; `ablations` and `perf` document their own flags. Every
//! binary parses with [`wadc_core::cli`]: bad input exits 2 with the
//! known flags.
//!
//! The `benches/` directory holds micro/meso benchmarks of the kernel,
//! the placement search and the end-to-end engine, timed by the in-repo
//! [`harness`].

// `deny` rather than `forbid`: the counting allocator in `alloc` must
// implement `GlobalAlloc`, which is an `unsafe` trait; that module
// scopes its own allow. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod harness;

use wadc_core::cli::{self, Error, Flags};
use wadc_obs::json::Json;

/// The flags of the sweep binaries (`fig6`–`fig10`, `chaos`).
pub const FIG_FLAGS: &str = "--configs N --threads T --seed S --json PATH";

/// The settings [`FIG_FLAGS`] describe.
#[derive(Debug, Clone)]
pub struct FigArgs {
    /// Number of network configurations to evaluate.
    pub configs: usize,
    /// Worker threads, clamped to the machine.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Optional path for a JSON archive of the series.
    pub json: Option<String>,
}

impl FigArgs {
    /// Reads parsed [`FIG_FLAGS`], with `default_configs` configurations
    /// when `--configs` is absent; [`Error::Usage`] for a malformed value
    /// or zero configurations.
    pub fn read(flags: &Flags, default_configs: usize) -> Result<Self, Error> {
        Ok(FigArgs {
            configs: flags.count("--configs", default_configs)?,
            threads: flags.threads()?,
            seed: flags.get("--seed", 1998)?,
            json: flags.str("--json").map(str::to_string),
        })
    }
}

/// Writes `value` as pretty JSON to `path`, if one was given, or
/// returns [`Error::Failed`] when the file cannot be written.
pub fn archive(path: Option<&str>, value: &Json) -> Result<(), Error> {
    if let Some(path) = path {
        cli::write_output(path, value.to_string_pretty().as_bytes())?;
        eprintln!("series archived to {path}");
    }
    Ok(())
}

/// Prints a named series as one row per element, `index value`.
pub fn print_series(name: &str, values: &[f64]) {
    println!("# {name}");
    for (i, v) in values.iter().enumerate() {
        println!("{i} {v:.4}");
    }
    println!();
}

/// Prints a compact summary line for a series.
pub fn print_summary(name: &str, values: &[f64]) {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let median = wadc_sim::stats::median(values).unwrap_or(0.0);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("{name}: mean {mean:.2}  median {median:.2}  min {min:.2}  max {max:.2}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn summary_of_constant_series() {
        // print_summary only prints; sanity-check it does not panic on
        // edge inputs.
        super::print_summary("empty", &[]);
        super::print_summary("one", &[1.0]);
        super::print_series("s", &[1.0, 2.0]);
    }
}
