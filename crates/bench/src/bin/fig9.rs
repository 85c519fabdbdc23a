//! Figure 9: "Impact of variation in relocation frequency" — the global
//! algorithm at five relocation periods between two minutes and an hour;
//! each point the average speedup over all configurations. The paper found
//! a 5–10 minute period best.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin fig9 [--configs N] [--json PATH]
//! ```

use wadc_bench::{archive, FigArgs, FIG_FLAGS};
use wadc_core::cli::{self, Error, Flags};
use wadc_core::engine::Algorithm;
use wadc_core::study::{run_study_parallel, StudyParams};
use wadc_obs::json::Json;
use wadc_sim::time::SimDuration;

fn main() -> std::process::ExitCode {
    cli::run("fig9", FIG_FLAGS, std::env::args().skip(1), figure)
}

fn figure(flags: &Flags) -> Result<(), Error> {
    let args = FigArgs::read(flags, 300)?;
    let periods_min = [2u64, 5, 10, 30, 60];
    let mut params = StudyParams::paper_main(args.seed);
    params.n_configs = args.configs;
    params.algorithms = periods_min
        .iter()
        .map(|&m| Algorithm::Global {
            period: SimDuration::from_mins(m),
        })
        .collect();
    eprintln!(
        "running {} configurations x (download-all + 5 global periods) on {} threads...",
        params.n_configs, args.threads
    );
    let t0 = std::time::Instant::now();
    let results = run_study_parallel(&params, args.threads);
    eprintln!("done in {:.1} s", t0.elapsed().as_secs_f64());

    println!("=== Figure 9: global algorithm, relocation period sweep ===");
    println!("period (min)  avg speedup over download-all");
    let mut series = Vec::new();
    for (i, &m) in periods_min.iter().enumerate() {
        let mean = results.mean_speedup(i);
        series.push(mean);
        println!("{m:>12}  {mean:.3}");
    }
    let best = periods_min[series
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty")
        .0];
    println!("\nbest period: {best} min (paper: 5-10 minutes)");

    archive(
        args.json.as_deref(),
        &Json::obj()
            .field("figure", 9)
            .field("configs", params.n_configs)
            .field("period_minutes", periods_min.as_slice())
            .field("avg_speedup", series)
            .field("best_period_minutes", best),
    )
}
