//! Figure 10: "Impact of combination order" — global and local rerun with
//! a left-deep combination tree instead of the complete binary tree; the
//! paper found the complete binary tree lets either relocation algorithm
//! do better.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin fig10 [--configs N] [--json PATH]
//! ```

use wadc_bench::{archive, print_series, print_summary, FigArgs, FIG_FLAGS};
use wadc_core::cli::{self, Error, Flags};
use wadc_core::engine::Algorithm;
use wadc_core::study::{run_study_parallel, StudyParams, StudyResults};
use wadc_obs::json::Json;
use wadc_plan::tree::TreeShape;

const GLOBAL: usize = 0;
const LOCAL: usize = 1;

fn run_shape(args: &FigArgs, shape: TreeShape) -> StudyResults {
    let mut params = StudyParams::paper_main(args.seed);
    params.n_configs = args.configs;
    params.tree_shape = shape;
    params.algorithms = vec![Algorithm::global_default(), Algorithm::local_default()];
    eprintln!(
        "running {} configurations with a {shape:?} tree on {} threads...",
        params.n_configs, args.threads
    );
    let t0 = std::time::Instant::now();
    let results = run_study_parallel(&params, args.threads);
    eprintln!("  done in {:.1} s", t0.elapsed().as_secs_f64());
    results
}

fn main() -> std::process::ExitCode {
    cli::run("fig10", FIG_FLAGS, std::env::args().skip(1), figure)
}

fn figure(flags: &Flags) -> Result<(), Error> {
    let args = FigArgs::read(flags, 300)?;
    let binary = run_shape(&args, TreeShape::CompleteBinary);
    let left_deep = run_shape(&args, TreeShape::LeftDeep);

    // Sort configurations by the binary-tree speedup, as the paper does,
    // and emit each algorithm's pair of curves on that common order.
    for (alg, name) in [(GLOBAL, "global"), (LOCAL, "local")] {
        let mut order: Vec<usize> = (0..binary.outcomes.len()).collect();
        order.sort_by(|&a, &b| {
            binary.outcomes[a]
                .speedup(alg)
                .partial_cmp(&binary.outcomes[b].speedup(alg))
                .expect("finite speedups")
        });
        let binary_curve: Vec<f64> = order
            .iter()
            .map(|&i| binary.outcomes[i].speedup(alg))
            .collect();
        let left_curve: Vec<f64> = order
            .iter()
            .map(|&i| left_deep.outcomes[i].speedup(alg))
            .collect();
        println!("=== Figure 10 ({name}): sorted by complete-binary speedup ===");
        print_series(&format!("{name}-complete-binary"), &binary_curve);
        print_series(&format!("{name}-left-deep"), &left_curve);
        print_summary(&format!("{name} binary"), &binary_curve);
        print_summary(&format!("{name} left-deep"), &left_curve);
        println!();
    }

    println!(
        "mean speedups: global binary {:.2} vs left-deep {:.2}; local binary {:.2} vs left-deep {:.2}",
        binary.mean_speedup(GLOBAL),
        left_deep.mean_speedup(GLOBAL),
        binary.mean_speedup(LOCAL),
        left_deep.mean_speedup(LOCAL),
    );
    println!("(paper: the complete binary ordering adapts better for both algorithms)");

    archive(
        args.json.as_deref(),
        &Json::obj()
            .field("figure", 10)
            .field("configs", args.configs)
            .field(
                "mean_speedup",
                Json::obj()
                    .field("global_binary", binary.mean_speedup(GLOBAL))
                    .field("global_left_deep", left_deep.mean_speedup(GLOBAL))
                    .field("local_binary", binary.mean_speedup(LOCAL))
                    .field("local_left_deep", left_deep.mean_speedup(LOCAL)),
            )
            .field("global_binary", binary.sorted_speedups(GLOBAL))
            .field("global_left_deep", left_deep.sorted_speedups(GLOBAL))
            .field("local_binary", binary.sorted_speedups(LOCAL))
            .field("local_left_deep", left_deep.sorted_speedups(LOCAL)),
    )
}
