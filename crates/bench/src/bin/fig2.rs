//! Figure 2: "Variation in application-level network bandwidth" — the
//! bandwidth of one host pair over the first ten minutes and over the full
//! two-day trace.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin fig2 [--seed S] [--json PATH]
//! ```

use wadc_bench::archive;
use wadc_core::cli::{self, Error, Flags};
use wadc_obs::json::Json;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_trace::stats::{mean_change_interval, summarize};
use wadc_trace::study::BandwidthStudy;

const FLAGS: &str = "--seed S --json PATH";

fn main() -> std::process::ExitCode {
    cli::run("fig2", FLAGS, std::env::args().skip(1), figure)
}

fn figure(flags: &Flags) -> Result<(), Error> {
    let study = BandwidthStudy::default_study(flags.get("--seed", 1998)?);
    let hosts = study.hosts();

    // The paper plots Wisconsin - UCLA; our study's closest analogue is
    // the midwest - west-coast pair.
    let wisc = hosts
        .iter()
        .position(|h| h.name == "wisc")
        .expect("study host");
    let ucla = hosts
        .iter()
        .position(|h| h.name == "ucla")
        .expect("study host");
    let trace = study.trace(wisc, ucla).expect("complete study");

    println!("=== Figure 2 (left): first ten minutes, samples every 20 s ===");
    let mut ten_min = Vec::new();
    for k in 0..30 {
        let t = SimTime::from_secs(k * 20);
        let bw = trace.bandwidth_at(t);
        ten_min.push(bw);
        println!("{:>4} s  {:>8.1} KB/s", k * 20, bw / 1024.0);
    }

    println!("\n=== Figure 2 (right): full two-day trace, samples every 30 min ===");
    let mut two_day = Vec::new();
    for k in 0..96 {
        let t = SimTime::from_secs(k * 1800);
        let bw = trace.bandwidth_at(t);
        two_day.push(bw);
        println!("{:>5.1} h  {:>8.1} KB/s", k as f64 * 0.5, bw / 1024.0);
    }

    let summary = summarize(trace, SimDuration::from_hours(48));
    println!("\n=== trace characterisation ===");
    println!(
        "mean {:.1} KB/s, range {:.1}..{:.1} KB/s, cv {:.2}",
        summary.mean_bytes_per_sec / 1024.0,
        summary.min_bytes_per_sec / 1024.0,
        summary.max_bytes_per_sec / 1024.0,
        summary.coefficient_of_variation
    );
    let change = mean_change_interval(trace, 0.10).expect("variable trace");
    println!(
        "mean time between >=10% changes: {:.0} s (paper: ~2 minutes; basis for T_thres = 40 s)",
        change.as_secs_f64()
    );

    archive(
        flags.str("--json"),
        &Json::obj()
            .field("figure", 2)
            .field("pair", vec!["wisc", "ucla"])
            .field("ten_minutes_bytes_per_sec", ten_min)
            .field("two_days_bytes_per_sec", two_day)
            .field("mean_change_interval_secs", change.as_secs_f64())
            .field(
                "summary",
                Json::obj()
                    .field("mean", summary.mean_bytes_per_sec)
                    .field("min", summary.min_bytes_per_sec)
                    .field("max", summary.max_bytes_per_sec)
                    .field("cv", summary.coefficient_of_variation),
            ),
    )
}
