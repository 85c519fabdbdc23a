//! The untraced pass: end-to-end metrics with tracing off.
//!
//! Set-up synthesizes the study trace pool [`SETUP_REPS`] times and
//! reports the median. The measured loop then visits the pool in the
//! seed's order, configuration by configuration as `wadc study` does
//! (template, then each algorithm on one warm arena), and keeps visiting
//! until `seconds` have passed, stopping at a configuration boundary. The
//! first visit always completes: the `sim` metrics are taken over it.
//! Every run is checked against its pinned digest.
//!
//! Host time is reported in reference seconds (see [`crate::reference`]):
//! a [`Reference`] round follows every synthesis and every configuration,
//! outside the timed spans, and scales the host seconds next to it.

use std::hint::black_box;
use std::time::Instant;

use wadc_bench::alloc::AllocScope;
use wadc_core::engine::{Algorithm, RunOutcome, RunScratch};

use crate::pins::Pins;
use crate::reference::{Reference, ROUND_S};
use crate::report::Outcome;
use crate::stats::median;
use crate::workload::Workload;

/// Trace-pool syntheses per pass; `setup_s` is the median of their
/// scaled times.
pub const SETUP_REPS: usize = 21;
/// The paper's Fig. 6 median of global's speedup over one-shot's.
pub const PAPER_GLOBAL_OVER_ONE_SHOT: f64 = 1.40;
/// The paper's mean image inter-arrival times on 8 servers, seconds:
/// download-all, then global.
pub const PAPER_INTERARRIVAL_S: (f64, f64) = (101.2, 17.1);

/// Position of the first algorithm matching `pred` in `w`'s run order.
fn position(w: &Workload, pred: impl Fn(&Algorithm) -> bool) -> usize {
    w.algorithms()
        .iter()
        .position(pred)
        .expect("every workload runs one-shot and global")
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Runs the untraced pass.
pub fn run(w: &Workload, seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    let mut out = Outcome::new(w.name, seed, false);
    let mut reference = Reference::new();
    let heap = AllocScope::begin();

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_ref = Vec::with_capacity(SETUP_REPS);
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let fresh = black_box(w.trace_pool());
        setup.push(t.elapsed().as_secs_f64());
        setup_ref.push(reference.round());
        pool = fresh;
    }

    let algs = w.algorithms();
    let one_shot = position(w, |a| *a == Algorithm::OneShot);
    let global = position(w, |a| matches!(a, Algorithm::Global { .. }));
    let order = w.order(seed);
    let mut scratch = RunScratch::new();

    // Warm the arena on the first configuration; not measured.
    let warm = w.experiment(&pool, order[0]);
    for &alg in &algs {
        scratch = warm.engine_scratch(alg, scratch).run_reclaim_scratch().1;
    }

    let mut host_s = 0.0;
    let mut ref_s = 0.0;
    let mut ref_rounds = 0u32;
    let mut sim_s = 0.0;
    let mut ratios = Vec::with_capacity(order.len());
    let mut interarrival = (Vec::new(), Vec::new());
    let start = Instant::now();
    'visits: for visit in 0.. {
        for &idx in &order {
            if visit > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'visits;
            }
            let t = Instant::now();
            let exp = w.experiment(&pool, idx);
            host_s += t.elapsed().as_secs_f64();
            let mut results = Vec::with_capacity(algs.len());
            for (k, &alg) in algs.iter().enumerate() {
                let t = Instant::now();
                let engine = exp.engine_scratch(alg, std::mem::take(&mut scratch));
                let (result, back) = engine.run_reclaim_scratch();
                let dt = t.elapsed().as_secs_f64();
                scratch = back;
                host_s += dt;
                sim_s += result.completion_time.as_secs_f64();
                out.attempted += 1;
                let digest = result.digest();
                if result.outcome != RunOutcome::Completed || pins.get(idx, k) != Some(digest) {
                    out.failed += 1;
                    if out.failed <= 5 {
                        out.fail(format!(
                            "config {idx} {}: outcome {:?}, digest {digest:016x}, pinned {:?}",
                            alg.name(),
                            result.outcome,
                            pins.get(idx, k).map(|d| format!("{d:016x}"))
                        ));
                    }
                }
                results.push(result);
            }
            ref_s += reference.round();
            ref_rounds += 1;
            if visit == 0 {
                let da = &results[0];
                ratios.push(results[global].speedup_over(da) / results[one_shot].speedup_over(da));
                interarrival.0.push(da.mean_interarrival_secs());
                interarrival
                    .1
                    .push(results[global].mean_interarrival_secs());
            }
        }
    }
    let peak = heap.finish().peak_bytes;

    let ratio = median(&ratios).expect("the pool is not empty");
    let round_s = ref_s / f64::from(ref_rounds);
    let setup_round_s = median(&setup_ref).expect("set-up ran");
    let setup_host_s = median(&setup).expect("set-up ran");
    let ref_host_s = host_s * ROUND_S / round_s;
    out.set("runs_per_s", out.attempted as f64 / ref_host_s);
    out.set("sim_s_per_host_s", sim_s / ref_host_s);
    // Each synthesis is scaled by the round right after it: a pair taken
    // close together tracks the host better than two separate medians.
    let scaled_setup: Vec<f64> = setup
        .iter()
        .zip(&setup_ref)
        .map(|(s, r)| s * ROUND_S / r)
        .collect();
    out.set("setup_s", median(&scaled_setup).expect("set-up ran"));
    out.set("peak_heap_mib", peak as f64 / (1024.0 * 1024.0));
    out.set(
        "sim_ratio_err",
        (ratio - PAPER_GLOBAL_OVER_ONE_SHOT).abs() / PAPER_GLOBAL_OVER_ONE_SHOT,
    );
    out.note(format!(
        "host time in reference seconds: a reference round took {:.3} ms in the pass and {:.3} ms \
         in set-up (nominal {:.3} ms); unscaled: {:.3} runs/s, {:.0} sim s/host s, set-up {:.4} s",
        round_s * 1e3,
        setup_round_s * 1e3,
        ROUND_S * 1e3,
        out.attempted as f64 / host_s,
        sim_s / host_s,
        setup_host_s,
    ));
    out.note(format!(
        "paper Fig. 6: median global/one-shot speedup {PAPER_GLOBAL_OVER_ONE_SHOT:.2}, here {ratio:.3}"
    ));
    out.note(format!(
        "paper: mean inter-arrival {:.1} s download-all vs {:.1} s global, here {:.1} s vs {:.1} s \
         (synthetic traces: compare the ratio, {:.2} vs {:.2})",
        PAPER_INTERARRIVAL_S.0,
        PAPER_INTERARRIVAL_S.1,
        mean(&interarrival.0),
        mean(&interarrival.1),
        PAPER_INTERARRIVAL_S.0 / PAPER_INTERARRIVAL_S.1,
        mean(&interarrival.0) / mean(&interarrival.1),
    ));
    out
}
