//! The benchmark's metric tables and the `BENCHMARK.json` they render to.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`wadc-perfbench spec`), and the smoke test checks the committed file
//! against them, so names, units and directions live in one place. What
//! each metric measures, and through which public call, is in `README.md`.

use wadc_obs::json::Json;

use crate::workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("runs_per_s", "1/s", Higher, 0.25),
    e2e("sim_s_per_host_s", "s/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mib", "MiB", Lower, 0.1),
    e2e("sim_ratio_err", "ratio", Lower, 0.05),
];

/// Per-layer metrics, from the traced pass.
pub const PER_LAYER: &[Metric] = &[
    layer("trace.pool_s", "s", Lower),
    layer("trace.lookup_ns", "ns", Lower),
    layer("topo.preset_ms", "ms", Lower),
    layer("topo.fair_share_us", "us", Lower),
    layer("topo.recomputes_per_run", "count/run", Lower),
    layer("sim.event_ns", "ns", Lower),
    layer("sim.heap_high_water", "count", Lower),
    layer("sim.cancel_ns", "ns", Lower),
    layer("net.transfer_ns", "ns", Lower),
    layer("net.transfers_per_run", "count/run", Lower),
    layer("net.bytes_per_run", "B/run", Lower),
    layer("net.retransmits_per_run", "count/run", Lower),
    layer("net.dropped_per_run", "count/run", Lower),
    layer("monitor.observe_ns", "ns", Lower),
    layer("monitor.piggyback_ns", "ns", Lower),
    layer("monitor.gauge_ns", "ns", Lower),
    layer("plan.search_us", "us", Lower),
    layer("plan.runs_per_run", "count/run", Lower),
    layer("mobile.move_us", "us", Lower),
    layer("mobile.relocations_per_run", "count/run", Lower),
    layer("mobile.changeovers_per_run", "count/run", Lower),
    layer("mobile.move_success_ratio", "ratio", Higher),
    layer("core.template_ms", "ms", Lower),
    layer("core.build_us", "us", Lower),
    layer("core.execute_ms", "ms", Lower),
    layer("core.execute_ns_per_transfer", "ns", Lower),
    layer("core.dispatch_self_ns_per_transfer", "ns", Lower),
    layer("core.allocs_per_run", "count/run", Lower),
    layer("run_ms_p50", "ms", Lower),
    layer("run_ms_p90", "ms", Lower),
    layer("sweep.t2_speedup", "ratio", Higher),
    layer("obs.overhead_frac", "ratio", Lower),
    layer("failed_frac", "ratio", Lower),
];

/// The command `BENCHMARK.json` names, run from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "wadc-perfbench",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 60;

fn metric_json(m: &Metric) -> Json {
    let j = Json::obj()
        .field("name", m.name)
        .field("unit", m.unit)
        .field("better", m.better.label());
    match m.bound {
        Some(b) => j.field("bound", b),
        None => j,
    }
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    Json::obj()
        .field(
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::from(*s)).collect()),
        )
        .field("paths", Json::Arr(vec![Json::from("perfbench")]))
        .field("run_seconds", RUN_SECONDS as f64)
        .field(
            "workloads",
            Json::Arr(
                workload::all()
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::obj().field("name", w.name).field("why", w.why))
                    .collect(),
            ),
        )
        .field(
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        )
        .field(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        )
        .to_string_pretty()
}

/// The metric named `name` in either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
