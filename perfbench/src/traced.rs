//! The traced pass: per-layer metrics.
//!
//! For each configuration, in the seed's order until `seconds` have
//! passed, every algorithm runs twice: untraced (timing engine build and
//! execution, counting allocations) and traced through
//! `Experiment::run_observed`. The traced run's own traffic is then
//! replayed into each layer's public API ([`crate::replay`]). Every call
//! the pass times sits in a [`Spans`] span, and layer figures are span
//! self times. A replay whose counts differ from the traced `RunResult`
//! withholds its layer's figure and fails the run.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use wadc_bench::alloc::AllocScope;
use wadc_core::engine::{AuditEvent, RunOutcome, RunResult, RunScratch};
use wadc_core::knowledge::KnowledgeMode;
use wadc_core::study::run_study_parallel;
use wadc_obs::export::chrome_trace;
use wadc_obs::json::Json;
use wadc_obs::tracer::Tracer;
use wadc_sim::rng::derive_seed2;
use wadc_topo::preset::{build_preset, TopoPreset};

use crate::pins::Pins;
use crate::replay::{self, Traffic};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::percentile;
use crate::workload::Workload;

/// `Experiment`'s seed stream for a configuration's links, which also
/// seeds its topology preset.
const STREAM_LINKS: u64 = 10;

/// What the traced pass leaves behind besides its metrics.
pub struct Traced {
    /// The metrics and checks.
    pub outcome: Outcome,
    /// The benchmark's own spans.
    pub spans: Spans,
    /// The simulated trace of the pass's first traced run.
    pub first_run: Option<Json>,
}

/// Work counts summed over the pass.
#[derive(Debug, Default)]
struct Counts {
    configs: u64,
    runs: u64,
    transfers: u64,
    bytes: u64,
    retransmits: u64,
    dropped: u64,
    lookups: u64,
    recomputes: u64,
    events: u64,
    high_water: usize,
    timers: u64,
    observes: u64,
    absorbed: u64,
    gauged: u64,
    searches: u64,
    planner_runs: u64,
    moves: u64,
    relocations: u64,
    changeovers: u64,
    move_attempts: u64,
    move_successes: u64,
    allocs: u64,
}

/// Runs the traced pass.
pub fn run(w: &Workload, seed: u64, seconds: f64, pins: &Pins) -> Traced {
    let mut out = Outcome::new(w.name, seed, true);
    let mut spans = Spans::new();
    let pool = spans.time("trace.pool", |_| black_box(w.trace_pool()));
    sweep(w, pins, &mut spans, &mut out);

    let algs = w.algorithms();
    let cfg_n_hosts = w.params.n_servers + 1;
    let gauged = w.params.knowledge == KnowledgeMode::Gauged;
    let mut c = Counts::default();
    let mut withheld: BTreeSet<&'static str> = BTreeSet::new();
    let mut first_run = None;
    let mut scratch = RunScratch::new();
    let order = w.order(seed);
    let warm = w.experiment(&pool, order[0]);
    for &alg in &algs {
        scratch = warm.engine_scratch(alg, scratch).run_reclaim_scratch().1;
    }

    let mut run_ms = Vec::new();
    let start = Instant::now();
    for &idx in order.iter().cycle() {
        let exp = spans.time("core.template", |_| w.experiment(&pool, idx));
        let link_seed = derive_seed2(w.params.master_seed, STREAM_LINKS, idx as u64);
        let preset = spans.time("topo.preset", |_| {
            build_preset(TopoPreset::PaperWan, cfg_n_hosts, &pool, link_seed)
        });
        // The WAN workload replays over the topology its runs used; the
        // flat ones route their traffic over the same preset.
        let topo = exp.topology().map_or(&preset, |t| t.as_ref());
        let cfg = exp.template().clone();
        c.configs += 1;
        for (k, &alg) in algs.iter().enumerate() {
            out.attempted += 1;
            c.runs += 1;
            let allocs = AllocScope::begin();
            let build = spans.enter("core.build");
            let engine = exp.engine_scratch(alg, scratch);
            let mut run_ns = spans.exit(build);
            let execute = spans.enter("core.execute");
            let (result, back) = engine.run_reclaim_scratch();
            run_ns += spans.exit(execute);
            run_ms.push(run_ns as f64 / 1e6);
            c.allocs += allocs.finish().allocs;
            scratch = back;

            let (obs, tracer) = Tracer::install();
            let traced = spans.time("obs.traced_run", |_| exp.run_observed(alg, obs));
            let tracer = tracer.borrow();
            if first_run.is_none() {
                first_run = Some(chrome_trace(&tracer));
            }
            let mut errors = run_errors(&result, &traced, pins.get(idx, k));
            let traffic = Traffic::from_run(&tracer, &traced);
            let ns = &traced.net_stats;
            if traffic.completed != ns.completed
                || traffic.bytes != ns.bytes_delivered
                || traffic.lost != ns.dropped
            {
                errors.push(format!(
                    "traced traffic {}/{} B/{} lost, RunResult {}/{} B/{} dropped",
                    traffic.completed,
                    traffic.bytes,
                    traffic.lost,
                    ns.completed,
                    ns.bytes_delivered,
                    ns.dropped
                ));
            }

            let replay_span = spans.enter("replay");
            let lookups = spans.time("trace.lookup", |_| {
                replay::lookups(&traffic, exp.links(), cfg.net.startup)
            });
            let (recomputes, changes) =
                spans.time("topo.fair_share", |_| replay::fair_shares(&traffic, topo));
            let (fired, high_water) = spans.time("sim.events", |_| replay::events(&traffic));
            let (cancelled, expired) = spans.time("sim.cancel", |_| {
                replay::retry_timers(&traffic, cfg.retry.base)
            });
            let net = spans.time("net.transfer", |_| {
                replay::network(&traffic, cfg.net, exp.links(), exp.topology())
            });
            let observes = spans.time("monitor.observe", |_| {
                replay::observe(&traffic, cfg_n_hosts, &cfg)
            });
            let (observes2, absorbed) = spans.time("monitor.observe_piggyback", |_| {
                replay::observe_and_piggyback(&traffic, cfg_n_hosts, &cfg)
            });
            let gauge_calls = spans.time("monitor.gauge", |_| replay::gauge(&traffic));
            let searches = spans.time("plan.search", |_| replay::searches(&traced, &exp));
            let moves = spans.time("mobile.move", |_| replay::moves(&traced, &cfg));
            spans.exit(replay_span);

            let delivered = traffic.delivered();
            let mut check = |layer: &'static str, ok: bool, what: String| {
                if !ok {
                    withheld.insert(layer);
                    errors.push(format!("{layer} replay: {what}"));
                }
            };
            check(
                "trace",
                lookups == traffic.completed,
                format!("{lookups} lookups"),
            );
            check(
                "topo",
                changes == traffic.steps.len() as u64,
                format!("{changes} flow-set changes"),
            );
            check(
                "sim.event",
                fired == traffic.completed,
                format!("{fired} events fired"),
            );
            check(
                "sim.cancel",
                cancelled == delivered && expired == traffic.lost,
                format!("{cancelled} cancelled, {expired} fired"),
            );
            match &net {
                Ok(s) => check(
                    "net",
                    s.completed == ns.completed && s.bytes_delivered == ns.bytes_delivered,
                    format!("{} transfers, {} B", s.completed, s.bytes_delivered),
                ),
                Err(e) => check("net", false, e.clone()),
            }
            check(
                "monitor",
                observes == 2 * delivered && observes2 == observes && absorbed == delivered,
                format!("{observes}/{observes2} observes, {absorbed} absorbed"),
            );
            check(
                "monitor.gauge",
                gauge_calls == delivered,
                format!("{gauge_calls} gauged"),
            );
            check(
                "plan",
                searches == u64::from(traced.planner_runs),
                format!("{searches} searches, {} planner runs", traced.planner_runs),
            );
            match &moves {
                Ok(m) => check(
                    "mobile",
                    *m == u64::from(traced.relocations),
                    format!("{m} moves, {} relocations", traced.relocations),
                ),
                Err(e) => check("mobile", false, e.clone()),
            }

            c.transfers += ns.completed;
            c.bytes += ns.bytes_delivered;
            c.retransmits += ns.retransmits;
            c.dropped += ns.dropped;
            c.lookups += lookups;
            c.recomputes += recomputes;
            c.events += fired;
            c.high_water = c.high_water.max(high_water);
            c.timers += cancelled + expired;
            c.observes += observes;
            c.absorbed += absorbed;
            c.gauged += gauge_calls;
            c.searches += searches;
            c.planner_runs += u64::from(traced.planner_runs);
            c.moves += moves.unwrap_or(0);
            c.relocations += u64::from(traced.relocations);
            c.changeovers += u64::from(traced.changeovers);
            for e in traced.audit.events() {
                match e {
                    AuditEvent::RelocationStarted { .. }
                    | AuditEvent::ChangeoverProposed { .. } => c.move_attempts += 1,
                    AuditEvent::RelocationFinished { .. }
                    | AuditEvent::ChangeoverCommitted { .. } => c.move_successes += 1,
                    _ => {}
                }
            }
            if !errors.is_empty() {
                out.failed += 1;
                for e in errors.into_iter().take(3) {
                    out.fail(format!("config {idx} {}: {e}", alg.name()));
                }
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let totals = spans.totals();
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    let runs = c.runs;
    let execute = self_ns("core.execute");
    // The dispatch layer's own time: what execution spends outside the
    // layers whose work the replays reproduce.
    let replayed = self_ns("sim.events")
        + self_ns("net.transfer")
        + self_ns("monitor.observe_piggyback")
        + if gauged {
            self_ns("monitor.gauge")
        } else {
            0.0
        }
        + self_ns("plan.search")
        + self_ns("mobile.move");
    let replays: &[&str] = &[
        "sim.event",
        "net",
        "monitor",
        "monitor.gauge",
        "plan",
        "mobile",
    ];
    let success = if c.move_attempts == 0 {
        1.0
    } else {
        c.move_successes as f64 / c.move_attempts as f64
    };
    let figures: Vec<(&[&str], &'static str, f64)> = vec![
        (&[], "trace.pool_s", self_ns("trace.pool") / 1e9),
        (
            &["trace"],
            "trace.lookup_ns",
            per(self_ns("trace.lookup"), c.lookups),
        ),
        (
            &[],
            "topo.preset_ms",
            per(self_ns("topo.preset"), c.configs) / 1e6,
        ),
        (
            &["topo"],
            "topo.fair_share_us",
            per(self_ns("topo.fair_share"), c.recomputes) / 1e3,
        ),
        (
            &["topo"],
            "topo.recomputes_per_run",
            per(c.recomputes as f64, runs),
        ),
        (
            &["sim.event"],
            "sim.event_ns",
            per(self_ns("sim.events"), c.events),
        ),
        (&["sim.event"], "sim.heap_high_water", c.high_water as f64),
        (
            &["sim.cancel"],
            "sim.cancel_ns",
            per(self_ns("sim.cancel"), c.timers),
        ),
        (
            &["net"],
            "net.transfer_ns",
            per(self_ns("net.transfer"), c.transfers),
        ),
        (&[], "net.transfers_per_run", per(c.transfers as f64, runs)),
        (&[], "net.bytes_per_run", per(c.bytes as f64, runs)),
        (
            &[],
            "net.retransmits_per_run",
            per(c.retransmits as f64, runs),
        ),
        (&[], "net.dropped_per_run", per(c.dropped as f64, runs)),
        (
            &["monitor"],
            "monitor.observe_ns",
            per(self_ns("monitor.observe"), c.observes),
        ),
        (
            &["monitor"],
            "monitor.piggyback_ns",
            per(
                self_ns("monitor.observe_piggyback") - self_ns("monitor.observe"),
                c.absorbed,
            ),
        ),
        (
            &["monitor.gauge"],
            "monitor.gauge_ns",
            per(self_ns("monitor.gauge"), c.gauged),
        ),
        (
            &["plan"],
            "plan.search_us",
            per(self_ns("plan.search"), c.searches) / 1e3,
        ),
        (&[], "plan.runs_per_run", per(c.planner_runs as f64, runs)),
        (
            &["mobile"],
            "mobile.move_us",
            per(self_ns("mobile.move"), c.moves) / 1e3,
        ),
        (
            &[],
            "mobile.relocations_per_run",
            per(c.relocations as f64, runs),
        ),
        (
            &[],
            "mobile.changeovers_per_run",
            per(c.changeovers as f64, runs),
        ),
        (&[], "mobile.move_success_ratio", success),
        (
            &[],
            "core.template_ms",
            per(self_ns("core.template"), c.configs) / 1e6,
        ),
        (&[], "core.build_us", per(self_ns("core.build"), runs) / 1e3),
        (&[], "core.execute_ms", per(execute, runs) / 1e6),
        (
            &[],
            "core.execute_ns_per_transfer",
            per(execute, c.transfers),
        ),
        (
            replays,
            "core.dispatch_self_ns_per_transfer",
            per(execute - replayed, c.transfers),
        ),
        (&[], "core.allocs_per_run", per(c.allocs as f64, runs)),
        (
            &[],
            "run_ms_p50",
            percentile(&run_ms, 0.5).unwrap_or(f64::NAN),
        ),
        (
            &[],
            "run_ms_p90",
            percentile(&run_ms, 0.9).unwrap_or(f64::NAN),
        ),
        (
            &[],
            "sweep.t2_speedup",
            self_ns("sweep.threads1") / self_ns("sweep.threads2").max(1.0),
        ),
        (
            &[],
            "obs.overhead_frac",
            self_ns("obs.traced_run") / (self_ns("core.build") + execute).max(1.0) - 1.0,
        ),
    ];
    for (needs, name, value) in figures {
        if needs.iter().all(|l| !withheld.contains(l)) {
            out.set(name, value);
        }
    }
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Traced {
        outcome: out,
        spans,
        first_run,
    }
}

/// Checks one run pair: the untraced run completed on its pin and the
/// traced run reproduced it.
fn run_errors(untraced: &RunResult, traced: &RunResult, pin: Option<u64>) -> Vec<String> {
    let mut errors = Vec::new();
    let digest = untraced.digest();
    if untraced.outcome != RunOutcome::Completed {
        errors.push(format!("outcome {:?}", untraced.outcome));
    }
    if pin != Some(digest) {
        errors.push(format!("digest {digest:016x}, pinned {pin:016x?}"));
    }
    if traced.digest() != digest {
        errors.push(format!("traced digest {:016x} differs", traced.digest()));
    }
    errors
}

/// The sweep layer: the workload's first configurations through the
/// library's study driver at threads 1 and 2, which must agree with each
/// other and with the pins.
fn sweep(w: &Workload, pins: &Pins, spans: &mut Spans, out: &mut Outcome) {
    let params = w.study_prefix(w.sweep_configs);
    let t1 = spans.time("sweep.threads1", |_| run_study_parallel(&params, 1));
    let t2 = spans.time("sweep.threads2", |_| run_study_parallel(&params, 2));
    if t1.digest() != t2.digest() {
        out.fail(format!(
            "study digest at threads 1 ({:016x}) differs from threads 2 ({:016x})",
            t1.digest(),
            t2.digest()
        ));
    }
    for study in [&t1, &t2] {
        for o in &study.outcomes {
            for (k, r) in std::iter::once(&o.download_all)
                .chain(&o.results)
                .enumerate()
            {
                out.attempted += 1;
                if pins.get(o.config, k) != Some(r.digest()) {
                    out.failed += 1;
                    out.fail(format!(
                        "sweep config {} run {k}: digest off its pin",
                        o.config
                    ));
                }
            }
        }
    }
}
