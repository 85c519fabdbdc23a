//! `wadc` — command-line driver for the wide-area data combination
//! simulator.
//!
//! ```sh
//! wadc run   [--servers N] [--algorithm A] [--period-mins M] [--extra-candidates K] [--shape S]
//!            [--seed S] [--config I] [--images N]
//!            [--threads T] [--audit] [--json] [--topology P] [--knowledge K]
//!            [--trace-out t.json] [--jsonl-out t.jsonl]
//! wadc report [--servers N] [--algorithm A] [--seed S] [--images N]
//! wadc study [--configs N] [--servers N] [--seed S] [--threads T] [--topology P] [--knowledge K]
//! wadc study --gauge-analysis [--seed S]
//! wadc trace [--pair A,B] [--seed S] [--window-hours H]
//! wadc plan  [--servers N] [--seed S] [--objective critical-path|contended]
//! wadc verify [--quick] [--seed S] [--print-golden] [--print-golden-topo]
//! wadc chaos [--loss P] [--probe-blackhole P] [--move-failure P] [--outages N]
//!            [--crash-host H] [--crash-at-secs S] [--seed S]
//! wadc chaos --soak N [--shrink] [--threads T] [--servers N] [--seed S]
//! ```

use std::process::ExitCode;

use wadc::core::algorithms::one_shot::{one_shot_placement, Objective};
use wadc::core::cli::{self, Error, Flags};
use wadc::core::engine::{Algorithm, AuditEvent, EngineConfig};
use wadc::core::experiment::Experiment;
use wadc::core::gauging;
use wadc::core::knowledge::KnowledgeMode;
use wadc::core::study::{run_study, run_study_parallel, StudyParams};
use wadc::net::faults::FaultPlan;
use wadc::obs::{chrome_trace, render_report, write_jsonl, Json, Tracer};
use wadc::plan::cost::CostModel;
use wadc::plan::critical_path::{critical_path, nic_occupancy};
use wadc::plan::ids::{HostId, OperatorId};
use wadc::plan::placement::{HostRoster, Placement};
use wadc::plan::tree::{CombinationTree, TreeShape};
use wadc::sim::time::{SimDuration, SimTime};
use wadc::topo::preset::TopoPreset;
use wadc::trace::stats::summarize;
use wadc::trace::study::BandwidthStudy;
use wadc::verify::chaos::run_chaos_suite_sweep;
use wadc::verify::determinism::check_determinism;
use wadc::verify::differential::run_suite;
use wadc::verify::golden;
use wadc::verify::invariants::check_run;
use wadc::verify::soak::run_soak;

fn usage() -> ExitCode {
    eprintln!(
        "usage: wadc <run|report|study|trace|plan|verify|chaos> [flags]

run    simulate one configuration under one algorithm
         --servers N (8)  --algorithm download-all|one-shot|global|local (global)
         --period-mins M (10)  --extra-candidates K (0, local only)
         --shape binary|left-deep (binary)
         --seed S (1998)  --config I (0)  --images N (180)  --audit
         --threads T (auto): run the download-all baseline and the
           algorithm concurrently (ignored when tracing); 0 or more
           than the machine's cores clamps with a warning
         --json (machine-readable result on stdout)
         --topology paper-wan: run over the shared-bottleneck topology
           (regional access links behind two oceanic backbones) instead
           of independent per-pair links
         --knowledge monitored|oracle|forecast|gauged (monitored)
         --trace-out PATH (Chrome trace JSON, load in Perfetto)
         --jsonl-out PATH (span/sample stream, one JSON object per line)
report run one configuration with tracing and print a human-readable
       run report (adaptation, residency, links, monitoring, faults)
         plus every `run` flag (--servers, --algorithm, --seed, ...)
study  run a multi-configuration comparison of all four algorithms
         on the work-stealing sweep driver
         --configs N (50)  --servers N (8)  --seed S (1998)  --threads T (auto)
         --topology paper-wan  --knowledge monitored|oracle|forecast|gauged
         --gauge-analysis: instead of a study, print the forecaster-vs-
           gauger contention table (markdown; see
           results/ANALYSIS_gauge_vs_forecast.md)
trace  characterise the synthetic bandwidth study
         --pair A,B (0,7)  --seed S (1998)  --window-hours H (12)
plan   compute and print a one-shot placement for a random world
         --servers N (8)  --seed S (1998)  --config I (0)
         --objective critical-path|contended (critical-path)
verify check engine conformance: golden digests, determinism, invariants,
       the threads=1 == threads=N sweep gate, and (without --quick) the
       differential and chaos suites
         --quick  --seed S (42)  --print-golden (regenerate the fixture)
         --print-golden-topo (regenerate the topology-backend fixture)
         --threads T (2): sweep-gate and chaos-matrix thread count
           (deliberately not clamped to the core count — oversubscribed
           interleavings are exactly what the gate must survive)
chaos  simulate one configuration under an injected fault plan and report
       recovery statistics against the clean run of the same world
         --loss P (0.05)  --probe-blackhole P (0)  --move-failure P (0)
         --outages N (0)  --outage-mins M (5)
         --crash-host H (none): permanently kill host H (the client is
           host <servers>)  --crash-at-secs S (30)
         plus every `run` flag (--servers, --algorithm, --seed, ...)
       or run a randomized chaos soak on the quick world instead:
         --soak N: run N seed-derived random fault plans (crashes,
           outages, blackouts, loss) across all four algorithms; every
           run must validate, reproduce bit for bit, pass the invariant
           checker and end with an explicit outcome
         --shrink: on failure, reduce the plan to a minimal reproduction
         --servers N (4)  --seed S (1998)  --threads T (2, not clamped:
           the report is thread-count-invariant by construction)"
    );
    ExitCode::from(2)
}

/// `run`'s flags; `report` and `chaos` accept them too.
const RUN_FLAGS: &str = "--servers N --algorithm A --period-mins M --extra-candidates K --shape S \
     --seed S --config I --images N --audit --threads T --json --topology P --knowledge K \
     --trace-out PATH --jsonl-out PATH";

/// The flags `chaos` accepts besides `run`'s.
const CHAOS_FLAGS: &str = "--loss P --probe-blackhole P --move-failure P --outages N \
     --outage-mins M --crash-host H --crash-at-secs S --soak N --shrink";
const STUDY_FLAGS: &str =
    "--configs N --servers N --seed S --threads T --topology P --knowledge K --gauge-analysis";
const VERIFY_FLAGS: &str = "--quick --seed S --print-golden --print-golden-topo --threads T";

fn algorithm_from(flags: &Flags) -> Result<Algorithm, Error> {
    let period = SimDuration::from_mins(flags.get("--period-mins", 10u64)?);
    Ok(match flags.str("--algorithm").unwrap_or("global") {
        "download-all" => Algorithm::DownloadAll,
        "one-shot" => Algorithm::OneShot,
        "global" => Algorithm::Global { period },
        "local" => Algorithm::Local {
            period,
            extra_candidates: flags.get("--extra-candidates", 0usize)?,
        },
        other => return Err(Error::Usage(format!("unknown algorithm {other}"))),
    })
}

fn shape_from(flags: &Flags) -> Result<TreeShape, Error> {
    match flags.str("--shape").unwrap_or("binary") {
        "binary" => Ok(TreeShape::CompleteBinary),
        "left-deep" => Ok(TreeShape::LeftDeep),
        other => Err(Error::Usage(format!("unknown shape {other}"))),
    }
}

fn topology_from(flags: &Flags) -> Result<Option<TopoPreset>, Error> {
    flags
        .str("--topology")
        .map(|name| {
            TopoPreset::parse(name).ok_or_else(|| {
                Error::Usage(format!("unknown topology preset {name} (try: paper-wan)"))
            })
        })
        .transpose()
}

fn knowledge_from(flags: &Flags) -> Result<KnowledgeMode, Error> {
    match flags.str("--knowledge").unwrap_or("monitored") {
        "monitored" => Ok(KnowledgeMode::Monitored),
        "oracle" => Ok(KnowledgeMode::Oracle),
        "forecast" => Ok(KnowledgeMode::Forecast),
        "gauged" => Ok(KnowledgeMode::Gauged),
        other => Err(Error::Usage(format!("unknown knowledge mode {other}"))),
    }
}

fn build_experiment(flags: &Flags) -> Result<Experiment, Error> {
    let servers = flags.get("--servers", 8usize)?;
    let seed = flags.get("--seed", 1998u64)?;
    let config = flags.get("--config", 0u64)?;
    let study = BandwidthStudy::default_study(seed);
    let mut exp = match topology_from(flags)? {
        Some(preset) => {
            let pool = study.noon_trace_pool(SimDuration::from_hours(24));
            Experiment::from_study_pool_topo(servers, &pool, preset, config, seed)
        }
        None => Experiment::from_study(servers, &study, SimDuration::from_hours(24), config, seed),
    }
    .with_tree_shape(shape_from(flags)?)
    .with_knowledge(knowledge_from(flags)?);
    exp.template_mut().workload.images_per_server = flags.get("--images", 180)?;
    Ok(exp)
}

/// The engine's message if it would reject `cfg`, before any run can
/// panic on it.
fn validate(cfg: &EngineConfig) -> Result<(), Error> {
    cfg.validate()
        .map_err(|e| Error::Usage(format!("invalid configuration: {e}")))
}

/// The experiment and algorithm the `run` flags describe, validated.
fn experiment_from(flags: &Flags) -> Result<(Experiment, Algorithm), Error> {
    let exp = build_experiment(flags)?;
    let algorithm = algorithm_from(flags)?;
    let mut cfg = exp.template().clone();
    cfg.algorithm = algorithm;
    validate(&cfg)?;
    Ok((exp, algorithm))
}

/// Reads `--servers` for the subcommands that build their worlds without
/// an [`Experiment`] template, rejecting too few servers to combine.
fn servers_from(flags: &Flags, default: usize) -> Result<usize, Error> {
    let servers = flags.get("--servers", default)?;
    validate(&EngineConfig::new(servers, Algorithm::DownloadAll))?;
    Ok(servers)
}

fn cmd_run(flags: &Flags) -> Result<(), Error> {
    let (exp, algorithm) = experiment_from(flags)?;
    let json_out = flags.has("--json");
    let tracing = flags.has("--trace-out") || flags.has("--jsonl-out");
    if !json_out {
        let topo = match topology_from(flags)? {
            Some(p) => format!(", topology {p}"),
            None => String::new(),
        };
        println!(
            "running {} servers x {} images under {} (knowledge {}{topo})...",
            exp.template().n_servers,
            exp.template().workload.images_per_server,
            algorithm.name(),
            exp.template().knowledge.name(),
        );
    }
    let threads = flags.threads()?;
    let tracer = tracing.then(Tracer::install);
    // The baseline and the algorithm run are independent worlds, so with
    // a spare thread they run concurrently. Tracing pins everything to
    // this thread (the recorder is not Send); results are identical
    // either way — every run is individually seeded.
    let (baseline, r) = if tracer.is_none() && threads >= 2 {
        let exp = &exp;
        std::thread::scope(|scope| {
            let base = scope.spawn(move || exp.run(Algorithm::DownloadAll));
            let r = exp.run(algorithm);
            (base.join().expect("baseline run does not panic"), r)
        })
    } else {
        let baseline = exp.run(Algorithm::DownloadAll);
        let r = match &tracer {
            Some((obs, _)) => exp.run_observed(algorithm, obs.clone()),
            None => exp.run(algorithm),
        };
        (baseline, r)
    };
    if let Some((_, tracer)) = &tracer {
        let tracer = tracer.borrow();
        if let Some(path) = flags.str("--trace-out") {
            cli::write_output(path, chrome_trace(&tracer).to_string_compact().as_bytes())?;
            if !json_out {
                println!("wrote Chrome trace to {path} (load at https://ui.perfetto.dev)");
            }
        }
        if let Some(path) = flags.str("--jsonl-out") {
            let mut buf = Vec::new();
            write_jsonl(&tracer, &mut buf).expect("writing to memory cannot fail");
            cli::write_output(path, &buf)?;
            if !json_out {
                println!("wrote span/sample stream to {path}");
            }
        }
    }
    if json_out {
        println!(
            "{}",
            Json::obj()
                .field("algorithm", algorithm.name())
                .field("completed", r.completed)
                .field("outcome", r.outcome.name())
                .field("hosts_declared_dead", r.hosts_declared_dead)
                .field("operators_respawned", r.operators_respawned)
                .field("completion_secs", r.completion_time.as_secs_f64())
                .field("images_delivered", r.images_delivered)
                .field("mean_interarrival_secs", r.mean_interarrival_secs())
                .field("speedup_over_download_all", r.speedup_over(&baseline))
                .field("planner_runs", r.planner_runs)
                .field("changeovers", r.changeovers)
                .field("relocations", r.relocations)
                .field("bytes_delivered", r.net_stats.bytes_delivered)
                .field("digest", r.digest_hex())
                .to_string_pretty()
        );
    } else {
        println!(
            "outcome: {} | total {:.0} s | {:.1} s/image | speedup over download-all {:.2}x",
            r.outcome.name(),
            r.completion_time.as_secs_f64(),
            r.mean_interarrival_secs(),
            r.speedup_over(&baseline)
        );
        println!(
            "planner runs {} | change-overs {} | relocations {} | wire bytes {}",
            r.planner_runs, r.changeovers, r.relocations, r.net_stats.bytes_delivered
        );
    }
    if flags.has("--audit") {
        println!("\naudit log ({} events):", r.audit.len());
        for e in r.audit.events() {
            match e {
                AuditEvent::PlannerRan {
                    at,
                    cost_before,
                    cost_after,
                    changed,
                } => println!(
                    "{:>8.0}s planner: {cost_before:.2}s -> {cost_after:.2}s per partition{}",
                    at.as_secs_f64(),
                    if *changed { " (placement changed)" } else { "" }
                ),
                AuditEvent::ChangeoverProposed { at, version, moves } => println!(
                    "{:>8.0}s change-over v{version} proposed ({moves} moves)",
                    at.as_secs_f64()
                ),
                AuditEvent::ServerSuspended {
                    at,
                    server,
                    reported_iteration,
                    ..
                } => println!(
                    "{:>8.0}s server {server} suspended at iteration {reported_iteration}",
                    at.as_secs_f64()
                ),
                AuditEvent::ChangeoverCommitted {
                    at,
                    version,
                    switch_iteration,
                } => println!(
                    "{:>8.0}s change-over v{version} committed, switch at iteration {switch_iteration}",
                    at.as_secs_f64()
                ),
                AuditEvent::LocalDecision {
                    at, op, level, from, to,
                } => println!(
                    "{:>8.0}s local decision: {op} (level {level}) {from} -> {to}",
                    at.as_secs_f64()
                ),
                AuditEvent::RelocationStarted {
                    at, op, from, to, ..
                } => println!("{:>8.0}s {op} moving {from} -> {to}", at.as_secs_f64()),
                AuditEvent::RelocationFinished { at, op, host } => {
                    println!("{:>8.0}s {op} resumed at {host}", at.as_secs_f64())
                }
                AuditEvent::MessageLost {
                    at,
                    from,
                    to,
                    kind,
                    attempt,
                } => println!(
                    "{:>8.0}s lost {} {from} -> {to} (attempt {attempt})",
                    at.as_secs_f64(),
                    kind.label()
                ),
                AuditEvent::RelocationAborted { at, op, host } => println!(
                    "{:>8.0}s {op} move failed, rolled back to {host}",
                    at.as_secs_f64()
                ),
                AuditEvent::ChangeoverAborted { at, version } => println!(
                    "{:>8.0}s change-over v{version} timed out, aborted",
                    at.as_secs_f64()
                ),
                AuditEvent::HostDeclaredDead { at, host, evidence } => println!(
                    "{:>8.0}s {host} declared dead ({evidence} messages abandoned)",
                    at.as_secs_f64()
                ),
                AuditEvent::OperatorRespawned { at, op, from, to } => println!(
                    "{:>8.0}s {op} respawned from origin image: {from} -> {to}",
                    at.as_secs_f64()
                ),
                AuditEvent::RunAborted { at, reason } => {
                    println!("{:>8.0}s run aborted: {reason}", at.as_secs_f64())
                }
            }
        }
    }
    Ok(())
}

fn cmd_report(flags: &Flags) -> Result<(), Error> {
    let (exp, algorithm) = experiment_from(flags)?;
    let (obs, tracer) = Tracer::install();
    let r = exp.run_observed(algorithm, obs);
    print!("{}", render_report(&tracer.borrow()));
    if !r.completed {
        println!("warning: run hit the safety cap before delivering every image");
    }
    Ok(())
}

fn cmd_study(flags: &Flags) -> Result<(), Error> {
    if flags.has("--gauge-analysis") {
        let seed = flags.get("--seed", 1998u64)?;
        print!(
            "{}",
            gauging::render_markdown(&gauging::gauge_vs_forecast(3, seed), seed)
        );
        return Ok(());
    }
    let mut params = StudyParams::paper_main(flags.get("--seed", 1998u64)?);
    params.n_configs = flags.count("--configs", 50)?;
    params.n_servers = servers_from(flags, 8)?;
    params.topology = topology_from(flags)?;
    params.knowledge = knowledge_from(flags)?;
    let threads = flags.threads()?;
    println!(
        "running {} configurations x 4 algorithms ({} servers, {} threads, knowledge {}{})...",
        params.n_configs,
        params.n_servers,
        threads,
        params.knowledge.name(),
        match params.topology {
            Some(p) => format!(", topology {p}"),
            None => String::new(),
        }
    );
    let results = run_study_parallel(&params, threads);
    println!("\nalgorithm   mean speedup  median  mean inter-arrival");
    println!(
        "download-all        1.00    1.00  {:>10.1} s",
        results.mean_interarrival_download_all()
    );
    for (i, name) in ["one-shot", "global", "local"].iter().enumerate() {
        println!(
            "{name:<12}{:>8.2}{:>8.2}  {:>10.1} s",
            results.mean_speedup(i),
            results.median_speedup(i),
            results.mean_interarrival(i)
        );
    }
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), Error> {
    let seed = flags.get("--seed", 1998u64)?;
    let window = SimDuration::from_hours(flags.get("--window-hours", 12u64)?);
    let (a, b) = flags
        .str("--pair")
        .unwrap_or("0,7")
        .split_once(',')
        .and_then(|(x, y)| Some((x.parse().ok()?, y.parse().ok()?)))
        .ok_or_else(|| Error::Usage("--pair must be two comma-separated host indices".into()))?;
    let study = BandwidthStudy::default_study(seed);
    let hosts = study.hosts();
    let Some(trace) = study.trace(a, b) else {
        return Err(Error::Usage(format!(
            "unknown pair ({a}, {b}); the study has hosts 0..{}",
            hosts.len()
        )));
    };
    let s = summarize(trace, window);
    println!(
        "{} - {} over {:.0} h: mean {:.1} KB/s, range {:.1}..{:.1} KB/s, cv {:.2}",
        hosts[a].name,
        hosts[b].name,
        window.as_secs_f64() / 3600.0,
        s.mean_bytes_per_sec / 1024.0,
        s.min_bytes_per_sec / 1024.0,
        s.max_bytes_per_sec / 1024.0,
        s.coefficient_of_variation
    );
    match s.mean_change_interval_secs {
        Some(secs) => println!(">=10% bandwidth changes every {secs:.0} s on average"),
        None => println!("bandwidth never changes by >=10%"),
    }
    Ok(())
}

fn cmd_plan(flags: &Flags) -> Result<(), Error> {
    let servers = servers_from(flags, 8)?;
    let seed = flags.get("--seed", 1998u64)?;
    let config = flags.get("--config", 0u64)?;
    let objective = match flags.str("--objective").unwrap_or("critical-path") {
        "critical-path" => Objective::CriticalPath,
        "contended" => Objective::Contended,
        other => return Err(Error::Usage(format!("unknown objective {other}"))),
    };
    let study = BandwidthStudy::default_study(seed);
    let exp = Experiment::from_study(servers, &study, SimDuration::from_hours(24), config, seed);
    let tree = CombinationTree::complete_binary(servers).expect("servers >= 2");
    let roster = HostRoster::one_host_per_server(servers);
    let model = CostModel::paper_defaults();
    let view = exp.links().oracle_at(SimTime::ZERO);

    let download_all = Placement::download_all(&tree, &roster);
    let da_cp = critical_path(&tree, &roster, &download_all, view, &model);
    println!("download-all critical path: {:.2} s/partition", da_cp.cost);

    let result = match objective {
        Objective::CriticalPath => one_shot_placement(&tree, &roster, view, &model),
        Objective::Contended => wadc::core::algorithms::one_shot::improve_placement_by(
            &tree,
            &roster,
            download_all.clone(),
            view,
            &model,
            Objective::Contended,
        ),
    };
    println!(
        "one-shot placement ({} iterations): {:.2} s/partition",
        result.iterations, result.cost
    );
    for i in 0..tree.operator_count() {
        let op = OperatorId::new(i);
        println!(
            "  {op} (level {}) -> {}",
            tree.operator_level(op),
            result.placement.site(op)
        );
    }
    let occupancy = nic_occupancy(&tree, &roster, &result.placement, view, &model);
    let busiest = occupancy
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "busiest NIC: host {} at {:.2} s/partition",
        busiest.0, busiest.1
    );
    Ok(())
}

/// The digests pinned by the repository; drift fails CI until the fixture
/// is regenerated (and the change thereby acknowledged) with
/// `wadc verify --print-golden > tests/golden/digests.txt`.
const GOLDEN_FIXTURE: &str = include_str!("../../tests/golden/digests.txt");

/// The topology-backend digests pinned by the repository; regenerated
/// with `wadc verify --print-golden-topo > tests/golden/digests_topo.txt`.
const GOLDEN_FIXTURE_TOPO: &str = include_str!("../../tests/golden/digests_topo.txt");

fn cmd_verify(flags: &Flags) -> Result<(), Error> {
    if flags.has("--print-golden") {
        print!("{}", golden::render_fixture());
        return Ok(());
    }
    if flags.has("--print-golden-topo") {
        print!("{}", golden::render_topo_fixture());
        return Ok(());
    }
    let seed = flags.get("--seed", 42u64)?;
    // Not `flags.threads()`: the verify gate *wants* oversubscription
    // (more workers than cores still shuffles completion order), so the
    // flag is taken as given.
    let threads = flags.get("--threads", 2usize)?.max(1);
    let mut failures: Vec<String> = Vec::new();

    let cases = golden::golden_cases();
    println!("golden: comparing {} pinned scenarios...", cases.len());
    failures.extend(
        golden::compare_fixture(GOLDEN_FIXTURE)
            .into_iter()
            .map(|f| format!("golden: {f}")),
    );

    let topo_cases = golden::topo_golden_cases();
    println!(
        "golden: comparing {} pinned topology-backend scenarios...",
        topo_cases.len()
    );
    failures.extend(
        golden::compare_topo_fixture(GOLDEN_FIXTURE_TOPO)
            .into_iter()
            .map(|f| format!("golden-topo: {f}")),
    );

    let thirty = SimDuration::from_secs(30);
    let all_algorithms = [
        Algorithm::DownloadAll,
        Algorithm::OneShot,
        Algorithm::Global { period: thirty },
        Algorithm::Local {
            period: thirty,
            extra_candidates: 0,
        },
    ];
    println!("determinism + invariants: quick world, all four algorithms...");
    let exp = Experiment::quick(4, seed);
    for algorithm in all_algorithms {
        match check_determinism(&exp, algorithm) {
            Ok(digests) => println!("  {:<13} {digests}", algorithm.name()),
            Err(e) => failures.push(format!("determinism: {e}")),
        }
        let mut cfg = exp.template().clone();
        cfg.algorithm = algorithm;
        let result = exp.run(algorithm);
        failures.extend(
            check_run(&cfg, &result)
                .into_iter()
                .map(|v| format!("invariant: {} {v}", algorithm.name())),
        );
    }

    println!("determinism + invariants: paper-WAN topology world, all four algorithms...");
    let topo_exp = Experiment::quick_topo(4, seed);
    for algorithm in all_algorithms {
        match check_determinism(&topo_exp, algorithm) {
            Ok(digests) => println!("  {:<13} {digests}", algorithm.name()),
            Err(e) => failures.push(format!("topo determinism: {e}")),
        }
        let mut cfg = topo_exp.template().clone();
        cfg.algorithm = algorithm;
        let result = topo_exp.run(algorithm);
        failures.extend(
            check_run(&cfg, &result)
                .into_iter()
                .map(|v| format!("topo invariant: {} {v}", algorithm.name())),
        );
    }

    println!("sweep: quick study, threads=1 vs threads={threads}...");
    let sweep_params = StudyParams::quick(seed);
    let sequential = run_study(&sweep_params);
    let swept = run_study_parallel(&sweep_params, threads);
    if sequential.digest() == swept.digest() {
        println!(
            "  study digest {:016x} identical across thread counts",
            sequential.digest()
        );
    } else {
        failures.push(format!(
            "sweep: threads=1 study digest {:016x} != threads={threads} digest {:016x}",
            sequential.digest(),
            swept.digest()
        ));
    }

    println!("sweep: quick topology study, threads=1 vs threads={threads}...");
    let mut topo_params = StudyParams::quick(seed);
    topo_params.n_configs = 2;
    topo_params.topology = Some(TopoPreset::PaperWan);
    let topo_sequential = run_study(&topo_params);
    let topo_swept = run_study_parallel(&topo_params, threads);
    if topo_sequential.digest() == topo_swept.digest() {
        println!(
            "  topology study digest {:016x} identical across thread counts",
            topo_sequential.digest()
        );
    } else {
        failures.push(format!(
            "topo sweep: threads=1 study digest {:016x} != threads={threads} digest {:016x}",
            topo_sequential.digest(),
            topo_swept.digest()
        ));
    }

    if !flags.has("--quick") {
        println!("differential: relabeling, degenerate period, cost model, scaling...");
        failures.extend(
            run_suite(seed)
                .into_iter()
                .map(|f| format!("differential: {f}")),
        );

        println!(
            "chaos: loss, outage, blackout, move failure x all four algorithms \
             (threads={threads})..."
        );
        match run_chaos_suite_sweep(4, seed, threads) {
            Ok(outcomes) => {
                for o in outcomes {
                    println!("  {o}");
                }
            }
            Err(e) => failures.push(format!("chaos: {e}")),
        }
    }

    if failures.is_empty() {
        println!("verify: all checks passed");
        return Ok(());
    }
    for f in &failures {
        eprintln!("FAIL {f}");
    }
    Err(Error::Failed(format!("{} check(s) failed", failures.len())))
}

/// `wadc chaos --soak N`: randomized fault plans at scale on the sweep
/// driver, with optional fault-plan shrinking on failure.
fn cmd_chaos_soak(flags: &Flags, n_plans: usize) -> Result<(), Error> {
    let servers = servers_from(flags, 4)?;
    let seed = flags.get("--seed", 1998u64)?;
    // Not `flags.threads()`: like the verify gate, the soak's report is
    // sworn to be thread-count-invariant, so oversubscription is a
    // feature, not a mistake to clamp away.
    let threads = flags.get("--threads", 2usize)?.max(1);
    let shrink = flags.has("--shrink");
    println!(
        "chaos soak: {n_plans} random fault plans on the {servers}-server quick world \
         (seed {seed}, {threads} threads)..."
    );
    let report = run_soak(servers, seed, n_plans, threads, shrink).map_err(|failure| {
        Error::Failed(format!(
            "FAIL {failure}\n{}",
            if shrink {
                "(plan shown is the shrunk minimal reproduction)"
            } else {
                "(re-run with --shrink for a minimal reproduction)"
            }
        ))
    })?;
    println!("soak passed: {report}");
    Ok(())
}

fn cmd_chaos(flags: &Flags) -> Result<(), Error> {
    if flags.has("--soak") {
        return cmd_chaos_soak(flags, flags.get("--soak", 0)?);
    }
    let (mut exp, algorithm) = experiment_from(flags)?;
    let loss = flags.get("--loss", 0.05f64)?;
    let probe_blackhole = flags.get("--probe-blackhole", 0.0f64)?;
    let move_failure = flags.get("--move-failure", 0.0f64)?;
    let outages = flags.get("--outages", 0usize)?;
    let mut plan = FaultPlan::none()
        .with_loss(loss)
        .with_probe_blackhole(probe_blackhole)
        .with_move_failure(move_failure);
    if outages > 0 {
        plan = plan.with_random_outages(
            outages,
            SimDuration::from_mins(flags.get("--outage-mins", 5u64)?),
            SimDuration::from_hours(1),
        );
    }
    let n_servers = exp.template().n_servers;
    if flags.has("--crash-host") {
        plan = plan.crash(
            HostId::new(flags.get("--crash-host", 0)?),
            SimTime::from_secs(flags.get("--crash-at-secs", 30u64)?),
        );
    }
    // Eager validation: a plan naming a host outside the roster fails
    // here, before any simulation runs, not as a mystery mid-run.
    plan.validate_for_hosts(n_servers + 1)
        .map_err(|e| Error::Usage(format!("invalid fault plan: {e}")))?;
    println!(
        "chaos: {} servers x {} images under {} | loss {:.0}% probe-blackhole {:.0}% \
         move-failure {:.0}% outages {} crashes {}",
        n_servers,
        exp.template().workload.images_per_server,
        algorithm.name(),
        loss * 100.0,
        probe_blackhole * 100.0,
        move_failure * 100.0,
        outages,
        plan.crashes.len()
    );
    let clean = exp.run(algorithm);
    exp.template_mut().faults = plan;
    let r = exp.run(algorithm);
    println!(
        "outcome: {} | total {:.0} s | clean run {:.0} s ({:+.1}%)",
        r.outcome.name(),
        r.completion_time.as_secs_f64(),
        clean.completion_time.as_secs_f64(),
        100.0 * (r.completion_time.as_secs_f64() / clean.completion_time.as_secs_f64() - 1.0)
    );
    print!("{}", r.net_stats);
    let mut rollbacks = 0u64;
    let mut aborts = 0u64;
    for e in r.audit.events() {
        match e {
            AuditEvent::RelocationAborted { .. } => rollbacks += 1,
            AuditEvent::ChangeoverAborted { .. } => aborts += 1,
            _ => {}
        }
    }
    println!(
        "move rollbacks {rollbacks} | barrier aborts {aborts} | hosts declared dead {} | \
         operators respawned {}",
        r.hosts_declared_dead, r.operators_respawned
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        return usage();
    };
    let chaos_flags = format!("{RUN_FLAGS} {CHAOS_FLAGS}");
    type Body = fn(&Flags) -> Result<(), Error>;
    let (spec, body): (&str, Body) = match cmd.as_str() {
        "run" => (RUN_FLAGS, cmd_run),
        "report" => (RUN_FLAGS, cmd_report),
        "chaos" => (&chaos_flags, cmd_chaos),
        "study" => (STUDY_FLAGS, cmd_study),
        "trace" => ("--pair A,B --seed S --window-hours H", cmd_trace),
        "plan" => ("--servers N --seed S --config I --objective O", cmd_plan),
        "verify" => (VERIFY_FLAGS, cmd_verify),
        _ => return usage(),
    };
    cli::run(&format!("wadc {cmd}"), spec, argv, body)
}
