//! Run-arena reuse is observationally inert: a run drawing its entire
//! world (message boxes, queue, monitors, network buffers, search
//! scratch) from a warm [`RunScratch`] recycled from earlier runs — even
//! of *different* algorithms — must be bit-identical to a cold run of the
//! same world.

use wadc::core::engine::{Algorithm, RunScratch};
use wadc::core::experiment::Experiment;
use wadc::net::faults::FaultPlan;
use wadc::plan::ids::HostId;
use wadc::sim::time::{SimDuration, SimTime};
use wadc::trace::study::BandwidthStudy;

fn all_algorithms() -> [Algorithm; 4] {
    [
        Algorithm::DownloadAll,
        Algorithm::OneShot,
        Algorithm::Global {
            period: SimDuration::from_secs(30),
        },
        Algorithm::Local {
            period: SimDuration::from_secs(30),
            extra_candidates: 2,
        },
    ]
}

fn is_adaptive(alg: Algorithm) -> bool {
    matches!(alg, Algorithm::Global { .. } | Algorithm::Local { .. })
}

/// An 8-server paper-study world (8 images per server) in which both
/// adaptive algorithms actually relocate operators, so warm runs recycle
/// operator-state packets and relocation bookkeeping through the arena.
fn relocating_world() -> Experiment {
    let pool = BandwidthStudy::default_study(1998).noon_trace_pool(SimDuration::from_hours(24));
    let mut exp = Experiment::from_study_pool(8, &pool, 1, 1998);
    exp.template_mut().workload.images_per_server = 8;
    exp
}

/// One [`RunScratch`] cycles through the full algorithm portfolio, on
/// both network backends (independent per-pair links and the paper-WAN
/// shared-bottleneck topology) and on a world where the adaptive
/// algorithms relocate, and every warm run must equal its cold twin bit
/// for bit. By the later iterations the arena holds capacity recycled
/// from every earlier algorithm's world — including the global
/// algorithm's search scratch and the local algorithm's location
/// vectors — so this catches any reset that forgets state.
#[test]
fn warm_arena_runs_are_bit_identical_to_cold_runs() {
    let mut worlds = Vec::new();
    for seed in [7u64, 1998] {
        worlds.push((
            format!("per-pair seed {seed}"),
            Experiment::quick(4, seed),
            false,
        ));
        worlds.push((
            format!("paper-wan seed {seed}"),
            Experiment::quick_topo(4, seed),
            false,
        ));
    }
    worlds.push((
        "relocating study world".to_string(),
        relocating_world(),
        true,
    ));
    for (label, exp, relocating) in worlds {
        let mut scratch = RunScratch::new();
        for alg in all_algorithms() {
            let cold = exp.run(alg);
            if relocating && is_adaptive(alg) {
                assert!(
                    cold.relocations > 0,
                    "{} made no relocation in the {label}: the world went vacuous",
                    alg.name()
                );
            }
            let warm_a = exp.run_scratch(alg, &mut scratch);
            let warm_b = exp.run_scratch(alg, &mut scratch);
            for (which, warm) in [("first", &warm_a), ("second", &warm_b)] {
                assert_eq!(
                    warm.digest(),
                    cold.digest(),
                    "{which} warm-arena {} run diverged from cold ({label})",
                    alg.name()
                );
                assert_eq!(warm.arrivals, cold.arrivals, "{}", alg.name());
                assert_eq!(warm.net_stats, cold.net_stats, "{}", alg.name());
                assert_eq!(warm.audit.events(), cold.audit.events(), "{}", alg.name());
            }
        }
        assert!(
            scratch.is_warm(),
            "completed runs must park their world in the arena"
        );
    }
}

/// Faulty worlds churn the arena hardest — retransmissions cycle message
/// boxes through retry timers, a host death tears transfers out of the
/// network mid-flight and routes the planner through the masked
/// (surviving-subgraph) search — and recycling all of it must still be
/// invisible in the results. The quick world finishes in about 15 s, so
/// the crash comes at 5 s to land mid-run.
#[test]
fn warm_arena_survives_loss_and_crash_faults_unchanged() {
    let loss = FaultPlan::none().with_loss(0.1);
    let crash = loss.clone().crash(HostId::new(2), SimTime::from_secs(5));
    for (label, plan, crashing) in [("loss+crash", crash, true), ("loss", loss, false)] {
        let mut exp = Experiment::quick(4, 12);
        exp.template_mut().faults = plan;
        let mut scratch = RunScratch::new();
        for alg in all_algorithms() {
            let cold = exp.run(alg);
            if crashing && matches!(alg, Algorithm::DownloadAll | Algorithm::Global { .. }) {
                assert!(
                    cold.hosts_declared_dead > 0,
                    "{} never declared the crashed host dead",
                    alg.name()
                );
            }
            let warm_a = exp.run_scratch(alg, &mut scratch);
            let warm_b = exp.run_scratch(alg, &mut scratch);
            assert_eq!(
                warm_a.digest(),
                cold.digest(),
                "{label} warm-arena {} run diverged from cold",
                alg.name()
            );
            assert_eq!(warm_b.digest(), cold.digest(), "{label} {}", alg.name());
            assert_eq!(warm_b.net_stats, cold.net_stats, "{label} {}", alg.name());
        }
    }
}
