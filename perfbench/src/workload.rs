//! The benchmark's workloads: four study shapes from the paper, each
//! chosen so that one layer of the library does most of its work there.
//!
//! Every workload is a fixed *pool* of study configurations (the study
//! master seed is pinned at [`STUDY_SEED`], the seed `wadc study` uses), so
//! every run it makes has a pinned digest under `pins/`. The benchmark's
//! `--seed` draws the order in which a pass visits the pool; the pool, and
//! so `sim_ratio_err`, is the same for every seed, and every seed measures
//! the same mix of work, which keeps host-time figures comparable.

use std::sync::Arc;

use wadc_core::engine::Algorithm;
use wadc_core::experiment::Experiment;
use wadc_core::knowledge::KnowledgeMode;
use wadc_core::study::StudyParams;
use wadc_net::faults::FaultPlan;
use wadc_sim::rng::{derive_seed, Rng64};
use wadc_sim::time::SimDuration;
use wadc_topo::preset::TopoPreset;
use wadc_trace::model::BandwidthTrace;
use wadc_trace::study::BandwidthStudy;

/// Master seed of every workload's study (the paper's year, as in
/// `wadc study`).
pub const STUDY_SEED: u64 = 1998;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1998;
/// Seed reserved for confirming a claim: never use it while tuning a
/// change.
pub const HOLDOUT_SEED: u64 = 2718;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// The study shape; `n_configs` is the pool size.
    pub params: StudyParams,
    /// Configurations the traced pass sweeps at threads 1 and 2.
    pub sweep_configs: usize,
    /// Listed in `BENCHMARK.json`, so a harness running it measures and gates
    /// it; the others run only when named on the command line.
    pub gated: bool,
}

fn two_minutes() -> [Algorithm; 3] {
    let period = SimDuration::from_mins(2);
    [
        Algorithm::OneShot,
        Algorithm::Global { period },
        Algorithm::Local {
            period,
            extra_candidates: 0,
        },
    ]
}

/// All workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    let paper = StudyParams::paper_main(STUDY_SEED);

    let mut wan = paper.clone();
    wan.n_configs = 80;
    wan.topology = Some(TopoPreset::PaperWan);
    wan.knowledge = KnowledgeMode::Gauged;

    let mut scale = paper.clone();
    scale.n_configs = 26;
    scale.n_servers = 32;
    scale.algorithms = two_minutes().to_vec();

    let mut lossy = paper.clone();
    lossy.n_configs = 200;
    lossy.algorithms = two_minutes().to_vec();
    lossy.faults = FaultPlan::none()
        .with_loss(0.05)
        .with_probe_blackhole(0.1)
        .with_move_failure(0.25);

    vec![
        Workload {
            name: "paper-study",
            why: "Fig. 6 as `wadc study` runs it: the per-message path (net, monitor, dispatch, DES heap) dominates; planner and topology idle",
            params: paper,
            sweep_configs: 60,
            gated: false,
        },
        Workload {
            name: "wan-contention",
            why: "paper-study over the shared-bottleneck paper-WAN with gauged knowledge: max-min fair sharing, rescheduled flows, per-config topology build",
            params: wan,
            sweep_configs: 16,
            gated: true,
        },
        Workload {
            name: "scale-32",
            why: "Fig. 8/9 extreme, 32 servers at a 2 min period: ~12x the relocations, change-overs and transfers per run, 33x33 monitor matrices, costlier planner",
            params: scale,
            sweep_configs: 3,
            gated: false,
        },
        Workload {
            name: "lossy-recovery",
            why: "8 servers at a 2 min period under loss, probe black-holes and failed moves: retransmits, rollbacks, aborted change-overs, timer cancels",
            params: lossy,
            sweep_configs: 40,
            gated: true,
        },
    ]
}

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The algorithms of one configuration in run order: download-all (the
    /// speedup base) first, then the study's algorithms — the order
    /// `wadc study` runs them in and the order of the pinned digests.
    pub fn algorithms(&self) -> Vec<Algorithm> {
        let mut algs = vec![Algorithm::DownloadAll];
        algs.extend(self.params.algorithms.iter().copied());
        algs
    }

    /// Synthesizes the study's noon-aligned trace pool (the set-up step).
    pub fn trace_pool(&self) -> Vec<Arc<BandwidthTrace>> {
        BandwidthStudy::default_study(self.params.master_seed)
            .noon_trace_pool(self.params.trace_window)
    }

    /// Configuration `index` of the study, built through the library's
    /// public constructors exactly as the study driver builds it (its own
    /// builder is private; the pins, which the study driver computes,
    /// catch any drift between the two).
    pub fn experiment(&self, pool: &[Arc<BandwidthTrace>], index: usize) -> Experiment {
        let p = &self.params;
        let base = match p.topology {
            Some(preset) => Experiment::from_study_pool_topo(
                p.n_servers,
                pool,
                preset,
                index as u64,
                p.master_seed,
            ),
            None => Experiment::from_study_pool(p.n_servers, pool, index as u64, p.master_seed),
        };
        let mut exp = base
            .with_tree_shape(p.tree_shape)
            .with_knowledge(p.knowledge)
            .with_workload(p.workload);
        if !p.faults.is_empty() {
            exp.template_mut().faults = p.faults.clone();
        }
        exp
    }

    /// The order in which a run with `seed` visits the pool.
    pub fn order(&self, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.params.n_configs).collect();
        Rng64::seed_from_u64(derive_seed(seed, 0x0bec)).shuffle(&mut order);
        order
    }

    /// The same study with only its first `n` configurations.
    pub fn study_prefix(&self, n: usize) -> StudyParams {
        let mut p = self.params.clone();
        p.n_configs = n.min(p.n_configs);
        p
    }
}
