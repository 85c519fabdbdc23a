//! The fixed world a run executes in: network, combination tree, host
//! roster and workload.
//!
//! The paper compares its algorithms against one world held constant —
//! the same link traces, the same tree, the same image sequences — so the
//! world is a value of its own, built once and handed to
//! [`Engine::build`](super::Engine::build) for each run.

use std::sync::Arc;

use wadc_app::workload::Workload;
use wadc_net::link::LinkTable;
use wadc_plan::placement::HostRoster;
use wadc_plan::tree::CombinationTree;
use wadc_sim::rng::derive_seed;
use wadc_topo::graph::Topology;

use super::config::EngineConfig;

/// The network model a world runs over.
#[derive(Debug, Clone)]
pub enum WorldNet {
    /// Independent per-pair links: each transfer sees its link's trace
    /// alone.
    Links(LinkTable),
    /// A shared-bottleneck topology (see [`wadc_net::topo`]). The engine
    /// derives the per-pair link table from the topology's nominal
    /// path-bottleneck traces — what the planner, probes and uncontended
    /// transfers see — while concurrent transfers crossing a shared link
    /// split its bandwidth max-min fairly.
    Topology(Arc<Topology>),
}

/// Everything a run holds fixed besides its configuration.
///
/// Start from [`World::canonical`] and override fields for non-canonical
/// worlds — an explicit tree (e.g. a bandwidth-aware ordering), a roster
/// binding servers to replica hosts, or a relabeled link table.
#[derive(Debug, Clone)]
pub struct World {
    /// The network the run's transfers cross.
    pub net: WorldNet,
    /// The combination tree; its server count must equal the config's.
    pub tree: CombinationTree,
    /// Which host each server (and the client) lives on; the network
    /// must cover exactly its hosts.
    pub roster: HostRoster,
    /// The image sequences. Shared so the runs of one experiment
    /// synthesize it once.
    pub workload: Arc<Workload>,
}

impl World {
    /// The paper's canonical world for `cfg` over per-pair `links`: the
    /// tree built from `cfg.tree_shape`, one host per server plus a
    /// client host, and the workload generated from
    /// `derive_seed(cfg.seed, 1)`.
    ///
    /// # Panics
    ///
    /// Panics with its message if [`EngineConfig::validate`] rejects
    /// `cfg`.
    pub fn canonical(cfg: &EngineConfig, links: LinkTable) -> World {
        World::canonical_shared(cfg, WorldNet::Links(links), generate_workload(cfg))
    }

    /// [`World::canonical`] over any network, reusing `workload`, which
    /// must equal what [`generate_workload`] would build for `cfg`.
    pub(crate) fn canonical_shared(
        cfg: &EngineConfig,
        net: WorldNet,
        workload: Arc<Workload>,
    ) -> World {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        World {
            net,
            tree: CombinationTree::build(cfg.tree_shape, cfg.n_servers)
                .expect("canonical worlds need a buildable tree shape"),
            roster: HostRoster::one_host_per_server(cfg.n_servers),
            workload,
        }
    }
}

/// The workload a canonical world of `cfg` carries.
pub(crate) fn generate_workload(cfg: &EngineConfig) -> Arc<Workload> {
    Arc::new(Workload::generate(
        &cfg.workload,
        cfg.n_servers,
        derive_seed(cfg.seed, 1),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, Engine, RunScratch};
    use wadc_trace::model::BandwidthTrace;

    fn links(n_hosts: usize) -> LinkTable {
        let pool = vec![Arc::new(BandwidthTrace::constant(64_000.0))];
        LinkTable::random_from_pool(n_hosts, &pool, 1)
    }

    #[test]
    #[should_panic(expected = "need at least two servers")]
    fn build_validates_the_config_before_the_world() {
        // A well-formed two-server world under a one-server config: the
        // config check must fire before any tree/roster/link assert.
        let world = World::canonical(&EngineConfig::new(2, Algorithm::DownloadAll), links(3));
        let one = EngineConfig::new(1, Algorithm::DownloadAll);
        Engine::build(one, world, RunScratch::new());
    }

    #[test]
    #[should_panic(expected = "need at least two servers")]
    fn canonical_world_reports_the_config_error_not_the_tree_error() {
        World::canonical(&EngineConfig::new(1, Algorithm::DownloadAll), links(2));
    }
}
