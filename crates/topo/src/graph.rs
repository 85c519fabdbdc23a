//! The topology graph and its routing table.
//!
//! A [`Topology`] is a set of named links — access links private to one
//! host, backbone links shared by many routes — plus a route (an ordered
//! list of [`LinkId`]s) for every unordered host pair. Each link carries
//! a [`BandwidthTrace`]; a pair's *nominal* bandwidth (what an
//! uncontended transfer, or an on-demand probe, sees) is the pointwise
//! minimum of its path's traces.

use std::sync::Arc;

use wadc_plan::ids::HostId;
use wadc_sim::time::SimTime;
use wadc_trace::model::{BandwidthTrace, Sample};

/// Handle to one link of a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(usize);

impl LinkId {
    /// Wraps a raw link index. Meaningful only against the topology (or
    /// capacity slice) the index came from.
    pub const fn new(index: usize) -> Self {
        LinkId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One physical link: a stable name and its bandwidth trace.
#[derive(Debug, Clone)]
pub struct TopoLink {
    /// Stable human-readable name ("access-3", "transatlantic", …).
    pub name: String,
    /// The link's capacity over time, in bytes per second.
    pub trace: Arc<BandwidthTrace>,
}

/// An explicit topology: links plus a routed path per host pair.
///
/// Built through [`TopologyBuilder`]; construction verifies that every
/// pair of the complete graph is routed, then precomputes each pair's
/// nominal (path-bottleneck) trace.
#[derive(Debug, Clone)]
pub struct Topology {
    n_hosts: usize,
    links: Vec<TopoLink>,
    /// Route per unordered pair, indexed `lo * n + hi`; empty elsewhere.
    routes: Vec<Vec<LinkId>>,
    /// Cached nominal trace per unordered pair (same indexing). For
    /// single-link paths this is the link's own `Arc`, so a topology of
    /// private per-pair links reproduces a plain link table exactly.
    nominal: Vec<Option<Arc<BandwidthTrace>>>,
    /// Number of pair routes crossing each link.
    route_count: Vec<usize>,
}

/// Builder for [`Topology`]: add links, then route every host pair.
#[derive(Debug)]
pub struct TopologyBuilder {
    n_hosts: usize,
    links: Vec<TopoLink>,
    routes: Vec<Vec<LinkId>>,
}

fn pair_index(n: usize, a: HostId, b: HostId) -> usize {
    let (lo, hi) = if a.index() <= b.index() {
        (a.index(), b.index())
    } else {
        (b.index(), a.index())
    };
    lo * n + hi
}

impl TopologyBuilder {
    /// Starts a topology over `n_hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `n_hosts < 2`.
    pub fn new(n_hosts: usize) -> Self {
        assert!(n_hosts >= 2, "a topology needs at least two hosts");
        TopologyBuilder {
            n_hosts,
            links: Vec::new(),
            routes: vec![Vec::new(); n_hosts * n_hosts],
        }
    }

    /// Adds a link and returns its handle.
    pub fn add_link(&mut self, name: &str, trace: Arc<BandwidthTrace>) -> LinkId {
        self.links.push(TopoLink {
            name: name.to_string(),
            trace,
        });
        LinkId(self.links.len() - 1)
    }

    /// Routes the (symmetric) pair `a`–`b` over `path`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, a host is out of range, the path is empty,
    /// a link id is unknown, or the path repeats a link.
    pub fn route(&mut self, a: HostId, b: HostId, path: &[LinkId]) {
        assert_ne!(a, b, "no self-routes");
        assert!(
            a.index() < self.n_hosts && b.index() < self.n_hosts,
            "host out of range"
        );
        assert!(!path.is_empty(), "a route crosses at least one link");
        for (i, l) in path.iter().enumerate() {
            assert!(l.0 < self.links.len(), "unknown link in route");
            assert!(
                !path[..i].contains(l),
                "route visits link {} twice",
                self.links[l.0].name
            );
        }
        self.routes[pair_index(self.n_hosts, a, b)] = path.to_vec();
    }

    /// Finalises the topology.
    ///
    /// # Panics
    ///
    /// Panics if any host pair was left unrouted.
    pub fn build(self) -> Topology {
        let n = self.n_hosts;
        let mut nominal = vec![None; n * n];
        let mut route_count = vec![0usize; self.links.len()];
        for a in 0..n {
            for b in (a + 1)..n {
                let idx = a * n + b;
                let path = &self.routes[idx];
                assert!(!path.is_empty(), "pair {a} - {b} has no route");
                for l in path {
                    route_count[l.0] += 1;
                }
                nominal[idx] = Some(if path.len() == 1 {
                    // One private link: reuse its trace verbatim, so a
                    // star-of-private-links topology is byte-identical
                    // to a per-pair link table.
                    self.links[path[0].0].trace.clone()
                } else {
                    Arc::new(min_trace(
                        path.iter().map(|l| self.links[l.0].trace.as_ref()),
                    ))
                });
            }
        }
        Topology {
            n_hosts: n,
            links: self.links,
            routes: self.routes,
            nominal,
            route_count,
        }
    }
}

/// Pointwise minimum of several step functions by a k-way cursor sweep.
///
/// One index per input trace. At each merged boundary every cursor whose
/// next sample starts there advances, the minimum of the values then in
/// effect is the merged value (equal runs compress), and the earliest
/// next sample of any cursor is the next boundary. Linear in the total
/// sample count (times the path length), with no sort and no
/// per-boundary search.
fn min_trace<'a>(traces: impl Iterator<Item = &'a BandwidthTrace>) -> BandwidthTrace {
    // Every trace starts at time zero, so every cursor starts on sample 0.
    let mut cursors: Vec<(&[Sample], usize)> = traces.map(|t| (t.samples(), 0)).collect();
    // Traces on a shared grid (the study pool's) merge onto the longest
    // one's boundaries, so this is the exact size in the common case.
    let longest = cursors.iter().map(|c| c.0.len()).max().unwrap_or(0);
    let mut samples: Vec<Sample> = Vec::with_capacity(longest);
    let mut at = SimTime::ZERO;
    loop {
        let mut bw = f64::INFINITY;
        let mut next: Option<SimTime> = None;
        for (s, i) in cursors.iter_mut() {
            if s.get(*i + 1).is_some_and(|n| n.at == at) {
                *i += 1;
            }
            bw = f64::min(bw, s[*i].bytes_per_sec);
            if let Some(n) = s.get(*i + 1) {
                next = Some(next.map_or(n.at, |t| t.min(n.at)));
            }
        }
        if samples.last().map(|s| s.bytes_per_sec) != Some(bw) {
            samples.push(Sample {
                at,
                bytes_per_sec: bw,
            });
        }
        match next {
            Some(t) => at = t,
            None => break,
        }
    }
    BandwidthTrace::from_samples(samples).expect("merged boundaries form a valid trace")
}

impl Topology {
    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.n_hosts
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The link behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &TopoLink {
        &self.links[id.0]
    }

    /// Looks a link up by name.
    pub fn find_link(&self, name: &str) -> Option<LinkId> {
        self.links.iter().position(|l| l.name == name).map(LinkId)
    }

    /// The routed path of a pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or a host is out of range.
    pub fn route(&self, a: HostId, b: HostId) -> &[LinkId] {
        &self.routes[self.checked_pair(a, b)]
    }

    /// The pair-table index of `a`–`b`, after the checks every per-pair
    /// lookup makes: a raw `lo * n + hi` of an out-of-range host would
    /// silently alias another pair.
    fn checked_pair(&self, a: HostId, b: HostId) -> usize {
        assert_ne!(a, b, "no self-routes");
        assert!(
            a.index() < self.n_hosts && b.index() < self.n_hosts,
            "host out of range"
        );
        pair_index(self.n_hosts, a, b)
    }

    /// The pair's nominal trace: the pointwise minimum bandwidth along
    /// its path — what an uncontended transfer (or an on-demand probe)
    /// experiences.
    ///
    /// # Panics
    ///
    /// As for [`Topology::route`].
    pub fn nominal_trace(&self, a: HostId, b: HostId) -> &Arc<BandwidthTrace> {
        self.nominal[self.checked_pair(a, b)]
            .as_ref()
            .expect("built topologies route every pair")
    }

    /// `true` if more than one pair's route crosses the link — the
    /// links where fair sharing can actually bite.
    pub fn is_shared(&self, id: LinkId) -> bool {
        self.route_count[id.0] > 1
    }

    /// Every host pair whose route crosses `link`, in `(lo, hi)` order.
    pub fn pairs_over(&self, link: LinkId) -> Vec<(HostId, HostId)> {
        let mut out = Vec::new();
        for a in 0..self.n_hosts {
            for b in (a + 1)..self.n_hosts {
                if self.routes[a * self.n_hosts + b].contains(&link) {
                    out.push((HostId::new(a), HostId::new(b)));
                }
            }
        }
        out
    }

    /// The earliest bandwidth-step boundary strictly after `t` on any of
    /// `links` — the next instant a fairness recompute is due even if no
    /// flow starts or finishes.
    pub fn next_step_after(&self, links: &[LinkId], t: SimTime) -> Option<SimTime> {
        links
            .iter()
            .filter_map(|l| {
                let samples = self.links[l.0].trace.samples();
                let i = samples.partition_point(|s| s.at <= t);
                samples.get(i).map(|s| s.at)
            })
            .min()
    }

    /// A star of private links: every pair gets its own dedicated link
    /// carrying the trace `traces(a, b)` returns. Nothing is shared, so
    /// the fair-share model must reproduce a per-pair link table
    /// exactly — the equivalence the verification suite pins.
    pub fn star_private(
        n_hosts: usize,
        mut traces: impl FnMut(HostId, HostId) -> Arc<BandwidthTrace>,
    ) -> Topology {
        let mut b = TopologyBuilder::new(n_hosts);
        for lo in 0..n_hosts {
            for hi in (lo + 1)..n_hosts {
                let (a, h) = (HostId::new(lo), HostId::new(hi));
                let link = b.add_link(&format!("private-{lo}-{hi}"), traces(a, h));
                b.route(a, h, &[link]);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_sim::rng::Rng64;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    /// The merge by brute force: collect every boundary, sort, dedup, and
    /// binary-search each trace at each one. The sweep must agree with it
    /// bit for bit.
    fn min_trace_reference(traces: &[&BandwidthTrace]) -> Vec<Sample> {
        let mut boundaries: Vec<SimTime> = traces
            .iter()
            .flat_map(|t| t.samples().iter().map(|s| s.at))
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut samples: Vec<Sample> = Vec::new();
        for at in boundaries {
            let bw = traces
                .iter()
                .map(|t| t.bandwidth_at(at))
                .fold(f64::INFINITY, f64::min);
            if samples.last().map(|s| s.bytes_per_sec) != Some(bw) {
                samples.push(Sample {
                    at,
                    bytes_per_sec: bw,
                });
            }
        }
        samples
    }

    /// A random step trace of random length: boundaries on a whole-second
    /// grid (shared with other traces) or jittered off it (unaligned), and
    /// values from a small palette so equal neighbours and equal
    /// cross-trace minima are common.
    fn random_trace(rng: &mut Rng64) -> BandwidthTrace {
        let len = 1 + rng.range_usize(40);
        let mut grid_ms = 0u64;
        let samples = (0..len)
            .map(|i| {
                // Strides of 1-3 s and jitter under 1 s keep times
                // strictly increasing.
                let at = if i == 0 {
                    0
                } else {
                    grid_ms += 1000 * rng.range_u64(1, 3);
                    let jitter = if rng.bool_with(0.3) {
                        rng.range_u64(1, 999)
                    } else {
                        0
                    };
                    grid_ms + jitter
                };
                Sample {
                    at: SimTime::from_millis(at),
                    bytes_per_sec: [50.0, 100.0, 100.0, 250.0, 1e6][rng.range_usize(5)],
                }
            })
            .collect();
        BandwidthTrace::from_samples(samples).expect("strictly increasing from zero")
    }

    #[test]
    fn min_trace_sweep_matches_brute_force_merge() {
        let mut rng = Rng64::seed_from_u64(0x6d_69_6e);
        for case in 0..500 {
            let k = 1 + rng.range_usize(4);
            let traces: Vec<BandwidthTrace> = (0..k).map(|_| random_trace(&mut rng)).collect();
            let refs: Vec<&BandwidthTrace> = traces.iter().collect();
            let merged = min_trace(refs.iter().copied());
            let want = min_trace_reference(&refs);
            assert_eq!(merged.len(), want.len(), "case {case}: sample count");
            for (got, want) in merged.samples().iter().zip(&want) {
                assert_eq!(got.at, want.at, "case {case}");
                assert_eq!(
                    got.bytes_per_sec.to_bits(),
                    want.bytes_per_sec.to_bits(),
                    "case {case} at {:?}",
                    got.at
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "host out of range")]
    fn nominal_trace_rejects_out_of_range_hosts() {
        // On 3 hosts, unchecked (0, 5) indexes slot 0 * 3 + 5, which is
        // pair (1, 2)'s, and would silently return that pair's trace.
        let t = two_host_shared();
        let _ = t.nominal_trace(h(0), h(5));
    }

    fn two_host_shared() -> Topology {
        let mut b = TopologyBuilder::new(3);
        let a0 = b.add_link("access-0", Arc::new(BandwidthTrace::constant(1000.0)));
        let a1 = b.add_link("access-1", Arc::new(BandwidthTrace::constant(1000.0)));
        let a2 = b.add_link("access-2", Arc::new(BandwidthTrace::constant(1000.0)));
        let bb = b.add_link("backbone", Arc::new(BandwidthTrace::constant(300.0)));
        b.route(h(0), h(1), &[a0, bb, a1]);
        b.route(h(0), h(2), &[a0, bb, a2]);
        b.route(h(1), h(2), &[a1, a2]);
        b.build()
    }

    #[test]
    fn routes_are_symmetric_and_nominal_is_bottleneck() {
        let t = two_host_shared();
        assert_eq!(t.route(h(0), h(1)), t.route(h(1), h(0)));
        assert_eq!(
            t.nominal_trace(h(0), h(1)).bandwidth_at(SimTime::ZERO),
            300.0
        );
        assert_eq!(
            t.nominal_trace(h(1), h(2)).bandwidth_at(SimTime::ZERO),
            1000.0
        );
    }

    #[test]
    fn shared_link_classification_and_pairs_over() {
        let t = two_host_shared();
        let bb = t.find_link("backbone").unwrap();
        assert!(t.is_shared(bb));
        assert!(
            t.is_shared(t.find_link("access-0").unwrap()),
            "access-0 carries two routes"
        );
        assert!(
            !t.is_shared(t.find_link("access-1").unwrap())
                || t.pairs_over(t.find_link("access-1").unwrap()).len() > 1
        );
        assert_eq!(t.pairs_over(bb), vec![(h(0), h(1)), (h(0), h(2))]);
    }

    #[test]
    fn min_trace_merges_boundaries() {
        let a = BandwidthTrace::from_steps(&[(0.0, 100.0), (10.0, 500.0)]).unwrap();
        let b = BandwidthTrace::from_steps(&[(0.0, 400.0), (5.0, 50.0)]).unwrap();
        let m = min_trace([&a, &b].into_iter());
        assert_eq!(m.bandwidth_at(SimTime::ZERO), 100.0);
        assert_eq!(m.bandwidth_at(SimTime::from_secs(5)), 50.0);
        assert_eq!(m.bandwidth_at(SimTime::from_secs(10)), 50.0);
        assert_eq!(m.len(), 2, "equal-value runs are compressed");
    }

    #[test]
    fn single_link_path_reuses_the_trace_arc() {
        let tr = Arc::new(BandwidthTrace::constant(77.0));
        let t = Topology::star_private(3, |_, _| tr.clone());
        assert!(Arc::ptr_eq(t.nominal_trace(h(0), h(2)), &tr));
    }

    #[test]
    fn next_step_after_finds_earliest_boundary() {
        let mut b = TopologyBuilder::new(2);
        let l0 = b.add_link(
            "a",
            Arc::new(BandwidthTrace::from_steps(&[(0.0, 1.0), (30.0, 2.0)]).unwrap()),
        );
        let l1 = b.add_link(
            "b",
            Arc::new(BandwidthTrace::from_steps(&[(0.0, 1.0), (20.0, 2.0)]).unwrap()),
        );
        b.route(h(0), h(1), &[l0, l1]);
        let t = b.build();
        assert_eq!(
            t.next_step_after(&[l0, l1], SimTime::ZERO),
            Some(SimTime::from_secs(20))
        );
        assert_eq!(
            t.next_step_after(&[l0, l1], SimTime::from_secs(20)),
            Some(SimTime::from_secs(30))
        );
        assert_eq!(t.next_step_after(&[l0, l1], SimTime::from_secs(30)), None);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn build_rejects_unrouted_pairs() {
        let mut b = TopologyBuilder::new(3);
        let l = b.add_link("x", Arc::new(BandwidthTrace::constant(1.0)));
        b.route(h(0), h(1), &[l]);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn route_rejects_repeated_links() {
        let mut b = TopologyBuilder::new(2);
        let l = b.add_link("x", Arc::new(BandwidthTrace::constant(1.0)));
        b.route(h(0), h(1), &[l, l]);
    }
}
