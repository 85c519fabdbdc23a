//! Max-min fair sharing by progressive filling.
//!
//! Given the instantaneous capacity of every link and the link path of
//! every concurrent flow, [`max_min_shares`] computes the unique max-min
//! fair allocation: repeatedly find the most contended link (smallest
//! remaining capacity per unfrozen flow), freeze its flows at that equal
//! share, subtract what they consume from every link they cross, repeat
//! until all flows are frozen. No flow can be given more without taking
//! from a flow that already has less.
//!
//! [`FairScratch`] holds the algorithm's working buffers so a caller that
//! recomputes on every flow start, finish and capacity step (the network
//! layer's fair-share model) reuses them instead of allocating per call.

use crate::graph::LinkId;

/// Computes the max-min fair rate of every flow.
///
/// `capacities[l]` is the instantaneous capacity (bytes/sec) of link
/// `LinkId(l)`; `flows[f]` is the link path of flow `f`. Rates are
/// written into `rates` (cleared first), `rates[f]` belonging to
/// `flows[f]`. Ties in the bottleneck search resolve to the lowest link
/// index, so the result is deterministic.
///
/// A one-shot wrapper over [`FairScratch::shares`] with fresh scratch;
/// callers that recompute repeatedly keep a [`FairScratch`] instead.
///
/// # Panics
///
/// Panics if a flow's path is empty or references a link outside
/// `capacities`.
///
/// # Examples
///
/// ```
/// use wadc_topo::fair::max_min_shares;
/// use wadc_topo::graph::LinkId;
///
/// // Two flows share link 0 (cap 100); flow 1 also crosses link 1 (cap 30).
/// // Flow 1 is bottlenecked at 30, leaving 70 for flow 0.
/// let caps = [100.0, 30.0];
/// let flows: Vec<Vec<LinkId>> = vec![vec![LinkId::new(0)], vec![LinkId::new(0), LinkId::new(1)]];
/// let paths: Vec<&[LinkId]> = flows.iter().map(|f| f.as_slice()).collect();
/// let mut rates = Vec::new();
/// max_min_shares(&caps, &paths, &mut rates);
/// assert_eq!(rates, vec![70.0, 30.0]);
/// ```
pub fn max_min_shares(capacities: &[f64], flows: &[&[LinkId]], rates: &mut Vec<f64>) {
    FairScratch::default().shares(capacities, flows.len(), |f| flows[f], rates);
}

/// Working memory of the progressive filling, kept across calls by
/// callers that recompute shares repeatedly: every buffer is reset at the
/// start of a call, never freed, so a warm scratch allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FairScratch {
    /// Remaining capacity per link.
    remaining: Vec<f64>,
    /// Unfrozen flows crossing each link.
    unfrozen_on: Vec<usize>,
    /// Whether each flow's rate is settled.
    frozen: Vec<bool>,
}

impl FairScratch {
    /// Max-min fair rates of `n_flows` flows, flow `f` crossing the links
    /// `path(f)`: the single body behind [`max_min_shares`], with the
    /// same arguments, results and panics except that paths are looked up
    /// on demand rather than passed as a slice of slices.
    pub fn shares<'a>(
        &mut self,
        capacities: &[f64],
        n_flows: usize,
        path: impl Fn(usize) -> &'a [LinkId],
        rates: &mut Vec<f64>,
    ) {
        rates.clear();
        rates.resize(n_flows, 0.0);
        if n_flows == 0 {
            return;
        }
        for f in 0..n_flows {
            let p = path(f);
            assert!(!p.is_empty(), "a flow crosses at least one link");
            for l in p {
                assert!(l.index() < capacities.len(), "flow references unknown link");
            }
        }

        let FairScratch {
            remaining,
            unfrozen_on,
            frozen,
        } = self;
        remaining.clear();
        remaining.extend_from_slice(capacities);
        unfrozen_on.clear();
        unfrozen_on.resize(capacities.len(), 0);
        for f in 0..n_flows {
            for l in path(f) {
                unfrozen_on[l.index()] += 1;
            }
        }
        frozen.clear();
        frozen.resize(n_flows, false);
        let mut n_frozen = 0usize;

        while n_frozen < n_flows {
            // The bottleneck: the link whose equal split of remaining
            // capacity among its unfrozen flows is smallest.
            let mut best: Option<(usize, f64)> = None;
            for (l, (&cap, &cnt)) in remaining.iter().zip(unfrozen_on.iter()).enumerate() {
                if cnt == 0 {
                    continue;
                }
                let share = (cap / cnt as f64).max(0.0);
                match best {
                    Some((_, s)) if s <= share => {}
                    _ => best = Some((l, share)),
                }
            }
            let (bottleneck, share) = best.expect("unfrozen flows cross at least one link");

            // Freeze every unfrozen flow crossing the bottleneck at `share`.
            for f in 0..n_flows {
                if frozen[f] {
                    continue;
                }
                let p = path(f);
                if !p.contains(&LinkId::new(bottleneck)) {
                    continue;
                }
                frozen[f] = true;
                n_frozen += 1;
                rates[f] = share;
                for l in p {
                    remaining[l.index()] = (remaining[l.index()] - share).max(0.0);
                    unfrozen_on[l.index()] -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_sim::rng::Rng64;

    fn l(i: usize) -> LinkId {
        LinkId::new(i)
    }

    fn shares(caps: &[f64], flows: &[Vec<LinkId>]) -> Vec<f64> {
        let paths: Vec<&[LinkId]> = flows.iter().map(|f| f.as_slice()).collect();
        let mut rates = Vec::new();
        max_min_shares(caps, &paths, &mut rates);
        rates
    }

    /// `n_flows` random duplicate-free paths over `n_links` links.
    fn random_flows(rng: &mut Rng64, n_links: usize, n_flows: usize) -> Vec<Vec<LinkId>> {
        (0..n_flows)
            .map(|_| {
                let hops = 1 + (rng.next_u64() % n_links as u64) as usize;
                let mut path: Vec<usize> = (0..n_links).collect();
                // Deterministic partial shuffle for a duplicate-free path.
                for i in 0..hops {
                    let j = i + (rng.next_u64() as usize) % (n_links - i);
                    path.swap(i, j);
                }
                path[..hops].iter().map(|&i| l(i)).collect()
            })
            .collect()
    }

    /// One scratch driven through flow sets that grow, shrink and change
    /// link count must give, call after call, exactly the rates a fresh
    /// scratch gives: no state may leak from one call into the next.
    #[test]
    fn reused_scratch_matches_fresh_calls_bit_for_bit() {
        let mut rng = Rng64::seed_from_u64(0x70_70_02);
        let mut scratch = FairScratch::default();
        let mut rates = Vec::new();
        let mut fresh = Vec::new();
        for case in 0..300 {
            let n_links = 1 + rng.range_usize(9);
            let caps: Vec<f64> = (0..n_links)
                .map(|_| 1.0 + rng.range_f64(0.0, 5000.0))
                .collect();
            let n_flows = rng.range_usize(14);
            let flows = random_flows(&mut rng, n_links, n_flows);
            let paths: Vec<&[LinkId]> = flows.iter().map(Vec::as_slice).collect();
            scratch.shares(&caps, n_flows, |f| paths[f], &mut rates);
            max_min_shares(&caps, &paths, &mut fresh);
            let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rates), bits(&fresh), "case {case}");
        }
    }

    #[test]
    fn single_flow_gets_full_bottleneck_bandwidth() {
        let rates = shares(&[500.0, 80.0, 900.0], &[vec![l(0), l(1), l(2)]]);
        assert_eq!(rates, vec![80.0]);
    }

    #[test]
    fn equal_flows_split_a_shared_link_evenly() {
        let rates = shares(&[90.0], &[vec![l(0)], vec![l(0)], vec![l(0)]]);
        assert_eq!(rates, vec![30.0, 30.0, 30.0]);
    }

    #[test]
    fn classic_two_bottleneck_example() {
        // Flow 1 squeezed to 30 by link 1; flow 0 inherits the slack.
        let rates = shares(&[100.0, 30.0], &[vec![l(0)], vec![l(0), l(1)]]);
        assert_eq!(rates, vec![70.0, 30.0]);
    }

    #[test]
    fn parking_lot_topology() {
        // One long flow over links 0,1,2 (caps 10 each) against a short
        // flow on each link: every link splits 5/5.
        let rates = shares(
            &[10.0, 10.0, 10.0],
            &[vec![l(0), l(1), l(2)], vec![l(0)], vec![l(1)], vec![l(2)]],
        );
        assert_eq!(rates, vec![5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn no_flows_yields_no_rates() {
        let rates = shares(&[10.0], &[]);
        assert!(rates.is_empty());
    }

    /// Property sweep over random topologies: conservation (per-link sum
    /// of allocations never exceeds capacity), positivity, and bottleneck
    /// saturation (every flow crosses at least one link that is fully
    /// used — the defining property of max-min fairness).
    #[test]
    fn random_allocations_conserve_and_saturate() {
        let mut rng = Rng64::seed_from_u64(0x70_70_01);
        for case in 0..200 {
            let n_links = 1 + (rng.next_u64() % 6) as usize;
            let caps: Vec<f64> = (0..n_links)
                .map(|_| 10.0 + (rng.next_u64() % 1000) as f64)
                .collect();
            let n_flows = 1 + (rng.next_u64() % 8) as usize;
            let flows = random_flows(&mut rng, n_links, n_flows);
            let rates = shares(&caps, &flows);

            for &r in &rates {
                assert!(r >= 0.0 && r.is_finite(), "case {case}: rate {r}");
            }
            // Conservation: Σ allocations ≤ capacity on every link.
            for (li, &cap) in caps.iter().enumerate() {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(p, _)| p.contains(&l(li)))
                    .map(|(_, &r)| r)
                    .sum();
                assert!(
                    used <= cap * (1.0 + 1e-9),
                    "case {case}: link {li} oversubscribed: {used} > {cap}"
                );
            }
            // Bottleneck saturation: every flow is limited somewhere.
            for (fi, path) in flows.iter().enumerate() {
                let saturated = path.iter().any(|lk| {
                    let used: f64 = flows
                        .iter()
                        .zip(&rates)
                        .filter(|(p, _)| p.contains(lk))
                        .map(|(_, &r)| r)
                        .sum();
                    used >= caps[lk.index()] * (1.0 - 1e-9)
                });
                assert!(saturated, "case {case}: flow {fi} has no saturated link");
            }
        }
    }
}
