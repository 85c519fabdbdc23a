//! Reference-model test of the gossip data path: the slot-indexed
//! [`BandwidthCache`] and compact piggybacks are checked, operation by
//! operation, against a straightforward row-major `Option<Measurement>`
//! matrix with a scan-filter-sort `collect` and a lookup-per-entry
//! `absorb`. Cases are drawn from the in-repo [`Rng64`], so runs are
//! deterministic.

use wadc_monitor::cache::{BandwidthCache, Measurement, MonitorConfig};
use wadc_monitor::piggyback::{absorb, collect_into, Piggyback, ENTRY_WIRE_BYTES};
use wadc_plan::ids::HostId;
use wadc_sim::rng::{derive_seed2, Rng64};
use wadc_sim::time::{SimDuration, SimTime};

/// The reference cache: an `n × n` row-major matrix, pair `(lo, hi)` at
/// `lo * n + hi`, regrown (copying) whenever a larger host shows up.
#[derive(Clone)]
struct RefCache {
    config: MonitorConfig,
    n: usize,
    slots: Vec<Option<Measurement>>,
    len: usize,
}

/// A reference payload: `((lo, hi), measurement)` entries.
type RefPayload = Vec<((usize, usize), Measurement)>;

fn norm(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl RefCache {
    fn new(config: MonitorConfig) -> Self {
        RefCache {
            config,
            n: 0,
            slots: Vec::new(),
            len: 0,
        }
    }

    fn ensure(&mut self, hi: usize) {
        if hi < self.n {
            return;
        }
        let n = hi + 1;
        let mut slots = vec![None; n * n];
        for lo in 0..self.n {
            for h in (lo + 1)..self.n {
                slots[lo * n + h] = self.slots[lo * self.n + h];
            }
        }
        self.slots = slots;
        self.n = n;
    }

    fn observe(&mut self, a: usize, b: usize, bytes_per_sec: f64, at: SimTime) {
        let (lo, hi) = norm(a, b);
        self.ensure(hi);
        let slot = &mut self.slots[lo * self.n + hi];
        match slot {
            Some(m) if at < m.at => {}
            Some(m) => *m = Measurement { bytes_per_sec, at },
            None => {
                *slot = Some(Measurement { bytes_per_sec, at });
                self.len += 1;
            }
        }
    }

    fn measurement(&self, a: usize, b: usize) -> Option<Measurement> {
        let (lo, hi) = norm(a, b);
        if hi < self.n {
            self.slots[lo * self.n + hi]
        } else {
            None
        }
    }

    /// Every unexpired entry, ranked newest first (ties by pair), cut to
    /// the byte budget.
    fn collect(&self, now: SimTime) -> RefPayload {
        let mut v: Vec<_> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|m| ((i / self.n, i % self.n), m)))
            .filter(|(_, m)| now.saturating_since(m.at) <= self.config.t_thres)
            .collect();
        v.sort_by(|x, y| y.1.at.cmp(&x.1.at).then_with(|| x.0.cmp(&y.0)));
        v.truncate(self.config.piggyback_budget_bytes / ENTRY_WIRE_BYTES);
        v
    }

    fn absorb(&mut self, payload: &[((usize, usize), Measurement)]) -> usize {
        let mut updated = 0;
        for &((a, b), m) in payload {
            let before = self.measurement(a, b);
            self.observe(a, b, m.bytes_per_sec, m.at);
            if self.measurement(a, b) != before {
                updated += 1;
            }
        }
        updated
    }
}

/// A payload as a canonical set: sorted by pair, bandwidths by bits.
fn canonical(
    entries: impl Iterator<Item = ((usize, usize), Measurement)>,
) -> Vec<(usize, usize, u64, SimTime)> {
    let mut v: Vec<_> = entries
        .map(|((a, b), m)| (a, b, m.bytes_per_sec.to_bits(), m.at))
        .collect();
    v.sort_by_key(|&(a, b, _, _)| (a, b));
    v
}

fn payload_set(p: &Piggyback) -> Vec<(usize, usize, u64, SimTime)> {
    canonical(p.entries().iter().map(|e| {
        let (a, b) = e.pair();
        ((a.index(), b.index()), e.measurement())
    }))
}

fn assert_same_cache(new: &BandwidthCache, reference: &RefCache, max_hosts: usize, ctx: &str) {
    assert_eq!(new.len(), reference.len, "{ctx}: len");
    for a in 0..max_hosts {
        for b in (a + 1)..max_hosts {
            let (h_a, h_b) = (HostId::new(a), HostId::new(b));
            assert_eq!(
                new.measurement(h_a, h_b),
                reference.measurement(a, b),
                "{ctx}: measurement ({a}, {b})"
            );
            assert_eq!(new.measurement(h_b, h_a), reference.measurement(a, b));
        }
    }
}

/// A measurement time that often collides with others and often sits on
/// the freshness boundaries of `now`: exactly `T_thres` old (fresh), one
/// microsecond older (expired), t = 0, or `now` itself.
fn arb_time(rng: &mut Rng64, now: SimTime, t_thres: SimDuration) -> SimTime {
    let boundary = now.as_micros().saturating_sub(t_thres.as_micros());
    match rng.range_usize(6) {
        0 => SimTime::ZERO,
        1 => SimTime::from_micros(boundary),
        2 => SimTime::from_micros(boundary.saturating_sub(1)),
        3 => now,
        // A coarse grid, so unrelated observations tie on `at`.
        _ => SimTime::from_secs(rng.range_u64(0, now.as_micros() / 1_000_000 + 5)),
    }
}

/// Random gossip among a few caches, each limited to its own host range
/// so sender and receiver grow to different sizes on demand, as the
/// benchmark's replay builds them. Every step observes, sends (collects
/// into an in-flight payload) or delivers (absorbs one, possibly into
/// the sender itself, as co-located messages do); after every step the
/// two implementations must agree on the cache and on the payload.
#[test]
fn slot_caches_and_compact_piggybacks_match_the_row_major_reference() {
    for case in 0..400u64 {
        let mut rng = Rng64::seed_from_u64(derive_seed2(0x6055_1e00, 1, case));
        let n_hosts = 2 + rng.range_usize(32);
        let config = MonitorConfig {
            piggyback_budget_bytes: [1024, 1024, 240, 24, 0][rng.range_usize(5)],
            ..MonitorConfig::paper_defaults()
        };
        let n_caches = 2 + rng.range_usize(3);
        let limits: Vec<usize> = (0..n_caches)
            .map(|_| 2 + rng.range_usize(n_hosts - 1))
            .collect();
        let mut new: Vec<BandwidthCache> =
            (0..n_caches).map(|_| BandwidthCache::new(config)).collect();
        let mut reference: Vec<RefCache> = (0..n_caches).map(|_| RefCache::new(config)).collect();
        // Undelivered payloads: destination, new payload, reference payload.
        let mut in_flight: Vec<(usize, Piggyback, RefPayload)> = Vec::new();
        // Delivered payloads, reused warm as the engine's message pool does.
        let mut free: Vec<Piggyback> = Vec::new();
        let mut now = SimTime::from_secs(rng.range_u64(0, 60));
        for step in 0..(20 + rng.range_usize(4 * n_hosts * n_hosts)) {
            let ctx = format!("case {case} step {step} ({n_hosts} hosts)");
            match rng.range_usize(10) {
                0..=5 => {
                    let c = rng.range_usize(n_caches);
                    let a = rng.range_usize(limits[c]);
                    let b = (a + 1 + rng.range_usize(limits[c] - 1)) % limits[c];
                    let at = arb_time(&mut rng, now, config.t_thres);
                    // A handful of values, so ties on `at` often differ
                    // in value and sometimes do not.
                    let bw = [1.0e3, 2.0e3, 5.0e4, 1.25e5][rng.range_usize(4)];
                    new[c].observe(HostId::new(a), HostId::new(b), bw, at);
                    reference[c].observe(a, b, bw, at);
                    // An observation touches one pair; absorbs below
                    // compare whole caches.
                    assert_eq!(new[c].len(), reference[c].len, "{ctx}: len");
                    assert_eq!(
                        new[c].measurement(HostId::new(a), HostId::new(b)),
                        reference[c].measurement(a, b),
                        "{ctx}: observed pair"
                    );
                }
                6 | 7 => {
                    let (src, dst) = (rng.range_usize(n_caches), rng.range_usize(n_caches));
                    let mut pb = free.pop().unwrap_or_default();
                    collect_into(&new[src], now, &mut pb);
                    let want = reference[src].collect(now);
                    assert_eq!(pb.len(), want.len(), "{ctx}: entry count");
                    assert_eq!(
                        pb.wire_bytes(),
                        want.len() * ENTRY_WIRE_BYTES,
                        "{ctx}: wire bytes"
                    );
                    assert_eq!(
                        payload_set(&pb),
                        canonical(want.iter().copied()),
                        "{ctx}: entry set"
                    );
                    in_flight.push((dst, pb, want));
                }
                8 if !in_flight.is_empty() => {
                    let (dst, pb, want) = in_flight.swap_remove(rng.range_usize(in_flight.len()));
                    let got = absorb(&mut new[dst], &pb);
                    assert_eq!(got, reference[dst].absorb(&want), "{ctx}: absorb count");
                    assert_same_cache(&new[dst], &reference[dst], n_hosts, &ctx);
                    free.push(pb);
                }
                _ => now += SimDuration::from_micros(rng.range_u64(0, 20_000_000)),
            }
        }
    }
}

/// Truncation ranks by `(at desc, pair asc)`: with more fresh pairs than
/// fit, all at one instant, exactly the lowest pairs survive.
#[test]
fn truncation_breaks_equal_time_ties_by_ascending_pair() {
    let config = MonitorConfig::paper_defaults();
    let mut new = BandwidthCache::new(config);
    let mut reference = RefCache::new(config);
    let at = SimTime::from_secs(7);
    for a in 0..12 {
        for b in (a + 1)..13 {
            new.observe(HostId::new(b), HostId::new(a), 1.0, at);
            reference.observe(a, b, 1.0, at);
        }
    }
    let mut pb = Piggyback::default();
    collect_into(&new, at, &mut pb);
    let want = reference.collect(at);
    assert_eq!(want.len(), 42);
    assert_eq!(
        want.last().unwrap().0,
        (3, 12),
        "the 42nd pair in (lo, hi) order"
    );
    assert_eq!(payload_set(&pb), canonical(want.into_iter()));
}
