//! The per-host bandwidth measurement cache.
//!
//! The paper's monitoring model: "(1) if node A sends node B a message of
//! size greater than S_thres both node A and node B know the bandwidth
//! between A and B (passive monitoring); (2) each node maintains a
//! bandwidth measurement cache; entries are timed out after T_thres
//! seconds". The experiments used `S_thres = 16 KB` and `T_thres = 40 s`.

use wadc_plan::bandwidth::BandwidthView;
use wadc_plan::ids::HostId;
use wadc_sim::time::{SimDuration, SimTime};

/// Monitoring parameters, defaulting to the paper's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Transfers at least this large produce a passive bandwidth
    /// measurement at both endpoints (paper: 16 KB).
    pub s_thres_bytes: u64,
    /// Cache entries older than this are expired (paper: 40 s, chosen as
    /// "a little less than half" the ~2-minute expected interval between
    /// significant bandwidth changes).
    pub t_thres: SimDuration,
    /// Byte budget for bandwidth values piggybacked on each message
    /// (paper: "the most recent bandwidth values (those that fit within
    /// 1KB) are piggybacked").
    pub piggyback_budget_bytes: usize,
}

impl MonitorConfig {
    /// The paper's monitoring constants.
    pub fn paper_defaults() -> Self {
        MonitorConfig {
            s_thres_bytes: 16 * 1024,
            t_thres: SimDuration::from_secs(40),
            piggyback_budget_bytes: 1024,
        }
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig::paper_defaults()
    }
}

/// One bandwidth measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Measured application-level bandwidth, bytes per second.
    pub bytes_per_sec: f64,
    /// When the measurement was taken.
    pub at: SimTime,
}

fn norm(a: HostId, b: HostId) -> (HostId, HostId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The slot of the normalised pair `(lo, hi)`, `lo < hi`: pairs are
/// numbered column by column through the upper triangle, so every pair of
/// host `hi` follows all pairs of lower hosts. The numbering does not
/// depend on the host count, and growing a cache only appends slots.
pub(crate) fn slot_of(lo: usize, hi: usize) -> usize {
    hi * (hi - 1) / 2 + lo
}

/// The pair `(lo, hi)` stored at `slot`; the inverse of [`slot_of`].
pub(crate) fn pair_of(slot: usize) -> (usize, usize) {
    let hi = (1 + 8 * slot).isqrt().div_ceil(2);
    (slot - hi * (hi - 1) / 2, hi)
}

/// Slots covering every pair of `n_hosts` hosts.
fn slots_for(n_hosts: usize) -> usize {
    n_hosts * n_hosts.saturating_sub(1) / 2
}

/// A slot's stamp for a measurement taken at `at`: its time in
/// microseconds plus one, so that stamp 0 marks an empty slot and a
/// newer measurement always has the larger stamp.
pub(crate) fn stamp_of(at: SimTime) -> u64 {
    at.as_micros() + 1
}

/// The measurement time a non-zero stamp encodes.
pub(crate) fn at_of(stamp: u64) -> SimTime {
    SimTime::from_micros(stamp - 1)
}

/// A host's cache of pairwise bandwidth measurements with `T_thres` expiry.
///
/// # Examples
///
/// ```
/// use wadc_monitor::cache::{BandwidthCache, MonitorConfig};
/// use wadc_plan::ids::HostId;
/// use wadc_sim::time::{SimDuration, SimTime};
///
/// let mut cache = BandwidthCache::new(MonitorConfig::paper_defaults());
/// let (a, b) = (HostId::new(0), HostId::new(1));
/// cache.observe(a, b, 50_000.0, SimTime::ZERO);
/// assert_eq!(cache.lookup(a, b, SimTime::from_secs(30)), Some(50_000.0));
/// // After T_thres = 40 s the entry has expired.
/// assert_eq!(cache.lookup(a, b, SimTime::from_secs(41)), None);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthCache {
    config: MonitorConfig,
    /// Per slot (see [`slot_of`]): the measurement's [`stamp_of`], 0 for
    /// an empty slot. Dense arrays instead of a map because the piggyback
    /// path scans and merges them on every message: the compaction in
    /// `piggyback::collect_into` is one pass over these two arrays, and
    /// a newest-wins merge is one stamp comparison.
    stamps: Vec<u64>,
    /// Per slot: the measured bandwidth, bytes per second (stale where
    /// the stamp is 0).
    bws: Vec<f64>,
    /// Occupied slot count.
    len: usize,
}

impl BandwidthCache {
    /// Creates an empty cache that grows to cover hosts as it sees them.
    pub fn new(config: MonitorConfig) -> Self {
        BandwidthCache {
            config,
            stamps: Vec::new(),
            bws: Vec::new(),
            len: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Empties the cache, installs a (possibly different) monitoring
    /// configuration and sizes it for exactly `n_hosts` hosts, keeping
    /// its capacity so run arenas can recycle caches without
    /// reallocating. Observationally identical to
    /// `BandwidthCache::new(config)`.
    pub fn reset(&mut self, config: MonitorConfig, n_hosts: usize) {
        self.config = config;
        self.stamps.clear();
        self.bws.clear();
        self.len = 0;
        self.cover(slots_for(n_hosts));
    }

    /// Grows the arrays to at least `slots` slots (rare: a handful of
    /// times over a lazily grown cache's life, never for a cache sized by
    /// [`BandwidthCache::reset`]).
    pub(crate) fn cover(&mut self, slots: usize) {
        if self.stamps.len() < slots {
            self.stamps.resize(slots, 0);
            self.bws.resize(slots, 0.0);
        }
    }

    /// The slot arrays: stamps and bandwidths, index-aligned.
    pub(crate) fn slots(&self) -> (&[u64], &[f64]) {
        (&self.stamps, &self.bws)
    }

    /// The smallest stamp that is unexpired at `now`. An entry is fresh
    /// when `now - at <= T_thres`, i.e. when `at >= now - T_thres`; empty
    /// slots never qualify because the result is at least 1.
    pub(crate) fn fresh_cutoff(&self, now: SimTime) -> u64 {
        now.as_micros()
            .saturating_sub(self.config.t_thres.as_micros())
            .saturating_add(1)
    }

    /// Newest-wins merge of one stamped value into `slot`, which must be
    /// covered; an equal stamp overwrites. Returns whether the slot's
    /// contents changed. Written as selects, not branches: it runs once
    /// per piggyback entry.
    #[inline]
    pub(crate) fn merge(&mut self, slot: usize, stamp: u64, bytes_per_sec: f64) -> bool {
        let (old, old_bw) = (self.stamps[slot], self.bws[slot]);
        let take = stamp >= old;
        self.stamps[slot] = if take { stamp } else { old };
        self.bws[slot] = if take { bytes_per_sec } else { old_bw };
        self.len += usize::from(old == 0);
        take & ((stamp != old) | (bytes_per_sec != old_bw))
    }

    /// The slot of the pair `(a, b)`, or `None` if the cache does not
    /// cover it (equivalently: the pair was never observed).
    fn slot(&self, a: HostId, b: HostId) -> Option<usize> {
        let (lo, hi) = norm(a, b);
        let slot = slot_of(lo.index(), hi.index());
        (slot < self.stamps.len()).then_some(slot)
    }

    /// Records a measurement for the pair `(a, b)`. Older measurements for
    /// the pair are replaced only by newer ones, so absorbing stale
    /// piggybacked values never regresses the cache.
    pub fn observe(&mut self, a: HostId, b: HostId, bytes_per_sec: f64, at: SimTime) {
        debug_assert_ne!(a, b, "no self-measurements");
        let (lo, hi) = norm(a, b);
        self.cover(slots_for(hi.index() + 1));
        self.merge(slot_of(lo.index(), hi.index()), stamp_of(at), bytes_per_sec);
    }

    /// Records a passive measurement from a completed transfer of
    /// `bytes` over `elapsed`, but only when the transfer meets `S_thres`.
    /// Returns `true` if a measurement was recorded.
    pub fn observe_transfer(
        &mut self,
        a: HostId,
        b: HostId,
        bytes: u64,
        elapsed: SimDuration,
        completed_at: SimTime,
    ) -> bool {
        if bytes < self.config.s_thres_bytes || elapsed.is_zero() {
            return false;
        }
        self.observe(a, b, bytes as f64 / elapsed.as_secs_f64(), completed_at);
        true
    }

    /// The cached bandwidth for a pair, or `None` if absent or older than
    /// `T_thres` relative to `now`.
    pub fn lookup(&self, a: HostId, b: HostId, now: SimTime) -> Option<f64> {
        self.lookup_within(a, b, now, SimDuration::ZERO)
    }

    /// [`BandwidthCache::lookup`] with an extra staleness allowance: the
    /// entry survives until `T_thres + grace` past its measurement time.
    ///
    /// Under fault injection probes are black-holed and measurements stop
    /// arriving; rather than wedging the planner with an empty view, the
    /// engine widens the window and plans on stale-but-plausible values
    /// (graceful degradation). A `grace` of zero is exactly `lookup`.
    pub fn lookup_within(
        &self,
        a: HostId,
        b: HostId,
        now: SimTime,
        grace: SimDuration,
    ) -> Option<f64> {
        let m = self.measurement(a, b)?;
        (now.saturating_since(m.at) <= self.config.t_thres + grace).then_some(m.bytes_per_sec)
    }

    /// The raw measurement for a pair regardless of expiry.
    pub fn measurement(&self, a: HostId, b: HostId) -> Option<Measurement> {
        let slot = self.slot(a, b)?;
        let stamp = self.stamps[slot];
        (stamp != 0).then(|| Measurement {
            bytes_per_sec: self.bws[slot],
            at: at_of(stamp),
        })
    }

    /// Drops entries expired at `now`; returns how many were dropped.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let cutoff = self.fresh_cutoff(now);
        let mut dropped = 0;
        for s in &mut self.stamps {
            if *s != 0 && *s < cutoff {
                *s = 0;
                dropped += 1;
            }
        }
        self.len -= dropped;
        dropped
    }

    /// Number of entries, including expired ones not yet purged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A [`BandwidthView`] of the cache frozen at `now`, for handing to the
    /// placement algorithms.
    pub fn view_at(&self, now: SimTime) -> CacheView<'_> {
        CacheView {
            cache: self,
            now,
            grace: SimDuration::ZERO,
        }
    }
}

/// A point-in-time [`BandwidthView`] over a [`BandwidthCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheView<'a> {
    cache: &'a BandwidthCache,
    now: SimTime,
    grace: SimDuration,
}

impl CacheView<'_> {
    /// Widens the expiry window by `grace` (see
    /// [`BandwidthCache::lookup_within`]).
    pub fn with_grace(mut self, grace: SimDuration) -> Self {
        self.grace = grace;
        self
    }
}

impl BandwidthView for CacheView<'_> {
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
        if a == b {
            return None;
        }
        self.cache.lookup_within(a, b, self.now, self.grace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn observe_and_lookup_symmetric() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(3), h(1), 9_000.0, SimTime::from_secs(5));
        assert_eq!(c.lookup(h(1), h(3), SimTime::from_secs(6)), Some(9_000.0));
        assert_eq!(c.lookup(h(3), h(1), SimTime::from_secs(6)), Some(9_000.0));
    }

    #[test]
    fn expiry_at_t_thres() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 1.0, SimTime::from_secs(100));
        assert!(c.lookup(h(0), h(1), SimTime::from_secs(140)).is_some());
        assert!(c.lookup(h(0), h(1), SimTime::from_secs(141)).is_none());
    }

    #[test]
    fn stale_observation_does_not_regress() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 100.0, SimTime::from_secs(50));
        c.observe(h(0), h(1), 999.0, SimTime::from_secs(10)); // stale
        assert_eq!(c.lookup(h(0), h(1), SimTime::from_secs(55)), Some(100.0));
    }

    #[test]
    fn observe_transfer_respects_s_thres() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        assert!(!c.observe_transfer(
            h(0),
            h(1),
            1024,
            SimDuration::from_secs(1),
            SimTime::from_secs(1)
        ));
        assert!(c.observe_transfer(
            h(0),
            h(1),
            32 * 1024,
            SimDuration::from_secs(2),
            SimTime::from_secs(3)
        ));
        assert_eq!(
            c.lookup(h(0), h(1), SimTime::from_secs(3)),
            Some(16.0 * 1024.0)
        );
    }

    #[test]
    fn slot_layout_is_size_independent_and_invertible() {
        let mut slot = 0;
        for hi in 1..40 {
            for lo in 0..hi {
                assert_eq!(slot_of(lo, hi), slot);
                assert_eq!(pair_of(slot), (lo, hi));
                slot += 1;
            }
            assert_eq!(slots_for(hi + 1), slot);
        }
    }

    #[test]
    fn reset_sizes_to_the_roster_and_empties() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(7), h(2), 3.0, SimTime::ZERO);
        c.reset(MonitorConfig::paper_defaults(), 4);
        assert!(c.is_empty());
        assert_eq!(c.slots().0.len(), 6);
        assert_eq!(c.measurement(h(2), h(7)), None);
        c.observe(h(0), h(3), 1.0, SimTime::ZERO);
        assert_eq!(c.lookup(h(3), h(0), SimTime::ZERO), Some(1.0));
    }

    #[test]
    fn equal_time_observation_overwrites() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 1.0, SimTime::from_secs(5));
        c.observe(h(1), h(0), 2.0, SimTime::from_secs(5));
        assert_eq!(c.lookup(h(0), h(1), SimTime::from_secs(5)), Some(2.0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn purge_drops_expired() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 1.0, SimTime::ZERO);
        c.observe(h(0), h(2), 2.0, SimTime::from_secs(100));
        assert_eq!(c.purge_expired(SimTime::from_secs(120)), 1);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn grace_window_extends_expiry() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 5.0, SimTime::from_secs(100));
        let late = SimTime::from_secs(160); // 60 s old, past T_thres = 40 s
        assert_eq!(c.lookup(h(0), h(1), late), None);
        assert_eq!(
            c.lookup_within(h(0), h(1), late, SimDuration::from_secs(40)),
            Some(5.0)
        );
        assert_eq!(
            c.lookup_within(h(0), h(1), late, SimDuration::from_secs(10)),
            None
        );
        // Zero grace is exactly `lookup`.
        let t = SimTime::from_secs(140);
        assert_eq!(
            c.lookup_within(h(0), h(1), t, SimDuration::ZERO),
            c.lookup(h(0), h(1), t)
        );
        // The view variant matches.
        let v = c.view_at(late).with_grace(SimDuration::from_secs(40));
        assert_eq!(v.bandwidth(h(0), h(1)), Some(5.0));
    }

    #[test]
    fn view_implements_bandwidth_view() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 42.0, SimTime::from_secs(1));
        let view = c.view_at(SimTime::from_secs(2));
        assert_eq!(view.bandwidth(h(0), h(1)), Some(42.0));
        assert_eq!(view.bandwidth(h(0), h(0)), None);
        let stale_view = c.view_at(SimTime::from_secs(200));
        assert_eq!(stale_view.bandwidth(h(0), h(1)), None);
    }
}
