//! Replays of one traced run's own traffic into each layer's public API.
//!
//! [`Traffic`] is read off a run's `wadc_obs` trace (its `Transfer` spans)
//! and audit log (which transfers were lost). Each replay function drives
//! one layer with exactly that traffic and returns the counts it saw, so
//! the caller can check them against the run's `RunResult` before it
//! trusts the layer's time: a replay that does not reproduce its source
//! counts has timed invented traffic.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use wadc_core::algorithms::one_shot::one_shot_placement;
use wadc_core::engine::{AuditEvent, EngineConfig, RunResult};
use wadc_core::experiment::Experiment;
use wadc_mobile::protocol::{LightPointWitness, MoveProtocol};
use wadc_mobile::registry::CodeRegistry;
use wadc_mobile::state::OperatorState;
use wadc_monitor::cache::BandwidthCache;
use wadc_monitor::gauge::Gauge;
use wadc_monitor::piggyback::{self, Piggyback};
use wadc_net::faults::TrafficKind;
use wadc_net::link::LinkTable;
use wadc_net::network::{NetStats, Network, NetworkParams, TransferId, TransferSpec};
use wadc_obs::recorder::SpanKind;
use wadc_obs::tracer::{Entry, Tracer};
use wadc_plan::ids::HostId;
use wadc_plan::placement::HostRoster;
use wadc_plan::tree::CombinationTree;
use wadc_sim::event::{EventId, EventQueue};
use wadc_sim::resource::Priority;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_topo::fair::max_min_shares;
use wadc_topo::graph::{LinkId, Topology};

/// One traced network transfer.
#[derive(Debug, Clone, Copy)]
pub struct Xfer {
    /// When it entered service.
    pub open: SimTime,
    /// When it completed (`None`: still in flight when the run ended).
    pub close: Option<SimTime>,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Traffic class.
    pub kind: TrafficKind,
    /// Fault injection discarded the payload at completion.
    pub lost: bool,
}

/// A transfer starting or completing, in trace order.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Transfer `i` entered service.
    Open(usize),
    /// Transfer `i` completed.
    Close(usize),
}

/// The network traffic of one traced run.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Every transfer that entered service.
    pub xfers: Vec<Xfer>,
    /// Starts and completions in the order the run made them.
    pub steps: Vec<(SimTime, Step)>,
    /// Completed transfers.
    pub completed: u64,
    /// Completed transfers whose payload was lost.
    pub lost: u64,
    /// Bytes of completed transfers.
    pub bytes: u64,
}

impl Traffic {
    /// Reads the transfers off `tracer` and marks those the audit log
    /// records as lost (a `MessageLost` at the transfer's completion, same
    /// endpoints and traffic class).
    pub fn from_run(tracer: &Tracer, result: &RunResult) -> Traffic {
        let mut lost: BTreeMap<(u64, usize, usize, u64), u32> = BTreeMap::new();
        for e in result.audit.events() {
            if let AuditEvent::MessageLost {
                at, from, to, kind, ..
            } = e
            {
                *lost
                    .entry((at.as_micros(), from.index(), to.index(), kind.tag()))
                    .or_default() += 1;
            }
        }
        let spans = tracer.spans();
        let mut of_span: Vec<Option<usize>> = vec![None; spans.len()];
        let mut t = Traffic::default();
        for entry in tracer.entries() {
            match *entry {
                Entry::Open { span, at } => {
                    let rec = &spans[span.0 as usize];
                    if rec.kind != SpanKind::Transfer {
                        continue;
                    }
                    let a = rec.args;
                    of_span[span.0 as usize] = Some(t.xfers.len());
                    t.steps.push((at, Step::Open(t.xfers.len())));
                    t.xfers.push(Xfer {
                        open: at,
                        close: None,
                        src: HostId::new(a.a as usize),
                        dst: HostId::new(a.b as usize),
                        bytes: a.c,
                        kind: TrafficKind::ALL[a.d as usize],
                        lost: false,
                    });
                }
                Entry::Close { span, at, .. } => {
                    let Some(i) = of_span[span.0 as usize] else {
                        continue;
                    };
                    let x = &mut t.xfers[i];
                    x.close = Some(at);
                    let key = (at.as_micros(), x.src.index(), x.dst.index(), x.kind.tag());
                    if let Some(n) = lost.get_mut(&key).filter(|n| **n > 0) {
                        *n -= 1;
                        x.lost = true;
                        t.lost += 1;
                    }
                    t.completed += 1;
                    t.bytes += x.bytes;
                    t.steps.push((at, Step::Close(i)));
                }
                _ => {}
            }
        }
        t
    }

    /// Completed transfers whose payload arrived.
    pub fn delivered(&self) -> u64 {
        self.completed - self.lost
    }

    fn spec(&self, i: usize) -> TransferSpec {
        let x = &self.xfers[i];
        TransferSpec {
            src: x.src,
            dst: x.dst,
            bytes: x.bytes,
            priority: Priority::Normal,
            kind: x.kind,
        }
    }
}

/// `BandwidthTrace::transfer_duration` for every completed transfer, on
/// its link's trace, from its data start. Returns the lookup count.
pub fn lookups(t: &Traffic, links: &LinkTable, startup: SimDuration) -> u64 {
    let mut n = 0;
    let mut sink = SimDuration::ZERO;
    for x in t.xfers.iter().filter(|x| x.close.is_some()) {
        if let Some(trace) = links.trace(x.src, x.dst) {
            sink += trace.transfer_duration(x.bytes, x.open + startup);
            n += 1;
        }
    }
    black_box(sink);
    n
}

/// Max-min fair shares over `topo` each time the set of concurrent
/// transfers changes while two of them share a link. Returns the number
/// of recomputes and the number of flow-set changes replayed.
pub fn fair_shares(t: &Traffic, topo: &Topology) -> (u64, u64) {
    let mut active: Vec<usize> = Vec::new();
    let mut caps = vec![0.0; topo.link_count()];
    let mut rates = Vec::new();
    let mut recomputes = 0;
    let mut changes = 0;
    for &(at, step) in &t.steps {
        match step {
            Step::Open(i) => active.push(i),
            Step::Close(i) => active.retain(|&a| a != i),
        }
        changes += 1;
        let route = |i: usize| topo.route(t.xfers[i].src, t.xfers[i].dst);
        let shared = active.iter().enumerate().any(|(k, &a)| {
            active[k + 1..]
                .iter()
                .any(|&b| route(a).iter().any(|l| route(b).contains(l)))
        });
        if !shared {
            continue;
        }
        for (l, cap) in caps.iter_mut().enumerate() {
            *cap = topo.link(LinkId::new(l)).trace.bandwidth_at(at);
        }
        let flows: Vec<&[LinkId]> = active.iter().map(|&i| route(i)).collect();
        max_min_shares(&caps, &flows, &mut rates);
        recomputes += 1;
    }
    black_box(&rates);
    (recomputes, changes)
}

fn drain(q: &mut EventQueue<u32>, upto: SimTime, batch: &mut Vec<EventId>) -> u64 {
    let mut fired = 0;
    while q.peek_time().is_some_and(|at| at <= upto) {
        q.pop_batch(batch);
        for &id in batch.iter() {
            if q.claim(id).is_some() {
                fired += 1;
            }
        }
    }
    fired
}

/// Schedules each transfer's completion when it starts and pops it when
/// it completes. Returns the events fired and the heap's high-water mark.
pub fn events(t: &Traffic) -> (u64, usize) {
    let mut q = EventQueue::new();
    let mut batch = Vec::new();
    let mut fired = 0;
    for &(at, step) in &t.steps {
        fired += drain(&mut q, at, &mut batch);
        if let Step::Open(i) = step {
            if let Some(close) = t.xfers[i].close {
                q.schedule(close, i as u32);
            }
        }
    }
    fired += drain(&mut q, SimTime::MAX, &mut batch);
    (fired, q.high_water())
}

/// The retry-timer pattern: each transfer arms a timer `timeout` past its
/// completion when it starts; delivery cancels it, a lost payload lets it
/// fire. Returns `(cancelled, fired)`.
pub fn retry_timers(t: &Traffic, timeout: SimDuration) -> (u64, u64) {
    let mut q = EventQueue::new();
    let mut batch = Vec::new();
    let mut timers: Vec<Option<EventId>> = vec![None; t.xfers.len()];
    let (mut cancelled, mut fired) = (0, 0);
    for &(at, step) in &t.steps {
        fired += drain(&mut q, at, &mut batch);
        match step {
            Step::Open(i) => {
                if let Some(close) = t.xfers[i].close {
                    timers[i] = Some(q.schedule(close + timeout, i as u32));
                }
            }
            Step::Close(i) => {
                if !t.xfers[i].lost {
                    if let Some(id) = timers[i].take() {
                        cancelled += q.cancel(id) as u64;
                    }
                }
            }
        }
    }
    fired += drain(&mut q, SimTime::MAX, &mut batch);
    (cancelled, fired)
}

/// Pushes every transfer through a fresh [`Network`]: submitted and
/// started at its traced start, completed at its traced completion. Under
/// a topology the fair-share model's trace steps and reschedules are
/// driven as the engine drives them. Returns the network's statistics.
///
/// # Errors
///
/// A transfer that does not start at its traced time (the replay's NIC
/// state diverged from the run's).
pub fn network(
    t: &Traffic,
    params: NetworkParams,
    links: &LinkTable,
    topo: Option<&Arc<Topology>>,
) -> Result<NetStats, String> {
    let mut net: Network<u32> = Network::new(params, links.clone());
    if let Some(topo) = topo {
        net.set_topology(topo.clone());
    }
    let mut ids: Vec<Option<TransferId>> = vec![None; t.xfers.len()];
    let mut started = Vec::new();
    let mut resched = Vec::new();
    let mut next_step = None;
    for &(at, step) in &t.steps {
        while let Some(ts) = next_step.filter(|&ts| ts <= at) {
            net.topo_step(ts);
            net.take_topo_resched(&mut resched);
            next_step = net.topo_next_step().filter(|&n| n > ts);
        }
        match step {
            Step::Open(i) => {
                let id = net.submit(t.spec(i), i as u32);
                net.poll_start_into(at, &mut started);
                if started.len() != 1 || started[0].id != id {
                    return Err(format!("transfer {i} did not start at {at:?}"));
                }
                ids[i] = Some(id);
            }
            Step::Close(i) => {
                let id = ids[i]
                    .take()
                    .ok_or_else(|| format!("transfer {i} completed before it started"))?;
                black_box(net.complete(id, at));
            }
        }
        if net.has_topology() {
            net.take_topo_resched(&mut resched);
            next_step = net.topo_next_step();
        }
    }
    Ok(net.stats())
}

fn caches(n_hosts: usize, cfg: &EngineConfig) -> Vec<BandwidthCache> {
    (0..n_hosts)
        .map(|_| BandwidthCache::new(cfg.monitor))
        .collect()
}

fn observe_both(caches: &mut [BandwidthCache], x: &Xfer, close: SimTime) {
    let elapsed = close - x.open;
    caches[x.src.index()].observe_transfer(x.src, x.dst, x.bytes, elapsed, close);
    caches[x.dst.index()].observe_transfer(x.src, x.dst, x.bytes, elapsed, close);
}

/// Passive monitoring only: `observe_transfer` at both endpoints of
/// every delivered transfer. Returns the call count.
pub fn observe(t: &Traffic, n_hosts: usize, cfg: &EngineConfig) -> u64 {
    let mut caches = caches(n_hosts, cfg);
    let mut calls = 0;
    for &(at, step) in &t.steps {
        if let Step::Close(i) = step {
            if !t.xfers[i].lost {
                observe_both(&mut caches, &t.xfers[i], at);
                calls += 2;
            }
        }
    }
    black_box(&caches);
    calls
}

/// Passive monitoring plus gossip, as the engine interleaves them:
/// `collect_into` from the sender's cache at each start, `absorb` into
/// the receiver's cache and `observe_transfer` at both endpoints at each
/// delivery. Returns `(observe calls, piggybacks absorbed)`; its time
/// minus [`observe`]'s is the gossip's.
pub fn observe_and_piggyback(t: &Traffic, n_hosts: usize, cfg: &EngineConfig) -> (u64, u64) {
    let mut caches = caches(n_hosts, cfg);
    let mut free: Vec<Piggyback> = Vec::new();
    let mut carried: Vec<Option<Piggyback>> = vec![None; t.xfers.len()];
    let (mut calls, mut absorbed) = (0, 0);
    for &(at, step) in &t.steps {
        match step {
            Step::Open(i) => {
                let mut pb = free.pop().unwrap_or_default();
                piggyback::collect_into(&caches[t.xfers[i].src.index()], at, &mut pb);
                carried[i] = Some(pb);
            }
            Step::Close(i) => {
                let x = &t.xfers[i];
                let pb = carried[i].take().expect("a completed transfer started");
                if !x.lost {
                    piggyback::absorb(&mut caches[x.dst.index()], &pb);
                    observe_both(&mut caches, x, at);
                    calls += 2;
                    absorbed += 1;
                }
                free.push(pb);
            }
        }
    }
    black_box(&caches);
    (calls, absorbed)
}

/// `Gauge::observe` of every delivered transfer's effective rate.
/// Returns the call count.
pub fn gauge(t: &Traffic) -> u64 {
    let mut g = Gauge::new();
    let mut calls = 0;
    for x in t.xfers.iter().filter(|x| !x.lost) {
        if let Some(close) = x.close {
            let secs = (close - x.open).as_secs_f64();
            if secs > 0.0 {
                g.observe(x.src, x.dst, x.bytes as f64 / secs, close);
                calls += 1;
            }
        }
    }
    black_box(&g);
    calls
}

/// One-shot placement search on the oracle view at every audited
/// `PlannerRan`. Returns the search count.
pub fn searches(result: &RunResult, exp: &Experiment) -> u64 {
    let cfg = exp.template();
    let tree = CombinationTree::build(cfg.tree_shape, cfg.n_servers)
        .expect("the study's tree shape builds");
    let roster = HostRoster::one_host_per_server(cfg.n_servers);
    let mut n = 0;
    for e in result.audit.events() {
        if let AuditEvent::PlannerRan { at, .. } = e {
            let found =
                one_shot_placement(&tree, &roster, exp.links().oracle_at(*at), &cfg.cost_model);
            black_box(found);
            n += 1;
        }
    }
    n
}

/// Plans and completes (state encode + decode) every audited
/// `RelocationStarted`. Returns the move count.
///
/// # Errors
///
/// A move the protocol refuses, or state that does not round-trip.
pub fn moves(result: &RunResult, cfg: &EngineConfig) -> Result<u64, String> {
    let mut proto = MoveProtocol::new(CodeRegistry::new(cfg.mobility, cfg.code_package_bytes));
    let mut n = 0;
    for e in result.audit.events() {
        if let AuditEvent::RelocationStarted {
            op,
            from,
            to,
            after_iteration,
            ..
        } = *e
        {
            let state = OperatorState {
                last_dispatched: after_iteration,
                ..OperatorState::initial(op)
            };
            let plan = proto
                .plan_move(&state, from, to, LightPointWitness::clean())
                .map_err(|e| format!("move of {op:?} refused: {e:?}"))?;
            let back = proto
                .complete_move(&plan)
                .map_err(|e| format!("state of {op:?} did not decode: {e}"))?;
            if back != state {
                return Err(format!("state of {op:?} did not round-trip"));
            }
            n += 1;
        }
    }
    Ok(n)
}
