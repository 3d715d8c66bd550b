//! Scenario runners: apply generated event sequences to a strategy and
//! accumulate the paper's two metrics.
//!
//! Every executor runs an event through one composition,
//! [`minim_core::step`]: topology (`apply_topology_delta`) → plan
//! ([`RecodingStrategy::plan_batched`]) → commit. The sequential
//! runner reaches it through [`RecodingStrategy::apply_delta`]; the
//! [`ResidentExecutor`] calls it directly, on shard replicas in its
//! waves and on the main network in its border pass, with the join ids
//! pinned in routing order.
//!
//! Every applied event yields a [`minim_net::TopologyDelta`], and
//! per-event consistency checking — [`ValidationMode::Delta`] — runs
//! `conflict::validate_delta` on just the delta's affected
//! neighborhood, `O(Δ)` per event. [`ValidationMode::Full`] re-checks
//! the whole conflict graph after every event (`O(E)`), and exists as
//! the control arm: the `delta` bench in `crates/bench` measures the
//! two against each other on the Fig 10 join sweep.

use crate::par::parallel_map;
use minim_core::{step, BatchLocality, EventEffect, RecodeOutcome, RecodingStrategy};
use minim_geom::Point;
use minim_graph::conflict;
use minim_net::event::{apply_topology, apply_topology_delta, AppliedEvent, Event};
use minim_net::workload::MovementWorkload;
use minim_net::{Disposition, Network, NodeConfig, ShardMap, SliceRoute};
use rand::Rng;
use std::sync::Mutex;

/// Accumulated §5 metrics for one phase of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseMetrics {
    /// Total recodings performed during the phase.
    pub recodings: usize,
    /// Maximum color index assigned at phase end.
    pub max_color: u32,
    /// Total digraph edge insertions + removals over the phase — the
    /// summed per-event `Δ`, read off the topology deltas.
    pub edge_churn: usize,
    /// Partition-quality counters when the phase ran on the resident
    /// executor; `None` on every other path. Excluded from `==` (like
    /// the lab's wall-clock fields) so resident and sequential runs of
    /// the same stream compare metric-identical.
    pub shard_health: Option<ShardHealth>,
}

impl PartialEq for PhaseMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.recodings == other.recodings
            && self.max_color == other.max_color
            && self.edge_churn == other.edge_churn
    }
}

/// Partition-quality counters of one resident run ([`Execution::
/// Resident`]): how many ownership shards are live, how big the
/// largest resident subnetwork is, and how much of the stream had to
/// serialize through the border pass. Everything except the
/// throughput is derived from routing and topology alone — never from
/// thread scheduling — so the counters are **workers-invariant**
/// (pinned by `tests/resident_equivalence.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardHealth {
    /// Shards owning at least one grid cell.
    pub shards: u32,
    /// Node count of the largest resident subnetwork at phase end.
    pub widest_shard: u32,
    /// Events that crossed a shard frontier (ran serialized).
    pub border_events: usize,
    /// Total events executed on the resident path.
    pub events: usize,
    /// Resident-path throughput (0 when unmeasurably fast). Excluded
    /// from `==` — timing is machine noise, not partition quality.
    pub events_per_sec: f64,
}

impl ShardHealth {
    /// Fraction of the stream serialized through the border pass —
    /// the resident executor's parallelism ceiling.
    pub fn border_fraction(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.border_events as f64 / self.events as f64
        }
    }

    /// Folds another run's counters into this one (counters sum,
    /// structure maxes, throughput duration-weight-averages) — how the
    /// lab accumulates health across the rounds of a phase.
    ///
    /// The merged rate is total events over total wall-clock, with
    /// each side's wall-clock recovered as `events / events_per_sec`.
    /// Weighting the *rates* by event counts instead would skew
    /// whenever rounds run unequal wall-clock: a fast burst with many
    /// events would outvote a slow round that dominated real time.
    /// Sides with an unmeasurable rate (`events_per_sec == 0`)
    /// contribute no time and no events to the quotient.
    pub fn absorb(&mut self, other: &ShardHealth) {
        let mut timed_events = 0.0f64;
        let mut secs = 0.0f64;
        for h in [&*self, other] {
            if h.events_per_sec > 0.0 && h.events > 0 {
                timed_events += h.events as f64;
                secs += h.events as f64 / h.events_per_sec;
            }
        }
        self.events_per_sec = if secs > 0.0 { timed_events / secs } else { 0.0 };
        self.shards = self.shards.max(other.shards);
        self.widest_shard = self.widest_shard.max(other.widest_shard);
        self.border_events += other.border_events;
        self.events += other.events;
    }
}

impl PartialEq for ShardHealth {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards
            && self.widest_shard == other.widest_shard
            && self.border_events == other.border_events
            && self.events == other.events
    }
}

/// How (and whether) the event loop checks CA1/CA2 after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// No per-event checking (the strategies' own debug assertions
    /// still run in debug builds).
    #[default]
    Off,
    /// `O(Δ)` per event: `conflict::validate_delta` over the event's
    /// touched nodes plus everything the strategy recoded.
    Delta,
    /// `O(E)` per event: full `conflict::validate` over the whole
    /// graph — the control arm the paper's locality claim beats.
    Full,
}

/// Applies `events` in order with `strategy`, returning the phase
/// metrics. Panics (via the strategies' debug assertions) if any event
/// leaves the network invalid.
pub fn run_events(
    strategy: &mut dyn RecodingStrategy,
    net: &mut Network,
    events: &[Event],
) -> PhaseMetrics {
    run_events_validated(strategy, net, events, ValidationMode::Off)
}

/// [`run_events`] with per-event CA1/CA2 checking in the chosen
/// [`ValidationMode`].
///
/// # Panics
/// Panics on the first event whose aftermath violates CA1/CA2.
pub fn run_events_validated(
    strategy: &mut dyn RecodingStrategy,
    net: &mut Network,
    events: &[Event],
    mode: ValidationMode,
) -> PhaseMetrics {
    let mut recodings = 0;
    let mut edge_churn = 0;
    for e in events {
        let (applied, effect) = strategy.apply_delta(net, e);
        recodings += effect.outcome.recodings();
        edge_churn += effect.delta.edge_churn();
        match mode {
            ValidationMode::Off => {}
            ValidationMode::Delta => validate_event(net, &applied, &effect),
            ValidationMode::Full => {
                minim_obs::counter!("sim.validate.full", 1);
                if let Err(v) = net.validate() {
                    panic!("event {e:?} left a CA1/CA2 violation: {v}");
                }
            }
        }
    }
    PhaseMetrics {
        recodings,
        max_color: net.max_color_index(),
        edge_churn,
        shard_health: None,
    }
}

/// The [`ValidationMode::Delta`] check of one event: `O(Δ)` local
/// validation seeded with the initiator and everything it recoded.
///
/// # Panics
/// Panics if the event left a CA1/CA2 violation.
fn validate_event(net: &Network, applied: &AppliedEvent, effect: &EventEffect) {
    minim_obs::counter!("sim.validate.delta", 1);
    let seeds = minim_core::validation_seeds(&effect.delta, &effect.outcome);
    if let Err(v) = conflict::validate_delta(net.graph(), net.assignment(), &seeds) {
        panic!("event {applied:?} left a CA1/CA2 violation: {v}");
    }
}

/// How a scenario executes its per-replicate event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// One event at a time, in order — [`run_events`].
    #[default]
    Sequential,
    /// Persistent spatial-ownership shards — a [`ResidentExecutor`]
    /// kept alive across slices, so steady-state churn routes events
    /// to long-lived resident subnetworks in `O(events)` without
    /// touching `O(N)` state per slice. Pinned bit-identical to
    /// [`Execution::Sequential`] (`tests/resident_equivalence.rs`);
    /// worthwhile for large-N single scenarios (the `metropolis`
    /// preset), where one replicate is itself the bottleneck.
    Resident {
        /// Wave worker threads per replicate.
        workers: usize,
    },
}

/// Default resident shard count. Deliberately a constant rather than
/// the worker count: routing, annexation, and every [`ShardHealth`]
/// counter depend only on the shard set, so fixing it keeps the whole
/// resident data flow — and its health telemetry — bit-identical
/// across worker counts. Waves still scale to however many workers
/// the caller brings (shards are dealt across threads).
pub const DEFAULT_RESIDENT_SHARDS: usize = 8;

/// [`run_events`] with intra-scenario parallelism: long-lived
/// spatial-ownership shards that survive across event slices.
///
/// A `ResidentExecutor` seeds a persistent
/// [`ShardMap`] once and keeps one **resident subnetwork per shard**
/// — configurations, colors, spatial index, and recycled rewire
/// scratch — alive between [`ResidentExecutor::run`] calls. Each
/// slice is only *routed* (`O(events · claim cells)`): interior
/// events run concurrently on their shard's resident state in waves,
/// frontier-crossing events serialize through a border pass on the
/// main network with the touched replicas refreshed in `O(Δ)`, and
/// the main network is kept current by an `O(Δ)`-per-event replay.
/// Steady-state churn therefore never touches `O(N)` state.
///
/// **Bit-identical to sequential execution.** The wave/border
/// schedule is conflict-serializable to the original event order
/// (`minim_net::shardmap` module docs give the argument), each
/// replica is a faithful restriction of the main network to its owned
/// region (the refresh rules in `refresh_after_border` maintain
/// exactly that invariant), and join ids are pre-assigned in routing
/// order — so every event observes the same local state it would have
/// seen sequentially. `tests/resident_equivalence.rs` pins this
/// across strategies × workers × adversarial frontier-crossing
/// streams.
///
/// The executor assumes it owns the network between runs: structural
/// drift from outside mutation (node/edge/id/color-watermark changes)
/// is detected by a fingerprint and triggers a transparent reseed;
/// callers that recolor nodes without changing any of those four
/// numbers must create a fresh executor. Runs that fall back to the
/// sequential path (≤ 1 worker, ≤ 1 event, globally-coupled
/// strategies, full validation) drop the shard state for the same
/// reason.
pub struct ResidentExecutor {
    workers: usize,
    shards: usize,
    state: Option<ResidentState>,
}

/// The persistent state: the ownership map, one resident subnetwork
/// per shard, and recycled routing/queue buffers.
struct ResidentState {
    map: ShardMap,
    /// `Mutex<Option<..>>` so wave jobs can take their shard's
    /// subnetwork by value across `parallel_map` and hand it back;
    /// the networks live here across slices instead of being rebuilt.
    subs: Vec<Mutex<Option<Network>>>,
    route: SliceRoute,
    /// Per-shard queued event indices of the wave being accumulated.
    queues: Vec<Vec<usize>>,
    fingerprint: minim_net::NetworkFingerprint,
}

impl ResidentState {
    /// Seeds the ownership map from the current population and builds
    /// each shard's resident subnetwork: exactly the present nodes in
    /// its owned cells, with configuration and color — the
    /// region-faithfulness invariant every later refresh maintains.
    fn seed(net: &Network, shards: usize) -> ResidentState {
        let map = ShardMap::seed(net, shards);
        let mut subs: Vec<Network> = (0..map.shard_count()).map(|_| net.fresh_like()).collect();
        for id in net.iter_nodes() {
            let cfg = net.config(id).expect("listed node has a config");
            let s = map
                .owner_of(&cfg.pos)
                .expect("every populated cell is owned after seeding") as usize;
            let d = subs[s].insert_node(id, cfg);
            subs[s].recycle_delta(d);
            if let Some(c) = net.assignment().get(id) {
                subs[s].set_color(id, c);
            }
        }
        ResidentState {
            queues: vec![Vec::new(); map.shard_count()],
            subs: subs.into_iter().map(|s| Mutex::new(Some(s))).collect(),
            map,
            route: SliceRoute::default(),
            fingerprint: net.fingerprint(),
        }
    }

    /// The shard whose region contains `p`. Callers only ask about
    /// positions inside the current slice's claim footprint, which
    /// routing has fully annexed — so the cell is always owned.
    fn owner_shard(&self, p: &Point) -> usize {
        self.map
            .owner_of(p)
            .expect("refresh positions lie in the routed claim footprint") as usize
    }

    /// Exclusive access to shard `s`'s resident subnetwork (only valid
    /// between waves).
    fn sub_mut(&mut self, s: usize) -> &mut Network {
        self.subs[s]
            .get_mut()
            .expect("shard slot poisoned")
            .as_mut()
            .expect("resident subnetwork is home between waves")
    }

    /// Runs the accumulated interior waves (all queued events precede
    /// `replay` in slice order), merges them into the main network,
    /// and clears the queues. Returns `(recodings, edge_churn)`.
    ///
    /// Wave jobs run one shard each, concurrently: [`step`] with
    /// pinned join ids (the same topology → plan → commit composition
    /// the sequential runner uses), optional delta validation — all
    /// against the shard's resident subnetwork, which stays resident
    /// (and allocation-recycled) afterwards. The merge replays the events' topology on the main
    /// network in original order (`O(Δ)` each) and applies each
    /// shard's recoded colors — per-event *changes* only, never a full
    /// assignment copy, which is what keeps the merge `O(Δ)` instead
    /// of `O(population)`.
    fn flush_wave(
        &mut self,
        strategy: &(dyn RecodingStrategy + Sync),
        net: &mut Network,
        events: &[Event],
        replay: std::ops::Range<usize>,
        workers: usize,
        mode: ValidationMode,
    ) -> (usize, usize) {
        let jobs: Vec<usize> = (0..self.queues.len())
            .filter(|&s| !self.queues[s].is_empty())
            .collect();
        if jobs.is_empty() {
            return (0, 0);
        }
        let results = {
            let _span = minim_obs::span!("resident.interior_wave");
            let subs = &self.subs;
            let queues = &self.queues;
            let route = &self.route;
            parallel_map(&jobs, workers, |&s| {
                let mut sub = subs[s]
                    .lock()
                    .expect("shard slot poisoned")
                    .take()
                    .expect("each shard runs in one wave job at a time");
                let mut recodings = 0usize;
                let mut edge_churn = 0usize;
                // Per-event color *changes*, in event order. A leave
                // records an explicit unset: within a shard a later
                // leave must override an earlier recode of the same
                // node during the merge (last-write-wins), exactly as
                // it does sequentially.
                let mut writes: Vec<(minim_graph::NodeId, Option<minim_graph::Color>)> = Vec::new();
                for &i in &queues[s] {
                    if let Event::Leave { node } = &events[i] {
                        writes.push((*node, None));
                    }
                    let (applied, effect) = step(strategy, &mut sub, &events[i], route.join_ids[i]);
                    recodings += effect.outcome.recodings();
                    edge_churn += effect.delta.edge_churn();
                    if mode == ValidationMode::Delta {
                        validate_event(&sub, &applied, &effect);
                    }
                    writes.extend(effect.outcome.recoded.iter().map(|&(n, _, c)| (n, Some(c))));
                    sub.recycle_delta(effect.delta);
                }
                *subs[s].lock().expect("shard slot poisoned") = Some(sub);
                (recodings, edge_churn, writes)
            })
        };

        // Bring the main network up to date: replay topology in
        // original order (all events in `replay` are interior — any
        // border event would have flushed first), then apply the
        // shards' color changes (disjoint node sets; within a shard
        // the writes are already in event order, so last-write-wins
        // matches sequential).
        let _span = minim_obs::span!("resident.merge");
        for i in replay {
            let (_, delta) = apply_topology_delta(net, &events[i], self.route.join_ids[i]);
            net.recycle_delta(delta);
        }
        for q in &mut self.queues {
            q.clear();
        }
        let mut recodings = 0usize;
        let mut edge_churn = 0usize;
        for (r, c, writes) in results {
            recodings += r;
            edge_churn += c;
            for (n, color) in writes {
                match color {
                    Some(color) => {
                        net.assignment_mut().set(n, color);
                    }
                    None => {
                        net.assignment_mut().unset(n);
                    }
                }
            }
        }
        (recodings, edge_churn)
    }

    /// Re-establishes region-faithfulness after a border event ran on
    /// the main network: the initiator's topology change is mirrored
    /// into the replica(s) owning its old/new cells, and every recoded
    /// color is written through to its owner's replica. All other
    /// replica state is untouched — a border event's edge changes are
    /// incident to the initiator, and an edge belongs to a replica's
    /// induced subgraph only when *both* endpoints live there, so
    /// replicas not housing the initiator see no topology change.
    fn refresh_after_border(
        &mut self,
        net: &Network,
        event: &Event,
        join_id: Option<minim_graph::NodeId>,
        prior: Option<NodeConfig>,
        outcome: &RecodeOutcome,
    ) {
        match event {
            Event::Join { cfg } => {
                let id = join_id.expect("joins carry a pre-assigned id");
                let s = self.owner_shard(&cfg.pos);
                let sub = self.sub_mut(s);
                let d = sub.insert_node(id, *cfg);
                sub.recycle_delta(d);
                // The joiner's first color arrives via `recoded` below.
            }
            Event::Leave { node } => {
                let p = prior.expect("leave initiator was present").pos;
                let s = self.owner_shard(&p);
                let sub = self.sub_mut(s);
                let d = sub.remove_node(*node);
                sub.recycle_delta(d);
            }
            Event::Move { node, to } => {
                let from = prior.expect("move initiator was present").pos;
                let s_from = self.owner_shard(&from);
                let s_to = self.owner_shard(to);
                if s_from == s_to {
                    let sub = self.sub_mut(s_from);
                    let d = sub.move_node(*node, *to);
                    sub.recycle_delta(d);
                } else {
                    // Migrate the resident copy across the frontier,
                    // color and all.
                    let sub = self.sub_mut(s_from);
                    let d = sub.remove_node(*node);
                    sub.recycle_delta(d);
                    let cfg = net.config(*node).expect("move initiator is present");
                    let color = net.assignment().get(*node);
                    let sub = self.sub_mut(s_to);
                    let d = sub.insert_node(*node, cfg);
                    sub.recycle_delta(d);
                    if let Some(c) = color {
                        sub.set_color(*node, c);
                    }
                }
            }
            Event::SetRange { node, range } => {
                let p = prior.expect("set-range initiator was present").pos;
                let s = self.owner_shard(&p);
                let sub = self.sub_mut(s);
                let d = sub.set_range(*node, *range);
                sub.recycle_delta(d);
            }
        }
        for &(n, _, c) in &outcome.recoded {
            let p = net.config(n).expect("recoded nodes are present").pos;
            let s = self.owner_shard(&p);
            self.sub_mut(s).set_color(n, c);
        }
    }

    /// Largest resident subnetwork, in nodes.
    fn widest_shard(&mut self) -> u32 {
        (0..self.subs.len())
            .map(|s| self.sub_mut(s).node_count() as u32)
            .max()
            .unwrap_or(0)
    }
}

impl ResidentExecutor {
    /// An executor with [`DEFAULT_RESIDENT_SHARDS`] ownership shards
    /// and `workers` wave threads.
    pub fn new(workers: usize) -> ResidentExecutor {
        ResidentExecutor::with_shards(workers, DEFAULT_RESIDENT_SHARDS)
    }

    /// An executor with an explicit shard count (tests and tuning; the
    /// shard count never affects results, only available parallelism).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_shards(workers: usize, shards: usize) -> ResidentExecutor {
        assert!(shards >= 1, "resident executor needs at least one shard");
        ResidentExecutor {
            workers,
            shards,
            state: None,
        }
    }

    /// The wave worker count this executor runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one event slice on the resident path, keeping shard state
    /// alive across calls. Falls back to [`run_events_validated`]
    /// (dropping the shard state) when the executor has ≤ 1 worker,
    /// the slice has ≤ 1 event, the strategy declares
    /// [`BatchLocality::Global`] (BBB, instrumentation wrappers), or
    /// `mode` is [`ValidationMode::Full`] — correctness never depends
    /// on the caller picking the right path.
    ///
    /// # Panics
    /// Panics on the first event whose aftermath violates CA1/CA2
    /// (when validating), like the sequential runner.
    pub fn run(
        &mut self,
        strategy: &mut (dyn RecodingStrategy + Sync),
        net: &mut Network,
        events: &[Event],
        mode: ValidationMode,
    ) -> PhaseMetrics {
        if self.workers <= 1
            || events.len() <= 1
            || strategy.batch_locality() == BatchLocality::Global
            || mode == ValidationMode::Full
        {
            // The sequential path mutates the network without
            // updating the replicas; drop them rather than leaving a
            // guaranteed-stale (fingerprint-failing) state around.
            self.state = None;
            return run_events_validated(strategy, net, events, mode);
        }
        let _slice_span = minim_obs::span!("resident.slice");
        let t0 = std::time::Instant::now();
        let workers = self.workers;
        let fp = net.fingerprint();
        let state = match &mut self.state {
            Some(s) if s.fingerprint == fp => s,
            _ => {
                self.state = Some(ResidentState::seed(net, self.shards));
                self.state.as_mut().expect("just seeded")
            }
        };
        let strategy: &(dyn RecodingStrategy + Sync) = strategy;

        {
            let _span = minim_obs::span!("resident.route");
            state.map.route(net, events, &mut state.route);
        }
        let mut recodings = 0usize;
        let mut edge_churn = 0usize;
        let mut wave_start = 0usize;
        for i in 0..events.len() {
            match state.route.disposition[i] {
                Disposition::Interior(s) => state.queues[s as usize].push(i),
                Disposition::Border { .. } => {
                    // Barrier: every earlier interior event lands
                    // before the frontier crossing runs.
                    let (r, c) =
                        state.flush_wave(strategy, net, events, wave_start..i, workers, mode);
                    recodings += r;
                    edge_churn += c;
                    wave_start = i + 1;

                    // The border event itself runs sequentially on
                    // the main network — the same `step` as the wave
                    // path.
                    let _span = minim_obs::span!("resident.border_barrier");
                    let e = &events[i];
                    let join_id = state.route.join_ids[i];
                    let prior = match e {
                        Event::Leave { node }
                        | Event::Move { node, .. }
                        | Event::SetRange { node, .. } => net.config(*node),
                        Event::Join { .. } => None,
                    };
                    let (applied, effect) = step(strategy, net, e, join_id);
                    recodings += effect.outcome.recodings();
                    edge_churn += effect.delta.edge_churn();
                    if mode == ValidationMode::Delta {
                        validate_event(net, &applied, &effect);
                    }
                    state.refresh_after_border(net, e, join_id, prior, &effect.outcome);
                    net.recycle_delta(effect.delta);
                }
            }
        }
        let (r, c) = state.flush_wave(
            strategy,
            net,
            events,
            wave_start..events.len(),
            workers,
            mode,
        );
        recodings += r;
        edge_churn += c;
        state.fingerprint = net.fingerprint();

        let elapsed = t0.elapsed().as_secs_f64();
        let health = ShardHealth {
            shards: state.map.active_shards(),
            widest_shard: state.widest_shard(),
            border_events: state.route.border_events,
            events: events.len(),
            events_per_sec: if elapsed > 0.0 {
                events.len() as f64 / elapsed
            } else {
                0.0
            },
        };
        // Re-express the slice's health in the registry so shard
        // quality shows up next to every other subsystem's metrics.
        minim_obs::counter!("resident.events", health.events as u64);
        minim_obs::counter!("resident.border_events", health.border_events as u64);
        minim_obs::gauge!("resident.shards", health.shards as f64);
        minim_obs::gauge!("resident.widest_shard", health.widest_shard as f64);
        minim_obs::gauge!("resident.events_per_sec", health.events_per_sec);
        PhaseMetrics {
            recodings,
            max_color: net.max_color_index(),
            edge_churn,
            shard_health: Some(health),
        }
    }
}

/// Pre-generates `rounds` rounds of §5.3 movement events.
///
/// Positions evolve identically for every strategy (recoding never
/// moves nodes), so the rounds are simulated once on a colorless
/// *ghost* network and the same event lists are replayed against each
/// strategy — this keeps the comparison paired (identical randomness
/// per strategy), which is how the paper can plot Δ-metrics across
/// strategies for "the same" mobility.
pub fn pregenerate_movement_rounds<R: Rng + ?Sized>(
    base: &Network,
    workload: &MovementWorkload,
    rounds: usize,
    rng: &mut R,
) -> Vec<Vec<Event>> {
    let mut ghost = base.clone();
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let events = workload.generate_round(&ghost, rng);
        for e in &events {
            apply_topology(&mut ghost, e);
        }
        out.push(events);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_core::{Minim, StrategyKind};
    use minim_net::workload::JoinWorkload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shard_health_absorb_is_duration_weighted() {
        // Hand-computed oracle: side A ran 100 events at 100 ev/s
        // (1.0 s of wall-clock), side B ran 300 events at 1200 ev/s
        // (0.25 s). Merged rate = 400 events / 1.25 s = 320 ev/s.
        // The old event-count weighting of the *rates* would claim
        // (100·100 + 1200·300) / 400 = 925 ev/s — dominated by the
        // burst that barely contributed wall-clock.
        let mut a = ShardHealth {
            shards: 4,
            widest_shard: 50,
            border_events: 3,
            events: 100,
            events_per_sec: 100.0,
        };
        let b = ShardHealth {
            shards: 6,
            widest_shard: 40,
            border_events: 7,
            events: 300,
            events_per_sec: 1200.0,
        };
        a.absorb(&b);
        assert_eq!(a.events, 400);
        assert_eq!(a.border_events, 10);
        assert_eq!(a.shards, 6);
        assert_eq!(a.widest_shard, 50);
        assert!(
            (a.events_per_sec - 320.0).abs() < 1e-9,
            "{}",
            a.events_per_sec
        );

        // An unmeasurable side contributes counters but neither time
        // nor events to the rate.
        let c = ShardHealth {
            events: 1000,
            events_per_sec: 0.0,
            ..ShardHealth::default()
        };
        a.absorb(&c);
        assert_eq!(a.events, 1400);
        assert!((a.events_per_sec - 320.0).abs() < 1e-9);

        // Two unmeasured sides merge to an unmeasured rate.
        let mut d = ShardHealth::default();
        d.absorb(&ShardHealth::default());
        assert_eq!(d.events_per_sec, 0.0);
    }

    #[test]
    fn run_events_counts_recodings() {
        let mut rng = StdRng::seed_from_u64(1);
        let events = JoinWorkload::paper(20).generate(&mut rng);
        let mut net = Network::new(25.0);
        let mut strategy = Minim::default();
        let metrics = run_events(&mut strategy, &mut net, &events);
        // Every join recodes at least the joiner.
        assert!(metrics.recodings >= 20);
        assert!(metrics.max_color >= 1);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn validated_modes_agree_and_count_churn() {
        for kind in StrategyKind::ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let events = JoinWorkload::paper(30).generate(&mut rng);
            let mut results = Vec::new();
            for mode in [
                ValidationMode::Off,
                ValidationMode::Delta,
                ValidationMode::Full,
            ] {
                let mut net = Network::new(25.0);
                let mut s = kind.build();
                let m = run_events_validated(&mut *s, &mut net, &events, mode);
                assert!(m.edge_churn > 0, "joins wire edges");
                results.push(m);
            }
            assert_eq!(results[0], results[1], "{:?} delta mode", kind);
            assert_eq!(results[0], results[2], "{:?} full mode", kind);
        }
    }

    #[test]
    #[should_panic(expected = "CA1/CA2 violation")]
    fn delta_validation_catches_a_sabotaged_strategy() {
        /// A strategy that never colors anyone — every join leaves the
        /// joiner uncolored, which local validation must flag.
        struct Sloppy;
        impl minim_core::RecodingStrategy for Sloppy {
            fn name(&self) -> &'static str {
                "sloppy"
            }
            fn plan_batched(
                &self,
                _net: &Network,
                _applied: &AppliedEvent,
                _delta: &minim_net::TopologyDelta,
            ) -> minim_core::ColorPlan {
                Vec::new()
            }
            // Skips the provided method's debug-build check, so the
            // runner's own delta validation is what fires.
            fn apply_delta(
                &mut self,
                net: &mut Network,
                event: &Event,
            ) -> (AppliedEvent, EventEffect) {
                step(self, net, event, None)
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let events = JoinWorkload::paper(5).generate(&mut rng);
        let mut net = Network::new(25.0);
        run_events_validated(&mut Sloppy, &mut net, &events, ValidationMode::Delta);
    }

    #[test]
    fn resident_matches_sequential_across_slices() {
        for kind in StrategyKind::ALL {
            let mut rng = StdRng::seed_from_u64(21);
            let events = JoinWorkload::paper(60).generate(&mut rng);
            let mut seq_net = Network::new(25.0);
            let mut s = kind.build();
            let seq = run_events(&mut *s, &mut seq_net, &events);
            for workers in [1usize, 4, 8] {
                let mut net = Network::new(25.0);
                let mut s = kind.build();
                let mut exec = ResidentExecutor::new(workers);
                let mut got = PhaseMetrics::default();
                // Feed the stream in slices so shard state persists
                // (and is reused) across runs.
                for slice in events.chunks(20) {
                    let m = exec.run(&mut *s, &mut net, slice, ValidationMode::Off);
                    got.recodings += m.recodings;
                    got.edge_churn += m.edge_churn;
                    got.max_color = m.max_color;
                }
                assert_eq!(got, seq, "{kind:?} at {workers} workers");
                assert_eq!(net.snapshot_assignment(), seq_net.snapshot_assignment());
                assert_eq!(net.describe(), seq_net.describe());
            }
        }
    }

    #[test]
    fn resident_validates_deltas_and_reports_health() {
        let mut rng = StdRng::seed_from_u64(5);
        let events = JoinWorkload::paper(40).generate(&mut rng);
        let mut net = Network::new(25.0);
        let mut s = Minim::default();
        let mut exec = ResidentExecutor::new(4);
        let m = exec.run(&mut s, &mut net, &events, ValidationMode::Delta);
        assert!(m.recodings >= 40);
        assert!(net.validate().is_ok());
        let h = m.shard_health.expect("resident runs report health");
        assert_eq!(h.events, 40);
        assert!(h.border_events <= h.events);
        assert!(h.shards >= 1);
        assert!(h.widest_shard >= 1);
    }

    #[test]
    fn movement_rounds_replay_identically_across_strategies() {
        let mut rng = StdRng::seed_from_u64(2);
        let join_events = JoinWorkload::paper(15).generate(&mut rng);
        let mut base = Network::new(25.0);
        let mut m = Minim::default();
        for e in &join_events {
            m.apply(&mut base, &e.clone());
        }
        let w = MovementWorkload::paper(30.0, 1);
        let rounds = pregenerate_movement_rounds(&base, &w, 3, &mut rng);
        assert_eq!(rounds.len(), 3);
        for r in &rounds {
            assert_eq!(r.len(), 15, "every node moves once per round");
        }

        // Replaying the same rounds against two strategies leaves both
        // networks with identical topology.
        let mut nets = Vec::new();
        for kind in [StrategyKind::Minim, StrategyKind::Cp] {
            let mut net = base.clone();
            let mut s = kind.build();
            for round in &rounds {
                run_events(&mut *s, &mut net, round);
            }
            assert!(net.validate().is_ok());
            nets.push(net);
        }
        let a = &nets[0];
        let b = &nets[1];
        for id in a.node_ids() {
            assert_eq!(a.config(id).unwrap().pos, b.config(id).unwrap().pos);
        }
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }
}
