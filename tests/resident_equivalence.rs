//! Resident/sequential equivalence — the correctness contract of the
//! persistent spatial-ownership executor.
//!
//! `ResidentExecutor::run` must be **bit-identical** to `run_events`
//! for every strategy, worker count, and slice boundary, *including*
//! streams built to hammer the border-reconciliation protocol: events
//! whose conservative claim reach straddles a shard frontier. The
//! suite pins
//!
//! * clustered joins fed in slices (shard state persists and is
//!   reused across `run` calls): two camps, and a 12-hot-spot
//!   metropolis that genuinely splits across shards,
//! * mixed join/leave/move churn on a standing clustered network
//!   (ghost-position tracking in routing) and power-raise phases (the
//!   widest claim radius),
//! * adversarial frontier-crossing churn — joins midway between
//!   camps, moves that migrate nodes across the frontier, power
//!   raises that inflate a claim until it spans shards — via a
//!   randomized property test over strategies × workers {1, 2, 8} ×
//!   seeds,
//! * `ValidationMode::Delta` runs on the resident path,
//! * the `Scenario`-level `Execution::Resident` knob (whole
//!   `SweepResult` equality against `Sequential`) on a metropolis
//!   join sweep and on power-raise, movement, churn and walled-join
//!   scenarios, and
//! * workers-invariance of the `ShardHealth` counters (routing is
//!   single-threaded and deterministic, so partition telemetry must
//!   not change with thread count).
//!
//! A property test additionally pins the router's partition
//! soundness: within one slice, events routed interior to
//! **different** shards never touch a common node — the "disjoint
//! neighborhoods commute" premise the interior waves rely on.

use minim::core::StrategyKind;
use minim::geom::{sample, Point, Rect};
use minim::graph::NodeId;
use minim::net::event::{apply_topology, apply_topology_delta, Event};
use minim::net::workload::{MixWorkload, Placement, PowerRaiseWorkload, RangeDist};
use minim::net::{Disposition, Network, NodeConfig, ShardMap, SliceRoute};
use minim::sim::runner::{
    run_events_validated, PhaseMetrics, ResidentExecutor, ShardHealth, ValidationMode,
};
use minim::sim::scenario::Scenario;
use minim::sim::{presets, Execution};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two well-separated camps joined by a thin corridor: the worst case
/// for spatial ownership, since anything near the corridor claims
/// cells of both camps' shards.
fn two_camp_events(n: usize, seed: u64) -> Vec<Event> {
    let arena = Rect::new(0.0, 0.0, 1200.0, 400.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers = vec![Point::new(150.0, 200.0), Point::new(1050.0, 200.0)];
    let placement = Placement::Clustered {
        centers,
        spread: 40.0,
        arena,
    };
    let ranges = RangeDist::paper();
    (0..n)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        })
        .collect()
}

/// A small metropolis: clustered joins around 12 hot spots over a
/// large arena, so ownership actually fractures into many shards.
fn metro_events(n: usize, seed: u64) -> Vec<Event> {
    let arena = Rect::new(0.0, 0.0, 2000.0, 2000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..12)
        .map(|_| sample::uniform_point(&mut rng, &arena))
        .collect();
    let placement = Placement::Clustered {
        centers,
        spread: 20.0,
        arena,
    };
    let ranges = RangeDist::paper();
    (0..n)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        })
        .collect()
}

/// A colored standing network: `metro_events(n, seed)` joined
/// sequentially under Minim.
fn metro_base(n: usize, seed: u64) -> Network {
    let mut base = Network::new(30.5);
    let mut s = StrategyKind::Minim.build();
    run_events_validated(
        &mut *s,
        &mut base,
        &metro_events(n, seed),
        ValidationMode::Off,
    );
    base
}

/// Runs `slices` through a fresh resident executor, accumulating
/// metrics the way a scenario phase does.
fn run_resident(
    kind: StrategyKind,
    base: &Network,
    slices: &[&[Event]],
    workers: usize,
    mode: ValidationMode,
) -> (Network, PhaseMetrics, Option<ShardHealth>) {
    let mut net = base.clone();
    let mut s = kind.build();
    let mut exec = ResidentExecutor::new(workers);
    let mut acc = PhaseMetrics::default();
    let mut health: Option<ShardHealth> = None;
    for slice in slices {
        let m = exec.run(&mut *s, &mut net, slice, mode);
        acc.recodings += m.recodings;
        acc.edge_churn += m.edge_churn;
        acc.max_color = m.max_color;
        if let Some(h) = &m.shard_health {
            health.get_or_insert_with(ShardHealth::default).absorb(h);
        }
    }
    (net, acc, health)
}

/// Asserts sequential and resident execution agree bit for bit on the
/// sliced stream, across worker counts and validation modes.
fn assert_resident_equivalent(
    kind: StrategyKind,
    base: &Network,
    slices: &[&[Event]],
    label: &str,
) {
    let all: Vec<Event> = slices.iter().flat_map(|s| s.iter().cloned()).collect();
    let mut seq_net = base.clone();
    let mut s = kind.build();
    let seq = run_events_validated(&mut *s, &mut seq_net, &all, ValidationMode::Off);
    for workers in [1usize, 2, 8] {
        for mode in [ValidationMode::Off, ValidationMode::Delta] {
            let (net, got, _) = run_resident(kind, base, slices, workers, mode);
            assert_eq!(got, seq, "{label}: {kind:?} workers={workers} {mode:?}");
            assert_eq!(
                net.snapshot_assignment(),
                seq_net.snapshot_assignment(),
                "{label}: {kind:?} workers={workers} {mode:?} assignment"
            );
            assert_eq!(
                net.describe(),
                seq_net.describe(),
                "{label}: {kind:?} workers={workers} {mode:?} topology"
            );
            assert_eq!(net.graph().edge_count(), seq_net.graph().edge_count());
        }
    }
}

#[test]
fn sliced_camp_joins_are_bit_identical_across_workers_and_seeds() {
    for seed in [1u64, 2, 3] {
        let events = two_camp_events(120, seed);
        let slices: Vec<&[Event]> = events.chunks(30).collect();
        for kind in StrategyKind::ALL {
            assert_resident_equivalent(kind, &Network::new(30.5), &slices, "camp joins");
        }
    }
}

#[test]
fn metropolis_joins_are_bit_identical_across_workers_and_seeds() {
    for seed in [1u64, 2, 3] {
        let events = metro_events(150, seed);
        let slices: Vec<&[Event]> = events.chunks(50).collect();
        let base = Network::new(30.5);
        // The stream must genuinely split across shards, or this test
        // is vacuous.
        let (_, _, health) =
            run_resident(StrategyKind::Minim, &base, &slices, 2, ValidationMode::Off);
        let shards = health.expect("resident path ran").shards;
        assert!(
            shards >= 2,
            "seed {seed}: expected a multi-shard run, got {shards}"
        );
        for kind in StrategyKind::ALL {
            assert_resident_equivalent(kind, &base, &slices, "metro joins");
        }
    }
}

#[test]
fn mixed_churn_on_standing_network_is_bit_identical() {
    for seed in [11u64, 12] {
        // Churn a standing clustered network with interleaved joins,
        // leaves, and moves.
        let base = metro_base(120, seed);
        let arena = Rect::new(0.0, 0.0, 2000.0, 2000.0);
        let mix = MixWorkload {
            steps: 80,
            join_prob: 0.3,
            leave_prob: 0.3,
            maxdisp: 15.0,
            placement: Placement::Uniform { arena },
            ranges: RangeDist::paper(),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        let mut ghost = base.clone();
        let events: Vec<Event> = (0..mix.steps)
            .map(|_| {
                let e = mix.next_event(&ghost, &mut rng);
                apply_topology(&mut ghost, &e);
                e
            })
            .collect();
        let slices: Vec<&[Event]> = events.chunks(20).collect();
        for kind in StrategyKind::ALL {
            assert_resident_equivalent(kind, &base, &slices, "mixed churn");
        }
    }
}

#[test]
fn power_raises_are_bit_identical() {
    // Power raises have the widest claim radius (CP rewrites two-hop
    // nodes); exercise them on a standing clustered network.
    let base = metro_base(100, 31);
    let mut rng = StdRng::seed_from_u64(99);
    let events = PowerRaiseWorkload::paper(2.0).generate(&base, &mut rng);
    assert!(!events.is_empty());
    let slices: Vec<&[Event]> = events.chunks(10).collect();
    for kind in StrategyKind::ALL {
        assert_resident_equivalent(kind, &base, &slices, "power raises");
    }
}

#[test]
fn frontier_crossing_churn_is_bit_identical() {
    // Build standing camps, then drive churn deliberately aimed at
    // the corridor between them: cross-frontier joins and moves, plus
    // power raises that stretch a camp node's claim across the gap.
    for seed in [21u64, 22] {
        let base_events = two_camp_events(100, seed);
        let mut base = Network::new(30.5);
        let mut s = StrategyKind::Minim.build();
        run_events_validated(&mut *s, &mut base, &base_events, ValidationMode::Off);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0BDE);
        let mut ghost = base.clone();
        let arena = Rect::new(0.0, 0.0, 1200.0, 400.0);
        let mut events = Vec::new();
        for step in 0..90 {
            let count = ghost.node_count();
            let roll: f64 = rng.gen();
            let e = if count == 0 || roll < 0.35 {
                // Joins biased toward the corridor midline.
                let x = rng.gen_range(450.0..750.0);
                let y = rng.gen_range(100.0..300.0);
                Event::Join {
                    cfg: NodeConfig::new(Point::new(x, y), rng.gen_range(15.0..35.0)),
                }
            } else {
                let k = rng.gen_range(0..count);
                let node = ghost.iter_nodes().nth(k).expect("k < count");
                if roll < 0.5 {
                    Event::Leave { node }
                } else if roll < 0.8 {
                    // Long-haul move: mirror the node across the
                    // corridor so it leaves its shard's region.
                    let from = ghost.config(node).expect("present").pos;
                    let to = Point::new((1200.0 - from.x).clamp(0.0, 1200.0), from.y);
                    Event::Move { node, to }
                } else {
                    // Power raise wide enough to claim across the gap
                    // every few steps.
                    let r = ghost.config(node).expect("present").range;
                    let factor = if step % 3 == 0 { 4.0 } else { 1.5 };
                    Event::SetRange {
                        node,
                        range: (r * factor).min(600.0),
                    }
                }
            };
            apply_topology(&mut ghost, &e);
            events.push(e);
        }
        let _ = arena;
        let slices: Vec<&[Event]> = events.chunks(18).collect();
        for kind in StrategyKind::ALL {
            assert_resident_equivalent(kind, &base, &slices, "frontier churn");
        }
    }
}

#[test]
fn health_counters_are_workers_invariant() {
    let events = two_camp_events(150, 7);
    let slices: Vec<&[Event]> = events.chunks(25).collect();
    let base = Network::new(30.5);
    let (_, _, h2) = run_resident(StrategyKind::Minim, &base, &slices, 2, ValidationMode::Off);
    let h2 = h2.expect("resident path ran");
    assert!(h2.shards >= 2, "camps should split across shards");
    assert!(h2.events == 150);
    assert!(h2.widest_shard >= 1);
    for workers in [4usize, 8] {
        let (_, _, h) = run_resident(
            StrategyKind::Minim,
            &base,
            &slices,
            workers,
            ValidationMode::Off,
        );
        // `ShardHealth` equality excludes throughput, so this pins
        // every counter: shards, widest shard, border events, events.
        assert_eq!(h.expect("resident path ran"), h2, "workers={workers}");
    }
    // Health is routing-derived, so it is strategy-invariant too.
    let (_, _, hc) = run_resident(StrategyKind::Cp, &base, &slices, 2, ValidationMode::Off);
    assert_eq!(hc.expect("resident path ran"), h2, "strategy invariance");
}

#[test]
fn scenario_resident_knob_is_bit_identical() {
    // Whole-pipeline equivalence: a shrunk metropolis sweep through
    // Scenario::run, resident vs sequential, plus health reporting.
    let mut spec = presets::metropolis();
    spec.sweep = minim::sim::SweepAxis::JoinCount(vec![60, 120]);
    let scenario = Scenario::new(spec).expect("metropolis validates");
    let mut cfg = scenario.spec().default_config();
    cfg.runs = 2;
    cfg.workers = 2;
    let seq = scenario.run(&cfg).expect("two replicates");
    assert!(
        seq.shard_health.is_none(),
        "sequential runs report no health"
    );
    let mut healths = Vec::new();
    for workers in [2usize, 8] {
        let resident = scenario
            .run(&cfg.execution(Execution::Resident { workers }))
            .expect("two replicates");
        assert_eq!(seq, resident, "resident x{workers}");
        assert_eq!(seq.to_csv(), resident.to_csv());
        healths.push(
            resident
                .shard_health
                .expect("resident sweeps report health"),
        );
    }
    assert_eq!(
        healths[0], healths[1],
        "sweep-level health is workers-invariant"
    );
}

#[test]
fn scenario_execution_knob_is_bit_identical() {
    // The execution knob beyond join sweeps: shrunk scenarios whose
    // measured phases are power raises, cumulative movement rounds
    // (per-round reporting), clustered churn, and walled joins — each
    // through Scenario::run under both execution modes.
    let mut churn = presets::clustered_churn();
    churn.sweep = minim::sim::SweepAxis::MixSteps(vec![40, 80]);
    let mut corridor = presets::corridor_joins();
    corridor.sweep = minim::sim::SweepAxis::JoinCount(vec![40, 60]);
    let specs = [
        presets::fig11_power_increase(vec![1.5, 2.0], 40),
        presets::fig12_vs_rounds(3, 40, 40.0),
        churn,
        corridor,
    ];
    for spec in specs {
        let name = spec.name.clone();
        let scenario = Scenario::new(spec).expect("preset validates");
        let mut cfg = scenario.spec().default_config();
        cfg.runs = 2;
        cfg.workers = 2;
        let seq = scenario.run(&cfg).expect("two replicates");
        for workers in [2usize, 8] {
            let resident = scenario
                .run(&cfg.execution(Execution::Resident { workers }))
                .expect("two replicates");
            assert_eq!(seq, resident, "{name}: resident x{workers}");
            assert_eq!(seq.to_csv(), resident.to_csv(), "{name}");
        }
    }
}

proptest! {
    /// Randomized adversarial equivalence: arbitrary interleaved
    /// churn with frontier-biased placement, every strategy, workers
    /// {1, 2, 8}, resident (sliced) vs sequential.
    #[test]
    fn adversarial_streams_are_bit_identical(
        seed in 0u64..60,
        n_events in 30usize..70,
        slice in 7usize..23,
    ) {
        let arena = Rect::new(0.0, 0.0, 900.0, 300.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ghost = Network::new(14.0);
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let count = ghost.node_count();
            let roll: f64 = rng.gen();
            let e = if count == 0 || roll < 0.45 {
                // Bimodal placement: camps near the ends, sometimes
                // straight into the middle.
                let x = match rng.gen_range(0u32..3) {
                    0 => rng.gen_range(0.0..250.0),
                    1 => rng.gen_range(650.0..900.0),
                    _ => rng.gen_range(350.0..550.0),
                };
                Event::Join {
                    cfg: NodeConfig::new(
                        Point::new(x, rng.gen_range(0.0..300.0)),
                        rng.gen_range(5.0..40.0),
                    ),
                }
            } else {
                let k = rng.gen_range(0..count);
                let node = ghost.iter_nodes().nth(k).expect("k < count");
                if roll < 0.6 {
                    Event::Leave { node }
                } else if roll < 0.85 {
                    let from = ghost.config(node).expect("present").pos;
                    Event::Move {
                        node,
                        to: sample::random_move(&mut rng, from, 300.0, &arena),
                    }
                } else {
                    let r = ghost.config(node).expect("present").range;
                    let factor: f64 = rng.gen_range(0.3..3.0);
                    Event::SetRange { node, range: (r * factor).clamp(1.0, 400.0) }
                }
            };
            apply_topology(&mut ghost, &e);
            events.push(e);
        }
        let slices: Vec<&[Event]> = events.chunks(slice).collect();
        for kind in StrategyKind::ALL {
            assert_resident_equivalent(kind, &Network::new(14.0), &slices, "adversarial");
        }
    }
}

/// The affected nodes of one event, from its topology delta: every
/// node incident to a changed edge plus the initiator, joined with
/// the recode set the strategies may rewrite.
fn affected_nodes(net: &mut Network, event: &Event, join_id: Option<NodeId>) -> Vec<NodeId> {
    let (_, delta) = apply_topology_delta(net, event, join_id);
    let mut v = delta.touched();
    v.extend(delta.recode_set());
    v.sort_unstable();
    v.dedup();
    v
}

/// A random join/leave/move/set-range event against `ghost`, applied
/// to it.
fn random_event(ghost: &mut Network, rng: &mut StdRng, arena: &Rect) -> Event {
    let count = ghost.node_count();
    let roll: f64 = rng.gen();
    let e = if count == 0 || roll < 0.5 {
        Event::Join {
            cfg: NodeConfig::new(sample::uniform_point(rng, arena), rng.gen_range(4.0..12.0)),
        }
    } else {
        let k = rng.gen_range(0..count);
        let node = ghost.iter_nodes().nth(k).expect("k < count");
        if roll < 0.65 {
            Event::Leave { node }
        } else if roll < 0.85 {
            let from = ghost.config(node).expect("present").pos;
            Event::Move {
                node,
                to: sample::random_move(rng, from, 40.0, arena),
            }
        } else {
            let r = ghost.config(node).expect("present").range;
            let factor: f64 = rng.gen_range(0.5..2.0);
            Event::SetRange {
                node,
                range: (r * factor).min(12.0),
            }
        }
    };
    apply_topology(ghost, &e);
    e
}

proptest! {
    /// Routing soundness: within one slice routed against a map seeded
    /// over a standing base, events routed interior to different
    /// shards never share an affected node, under random interleaved
    /// joins/leaves/moves/range changes.
    #[test]
    fn shards_never_share_an_affected_node(
        seed in 0u64..500,
        n_base in 10usize..60,
        n_events in 20usize..60,
    ) {
        let arena = Rect::new(0.0, 0.0, 600.0, 600.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base = Network::new(12.0);
        for _ in 0..n_base {
            random_event(&mut base, &mut rng, &arena);
        }
        let mut ghost = base.clone();
        let events: Vec<Event> = (0..n_events)
            .map(|_| random_event(&mut ghost, &mut rng, &arena))
            .collect();

        let mut map = ShardMap::seed(&base, 4);
        let mut route = SliceRoute::default();
        map.route(&base, &events, &mut route);
        // Replay sequentially with the routed join ids, collecting
        // each interior event's affected set under its shard.
        let mut net = base.clone();
        let mut touched_by_shard: Vec<Vec<NodeId>> = vec![Vec::new(); map.shard_count()];
        for (i, e) in events.iter().enumerate() {
            let affected = affected_nodes(&mut net, e, route.join_ids[i]);
            if let Disposition::Interior(s) = route.disposition[i] {
                touched_by_shard[s as usize].extend(affected);
            }
        }
        for v in &mut touched_by_shard {
            v.sort_unstable();
            v.dedup();
        }
        for a in 0..touched_by_shard.len() {
            for b in (a + 1)..touched_by_shard.len() {
                let overlap: Vec<_> = touched_by_shard[a]
                    .iter()
                    .filter(|n| touched_by_shard[b].binary_search(n).is_ok())
                    .collect();
                prop_assert!(
                    overlap.is_empty(),
                    "shards {a} and {b} share affected nodes {overlap:?}"
                );
            }
        }
    }
}
