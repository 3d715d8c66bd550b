//! One test per theorem of the paper's appendices — the formal claims
//! as executable checks, named by their numbering. Some overlap with
//! the unit suites is intentional: this file is the paper-to-code
//! index.

use minim::core::{bounds, Minim, RecodingStrategy};
use minim::geom::{sample, Point, Rect};
use minim::graph::{conflict, Color, NodeId};
use minim::net::event::Event;
use minim::net::{Network, NodeConfig};
use minim::proto::{parallel_minim_joins, ParallelJoinError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_net(count: usize, seed: u64) -> (Network, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(25.0);
    let mut minim = Minim::default();
    for _ in 0..count {
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 20.5, 30.5),
        );
        minim.apply(&mut net, &Event::Join { cfg });
    }
    (net, rng)
}

/// Lemma 4.1.1 — the minimal recoding bound for joins: apart from
/// recoding `n`, at least `Σ(K_i − 1)` nodes of `1n ∪ 2n` must change.
/// Checked from the adversary side: CP and BBB never get below it
/// either (the bound is strategy-independent).
#[test]
fn lemma_4_1_1_join_bound_is_universal() {
    use minim::core::StrategyKind;
    for seed in 0..10 {
        let (base, mut rng) = random_net(25, seed);
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 20.5, 30.5),
        );
        let mut probe = base.clone();
        let id = probe.next_id();
        probe.insert_node(id, cfg);
        let bound = bounds::minimal_bound_join(&probe, id);
        for kind in StrategyKind::ALL {
            let mut net = base.clone();
            let mut s = kind.build();
            let out = s.apply(&mut net, &Event::Join { cfg }).1;
            assert!(out.recodings() >= bound, "{} beat the bound", s.name());
        }
    }
}

/// Theorem 4.1.2 (Termination): RecodeOnJoin terminates — trivially
/// witnessed by every other test; here we pin the degenerate inputs
/// that most plausibly could hang (empty neighborhoods, fully
/// saturated color ranges).
#[test]
fn theorem_4_1_2_join_terminates_on_degenerate_inputs() {
    let mut minim = Minim::default();
    // Empty network.
    let mut net = Network::new(10.0);
    let cfg = NodeConfig::new(Point::new(0.0, 0.0), 5.0);
    minim.apply(&mut net, &Event::Join { cfg });
    // A joiner whose whole neighborhood shares one color.
    let mut net = Network::new(10.0);
    let mut ids = Vec::new();
    for k in 0..6 {
        let angle = k as f64 * std::f64::consts::TAU / 6.0;
        let p = Point::new(50.0 + 8.0 * angle.cos(), 50.0 + 8.0 * angle.sin());
        ids.push(net.join(NodeConfig::new(p, 9.0)));
    }
    // All spokes pairwise in range → must check colors are legal first;
    // give them distinct colors, then a saturated instance via ranges.
    for (i, &s) in ids.iter().enumerate() {
        net.set_color(s, Color::new(i as u32 + 1));
    }
    if net.validate().is_ok() {
        let cfg = NodeConfig::new(Point::new(50.0, 50.0), 9.0);
        minim.apply(&mut net, &Event::Join { cfg });
        assert!(net.validate().is_ok());
    }
}

/// Fact 4.1.3 — no two members of the recode set share a new color.
#[test]
fn fact_4_1_3_recode_set_colors_are_distinct() {
    for seed in 20..30 {
        let (mut net, mut rng) = random_net(25, seed);
        let mut minim = Minim::default();
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 20.5, 30.5),
        );
        let id = minim.apply(&mut net, &Event::Join { cfg }).0.node();
        let set = net.recode_set(id);
        let mut colors: Vec<Color> = set
            .iter()
            .map(|&u| net.assignment().get(u).expect("set members colored"))
            .collect();
        colors.sort_unstable();
        colors.dedup();
        assert_eq!(colors.len(), set.len(), "seed {seed}: duplicate in set");
    }
}

/// Theorem 4.1.4 (Correctness of RecodeOnJoin) — CA1/CA2 after joins.
#[test]
fn theorem_4_1_4_join_correctness() {
    let (net, _) = random_net(60, 40);
    assert!(net.validate().is_ok());
}

/// Lemma 4.1.6 — every member of `1n ∪ 2n` can keep its old color with
/// respect to nodes outside the recode set: the join adds no external
/// constraints on them.
#[test]
fn lemma_4_1_6_members_stay_externally_consistent() {
    for seed in 50..60 {
        let (mut net, mut rng) = random_net(25, seed);
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 20.5, 30.5),
        );
        let id = net.next_id();
        net.insert_node(id, cfg); // topology applied, nothing recoded
        let set = net.recode_set(id);
        for &u in &set {
            if u == id {
                continue;
            }
            let old = net.assignment().get(u).expect("pre-join coloring complete");
            let external: Vec<Color> = conflict::conflicts_of(net.graph(), u)
                .into_iter()
                .filter(|p| set.binary_search(p).is_err())
                .filter_map(|p| net.assignment().get(p))
                .collect();
            assert!(
                !external.contains(&old),
                "seed {seed}: {u} lost external consistency by the join"
            );
        }
    }
}

/// Theorem 4.1.8 (Minimality) — Minim joins hit the bound exactly.
#[test]
fn theorem_4_1_8_join_minimality() {
    for seed in 70..85 {
        let (base, mut rng) = random_net(30, seed);
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 20.5, 30.5),
        );
        let mut probe = base.clone();
        let id = probe.next_id();
        probe.insert_node(id, cfg);
        let bound = bounds::minimal_bound_join(&probe, id);
        let mut net = base.clone();
        let mut minim = Minim::default();
        let out = minim.apply(&mut net, &Event::Join { cfg }).1;
        assert_eq!(out.recodings(), bound, "seed {seed}");
    }
}

/// Theorem 4.1.9 (Optimality among minimality) — covered exhaustively
/// in `tests/optimality.rs`; here the cheap structural consequence:
/// fresh colors are consecutive past the vicinity max.
#[test]
fn theorem_4_1_9_fresh_colors_are_consecutive() {
    for seed in 90..100 {
        let (mut net, mut rng) = random_net(30, seed);
        let mut minim = Minim::default();
        let pre_max = net.max_color_index();
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 20.5, 30.5),
        );
        let out = minim.apply(&mut net, &Event::Join { cfg }).1;
        let mut fresh: Vec<u32> = out
            .recoded
            .iter()
            .map(|&(_, _, c)| c.index())
            .filter(|&c| c > pre_max)
            .collect();
        fresh.sort_unstable();
        for w in fresh.windows(2) {
            assert_eq!(
                w[1],
                w[0] + 1,
                "seed {seed}: fresh colors must be consecutive"
            );
        }
    }
}

/// Theorem 4.1.10 — parallel joins ≥ 5 hops apart are safe; < 5 hops
/// are rejected (and genuinely unsafe, see the proto counterexample).
#[test]
fn theorem_4_1_10_parallel_joins() {
    // Chain with two far-apart joiners: accepted and valid.
    let mut net = Network::new(10.0);
    let mut minim = Minim::default();
    for i in 0..14 {
        let cfg = NodeConfig::new(Point::new(i as f64 * 6.0, 0.0), 7.0);
        minim.apply(&mut net, &Event::Join { cfg });
    }
    let ok = parallel_minim_joins(
        &mut net,
        &[
            (NodeId(100), NodeConfig::new(Point::new(0.0, 6.0), 7.0)),
            (NodeId(101), NodeConfig::new(Point::new(78.0, 6.0), 7.0)),
        ],
    );
    assert!(ok.is_ok());
    assert!(net.validate().is_ok());

    // Two joiners near the same relay: rejected with the hop count.
    let err = parallel_minim_joins(
        &mut net,
        &[
            (NodeId(200), NodeConfig::new(Point::new(36.0, 6.0), 7.0)),
            (NodeId(201), NodeConfig::new(Point::new(36.0, -6.0), 7.0)),
        ],
    )
    .unwrap_err();
    let ParallelJoinError::TooClose { hops, .. } = err;
    assert!(hops < 5);
}

/// Theorems 4.2.1–4.2.3 — power increase terminates, stays correct,
/// and recodes at most the initiator (= the bound).
#[test]
fn theorems_4_2_power_increase() {
    for seed in 110..125 {
        let (mut net, mut rng) = random_net(30, seed);
        let mut minim = Minim::default();
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let r = net.config(victim).unwrap().range;
        let factor = rng.gen_range(1.5..4.0);
        let mut probe = net.clone();
        probe.set_range(victim, r * factor);
        let bound = bounds::minimal_bound_pow_increase(&probe, victim);
        let range = r * factor;
        let out = minim
            .apply(
                &mut net,
                &Event::SetRange {
                    node: victim,
                    range,
                },
            )
            .1;
        assert!(net.validate().is_ok(), "4.2.2 correctness");
        assert_eq!(out.recodings(), bound, "4.2.3 minimality");
        assert!(out.recoded.iter().all(|&(n, _, _)| n == victim));
    }
}

/// Theorems 4.3.1–4.3.4 — leaves and power decreases are free and
/// correct.
#[test]
fn theorems_4_3_leave_and_decrease() {
    let (mut net, mut rng) = random_net(30, 130);
    let mut minim = Minim::default();
    for _ in 0..10 {
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        if rng.gen_bool(0.5) {
            let out = minim.apply(&mut net, &Event::Leave { node: victim }).1;
            assert_eq!(out.recodings(), bounds::minimal_bound_leave_or_decrease());
        } else {
            let r = net.config(victim).unwrap().range;
            let range = r * 0.5;
            let out = minim
                .apply(
                    &mut net,
                    &Event::SetRange {
                        node: victim,
                        range,
                    },
                )
                .1;
            assert_eq!(out.recodings(), 0);
        }
        assert!(net.validate().is_ok());
    }
}

/// Theorem 4.4.1 — move ≡ leave + immediate join (old color
/// remembered): identical final assignments.
#[test]
fn theorem_4_4_1_move_decomposition() {
    for seed in 140..150 {
        let (net0, mut rng) = random_net(20, seed);
        let ids = net0.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let cfg = net0.config(victim).unwrap();
        let to = sample::random_move(&mut rng, cfg.pos, 40.0, &Rect::paper_arena());

        let mut via_move = net0.clone();
        let mut minim = Minim::default();
        minim.apply(&mut via_move, &Event::Move { node: victim, to });

        // leave + join with memory, built from public API only: the
        // "immediate" rejoin knows its old color.
        let mut via_leave_join = net0.clone();
        let old_color = via_leave_join.assignment().get(victim);
        minim.apply(&mut via_leave_join, &Event::Leave { node: victim });
        via_leave_join.insert_node(victim, NodeConfig::new(to, cfg.range));
        if let Some(c) = old_color {
            via_leave_join.assignment_mut().set(victim, c);
        }
        // Re-run the move recode machinery via a zero-displacement move.
        minim.apply(&mut via_leave_join, &Event::Move { node: victim, to });

        assert_eq!(
            via_move.snapshot_assignment(),
            via_leave_join.snapshot_assignment(),
            "seed {seed}"
        );
    }
}

/// Theorems 4.4.2–4.4.4 — moves terminate, stay correct, and hit the
/// move bound exactly.
#[test]
fn theorems_4_4_move_properties() {
    for seed in 160..175 {
        let (mut net, mut rng) = random_net(25, seed);
        let mut minim = Minim::default();
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let to = sample::random_move(
            &mut rng,
            net.config(victim).unwrap().pos,
            40.0,
            &Rect::paper_arena(),
        );
        let mut probe = net.clone();
        probe.move_node(victim, to);
        let bound = bounds::minimal_bound_move(&probe, victim);
        let out = minim.apply(&mut net, &Event::Move { node: victim, to }).1;
        assert!(net.validate().is_ok(), "4.4.3 correctness");
        assert_eq!(out.recodings(), bound, "4.4.4 minimality, seed {seed}");
    }
}
