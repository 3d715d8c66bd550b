//! Cross-crate invariant tests: the theorems of Appendices A–D checked
//! over long randomized event sequences, for every strategy, plus
//! failure injection against the validators.

use minim::core::{bounds, gossip::GossipCompactor, Minim, RecodingStrategy, StrategyKind};
use minim::geom::{sample, Point, Rect};
use minim::graph::{conflict, Color};
use minim::net::event::Event;
use minim::net::{Network, NodeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives `steps` random events with the given strategy, asserting
/// CA1/CA2 after every single event (Correctness theorems 4.1.4,
/// 4.2.2, 4.3.2, 4.4.3) and that the incremental topology matches a
/// from-scratch rebuild.
fn churn(kind: StrategyKind, steps: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut strategy = kind.build();
    let mut net = Network::new(25.0);
    let arena = Rect::paper_arena();
    for step in 0..steps {
        let roll: f64 = rng.gen();
        if net.node_count() < 4 || roll < 0.35 {
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                sample::uniform_range(&mut rng, 12.0, 32.0),
            );
            strategy.apply(&mut net, &Event::Join { cfg });
        } else {
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            if roll < 0.5 {
                strategy.apply(&mut net, &Event::Leave { node: victim });
            } else if roll < 0.75 {
                let to =
                    sample::random_move(&mut rng, net.config(victim).unwrap().pos, 35.0, &arena);
                strategy.apply(&mut net, &Event::Move { node: victim, to });
            } else {
                let r = net.config(victim).unwrap().range;
                let range = r * rng.gen_range(0.4..2.5);
                strategy.apply(
                    &mut net,
                    &Event::SetRange {
                        node: victim,
                        range,
                    },
                );
            }
        }
        assert!(
            net.validate().is_ok(),
            "{} step {step}: CA1/CA2 violated",
            strategy.name()
        );
    }
    net.check_topology();
}

#[test]
fn minim_survives_long_churn() {
    churn(StrategyKind::Minim, 400, 1);
}

#[test]
fn cp_survives_long_churn() {
    churn(StrategyKind::Cp, 400, 2);
}

#[test]
fn bbb_survives_long_churn() {
    churn(StrategyKind::Bbb, 150, 3);
}

/// Minimality theorems: for every event in a random sequence, Minim's
/// recoding count equals the instance lower bound computed on the
/// post-topology, pre-recode state.
#[test]
fn minim_attains_every_per_event_bound() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut minim = Minim::default();
    let mut net = Network::new(25.0);
    let arena = Rect::paper_arena();
    // Grow a base first.
    for _ in 0..30 {
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &arena),
            sample::uniform_range(&mut rng, 15.0, 30.0),
        );
        minim.apply(&mut net, &Event::Join { cfg });
    }
    for _ in 0..120 {
        let roll: f64 = rng.gen();
        if roll < 0.3 {
            // Join: bound via a probe network with the node inserted.
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                sample::uniform_range(&mut rng, 15.0, 30.0),
            );
            let id = net.peek_next_id();
            let mut probe = net.clone();
            probe.insert_node(id, cfg);
            let bound = bounds::minimal_bound_join(&probe, id);
            let out = minim.apply(&mut net, &Event::Join { cfg }).1;
            assert_eq!(out.recodings(), bound, "join bound");
        } else if roll < 0.6 {
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let to = sample::random_move(&mut rng, net.config(victim).unwrap().pos, 40.0, &arena);
            let mut probe = net.clone();
            probe.move_node(victim, to);
            let bound = bounds::minimal_bound_move(&probe, victim);
            let out = minim.apply(&mut net, &Event::Move { node: victim, to }).1;
            assert_eq!(out.recodings(), bound, "move bound");
        } else if roll < 0.85 {
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let r = net.config(victim).unwrap().range;
            let factor = rng.gen_range(1.1..3.0);
            let mut probe = net.clone();
            probe.set_range(victim, r * factor);
            let bound = bounds::minimal_bound_pow_increase(&probe, victim);
            let out = minim
                .apply(
                    &mut net,
                    &Event::SetRange {
                        node: victim,
                        range: r * factor,
                    },
                )
                .1;
            assert_eq!(out.recodings(), bound, "power-increase bound");
        } else {
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
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
            assert_eq!(
                out.recodings(),
                bounds::minimal_bound_leave_or_decrease(),
                "decrease bound"
            );
        }
        assert!(net.validate().is_ok());
    }
}

/// No strategy ever beats the minimal bound on a *paired* event — the
/// bound really is a lower bound for any correct recoding.
#[test]
fn no_strategy_beats_the_minimal_bound() {
    let mut rng = StdRng::seed_from_u64(20);
    for trial in 0..15 {
        // Shared base built by Minim.
        let mut base = Network::new(25.0);
        let mut builder = Minim::default();
        for _ in 0..25 {
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &Rect::paper_arena()),
                sample::uniform_range(&mut rng, 15.0, 30.0),
            );
            builder.apply(&mut base, &Event::Join { cfg });
        }
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 15.0, 30.0),
        );
        let mut probe = base.clone();
        let id = probe.next_id();
        probe.insert_node(id, cfg);
        let bound = bounds::minimal_bound_join(&probe, id);
        for kind in StrategyKind::ALL {
            let mut net = base.clone();
            let mut s = kind.build();
            let (applied, out) = s.apply(&mut net, &Event::Join { cfg });
            assert_eq!(applied.node(), id);
            assert!(
                out.recodings() >= bound,
                "trial {trial}: {} recoded {} < bound {bound}",
                s.name(),
                out.recodings()
            );
            assert!(net.validate().is_ok());
        }
    }
}

/// Failure injection: the validators must catch corrupted assignments.
#[test]
fn validators_catch_injected_corruption() {
    let mut rng = StdRng::seed_from_u64(30);
    let mut minim = Minim::default();
    let mut net = Network::new(25.0);
    for _ in 0..40 {
        let cfg = NodeConfig::new(
            sample::uniform_point(&mut rng, &Rect::paper_arena()),
            sample::uniform_range(&mut rng, 20.5, 30.5),
        );
        minim.apply(&mut net, &Event::Join { cfg });
    }
    assert!(net.validate().is_ok());

    let mut caught = 0;
    for _ in 0..50 {
        let mut corrupted = net.clone();
        let ids = corrupted.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        // Overwrite with a random neighbor's color (guaranteed CA1
        // violation when a link exists in either direction).
        let neighbors = corrupted.graph().undirected_neighbors(victim);
        if neighbors.is_empty() {
            continue;
        }
        let donor = neighbors[rng.gen_range(0..neighbors.len())];
        let donor_color = corrupted.assignment().get(donor).unwrap();
        corrupted.set_color(victim, donor_color);
        let violations = conflict::violations(corrupted.graph(), corrupted.assignment());
        assert!(
            !violations.is_empty(),
            "copying {donor}'s color onto adjacent {victim} must violate"
        );
        assert!(corrupted.validate().is_err());
        caught += 1;
    }
    assert!(caught > 30, "test exercised too few corruption cases");
}

/// Uncolored nodes are invalid; removing a node cures its violations.
#[test]
fn uncolored_and_removed_nodes() {
    let mut net = Network::new(10.0);
    let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 8.0));
    let b = net.join(NodeConfig::new(Point::new(5.0, 0.0), 8.0));
    net.set_color(a, Color::new(1));
    assert!(matches!(
        net.validate(),
        Err(conflict::Violation::Uncolored(x)) if x == b
    ));
    net.remove_node(b);
    assert!(net.validate().is_ok());
}

/// The gossip compactor composes with every strategy: after arbitrary
/// churn plus compaction, validity holds and the max color index never
/// grows.
#[test]
fn gossip_composes_with_all_strategies() {
    for (i, kind) in StrategyKind::ALL.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(40 + i as u64);
        let mut strategy = kind.build();
        let mut net = Network::new(25.0);
        for _ in 0..30 {
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &Rect::paper_arena()),
                sample::uniform_range(&mut rng, 15.0, 30.0),
            );
            strategy.apply(&mut net, &Event::Join { cfg });
        }
        let before = net.max_color_index();
        let stats = GossipCompactor.run(&mut net, 100);
        assert!(net.validate().is_ok(), "{}", strategy.name());
        assert!(stats.max_color_after <= before);
        // And the network remains usable by the strategy afterwards.
        let cfg = NodeConfig::new(Point::new(50.0, 50.0), 25.0);
        strategy.apply(&mut net, &Event::Join { cfg });
        assert!(net.validate().is_ok());
    }
}

/// Determinism: identical seeds produce identical outcomes, different
/// seeds (almost surely) different ones.
#[test]
fn strategies_are_deterministic() {
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut minim = Minim::default();
        let mut net = Network::new(25.0);
        for _ in 0..30 {
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &Rect::paper_arena()),
                sample::uniform_range(&mut rng, 20.5, 30.5),
            );
            minim.apply(&mut net, &Event::Join { cfg });
        }
        net
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.snapshot_assignment(), b.snapshot_assignment());
    let c = run(8);
    assert_ne!(a.snapshot_assignment(), c.snapshot_assignment());
}
