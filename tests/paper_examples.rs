//! The paper's worked micro-examples (Figs 1, 4, 6, 7, 9), encoded as
//! explicit instances.
//!
//! The paper's drawings do not pin down coordinates, so each test
//! reconstructs the *constraint structure* the figure describes (the
//! bipartite instance of Fig 4(b) is reproduced literally) and checks
//! the published outcomes: recoding counts, fresh-color choices, and
//! max color indices.

use minim::core::{bounds, plan_recode, Cp, Minim, RecodingStrategy, KEEP_WEIGHT};
use minim::geom::Point;
use minim::graph::{conflict, Color, NodeId};
use minim::net::event::Event;
use minim::net::{network_from_configs, Network, NodeConfig};

fn c(i: u32) -> Color {
    Color::new(i)
}

/// Fig 1: a 4-node chain network where the optimal TOCA assignment is
/// (1, 2, 3, 1) — node 4 reuses color 1.
#[test]
fn fig1_chain_admits_the_published_optimal_assignment() {
    // Chain 1 <-> 2 <-> 3 <-> 4 with gap 6, range 7 (< 12 so no
    // skip-links).
    let mut net = network_from_configs(
        10.0,
        &[
            (Point::new(0.0, 0.0), 7.0),
            (Point::new(6.0, 0.0), 7.0),
            (Point::new(12.0, 0.0), 7.0),
            (Point::new(18.0, 0.0), 7.0),
        ],
    );
    net.set_color(NodeId(0), c(1));
    net.set_color(NodeId(1), c(2));
    net.set_color(NodeId(2), c(3));
    net.set_color(NodeId(3), c(1));
    assert!(net.validate().is_ok(), "the paper's Fig 1(c) assignment");

    // And 3 colors is optimal: nodes 0 and 2 collide at receiver 1, so
    // {0,1,2} is a conflict triangle.
    let (ug, _) = conflict::conflict_graph(net.graph());
    assert!(ug.max_clique_exact() >= 3);
}

/// Fig 4(b): the exact bipartite instance of the join example.
///
/// Node 8 joins; `1n ∪ 2n = {1, 2, 3, 6, 7}` with old colors
/// (2, 3, 1, 1, 2) and external constraints barring 6 from {2,3},
/// 7 from {1,3}, and 8 from {1,2,3}. The published outcome: exactly 3
/// recodings, the three losers taking fresh colors 4, 5, 6 in order,
/// and max color 6.
#[test]
fn fig4_join_matching_instance_reproduces_published_counts() {
    // Set order (sorted by id): 1, 2, 3, 6, 7, 8(=joiner, uncolored).
    let old = vec![
        Some(c(2)),
        Some(c(3)),
        Some(c(1)),
        Some(c(1)),
        Some(c(2)),
        None,
    ];
    let forbidden = vec![
        vec![],
        vec![],
        vec![],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3],
    ];
    let plan = plan_recode(&old, &forbidden, KEEP_WEIGHT);

    // Recodings: entries whose plan differs from their old color.
    let recodings = plan
        .iter()
        .zip(&old)
        .filter(|(p, o)| Some(**p) != **o)
        .count();
    assert_eq!(recodings, 3, "the paper reports 3 recodings for Minim");

    // One member of each duplicate class keeps its color (Thm 4.1.8).
    let kept_1 = (plan[2] == c(1)) ^ (plan[3] == c(1));
    let kept_2 = (plan[0] == c(2)) ^ (plan[4] == c(2));
    assert!(kept_1, "exactly one of the color-1 nodes keeps color 1");
    assert!(kept_2, "exactly one of the color-2 nodes keeps color 2");
    assert_eq!(plan[1], c(3), "the singleton class keeps its color");

    // The three losers take fresh colors 4, 5, 6 in set order; max = 6.
    let mut fresh: Vec<u32> = plan
        .iter()
        .zip(&old)
        .filter(|(p, o)| Some(**p) != **o)
        .map(|(p, _)| p.index())
        .collect();
    fresh.sort_unstable();
    assert_eq!(fresh, vec![4, 5, 6], "fresh colors max+1..max+3");

    // Lemma 4.1.1 on this instance: ΣK_i − m = 5 − 3 = 2, plus the
    // joiner = 3.
    assert_eq!(recodings, 2 + 1);
}

/// A geometric join with duplicate classes: Minim attains the Lemma
/// 4.1.1 bound while CP (which reselects *all* duplicate members plus
/// the joiner with lowest-available picks) never beats it.
#[test]
fn fig4_style_geometric_join_minim_vs_cp() {
    // Five spokes in n's future in-range, colored with duplicates
    // {1,1,2,2,3}; spokes are pairwise out of range (radius 5 circle,
    // ranges 6: any two spokes are >= 5.8 apart... make the circle
    // bigger to be safe).
    let build = || {
        let mut net = Network::new(10.0);
        let mut ids = Vec::new();
        for k in 0..5 {
            let angle = k as f64 * std::f64::consts::TAU / 5.0;
            let p = Point::new(50.0 + 6.0 * angle.cos(), 50.0 + 6.0 * angle.sin());
            ids.push(net.join(NodeConfig::new(p, 7.0)));
        }
        let colors = [1u32, 1, 2, 2, 3];
        for (&id, &col) in ids.iter().zip(&colors) {
            net.set_color(id, c(col));
        }
        assert!(net.validate().is_ok(), "pre-join duplicates are legal");
        net
    };

    // Minim: bound = (5 colored − 3 classes) + 1 joiner = 3.
    let mut net_m = build();
    let mut minim = Minim::default();
    let joiner = net_m.peek_next_id();
    let cfg = NodeConfig::new(Point::new(50.0, 50.0), 7.0);
    {
        let mut probe = net_m.clone();
        probe.insert_node(joiner, cfg);
        assert_eq!(bounds::minimal_bound_join(&probe, joiner), 3);
    }
    let out_m = minim.apply(&mut net_m, &Event::Join { cfg }).1;
    assert_eq!(out_m.recodings(), 3, "Minim attains the bound exactly");
    assert!(net_m.validate().is_ok());

    // CP on the identical instance.
    let mut net_c = build();
    let mut cp = Cp::default();
    let out_c = cp.apply(&mut net_c, &Event::Join { cfg }).1;
    assert!(net_c.validate().is_ok());
    assert!(
        out_c.recodings() >= out_m.recodings(),
        "CP ({}) must not beat the minimal bound ({})",
        out_c.recodings(),
        out_m.recodings()
    );
}

/// Fig 6: a power increase that creates constraints {1,2,3} for a node
/// holding color 3 — Minim recodes only the initiator, to color 4.
#[test]
fn fig6_power_increase_recodes_initiator_to_lowest_free_color() {
    let mut net = Network::new(10.0);
    let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 3.0));
    let b = net.join(NodeConfig::new(Point::new(10.0, 0.0), 3.0));
    let d = net.join(NodeConfig::new(Point::new(20.0, 0.0), 3.0));
    let n = net.join(NodeConfig::new(Point::new(30.0, 0.0), 3.0));
    net.set_color(a, c(1));
    net.set_color(b, c(2));
    net.set_color(d, c(3));
    net.set_color(n, c(3)); // legal while isolated
    assert!(net.validate().is_ok());

    let mut minim = Minim::default();
    let out = minim
        .apply(
            &mut net,
            &Event::SetRange {
                node: n,
                range: 30.0,
            },
        )
        .1; // n now reaches a, b, d
    assert!(net.validate().is_ok());
    assert_eq!(out.recodings(), 1, "Fig 6: Minim causes exactly 1 recoding");
    assert_eq!(out.recoded[0].0, n, "only the initiator changes");
    assert_eq!(
        net.assignment().get(n),
        Some(c(4)),
        "lowest color above constraints {{1,2,3}}"
    );
    assert_eq!(net.max_color_index(), 4, "Fig 6: max color index 4");
}

/// Fig 7: decreasing power deletes edges; the old assignment stays
/// valid and nobody is recoded — for every strategy that implements
/// the passive rule (Minim and CP).
#[test]
fn fig7_power_decrease_needs_no_recoding() {
    let build = || {
        let mut net = Network::new(10.0);
        let mut minim = Minim::default();
        for k in 0..7 {
            let p = Point::new((k % 4) as f64 * 8.0, (k / 4) as f64 * 8.0);
            let cfg = NodeConfig::new(p, 12.0);
            minim.apply(&mut net, &Event::Join { cfg });
        }
        net
    };
    for strategy in [
        &mut Minim::default() as &mut dyn RecodingStrategy,
        &mut Cp::default(),
    ] {
        let mut net = build();
        let victim = net.node_ids()[3];
        let r = net.config(victim).unwrap().range;
        let range = r * 0.25;
        let out = strategy
            .apply(
                &mut net,
                &Event::SetRange {
                    node: victim,
                    range,
                },
            )
            .1;
        assert_eq!(out.recodings(), 0, "{}", strategy.name());
        assert!(net.validate().is_ok());
    }
}

/// Fig 9: a move where the mover's old color survives at the new
/// location (weight-3 keep-edge) versus one where it is blocked and
/// the mover takes a fresh color — the paper's example recodes exactly
/// one node (the mover, 3 → 4).
#[test]
fn fig9_move_keeps_or_recodes_exactly_the_mover() {
    // Line of three colored nodes; a fourth node far away with color 3.
    let mut net = Network::new(10.0);
    let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 7.0));
    let b = net.join(NodeConfig::new(Point::new(6.0, 0.0), 7.0));
    let d = net.join(NodeConfig::new(Point::new(12.0, 0.0), 7.0));
    let mover = net.join(NodeConfig::new(Point::new(60.0, 0.0), 7.0));
    net.set_color(a, c(1));
    net.set_color(b, c(2));
    net.set_color(d, c(3));
    net.set_color(mover, c(3));
    assert!(net.validate().is_ok());

    // Case 1: the mover lands next to `a` only — color 3 is free there,
    // so RecodeOnMove keeps it: zero recodings.
    let mut net1 = net.clone();
    let mut minim = Minim::default();
    let out = minim
        .apply(
            &mut net1,
            &Event::Move {
                node: mover,
                to: Point::new(-6.0, 0.0),
            },
        )
        .1;
    assert_eq!(out.recodings(), 0, "old color reusable at the destination");
    assert_eq!(net1.assignment().get(mover), Some(c(3)));
    assert!(net1.validate().is_ok());

    // Case 2: the mover lands next to `d` (which holds 3): CA1 blocks
    // its old color; exactly the mover is recoded, to the lowest color
    // legal there — 4, matching the figure's 3 → 4.
    let mut net2 = net.clone();
    let out = minim
        .apply(
            &mut net2,
            &Event::Move {
                node: mover,
                to: Point::new(18.0, 0.0),
            },
        )
        .1;
    assert_eq!(out.recodings(), 1, "Fig 9: exactly one recoding");
    assert_eq!(out.recoded[0].0, mover);
    // At (18,0) the mover hears d (dist 6) and is heard by it; b is 12
    // away (out of range). Constraints: d's color 3 (CA1) and a/b via
    // common receivers? b → d? dist(b,d)=6 → yes b → d, and mover → d:
    // CA2 partners b (color 2). So constraints {2, 3} → lowest free 1.
    assert_eq!(net2.assignment().get(mover), Some(c(1)));
    assert!(net2.validate().is_ok());

    // Case 2b: saturate colors 1..3 at the destination so the mover is
    // pushed to a *fresh* color 4, exactly like the figure.
    let mut net3 = net.clone();
    net3.set_color(a, c(1));
    // Park another node next to d holding color 1 so 1 is blocked too.
    let extra = net3.join(NodeConfig::new(Point::new(18.0, 6.0), 7.0));
    net3.set_color(extra, c(1));
    assert!(net3.validate().is_ok());
    let to = Point::new(18.0, 0.0);
    let out = minim.apply(&mut net3, &Event::Move { node: mover, to }).1;
    assert!(net3.validate().is_ok());
    assert_eq!(out.recodings(), 1);
    assert_eq!(
        net3.assignment().get(mover),
        Some(c(4)),
        "constraints {{1,2,3}} force the fresh color 4, as in Fig 9"
    );
}

/// The running claim of §4.1/Fig 4: Minim and CP end with the same or
/// comparable max color after a join, but Minim recodes fewer nodes —
/// verified on a batch of random star joins.
#[test]
fn join_recoding_comparison_star_batch() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(41);
    let mut minim_total = 0usize;
    let mut cp_total = 0usize;
    for _ in 0..30 {
        let spokes = rng.gen_range(3..8);
        let mut net = Network::new(10.0);
        let mut ids = Vec::new();
        for k in 0..spokes {
            let angle = k as f64 * std::f64::consts::TAU / spokes as f64;
            let p = Point::new(50.0 + 6.0 * angle.cos(), 50.0 + 6.0 * angle.sin());
            ids.push(net.join(NodeConfig::new(p, 7.0)));
        }
        for &id in &ids {
            net.set_color(id, c(rng.gen_range(1..=3)));
        }
        if net.validate().is_err() {
            continue; // random colors occasionally clash pre-join; skip
        }
        let cfg = NodeConfig::new(Point::new(50.0, 50.0), 7.0);
        let mut net_m = net.clone();
        let mut minim = Minim::default();
        minim_total += minim.apply(&mut net_m, &Event::Join { cfg }).1.recodings();
        assert!(net_m.validate().is_ok());

        let mut net_c = net.clone();
        let mut cp = Cp::default();
        cp_total += cp.apply(&mut net_c, &Event::Join { cfg }).1.recodings();
        assert!(net_c.validate().is_ok());
    }
    assert!(
        minim_total <= cp_total,
        "Minim ({minim_total}) must not recode more than CP ({cp_total})"
    );
}
