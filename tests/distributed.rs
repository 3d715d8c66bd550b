//! Cross-crate distributed-vs-centralized tests: growing a network
//! purely through the message-passing protocols must coincide with the
//! centralized strategies, and the message bill must stay local.

use minim::core::{Cp, Minim, RecodingStrategy};
use minim::geom::{sample, Point, Rect};
use minim::graph::NodeId;
use minim::net::event::Event;
use minim::net::{Network, NodeConfig};
use minim::proto::{distributed_cp_join, distributed_minim_join, parallel_minim_joins};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_cfg(rng: &mut StdRng) -> NodeConfig {
    NodeConfig::new(
        sample::uniform_point(rng, &Rect::paper_arena()),
        sample::uniform_range(rng, 20.5, 30.5),
    )
}

/// Grow a 40-node network twice — once with centralized Minim joins,
/// once with the distributed protocol — and require identical
/// assignments after every single event.
#[test]
fn distributed_minim_growth_equals_centralized() {
    let mut rng = StdRng::seed_from_u64(1);
    let cfgs: Vec<NodeConfig> = (0..40).map(|_| random_cfg(&mut rng)).collect();

    let mut net_c = Network::new(30.5);
    let mut net_d = Network::new(30.5);
    let mut minim = Minim::default();
    let mut total_msgs = 0;
    for cfg in &cfgs {
        let id_c = minim.apply(&mut net_c, &Event::Join { cfg: *cfg }).0.node();
        let id_d = net_d.next_id();
        let (_, metrics) = distributed_minim_join(&mut net_d, id_d, *cfg);
        total_msgs += metrics.messages;
        assert_eq!(
            net_c.snapshot_assignment(),
            net_d.snapshot_assignment(),
            "divergence at node {id_c}"
        );
    }
    assert!(net_d.validate().is_ok());
    // Locality: total messages are O(sum of degrees), far below
    // N per event (naive flooding would cost ~N per join → 1600).
    println!("distributed Minim growth used {total_msgs} messages");
    assert!(total_msgs < 40 * 40, "messaging must stay event-local");
}

#[test]
fn distributed_cp_growth_equals_centralized() {
    let mut rng = StdRng::seed_from_u64(2);
    let cfgs: Vec<NodeConfig> = (0..40).map(|_| random_cfg(&mut rng)).collect();

    let mut net_c = Network::new(30.5);
    let mut net_d = Network::new(30.5);
    let mut cp = Cp::default();
    for cfg in &cfgs {
        let id_c = cp.apply(&mut net_c, &Event::Join { cfg: *cfg }).0.node();
        let id_d = net_d.next_id();
        distributed_cp_join(&mut net_d, id_d, *cfg);
        assert_eq!(
            net_c.snapshot_assignment(),
            net_d.snapshot_assignment(),
            "divergence at node {id_c}"
        );
    }
    assert!(net_d.validate().is_ok());
}

/// Theorem 4.1.10 at integration level: a batch of well-separated
/// simultaneous joins lands in a valid state identical to sequential
/// execution, and mixing in centralized events afterwards works.
#[test]
fn parallel_joins_then_centralized_events() {
    // A sparse line of relays so hop distances are meaningful.
    let mut net = Network::new(10.0);
    let mut minim = Minim::default();
    for i in 0..16 {
        let cfg = NodeConfig::new(Point::new(i as f64 * 6.0, 0.0), 7.0);
        minim.apply(&mut net, &Event::Join { cfg });
    }
    let joins = [
        (NodeId(100), NodeConfig::new(Point::new(0.0, 6.0), 7.0)),
        (NodeId(101), NodeConfig::new(Point::new(45.0, 6.0), 7.0)),
        (NodeId(102), NodeConfig::new(Point::new(90.0, 6.0), 7.0)),
    ];
    let outcomes = parallel_minim_joins(&mut net, &joins).expect("separated by >= 5 hops");
    assert_eq!(outcomes.len(), 3);
    assert!(net.validate().is_ok());

    // The network remains fully usable by the ordinary strategy.
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let to = sample::random_move(
            &mut rng,
            net.config(victim).unwrap().pos,
            10.0,
            &Rect::paper_arena(),
        );
        minim.apply(&mut net, &Event::Move { node: victim, to });
        assert!(net.validate().is_ok());
    }
}

/// Message locality under growth: the per-join message cost depends on
/// the joiner's neighborhood size, not on the network size.
#[test]
fn message_cost_tracks_degree_not_network_size() {
    let mut costs = Vec::new();
    for &n in &[30usize, 90] {
        let mut rng = StdRng::seed_from_u64(4);
        // Cluster the population on the right half; probe join on the
        // far left with a fixed small neighborhood (empty).
        let mut net = Network::new(20.0);
        let arena = Rect::new(60.0, 0.0, 100.0, 100.0);
        let mut minim = Minim::default();
        for _ in 0..n {
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                sample::uniform_range(&mut rng, 10.0, 15.0),
            );
            minim.apply(&mut net, &Event::Join { cfg });
        }
        let id = net.next_id();
        let (_, metrics) =
            distributed_minim_join(&mut net, id, NodeConfig::new(Point::new(5.0, 5.0), 8.0));
        costs.push(metrics.messages);
        assert!(net.validate().is_ok());
    }
    assert_eq!(
        costs[0], costs[1],
        "an isolated joiner costs the same in a 30- and a 90-node network"
    );
}
