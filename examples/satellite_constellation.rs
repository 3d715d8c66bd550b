//! Satellite constellation scenario — the paper's other §1 critical
//! example: "networks formed on the fly by satellite constellations".
//!
//! Satellites on two orbital rings drift continuously; ground stations
//! join underneath. Ring motion is deterministic (not random walks), so
//! this exercises `RecodeOnMove` under *correlated* mobility, and the
//! well-separated ground stations come up simultaneously through the
//! Theorem 4.1.10 parallel-join API.
//!
//! ```text
//! cargo run --release --example satellite_constellation
//! ```

use minim::core::{Minim, RecodingStrategy};
use minim::geom::Point;
use minim::graph::NodeId;
use minim::net::event::Event;
use minim::net::{Network, NodeConfig};
use minim::proto::parallel_minim_joins;

const RING_A: usize = 8;
const RING_B: usize = 8;

fn ring_position(center: Point, radius: f64, k: usize, count: usize, phase: f64) -> Point {
    let angle = phase + k as f64 * std::f64::consts::TAU / count as f64;
    Point::new(
        center.x + radius * angle.cos(),
        center.y + radius * angle.sin(),
    )
}

fn main() {
    let mut net = Network::new(20.0);
    let mut minim = Minim::default();
    let center = Point::new(50.0, 50.0);

    // Launch the two rings (inner ring talks farther).
    let mut ring_a = Vec::new();
    for k in 0..RING_A {
        let cfg = NodeConfig::new(ring_position(center, 18.0, k, RING_A, 0.0), 16.0);
        let id = minim.apply(&mut net, &Event::Join { cfg }).0.node();
        ring_a.push(id);
    }
    let mut ring_b = Vec::new();
    for k in 0..RING_B {
        let cfg = NodeConfig::new(ring_position(center, 34.0, k, RING_B, 0.2), 15.0);
        let id = minim.apply(&mut net, &Event::Join { cfg }).0.node();
        ring_b.push(id);
    }
    assert!(net.validate().is_ok());
    println!(
        "constellation up: {} satellites, max code index {}",
        net.node_count(),
        net.max_color_index()
    );

    // Orbit: ring A drifts clockwise, ring B counter-clockwise; every
    // tick each satellite is one RecodeOnMove event.
    let mut total_recodings = 0usize;
    for tick in 1..=12 {
        let phase_a = tick as f64 * 0.15;
        let phase_b = 0.2 - tick as f64 * 0.1;
        for (k, &id) in ring_a.iter().enumerate() {
            let to = ring_position(center, 18.0, k, RING_A, phase_a);
            let out = minim.apply(&mut net, &Event::Move { node: id, to }).1;
            total_recodings += out.recodings();
        }
        for (k, &id) in ring_b.iter().enumerate() {
            let to = ring_position(center, 34.0, k, RING_B, phase_b);
            let out = minim.apply(&mut net, &Event::Move { node: id, to }).1;
            total_recodings += out.recodings();
        }
        assert!(net.validate().is_ok(), "tick {tick} broke CA1/CA2");
    }
    println!(
        "12 orbital ticks ({} move events): {} recodings, max code index {}",
        12 * (RING_A + RING_B),
        total_recodings,
        net.max_color_index()
    );

    // Two ground stations power up simultaneously at opposite corners —
    // far enough apart (>= 5 hops) for the Theorem 4.1.10 parallel join.
    let g1 = NodeId(1000);
    let g2 = NodeId(1001);
    let cfg1 = NodeConfig::new(Point::new(2.0, 2.0), 10.0);
    let cfg2 = NodeConfig::new(Point::new(98.0, 98.0), 10.0);
    match parallel_minim_joins(&mut net, &[(g1, cfg1), (g2, cfg2)]) {
        Ok(outcomes) => {
            println!(
                "parallel ground-station joins: {} and {} recodings, still valid = {}",
                outcomes[0].recodings(),
                outcomes[1].recodings(),
                net.validate().is_ok()
            );
        }
        Err(e) => println!("parallel join rejected: {e}"),
    }
    assert!(net.validate().is_ok());
    println!(
        "final network: {} nodes, {} codes",
        net.node_count(),
        net.max_color_index()
    );
}
