//! Quickstart: build a small ad-hoc network, let Minim keep the CDMA
//! code assignment collision-free through joins, a move, a power
//! increase, and a leave.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use minim::core::{bounds, Minim, RecodingStrategy};
use minim::geom::Point;
use minim::net::event::Event;
use minim::net::{Network, NodeConfig};

fn print_state(net: &Network, what: &str) {
    println!("--- after {what} ---");
    for (id, pos, range, color) in net.describe() {
        println!(
            "  {id}: pos=({:.1},{:.1}) range={range:.1} code={}",
            pos.x,
            pos.y,
            color.map_or("-".to_string(), |c| c.to_string())
        );
    }
    println!(
        "  max code index = {}, CA1/CA2 valid = {}",
        net.max_color_index(),
        net.validate().is_ok()
    );
}

fn main() {
    let mut net = Network::new(10.0);
    let mut minim = Minim::default();

    // Five mobiles power up one after the other along a line; each join
    // triggers RecodeOnJoin, which recodes the provable minimum number
    // of nodes (Lemma 4.1.1).
    for i in 0..5 {
        let cfg = NodeConfig::new(Point::new(i as f64 * 6.0, 0.0), 7.0);
        let (applied, outcome) = minim.apply(&mut net, &Event::Join { cfg });
        let id = applied.node();
        println!(
            "join {id}: {} node(s) recoded {:?}",
            outcome.recodings(),
            outcome
                .recoded
                .iter()
                .map(|(n, old, new)| format!(
                    "{n}:{}→{new}",
                    old.map_or("-".into(), |c| c.to_string())
                ))
                .collect::<Vec<_>>()
        );
    }
    print_state(&net, "5 joins");

    // One mobile drives across the network: RecodeOnMove solves a small
    // maximum-weight bipartite matching and changes as few codes as
    // possible.
    let mover = net.iter_nodes().next().expect("network is populated");
    let to = Point::new(15.0, 4.0);
    let outcome = minim.apply(&mut net, &Event::Move { node: mover, to }).1;
    println!(
        "move {mover}: {} recoded (minimal bound holds by Thm 4.4.4)",
        outcome.recodings()
    );
    print_state(&net, "move");

    // A mobile boosts its transmit power: at most the booster itself is
    // recoded (Thm 4.2.3) — check against the instance lower bound.
    let booster = net.iter_nodes().nth(2).expect("network is populated");
    let before = net.clone();
    let outcome = minim
        .apply(
            &mut net,
            &Event::SetRange {
                node: booster,
                range: 20.0,
            },
        )
        .1;
    let _ = before;
    println!("power-up {booster}: {} recoded", outcome.recodings());
    assert!(outcome.recodings() <= 1);
    print_state(&net, "power increase");

    // Leaving is free (Thm 4.3.3).
    let leaver = net.iter_nodes().nth(1).expect("network is populated");
    let outcome = minim.apply(&mut net, &Event::Leave { node: leaver }).1;
    assert_eq!(outcome.recodings(), 0);
    print_state(&net, "leave");

    // The minimal-bound calculators are public — sanity-check a fresh
    // join against Lemma 4.1.1.
    let cfg = NodeConfig::new(Point::new(12.0, 2.0), 7.0);
    let id = net.peek_next_id();
    let mut probe = net.clone();
    probe.insert_node(id, cfg);
    let bound = bounds::minimal_bound_join(&probe, id);
    let outcome = minim.apply(&mut net, &Event::Join { cfg }).1;
    println!(
        "final join {id}: recoded {} (instance lower bound {bound})",
        outcome.recodings()
    );
    assert_eq!(outcome.recodings(), bound);
    assert!(net.validate().is_ok());
    println!(
        "done: assignment valid, {} codes in use",
        net.max_color_index()
    );
}
