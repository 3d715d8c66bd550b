//! Battlefield scenario — the paper's §1 critical use case: "networks
//! formed on the fly by satellite constellations, on the battlefield
//! etc.", where "frequent recoding might be costly ... hard real-time
//! applications".
//!
//! Two squads deploy as tight clusters, advance under correlated
//! movement, and their leaders periodically boost transmit power to
//! reach HQ (the paper's power-control events). Since the scenario-lab
//! refactor the campaign is a declarative [`ScenarioSpec`] — a
//! clustered deployment base, then movement + power-raise phases,
//! sweeping the boost factor — while the Theorem 4.2.3 guarantee (a
//! power boost recodes at most the booster under Minim) is still
//! demonstrated explicitly on the direct API at the end.
//!
//! ```text
//! cargo run --release --example battlefield
//! ```

use minim::core::{Cp, Minim, RecodingStrategy};
use minim::geom::Point;
use minim::net::event::Event;
use minim::net::workload::RangeDist;
use minim::net::{Network, NodeConfig};
use minim::sim::scenario::{Measure, PhaseSpec, Scenario, ScenarioSpec, SweepAxis, TopologyFamily};

fn main() {
    // The campaign, declared: two squad clusters of short-range
    // radios, four advance waves, then ~15% of the force (the squad
    // leaders) boost their range by the swept factor.
    let spec = ScenarioSpec::new("battlefield-advance")
        .summary("two squads advance; leaders boost power to reach HQ, sweep the boost")
        .topology(TopologyFamily::Clustered {
            clusters: 2,
            spread: 4.0,
        })
        .ranges(RangeDist::Interval {
            minr: 8.0,
            maxr: 10.0,
        })
        .base_phase(PhaseSpec::Join { count: 13 })
        .measured_phase(PhaseSpec::Movement {
            rounds: 4,
            maxdisp: 8.0,
        })
        .measured_phase(PhaseSpec::PowerRaise {
            fraction: 0.15,
            factor: 3.0,
        })
        .measure(Measure::DeltaFromBase)
        .sweep(SweepAxis::RaiseFactor(vec![1.5, 3.0, 4.5]))
        .runs(8)
        .seed(0x1944);

    let cfg = spec.default_config();
    let result = Scenario::new(spec)
        .expect("the campaign is a valid spec")
        .run(&cfg)
        .expect("the spec asks for 8 replicates");
    let (_, recodings) = result.tables();
    println!("{}", recodings.render());
    println!(
        "Each row: 4 advance waves + a leader power boost at that raisefactor.\n\
         Minim's column is the per-event-minimal recoding bill; BBB re-plans the\n\
         whole force every event — exactly the cost hard real-time traffic cannot pay.\n"
    );

    // The per-event guarantees, demonstrated on the direct API for
    // BOTH local strategies: CA1/CA2 hold after every single event,
    // power decreases are free (Thm 4.3.3), and under Minim a boost
    // recodes at most the booster (Thm 4.2.3).
    for (label, strategy) in [
        ("Minim", &mut Minim::default() as &mut dyn RecodingStrategy),
        ("CP", &mut Cp::default()),
    ] {
        let mut net = Network::new(15.0);
        let mut ids = Vec::new();
        for k in 0..6 {
            let pos = Point::new(30.0 + (k % 2) as f64 * 4.0, 12.0 + (k / 2) as f64 * 5.0);
            let cfg = NodeConfig::new(pos, 9.0);
            let id = strategy.apply(&mut net, &Event::Join { cfg }).0.node();
            assert!(net.validate().is_ok(), "{label}: join broke CA1/CA2");
            ids.push(id);
        }
        // One advance step, validated move by move.
        for &id in &ids {
            let pos = net.config(id).unwrap().pos;
            let to = Point::new(pos.x, pos.y + 4.0);
            strategy.apply(&mut net, &Event::Move { node: id, to });
            assert!(net.validate().is_ok(), "{label}: move broke CA1/CA2");
        }
        let leader = ids[1];
        let out = strategy
            .apply(
                &mut net,
                &Event::SetRange {
                    node: leader,
                    range: 40.0,
                },
            )
            .1;
        assert!(net.validate().is_ok(), "{label}: boost broke CA1/CA2");
        if label == "Minim" {
            assert!(out.recodings() <= 1, "Thm 4.2.3: boost recodes <= 1");
            assert!(out.recoded.iter().all(|&(n, _, _)| n == leader));
            println!(
                "leader power boost under Minim recoded {} node(s) (Thm 4.2.3: <= 1); \
                 affected: {:?}",
                out.recodings(),
                out.recoded.iter().map(|(n, _, _)| *n).collect::<Vec<_>>()
            );
        }
        let drop = strategy
            .apply(
                &mut net,
                &Event::SetRange {
                    node: leader,
                    range: 9.0,
                },
            )
            .1;
        assert_eq!(drop.recodings(), 0, "{label}: power decrease must be free");
        assert!(net.validate().is_ok());
        println!("{label}: every event validated, dropping power recoded 0 (Thm 4.3.3)");
    }
}
