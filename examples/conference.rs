//! Conference scenario — the paper's §1 motivating example: "an ad-hoc
//! network could be just convenient, such as a conference where members
//! communicate with each other".
//!
//! Attendees stream into a hall (clustering around the talks and the
//! coffee stations), mill about during breaks, and trickle out at the
//! end of the day. Since the scenario-lab refactor this whole day is a
//! declarative [`ScenarioSpec`] — join, movement, and departure phases
//! over a clustered hall topology — rather than a hand-simulated
//! trace: the lab generates one event sequence per replicate and
//! replays it identically through Minim, CP, and BBB, reproducing the
//! tradeoff the paper reports (Minim recodes far less than CP and BBB
//! at the cost of a few extra codes over the global heuristic).
//!
//! ```text
//! cargo run --release --example conference
//! ```

use minim::geom::Rect;
use minim::net::workload::RangeDist;
use minim::sim::scenario::{PhaseSpec, Scenario, ScenarioSpec, TopologyFamily};

fn main() {
    // The day, declared: 60 arrivals into a 60x40 hall with 4 crowd
    // clusters, 3 coffee-break milling rounds, 20 early departures.
    let spec = ScenarioSpec::new("conference-day")
        .summary("a conference day: clustered arrivals, coffee-break milling, departures")
        .arena(Rect::new(0.0, 0.0, 60.0, 40.0))
        .topology(TopologyFamily::Clustered {
            clusters: 4,
            spread: 5.0,
        })
        .ranges(RangeDist::Interval {
            minr: 8.0,
            maxr: 12.0,
        })
        .measured_phase(PhaseSpec::Join { count: 60 })
        .measured_phase(PhaseSpec::Movement {
            rounds: 3,
            maxdisp: 15.0,
        })
        .measured_phase(PhaseSpec::Mix {
            steps: 20,
            join_prob: 0.0,
            leave_prob: 1.0, // pure departures
            maxdisp: 0.0,
        })
        .runs(12)
        .seed(2001);

    println!("{}\n", spec.to_json_string());
    let cfg = spec.default_config();
    let result = Scenario::new(spec)
        .expect("the conference day is a valid spec")
        .run(&cfg)
        .expect("the spec asks for 12 replicates");

    let (colors, recodings) = result.tables();
    println!("{}", recodings.render());
    println!("{}", colors.render());
    println!(
        "{} events across {} replicates, {:.1?} wall clock",
        result.total_events, result.runs, result.wall_clock
    );

    // The §5 shape, on averages over the replicates.
    let row = &result.points[0];
    let (minim, cp, bbb) = (
        row.recodings[0].mean,
        row.recodings[1].mean,
        row.recodings[2].mean,
    );
    assert!(
        bbb > cp && bbb > minim,
        "BBB recolors the world every event"
    );
    println!(
        "\nThe shape the paper reports (Figs 10-12): recodings(Minim) = {minim:.0} < \
         recodings(CP) = {cp:.0} << recodings(BBB) = {bbb:.0} — BBB buys its low code \
         count by retuning the whole hall at every event."
    );
}
