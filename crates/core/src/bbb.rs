//! The **BBB** baseline — the paper's §5 centralized comparator.
//!
//! "A strategy that uses a centralized coloring heuristic: the BBB
//! algorithm of \[7\], to recolor the entire network at every event."
//! The text of \[7\] is unavailable, so the heuristic is realized as
//! DSATUR on the TOCA conflict graph (a smallest-last variant is also
//! available). The two behaviours the paper relies on are preserved:
//! BBB produces the lowest max-color-index curves (near-optimal global
//! coloring) and enormous recoding counts (it has no loyalty to the
//! previous assignment — "BBB performs badly since it recolors the
//! entire network at each event").

use crate::{ColorPlan, RecodingStrategy};
use minim_coloring::{dsatur, rlf, smallest_last, validate_coloring, Coloring};
use minim_graph::{conflict, Color, UGraph};
use minim_net::event::AppliedEvent;
use minim_net::{Network, TopologyDelta};

/// Which global heuristic BBB runs at each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlobalHeuristic {
    /// DSATUR (Brélaz) — the default; near-optimal on these graphs.
    #[default]
    Dsatur,
    /// Smallest-last (degeneracy) ordering + first-fit.
    SmallestLast,
    /// Recursive Largest First (Leighton) — strongest on dense graphs.
    Rlf,
}

impl GlobalHeuristic {
    fn run(self, g: &UGraph) -> Coloring {
        match self {
            GlobalHeuristic::Dsatur => dsatur(g),
            GlobalHeuristic::SmallestLast => smallest_last(g),
            GlobalHeuristic::Rlf => rlf(g),
        }
    }
}

/// The centralized recolor-everything baseline.
#[derive(Debug, Clone, Default)]
pub struct Bbb {
    /// The global coloring heuristic to apply.
    pub heuristic: GlobalHeuristic,
}

impl Bbb {
    /// A BBB variant running smallest-last instead of DSATUR.
    pub fn smallest_last() -> Self {
        Bbb {
            heuristic: GlobalHeuristic::SmallestLast,
        }
    }

    /// A BBB variant running RLF instead of DSATUR.
    pub fn rlf() -> Self {
        Bbb {
            heuristic: GlobalHeuristic::Rlf,
        }
    }
}

impl RecodingStrategy for Bbb {
    fn name(&self) -> &'static str {
        "BBB"
    }

    /// Recolors the whole network from scratch: every present node is
    /// planned, and committing skips the writes that keep a node's
    /// color. BBB deliberately ignores the delta's locality —
    /// recoloring the whole network at every event is exactly the
    /// behaviour the paper measures it for. The delta still flows
    /// through so the runner's accounting (edge churn, local
    /// validation seeds) is uniform across strategies.
    fn plan_batched(
        &self,
        net: &Network,
        _applied: &AppliedEvent,
        _delta: &TopologyDelta,
    ) -> ColorPlan {
        let (ug, ids) = conflict::conflict_graph(net.graph());
        let coloring = self.heuristic.run(&ug);
        debug_assert!(
            validate_coloring(&ug, &coloring).is_ok(),
            "BBB global recolor invalid"
        );
        ids.into_iter()
            .zip(coloring.colors)
            .map(|(id, c)| (id, Color::new(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecodeOutcome, StrategyKind};
    use minim_geom::{sample, Point, Rect};
    use minim_net::event::Event;
    use minim_net::workload::JoinWorkload;
    use minim_net::NodeConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_joins(kind: StrategyKind, count: usize, seed: u64) -> (Network, usize) {
        let mut strategy = kind.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(25.0);
        let mut recodings = 0;
        for e in JoinWorkload::paper(count).generate(&mut rng) {
            recodings += strategy.apply(&mut net, &e).1.recodings();
        }
        (net, recodings)
    }

    #[test]
    fn bbb_produces_valid_low_color_assignments() {
        let (net, _) = run_joins(StrategyKind::Bbb, 50, 3);
        assert!(net.validate().is_ok());
        let (net_minim, _) = run_joins(StrategyKind::Minim, 50, 3);
        // The global heuristic should use no more colors than the
        // local strategy.
        assert!(
            net.max_color_index() <= net_minim.max_color_index(),
            "BBB {} vs Minim {}",
            net.max_color_index(),
            net_minim.max_color_index()
        );
    }

    #[test]
    fn bbb_recodes_far_more_than_minim() {
        let (_, bbb_rec) = run_joins(StrategyKind::Bbb, 50, 4);
        let (_, minim_rec) = run_joins(StrategyKind::Minim, 50, 4);
        assert!(
            bbb_rec > 2 * minim_rec,
            "expected BBB ({bbb_rec}) ≫ Minim ({minim_rec})"
        );
    }

    #[test]
    fn smallest_last_and_rlf_variants_also_valid() {
        for mut strategy in [Bbb::smallest_last(), Bbb::rlf()] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut net = Network::new(25.0);
            for e in JoinWorkload::paper(40).generate(&mut rng) {
                strategy.apply(&mut net, &e);
                assert!(net.validate().is_ok());
            }
        }
    }

    #[test]
    fn bbb_recolors_on_every_event_type() {
        let mut strategy = Bbb::default();
        let mut net = Network::new(10.0);
        let cfg = NodeConfig::new(Point::new(0.0, 0.0), 6.0);
        let a = strategy.apply(&mut net, &Event::Join { cfg }).0.node();
        let cfg = NodeConfig::new(Point::new(5.0, 0.0), 6.0);
        let b = strategy.apply(&mut net, &Event::Join { cfg }).0.node();
        assert!(net.validate().is_ok());
        let to = Point::new(3.0, 0.0);
        strategy.apply(&mut net, &Event::Move { node: b, to });
        assert!(net.validate().is_ok());
        strategy.apply(
            &mut net,
            &Event::SetRange {
                node: a,
                range: 12.0,
            },
        );
        assert!(net.validate().is_ok());
        strategy.apply(&mut net, &Event::Leave { node: b });
        assert!(net.validate().is_ok());
        assert_eq!(net.node_count(), 1);
        // The survivor is recolored to color 1 by the fresh global run.
        assert_eq!(net.assignment().get(a), Some(Color::new(1)));
    }

    /// BBB's event handling as it was before the plan/commit split:
    /// snapshot the assignment, mutate the topology, recolor every node
    /// in place, and diff against the snapshot.
    fn reference_bbb_apply(bbb: &Bbb, net: &mut Network, event: &Event) -> RecodeOutcome {
        let before = net.snapshot_assignment();
        match *event {
            Event::Join { cfg } => {
                let id = net.next_id();
                net.insert_node(id, cfg);
            }
            Event::Leave { node } => {
                net.remove_node(node);
            }
            Event::Move { node, to } => {
                net.move_node(node, to);
            }
            Event::SetRange { node, range } => {
                net.set_range(node, range);
            }
        }
        let (ug, ids) = conflict::conflict_graph(net.graph());
        let coloring = bbb.heuristic.run(&ug);
        for (i, &id) in ids.iter().enumerate() {
            net.assignment_mut().set(id, Color::new(coloring.colors[i]));
        }
        debug_assert!(net.validate().is_ok(), "BBB global recolor invalid");
        RecodeOutcome::from_diff(net, &before)
    }

    proptest! {
        /// The plan/commit BBB reproduces the snapshot → recolor → diff
        /// handler event for event — same outcome (recoded triples,
        /// max color) and same final state — for all three heuristics
        /// on mixed join/leave/move/range streams.
        #[test]
        fn plan_commit_matches_reference_handler(
            seed in 0u64..u64::MAX,
            steps in 5usize..45,
            variant in 0usize..3,
        ) {
            let bbb = [Bbb::default(), Bbb::smallest_last(), Bbb::rlf()][variant].clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let arena = Rect::new(0.0, 0.0, 60.0, 60.0);
            let mut strategy = bbb.clone();
            let mut net = Network::new(15.0);
            let mut reference = Network::new(15.0);
            for step in 0..steps {
                let ids = net.node_ids();
                let roll: f64 = rng.gen();
                let event = if ids.len() < 3 || roll < 0.4 {
                    let cfg = NodeConfig::new(
                        sample::uniform_point(&mut rng, &arena),
                        rng.gen_range(5.0..20.0),
                    );
                    Event::Join { cfg }
                } else {
                    let node = ids[rng.gen_range(0..ids.len())];
                    if roll < 0.55 {
                        Event::Leave { node }
                    } else if roll < 0.8 {
                        let to = sample::uniform_point(&mut rng, &arena);
                        Event::Move { node, to }
                    } else {
                        let range = rng.gen_range(3.0..25.0);
                        Event::SetRange { node, range }
                    }
                };
                let (_, got) = strategy.apply(&mut net, &event);
                let want = reference_bbb_apply(&bbb, &mut reference, &event);
                prop_assert_eq!((step, got), (step, want));
            }
            prop_assert_eq!(net.snapshot_assignment(), reference.snapshot_assignment());
            prop_assert_eq!(net.state_digest(), reference.state_digest());
        }
    }
}
