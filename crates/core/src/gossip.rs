//! Gossip-based code-reuse compaction — the paper's §6 **future work**,
//! implemented as an extension.
//!
//! "Future work will focus on a recoding strategy that seeks to
//! maximize the network-wide code reuse by using a local gossiping
//! strategy [...] during the (possibly significantly long) periods when
//! no nodes connect to, move about or increase their power."
//!
//! Each gossip round, every node computes the lowest color consistent
//! with its **exact** CA1/CA2 constraints and migrates to it if that is
//! strictly lower than its current color. Migrations within a round are
//! serialized in descending identity order (the same vicinity rule the
//! CP reselection uses: concurrently migrating nodes more than 2 hops
//! apart cannot constrain each other, so this is a valid linearization
//! of a distributed execution where each node moves only when it is the
//! highest-identity migrant in its 2-hop vicinity).
//!
//! Every individual migration preserves CA1/CA2 (the target color is
//! checked against the *current* colors of all conflict partners), so
//! the assignment is valid after every round; the maximum color index
//! is non-increasing and the process reaches a fixpoint (each node's
//! color is non-increasing and bounded below by 1).

use crate::{ColorPlan, EventEffect, RecodeOutcome, RecodingStrategy};
use minim_graph::{conflict, Color, NodeId};
use minim_net::event::{AppliedEvent, Event};
use minim_net::{Network, TopologyDelta};

/// Background color-compaction gossiper.
#[derive(Debug, Clone, Copy, Default)]
pub struct GossipCompactor;

/// Result of one compaction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Rounds executed (including the final, empty round that proved
    /// the fixpoint).
    pub rounds: usize,
    /// Total color migrations performed.
    pub migrations: usize,
    /// Max color index before compaction.
    pub max_color_before: u32,
    /// Max color index after compaction.
    pub max_color_after: u32,
}

impl GossipCompactor {
    /// Runs a single gossip round. Returns the number of migrations.
    pub fn round(&self, net: &mut Network) -> usize {
        // The loop below recolors while iterating, so the ids are
        // collected first (from the borrowing iterator).
        let mut ids: Vec<NodeId> = net.iter_nodes().collect();
        ids.sort_unstable_by(|a, b| b.cmp(a)); // highest identity first
        let mut moves = 0;
        for id in ids {
            let Some(current) = net.assignment().get(id) else {
                continue;
            };
            let constraints = conflict::constraint_colors(net.graph(), net.assignment(), id);
            let lowest = Color::lowest_excluding(constraints);
            if lowest < current {
                net.assignment_mut().set(id, lowest);
                moves += 1;
            }
        }
        debug_assert!(net.validate().is_ok(), "gossip round broke the assignment");
        moves
    }

    /// Runs rounds until a fixpoint (or `max_rounds`).
    pub fn run(&self, net: &mut Network, max_rounds: usize) -> CompactionStats {
        let max_color_before = net.max_color_index();
        let mut rounds = 0;
        let mut migrations = 0;
        while rounds < max_rounds {
            rounds += 1;
            let m = self.round(net);
            migrations += m;
            if m == 0 {
                break;
            }
        }
        CompactionStats {
            rounds,
            migrations,
            max_color_before,
            max_color_after: net.max_color_index(),
        }
    }
}

/// Minim with background gossip: the §6 "future work" strategy made
/// first-class. Events are handled by [`crate::Minim`]; after every
/// `period` events the compactor runs one gossip round (the quiet-time
/// behaviour, interleaved). Gossip migrations are honestly charged as
/// recodings in the returned outcomes.
#[derive(Debug, Clone)]
pub struct MinimWithGossip {
    inner: crate::Minim,
    /// Events between gossip rounds.
    pub period: usize,
    events_since_gossip: usize,
}

impl MinimWithGossip {
    /// Creates the hybrid with the given gossip period (≥ 1).
    pub fn new(period: usize) -> Self {
        assert!(period >= 1, "gossip period must be at least 1");
        MinimWithGossip {
            inner: crate::Minim::default(),
            period,
            events_since_gossip: 0,
        }
    }
}

impl RecodingStrategy for MinimWithGossip {
    fn name(&self) -> &'static str {
        "Minim+Gossip"
    }

    fn plan_batched(
        &self,
        net: &Network,
        applied: &AppliedEvent,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        self.inner.plan_batched(net, applied, delta)
    }

    /// Handles the event with Minim, then runs a gossip round when one
    /// is due, merging its migrations into the event's outcome.
    fn apply_delta(&mut self, net: &mut Network, event: &Event) -> (AppliedEvent, EventEffect) {
        let before = net.snapshot_assignment();
        let (applied, effect) = self.inner.apply_delta(net, event);
        self.events_since_gossip += 1;
        if self.events_since_gossip < self.period {
            return (applied, effect);
        }
        self.events_since_gossip = 0;
        GossipCompactor.round(net);
        // Recompute the combined diff against the pre-event snapshot so
        // event recodes and gossip migrations are both counted (a node
        // recoded twice counts once — it retunes once per event batch).
        let effect = EventEffect {
            delta: effect.delta,
            outcome: RecodeOutcome::from_diff(net, &before),
        };
        (applied, effect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Minim;
    use minim_geom::Point;
    use minim_net::workload::{JoinWorkload, MovementWorkload};
    use minim_net::{Network, NodeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compaction_reduces_wasteful_colors() {
        // Two isolated nodes manually given high colors.
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 2.0));
        let b = net.join(NodeConfig::new(Point::new(50.0, 50.0), 2.0));
        net.set_color(a, Color::new(7));
        net.set_color(b, Color::new(9));
        let stats = GossipCompactor.run(&mut net, 100);
        assert_eq!(net.assignment().get(a), Some(Color::new(1)));
        assert_eq!(net.assignment().get(b), Some(Color::new(1)));
        assert_eq!(stats.max_color_before, 9);
        assert_eq!(stats.max_color_after, 1);
        assert_eq!(stats.migrations, 2);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn compaction_preserves_validity_after_churn() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in JoinWorkload::paper(60).generate(&mut rng) {
            m.apply(&mut net, &e);
        }
        // Churn: several movement rounds inflate the color count.
        for _ in 0..3 {
            for e in MovementWorkload::paper(40.0, 1).generate_round(&net, &mut rng) {
                m.apply(&mut net, &e);
            }
        }
        let before = net.max_color_index();
        let stats = GossipCompactor.run(&mut net, 50);
        assert!(net.validate().is_ok());
        assert!(stats.max_color_after <= before);
        assert_eq!(stats.max_color_before, before);
    }

    #[test]
    fn fixpoint_round_is_empty_and_stable() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in JoinWorkload::paper(30).generate(&mut rng) {
            m.apply(&mut net, &e);
        }
        GossipCompactor.run(&mut net, 100);
        let snapshot = net.snapshot_assignment();
        // Another run changes nothing.
        let stats = GossipCompactor.run(&mut net, 100);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.rounds, 1);
        assert_eq!(net.snapshot_assignment(), snapshot);
    }

    #[test]
    fn max_color_is_monotone_across_rounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in JoinWorkload::paper(50).generate(&mut rng) {
            m.apply(&mut net, &e);
        }
        let mut last = net.max_color_index();
        for _ in 0..10 {
            GossipCompactor.round(&mut net);
            let now = net.max_color_index();
            assert!(now <= last);
            last = now;
        }
    }

    #[test]
    fn empty_network_compacts_trivially() {
        let mut net = Network::new(10.0);
        let stats = GossipCompactor.run(&mut net, 10);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.max_color_after, 0);
    }

    #[test]
    fn hybrid_strategy_stays_valid_and_compacts_colors() {
        let mut rng = StdRng::seed_from_u64(20);
        let join_events = JoinWorkload::paper(50).generate(&mut rng);
        let move_rounds: Vec<_> = {
            let mut ghost = Network::new(25.0);
            let mut m = Minim::default();
            for e in &join_events {
                m.apply(&mut ghost, e);
            }
            (0..5)
                .map(|_| {
                    let round = MovementWorkload::paper(40.0, 1).generate_round(&ghost, &mut rng);
                    for e in &round {
                        minim_net::event::apply_topology(&mut ghost, e);
                    }
                    round
                })
                .collect()
        };

        let run = |strategy: &mut dyn RecodingStrategy| {
            let mut net = Network::new(25.0);
            for e in &join_events {
                strategy.apply(&mut net, e);
                assert!(net.validate().is_ok(), "{}", strategy.name());
            }
            for round in &move_rounds {
                for e in round {
                    strategy.apply(&mut net, e);
                    assert!(net.validate().is_ok(), "{}", strategy.name());
                }
            }
            net.max_color_index()
        };
        let plain = run(&mut Minim::default());
        let hybrid = run(&mut MinimWithGossip::new(10));
        assert!(
            hybrid <= plain,
            "gossip must not inflate colors: hybrid {hybrid} vs plain {plain}"
        );
    }

    #[test]
    fn hybrid_gossip_fires_on_schedule() {
        let mut s = MinimWithGossip::new(3);
        let mut net = Network::new(10.0);
        // Three joins: gossip fires on the third (no visible effect on
        // a compact assignment, but the counter must reset).
        for i in 0..3 {
            let cfg = NodeConfig::new(Point::new(i as f64 * 30.0, 0.0), 5.0);
            s.apply(&mut net, &Event::Join { cfg });
        }
        assert_eq!(s.events_since_gossip, 0, "fired and reset");
        let cfg = NodeConfig::new(Point::new(90.0, 0.0), 5.0);
        s.apply(&mut net, &Event::Join { cfg });
        assert_eq!(s.events_since_gossip, 1);
        assert_eq!(s.name(), "Minim+Gossip");
    }

    #[test]
    #[should_panic(expected = "period")]
    fn hybrid_rejects_zero_period() {
        let _ = MinimWithGossip::new(0);
    }
}
