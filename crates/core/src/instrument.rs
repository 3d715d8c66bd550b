//! Strategy instrumentation: wrap any [`RecodingStrategy`] and collect
//! per-event-type accounting — the bookkeeping behind the §5 metrics,
//! reusable by examples and by downstream users evaluating their own
//! strategies.

use crate::{ColorPlan, EventEffect, RecodeOutcome, RecodingStrategy};
use minim_net::event::{AppliedEvent, Event};
use minim_net::{Network, TopologyDelta};

/// Counters for one event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Events of this type handled.
    pub events: usize,
    /// Recodings those events caused.
    pub recodings: usize,
    /// Largest single-event recoding count.
    pub worst_event: usize,
}

impl KindStats {
    fn record(&mut self, outcome: &RecodeOutcome) {
        self.events += 1;
        self.recodings += outcome.recodings();
        self.worst_event = self.worst_event.max(outcome.recodings());
    }

    /// Mean recodings per event (0 when no events).
    pub fn mean_recodings(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.recodings as f64 / self.events as f64
        }
    }
}

/// Accumulated per-kind statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyStats {
    /// Join events.
    pub joins: KindStats,
    /// Leave events.
    pub leaves: KindStats,
    /// Move events.
    pub moves: KindStats,
    /// Range changes (increases and decreases combined; decreases are
    /// provably recode-free, so their recodings stay 0).
    pub range_changes: KindStats,
    /// Highest max-color-index observed after any event.
    pub peak_color: u32,
    /// Total digraph edge insertions + removals across all events —
    /// the `Δ` that bounds per-event work, summed (read off each
    /// event's [`minim_net::TopologyDelta`]).
    pub edge_churn: usize,
}

impl StrategyStats {
    /// Totals across all kinds.
    pub fn total_events(&self) -> usize {
        self.joins.events + self.leaves.events + self.moves.events + self.range_changes.events
    }

    /// Total recodings across all kinds (the paper's cumulative
    /// metric).
    pub fn total_recodings(&self) -> usize {
        self.joins.recodings
            + self.leaves.recodings
            + self.moves.recodings
            + self.range_changes.recodings
    }
}

impl std::fmt::Display for StrategyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events: {} joins / {} leaves / {} moves / {} range changes; \
             recodings: {} (join {:.2}/ev, move {:.2}/ev, range {:.2}/ev); \
             peak color {}",
            self.joins.events,
            self.leaves.events,
            self.moves.events,
            self.range_changes.events,
            self.total_recodings(),
            self.joins.mean_recodings(),
            self.moves.mean_recodings(),
            self.range_changes.mean_recodings(),
            self.peak_color,
        )
    }
}

/// A strategy wrapper that accounts every event.
#[derive(Debug, Clone, Default)]
pub struct Instrumented<S> {
    inner: S,
    /// The accumulated counters.
    pub stats: StrategyStats,
}

impl<S: RecodingStrategy> Instrumented<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Instrumented {
            inner,
            stats: StrategyStats::default(),
        }
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: RecodingStrategy> RecodingStrategy for Instrumented<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan_batched(
        &self,
        net: &Network,
        applied: &AppliedEvent,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        self.inner.plan_batched(net, applied, delta)
    }

    fn apply_delta(&mut self, net: &mut Network, event: &Event) -> (AppliedEvent, EventEffect) {
        let (applied, effect) = self.inner.apply_delta(net, event);
        let kind = match applied {
            AppliedEvent::Joined(_) => &mut self.stats.joins,
            AppliedEvent::Left(_) => &mut self.stats.leaves,
            AppliedEvent::Moved(_) => &mut self.stats.moves,
            AppliedEvent::RangeChanged(..) => &mut self.stats.range_changes,
        };
        kind.record(&effect.outcome);
        self.stats.peak_color = self.stats.peak_color.max(effect.outcome.max_color_after);
        self.stats.edge_churn += effect.delta.edge_churn();
        (applied, effect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bbb, Cp, Minim};
    use minim_geom::{sample, Point, Rect};
    use minim_net::event::apply_topology;
    use minim_net::workload::{JoinWorkload, MovementWorkload};
    use minim_net::NodeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn counts_every_event_kind() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Instrumented::new(Minim::default());
        let mut net = Network::new(25.0);
        for e in JoinWorkload::paper(20).generate(&mut rng) {
            s.apply(&mut net, &e);
        }
        for e in MovementWorkload::paper(30.0, 1).generate_round(&net, &mut rng) {
            s.apply(&mut net, &e);
        }
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let r = net.config(victim).unwrap().range;
        let range = r * 2.0;
        s.apply(
            &mut net,
            &Event::SetRange {
                node: victim,
                range,
            },
        );
        s.apply(
            &mut net,
            &Event::SetRange {
                node: victim,
                range: r,
            },
        ); // decrease back
        s.apply(&mut net, &Event::Leave { node: ids[0] });

        assert_eq!(s.stats.joins.events, 20);
        assert_eq!(s.stats.moves.events, 20);
        assert_eq!(s.stats.range_changes.events, 2);
        assert_eq!(s.stats.leaves.events, 1);
        assert_eq!(s.stats.total_events(), 43);
        assert_eq!(s.stats.leaves.recodings, 0, "leaves are free");
        assert!(
            s.stats.joins.recodings >= 20,
            "every join colors the joiner"
        );
        assert_eq!(s.stats.peak_color, {
            // Peak is at least the current max (colors never exceeded it
            // later without being observed).
            let now = net.max_color_index();
            s.stats.peak_color.max(now)
        });
        assert_eq!(s.name(), "Minim");
    }

    #[test]
    fn mean_recodings_and_display() {
        let mut s = Instrumented::new(Minim::default());
        let mut net = Network::new(10.0);
        let arena = Rect::paper_arena();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let cfg = NodeConfig::new(sample::uniform_point(&mut rng, &arena), 20.0);
            s.apply(&mut net, &Event::Join { cfg });
        }
        assert!(s.stats.joins.mean_recodings() >= 1.0);
        let text = s.stats.to_string();
        assert!(text.contains("5 joins"));
        assert!(text.contains("peak color"));
        assert_eq!(KindStats::default().mean_recodings(), 0.0);
    }

    #[test]
    fn worst_event_tracks_maximum() {
        let mut s = Instrumented::new(Minim::default());
        let mut net = Network::new(10.0);
        // A join with duplicate-colored in-neighbors recodes > 1 node.
        use minim_graph::Color;
        let a = net.join(NodeConfig::new(Point::new(44.0, 50.0), 7.0));
        let b = net.join(NodeConfig::new(Point::new(56.0, 50.0), 7.0));
        net.set_color(a, Color::new(1));
        net.set_color(b, Color::new(1));
        let cfg = NodeConfig::new(Point::new(50.0, 50.0), 7.0);
        s.apply(&mut net, &Event::Join { cfg });
        assert_eq!(s.stats.joins.worst_event, 2, "one duplicate + the joiner");
    }

    /// A join/leave/move/range stream that stays valid in order (targets
    /// are drawn from a topology-only ghost).
    fn mixed_stream(seed: u64, n: usize) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(seed);
        let arena = Rect::paper_arena();
        let mut ghost = Network::new(25.0);
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let ids = ghost.node_ids();
            let roll: f64 = rng.gen();
            let e = if ids.len() < 5 || roll < 0.4 {
                let cfg = NodeConfig::new(
                    sample::uniform_point(&mut rng, &arena),
                    sample::uniform_range(&mut rng, 15.0, 30.0),
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
                    let range = sample::uniform_range(&mut rng, 10.0, 40.0);
                    Event::SetRange { node, range }
                }
            };
            apply_topology(&mut ghost, &e);
            events.push(e);
        }
        events
    }

    /// Wrapping a strategy changes nothing it does: per-event outcomes
    /// and the final state match the bare strategy, and the stats sum
    /// the outcomes.
    fn assert_transparent<S: RecodingStrategy + Clone>(bare: S) {
        let events = mixed_stream(17, 120);
        let mut plain = bare.clone();
        let mut wrapped = Instrumented::new(bare);
        let mut net_plain = Network::new(25.0);
        let mut net_wrapped = Network::new(25.0);
        let mut total = 0;
        for e in &events {
            let want = plain.apply(&mut net_plain, e);
            let got = wrapped.apply(&mut net_wrapped, e);
            assert_eq!(got, want, "{} on {e:?}", plain.name());
            total += got.1.recodings();
        }
        assert_eq!(net_wrapped.state_digest(), net_plain.state_digest());
        assert_eq!(wrapped.stats.total_recodings(), total);
        assert_eq!(wrapped.stats.total_events(), events.len());
    }

    #[test]
    fn wrapper_is_transparent_for_every_strategy() {
        assert_transparent(Minim::default());
        assert_transparent(Cp::default());
        assert_transparent(Bbb::default());
    }
}
