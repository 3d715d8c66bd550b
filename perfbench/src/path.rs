//! The sequential event path taken apart through public calls:
//! topology (`apply_topology_delta`) → plan (`plan_batched`) → commit
//! (`commit_plan`) — the same three steps `Minim::apply` runs, so the
//! outcome is identical, but each one can carry its own span.
//!
//! Every join/move is classified as a fast-path or matching-path
//! event, and every matching-path event is re-planned in a shadow
//! through `gather_recode_inputs` + `plan_recode`, which must
//! reproduce the real plan exactly.

use crate::trace::Tracer;
use minim_core::RecodingStrategy;
use minim_core::{commit_plan, gather_recode_inputs, plan_recode, Minim, RecodeOutcome};
use minim_net::event::{apply_topology_delta, AppliedEvent, Event, PowerDirection};
use minim_net::Network;

/// The planning path one event took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPath {
    /// A join/move planned without the matching: at most the
    /// initiator is written.
    Fast,
    /// A join/move that solved the matching: the plan writes the whole
    /// recode set (of more than one node).
    Matching,
    /// A range increase that repicked the initiator's color.
    Repick,
    /// Everything else (leaves, decreases, clash-free increases):
    /// nothing planned.
    Passive,
}

/// Classifies an event from its plan length and (for joins/moves) its
/// recode-set size: a join/move took the matching path iff its plan
/// covers the whole recode set and that set has more than one node.
pub fn classify(applied: &AppliedEvent, plan_len: usize, set_len: usize) -> PlanPath {
    match *applied {
        AppliedEvent::Joined(_) | AppliedEvent::Moved(_) => {
            if plan_len == set_len && set_len > 1 {
                PlanPath::Matching
            } else {
                PlanPath::Fast
            }
        }
        AppliedEvent::RangeChanged(_, PowerDirection::Increase) if plan_len > 0 => PlanPath::Repick,
        _ => PlanPath::Passive,
    }
}

/// Core-layer counters accumulated over a stream.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Events applied.
    pub events: u64,
    /// Summed digraph edge insertions + removals.
    pub edge_churn: u64,
    /// Colors actually changed.
    pub recodings: u64,
    /// Color writes planned (recodings plus no-op writes).
    pub planned: u64,
    /// Joins/moves on the fast path.
    pub fast: u64,
    /// Joins/moves on the matching path.
    pub matching: u64,
    /// Range increases that repicked.
    pub repick: u64,
    /// Recode-set size of every join/move.
    pub recode_sets: Vec<u64>,
    /// Summed matching-instance size (set size × largest color) over
    /// matching-path events.
    pub instance_cells: u64,
}

impl CoreStats {
    /// Joins and moves seen.
    pub fn joins_moves(&self) -> u64 {
        self.fast + self.matching
    }
}

/// Applies one event through the decomposed path. `net.rewire`,
/// `core.plan` and `core.commit` are real-path spans; classification
/// and the matching shadow run inside the shadow span `bench.check`
/// before the commit, on the same pre-commit state the plan saw.
///
/// Fails if the shadow plan differs from the real one.
pub fn step(
    net: &mut Network,
    strategy: &Minim,
    event: &Event,
    tr: &mut Tracer,
    st: &mut CoreStats,
) -> Result<RecodeOutcome, String> {
    let (applied, delta) = tr.time("net.rewire", || apply_topology_delta(net, event, None));
    let plan = tr.time("core.plan", || strategy.plan_batched(net, &applied, &delta));

    let check = tr.enter("bench.check", true);
    let set_len = match applied {
        AppliedEvent::Joined(_) | AppliedEvent::Moved(_) => {
            let set = delta.recode_set();
            st.recode_sets.push(set.len() as u64);
            if classify(&applied, plan.len(), set.len()) == PlanPath::Matching {
                let (old, forbidden) = tr.time("core.gather", || gather_recode_inputs(net, &set));
                let colors = tr.time("matching.plan_recode", || {
                    plan_recode(&old, &forbidden, strategy.keep_weight)
                });
                let max = old
                    .iter()
                    .flatten()
                    .map(|c| c.index())
                    .chain(forbidden.iter().filter_map(|f| f.last().copied()))
                    .max()
                    .unwrap_or(0);
                st.instance_cells += set.len() as u64 * u64::from(max);
                if !set.iter().copied().zip(colors).eq(plan.iter().copied()) {
                    tr.exit(check);
                    return Err(format!(
                        "shadow plan_recode disagrees with plan_batched on {applied:?}"
                    ));
                }
            }
            set.len()
        }
        _ => 0,
    };
    match classify(&applied, plan.len(), set_len) {
        PlanPath::Fast => st.fast += 1,
        PlanPath::Matching => st.matching += 1,
        PlanPath::Repick => st.repick += 1,
        PlanPath::Passive => {}
    }
    st.events += 1;
    st.edge_churn += delta.edge_churn() as u64;
    st.planned += plan.len() as u64;
    tr.exit(check);

    let outcome = tr.time("core.commit", || commit_plan(net, &plan));
    st.recodings += outcome.recodings() as u64;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_geom::Point;
    use minim_net::NodeConfig;

    fn join(x: f64, y: f64, r: f64) -> Event {
        Event::Join {
            cfg: NodeConfig::new(Point::new(x, y), r),
        }
    }

    /// Plans `event` on `net` (topology applied, nothing committed)
    /// and classifies it.
    fn path_of(net: &mut Network, event: &Event) -> PlanPath {
        let (applied, delta) = apply_topology_delta(net, event, None);
        let plan = Minim::default().plan_batched(net, &applied, &delta);
        let set_len = match applied {
            AppliedEvent::Joined(_) | AppliedEvent::Moved(_) => delta.recode_set().len(),
            _ => 0,
        };
        classify(&applied, plan.len(), set_len)
    }

    #[test]
    fn joiner_next_to_distinct_colors_takes_the_fast_path() {
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        m.apply(&mut net, &join(0.0, 0.0, 5.0));
        m.apply(&mut net, &join(4.0, 0.0, 5.0));
        // Its recode set has three nodes with distinct (or no) colors.
        assert_eq!(path_of(&mut net, &join(2.0, 0.0, 5.0)), PlanPath::Fast);
        // A lone joiner: a one-node set is never the matching path.
        assert_eq!(path_of(&mut net, &join(90.0, 90.0, 5.0)), PlanPath::Fast);
    }

    #[test]
    fn joiner_bridging_equal_colors_takes_the_matching_path() {
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        // Far apart, so both legitimately hold color 1.
        m.apply(&mut net, &join(0.0, 0.0, 5.0));
        m.apply(&mut net, &join(8.0, 0.0, 5.0));
        assert_eq!(net.max_color_index(), 1);
        // In range of both: the set holds two equal old colors.
        assert_eq!(path_of(&mut net, &join(4.0, 0.0, 5.0)), PlanPath::Matching);
    }

    #[test]
    fn range_increase_into_a_clash_repicks() {
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        m.apply(&mut net, &join(0.0, 0.0, 2.0));
        m.apply(&mut net, &join(8.0, 0.0, 2.0));
        let raise = Event::SetRange {
            node: minim_graph::NodeId(0),
            range: 9.0,
        };
        assert_eq!(path_of(&mut net, &raise), PlanPath::Repick);
        let leave = Event::Leave {
            node: minim_graph::NodeId(1),
        };
        assert_eq!(path_of(&mut net, &leave), PlanPath::Passive);
    }

    #[test]
    fn step_matches_the_strategy_and_checks_its_shadow() {
        let mut a = Network::new(10.0);
        let mut b = Network::new(10.0);
        let mut m = Minim::default();
        let mut tr = Tracer::on();
        let mut st = CoreStats::default();
        let events = [
            join(0.0, 0.0, 5.0),
            join(8.0, 0.0, 5.0),
            join(4.0, 0.0, 5.0),
            join(4.0, 3.0, 6.0),
        ];
        for e in &events {
            let (_, want) = m.apply(&mut a, e);
            let got = step(&mut b, &m, e, &mut tr, &mut st).unwrap();
            assert_eq!(got, want);
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert!(st.matching >= 1 && st.fast >= 1);
        let p = tr.profile();
        assert!(p.self_s.contains_key("core.plan"));
        assert!(p.shadow_s.contains_key("core.gather"));
        assert!(!p.self_s.contains_key("core.gather"));
    }
}
