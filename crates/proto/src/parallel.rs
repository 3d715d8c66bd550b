//! Concurrent event execution — Theorem 4.1.10.
//!
//! "The algorithm supports simultaneous additions of new nodes when any
//! two of them are at least 5 hops apart." The bound is tight in the
//! following sense: a join's recode set lies within 1 hop of the
//! joiner, and the constraints it reads lie within 2 hops of the recode
//! set, i.e. within 3 hops of the joiner. With joiners ≥ 5 hops apart,
//! `B(n1, 1) ∩ B(n2, 3) = ∅`, so neither join's writes intersect the
//! other's reads and the two recodes commute; below 5 hops the reads
//! and writes can overlap and concurrent execution can garble the
//! assignment ([`parallel_minim_joins_unchecked`] plus the tests
//! construct an explicit counterexample).
//!
//! [`parallel_minim_joins`] executes a batch of joins *truly
//! concurrently*: every join's matching is computed against the same
//! pre-event assignment snapshot, then all plans are applied at once —
//! exactly the semantics of simultaneous distributed executions.

use minim_core::{gather_recode_inputs, plan_recode, RecodeOutcome, KEEP_WEIGHT};
use minim_graph::{hops, NodeId};
use minim_net::{Network, NodeConfig};

/// Why a parallel join batch was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelJoinError {
    /// Two joiners are closer than the 5-hop separation bound.
    TooClose {
        /// First joiner.
        a: NodeId,
        /// Second joiner.
        b: NodeId,
        /// Their undirected hop distance (joiners in the same
        /// connected component are always at finite distance).
        hops: usize,
    },
}

impl std::fmt::Display for ParallelJoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelJoinError::TooClose { a, b, hops } => write!(
                f,
                "joiners {a} and {b} are only {hops} hops apart (need >= 5)"
            ),
        }
    }
}

impl std::error::Error for ParallelJoinError {}

/// Inserts all joiners, verifies the pairwise 5-hop separation of
/// Theorem 4.1.10, and recodes all joins concurrently (all matchings
/// computed against the pre-event snapshot, all plans applied
/// together). On a separation violation the joiners are removed again
/// and an error is returned.
pub fn parallel_minim_joins(
    net: &mut Network,
    joins: &[(NodeId, NodeConfig)],
) -> Result<Vec<RecodeOutcome>, ParallelJoinError> {
    for &(id, cfg) in joins {
        net.insert_node(id, cfg);
    }
    for (i, &(a, _)) in joins.iter().enumerate() {
        for &(b, _) in &joins[i + 1..] {
            if let Some(d) = hops::hop_distance(net.graph(), a, b) {
                if d < 5 {
                    for &(id, _) in joins {
                        net.remove_node(id);
                    }
                    return Err(ParallelJoinError::TooClose { a, b, hops: d });
                }
            }
        }
    }
    Ok(parallel_minim_joins_unchecked(net, joins))
}

/// The concurrent recode **without** the separation check. Public so
/// tests and examples can demonstrate why Theorem 4.1.10's condition
/// matters: with joiners too close, the returned assignment may
/// violate CA1/CA2. Joiners must already be inserted.
pub fn parallel_minim_joins_unchecked(
    net: &mut Network,
    joins: &[(NodeId, NodeConfig)],
) -> Vec<RecodeOutcome> {
    let snapshot = net.snapshot_assignment();
    // Plan every join against the same snapshot (true concurrency).
    let mut plans = Vec::with_capacity(joins.len());
    for &(id, _) in joins {
        let set = net.recode_set(id);
        let (old, forbidden) = gather_recode_inputs(net, &set);
        let plan = plan_recode(&old, &forbidden, KEEP_WEIGHT);
        plans.push((set, plan));
    }
    // Apply all plans at once.
    for (set, plan) in &plans {
        for (i, &u) in set.iter().enumerate() {
            net.assignment_mut().set(u, plan[i]);
        }
    }
    // Per-join outcomes relative to the shared snapshot.
    plans
        .iter()
        .map(|(set, plan)| {
            let recoded = set
                .iter()
                .enumerate()
                .filter(|&(i, &u)| snapshot.get(u) != Some(plan[i]))
                .map(|(i, &u)| (u, snapshot.get(u), plan[i]))
                .collect();
            RecodeOutcome {
                recoded,
                max_color_after: net.max_color_index(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_core::{step, Minim, RecodingStrategy};
    use minim_geom::Point;
    use minim_graph::Color;
    use minim_net::event::Event;

    /// A long chain of bidirectional links spaced `gap` apart along x,
    /// colored by Minim joins.
    fn chain(nodes: usize, gap: f64, range: f64) -> Network {
        let mut net = Network::new(range.max(1.0));
        let mut m = Minim::default();
        for i in 0..nodes {
            let cfg = NodeConfig::new(Point::new(i as f64 * gap, 0.0), range);
            m.apply(&mut net, &Event::Join { cfg });
        }
        assert!(net.validate().is_ok());
        net
    }

    #[test]
    fn far_apart_parallel_joins_commute_with_sequential() {
        // Chain of 12 nodes, joiners attach near the two ends: > 5 hops.
        let net0 = chain(12, 6.0, 7.0);
        let id_a = NodeId(100);
        let id_b = NodeId(101);
        let cfg_a = NodeConfig::new(Point::new(0.0, 5.0), 7.0);
        let cfg_b = NodeConfig::new(Point::new(66.0, 5.0), 7.0);

        let mut net_par = net0.clone();
        let outcomes = parallel_minim_joins(&mut net_par, &[(id_a, cfg_a), (id_b, cfg_b)])
            .expect("ends of the chain are >= 5 hops apart");
        assert_eq!(outcomes.len(), 2);
        assert!(net_par.validate().is_ok());

        // Sequential in both orders must give the same assignment.
        let m = Minim::default();
        let join_a = Event::Join { cfg: cfg_a };
        let join_b = Event::Join { cfg: cfg_b };
        let mut net_ab = net0.clone();
        step(&m, &mut net_ab, &join_a, Some(id_a));
        step(&m, &mut net_ab, &join_b, Some(id_b));
        let mut net_ba = net0.clone();
        step(&m, &mut net_ba, &join_b, Some(id_b));
        step(&m, &mut net_ba, &join_a, Some(id_a));

        assert_eq!(net_par.snapshot_assignment(), net_ab.snapshot_assignment());
        assert_eq!(net_par.snapshot_assignment(), net_ba.snapshot_assignment());
    }

    #[test]
    fn close_parallel_joins_are_rejected() {
        let net0 = chain(6, 6.0, 7.0);
        let mut net = net0.clone();
        // Two joiners adjacent to the same chain node: 2 hops apart.
        let err = parallel_minim_joins(
            &mut net,
            &[
                (NodeId(100), NodeConfig::new(Point::new(12.0, 5.0), 7.0)),
                (NodeId(101), NodeConfig::new(Point::new(12.0, -5.0), 7.0)),
            ],
        )
        .unwrap_err();
        let ParallelJoinError::TooClose { hops, .. } = err;
        assert!(hops < 5);
        // Rollback: the joiners are gone and the old state is intact.
        assert_eq!(net.node_count(), net0.node_count());
        assert_eq!(net.snapshot_assignment(), net0.snapshot_assignment());
        assert!(net.validate().is_ok());
    }

    #[test]
    fn unchecked_close_joins_can_violate_ca2() {
        // The Theorem 4.1.10 counterexample: joiners 2 hops apart via a
        // shared receiver x. Each concurrent plan sees only {itself, x}
        // and hands the joiner the same fresh color; both then transmit
        // into x with equal codes — a hidden collision.
        let mut net = Network::new(10.0);
        let x = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        net.set_color(x, Color::new(1));
        let a = NodeId(10);
        let b = NodeId(11);
        let cfg_a = NodeConfig::new(Point::new(4.0, 0.0), 5.0);
        let cfg_b = NodeConfig::new(Point::new(-4.0, 0.0), 5.0);
        net.insert_node(a, cfg_a);
        net.insert_node(b, cfg_b);
        assert!(net.graph().has_edge(a, x) && net.graph().has_edge(b, x));
        assert!(!net.graph().has_edge(a, b), "joiners out of mutual range");

        parallel_minim_joins_unchecked(&mut net, &[(a, cfg_a), (b, cfg_b)]);
        assert_eq!(net.assignment().get(a), net.assignment().get(b));
        assert!(
            net.validate().is_err(),
            "concurrent close joins must garble the assignment — this is why 5 hops matter"
        );

        // And the checked API refuses exactly this configuration.
        let mut net2 = Network::new(10.0);
        let x2 = net2.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        net2.set_color(x2, Color::new(1));
        let err = parallel_minim_joins(&mut net2, &[(a, cfg_a), (b, cfg_b)]).unwrap_err();
        let ParallelJoinError::TooClose { hops, .. } = err;
        assert_eq!(hops, 2);
    }

    #[test]
    fn disconnected_joiners_are_always_parallelizable() {
        let net0 = chain(4, 6.0, 7.0);
        let mut net = net0.clone();
        // One joiner on the chain, one in deep space (disconnected →
        // hop_distance None → no constraint violated).
        let outcomes = parallel_minim_joins(
            &mut net,
            &[
                (NodeId(100), NodeConfig::new(Point::new(0.0, 5.0), 7.0)),
                (NodeId(101), NodeConfig::new(Point::new(500.0, 500.0), 7.0)),
            ],
        )
        .expect("disconnected joiners cannot interfere");
        assert_eq!(outcomes.len(), 2);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn batch_of_three_separated_joins() {
        let net0 = chain(20, 6.0, 7.0);
        let mut net = net0.clone();
        let joins = [
            (NodeId(100), NodeConfig::new(Point::new(0.0, 5.0), 7.0)),
            (NodeId(101), NodeConfig::new(Point::new(60.0, 5.0), 7.0)),
            (NodeId(102), NodeConfig::new(Point::new(114.0, 5.0), 7.0)),
        ];
        let outcomes = parallel_minim_joins(&mut net, &joins).expect("well separated");
        assert_eq!(outcomes.len(), 3);
        assert!(net.validate().is_ok());
        for (out, &(id, _)) in outcomes.iter().zip(&joins) {
            assert!(
                out.recoded.iter().any(|&(n, _, _)| n == id),
                "each joiner gets a first color"
            );
        }
    }
}
