//! The TOCA conflict relation (CA1 ∪ CA2) and assignment validation.
//!
//! Two distinct nodes `u`, `v` *conflict* — must carry different codes —
//! iff
//!
//! * `u → v` or `v → u` (CA1: a primary collision would garble the
//!   transmission on that link), or
//! * there is a node `w` with `u → w` and `v → w` (CA2: the two
//!   transmissions collide at the common receiver `w`; the classic
//!   hidden-terminal case).
//!
//! This is exactly the graph whose proper colorings are the correct
//! TOCA code assignments (§1 maps the static problem to graph coloring
//! \[9\]). The *constraints* of a node in the paper's terminology are the
//! colors of its conflict partners.

use crate::assign::{Assignment, Color, ColorBits, ColorRead};
use crate::digraph::{DiGraph, NodeId};
use crate::ugraph::UGraph;

/// A violation of the TOCA conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// CA1: edge `from → to` with equal colors.
    Primary {
        /// Transmitter.
        from: NodeId,
        /// Receiver carrying the same color.
        to: NodeId,
    },
    /// CA2: `a → via` and `b → via` with `color(a) == color(b)`.
    Hidden {
        /// First transmitter (smaller id).
        a: NodeId,
        /// Second transmitter.
        b: NodeId,
        /// Common receiver where the transmissions collide.
        via: NodeId,
    },
    /// A present node has no color at all (incomplete assignment).
    Uncolored(NodeId),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Primary { from, to } => {
                write!(f, "primary collision on {from} → {to}")
            }
            Violation::Hidden { a, b, via } => {
                write!(f, "hidden collision: {a} and {b} collide at {via}")
            }
            Violation::Uncolored(n) => write!(f, "{n} has no code"),
        }
    }
}

/// Checks CA1 and CA2 over the whole network.
///
/// Every present node must be colored. Returns the first violation in
/// deterministic (node-id) order, or `Ok(())`.
///
/// Implementation note: one pass over each node's in-neighbor list
/// suffices — for receiver `w`, CA1 is checked against `color(w)` for
/// each in-neighbor, and CA2 by pairwise distinctness of the
/// in-neighbors' colors. Every directed edge appears in exactly one
/// in-list, so all of CA1 is covered.
pub fn validate(g: &DiGraph, a: &Assignment) -> Result<(), Violation> {
    let mut seen: Vec<(Color, NodeId)> = Vec::new();
    for w in g.nodes() {
        let Some(cw) = a.get(w) else {
            return Err(Violation::Uncolored(w));
        };
        seen.clear();
        for &u in g.in_neighbors(w) {
            let Some(cu) = a.get(u) else {
                return Err(Violation::Uncolored(u));
            };
            if cu == cw {
                return Err(Violation::Primary { from: u, to: w });
            }
            if let Some(&(_, prev)) = seen.iter().find(|&&(c, _)| c == cu) {
                return Err(Violation::Hidden {
                    a: prev.min(u),
                    b: prev.max(u),
                    via: w,
                });
            }
            seen.push((cu, u));
        }
    }
    Ok(())
}

/// Checks CA1 and CA2 **locally**, around a set of seed nodes — the
/// `O(affected neighborhood)` counterpart of [`validate`].
///
/// `seeds` must cover the event's *initiating node* (the one whose
/// edges changed — `minim-net`'s `TopologyDelta::node`) plus every
/// node whose color changed. That is all: the single-node
/// reconfigurations of the model (§2: join/leave/move/power change)
/// only add edges incident to the initiator, so the seed set stays
/// `O(recode set)` regardless of degree. Absent ids are skipped, so a
/// remove delta's vanished node needs no special-casing.
///
/// **Soundness** (why seed-local checking suffices): assume the
/// network satisfied CA1/CA2 before the event. A violation involves
/// either an edge (CA1) or a two-edge path into a shared receiver
/// (CA2). Any *new* violation must involve a new edge (incident to
/// the initiator) or a recolored node — i.e. some seed `s` appears in
/// it as the edge's endpoint, a colliding transmitter, or the shared
/// receiver. Removed edges only remove constraints. Hence checking,
/// for every seed `s`,
///
/// 1. `s` is colored,
/// 2. CA1 across every edge incident to `s`,
/// 3. CA2 for every pair `{s, x}` transmitting into a common receiver
///    (`s` as one of the colliding transmitters),
/// 4. CA2 for every pair of transmitters into `s` (`s` as the shared
///    receiver — this is what a new in-edge `u → s` can violate),
///
/// examines a superset of all possibly-new violations. Cost is
/// `O(Σ_s (Σ_{w ∈ out(s)} deg_in(w) + deg_in(s)²))` — the seeds'
/// 2-hop neighborhood — versus [`validate`]'s same-shaped scan over
/// **every** node of the graph.
///
/// On an invalid *pre*-state the verdict is only guaranteed for
/// violations visible from the seeds; the full [`validate`] remains
/// the from-scratch oracle (and the property tests in
/// `tests/delta_equivalence.rs` pin the two to identical verdicts on
/// the event path).
pub fn validate_delta(g: &DiGraph, a: &Assignment, seeds: &[NodeId]) -> Result<(), Violation> {
    let mut seen: Vec<(Color, NodeId)> = Vec::new();
    for &s in seeds {
        if !g.contains(s) {
            continue; // the seed itself left the network
        }
        let Some(cs) = a.get(s) else {
            return Err(Violation::Uncolored(s));
        };
        // CA1 over out-edges of s; CA2 pairs {s, x} at each receiver
        // s transmits into.
        for &w in g.out_neighbors(s) {
            let Some(cw) = a.get(w) else {
                return Err(Violation::Uncolored(w));
            };
            if cw == cs {
                return Err(Violation::Primary { from: s, to: w });
            }
            for &x in g.in_neighbors(w) {
                if x == s {
                    continue;
                }
                if a.get(x) == Some(cs) {
                    return Err(Violation::Hidden {
                        a: s.min(x),
                        b: s.max(x),
                        via: w,
                    });
                }
            }
        }
        // CA1 over in-edges of s, and CA2 with s as the shared
        // receiver: all transmitters into s must be pairwise distinct
        // (the same seen-list scan `validate` does per node).
        seen.clear();
        for &u in g.in_neighbors(s) {
            let Some(cu) = a.get(u) else {
                return Err(Violation::Uncolored(u));
            };
            if cu == cs {
                return Err(Violation::Primary { from: u, to: s });
            }
            if let Some(&(_, prev)) = seen.iter().find(|&&(c, _)| c == cu) {
                return Err(Violation::Hidden {
                    a: prev.min(u),
                    b: prev.max(u),
                    via: s,
                });
            }
            seen.push((cu, u));
        }
    }
    Ok(())
}

/// Collects **all** violations instead of stopping at the first.
/// Used by tests and by the failure-injection harness.
pub fn violations(g: &DiGraph, a: &Assignment) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in g.nodes() {
        let Some(cw) = a.get(w) else {
            out.push(Violation::Uncolored(w));
            continue;
        };
        let mut seen: Vec<(Color, NodeId)> = Vec::new();
        for &u in g.in_neighbors(w) {
            let Some(cu) = a.get(u) else {
                continue; // reported once when we visit u itself
            };
            if cu == cw {
                out.push(Violation::Primary { from: u, to: w });
            }
            if let Some(&(_, prev)) = seen.iter().find(|&&(c, _)| c == cu) {
                out.push(Violation::Hidden {
                    a: prev.min(u),
                    b: prev.max(u),
                    via: w,
                });
            }
            seen.push((cu, u));
        }
    }
    out
}

/// The conflict partners of `u`: every node that must differ in color
/// from `u` under CA1 or CA2, sorted, deduplicated, excluding `u`.
///
/// Minim's gather and the constraint helpers below do not build this
/// list; they go straight from neighbors to color bitsets.
pub fn conflicts_of(g: &DiGraph, u: NodeId) -> Vec<NodeId> {
    // CA1 partners: both edge directions.
    let mut out = g.out_neighbors(u).to_vec();
    out.extend_from_slice(g.in_neighbors(u));
    // CA2 partners: other transmitters into u's receivers.
    for &w in g.out_neighbors(u) {
        out.extend_from_slice(g.in_neighbors(w));
    }
    out.sort_unstable();
    out.dedup();
    if let Ok(i) = out.binary_search(&u) {
        out.remove(i);
    }
    out
}

/// The colors `u` is forbidden to take — the paper's *constraints* of
/// `u` — i.e. the colors currently assigned to its conflict partners,
/// sorted and deduplicated. Uncolored partners impose no constraint.
pub fn constraint_colors(g: &DiGraph, a: &Assignment, u: NodeId) -> Vec<Color> {
    constraint_colors_with(g, a, u)
}

/// [`constraint_colors`] against any [`ColorRead`] source — used by
/// batch-mode strategy planning, which reads colors through a
/// [`crate::ColorView`] overlay instead of the committed assignment.
pub fn constraint_colors_with<C: ColorRead>(g: &DiGraph, colors: &C, u: NodeId) -> Vec<Color> {
    let mut bits = ColorBits::new();
    let mut out = Vec::new();
    constraint_colors_into(g, colors, u, &mut bits, &mut out);
    out
}

/// [`constraint_colors_with`] into reusable buffers: `bits` is the
/// scratch bitset [`constraint_bits_into`] fills, `out` receives the
/// sorted, deduplicated constraint colors. Both are cleared first;
/// neither allocates once warm.
pub fn constraint_colors_into<C: ColorRead>(
    g: &DiGraph,
    colors: &C,
    u: NodeId,
    bits: &mut ColorBits,
    out: &mut Vec<Color>,
) {
    constraint_bits_into(g, colors, u, bits);
    out.clear();
    out.extend(bits.iter());
}

/// The constraints of `u` as a bitset: `bits` is cleared and filled
/// with the colors of `u`'s CA1 partners (`out(u) ∪ in(u)`) and CA2
/// partners (`in(w) \ {u}` for every receiver `w ∈ out(u)`).
///
/// This is the single-node constraint walk every strategy shares
/// (Minim's fast path and power-increase repick, CP's reselection,
/// gossip, the minimal bounds). It visits the same `O(Σ_w |in(w)|)`
/// two-hop neighborhood as [`conflicts_of`] but builds no node-id list
/// and sorts nothing: a membership test on the result is one bit test
/// and the lowest free color is [`ColorBits::lowest_absent`].
pub fn constraint_bits_into<C: ColorRead>(
    g: &DiGraph,
    colors: &C,
    u: NodeId,
    bits: &mut ColorBits,
) {
    bits.clear();
    let mut add = |p: NodeId| {
        if let Some(c) = colors.color(p) {
            bits.insert(c);
        }
    };
    for &p in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
        add(p);
    }
    for &w in g.out_neighbors(u) {
        for &x in g.in_neighbors(w) {
            if x != u {
                add(x);
            }
        }
    }
}

/// Whether assigning `candidate` to `u` would violate CA1/CA2 against
/// the *current* colors of all other nodes (i.e. `u`'s constraints).
pub fn color_ok(g: &DiGraph, a: &Assignment, u: NodeId, candidate: Color) -> bool {
    let mut bits = ColorBits::new();
    constraint_bits_into(g, a, u, &mut bits);
    !bits.contains(candidate)
}

/// Builds the full conflict graph as an undirected [`UGraph`], together
/// with the node-id ↔ dense-index mapping.
///
/// This is the input to the global coloring heuristics (the BBB
/// baseline recolors exactly this graph at *every* event, so this is a
/// hot path in the §5 experiments). The build goes through a bitset
/// adjacency matrix: CA2 contributes `Σ |in(w)|²/2` pair insertions,
/// which in dense networks would thrash sorted-vec adjacency lists but
/// are single OR instructions here; the final adjacency lists are
/// extracted in one linear scan per row.
pub fn conflict_graph(g: &DiGraph) -> (UGraph, Vec<NodeId>) {
    let ids: Vec<NodeId> = g.nodes().collect();
    let n = ids.len();
    let mut index = std::collections::HashMap::with_capacity(n);
    for (i, &id) in ids.iter().enumerate() {
        index.insert(id, i);
    }
    let words = n.div_ceil(64);
    let mut bits = vec![0u64; n * words];
    let set = |bits: &mut [u64], a: usize, b: usize| {
        bits[a * words + b / 64] |= 1u64 << (b % 64);
        bits[b * words + a / 64] |= 1u64 << (a % 64);
    };
    // CA1 edges.
    for (u, v) in g.edges() {
        set(&mut bits, index[&u], index[&v]);
    }
    // CA2 cliques: the in-neighborhood of every node is a clique.
    let mut in_idx: Vec<usize> = Vec::new();
    for w in g.nodes() {
        in_idx.clear();
        in_idx.extend(g.in_neighbors(w).iter().map(|u| index[u]));
        for i in 0..in_idx.len() {
            for j in (i + 1)..in_idx.len() {
                set(&mut bits, in_idx[i], in_idx[j]);
            }
        }
    }
    // Extract sorted adjacency rows.
    let adjacency: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            let row = &bits[u * words..(u + 1) * words];
            let mut neighbors = Vec::new();
            for (wi, &word) in row.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    neighbors.push(wi * 64 + b);
                    w &= w - 1;
                }
            }
            neighbors
        })
        .collect();
    (UGraph::from_adjacency(adjacency), ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn c(i: u32) -> Color {
        Color::new(i)
    }

    /// 1 → 3 ← 2, plus 3 → 4.
    fn hidden_terminal_graph() -> DiGraph {
        let mut g = DiGraph::new();
        for i in 1..=4 {
            g.insert_node(n(i));
        }
        g.add_edge(n(1), n(3));
        g.add_edge(n(2), n(3));
        g.add_edge(n(3), n(4));
        g
    }

    #[test]
    fn detects_primary_collision() {
        let g = hidden_terminal_graph();
        let a: Assignment = [(n(1), c(1)), (n(2), c(2)), (n(3), c(1)), (n(4), c(3))]
            .into_iter()
            .collect();
        assert_eq!(
            validate(&g, &a),
            Err(Violation::Primary {
                from: n(1),
                to: n(3)
            })
        );
    }

    #[test]
    fn detects_hidden_collision() {
        let g = hidden_terminal_graph();
        // 1 and 2 both transmit into 3 with the same code.
        let a: Assignment = [(n(1), c(1)), (n(2), c(1)), (n(3), c(2)), (n(4), c(3))]
            .into_iter()
            .collect();
        assert_eq!(
            validate(&g, &a),
            Err(Violation::Hidden {
                a: n(1),
                b: n(2),
                via: n(3)
            })
        );
    }

    #[test]
    fn accepts_correct_assignment() {
        let g = hidden_terminal_graph();
        let a: Assignment = [(n(1), c(1)), (n(2), c(2)), (n(3), c(3)), (n(4), c(1))]
            .into_iter()
            .collect();
        assert!(validate(&g, &a).is_ok());
    }

    #[test]
    fn uncolored_node_is_a_violation() {
        let g = hidden_terminal_graph();
        let a: Assignment = [(n(1), c(1)), (n(2), c(2)), (n(3), c(3))]
            .into_iter()
            .collect();
        assert_eq!(validate(&g, &a), Err(Violation::Uncolored(n(4))));
    }

    #[test]
    fn violations_reports_all() {
        let g = hidden_terminal_graph();
        // Primary on 3→4 AND hidden at 3.
        let a: Assignment = [(n(1), c(1)), (n(2), c(1)), (n(3), c(2)), (n(4), c(2))]
            .into_iter()
            .collect();
        let v = violations(&g, &a);
        assert_eq!(v.len(), 2);
        assert!(v.contains(&Violation::Hidden {
            a: n(1),
            b: n(2),
            via: n(3)
        }));
        assert!(v.contains(&Violation::Primary {
            from: n(3),
            to: n(4)
        }));
    }

    #[test]
    fn conflicts_include_both_ca1_and_ca2_partners() {
        let g = hidden_terminal_graph();
        // Node 1: CA1 partner 3 (edge 1→3); CA2 partner 2 (both → 3).
        assert_eq!(conflicts_of(&g, n(1)), vec![n(2), n(3)]);
        // Node 4: only CA1 partner 3 (edge 3→4). Its in-neighbor's other
        // receivers don't constrain it.
        assert_eq!(conflicts_of(&g, n(4)), vec![n(3)]);
        // Node 3: edges with 1, 2, 4. 3→4 has in-neighbors {3}, no CA2.
        assert_eq!(conflicts_of(&g, n(3)), vec![n(1), n(2), n(4)]);
    }

    #[test]
    fn asymmetric_in_neighbors_do_not_conflict_with_each_other_via_in() {
        // u → w ← v makes u,v conflict, but u ← w → v does NOT:
        // receivers of a common transmitter may share a code under TOCA.
        let mut g = DiGraph::new();
        for i in 1..=3 {
            g.insert_node(n(i));
        }
        g.add_edge(n(3), n(1));
        g.add_edge(n(3), n(2));
        assert_eq!(conflicts_of(&g, n(1)), vec![n(3)]);
        let a: Assignment = [(n(1), c(1)), (n(2), c(1)), (n(3), c(2))]
            .into_iter()
            .collect();
        assert!(
            validate(&g, &a).is_ok(),
            "common receiver color reuse is legal"
        );
    }

    #[test]
    fn constraint_colors_and_color_ok() {
        let g = hidden_terminal_graph();
        let a: Assignment = [(n(2), c(2)), (n(3), c(3)), (n(4), c(1))]
            .into_iter()
            .collect();
        // Node 1 conflicts with {2, 3}; their colors are {2, 3}.
        assert_eq!(constraint_colors(&g, &a, n(1)), vec![c(2), c(3)]);
        assert!(color_ok(&g, &a, n(1), c(1)));
        assert!(!color_ok(&g, &a, n(1), c(2)));
        assert!(!color_ok(&g, &a, n(1), c(3)));
        assert!(color_ok(&g, &a, n(1), c(4)));
    }

    #[test]
    fn conflict_graph_has_ca1_edges_and_ca2_cliques() {
        let g = hidden_terminal_graph();
        let (ug, ids) = conflict_graph(&g);
        let idx = |x: NodeId| ids.iter().position(|&i| i == x).unwrap();
        assert!(ug.has_edge(idx(n(1)), idx(n(3))));
        assert!(ug.has_edge(idx(n(2)), idx(n(3))));
        assert!(ug.has_edge(idx(n(3)), idx(n(4))));
        assert!(ug.has_edge(idx(n(1)), idx(n(2))), "CA2 clique edge");
        assert!(!ug.has_edge(idx(n(1)), idx(n(4))));
        assert_eq!(ug.edge_count(), 4);
    }

    #[test]
    fn validate_delta_finds_seed_local_violations() {
        let g = hidden_terminal_graph();
        // Hidden collision 1/2 at 3.
        let a: Assignment = [(n(1), c(1)), (n(2), c(1)), (n(3), c(2)), (n(4), c(3))]
            .into_iter()
            .collect();
        // Visible from either colliding transmitter (rule 3) and from
        // the shared receiver (rule 4) — so seeding just the node that
        // gained the in-edge catches the hidden-terminal case.
        for seed in [1, 2, 3] {
            assert_eq!(
                validate_delta(&g, &a, &[n(seed)]),
                Err(Violation::Hidden {
                    a: n(1),
                    b: n(2),
                    via: n(3)
                }),
                "seed {seed}"
            );
        }
        // Node 4 is two hops from the collision and uninvolved: its
        // local check passes, as the contract promises (it only audits
        // constraints the seed participates in).
        assert!(validate_delta(&g, &a, &[n(4)]).is_ok());
    }

    #[test]
    fn validate_delta_skips_absent_seeds_and_checks_colors() {
        let g = hidden_terminal_graph();
        let a: Assignment = [(n(1), c(1)), (n(2), c(2)), (n(3), c(3)), (n(4), c(1))]
            .into_iter()
            .collect();
        assert!(validate_delta(&g, &a, &[n(99), n(1), n(3)]).is_ok());
        let partial: Assignment = [(n(1), c(1))].into_iter().collect();
        assert_eq!(
            validate_delta(&g, &partial, &[n(3)]),
            Err(Violation::Uncolored(n(3)))
        );
        assert_eq!(
            validate_delta(&g, &partial, &[n(1)]),
            Err(Violation::Uncolored(n(3))),
            "a seed's uncolored partner is reported"
        );
    }

    /// Seeding both endpoints of every changed edge makes the local
    /// check agree with the global one on random single-edge edits of
    /// random colored digraphs — the delta contract in miniature.
    #[test]
    fn validate_delta_agrees_with_full_on_random_edge_insertions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..300 {
            let k = rng.gen_range(3..10u32);
            let mut g = DiGraph::new();
            for i in 0..k {
                g.insert_node(n(i));
            }
            for u in 0..k {
                for v in 0..k {
                    if u != v && rng.gen_bool(0.2) {
                        g.add_edge(n(u), n(v));
                    }
                }
            }
            let a: Assignment = (0..k).map(|i| (n(i), c(rng.gen_range(1..5)))).collect();
            // Pick a random *present* edge as "the newly added one" and
            // only keep iterations where the rest of the graph minus
            // that edge is valid (so the precondition of the local
            // check holds).
            let edges: Vec<_> = g.edges().collect();
            if edges.is_empty() {
                continue;
            }
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            g.remove_edge(u, v);
            if validate(&g, &a).is_err() {
                continue;
            }
            g.add_edge(u, v);
            let local = validate_delta(&g, &a, &[u, v]);
            let full = validate(&g, &a);
            assert_eq!(
                local.is_ok(),
                full.is_ok(),
                "edge {u}→{v}: local {local:?} vs full {full:?}"
            );
        }
    }

    mod constraint_properties {
        use super::*;
        use proptest::prelude::*;

        /// The list-based definition the bitset walk replaced: collect
        /// the conflict partners, map them to colors, sort, dedup.
        fn reference_constraint_colors(g: &DiGraph, a: &Assignment, u: NodeId) -> Vec<Color> {
            let mut colors: Vec<Color> = conflicts_of(g, u)
                .into_iter()
                .filter_map(|p| a.get(p))
                .collect();
            colors.sort_unstable();
            colors.dedup();
            colors
        }

        proptest! {
            /// On random digraphs with colors up to about 200 (one to
            /// four bitset words) and some uncolored nodes, the bitset
            /// walk yields exactly the sorted, deduplicated constraint
            /// colors of every node, and its lowest free color agrees
            /// with the sorted-list rule.
            #[test]
            fn constraint_bits_match_the_sorted_list_reference(
                k in 1u32..40,
                density in 0.0f64..0.4,
                max_color in 1u32..210,
                uncolored in 0.0f64..0.3,
                seed in 0u64..u64::MAX,
            ) {
                use rand::rngs::StdRng;
                use rand::{Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(seed);
                let mut g = DiGraph::new();
                for i in 0..k {
                    g.insert_node(n(i));
                }
                for u in 0..k {
                    for v in 0..k {
                        if u != v && rng.gen_bool(density) {
                            g.add_edge(n(u), n(v));
                        }
                    }
                }
                let a: Assignment = (0..k)
                    .filter_map(|i| {
                        let colored = !rng.gen_bool(uncolored);
                        colored.then(|| (n(i), c(rng.gen_range(1..=max_color))))
                    })
                    .collect();
                let mut bits = ColorBits::new();
                let mut out = Vec::new();
                for u in 0..k {
                    let expected = reference_constraint_colors(&g, &a, n(u));
                    constraint_colors_into(&g, &a, n(u), &mut bits, &mut out);
                    prop_assert_eq!(&out, &expected);
                    prop_assert_eq!(constraint_colors(&g, &a, n(u)), expected.clone());
                    prop_assert_eq!(
                        bits.lowest_absent(),
                        Color::lowest_excluding_sorted(&expected)
                    );
                    for col in 1..=max_color + 1 {
                        prop_assert_eq!(
                            color_ok(&g, &a, n(u), c(col)),
                            !expected.contains(&c(col))
                        );
                    }
                }
            }
        }
    }

    /// A coloring of the conflict graph is proper iff `validate` accepts
    /// it — the two formulations must agree.
    #[test]
    fn conflict_graph_coloring_equivalence_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            // Random digraph on 8 nodes.
            let mut g = DiGraph::new();
            for i in 0..8 {
                g.insert_node(n(i));
            }
            for u in 0..8u32 {
                for v in 0..8u32 {
                    if u != v && rng.gen_bool(0.25) {
                        g.add_edge(n(u), n(v));
                    }
                }
            }
            // Random coloring with 1..=4.
            let a: Assignment = (0..8).map(|i| (n(i), c(rng.gen_range(1..=4)))).collect();
            let (ug, ids) = conflict_graph(&g);
            let proper = ug.edges().all(|(i, j)| a.get(ids[i]) != a.get(ids[j]));
            assert_eq!(validate(&g, &a).is_ok(), proper);
        }
    }
}
