//! Exact maximum-weight bipartite matching.
//!
//! Hungarian algorithm (Kuhn–Munkres) with dual potentials and
//! Dijkstra-style augmentation, the classic `O(n² m)` formulation.
//! The assignment-problem core requires a perfect matching on rows, so
//! we reduce: maximize weight ⇢ minimize negated cost, and append one
//! *dummy column* per row with cost 0 so that every row can always be
//! "matched" (to being unmatched). Non-edges also cost 0 — at an
//! optimum they are interchangeable with dummies (any non-edge pair
//! that blocked a genuinely useful column could be moved to a dummy at
//! equal cost and strictly smaller total cost for the displaced row, a
//! contradiction) — and are filtered from the reported matching.
//!
//! With all real weights strictly positive, the optimum simultaneously:
//!
//! * attains the maximum total weight (by construction), which for the
//!   Minim instances (keep-edges weight 3, others weight 1) implies the
//!   minimal-recoding and optimal-among-minimal properties proved in
//!   Appendix A of the paper (Theorems 4.1.8 / 4.1.9): any matching
//!   missing a retainable old color, or matching fewer vertices, has
//!   strictly smaller weight by the swap argument.

use crate::{Matching, WeightedBipartite};

const INF: i64 = i64::MAX / 4;

/// Computes a maximum-weight matching of `g`. Vertices may remain
/// unmatched; with strictly positive weights the result is always a
/// *maximal* matching (no edge can be added), and its total weight is
/// globally optimal.
#[allow(clippy::needless_range_loop)] // dual updates are index-coupled across u/v/p
pub fn max_weight_matching(g: &WeightedBipartite) -> Matching {
    let n = g.left_count(); // rows
    let rc = g.right_count();
    let m = rc + n; // real columns + one dummy column per row
    if n == 0 {
        return Matching {
            pairs: Vec::new(),
            weight: 0,
        };
    }

    // Dense costs, built once from the adjacency lists:
    // `cost[l * rc + r]` is the negated weight of real edge (l, r) and
    // 0 for a non-edge; dummy columns cost 0. The Dijkstra scans below
    // index one row slice instead of searching `g` per cell. Rows and
    // columns are 1-indexed in the loops (index 0 = sentinel).
    let mut cost = vec![0i64; n * rc];
    for l in 0..n {
        for &(r, w) in g.neighbors(l) {
            cost[l * rc + r] = -w;
        }
    }

    // Potentials and matching state (e-maxx formulation).
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; m + 1];
    let mut p = vec![0usize; m + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; m + 1];
    let mut minv = vec![INF; m + 1];
    let mut used = vec![false; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(INF);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let row = &cost[(i0 - 1) * rc..i0 * rc];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let c = if j <= rc { row[j - 1] } else { 0 };
                let cur = c - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta < INF, "augmentation must always succeed (dummies)");
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    // Extract: row -> column, keeping only genuine edges.
    let mut pairs = vec![None; n];
    let mut weight = 0i64;
    for j in 1..=rc {
        let i = p[j];
        if i == 0 {
            continue;
        }
        if let Some(w) = g.weight(i - 1, j - 1) {
            pairs[i - 1] = Some(j - 1);
            weight += w;
        }
    }
    let result = Matching { pairs, weight };
    debug_assert!(result.validate(g).is_ok());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use proptest::prelude::*;

    /// The solver as it stood before the dense cost matrix: `g.weight()`
    /// per cell and fresh `minv`/`used` per row. Kept verbatim as the
    /// oracle that pins [`max_weight_matching`]'s pairs and tie-breaks.
    #[allow(clippy::needless_range_loop)] // dual updates are index-coupled across u/v/p
    fn reference_max_weight_matching(g: &WeightedBipartite) -> Matching {
        let n = g.left_count(); // rows
        let rc = g.right_count();
        let m = rc + n; // real columns + one dummy column per row
        if n == 0 {
            return Matching {
                pairs: Vec::new(),
                weight: 0,
            };
        }

        // cost(i, j): negated weight for real edges, 0 for non-edges and
        // dummy columns. 1-indexed internally (index 0 = sentinel).
        let cost = |i: usize, j: usize| -> i64 {
            // i, j are 1-indexed row/column.
            if j <= rc {
                g.weight(i - 1, j - 1).map_or(0, |w| -w)
            } else {
                0
            }
        };

        // Potentials and matching state (e-maxx formulation).
        let mut u = vec![0i64; n + 1];
        let mut v = vec![0i64; m + 1];
        let mut p = vec![0usize; m + 1]; // p[j] = row matched to column j
        let mut way = vec![0usize; m + 1];

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![INF; m + 1];
            let mut used = vec![false; m + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = cost(i0, j) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                debug_assert!(delta < INF, "augmentation must always succeed (dummies)");
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Unwind the augmenting path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        // Extract: row -> column, keeping only genuine edges.
        let mut pairs = vec![None; n];
        let mut weight = 0i64;
        for j in 1..=rc {
            let i = p[j];
            if i == 0 {
                continue;
            }
            if let Some(w) = g.weight(i - 1, j - 1) {
                pairs[i - 1] = Some(j - 1);
                weight += w;
            }
        }
        let result = Matching { pairs, weight };
        debug_assert!(result.validate(g).is_ok());
        result
    }

    #[test]
    fn empty_instances() {
        let g = WeightedBipartite::new(0, 0);
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(m.weight, 0);

        let g = WeightedBipartite::new(3, 0);
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 0);

        let g = WeightedBipartite::new(0, 3);
        let m = max_weight_matching(&g);
        assert_eq!(m.pairs.len(), 0);
    }

    #[test]
    fn single_edge() {
        let mut g = WeightedBipartite::new(1, 1);
        g.add_edge(0, 0, 7);
        let m = max_weight_matching(&g);
        assert_eq!(m.pairs, vec![Some(0)]);
        assert_eq!(m.weight, 7);
    }

    #[test]
    fn prefers_heavier_edge() {
        // Both lefts want right 0; left 1's edge is heavier, left 0 has
        // an alternative.
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 0, 3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 5);
        let m = max_weight_matching(&g);
        assert_eq!(m.weight, 6);
        assert_eq!(m.pairs, vec![Some(1), Some(0)]);
    }

    #[test]
    fn weight_beats_cardinality_when_forced() {
        // The single heavy edge {(0,0)} (weight 10) beats the
        // max-cardinality matching {(0,1),(1,0)} (weight 2): with left 1
        // connected only to right 0, taking (0,0) leaves left 1
        // unmatched, and that is still optimal.
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 0, 10);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 1);
        let m = max_weight_matching(&g);
        assert_eq!(m.weight, 10);
        assert_eq!(m.pairs, vec![Some(0), None]);
        assert_eq!(m.weight, brute::brute_force_max_weight(&g).weight);
    }

    #[test]
    fn minim_style_instance_keeps_old_colors() {
        // Paper Fig 4(b)-like: three nodes with old colors {1, 1, 3}
        // (so color classes K1=2, K3=1) plus the joiner; colors 1..=3.
        // Everything is mutually assignable (no external constraints).
        // Old-color edges weigh 3. Minimal recoding: one of the two
        // color-1 nodes keeps 1, the color-3 node keeps 3, the other
        // color-1 node and the joiner get other colors.
        let mut g = WeightedBipartite::new(4, 4);
        // lefts: 0,1 old color 1; 2 old color 3; 3 = joiner (no old).
        for l in 0..4 {
            for r in 0..4 {
                let keep = ((l == 0 || l == 1) && r == 0) || (l == 2 && r == 2);
                let w = if keep { 3 } else { 1 };
                g.add_edge(l, r, w);
            }
        }
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 4, "all four get colors");
        // Old colors 1 and 3 must both be retained by someone who had
        // them (weight argument of Thm 4.1.8).
        let kept_1 = m.pairs[0] == Some(0) || m.pairs[1] == Some(0);
        let kept_3 = m.pairs[2] == Some(2);
        assert!(kept_1, "one of the color-1 nodes must keep color 1");
        assert!(kept_3, "the color-3 node must keep color 3");
        assert_eq!(m.weight, 3 + 3 + 1 + 1);
    }

    #[test]
    fn respects_missing_edges() {
        // Left 0 may only take right 1; right 0 is exclusive to left 1.
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 3);
        g.add_edge(1, 1, 3);
        let m = max_weight_matching(&g);
        assert_eq!(m.pairs, vec![Some(1), Some(0)]);
        assert_eq!(m.weight, 4);
    }

    #[test]
    fn leaves_vertices_unmatched_when_graph_is_sparse() {
        let mut g = WeightedBipartite::new(3, 1);
        g.add_edge(0, 0, 1);
        g.add_edge(1, 0, 2);
        g.add_edge(2, 0, 1);
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.pairs[1], Some(0), "heaviest contender wins");
    }

    #[test]
    fn rectangular_wide() {
        let mut g = WeightedBipartite::new(2, 6);
        g.add_edge(0, 5, 2);
        g.add_edge(1, 5, 3);
        g.add_edge(1, 0, 1);
        let m = max_weight_matching(&g);
        // Left 0 reaches only right 5, which left 1 also wants; the two
        // optima are {(1,5)} = 3 and {(0,5),(1,0)} = 2+1 = 3.
        assert_eq!(m.weight, 3);
        assert!(m.validate(&g).is_ok());
    }

    /// The optimum on dense general-weight instances up to 7 × 7 —
    /// larger and denser than the proptest below reaches.
    #[test]
    fn matches_brute_force_on_random_dense_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let l = rng.gen_range(1..8);
            let r = rng.gen_range(1..8);
            let mut g = WeightedBipartite::new(l, r);
            for i in 0..l {
                for j in 0..r {
                    if rng.gen_bool(0.7) {
                        g.add_edge(i, j, rng.gen_range(1..12));
                    }
                }
            }
            let fast = max_weight_matching(&g);
            assert!(fast.validate(&g).is_ok());
            assert_eq!(fast.weight, brute::brute_force_max_weight(&g).weight);
        }
    }

    proptest! {
        /// The Hungarian result matches the brute-force optimum in
        /// total weight on random small instances, and is always valid.
        #[test]
        fn matches_brute_force(
            l in 0usize..6,
            r in 0usize..6,
            edges in proptest::collection::vec((0usize..6, 0usize..6, 1i64..10), 0..24)
        ) {
            let mut g = WeightedBipartite::new(l, r);
            for (a, b, w) in edges {
                if a < l && b < r {
                    g.add_edge(a, b, w);
                }
            }
            let fast = max_weight_matching(&g);
            prop_assert!(fast.validate(&g).is_ok());
            let slow = brute::brute_force_max_weight(&g);
            prop_assert_eq!(fast.weight, slow.weight);
        }

        /// The dense-cost solver reproduces the reference solver
        /// exactly — the same `pairs`, not only the same weight — on
        /// Minim-shaped `{1, 3}` instances up to 60 × 130, so every
        /// tie-break a recode plan depends on is pinned.
        #[test]
        fn dense_costs_reproduce_reference_pairs(
            l in 0usize..61,
            r in 0usize..131,
            density in 0.0f64..1.0,
            keep in 0.0f64..0.3,
            seed in 0u64..u64::MAX,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = WeightedBipartite::new(l, r);
            for a in 0..l {
                for b in 0..r {
                    if rng.gen_bool(density) {
                        g.add_edge(a, b, if rng.gen_bool(keep) { 3 } else { 1 });
                    }
                }
            }
            let fast = max_weight_matching(&g);
            let reference = reference_max_weight_matching(&g);
            prop_assert_eq!(&fast.pairs, &reference.pairs);
            prop_assert_eq!(fast.weight, reference.weight);
        }

        /// With uniform weights, max-weight == max-cardinality (scaled).
        #[test]
        fn uniform_weights_give_max_cardinality(
            edges in proptest::collection::vec((0usize..7, 0usize..7), 0..30)
        ) {
            let mut g = WeightedBipartite::new(7, 7);
            for (a, b) in edges {
                g.add_edge(a, b, 1);
            }
            let mw = max_weight_matching(&g);
            let mc = crate::hopcroft_karp(&g);
            prop_assert_eq!(mw.weight as usize, mc.cardinality());
            prop_assert_eq!(mw.cardinality(), mc.cardinality());
        }

        /// Maximality: no edge can be added to the returned matching
        /// (both endpoints free) — guaranteed because weights are
        /// positive.
        #[test]
        fn result_is_maximal(
            edges in proptest::collection::vec((0usize..6, 0usize..6, 1i64..5), 0..20)
        ) {
            let mut g = WeightedBipartite::new(6, 6);
            for (a, b, w) in edges {
                g.add_edge(a, b, w);
            }
            let m = max_weight_matching(&g);
            let mut right_used = [false; 6];
            for p in m.pairs.iter().flatten() {
                right_used[*p] = true;
            }
            for l in 0..6 {
                if m.pairs[l].is_none() {
                    for &(r, _) in g.neighbors(l) {
                        prop_assert!(
                            right_used[r],
                            "edge ({l},{r}) could be added — not maximal"
                        );
                    }
                }
            }
        }
    }
}
