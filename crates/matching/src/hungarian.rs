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
//!
//! # One solver, lazy potentials
//!
//! [`solve`] is the only solver loop; [`max_weight_matching`] fills its
//! dense cost matrix from a [`WeightedBipartite`]. `solve` runs the
//! e-maxx formulation row by row, but defers the dual updates that the
//! textbook loop applies after every Dijkstra step:
//!
//! * Only the unused columns are scanned, from a list kept in ascending
//!   order, so the first column attaining the minimum is the same one
//!   the full scan would pick.
//! * A column's running minimum is stored as its textbook value plus
//!   the delta accumulated so far in the row (`acc`), so nothing is
//!   decremented per step: the next `delta` is the smallest stored
//!   minimum minus `acc`, and `acc` becomes that stored minimum.
//! * Each column records the `acc` at which it was marked used. The
//!   textbook loop adds every later delta to `u[p[j]]` and subtracts it
//!   from `v[j]`, i.e. `acc_final − acc_marked` in total; that sum is
//!   applied once per row, before the augmenting path is unwound. A
//!   row is only read (as `u[i0]`) in the step its column is marked,
//!   when it has received no delta yet, so the deferred values are
//!   never needed earlier.
//!
//! Every comparison of the textbook loop therefore compares the same
//! two integers shifted by the same `acc`, so the lazy loop takes the
//! same branch every time: `u`, `v` and the column → row map `p` are
//! identical after every row, and so is the matching, tie-breaks
//! included. `reference::reference_max_weight_matching` (test-only)
//! keeps the textbook loop verbatim as the oracle for that claim.

use crate::{Matching, WeightedBipartite};

const INF: i64 = i64::MAX / 4;

/// Reusable buffers for [`solve`]. A default value is empty; buffers
/// grow to the largest instance solved and are reused, so a caller
/// that keeps one `Scratch` allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Row potentials, 1-indexed (index 0 unused).
    u: Vec<i64>,
    /// Column potentials, 1-indexed (index 0 = the start sentinel).
    v: Vec<i64>,
    /// `p[j]`: the row matched to column `j` (0 = none).
    p: Vec<usize>,
    /// Predecessor column on the shortest-path tree.
    way: Vec<usize>,
    /// Running minimum of each unused column, plus the row's `acc`.
    minv: Vec<i64>,
    /// The `acc` at which each used column was marked.
    marked_at: Vec<i64>,
    /// Unused columns, ascending.
    free: Vec<usize>,
    /// Used columns of the current row, in marking order.
    used: Vec<usize>,
    /// The result: `pairs[row]` is the matched real column, if any.
    pairs: Vec<Option<usize>>,
}

/// Solves the assignment behind a maximum-weight matching on a dense
/// `rows × cols` cost matrix (row-major, `cost[r * cols + c]`).
///
/// A negative cell `-w` is an edge of weight `w`; a zero cell is a
/// non-edge. Positive cells are not allowed. Each row is assigned to a
/// distinct real column or to a zero-cost dummy of its own, minimising
/// the total cost, i.e. maximising the total weight. Returns, per row,
/// its matched real column, or `None` when it took a dummy or a
/// non-edge. The tie-breaks are those of the textbook e-maxx loop (see
/// the module docs).
///
/// # Panics
/// Panics if `cost.len() != rows * cols`.
pub fn solve<'s>(
    cost: &[i64],
    rows: usize,
    cols: usize,
    s: &'s mut Scratch,
) -> &'s [Option<usize>] {
    assert_eq!(cost.len(), rows * cols, "cost must be rows × cols");
    debug_assert!(cost.iter().all(|&c| c <= 0), "costs are negated weights");
    let (n, rc) = (rows, cols);
    let m = rc + n; // real columns + one dummy column per row
    s.pairs.clear();
    s.pairs.resize(n, None);
    if n == 0 {
        return &s.pairs;
    }
    // Potentials and the matching start at zero; `way`, `minv` and
    // `marked_at` are written before they are read.
    s.u.clear();
    s.u.resize(n + 1, 0);
    s.v.clear();
    s.v.resize(m + 1, 0);
    s.p.clear();
    s.p.resize(m + 1, 0);
    s.way.resize(m + 1, 0);
    s.minv.resize(m + 1, INF);
    s.marked_at.resize(m + 1, 0);
    let Scratch {
        u,
        v,
        p,
        way,
        minv,
        marked_at,
        free,
        used,
        pairs,
    } = s;

    for i in 1..=n {
        p[0] = i;
        free.clear();
        free.extend(1..=m);
        minv[1..].fill(INF);
        used.clear();
        used.push(0);
        marked_at[0] = 0;
        // `free[..real]` are the free real columns, `free[real..]` the
        // free dummies (all of cost 0).
        let mut real = rc;
        let mut acc = 0i64;
        let mut j0 = 0usize;
        loop {
            // Column `j0` was marked at the current `acc`, so row `i0`
            // has received no deferred delta: `u[i0]` is exact.
            let i0 = p[j0];
            let base = acc - u[i0];
            let row = &cost[(i0 - 1) * rc..i0 * rc];
            let mut best = INF;
            let mut at = 0usize;
            for (k, &j) in free[..real].iter().enumerate() {
                let cur = row[j - 1] + base - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < best {
                    best = minv[j];
                    at = k;
                }
            }
            for (k, &j) in free[real..].iter().enumerate() {
                let cur = base - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < best {
                    best = minv[j];
                    at = real + k;
                }
            }
            debug_assert!(best < INF, "augmentation must always succeed (dummies)");
            acc = best;
            j0 = free.remove(at);
            if at < real {
                real -= 1;
            }
            if p[j0] == 0 {
                break;
            }
            marked_at[j0] = acc;
            used.push(j0);
        }
        // The deferred dual updates, then unwind the augmenting path.
        for &j in used.iter() {
            let d = acc - marked_at[j];
            u[p[j]] += d;
            v[j] -= d;
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    for j in 1..=rc {
        let i = p[j];
        if i != 0 && cost[(i - 1) * rc + j - 1] < 0 {
            pairs[i - 1] = Some(j - 1);
        }
    }
    pairs
}

/// Computes a maximum-weight matching of `g`. Vertices may remain
/// unmatched; with strictly positive weights the result is always a
/// *maximal* matching (no edge can be added), and its total weight is
/// globally optimal.
///
/// A thin wrapper over [`solve`]: the dense cost matrix holds `-w` for
/// every edge `(l, r, w)` and 0 elsewhere.
pub fn max_weight_matching(g: &WeightedBipartite) -> Matching {
    let (n, rc) = (g.left_count(), g.right_count());
    let mut cost = vec![0i64; n * rc];
    for l in 0..n {
        for &(r, w) in g.neighbors(l) {
            cost[l * rc + r] = -w;
        }
    }
    let pairs = solve(&cost, n, rc, &mut Scratch::default()).to_vec();
    let weight = pairs
        .iter()
        .enumerate()
        .filter_map(|(l, r)| r.map(|r| -cost[l * rc + r]))
        .sum();
    let result = Matching { pairs, weight };
    debug_assert!(result.validate(g).is_ok());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::reference::reference_max_weight_matching;
    use proptest::prelude::*;

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
