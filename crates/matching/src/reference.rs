//! The textbook (eager) Hungarian loop, kept as a test oracle.
//!
//! [`reference_max_weight_matching`] is the solver as it stood before
//! the dense cost matrix and the lazy potentials of
//! [`crate::hungarian::solve`]: `g.weight()` per cell, fresh
//! `minv`/`used` per row, and the dual updates applied after every
//! Dijkstra step. The exactness proptests compare the production solver
//! (`hungarian::tests`) and `minim_core::plan_recode` against it pair
//! for pair. Compiled for this crate's tests and, through the `oracle`
//! feature, for dependants' tests; never part of the event path.

use crate::{Matching, WeightedBipartite};

const INF: i64 = i64::MAX / 4;

/// The solver as it stood before the dense cost matrix: `g.weight()`
/// per cell and fresh `minv`/`used` per row. Kept verbatim as the
/// oracle that pins [`crate::max_weight_matching`]'s pairs and tie-breaks.
#[allow(clippy::needless_range_loop)] // dual updates are index-coupled across u/v/p
pub fn reference_max_weight_matching(g: &WeightedBipartite) -> Matching {
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
