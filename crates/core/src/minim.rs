//! The **Minim** strategy — §4 of the paper.
//!
//! * `RecodeOnJoin` (§4.1) and `RecodeOnMove` (§4.4): recode exactly the
//!   set `1n ∪ 2n ∪ {n}` by solving a maximum-weight bipartite matching
//!   between those nodes and the colors `1..=max`, where `max` is the
//!   largest color appearing in the set's old colors or external
//!   constraints. An edge `(u, k)` exists iff color `k` does not clash
//!   with `u`'s constraints *outside* the set; it weighs 3 when `k` is
//!   `u`'s old color and 1 otherwise. Matched nodes take their matched
//!   color; unmatched nodes take fresh colors `max+1, max+2, …`.
//!   The weight structure makes any maximum-weight matching retain one
//!   holder of every retainable old color (Thm 4.1.8 — minimality) and
//!   maximize the number of matched vertices among such matchings
//!   (Thm 4.1.9 — optimal-among-minimal max color index).
//! * `RecodeOnPowIncrease` (§4.2): all new constraints involve the
//!   initiating node, so at most **it** must change; it takes the
//!   lowest color satisfying its exact constraints.
//! * `RecodeDecreasePowOrLeave` (§4.3): provably nothing to do.
//!
//! Theorem 4.4.1 (move ≡ leave + join) holds for this implementation by
//! construction and is tested below.

use crate::{BatchLocality, ColorPlan, RecodingStrategy};
use minim_graph::conflict;
use minim_graph::{Assignment, Color, ColorBits, DiGraph, NodeId};
use minim_matching::hungarian;
use minim_net::event::{AppliedEvent, PowerDirection};
use minim_net::{Network, TopologyDelta};
use std::cell::RefCell;

/// Weight of a "keep your old color" edge in the matching instance.
/// The paper fixes 3: the smallest integer that survives the swap
/// argument (a keep-edge must outweigh losing *two* unit edges). The
/// ablation bench varies this.
pub const KEEP_WEIGHT: i64 = 3;

/// The paper's minimal recoding strategy family.
#[derive(Debug, Clone)]
pub struct Minim {
    /// Weight for keep-edges (default [`KEEP_WEIGHT`]; the ablation
    /// bench explores alternatives).
    pub keep_weight: i64,
}

impl Default for Minim {
    fn default() -> Self {
        Minim {
            keep_weight: KEEP_WEIGHT,
        }
    }
}

impl Minim {
    /// A Minim variant with a custom keep-edge weight (for ablation;
    /// `keep_weight = 1` degenerates to weight-blind matching).
    pub fn with_keep_weight(keep_weight: i64) -> Self {
        assert!(keep_weight >= 1, "keep weight must be >= 1");
        Minim { keep_weight }
    }

    /// The common engine of `RecodeOnJoin` and `RecodeOnMove`: plans
    /// the recoding of `1n ∪ 2n ∪ {n}` via maximum-weight matching,
    /// **without mutating the network**. The recode set comes straight
    /// out of the delta's neighbor lists; `n` may or may not hold an
    /// old color. All reads stay within two graph hops of the recode
    /// set (the members' external constraints), i.e. within the
    /// event's neighborhood — the `BatchLocality::Neighborhood`
    /// contract.
    fn plan_matching(&self, net: &Network, delta: &TopologyDelta) -> ColorPlan {
        let n = delta.node();
        let assignment = net.assignment();
        let set = delta.recode_set(); // sorted, includes n

        // Fast path (the common case in dense networks): if the old
        // colors across the whole set — `n` included when it holds one
        // — are pairwise distinct, every non-`n` member can keep its
        // color (Lemma 4.1.6 — the event adds no constraints between
        // them and non-set nodes), and only `n` needs attention:
        //
        // * colored `n` whose color avoids its constraints → all keep;
        // * uncolored `n` (a join) → lowest color avoiding its
        //   constraints, which span both the set members (all CA1
        //   partners of `n`) and `n`'s external partners;
        // * colored `n` with a clash → fall through to the full
        //   matching: the optimum may shift a *member* off its color
        //   instead of pushing `n` to a fresh one.
        //
        // This mirrors `plan_recode`'s own fast path exactly, so the
        // distributed protocol (which reconstructs inputs from messages
        // and calls `plan_recode`) computes identical assignments.
        let mut set_colors: Vec<Color> = set.iter().filter_map(|&u| assignment.get(u)).collect();
        set_colors.sort_unstable();
        let distinct = set_colors.windows(2).all(|w| w[0] != w[1]);
        if distinct && self.keep_weight > 1 {
            let mut n_constraints = ColorBits::new();
            conflict::constraint_bits_into(net.graph(), assignment, n, &mut n_constraints);
            match assignment.get(n) {
                Some(c) => {
                    if !n_constraints.contains(c) {
                        // Nothing clashes: zero recodings.
                        return Vec::new();
                    }
                    // External clash: full matching below.
                }
                None => return vec![(n, n_constraints.lowest_absent())],
            }
        }

        let (old, forbidden) = gather_recode_inputs(net, &set);
        let plan = plan_recode(&old, &forbidden, self.keep_weight);
        set.into_iter().zip(plan).collect()
    }

    /// Plans `RecodeOnPowIncrease` (or nothing for decreases) without
    /// mutating the network.
    fn plan_range(
        &self,
        net: &Network,
        id: NodeId,
        dir: PowerDirection,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        match dir {
            PowerDirection::Increase => {
                // All new constraints involve `id` and stem from the
                // delta's added out-edges (§4.2): a clash is possible
                // only at a *new* receiver — against the receiver
                // itself (CA1) or a co-transmitter into it (CA2).
                // Scanning those is O(Δ·deg); the pre-event state is
                // valid by the inductive contract, so old constraints
                // cannot clash.
                let current = net.assignment().get(id);
                let clash = match current {
                    Some(c) => delta.new_receivers().any(|w| {
                        net.assignment().get(w) == Some(c)
                            || net
                                .graph()
                                .in_neighbors(w)
                                .iter()
                                .any(|&x| x != id && net.assignment().get(x) == Some(c))
                    }),
                    None => true,
                };
                if clash {
                    // Repick against the full (old ∪ new) constraints.
                    let mut constraints = ColorBits::new();
                    conflict::constraint_bits_into(
                        net.graph(),
                        net.assignment(),
                        id,
                        &mut constraints,
                    );
                    vec![(id, constraints.lowest_absent())]
                } else {
                    Vec::new()
                }
            }
            PowerDirection::Decrease | PowerDirection::Unchanged => Vec::new(),
        }
    }
}

/// Per-thread buffers of the matching path, reused across events: the
/// gather's node stamps and bitset rows, the cost matrix and the
/// solver's scratch. A thread that never plans a matching allocates
/// none of it; the stamps grow to the largest node id a gather touches.
#[derive(Debug, Default)]
struct Scratch {
    stamps: Stamps,
    receivers: Vec<NodeId>,
    shared: Vec<u64>,
    bits: ColorBits,
    cost: Vec<i64>,
    hungarian: hungarian::Scratch,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Node-indexed epoch stamps: a slot's field means something only
/// while it equals the current epoch, so starting a gather costs one
/// increment instead of a clear.
#[derive(Debug, Default)]
struct Stamps {
    /// The current gather's epoch; never 0 while in use, so a slot
    /// fresh from a resize (all zeros) matches no epoch.
    epoch: u32,
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `== epoch` iff the node is a member of the recode set.
    member: u32,
    /// `== epoch` iff the node is a receiver of the set; `row` is then
    /// its row in the shared bitsets.
    receiver: u32,
    row: u32,
}

impl Stamps {
    /// Starts a new gather. When the epoch wraps, every slot is
    /// cleared once, so a stamp from 2³² gathers ago cannot alias.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill(Slot::default());
            self.epoch = 1;
        }
        self.epoch
    }

    /// The slot of `x`, growing the table to cover it.
    fn slot_mut(&mut self, x: NodeId) -> &mut Slot {
        let i = x.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        &mut self.slots[i]
    }

    /// Whether `x` is outside the current set. Ids beyond the table
    /// were never stamped, so they are outside.
    fn outside(&self, x: NodeId) -> bool {
        self.slots
            .get(x.index())
            .is_none_or(|s| s.member != self.epoch)
    }
}

/// Collects, for each member of the (sorted) recode `set`, its old
/// color and its *external constraints* — the colors of its CA1/CA2
/// conflict partners outside the set (Fig 3 steps 1–2). Returned
/// forbidden lists are sorted and deduplicated.
///
/// Exposed so the distributed protocol layer (`minim-proto`) can
/// cross-check the inputs it reconstructs from messages against the
/// global-state view.
pub fn gather_recode_inputs(net: &Network, set: &[NodeId]) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
    gather(net.graph(), net.assignment(), set)
}

/// [`gather_recode_inputs`] over a bare graph and assignment, on this
/// thread's scratch.
fn gather(g: &DiGraph, a: &Assignment, set: &[NodeId]) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
    SCRATCH.with(|s| gather_with(&mut s.borrow_mut(), g, a, set))
}

/// The gather proper.
///
/// The members of a dense recode set share most of their receivers, so
/// the CA2 half of every member's two-hop walk is done once per event:
/// each receiver `w` of the set gets a color bitset of `in(w) \ set`,
/// and a member's forbidden set is the colors of `(out(u) ∪ in(u)) \
/// set` OR-ed with the bitsets of its receivers. Set membership and the
/// receiver → row map are node-indexed epoch stamps, with rows in
/// first-seen order. Cost is `O(Σ_w |in(w)| + Σ_u (deg(u) +
/// |out(u)|·words))` with `words = max_color / 64 + 1`, against
/// `O(Σ_u Σ_{w ∈ out(u)} |in(w)|)` plus a sort per member for the
/// per-member walk; nothing is proportional to the network's size.
fn gather_with(
    s: &mut Scratch,
    g: &DiGraph,
    a: &Assignment,
    set: &[NodeId],
) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
    debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
    let words = a.max_color_index() as usize / 64 + 1;
    let Scratch {
        stamps,
        receivers,
        shared,
        bits,
        ..
    } = s;
    let epoch = stamps.next_epoch();
    for &m in set {
        stamps.slot_mut(m).member = epoch;
    }
    receivers.clear();
    for &m in set {
        for &w in g.out_neighbors(m) {
            let slot = stamps.slot_mut(w);
            if slot.receiver != epoch {
                slot.receiver = epoch;
                slot.row = receivers.len() as u32;
                receivers.push(w);
            }
        }
    }
    // Row `i` holds the colors of `in(receivers[i]) \ set`. A color's
    // bit is tested before the set-membership stamp.
    shared.clear();
    shared.resize(receivers.len() * words, 0);
    for (row, &w) in shared.chunks_exact_mut(words).zip(receivers.iter()) {
        for &x in g.in_neighbors(w) {
            if let Some(c) = a.get(x) {
                let k = c.index() as usize;
                let bit = 1u64 << (k % 64);
                if row[k / 64] & bit == 0 && stamps.outside(x) {
                    row[k / 64] |= bit;
                }
            }
        }
    }

    let mut old = Vec::with_capacity(set.len());
    let mut forbidden = Vec::with_capacity(set.len());
    for &u in set {
        old.push(a.get(u));
        bits.clear();
        for &p in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
            if let Some(c) = a.get(p) {
                if !bits.contains(c) && stamps.outside(p) {
                    bits.insert(c);
                }
            }
        }
        for &w in g.out_neighbors(u) {
            let i = stamps.slots[w.index()].row as usize;
            bits.union_words(&shared[i * words..(i + 1) * words]);
        }
        forbidden.push(bits.iter().map(Color::index).collect());
    }
    (old, forbidden)
}

/// The matching core of Fig 3 / Fig 8, steps 3–5: given each set
/// member's old color and (sorted, deduplicated) external forbidden
/// colors, plan the new colors.
///
/// `max` is the largest color among old colors and constraints; the
/// bipartite instance matches members against colors `1..=max` with
/// weight `keep_weight` on keep-edges and 1 elsewhere; unmatched
/// members take fresh colors `max+1, max+2, …` in set order (the paper
/// assigns them "randomly"; a deterministic order is an equally valid
/// tie-break and keeps runs reproducible). The instance goes to the
/// solver as a dense `members × max` cost matrix filled straight from
/// the forbidden lists: −1 everywhere, 0 (no edge) on forbidden colors,
/// `−keep_weight` on an old color that is not forbidden.
///
/// This function is pure — the distributed joiner (`minim-proto`) runs
/// it on message-reconstructed inputs and necessarily computes the
/// same plan as the centralized strategy.
///
/// ```
/// use minim_core::{plan_recode, KEEP_WEIGHT};
/// use minim_graph::Color;
/// // Two members share old color 1; a joiner (None) is barred from 1.
/// let old = vec![Some(Color::new(1)), Some(Color::new(1)), None];
/// let forbidden = vec![vec![], vec![], vec![1]];
/// let plan = plan_recode(&old, &forbidden, KEEP_WEIGHT);
/// // Exactly one member keeps color 1 (Thm 4.1.8) and all three
/// // colors are pairwise distinct.
/// let keeps = plan.iter().filter(|&&c| c == Color::new(1)).count();
/// assert_eq!(keeps, 1);
/// ```
///
/// # Panics
/// Panics if the input arrays differ in length or `keep_weight < 1`.
pub fn plan_recode(old: &[Option<Color>], forbidden: &[Vec<u32>], keep_weight: i64) -> Vec<Color> {
    assert_eq!(old.len(), forbidden.len(), "parallel input arrays");
    assert!(keep_weight >= 1, "keep weight must be >= 1");

    // Fast path: when all old colors are pairwise distinct, externally
    // consistent, and at most one member (the joiner) is uncolored,
    // the all-keep plan is a maximum-weight matching for any positive
    // keep weight: it retains every retainable class and has maximum
    // cardinality. The joiner takes the lowest color avoiding the kept
    // colors and its own constraints — the optimal-among-minimal pick.
    // Gated on `keep_weight > 1` so the weight-blind ablation arm
    // exercises the Hungarian solver's own (weight-indifferent) picks.
    if keep_weight > 1 {
        let mut kept: Vec<u32> = old.iter().flatten().map(|c| c.index()).collect();
        kept.sort_unstable();
        let distinct = kept.windows(2).all(|w| w[0] != w[1]);
        let nones = old.iter().filter(|o| o.is_none()).count();
        let consistent = old
            .iter()
            .zip(forbidden)
            .all(|(o, f)| o.is_none_or(|c| f.binary_search(&c.index()).is_err()));
        if distinct && nones <= 1 && consistent {
            return old
                .iter()
                .enumerate()
                .map(|(i, o)| match o {
                    Some(c) => *c,
                    None => Color::lowest_excluding(
                        kept.iter()
                            .chain(forbidden[i].iter())
                            .map(|&k| Color::new(k)),
                    ),
                })
                .collect();
        }
    }

    let mut max = 0u32;
    for c in old.iter().flatten() {
        max = max.max(c.index());
    }
    for f in forbidden {
        debug_assert!(
            f.windows(2).all(|w| w[0] < w[1]),
            "forbidden must be sorted+dedup"
        );
        if let Some(&m) = f.last() {
            max = max.max(m);
        }
    }

    let cols = max as usize;
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.cost.clear();
        s.cost.resize(old.len() * cols, -1);
        // With `max = 0` there are no cells to fill (`.max(1)` only
        // keeps the chunk size legal).
        for ((row, o), f) in s.cost.chunks_exact_mut(cols.max(1)).zip(old).zip(forbidden) {
            // Color 0 is no color, so it bars nothing.
            for &k in f.iter().filter(|&&k| k > 0) {
                row[k as usize - 1] = 0;
            }
            if let Some(c) = o {
                let cell = &mut row[c.index() as usize - 1];
                if *cell != 0 {
                    *cell = -keep_weight;
                }
            }
        }
        let pairs = hungarian::solve(&s.cost, old.len(), cols, &mut s.hungarian);
        let mut fresh = max;
        pairs
            .iter()
            .map(|pair| match *pair {
                Some(r) => Color::new(r as u32 + 1),
                None => {
                    fresh += 1;
                    Color::new(fresh)
                }
            })
            .collect()
    })
}

impl RecodingStrategy for Minim {
    fn name(&self) -> &'static str {
        "Minim"
    }

    /// Minim is the paper's locality result made code: every handler
    /// reads and writes within the event's neighborhood.
    fn batch_locality(&self) -> BatchLocality {
        BatchLocality::Neighborhood
    }

    fn plan_batched(
        &self,
        net: &Network,
        applied: &AppliedEvent,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        match *applied {
            // `RecodeOnJoin` (Fig 3) and `RecodeOnMove` (Fig 8): the
            // same matching, except a mover still holds an old color
            // (its keep-edge weighs `keep_weight` like everyone
            // else's).
            AppliedEvent::Joined(_) | AppliedEvent::Moved(_) => self.plan_matching(net, delta),
            // `RecodeDecreasePowOrLeave`: a leave removes constraints
            // only, so the old assignment stays valid (§4.3).
            AppliedEvent::Left(_) => Vec::new(),
            // `RecodeOnPowIncrease` (Fig 5); passive for decreases.
            AppliedEvent::RangeChanged(id, dir) => self.plan_range(net, id, dir, delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounds, commit_plan, RecodeOutcome};
    use minim_geom::{sample, Point, Rect};
    use minim_graph::NodeId;
    use minim_net::event::Event;
    use minim_net::workload::JoinWorkload;
    use minim_net::{network_from_configs, Network, NodeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn c(i: u32) -> Color {
        Color::new(i)
    }

    /// Plans and commits the recoding for an event whose topology is
    /// already applied to `net` (yielding `delta`).
    fn recode(
        m: &Minim,
        net: &mut Network,
        applied: AppliedEvent,
        delta: &TopologyDelta,
    ) -> RecodeOutcome {
        let plan = m.plan_batched(net, &applied, delta);
        commit_plan(net, &plan)
    }

    /// Builds a random network with Minim handling every join, so the
    /// assignment is always valid. Returns (net, rng).
    fn random_net(count: usize, seed: u64) -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(25.0);
        let mut minim = Minim::default();
        for e in JoinWorkload::paper(count).generate(&mut rng) {
            minim.apply(&mut net, &e);
        }
        assert!(net.validate().is_ok());
        (net, rng)
    }

    #[test]
    fn first_join_gets_color_one() {
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        let cfg = NodeConfig::new(Point::new(0.0, 0.0), 5.0);
        let (applied, out) = m.apply(&mut net, &Event::Join { cfg });
        let id = applied.node();
        assert_eq!(out.recoded, vec![(id, None, c(1))]);
        assert_eq!(net.assignment().get(id), Some(c(1)));
    }

    #[test]
    fn join_reuses_colors_when_possible() {
        // Chain: 0 <-> 1 <-> 2 far apart pairwise except adjacency.
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        for (i, x) in [0.0, 6.0, 12.0].iter().enumerate() {
            let cfg = NodeConfig::new(Point::new(*x, 0.0), 7.0);
            m.apply(&mut net, &Event::Join { cfg });
            let _ = i;
        }
        // 0 and 2 conflict via common receiver 1 (both reach it), so we
        // need 3 colors for the chain; max must be exactly 3.
        assert!(net.validate().is_ok());
        assert_eq!(net.max_color_index(), 3);
    }

    #[test]
    fn join_attains_minimal_bound_on_random_networks() {
        for seed in 0..20 {
            let (mut net, mut rng) = random_net(30, seed);
            let m = Minim::default();
            // One more join; check the outcome against the bound.
            let arena = Rect::paper_arena();
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                sample::uniform_range(&mut rng, 20.5, 30.5),
            );
            let id = net.next_id();
            let delta = net.insert_node(id, cfg);
            let bound = bounds::minimal_bound_join(&net, id);
            // Re-run the recode on the already-inserted topology.
            let out = recode(&m, &mut net, AppliedEvent::Joined(id), &delta);
            assert_eq!(
                out.recodings(),
                bound,
                "seed {seed}: Minim must attain the minimal bound exactly"
            );
            assert!(net.validate().is_ok());
        }
    }

    #[test]
    fn move_attains_minimal_bound_on_random_networks() {
        for seed in 100..115 {
            let (mut net, mut rng) = random_net(25, seed);
            let m = Minim::default();
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let to = sample::random_move(
                &mut rng,
                net.config(victim).unwrap().pos,
                40.0,
                &Rect::paper_arena(),
            );
            let delta = net.move_node(victim, to);
            let bound = bounds::minimal_bound_move(&net, victim);
            let out = recode(&m, &mut net, AppliedEvent::Moved(victim), &delta);
            assert_eq!(
                out.recodings(),
                bound,
                "seed {seed}: RecodeOnMove must attain the minimal move bound"
            );
            assert!(net.validate().is_ok());
        }
    }

    #[test]
    fn power_increase_recodes_at_most_the_initiator() {
        for seed in 200..215 {
            let (mut net, mut rng) = random_net(25, seed);
            let mut m = Minim::default();
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let old_range = net.config(victim).unwrap().range;
            let before = net.snapshot_assignment();
            let range = old_range * 3.0;
            let (_, out) = m.apply(
                &mut net,
                &Event::SetRange {
                    node: victim,
                    range,
                },
            );
            assert!(out.recodings() <= 1, "seed {seed}");
            for &(node, _, _) in &out.recoded {
                assert_eq!(node, victim, "only the initiator may be recoded");
            }
            // And it matches the exact lower bound.
            let mut check = net.clone();
            check.assignment_mut().clone_from(&before);
            // bound computed on post-topology, pre-recode state:
            let bound = bounds::minimal_bound_pow_increase(&check, victim);
            assert_eq!(out.recodings(), bound, "seed {seed}");
            assert!(net.validate().is_ok());
        }
    }

    #[test]
    fn power_decrease_and_leave_are_passive() {
        let (mut net, mut rng) = random_net(25, 999);
        let mut m = Minim::default();
        let ids = net.node_ids();
        let a = ids[rng.gen_range(0..ids.len())];
        let old_range = net.config(a).unwrap().range;
        let range = old_range * 0.5;
        let (_, out) = m.apply(&mut net, &Event::SetRange { node: a, range });
        assert_eq!(out.recodings(), 0, "power decrease is free");
        assert!(net.validate().is_ok());
        let b = ids[0];
        let (_, out) = m.apply(&mut net, &Event::Leave { node: b });
        assert_eq!(out.recodings(), 0, "leave is free");
        assert!(net.validate().is_ok());
    }

    #[test]
    fn unchanged_range_is_a_noop() {
        let (mut net, _) = random_net(10, 31);
        let mut m = Minim::default();
        let a = net.node_ids()[0];
        let r = net.config(a).unwrap().range;
        let (_, out) = m.apply(&mut net, &Event::SetRange { node: a, range: r });
        assert_eq!(out.recodings(), 0);
    }

    /// Theorem 4.4.1: `RecodeOnMove(n)` is exactly
    /// `RecodeDecreasePowOrLeave(n)` at the old position followed by
    /// `RecodeOnJoin(n)` at the new one — "were the moving node n to
    /// leave the network and then join it immediately, this would be
    /// the exact sequence of steps executed" (§4.4). "Immediately"
    /// implies the rejoiner's old color is still known (Fig 8's step 4
    /// weighs it 3); with that color restored before the join's
    /// matching, the two paths run on identical instances and must
    /// produce identical assignments.
    #[test]
    fn move_equals_leave_plus_immediate_join() {
        for seed in 300..312 {
            let (net0, mut rng) = random_net(20, seed);
            let ids = net0.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let cfg = net0.config(victim).unwrap();
            let old_color = net0.assignment().get(victim);
            let to = sample::random_move(&mut rng, cfg.pos, 40.0, &Rect::paper_arena());

            // Path A: RecodeOnMove.
            let mut net_a = net0.clone();
            let mut m = Minim::default();
            m.apply(&mut net_a, &Event::Move { node: victim, to });
            assert!(net_a.validate().is_ok());

            // Path B: leave, then immediately rejoin at the same id
            // with the old color remembered.
            let mut net_b = net0.clone();
            m.apply(&mut net_b, &Event::Leave { node: victim });
            let delta = net_b.insert_node(victim, NodeConfig::new(to, cfg.range));
            if let Some(c) = old_color {
                net_b.assignment_mut().set(victim, c);
            }
            recode(&m, &mut net_b, AppliedEvent::Joined(victim), &delta);
            assert!(net_b.validate().is_ok());

            assert_eq!(
                net_a.snapshot_assignment(),
                net_b.snapshot_assignment(),
                "seed {seed}: move and leave+immediate-join must coincide"
            );
        }
    }

    #[test]
    fn long_event_mix_preserves_validity_and_bounds() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        let arena = Rect::paper_arena();
        for step in 0..300 {
            let roll: f64 = rng.gen();
            if net.node_count() < 5 || roll < 0.4 {
                let cfg = NodeConfig::new(
                    sample::uniform_point(&mut rng, &arena),
                    sample::uniform_range(&mut rng, 15.0, 30.0),
                );
                m.apply(&mut net, &Event::Join { cfg });
            } else {
                let ids = net.node_ids();
                let victim = ids[rng.gen_range(0..ids.len())];
                if roll < 0.55 {
                    m.apply(&mut net, &Event::Leave { node: victim });
                } else if roll < 0.75 {
                    let to = sample::random_move(
                        &mut rng,
                        net.config(victim).unwrap().pos,
                        30.0,
                        &arena,
                    );
                    m.apply(&mut net, &Event::Move { node: victim, to });
                } else {
                    let r = net.config(victim).unwrap().range;
                    let factor = rng.gen_range(0.5..2.0);
                    let range = r * factor;
                    m.apply(
                        &mut net,
                        &Event::SetRange {
                            node: victim,
                            range,
                        },
                    );
                }
            }
            assert!(
                net.validate().is_ok(),
                "step {step} invalidated the network"
            );
        }
        net.check_topology();
    }

    #[test]
    fn keep_weight_one_still_valid_but_recodes_more() {
        // Ablation sanity: weight-blind matching stays correct but
        // loses the minimality guarantee. Aggregate over several
        // networks; blind must never beat weighted.
        let mut total_w = 0usize;
        let mut total_b = 0usize;
        for seed in 500..520 {
            let (net0, mut rng) = random_net(30, seed);
            let arena = Rect::paper_arena();
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                sample::uniform_range(&mut rng, 20.5, 30.5),
            );
            let mut net_w = net0.clone();
            let mut weighted = Minim::default();
            total_w += weighted
                .apply(&mut net_w, &Event::Join { cfg })
                .1
                .recodings();

            let mut net_b = net0.clone();
            let mut blind = Minim::with_keep_weight(1);
            total_b += blind.apply(&mut net_b, &Event::Join { cfg }).1.recodings();
            assert!(net_b.validate().is_ok());
        }
        assert!(
            total_w <= total_b,
            "weighted ({total_w}) must recode no more than blind ({total_b})"
        );
    }

    mod plan_recode_properties {
        use super::super::plan_recode;
        use minim_graph::Color;
        use proptest::prelude::*;

        /// Random well-formed instances: every member's old color (if
        /// any) avoids its own forbidden set — the shape real events
        /// produce (Lemma 4.1.6).
        fn instances() -> impl Strategy<Value = (Vec<Option<Color>>, Vec<Vec<u32>>)> {
            proptest::collection::vec(
                (
                    proptest::option::weighted(0.8, 1u32..6),
                    proptest::collection::btree_set(1u32..8, 0..5),
                ),
                1..7,
            )
            .prop_map(|raw| {
                let mut old = Vec::new();
                let mut forbidden = Vec::new();
                for (o, f) in raw {
                    let f: Vec<u32> = f
                        .into_iter()
                        .filter(|&c| Some(c) != o) // keep olds consistent
                        .collect();
                    old.push(o.map(Color::new));
                    forbidden.push(f);
                }
                (old, forbidden)
            })
        }

        proptest! {
            /// The plan is always proper: pairwise-distinct colors,
            /// none forbidden.
            #[test]
            fn plan_is_proper((old, forbidden) in instances()) {
                let plan = plan_recode(&old, &forbidden, 3);
                prop_assert_eq!(plan.len(), old.len());
                let mut seen = std::collections::HashSet::new();
                for (i, c) in plan.iter().enumerate() {
                    prop_assert!(seen.insert(*c), "duplicate color in plan");
                    prop_assert!(
                        forbidden[i].binary_search(&c.index()).is_err(),
                        "forbidden color assigned"
                    );
                }
            }

            /// Theorem 4.1.8 at the kernel level: the number of members
            /// keeping their old color equals the number of distinct
            /// old colors (every retainable class retains exactly one
            /// member).
            #[test]
            fn plan_keeps_one_per_class((old, forbidden) in instances()) {
                let plan = plan_recode(&old, &forbidden, 3);
                let keeps = plan
                    .iter()
                    .zip(&old)
                    .filter(|(p, o)| Some(**p) == **o)
                    .count();
                let mut classes: Vec<u32> =
                    old.iter().flatten().map(|c| c.index()).collect();
                classes.sort_unstable();
                classes.dedup();
                prop_assert_eq!(keeps, classes.len());
            }

            /// Fresh colors (beyond the instance max) are consecutive —
            /// the Thm 4.1.9 tail structure.
            #[test]
            fn plan_fresh_tail_is_consecutive((old, forbidden) in instances()) {
                let mut max = 0u32;
                for c in old.iter().flatten() {
                    max = max.max(c.index());
                }
                for f in &forbidden {
                    max = max.max(f.last().copied().unwrap_or(0));
                }
                let plan = plan_recode(&old, &forbidden, 3);
                let mut fresh: Vec<u32> = plan
                    .iter()
                    .map(|c| c.index())
                    .filter(|&c| c > max)
                    .collect();
                fresh.sort_unstable();
                for w in fresh.windows(2) {
                    prop_assert_eq!(w[1], w[0] + 1);
                }
                if let Some(&first) = fresh.first() {
                    prop_assert_eq!(first, max + 1);
                }
            }

            /// Any keep weight strictly above 2 yields the same
            /// recoding count: the swap argument nets `w − 2 > 0`, so
            /// every maximum-weight matching keeps one member per
            /// class. (Weight 2 is NOT in this family — see
            /// `keep_weight_two_can_tie_away_minimality` below, which
            /// is why the paper fixes 3 as the *smallest* safe integer.)
            #[test]
            fn all_safe_keep_weights_agree_on_counts((old, forbidden) in instances()) {
                let count = |plan: &[Color]| {
                    plan.iter()
                        .zip(&old)
                        .filter(|(p, o)| Some(**p) != **o)
                        .count()
                };
                let w3 = count(&plan_recode(&old, &forbidden, 3));
                let w5 = count(&plan_recode(&old, &forbidden, 5));
                let w9 = count(&plan_recode(&old, &forbidden, 9));
                prop_assert_eq!(w3, w5);
                prop_assert_eq!(w3, w9);
            }
        }

        /// `plan_recode` as it stood before the dense cost build: the
        /// same fast path, then a `WeightedBipartite` with one binary
        /// search and one insert per cell, solved by the verbatim
        /// textbook Hungarian loop.
        fn reference_plan_recode(
            old: &[Option<Color>],
            forbidden: &[Vec<u32>],
            keep_weight: i64,
        ) -> Vec<Color> {
            use minim_matching::reference::reference_max_weight_matching;
            use minim_matching::WeightedBipartite;
            if keep_weight > 1 {
                let mut kept: Vec<u32> = old.iter().flatten().map(|c| c.index()).collect();
                kept.sort_unstable();
                let distinct = kept.windows(2).all(|w| w[0] != w[1]);
                let nones = old.iter().filter(|o| o.is_none()).count();
                let consistent = old
                    .iter()
                    .zip(forbidden)
                    .all(|(o, f)| o.is_none_or(|c| f.binary_search(&c.index()).is_err()));
                if distinct && nones <= 1 && consistent {
                    return old
                        .iter()
                        .enumerate()
                        .map(|(i, o)| match o {
                            Some(c) => *c,
                            None => Color::lowest_excluding(
                                kept.iter()
                                    .chain(forbidden[i].iter())
                                    .map(|&k| Color::new(k)),
                            ),
                        })
                        .collect();
                }
            }
            let mut max = 0u32;
            for c in old.iter().flatten() {
                max = max.max(c.index());
            }
            for f in forbidden {
                if let Some(&m) = f.last() {
                    max = max.max(m);
                }
            }
            let mut bg = WeightedBipartite::new(old.len(), max as usize);
            for i in 0..old.len() {
                let old_idx = old[i].map(Color::index);
                for k in 1..=max {
                    if forbidden[i].binary_search(&k).is_err() {
                        let w = if old_idx == Some(k) { keep_weight } else { 1 };
                        bg.add_edge(i, (k - 1) as usize, w);
                    }
                }
            }
            let matching = reference_max_weight_matching(&bg);
            let mut fresh = max;
            (0..old.len())
                .map(|i| match matching.pairs[i] {
                    Some(r) => Color::new(r as u32 + 1),
                    None => {
                        fresh += 1;
                        Color::new(fresh)
                    }
                })
                .collect()
        }

        proptest! {
            /// The dense cost build + lazy-potential solver reproduces
            /// the reference plan color for color on Minim-shaped
            /// instances up to 48 members: shared old classes,
            /// uncolored members, externally clashing old colors, every
            /// keep weight in {1, 2, 3, 5}. `shape` 1 leaves everyone
            /// uncolored and unconstrained (`max = 0`); shape 2 draws
            /// forbidden colors only above every old color.
            #[test]
            fn plan_matches_reference_plan(
                members in 0usize..49,
                palette in 1u32..40,
                above in 0u32..25,
                uncolored in 0.0f64..0.4,
                density in 0.0f64..0.6,
                clash in 0.0f64..0.2,
                weight in 0usize..4,
                shape in 0u32..3,
                seed in 0u64..u64::MAX,
            ) {
                use rand::rngs::StdRng;
                use rand::{Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(seed);
                let keep_weight = [1, 2, 3, 5][weight];
                let mut old = Vec::with_capacity(members);
                let mut forbidden = Vec::with_capacity(members);
                for _ in 0..members {
                    let o = (shape != 1 && !rng.gen_bool(uncolored))
                        .then(|| rng.gen_range(1..=palette));
                    let lowest = if shape == 2 { palette + 1 } else { 1 };
                    let f: Vec<u32> = if shape == 1 {
                        Vec::new()
                    } else {
                        (lowest..=palette + above)
                            .filter(|&k| {
                                rng.gen_bool(density) && (Some(k) != o || rng.gen_bool(clash))
                            })
                            .collect()
                    };
                    old.push(o.map(Color::new));
                    forbidden.push(f);
                }
                prop_assert_eq!(
                    plan_recode(&old, &forbidden, keep_weight),
                    reference_plan_recode(&old, &forbidden, keep_weight)
                );
            }
        }
    }

    mod gather_properties {
        use super::super::gather;
        use minim_graph::{conflict, Assignment, Color, DiGraph, NodeId};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// The per-member two-hop walk the shared-receiver gather
        /// replaced: every member's conflict partners, filtered to
        /// those outside the set, mapped to colors, sorted, deduped.
        fn reference_gather(
            g: &DiGraph,
            a: &Assignment,
            set: &[NodeId],
        ) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
            let mut old = Vec::with_capacity(set.len());
            let mut forbidden = Vec::with_capacity(set.len());
            for &u in set {
                old.push(a.get(u));
                let mut ext: Vec<u32> = conflict::conflicts_of(g, u)
                    .into_iter()
                    .filter(|p| set.binary_search(p).is_err())
                    .filter_map(|p| a.get(p))
                    .map(|c| c.index())
                    .collect();
                ext.sort_unstable();
                ext.dedup();
                forbidden.push(ext);
            }
            (old, forbidden)
        }

        proptest! {
            /// The shared-receiver gather equals the per-member walk on
            /// random digraphs. `shape` bit 0 adds a hub receiver every
            /// member transmits into (overlapping out-neighbourhoods),
            /// bit 1 strips the out-edges of every other member;
            /// colors reach about 200 (one to four bitset words) and
            /// some nodes are uncolored.
            #[test]
            fn shared_receiver_gather_matches_reference(
                k in 2u32..50,
                density in 0.0f64..0.5,
                max_color in 1u32..210,
                uncolored in 0.0f64..0.3,
                members in 0.05f64..1.0,
                shape in 0u32..4,
                seed in 0u64..u64::MAX,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut g = DiGraph::new();
                for i in 0..k {
                    g.insert_node(NodeId(i));
                }
                for u in 0..k {
                    for v in 0..k {
                        if u != v && rng.gen_bool(density) {
                            g.add_edge(NodeId(u), NodeId(v));
                        }
                    }
                }
                let a: Assignment = (0..k)
                    .filter_map(|i| {
                        let colored = !rng.gen_bool(uncolored);
                        colored.then(|| (NodeId(i), Color::new(rng.gen_range(1..=max_color))))
                    })
                    .collect();
                let mut set: Vec<NodeId> =
                    (0..k).filter(|_| rng.gen_bool(members)).map(NodeId).collect();
                if set.is_empty() {
                    set.push(NodeId(rng.gen_range(0..k)));
                }
                if shape & 1 != 0 {
                    let hub = NodeId(rng.gen_range(0..k));
                    for &m in &set {
                        if m != hub {
                            g.add_edge(m, hub);
                        }
                    }
                }
                if shape & 2 != 0 {
                    for &m in set.iter().step_by(2) {
                        for w in g.out_neighbors(m).to_vec() {
                            g.remove_edge(m, w);
                        }
                    }
                }
                prop_assert_eq!(gather(&g, &a, &set), reference_gather(&g, &a, &set));
            }

            /// The stamped gather on sparse, large node ids: members
            /// come from the low ids, many of their partners (and the
            /// receivers' in-neighbours) lie above every member's id,
            /// beyond the stamp table a set alone would size. Eight
            /// sets are gathered in a row on this thread, so stamps
            /// from earlier gathers are reused and must not leak.
            #[test]
            fn sparse_large_ids_gather_matches_reference(
                k in 2usize..60,
                spread in 1u32..5000,
                density in 0.0f64..0.4,
                max_color in 1u32..150,
                seed in 0u64..u64::MAX,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ids: Vec<u32> = (0..k).map(|_| rng.gen_range(0..=spread) * 17).collect();
                ids.sort_unstable();
                ids.dedup();
                let mut g = DiGraph::new();
                for &i in &ids {
                    g.insert_node(NodeId(i));
                }
                for &u in &ids {
                    for &v in &ids {
                        if u != v && rng.gen_bool(density) {
                            g.add_edge(NodeId(u), NodeId(v));
                        }
                    }
                }
                let a: Assignment = ids
                    .iter()
                    .filter_map(|&i| {
                        let colored = rng.gen_bool(0.9);
                        colored.then(|| (NodeId(i), Color::new(rng.gen_range(1..=max_color))))
                    })
                    .collect();
                let low = &ids[..ids.len().div_ceil(2)];
                for _ in 0..8 {
                    let mut set: Vec<NodeId> =
                        low.iter().filter(|_| rng.gen_bool(0.4)).map(|&i| NodeId(i)).collect();
                    if set.is_empty() {
                        set.push(NodeId(low[rng.gen_range(0..low.len())]));
                    }
                    prop_assert_eq!(gather(&g, &a, &set), reference_gather(&g, &a, &set));
                }
            }
        }

        /// The epoch wraps: stamps written at epoch 1 by an early
        /// gather would read as members of the first gather after the
        /// wrap (epoch 1 again) unless the wrap clears every slot.
        #[test]
        fn epoch_wrap_clears_stale_stamps() {
            use super::super::{gather_with, Scratch};
            // 0 and 1 both transmit into 2; everyone is colored.
            let mut g = DiGraph::new();
            for i in 0..5 {
                g.insert_node(NodeId(i));
            }
            g.add_edge(NodeId(0), NodeId(2));
            g.add_edge(NodeId(1), NodeId(2));
            g.add_edge(NodeId(3), NodeId(4));
            let a: Assignment = (0..5).map(|i| (NodeId(i), Color::new(i + 1))).collect();
            let mut s = Scratch::default();
            let check = |s: &mut Scratch, set: &[NodeId]| {
                assert_eq!(gather_with(s, &g, &a, set), reference_gather(&g, &a, set));
            };
            // Epoch 1 stamps 0 and 1 as members.
            check(&mut s, &[NodeId(0), NodeId(1)]);
            assert_eq!(s.stamps.epoch, 1);
            // Jump to the end of the epoch range and run across it.
            s.stamps.epoch = u32::MAX - 1;
            check(&mut s, &[NodeId(3)]);
            assert_eq!(s.stamps.epoch, u32::MAX);
            // Epoch 1 again: 0 and 1 are outside {2}, so their colors
            // 1 and 2 must be forbidden to it.
            check(&mut s, &[NodeId(2)]);
            assert_eq!(s.stamps.epoch, 1);
            assert_eq!(
                gather_with(&mut s, &g, &a, &[NodeId(2)]).1,
                vec![vec![1, 2]]
            );
        }
    }

    /// Found by the property suite: with keep weight 2, dropping a
    /// keep-edge (−2) to rescue two unit matches (+1 +1) is weight-
    /// *neutral*, so a maximum-weight matching may legally shuffle a
    /// keeper and exceed the minimal recoding count. Weight 3 makes
    /// the swap strictly losing — the paper's choice is the smallest
    /// safe integer, and this instance is the witness.
    #[test]
    fn keep_weight_two_can_tie_away_minimality() {
        use minim_graph::Color;
        let c = Color::new;
        // Keepers hold 4, 2, 5; two joiners need colors, one barred
        // from {1, 3}. The only way to match both joiners ≤ max is to
        // evict the color-5 keeper — a tie at weight 2, a loss at 3.
        let old = vec![Some(c(4)), Some(c(2)), None, None, Some(c(5))];
        let forbidden = vec![vec![], vec![], vec![1, 3], vec![], vec![]];
        let count = |plan: &[Color]| {
            plan.iter()
                .zip(&old)
                .filter(|(p, o)| Some(**p) != **o)
                .count()
        };
        let w3 = count(&plan_recode(&old, &forbidden, 3));
        assert_eq!(w3, 2, "weight 3 keeps all three keepers");
        let w2 = count(&plan_recode(&old, &forbidden, 2));
        assert!(w2 >= w3, "weight 2 may tie-break into extra recodings");
    }

    #[test]
    fn matching_recode_with_no_neighbors_is_cheap() {
        let mut net = network_from_configs(10.0, &[(Point::new(0.0, 0.0), 3.0)]);
        net.set_color(n(0), c(1));
        let mut m = Minim::default();
        // A joiner out of everyone's range: gets color 1 (no
        // constraints), network stays valid.
        let cfg = NodeConfig::new(Point::new(50.0, 50.0), 3.0);
        let (applied, out) = m.apply(&mut net, &Event::Join { cfg });
        let id = applied.node();
        assert_eq!(out.recoded, vec![(id, None, c(1))]);
        assert!(net.validate().is_ok());
    }
}
