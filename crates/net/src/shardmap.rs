//! Persistent spatial-ownership shard map — the planning layer of the
//! resident executor.
//!
//! The paper's locality result says one reconfiguration event only
//! perturbs (and a strategy only reads) a bounded spatial neighborhood
//! of the initiating node. Events whose neighborhoods are disjoint
//! therefore **commute**: applying them in either order — or on
//! different copies of the affected regions — produces the same
//! network. A [`ShardMap`] partitions the arena once into **persistent
//! ownership regions** (grid cells mapped to a fixed set of shards,
//! seeded from a claim-cell union-find over the current node
//! population and the same cell geometry the stratified index uses),
//! and each event slice is merely *routed* against that standing
//! partition in `O(events · claim cells)` — independent of `N`.
//!
//! # The conservative neighborhood
//!
//! Let `B` be an upper bound on every transmission range that can
//! occur while the slice executes (the network's tier-derived
//! [`Network::range_bound`] joined with every range the events
//! themselves introduce — since the bound *tightens* when long-range
//! nodes shrink or leave, claim radii shrink with it). Measured from
//! the event's anchor position(s), every strategy read or write stays
//! within a bounded number of graph hops, each of length ≤ `B`:
//!
//! * topology changes are incident to the initiator — reach ≤ `B`;
//! * join/move/leave recoding writes the recode set (one hop, ≤ `B`)
//!   and reads its members' constraint colors and 2-hop surroundings
//!   — reach ≤ `3B`;
//! * a power increase under CP can rewrite two-hop nodes (`≤ 2B`)
//!   whose reselection reads two hops further — reach ≤ `4B`.
//!
//! Each event therefore claims every grid cell intersecting a disc of
//! radius `3B` (`4B` for range changes) around its anchors. Two events
//! can read or write common state only if their claims share a cell.
//! Cell granularity only ever *adds* conflicts, never hides one, so
//! any partition built on claim cells stays sound.
//!
//! # Routing and the border rule
//!
//! Every event claims the conservative footprint above, with `B` the
//! slice-wide range bound. Routing walks the slice in order and
//! classifies each event:
//!
//! * **Interior** — every claimed cell is owned by one shard (cells
//!   not yet owned by anyone are *annexed* to that shard on the
//!   spot). The event can run on that shard's resident subnetwork,
//!   concurrently with other shards' interior events.
//! * **Border** — the claim touches cells owned by ≥ 2 shards. The
//!   event must run in the serialized border pass (see
//!   `minim-sim::runner`'s resident executor), after every earlier
//!   interior event and before every later one. Unowned claimed cells
//!   are annexed to the lowest-numbered touched shard.
//!
//! # Why this is order-sound
//!
//! Two events of one slice can read or write common state only if
//! their claims share a cell (the conservative-neighborhood argument
//! above). Walk the routing scan: when event `a` claims cell `c`, `c`
//! ends up owned by a's shard (interior) or by some touched shard
//! (border) — ownership never changes afterwards. A later event `b`
//! claiming `c` therefore *sees* `c` owned:
//!
//! * if `b` is interior to the same shard, FIFO order within the
//!   shard preserves `a` before `b`;
//! * in every other case at least one of `a`, `b` is a border event,
//!   and the border pass is a barrier: it runs after all earlier
//!   interior events have flushed and before any later event starts.
//!
//! So every claim-sharing pair executes in original order, and
//! disjoint-claim pairs commute — the schedule is
//! conflict-serializable, equivalent to sequential execution. The
//! equivalence suite (`tests/resident_equivalence.rs`) pins the
//! resulting bit-identity; docs/ARCHITECTURE.md spells the argument
//! out alongside the replica-coherence invariant the executor
//! maintains.

use crate::event::Event;
use crate::Network;
use minim_geom::grid::{cell_coord, cell_cover};
use minim_geom::Point;
use minim_graph::{NodeId, UnionFind};
use std::collections::HashMap;

/// Seeding connects populated cells within this Chebyshev distance
/// (in cells) into one ownership region. Any value is *sound* — the
/// border rule serializes whatever the seed misses — but larger
/// values merge regions (fewer frontier crossings, less parallelism)
/// and smaller values split them (more border events). Four cells ≈
/// the `3B`–`4B` claim reach at the seeded cell size.
const SEED_REACH: i32 = 4;

/// How one routed event executes under a persistent ownership map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Every claimed cell is owned by this shard: the event runs on
    /// the shard's resident subnetwork, in parallel with other
    /// shards' interior events.
    Interior(u32),
    /// The claim crosses a shard frontier: the event runs in the
    /// serialized border pass. The owning shards it touches are
    /// `SliceRoute::touched[touched_start..touched_end]`, ascending.
    Border {
        /// Start of this event's slice of `SliceRoute::touched`.
        touched_start: u32,
        /// End (exclusive) of this event's slice of
        /// `SliceRoute::touched`.
        touched_end: u32,
    },
}

/// One slice's routing decision, with every buffer recycled across
/// slices — steady-state routing allocates nothing (pinned by
/// `tests/alloc_smoke.rs`).
#[derive(Debug, Default)]
pub struct SliceRoute {
    /// Pre-assigned join ids, parallel to the slice (`None` for
    /// non-join events) — matches sequential allocation order exactly.
    pub join_ids: Vec<Option<NodeId>>,
    /// Per-event routing decision, parallel to the slice.
    pub disposition: Vec<Disposition>,
    /// Flattened touched-shard lists for border events; indexed by
    /// [`Disposition::Border`] ranges.
    pub touched: Vec<u32>,
    /// Number of border events in the slice (the numerator of the
    /// border-event fraction the lab reports).
    pub border_events: usize,
    /// In-slice ghost positions (joins and moves update it), cleared
    /// per route.
    ghost: HashMap<NodeId, Point>,
    /// Per-event anchor buffer.
    anchors: Vec<Point>,
    /// Distinct owners seen across the current event's claim.
    owners_seen: Vec<u32>,
}

impl SliceRoute {
    /// The touched-shard list of a border disposition (empty for
    /// interior events).
    pub fn touched_of(&self, d: Disposition) -> &[u32] {
        match d {
            Disposition::Interior(_) => &[],
            Disposition::Border {
                touched_start,
                touched_end,
            } => &self.touched[touched_start as usize..touched_end as usize],
        }
    }
}

/// A persistent partition of the arena into shard-owned cell regions.
///
/// A `ShardMap` survives across slices: ownership only ever *grows*
/// (unowned cells are annexed as events claim them), so a shard's
/// resident subnetwork stays meaningful from slice to slice. The
/// shard count is fixed at seeding and deliberately **decoupled from
/// the worker count**: routing is a single-threaded scan, so every
/// disposition, annexation, and health counter is bit-identical
/// regardless of how many threads later execute the waves.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    /// Ownership-cell side length, fixed at seeding (claim radii stay
    /// distance-based, so a per-slice range bound larger than the
    /// seeded cell only widens footprints — never unsoundness).
    cell: f64,
    owner: HashMap<(i32, i32), u32>,
    /// Owned-cell count per shard.
    owned: Vec<u32>,
    /// Round-robin cursor for events whose claims touch no owned cell
    /// yet (fresh territory).
    next_rr: u32,
}

impl ShardMap {
    /// Partitions the current node population of `net` into `shards`
    /// persistent ownership regions.
    ///
    /// Populated cells are clustered by the claim-cell union-find
    /// (cells within `SEED_REACH` union into one region — the same
    /// conservative "could share a claim" relation of the module
    /// docs), then regions are dealt to shards by greedy
    /// node-count balancing, largest region first. Deterministic:
    /// cells are visited in sorted order and ties break toward the
    /// lowest shard index.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn seed(net: &Network, shards: usize) -> ShardMap {
        assert!(shards >= 1, "shard map needs at least one shard");
        let bound = net.range_bound();
        let cell = if bound > 0.0 {
            bound
        } else {
            net.cell_size_hint().max(1.0)
        };

        // Populated cells in deterministic (sorted) order, run-length
        // encoded with their node counts.
        let mut raw: Vec<(i32, i32)> = net
            .iter_nodes()
            .map(|id| {
                let p = net.config(id).expect("listed node has a config").pos;
                (cell_coord(p.x, cell), cell_coord(p.y, cell))
            })
            .collect();
        raw.sort_unstable();
        let mut cells: Vec<((i32, i32), u32)> = Vec::new();
        for c in raw {
            match cells.last_mut() {
                Some((last, count)) if *last == c => *count += 1,
                _ => cells.push((c, 1)),
            }
        }

        // Union cells within the seed reach (forward half-window, so
        // each unordered pair is probed once).
        let index: HashMap<(i32, i32), usize> = cells
            .iter()
            .enumerate()
            .map(|(i, &(c, _))| (c, i))
            .collect();
        let mut uf = UnionFind::new(cells.len());
        for (i, &((cx, cy), _)) in cells.iter().enumerate() {
            for dx in 0..=SEED_REACH {
                for dy in -SEED_REACH..=SEED_REACH {
                    if dx == 0 && dy <= 0 {
                        continue;
                    }
                    if let Some(&j) = index.get(&(cx + dx, cy + dy)) {
                        uf.union(i, j);
                    }
                }
            }
        }

        // Regions in first-cell order, with node totals.
        let mut region_of_root: HashMap<usize, usize> = HashMap::new();
        let mut region_cells: Vec<Vec<usize>> = Vec::new();
        let mut region_nodes: Vec<u64> = Vec::new();
        for (i, &(_, count)) in cells.iter().enumerate() {
            let root = uf.find(i);
            let r = *region_of_root.entry(root).or_insert_with(|| {
                region_cells.push(Vec::new());
                region_nodes.push(0);
                region_cells.len() - 1
            });
            region_cells[r].push(i);
            region_nodes[r] += count as u64;
        }

        // Greedy balance: largest region first onto the least-loaded
        // shard; ties break toward earlier regions / lower shards.
        let mut order: Vec<usize> = (0..region_cells.len()).collect();
        order.sort_by_key(|&r| (std::cmp::Reverse(region_nodes[r]), r));
        let mut load = vec![0u64; shards];
        let mut owner = HashMap::with_capacity(cells.len());
        let mut owned = vec![0u32; shards];
        for r in order {
            let s = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect(">= 1 shard");
            load[s] += region_nodes[r];
            for &ci in &region_cells[r] {
                owner.insert(cells[ci].0, s as u32);
                owned[s] += 1;
            }
        }

        ShardMap {
            shards,
            cell,
            owner,
            owned,
            next_rr: 0,
        }
    }

    /// The fixed shard count (the resident executor keeps one
    /// subnetwork per shard).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The ownership-cell side length.
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Shards currently owning at least one cell.
    pub fn active_shards(&self) -> u32 {
        self.owned.iter().filter(|&&c| c > 0).count() as u32
    }

    /// The shard owning the cell containing `p`, if any.
    pub fn owner_of(&self, p: &Point) -> Option<u32> {
        self.owner
            .get(&(cell_coord(p.x, self.cell), cell_coord(p.y, self.cell)))
            .copied()
    }

    /// Routes one slice against the standing partition, filling
    /// `route` (buffers recycled). Walks events in order, computing
    /// each event's conservative claim footprint (`3B`/`4B` radii off
    /// the slice-wide range bound, ghost positions tracking in-slice
    /// joins and moves) and
    /// classifying it interior or border per the module docs. Unowned
    /// claimed cells are annexed as a side effect, so the partition
    /// is total over everything this slice can touch.
    ///
    /// Single-threaded and deterministic: the same map state and
    /// slice always produce the same route, independent of any worker
    /// count.
    ///
    /// # Panics
    /// Panics if an event references a node that is neither present
    /// in `net` nor created by an earlier event of the slice.
    pub fn route(&mut self, net: &Network, events: &[Event], route: &mut SliceRoute) {
        route.join_ids.clear();
        route.join_ids.resize(events.len(), None);
        route.disposition.clear();
        route.touched.clear();
        route.border_events = 0;
        route.ghost.clear();

        // Slice-wide range bound: conservative for every event of the
        // slice (a node not yet inserted cannot be anyone's neighbor,
        // ranges only change through the slice's events, and a bound
        // that is too large only widens claims).
        let mut bound = net.range_bound();
        for e in events {
            match e {
                Event::Join { cfg } => bound = bound.max(cfg.range),
                Event::SetRange { range, .. } => bound = bound.max(*range),
                _ => {}
            }
        }

        let pos_of = |ghost: &HashMap<NodeId, Point>, id: NodeId| -> Point {
            ghost.get(&id).copied().unwrap_or_else(|| {
                net.config(id)
                    .unwrap_or_else(|| panic!("shard route: event references missing node {id}"))
                    .pos
            })
        };

        let mut next_join = net.peek_next_id().0;
        for (i, e) in events.iter().enumerate() {
            route.anchors.clear();
            let claim = match e {
                Event::Join { cfg } => {
                    let id = NodeId(next_join);
                    next_join += 1;
                    route.join_ids[i] = Some(id);
                    route.ghost.insert(id, cfg.pos);
                    route.anchors.push(cfg.pos);
                    3.0 * bound
                }
                Event::Leave { node } => {
                    let p = pos_of(&route.ghost, *node);
                    route.ghost.remove(node);
                    route.anchors.push(p);
                    3.0 * bound
                }
                Event::Move { node, to } => {
                    let from = pos_of(&route.ghost, *node);
                    route.ghost.insert(*node, *to);
                    route.anchors.push(from);
                    route.anchors.push(*to);
                    3.0 * bound
                }
                Event::SetRange { node, .. } => {
                    route.anchors.push(pos_of(&route.ghost, *node));
                    4.0 * bound
                }
            };

            // Pass 1: which shards own any part of the claim?
            route.owners_seen.clear();
            for a in &route.anchors {
                for cx in cell_cover(a.x, claim, self.cell) {
                    for cy in cell_cover(a.y, claim, self.cell) {
                        if let Some(&s) = self.owner.get(&(cx, cy)) {
                            if !route.owners_seen.contains(&s) {
                                route.owners_seen.push(s);
                            }
                        }
                    }
                }
            }

            // Classify, picking the shard that annexes any unowned
            // claimed cells.
            let disposition = if route.owners_seen.len() <= 1 {
                let target = route.owners_seen.first().copied().unwrap_or_else(|| {
                    // Fresh territory: deal it round-robin so early
                    // slices (e.g. joins into an empty arena) spread
                    // across the shard set.
                    let s = self.next_rr % self.shards as u32;
                    self.next_rr = self.next_rr.wrapping_add(1);
                    s
                });
                Disposition::Interior(target)
            } else {
                route.owners_seen.sort_unstable();
                let start = route.touched.len() as u32;
                route.touched.extend_from_slice(&route.owners_seen);
                route.border_events += 1;
                Disposition::Border {
                    touched_start: start,
                    touched_end: start + route.owners_seen.len() as u32,
                }
            };
            let annex_to = match disposition {
                Disposition::Interior(s) => s,
                // Deterministic: the lowest-numbered touched shard
                // takes the no-man's-land the border event claims.
                Disposition::Border { touched_start, .. } => route.touched[touched_start as usize],
            };

            // Pass 2: annex unowned claimed cells, so later events
            // claiming them are ordered against this one.
            for a in &route.anchors {
                for cx in cell_cover(a.x, claim, self.cell) {
                    for cy in cell_cover(a.y, claim, self.cell) {
                        if let std::collections::hash_map::Entry::Vacant(v) =
                            self.owner.entry((cx, cy))
                        {
                            v.insert(annex_to);
                            self.owned[annex_to as usize] += 1;
                        }
                    }
                }
            }
            route.disposition.push(disposition);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;

    fn join_at(x: f64, y: f64, r: f64) -> Event {
        Event::Join {
            cfg: NodeConfig::new(Point::new(x, y), r),
        }
    }

    /// Two well-separated populations seed into distinct shards, and
    /// events near each route interior to their own shard.
    #[test]
    fn seed_splits_separated_populations() {
        let mut net = Network::new(5.0);
        for k in 0..5 {
            net.join(NodeConfig::new(Point::new(k as f64 * 3.0, 0.0), 5.0));
            net.join(NodeConfig::new(
                Point::new(1000.0 + k as f64 * 3.0, 0.0),
                5.0,
            ));
        }
        let mut map = ShardMap::seed(&net, 2);
        assert_eq!(map.shard_count(), 2);
        assert_eq!(map.active_shards(), 2);
        let left = map.owner_of(&Point::new(0.0, 0.0)).unwrap();
        let right = map.owner_of(&Point::new(1000.0, 0.0)).unwrap();
        assert_ne!(left, right, "separated populations get distinct owners");

        let events = vec![join_at(2.0, 2.0, 5.0), join_at(1002.0, 2.0, 5.0)];
        let mut route = SliceRoute::default();
        map.route(&net, &events, &mut route);
        assert_eq!(route.border_events, 0);
        assert_eq!(route.disposition[0], Disposition::Interior(left));
        assert_eq!(route.disposition[1], Disposition::Interior(right));
    }

    /// An event whose claim reaches both regions is a border event
    /// touching both shards, ascending.
    #[test]
    fn frontier_crossing_claims_go_border() {
        let mut net = Network::new(5.0);
        for k in 0..4 {
            net.join(NodeConfig::new(Point::new(k as f64 * 3.0, 0.0), 5.0));
            net.join(NodeConfig::new(
                Point::new(200.0 + k as f64 * 3.0, 0.0),
                5.0,
            ));
        }
        let mut map = ShardMap::seed(&net, 2);
        let a = map.owner_of(&Point::new(0.0, 0.0)).unwrap();
        let b = map.owner_of(&Point::new(200.0, 0.0)).unwrap();
        assert_ne!(a, b);
        // A join midway with a range whose 3B claim spans both camps.
        let events = vec![join_at(100.0, 0.0, 40.0)];
        let mut route = SliceRoute::default();
        map.route(&net, &events, &mut route);
        assert_eq!(route.border_events, 1);
        let d = route.disposition[0];
        assert!(matches!(d, Disposition::Border { .. }));
        assert_eq!(route.touched_of(d), &[a.min(b), a.max(b)]);
    }

    /// Claim-sharing events never route interior to *different*
    /// shards: the first annexes, the second sees the owner.
    #[test]
    fn annexation_orders_claim_sharing_events() {
        let net = Network::new(5.0);
        let mut map = ShardMap::seed(&net, 4);
        // Empty arena: both joins claim overlapping fresh territory.
        let events = vec![join_at(0.0, 0.0, 5.0), join_at(8.0, 0.0, 5.0)];
        let mut route = SliceRoute::default();
        map.route(&net, &events, &mut route);
        let Disposition::Interior(first) = route.disposition[0] else {
            panic!("fresh territory is interior");
        };
        match route.disposition[1] {
            Disposition::Interior(s) => assert_eq!(s, first, "shared claim ⇒ same shard"),
            Disposition::Border { .. } => {}
        }
    }

    /// Far-apart fresh territory deals round-robin across shards.
    #[test]
    fn fresh_territory_spreads_round_robin() {
        let net = Network::new(5.0);
        let mut map = ShardMap::seed(&net, 2);
        let events = vec![join_at(0.0, 0.0, 5.0), join_at(5000.0, 0.0, 5.0)];
        let mut route = SliceRoute::default();
        map.route(&net, &events, &mut route);
        assert_eq!(route.disposition[0], Disposition::Interior(0));
        assert_eq!(route.disposition[1], Disposition::Interior(1));
        assert_eq!(map.active_shards(), 2);
    }

    /// Routing is stable across repeated identical slices (the
    /// steady-state shape the allocation smoke test pins), and the
    /// ghost overlay tracks in-slice moves.
    #[test]
    fn routing_is_idempotent_and_ghost_tracked() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        net.join(NodeConfig::new(Point::new(3.0, 0.0), 5.0));
        let mut map = ShardMap::seed(&net, 2);
        let events = vec![
            Event::Move {
                node: a,
                to: Point::new(6.0, 0.0),
            },
            Event::Leave { node: a },
        ];
        let mut r1 = SliceRoute::default();
        map.route(&net, &events, &mut r1);
        let d1 = r1.disposition.clone();
        let mut r2 = SliceRoute::default();
        map.route(&net, &events, &mut r2);
        assert_eq!(d1, r2.disposition, "steady-state routing is stable");
        // The leave anchors at the *new* position — same shard as the
        // move destination.
        assert_eq!(r2.disposition[0], r2.disposition[1]);
    }
}
