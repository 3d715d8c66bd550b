//! Uniform-grid spatial index.
//!
//! `minim-net` must recompute the induced digraph after every event:
//! a join, move, or power change asks "which nodes are within distance
//! `r` of point `p`?" (both directions: who can `n` hear, and who can
//! hear `n`). A linear scan is `O(n)` per query; with the paper's
//! workloads (up to ~120 nodes joining, 10 rounds of movement of 40
//! nodes, 100 replicates per sweep point) the quadratic blow-up is felt
//! in the harness. A uniform grid with cell size on the order of the
//! typical query radius answers these queries in expected `O(1)` per
//! reported neighbor.
//!
//! The index stores `(id, Point)` pairs keyed by an opaque `u32` id
//! (the caller's node id; ids are expected to be *dense* — `minim-net`
//! allocates them consecutively from 0 — since the reverse map is a
//! slab indexed by id). Updates are incremental: `insert`, `remove`,
//! and `relocate` all run in `O(1)` expected.
//!
//! Storage is sized by occupancy, not by arena area. The reverse map
//! is a `Vec` slab (id → entry), and the cell table holds one
//! occupancy list for each cell that has ever held an entry, found
//! through a cheap hash of the packed cell coordinate. A clustered
//! deployment over a huge arena pays for its clusters only, and
//! far-out coordinates need no special case. Queries visit the cells
//! of their rectangle in row-major order, so every instance built by
//! the same calls reports the same sequence.

use crate::Point;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Cell coordinates are clamped into this symmetric window. The clamp
/// makes the `f64 → i32` conversion explicit and total: a coordinate at
/// `1e300` lands on the window edge instead of saturating to
/// `i32::MAX` and overflowing downstream cell-range arithmetic.
const CELL_COORD_LIMIT: i32 = 1 << 30;

/// Converts one coordinate to its (clamped) integer cell coordinate.
/// The single authority for `f64 → i32` cell conversion — both the
/// insertion and the query paths go through here, so an out-of-window
/// point is queryable at exactly the cell it was stored in.
#[inline]
pub fn cell_coord(v: f64, cell_size: f64) -> i32 {
    let c = (v / cell_size).floor();
    if c <= -(CELL_COORD_LIMIT as f64) {
        -CELL_COORD_LIMIT
    } else if c >= CELL_COORD_LIMIT as f64 {
        CELL_COORD_LIMIT
    } else {
        // In-window (and NaN, which compares false to both bounds and
        // maps to cell 0 — a NaN coordinate is already a caller bug).
        c as i32
    }
}

/// The inclusive cell-coordinate range covering the interval
/// `[center - radius, center + radius]` on one axis — the single
/// authority for turning a disc into the rectangle of cells that
/// (conservatively) covers it. Both the batch planner's claim
/// footprints and the persistent ownership map's region queries go
/// through here, so the two layers agree cell-for-cell on what a
/// given reach covers.
#[inline]
pub fn cell_cover(center: f64, radius: f64, cell_size: f64) -> std::ops::RangeInclusive<i32> {
    cell_coord(center - radius, cell_size)..=cell_coord(center + radius, cell_size)
}

/// Packs a cell into a `u64` whose unsigned order is row-major cell
/// order: `y` in the high half, `x` in the low half, each with its
/// sign bit flipped so negative coordinates sort first.
#[inline]
fn cell_key(x: i32, y: i32) -> u64 {
    (((y as u32) ^ 0x8000_0000) as u64) << 32 | ((x as u32) ^ 0x8000_0000) as u64
}

/// The `x` coordinate of a [`cell_key`].
#[inline]
fn key_x(key: u64) -> i32 {
    ((key as u32) ^ 0x8000_0000) as i32
}

/// One multiply per [`cell_key`], folded so the low (bucket) bits
/// depend on both coordinates.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The occupied cells: one occupancy list per cell that has ever held
/// an entry. Emptied lists stay, so re-entering a cell never
/// allocates.
#[derive(Debug, Clone, Default)]
struct CellTable {
    /// `cell_key` → the ids in that cell, in `push`/`swap_remove` order.
    cells: HashMap<u64, Vec<u32>, BuildHasherDefault<CellHasher>>,
    /// The keys of `cells` in row-major order, for queries whose
    /// rectangle has more cells than the table.
    order: BTreeSet<u64>,
    /// Bounding box `(min_x, min_y, max_x, max_y)` of `cells`; it
    /// only grows.
    bounds: Option<(i32, i32, i32, i32)>,
}

impl CellTable {
    fn push(&mut self, (x, y): (i32, i32), id: u32) {
        let key = cell_key(x, y);
        if let Some(ids) = self.cells.get_mut(&key) {
            ids.push(id);
            return;
        }
        self.cells.insert(key, vec![id]);
        self.order.insert(key);
        self.bounds = Some(match self.bounds {
            None => (x, y, x, y),
            Some((x0, y0, x1, y1)) => (x0.min(x), y0.min(y), x1.max(x), y1.max(y)),
        });
    }

    fn remove(&mut self, (x, y): (i32, i32), id: u32) {
        if let Some(ids) = self.cells.get_mut(&cell_key(x, y)) {
            if let Some(p) = ids.iter().position(|&v| v == id) {
                ids.swap_remove(p);
            }
        }
    }

    /// Whether the inclusive cell rectangle `lo..=hi` holds every
    /// table cell.
    fn covered_by(&self, lo: (i32, i32), hi: (i32, i32)) -> bool {
        self.bounds
            .is_none_or(|(x0, y0, x1, y1)| lo.0 <= x0 && lo.1 <= y0 && hi.0 >= x1 && hi.1 >= y1)
    }

    /// Calls `f` on the occupancy list of every table cell inside the
    /// inclusive cell rectangle `lo..=hi`, in row-major order. The
    /// rectangle is first clipped to the bounding box; if it still has
    /// more cells than the table, the ordered key set is walked
    /// instead, so a clamped far-out query costs O(table), not
    /// O(area).
    fn for_each_cell(&self, lo: (i32, i32), hi: (i32, i32), mut f: impl FnMut(&[u32])) {
        let Some((x0, y0, x1, y1)) = self.bounds else {
            return;
        };
        let (x0, y0, x1, y1) = (lo.0.max(x0), lo.1.max(y0), hi.0.min(x1), hi.1.min(y1));
        if x0 > x1 || y0 > y1 {
            return;
        }
        let area = (x1 as i64 - x0 as i64 + 1) as u64 * (y1 as i64 - y0 as i64 + 1) as u64;
        if area <= self.cells.len() as u64 {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    if let Some(ids) = self.cells.get(&cell_key(x, y)) {
                        f(ids);
                    }
                }
            }
        } else {
            for key in self.order.range(cell_key(x0, y0)..=cell_key(x1, y1)) {
                if (x0..=x1).contains(&key_x(*key)) {
                    f(&self.cells[key]);
                }
            }
        }
    }
}

/// A uniform-grid spatial index over `(u32 id, Point)` entries.
///
/// Cell size is fixed at construction; queries with radii much larger
/// than the cell size degrade gracefully (they just scan more cells).
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    table: CellTable,
    /// Reverse slab: `entries[id]` = (position, cell) for O(1)
    /// removal/relocation. Ids index directly; keep them dense.
    entries: Vec<Option<(Point, (i32, i32))>>,
    len: usize,
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell side length.
    ///
    /// A good default is the expected query radius (e.g. the mean
    /// transmission range); `minim-net` uses `maxr` of the scenario.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        SpatialGrid {
            cell: cell_size,
            table: CellTable::default(),
            entries: Vec::new(),
            len: 0,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    #[inline]
    fn cell_of(&self, p: &Point) -> (i32, i32) {
        (cell_coord(p.x, self.cell), cell_coord(p.y, self.cell))
    }

    #[inline]
    fn entry(&self, id: u32) -> Option<&(Point, (i32, i32))> {
        self.entries.get(id as usize).and_then(Option::as_ref)
    }

    fn slot_mut(&mut self, id: u32) -> &mut Option<(Point, (i32, i32))> {
        let i = id as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        &mut self.entries[i]
    }

    /// Inserts `id` at `pos`. Returns `false` (and does nothing) if the
    /// id is already present; use [`SpatialGrid::relocate`] to move it.
    pub fn insert(&mut self, id: u32, pos: Point) -> bool {
        if self.entry(id).is_some() {
            return false;
        }
        let c = self.cell_of(&pos);
        self.table.push(c, id);
        *self.slot_mut(id) = Some((pos, c));
        self.len += 1;
        true
    }

    /// Removes `id`. Returns its last position, or `None` if absent.
    pub fn remove(&mut self, id: u32) -> Option<Point> {
        let (pos, c) = self.entries.get_mut(id as usize).and_then(Option::take)?;
        self.table.remove(c, id);
        self.len -= 1;
        Some(pos)
    }

    /// Moves `id` to `new_pos`. Returns `false` if the id is absent.
    pub fn relocate(&mut self, id: u32, new_pos: Point) -> bool {
        let Some(&(_, old_cell)) = self.entry(id) else {
            return false;
        };
        let new_cell = self.cell_of(&new_pos);
        if new_cell != old_cell {
            self.table.remove(old_cell, id);
            self.table.push(new_cell, id);
        }
        *self.slot_mut(id) = Some((new_pos, new_cell));
        true
    }

    /// The current position of `id`, if indexed.
    pub fn position(&self, id: u32) -> Option<Point> {
        self.entry(id).map(|&(p, _)| p)
    }

    /// Calls `f(id, pos)` for every entry within distance `radius` of
    /// `center` (boundary inclusive). Cells are visited in row-major
    /// order (ascending `y`, then `x`), and each cell reports its ids
    /// in the order its `push`es and `swap_remove`s left them, so two
    /// grids built by the same calls report the same sequence.
    ///
    /// The center entry itself is reported too if it is indexed and in
    /// range; callers that want "other nodes" filter by id.
    pub fn for_each_within<F: FnMut(u32, Point)>(&self, center: &Point, radius: f64, mut f: F) {
        if radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        let (lo, hi) = self.cell_square(center, radius);
        self.table.for_each_cell(lo, hi, |ids| {
            for &id in ids {
                let p = self.entries[id as usize].expect("listed id is present").0;
                if p.dist2(center) <= r2 {
                    f(id, p);
                }
            }
        });
    }

    /// The inclusive cell rectangle covering the square of half-side
    /// `radius` around `center`.
    #[inline]
    fn cell_square(&self, center: &Point, radius: f64) -> ((i32, i32), (i32, i32)) {
        (
            self.cell_of(&Point::new(center.x - radius, center.y - radius)),
            self.cell_of(&Point::new(center.x + radius, center.y + radius)),
        )
    }

    /// Collects the ids within `radius` of `center` (boundary
    /// inclusive), sorted by id for determinism.
    pub fn within(&self, center: &Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id, _| out.push(id));
        out.sort_unstable();
        out
    }

    /// The indexed point nearest to `center` for which `admissible`
    /// holds, or `None` when no admissible entry exists. Ties break
    /// toward the lower id, so the answer is deterministic and matches
    /// a lowest-id-first linear scan.
    ///
    /// Runs an expanding-radius search (doubling from one cell side):
    /// [`SpatialGrid::for_each_within`] is exact, so the first radius
    /// that reports any admissible entry already contains the global
    /// optimum — everything outside is strictly farther. Once the
    /// query square covers every occupied cell, one exact pass over
    /// all entries finishes the search, since an admissible entry may
    /// still sit in a corner of the square outside the disc. Expected
    /// O(1) per query when the nearest admissible entry is within a
    /// few cells; degrades to a full scan only when the grid is nearly
    /// empty of admissible points.
    pub fn nearest_where<F: FnMut(u32, &Point) -> bool>(
        &self,
        center: &Point,
        mut admissible: F,
    ) -> Option<(u32, Point)> {
        let mut best: Option<(u32, Point, f64)> = None;
        let mut consider = |best: &mut Option<(u32, Point, f64)>, id: u32, p: Point| {
            if !admissible(id, &p) {
                return;
            }
            let d2 = p.dist2(center);
            if best.is_none_or(|(bid, _, bd2)| d2 < bd2 || (d2 == bd2 && id < bid)) {
                *best = Some((id, p, d2));
            }
        };
        let mut radius = self.cell;
        loop {
            let (lo, hi) = self.cell_square(center, radius);
            if self.table.covered_by(lo, hi) || !radius.is_finite() {
                self.iter().for_each(|(id, p)| consider(&mut best, id, p));
                break;
            }
            self.for_each_within(center, radius, |id, p| consider(&mut best, id, p));
            if best.is_some() {
                // Reported ⇒ within `radius`; anything unscanned is
                // farther than `radius`, so this is the global best.
                break;
            }
            radius *= 2.0;
        }
        best.map(|(id, p, _)| (id, p))
    }

    /// Iterates over all `(id, position)` entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Point)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|(p, _)| (i as u32, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force_within(pts: &[(u32, Point)], center: &Point, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = pts
            .iter()
            .filter(|(_, p)| center.within(p, r))
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = SpatialGrid::new(10.0);
        assert!(g.is_empty());
        assert!(g.insert(7, Point::new(1.0, 2.0)));
        assert!(
            !g.insert(7, Point::new(3.0, 4.0)),
            "duplicate insert must fail"
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(7), Some(Point::new(1.0, 2.0)));
        assert_eq!(g.remove(7), Some(Point::new(1.0, 2.0)));
        assert_eq!(g.remove(7), None);
        assert!(g.is_empty());
    }

    #[test]
    fn relocate_moves_across_cells() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(1, Point::new(0.5, 0.5));
        assert!(g.relocate(1, Point::new(10.5, 10.5)));
        assert_eq!(g.position(1), Some(Point::new(10.5, 10.5)));
        // The old cell must no longer report it.
        assert!(g.within(&Point::new(0.5, 0.5), 2.0).is_empty());
        assert_eq!(g.within(&Point::new(10.5, 10.5), 0.1), vec![1]);
    }

    #[test]
    fn relocate_absent_id_fails() {
        let mut g = SpatialGrid::new(1.0);
        assert!(!g.relocate(42, Point::new(0.0, 0.0)));
    }

    #[test]
    fn query_includes_boundary() {
        let mut g = SpatialGrid::new(5.0);
        g.insert(1, Point::new(0.0, 0.0));
        g.insert(2, Point::new(3.0, 4.0)); // distance exactly 5
        assert_eq!(g.within(&Point::new(0.0, 0.0), 5.0), vec![1, 2]);
        assert_eq!(g.within(&Point::new(0.0, 0.0), 4.99), vec![1]);
    }

    #[test]
    fn negative_radius_returns_nothing() {
        let mut g = SpatialGrid::new(5.0);
        g.insert(1, Point::new(0.0, 0.0));
        assert!(g.within(&Point::new(0.0, 0.0), -1.0).is_empty());
    }

    #[test]
    fn works_with_negative_coordinates() {
        let mut g = SpatialGrid::new(3.0);
        g.insert(1, Point::new(-10.0, -10.0));
        g.insert(2, Point::new(-11.0, -10.0));
        g.insert(3, Point::new(10.0, 10.0));
        assert_eq!(g.within(&Point::new(-10.0, -10.0), 1.5), vec![1, 2]);
    }

    #[test]
    fn iter_reports_all_entries() {
        let mut g = SpatialGrid::new(2.0);
        for i in 0..20u32 {
            g.insert(i, Point::new(i as f64, (i * 3 % 7) as f64));
        }
        let mut ids: Vec<u32> = g.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn zero_cell_size_panics() {
        let _ = SpatialGrid::new(0.0);
    }

    /// Regression: coordinates far beyond any sane arena used to
    /// saturate the `f64 → i32` cell cast, and a query near them would
    /// then try to walk the whole i32 cell range. The centralized
    /// clamped conversion plus occupancy-clipped queries must keep both
    /// insertion and queries exact and fast.
    #[test]
    fn far_out_coordinates_are_clamped_not_lost() {
        let mut g = SpatialGrid::new(5.0);
        g.insert(1, Point::new(0.0, 0.0));
        g.insert(2, Point::new(1e300, 1e300));
        g.insert(3, Point::new(-1e300, 7.0));
        assert_eq!(g.len(), 3);
        // Queries near the origin see only the near point, even with a
        // radius that (clamped) reaches the far cells.
        assert_eq!(g.within(&Point::new(0.0, 0.0), 10.0), vec![1]);
        // The far points are found where they were stored.
        assert_eq!(g.within(&Point::new(1e300, 1e300), 1.0), vec![2]);
        assert_eq!(g.within(&Point::new(-1e300, 7.0), 1.0), vec![3]);
        // A clamped full-plane query still terminates and sees all.
        assert_eq!(g.within(&Point::new(0.0, 0.0), 1e305), vec![1, 2, 3]);
        // Far entries relocate back next to the near ones.
        assert!(g.relocate(2, Point::new(3.0, 3.0)));
        assert_eq!(g.within(&Point::new(0.0, 0.0), 10.0), vec![1, 2]);
        assert_eq!(g.remove(3), Some(Point::new(-1e300, 7.0)));
        assert_eq!(g.len(), 2);
    }

    /// Regression: an earlier dense cell window, grown close to its
    /// 4096-cell cap, truncated its padded width while still
    /// relocating old cells by untruncated offsets, silently dropping
    /// entries near the window edge. Entries thousands of cells apart
    /// must all stay findable.
    #[test]
    fn near_cap_window_growth_keeps_edge_entries() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(0, Point::new(0.5, 0.5));
        g.insert(1, Point::new(2600.5, 0.5));
        g.insert(2, Point::new(3250.5, 0.5));
        // Under the old window this grow pushed the padded span past
        // the cap.
        g.insert(3, Point::new(3300.5, 0.5));
        for (id, x) in [(0u32, 0.5), (1, 2600.5), (2, 3250.5), (3, 3300.5)] {
            assert_eq!(
                g.within(&Point::new(x, 0.5), 0.9),
                vec![id],
                "entry {id} lost at x={x}"
            );
        }
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn window_growth_preserves_entries() {
        let mut g = SpatialGrid::new(1.0);
        // Walk outward in both directions, so the bounding box of
        // occupied cells grows on every insert.
        for i in 0..200u32 {
            let x = (i as f64) * 7.0 * if i % 2 == 0 { 1.0 } else { -1.0 };
            g.insert(i, Point::new(x, -x));
        }
        assert_eq!(g.len(), 200);
        for i in 0..200u32 {
            let x = (i as f64) * 7.0 * if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(g.within(&Point::new(x, -x), 0.5), vec![i]);
        }
    }

    #[test]
    fn nearest_where_finds_global_best_across_rings() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(1, Point::new(0.2, 0.2));
        g.insert(2, Point::new(50.0, 0.0));
        g.insert(3, Point::new(51.0, 0.0));
        // Nearest overall.
        assert_eq!(
            g.nearest_where(&Point::new(0.0, 0.0), |_, _| true),
            Some((1, Point::new(0.2, 0.2)))
        );
        // Excluding the near one forces the search out many rings.
        assert_eq!(
            g.nearest_where(&Point::new(0.0, 0.0), |id, _| id != 1),
            Some((2, Point::new(50.0, 0.0)))
        );
        // Nothing admissible terminates with None.
        assert_eq!(g.nearest_where(&Point::new(0.0, 0.0), |_, _| false), None);
        assert_eq!(
            SpatialGrid::new(1.0).nearest_where(&Point::new(0.0, 0.0), |_, _| true),
            None
        );
    }

    #[test]
    fn nearest_where_breaks_ties_toward_lower_id() {
        let mut g = SpatialGrid::new(4.0);
        g.insert(9, Point::new(3.0, 0.0));
        g.insert(4, Point::new(-3.0, 0.0));
        g.insert(7, Point::new(0.0, 3.0));
        assert_eq!(
            g.nearest_where(&Point::new(0.0, 0.0), |_, _| true)
                .map(|(id, _)| id),
            Some(4)
        );
    }

    /// Regression: the search used to give up with `None` as soon as
    /// its query square covered every occupied cell, although an
    /// admissible entry could still sit in a corner of that square,
    /// outside the disc it had scanned.
    #[test]
    fn nearest_where_finds_entries_outside_the_covering_disc() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(1, Point::new(0.5, 0.5));
        g.insert(2, Point::new(100.5, 100.5));
        assert_eq!(
            g.nearest_where(&Point::new(0.5, 0.5), |id, _| id != 1),
            Some((2, Point::new(100.5, 100.5)))
        );
        // The same holds for clamped far-out cells.
        g.insert(3, Point::new(-1e300, 1e300));
        assert_eq!(
            g.nearest_where(&Point::new(0.5, 0.5), |id, _| id == 3),
            Some((3, Point::new(-1e300, 1e300)))
        );
    }

    /// The table holds one list per distinct cell that has held an
    /// entry, however far apart those cells are; emptied cells keep
    /// their list, so re-entering them adds nothing.
    #[test]
    fn table_holds_only_occupied_cells() {
        let mut g = SpatialGrid::new(1.0);
        let mut id = 0u32;
        for k in -3..=3i32 {
            for dy in [0.0, 0.25] {
                g.insert(id, Point::new(k as f64 * 1e6 + 0.5, dy + 0.5));
                id += 1;
            }
        }
        g.insert(id, Point::new(0.5, 1e6 + 0.5));
        assert_eq!(g.table.cells.len(), 8);
        assert_eq!(g.table.order.len(), 8);
        for i in 0..=id {
            g.remove(i);
        }
        assert!(g.is_empty());
        assert_eq!(g.table.cells.len(), 8);
        g.insert(0, Point::new(3e6 + 0.5, 0.5));
        assert_eq!(g.table.cells.len(), 8);
        assert_eq!(g.within(&Point::new(3e6, 0.0), 1.0), vec![0]);
    }

    /// Maps a generated `(kind, v)` pair, `kind < 8`, onto a
    /// coordinate: in a dense cluster at the origin (half the kinds),
    /// near it, far out, or beyond the clamp.
    fn spread_coord(kind: u8, v: f64) -> f64 {
        match kind {
            0..4 => v / 10.0,
            4 | 5 => v,
            6 => v * 1e6,
            _ => v * 1e300,
        }
    }

    /// The unsorted `for_each_within` id sequence of a reference
    /// table: a `BTreeMap` keyed `(y, x)` with the same push and
    /// swap-remove rules, walked in key (row-major) order.
    fn reference_sequence(
        cells: &std::collections::BTreeMap<(i32, i32), Vec<u32>>,
        pos: &std::collections::HashMap<u32, Point>,
        cell: f64,
        center: &Point,
        r: f64,
    ) -> Vec<u32> {
        let xs = cell_cover(center.x, r, cell);
        let ys = cell_cover(center.y, r, cell);
        cells
            .iter()
            .filter(|((y, x), _)| ys.contains(y) && xs.contains(x))
            .flat_map(|(_, ids)| ids.iter().copied())
            .filter(|id| pos[id].dist2(center) <= r * r)
            .collect()
    }

    proptest! {
        #[test]
        fn nearest_where_matches_linear_scan(
            pts in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..50),
            qx in 0.0..100.0f64, qy in 0.0..100.0f64,
            cell in 0.5..40.0f64,
            modulus in 1u32..4,
        ) {
            let mut g = SpatialGrid::new(cell);
            for (i, &(x, y)) in pts.iter().enumerate() {
                g.insert(i as u32, Point::new(x, y));
            }
            let center = Point::new(qx, qy);
            let admissible = |id: u32| id.is_multiple_of(modulus);
            let mut expect: Option<(u32, f64)> = None;
            for (i, &(x, y)) in pts.iter().enumerate() {
                let id = i as u32;
                if !admissible(id) {
                    continue;
                }
                let d2 = Point::new(x, y).dist2(&center);
                let better = match expect {
                    None => true,
                    Some((_, bd2)) => d2 < bd2,
                };
                if better {
                    expect = Some((id, d2));
                }
            }
            prop_assert_eq!(
                g.nearest_where(&center, |id, _| admissible(id)).map(|(id, _)| id),
                expect.map(|(id, _)| id)
            );
        }

        #[test]
        fn matches_brute_force(
            pts in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..60),
            qx in 0.0..100.0f64, qy in 0.0..100.0f64,
            r in 0.0..60.0f64,
            cell in 0.5..40.0f64,
        ) {
            let mut g = SpatialGrid::new(cell);
            let mut entries = Vec::new();
            for (i, &(x, y)) in pts.iter().enumerate() {
                let p = Point::new(x, y);
                g.insert(i as u32, p);
                entries.push((i as u32, p));
            }
            let center = Point::new(qx, qy);
            prop_assert_eq!(g.within(&center, r), brute_force_within(&entries, &center, r));
        }

        #[test]
        fn visit_order_matches_row_major_reference(
            ops in proptest::collection::vec(
                (0u32..40, 0u8..8, -100.0..100.0f64, 0u8..8, -100.0..100.0f64, 0u8..3),
                0..160,
            ),
            queries in proptest::collection::vec(
                (0u8..8, -100.0..100.0f64, 0u8..8, -100.0..100.0f64, 0u8..8, 0.0..60.0f64),
                8..32,
            ),
            cell in 0.5..20.0f64,
        ) {
            use std::collections::{BTreeMap, HashMap};
            let mut g = SpatialGrid::new(cell);
            let mut twin = SpatialGrid::new(cell);
            let mut cells: BTreeMap<(i32, i32), Vec<u32>> = BTreeMap::new();
            let mut pos: HashMap<u32, Point> = HashMap::new();
            let key = |p: &Point| (cell_coord(p.y, cell), cell_coord(p.x, cell));
            for (id, kx, x, ky, y, op) in ops {
                let p = Point::new(spread_coord(kx, x), spread_coord(ky, y));
                let old = pos.get(&id).copied();
                let applied = match op {
                    0 => g.insert(id, p),
                    1 => g.remove(id).is_some(),
                    _ => g.relocate(id, p),
                };
                let twin_applied = match op {
                    0 => twin.insert(id, p),
                    1 => twin.remove(id).is_some(),
                    _ => twin.relocate(id, p),
                };
                prop_assert_eq!(applied, twin_applied);
                prop_assert_eq!(applied, if op == 0 { old.is_none() } else { old.is_some() });
                if !applied {
                    continue;
                }
                if let Some(o) = old {
                    if op == 1 || key(&o) != key(&p) {
                        let list = cells.get_mut(&key(&o)).expect("reference cell");
                        let i = list.iter().position(|&v| v == id).expect("reference id");
                        list.swap_remove(i);
                    }
                }
                if op == 1 {
                    pos.remove(&id);
                } else {
                    if old.is_none_or(|o| key(&o) != key(&p)) {
                        cells.entry(key(&p)).or_default().push(id);
                    }
                    pos.insert(id, p);
                }
            }
            for (kx, x, ky, y, kr, r) in queries {
                let center = Point::new(spread_coord(kx, x), spread_coord(ky, y));
                let r = spread_coord(kr, r);
                let mut seen = Vec::new();
                g.for_each_within(&center, r, |id, _| seen.push(id));
                let mut twin_seen = Vec::new();
                twin.for_each_within(&center, r, |id, _| twin_seen.push(id));
                prop_assert_eq!(&seen, &reference_sequence(&cells, &pos, cell, &center, r));
                prop_assert_eq!(&seen, &twin_seen);
            }
        }

        #[test]
        fn matches_brute_force_after_churn(
            ops in proptest::collection::vec((0u32..30, 0.0..100.0f64, 0.0..100.0f64, 0u8..3), 0..80),
            r in 0.0..50.0f64,
        ) {
            // Apply a random insert/remove/relocate churn and check a
            // query against the surviving ground-truth set.
            let mut g = SpatialGrid::new(7.0);
            let mut truth: std::collections::HashMap<u32, Point> = Default::default();
            for (id, x, y, op) in ops {
                let p = Point::new(x, y);
                match op {
                    0 => {
                        if g.insert(id, p) {
                            truth.insert(id, p);
                        }
                    }
                    1 => {
                        g.remove(id);
                        truth.remove(&id);
                    }
                    _ => {
                        if g.relocate(id, p) {
                            truth.insert(id, p);
                        }
                    }
                }
            }
            let center = Point::new(50.0, 50.0);
            let entries: Vec<(u32, Point)> = truth.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(g.within(&center, r), brute_force_within(&entries, &center, r));
            prop_assert_eq!(g.len(), truth.len());
        }
    }
}
