//! Seeded input generation, done before and outside every timed
//! window.
//!
//! Streams are generated against a *ghost*: a bookkeeping copy that
//! tracks only which ids are live and where they stand, with ids
//! allocated in the same ascending order `Network::next_id` uses. That
//! is all a join/leave/move stream depends on — and range changes
//! never touch ids or positions, so the power-coupled workload's
//! exogenous stream is valid whatever corrections the power loop
//! interleaves.

use minim_geom::{sample, Point, Rect};
use minim_graph::NodeId;
use minim_net::event::Event;
use minim_net::workload::RangeDist;
use minim_net::NodeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hot spots: joiners scatter gaussianly around fixed centers, taking
/// the centers in turn so every spot draws the same population.
#[derive(Debug, Clone)]
pub struct Hotspots {
    centers: Vec<Point>,
    /// Per-axis standard deviation around a center.
    spread: f64,
    arena: Rect,
    /// Center of the next joiner.
    next: usize,
}

/// Hot spots of the metropolis preset: 40 centers in a 4000 × 4000
/// arena.
const METRO_SPOTS: usize = 40;
const METRO_SIDE: f64 = 4000.0;
/// Nodes per hot spot in the weak-scaled layouts.
const NODES_PER_SPOT: usize = 25;
/// Per-axis hot-spot spread (paper-scale ranges 20.5–30.5).
const SPREAD: f64 = 25.0;

/// Seed of the hot-spot layout. The layout is fixed — a city map, not
/// an input — so the run seed varies only who joins, where around
/// which spot, and what they do, and figures from different seeds
/// describe the same deployment.
const LAYOUT_SEED: u64 = 0x40_4000;

impl Hotspots {
    fn in_square(spots: usize, side: f64) -> Hotspots {
        let arena = Rect::new(0.0, 0.0, side, side);
        let mut rng = StdRng::seed_from_u64(LAYOUT_SEED);
        Hotspots {
            centers: (0..spots)
                .map(|_| sample::uniform_point(&mut rng, &arena))
                .collect(),
            spread: SPREAD,
            arena,
            next: 0,
        }
    }

    /// The metropolis layout: 40 fixed hot spots in 4000 × 4000.
    pub fn metropolis() -> Hotspots {
        Hotspots::in_square(METRO_SPOTS, METRO_SIDE)
    }

    /// Weak scaling: one hot spot per [`NODES_PER_SPOT`] nodes, arena
    /// side growing with √spots so hot-spot density (and mean degree)
    /// stays fixed as `nodes` grows.
    pub fn weak_scaled(nodes: usize) -> Hotspots {
        let spots = (nodes / NODES_PER_SPOT).max(1);
        let side = METRO_SIDE * (spots as f64 / METRO_SPOTS as f64).sqrt();
        Hotspots::in_square(spots, side)
    }

    /// Samples the next joiner's position.
    pub fn sample(&mut self, rng: &mut StdRng) -> Point {
        let c = self.centers[self.next];
        self.next = (self.next + 1) % self.centers.len();
        sample::clustered_point(rng, c, self.spread, &self.arena)
    }

    /// One join event with a paper-range radio.
    pub fn join(&mut self, rng: &mut StdRng) -> Event {
        Event::Join {
            cfg: NodeConfig::new(self.sample(rng), RangeDist::paper().sample(rng)),
        }
    }

    /// `count` joins.
    pub fn joins(&mut self, count: usize, rng: &mut StdRng) -> Vec<Event> {
        (0..count).map(|_| self.join(rng)).collect()
    }
}

/// Churn step probabilities, population-neutral with moves the most
/// common step (the remaining 40 %), and the largest move.
const JOIN_P: f64 = 0.3;
const LEAVE_P: f64 = 0.3;
const MAXDISP: f64 = 25.0;

/// Ids and positions of the live population — everything a
/// join/leave/move stream depends on.
struct Ghost {
    pos: Vec<Option<Point>>,
    live: Vec<u32>,
    slot: Vec<usize>,
}

impl Ghost {
    fn join(&mut self, p: Point) {
        let id = self.pos.len() as u32;
        self.pos.push(Some(p));
        self.slot.push(self.live.len());
        self.live.push(id);
    }

    fn leave(&mut self, id: u32) {
        let i = self.slot[id as usize];
        self.live.swap_remove(i);
        if let Some(&moved) = self.live.get(i) {
            self.slot[moved as usize] = i;
        }
        self.pos[id as usize] = None;
    }
}

/// A churn stream of `steps` events over a population that starts as
/// `base` (a join-only stream, applied to an empty network in order).
pub fn churn(spots: &mut Hotspots, base: &[Event], steps: usize, rng: &mut StdRng) -> Vec<Event> {
    let mut ghost = Ghost {
        pos: Vec::new(),
        live: Vec::new(),
        slot: Vec::new(),
    };
    for e in base {
        let Event::Join { cfg } = e else {
            panic!("base streams are join-only");
        };
        ghost.join(cfg.pos);
    }
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let u: f64 = rng.gen();
        let e = if ghost.live.is_empty() || u < JOIN_P {
            let e = spots.join(rng);
            let Event::Join { cfg } = &e else {
                unreachable!()
            };
            ghost.join(cfg.pos);
            e
        } else {
            let id = ghost.live[rng.gen_range(0..ghost.live.len())];
            if u < JOIN_P + LEAVE_P {
                ghost.leave(id);
                Event::Leave { node: NodeId(id) }
            } else {
                let from = ghost.pos[id as usize].expect("live");
                let to = sample::random_move(rng, from, MAXDISP, &spots.arena);
                ghost.pos[id as usize] = Some(to);
                Event::Move {
                    node: NodeId(id),
                    to,
                }
            }
        };
        out.push(e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_net::event::apply_topology;
    use minim_net::Network;

    #[test]
    fn ghost_stream_is_valid_on_a_real_network_and_seeded() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut spots = Hotspots::weak_scaled(500);
        let base = spots.joins(500, &mut rng);
        let stream = churn(&mut spots, &base, 2000, &mut rng);
        let mut net = Network::new(30.5);
        for e in base.iter().chain(&stream) {
            // Panics on a leave/move of an absent node.
            apply_topology(&mut net, e);
        }
        let mut again = StdRng::seed_from_u64(5);
        let mut spots2 = Hotspots::weak_scaled(500);
        let base2 = spots2.joins(500, &mut again);
        assert_eq!(churn(&mut spots2, &base2, 2000, &mut again), stream);
    }
}
