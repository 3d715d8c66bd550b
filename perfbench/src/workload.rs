//! The workloads. Each one generates its inputs from the seed up
//! front, rebuilds its standing state in [`Workload::setup`], and runs
//! one fixed, deterministic stream per [`Workload::pass`] from a fresh
//! copy of that state — so every pass of every run on one seed must
//! reach the same digest, recodings and max color.

use crate::gen::{self, Hotspots};
use crate::path::{self, CoreStats};
use crate::trace::{Profile, Tracer};
use minim_core::{Minim, RecodingStrategy, StrategyKind};
use minim_net::event::{AppliedEvent, Event};
use minim_net::Network;
use minim_power::{PowerLoopConfig, PowerSession};
use minim_serve::{codec, encode_frame, Engine, EngineOptions};
use minim_sim::runner::ValidationMode;
use minim_sim::{ResidentExecutor, ShardHealth};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spatial-grid cell hint: the paper's largest range.
const CELL_HINT: f64 = 30.5;

/// A named series of samples pooled across passes.
pub type Pooled = (&'static str, Vec<u64>);

/// What one pass measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// `state_digest` of the final state.
    pub digest: u64,
    /// Colors changed over the stream.
    pub recodings: u64,
    /// Median of the max-color samples (see [`Checkpoints`]).
    pub max_color: u32,
    /// Input events in the timed stream.
    pub events: u64,
    /// Timed wall seconds (traced passes: real-path span time).
    pub secs: f64,
    /// Per-op latencies (untraced passes).
    pub lat_ns: Vec<u64>,
    /// Per-layer values of this pass (name, value).
    pub layers: Vec<(&'static str, f64)>,
    /// Samples pooled across passes for tail percentiles.
    pub pooled: Vec<Pooled>,
    /// Span profile (traced passes).
    pub profile: Option<Profile>,
}

/// One benchmark workload.
pub trait Workload {
    /// Rebuilds the standing state; returns per-layer set-up values.
    fn setup(&mut self) -> Result<Vec<(&'static str, f64)>, String>;
    /// Runs the stream once from a fresh copy of the standing state.
    fn pass(&mut self, tr: &mut Tracer) -> Result<Pass, String>;
}

/// Workload names, in reporting order.
pub const NAMES: [&str; 3] = ["dense-join", "sparse-churn", "durable-power-churn"];

/// Seed of the standing bases. Like the hot-spot layout, the network
/// standing at set-up is part of the deployment and the same on every
/// run (instance `i` draws from `BASE_SEED + i`); the run seed drives
/// the timed stream played against it.
const BASE_SEED: u64 = 0xBA5E;

/// `n` joins of a fixed standing base for instance `i`.
fn standing_base(spots: &mut Hotspots, n: usize, i: u64) -> Vec<Event> {
    spots.joins(n, &mut StdRng::seed_from_u64(BASE_SEED + i))
}

/// Generates `name`'s inputs from `seed`. `work` is a private scratch
/// directory for workloads that write.
pub fn make(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    let mut rng = StdRng::seed_from_u64(seed);
    Some(match name {
        "dense-join" => Box::new(Sequential::new(
            (0..DENSE_CITIES as u64)
                .map(|i| {
                    let mut spots = Hotspots::metropolis();
                    let base = standing_base(&mut spots, DENSE_BASE, i);
                    (base, spots.joins(DENSE_JOINS, &mut rng))
                })
                .collect(),
            1,
        )),
        "sparse-churn" => {
            let mut seq = Sequential::new(vec![sparse_inputs(&mut rng)], CHURN_SAMPLES);
            seq.resident = true;
            Box::new(seq)
        }
        "durable-power-churn" => {
            let mut spots = Hotspots::weak_scaled(DURABLE_BASE);
            let base = standing_base(&mut spots, DURABLE_BASE, 0);
            let stream = gen::churn(&mut spots, &base, DURABLE_EVENTS, &mut rng);
            Box::new(Durable::new(base, stream, work.to_path_buf()))
        }
        _ => return None,
    })
}

/// Independent metropolis instances of `dense-join` (odd, so the
/// median max color is one of them); each has a standing base and
/// takes a stream of joins per pass.
const DENSE_CITIES: usize = 5;
const DENSE_BASE: usize = 4000;
const DENSE_JOINS: usize = 1000;
/// Standing base of the sparse workloads, and churn events per pass.
const SPARSE_BASE: usize = 40_000;
const SPARSE_EVENTS: usize = 50_000;
/// Standing base of `durable-power-churn`, and input events per pass.
const DURABLE_BASE: usize = 5_000;
const DURABLE_EVENTS: usize = 2048;
/// Input events between power settles.
const SETTLE_EVERY: usize = 16;
/// Events per resident slice.
const SLICE: usize = 250;
/// Max-color samples per churn stream.
const CHURN_SAMPLES: usize = 5;

/// Samples the max color index at the end of each of `k` equal parts
/// of a stream. The median of the samples is the reported max color:
/// under churn the max color of one instant is an extreme that a
/// single late event can move.
struct Checkpoints {
    marks: Vec<usize>,
    done: usize,
    samples: Vec<u32>,
}

impl Checkpoints {
    fn new(len: usize, k: usize) -> Checkpoints {
        Checkpoints {
            marks: (1..=k).rev().map(|i| i * len / k).collect(),
            done: 0,
            samples: Vec::with_capacity(k),
        }
    }

    /// Counts one more event; samples `net` at each mark passed.
    fn advance(&mut self, net: &Network) {
        self.done += 1;
        while self.marks.last().is_some_and(|&m| m <= self.done) {
            self.marks.pop();
            self.samples.push(net.max_color_index());
        }
    }
}

/// Median of all samples (the upper one for even counts).
fn median_color(mut samples: Vec<u32>) -> u32 {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied().unwrap_or(0)
}

fn sparse_inputs(rng: &mut StdRng) -> (Vec<Event>, Vec<Event>) {
    let mut spots = Hotspots::weak_scaled(SPARSE_BASE);
    let base = standing_base(&mut spots, SPARSE_BASE, 0);
    let stream = gen::churn(&mut spots, &base, SPARSE_EVENTS, rng);
    (base, stream)
}

fn build_base(events: &[Event]) -> Network {
    let mut net = Network::new(CELL_HINT);
    let mut m = Minim::default();
    for e in events {
        m.apply(&mut net, e);
    }
    net
}

fn validated(net: &Network) -> Result<(), String> {
    net.validate()
        .map_err(|v| format!("final state violates CA1/CA2: {v}"))
}

/// Per-layer values derived from core counters over `st`.
fn core_layers(st: &CoreStats) -> (Vec<(&'static str, f64)>, Vec<Pooled>) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let set_sum: u64 = st.recode_sets.iter().sum();
    let layers = vec![
        ("net.edge_churn_per_event", ratio(st.edge_churn, st.events)),
        ("core.fastpath_share", ratio(st.fast, st.joins_moves())),
        (
            "core.recode_set_mean",
            ratio(set_sum, st.recode_sets.len() as u64),
        ),
        ("core.useful_write_ratio", ratio(st.recodings, st.planned)),
        (
            "matching.instance_cells_mean",
            ratio(st.instance_cells, st.matching),
        ),
        ("core.repick_share", ratio(st.repick, st.events)),
    ];
    (layers, vec![("core.recode_set", st.recode_sets.clone())])
}

/// `dense-join` and `sparse-churn`: one sequential Minim per
/// instance, one `apply` per input event. A pass runs every instance's
/// stream in turn; its digest folds the instances' digests and its max
/// color is the median of every instance's samples.
struct Sequential {
    cities: Vec<City>,
    /// Max-color samples per city stream (see [`Checkpoints`]).
    samples: usize,
    /// Whether traced passes also run the first city's stream through
    /// the resident shard executor (see [`resident_layers`]).
    resident: bool,
}

/// One independent instance: its inputs and its standing network.
struct City {
    base_events: Vec<Event>,
    stream: Vec<Event>,
    base: Network,
}

impl Sequential {
    fn new(inputs: Vec<(Vec<Event>, Vec<Event>)>, samples: usize) -> Sequential {
        Sequential {
            samples,
            resident: false,
            cities: inputs
                .into_iter()
                .map(|(base_events, stream)| City {
                    base_events,
                    stream,
                    base: Network::new(CELL_HINT),
                })
                .collect(),
        }
    }
}

/// Folds per-instance digests into one (a single instance keeps its
/// own).
fn fold_digest(h: u64, d: u64) -> u64 {
    (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Workload for Sequential {
    fn setup(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        // Drop the old bases first, so set-up peaks at one copy.
        for c in &mut self.cities {
            c.base = Network::new(CELL_HINT);
        }
        for c in &mut self.cities {
            c.base = build_base(&c.base_events);
        }
        Ok(Vec::new())
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let mut p = Pass::default();
        let mut st = CoreStats::default();
        let (mut digests, mut max_colors) = (Vec::new(), Vec::new());
        let mut op = 0u64;
        for city in &self.cities {
            let mut net = city.base.clone();
            let mut m = Minim::default();
            let mut marks = Checkpoints::new(city.stream.len(), self.samples);
            p.events += city.stream.len() as u64;
            if tr.is_on() {
                for e in &city.stream {
                    tr.set_op(op);
                    op += 1;
                    let span = tr.enter("op", false);
                    path::step(&mut net, &m, e, tr, &mut st)?;
                    tr.exit(span);
                    marks.advance(&net);
                }
            } else {
                p.lat_ns.reserve(city.stream.len());
                let t0 = Instant::now();
                for e in &city.stream {
                    let t = Instant::now();
                    let (_, out) = m.apply(&mut net, e);
                    p.lat_ns.push(t.elapsed().as_nanos() as u64);
                    p.recodings += out.recodings() as u64;
                    marks.advance(&net);
                }
                p.secs += t0.elapsed().as_secs_f64();
            }
            validated(&net)?;
            digests.push(net.state_digest());
            max_colors.extend(marks.samples);
        }
        let digests_0 = digests[0];
        p.digest = digests.into_iter().reduce(fold_digest).unwrap_or(0);
        p.max_color = median_color(max_colors);
        if tr.is_on() {
            let profile = tr.profile();
            p.secs = profile.real_s();
            p.profile = Some(profile);
            p.recodings = st.recodings;
            (p.layers, p.pooled) = core_layers(&st);
            if self.resident {
                let city = &self.cities[0];
                p.layers
                    .extend(resident_layers(&city.base, &city.stream, digests_0)?);
            }
        }
        Ok(p)
    }
}

/// The resident shard executor's layer values on one stream, run from
/// `base` with `workers = nproc` in fixed slices. The first slice seeds
/// the executor's shards untimed. The final state must equal
/// `sequential_digest`, the same stream run sequentially.
fn resident_layers(
    base: &Network,
    stream: &[Event],
    sequential_digest: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut net = base.clone();
    let mut m = Minim::default();
    let mut exec = ResidentExecutor::new(crate::nproc());
    let mut slices = stream.chunks(SLICE);
    let warm = slices.next().expect("non-empty stream");
    exec.run(&mut m, &mut net, warm, ValidationMode::Off);
    let mut health = ShardHealth::default();
    let mut secs = 0.0;
    for slice in slices {
        let t = Instant::now();
        let pm = exec.run(&mut m, &mut net, slice, ValidationMode::Off);
        secs += t.elapsed().as_secs_f64();
        let h = pm
            .shard_health
            .ok_or("resident executor fell back to the sequential path")?;
        health.absorb(&h);
    }
    validated(&net)?;
    if net.state_digest() != sequential_digest {
        return Err(format!(
            "resident digest {:#x} differs from the sequential run {sequential_digest:#x}",
            net.state_digest()
        ));
    }
    Ok(vec![
        ("sim.resident.slice_s", secs),
        ("sim.resident.border_fraction", health.border_fraction()),
        ("sim.resident.shards", f64::from(health.shards)),
    ])
}

/// `durable-power-churn`: churn journaled through an [`Engine`], with a
/// closed-loop [`PowerSession`] settling every [`SETTLE_EVERY`] input
/// events and its range corrections applied through the engine.
struct Durable {
    base_events: Vec<Event>,
    stream: Vec<Event>,
    work: PathBuf,
    base: Option<DurableBase>,
}

/// The standing state: a journaled, power-settled base.
struct DurableBase {
    session: PowerSession,
    net: Network,
}

fn engine_opts() -> EngineOptions {
    EngineOptions {
        strategy: StrategyKind::Minim,
        snapshot_every: 1024,
        sync_every: 64,
        cell_hint: CELL_HINT,
        flat: false,
    }
}

fn open(dir: &Path) -> Result<Engine, String> {
    Engine::open_dir(dir, engine_opts()).map_err(|e| format!("engine open: {e}"))
}

fn apply(eng: &mut Engine, e: &Event) -> Result<AppliedEvent, String> {
    eng.apply(e)
        .map_err(|err| format!("engine apply {e:?}: {err}"))
}

/// Replaces `to` with a copy of the flat directory `from`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {}: {e}", from.display());
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

impl Durable {
    fn new(base_events: Vec<Event>, stream: Vec<Event>, work: PathBuf) -> Durable {
        Durable {
            base_events,
            stream,
            work,
            base: None,
        }
    }

    fn base_dir(&self) -> PathBuf {
        self.work.join("base")
    }
}

impl Workload for Durable {
    fn setup(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        self.base = None;
        let dir = self.base_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let mut eng = open(&dir)?;
        for e in &self.base_events {
            apply(&mut eng, e)?;
        }
        let t = Instant::now();
        let mut session = PowerSession::new(PowerLoopConfig::for_range_scale(25.5), eng.net());
        let power_setup_s = t.elapsed().as_secs_f64();
        let (corrections, _) = session.settle();
        for c in corrections {
            apply(&mut eng, c)?;
        }
        let net = eng.net().clone();
        eng.close().map_err(|e| format!("engine close: {e}"))?;
        self.base = Some(DurableBase { session, net });
        Ok(vec![("power.setup_s", power_setup_s)])
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let base = self.base.as_ref().ok_or("pass before setup")?;
        let dir = self.work.join("pass");
        copy_dir(&self.base_dir(), &dir)?;
        let mut eng = open(&dir)?;
        if eng.net().state_digest() != base.net.state_digest() {
            return Err("reopened base differs from the base built at set-up".into());
        }
        let mut session = base.session.clone();
        let mut log: Vec<Event> = Vec::with_capacity(self.stream.len() * 40);
        let mut p = Pass {
            events: self.stream.len() as u64,
            ..Pass::default()
        };
        let (mut settle_ns, mut corrections, mut updates) = (Vec::new(), 0u64, 0u64);
        let mut marks = Checkpoints::new(self.stream.len(), CHURN_SAMPLES);
        minim_obs::reset();

        let t0 = Instant::now();
        for (i, e) in self.stream.iter().enumerate() {
            tr.set_op(i as u64);
            let op = tr.enter("op", false);
            let t = Instant::now();
            let applied = tr.time("serve.apply", || apply(&mut eng, e))?;
            log.push(e.clone());
            tr.time("power.update", || match (e, applied) {
                (Event::Join { cfg }, AppliedEvent::Joined(id)) => {
                    session.apply_join(id.0, cfg.pos, cfg.range)
                }
                (Event::Leave { node }, _) => session.apply_leave(node.0),
                (Event::Move { node, to }, _) => session.apply_move(node.0, *to),
                _ => unreachable!("exogenous streams hold joins, leaves and moves"),
            });
            if (i + 1) % SETTLE_EVERY == 0 {
                let ts = Instant::now();
                let s = tr.enter("power.settle", false);
                let (fixes, report) = session.settle();
                tr.exit(s);
                settle_ns.push(ts.elapsed().as_nanos() as u64);
                corrections += fixes.len() as u64;
                updates += report.updates;
                for c in fixes {
                    tr.time("serve.apply", || apply(&mut eng, c))?;
                    log.push(c.clone());
                }
            }
            p.lat_ns.push(t.elapsed().as_nanos() as u64);
            tr.exit(op);
            marks.advance(eng.net());
        }
        eng.sync().map_err(|e| format!("engine sync: {e}"))?;
        p.secs = t0.elapsed().as_secs_f64();

        let obs = eng.metrics_snapshot();
        let hist_s = |name: &str| obs.histogram(name).map_or(0.0, |h| h.sum_ns as f64 * 1e-9);
        let (append_s, fsync_s, snapshot_s) = (
            hist_s("serve.append_ns"),
            hist_s("serve.fsync_ns"),
            hist_s("serve.snapshot_ns"),
        );
        validated(eng.net())?;
        p.digest = eng.net().state_digest();
        drop(eng);

        let t = Instant::now();
        let reopened = open(&dir)?;
        let recover_s = t.elapsed().as_secs_f64();
        let recover_frames = reopened.recovery_report().frames_replayed;
        if reopened.net().state_digest() != p.digest {
            return Err("recovered state differs from the state before the reopen".into());
        }
        drop(reopened);

        // Bare shadow: the same applied stream straight through the
        // strategy, no engine.
        let mut bare = base.net.clone();
        let m = Minim::default();
        let mut st = CoreStats::default();
        let shadow = tr.enter("bare", true);
        for e in &log {
            path::step(&mut bare, &m, e, tr, &mut st)?;
        }
        tr.exit(shadow);
        if bare.state_digest() != p.digest {
            return Err("engine state differs from the bare strategy on the same stream".into());
        }
        p.recodings = st.recodings;
        p.max_color = median_color(marks.samples);

        let frame_bytes: usize = log
            .iter()
            .map(|e| encode_frame(codec::encode_event(e).as_bytes()).len())
            .sum();
        let settles = settle_ns.len() as f64;
        (p.layers, p.pooled) = core_layers(&st);
        p.layers.extend([
            ("power.corrections_per_settle", corrections as f64 / settles),
            ("power.updates_per_settle", updates as f64 / settles),
            ("serve.append_s", append_s),
            ("serve.fsync_s", fsync_s),
            ("serve.snapshot_s", snapshot_s),
            (
                "serve.frame_bytes_per_event",
                frame_bytes as f64 / log.len() as f64,
            ),
            ("serve.recover_s", recover_s),
            ("serve.recover_frames", recover_frames as f64),
        ]);
        p.pooled.push(("power.settle_ns", settle_ns));
        if tr.is_on() {
            let profile = tr.profile();
            p.secs = profile.real_s();
            let shadow_core: f64 = ["net.rewire", "core.plan", "core.commit"]
                .iter()
                .filter_map(|k| profile.shadow_s.get(*k))
                .sum();
            let apply_s = profile.self_s.get("serve.apply").copied().unwrap_or(0.0);
            p.layers.push(("serve.self_s", apply_s - shadow_core));
            p.profile = Some(profile);
            p.lat_ns.clear();
        }
        Ok(p)
    }
}
