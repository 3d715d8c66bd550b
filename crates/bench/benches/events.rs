//! Event-path throughput trajectory → `BENCH_events.json`.
//!
//! The repo's first machine-readable perf record: events/sec for the
//! four event families (join / move / churn / power-raise) at
//! N ∈ {1k, 4k, 10k}, each measured **flat-vs-stratified** (the
//! legacy single-tier spatial index vs. the range-stratified
//! reverse-reach index) on the sequential path. A `lighthouse`
//! micro-preset — one max-range node among thousands of short-range
//! joiners — isolates the tier win: under the flat index the
//! lighthouse's watermark inflates every later join's reverse-reach
//! scan to its radius; the stratified index keeps the short tier's
//! scans short and must deliver ≥ [`LIGHTHOUSE_MARGIN`] (2×) join
//! throughput at N = 4k, or the bench panics. A `resident-vs-sequential` arm runs
//! metropolis churn in slices through the sequential runner and the
//! persistent spatial-ownership resident executor, asserting
//! bit-identity and a healthy shard structure (shard count > 1,
//! bounded border-event fraction) and recording the speedup.
//!
//! A `profile-overhead` arm (schema v3) times the metropolis churn
//! preset with the minim-obs registry recording vs runtime-disabled —
//! the observability spine must cost under 3% throughput — and embeds
//! the instrumented run's `minim-trace/1` document in the artifact so
//! CI can validate the trace schema end to end.
//!
//! A `delta-vs-full-validation` arm is the locality gate: it runs the
//! paper's §5.1 join workload at N ∈ {50, 100, 200} under per-event
//! `O(Δ)` delta validation and under the `O(E)` full-revalidation
//! control, then times the two validators alone on a standing
//! 100-node network. Delta must beat Full by at least
//! [`DELTA_MARGIN`] at N = 200 and in the isolated pair; N = 50 and
//! N = 100 are recorded with their ratios but not asserted, since the
//! strategy's own cost hides most of the gap there.
//!
//! Run via `cargo bench -p minim-bench --bench events`; CI uploads the
//! JSON as an artifact so the trajectory accumulates across commits.
//! Override the sweep with `MINIM_BENCH_EVENTS_NS=500,2000` and the
//! output path with `MINIM_BENCH_EVENTS_OUT=path.json`.

use minim_core::{Minim, RecodingStrategy};
use minim_geom::{sample, Point, Rect};
use minim_graph::conflict;
use minim_net::event::{apply_topology, Event};
use minim_net::workload::{
    JoinWorkload, MixWorkload, MovementWorkload, Placement, PowerRaiseWorkload, RangeDist,
};
use minim_net::{Network, NodeConfig};
use minim_sim::json::Json;
use minim_sim::runner::{
    run_events, run_events_validated, ResidentExecutor, ShardHealth, ValidationMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Wave workers for the resident arm.
const WORKERS: usize = 8;

/// Spatial cell hint for every network (the metropolis value).
const CELL_HINT: f64 = 30.5;

/// How many times faster delta validation must be than full
/// revalidation where the locality gate asserts it. Equal code in both
/// arms measures a ratio near 1, so the margin also catches a delta
/// path that silently falls back to the full check.
const DELTA_MARGIN: f64 = 1.2;

/// How many times faster stratified joins must be than flat ones on
/// the lighthouse preset at N = 4k (the bench panics below it).
const LIGHTHOUSE_MARGIN: f64 = 2.0;

/// The middle element of `times` (the upper one for an even count).
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median seconds of `reps` runs each of two arms, interleaved so
/// drift hits both equally.
fn paired_medians(
    reps: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        ta.push(a());
        tb.push(b());
    }
    (median(ta), median(tb))
}

fn fresh(flat: bool) -> Network {
    if flat {
        Network::new_flat(CELL_HINT)
    } else {
        Network::new(CELL_HINT)
    }
}

/// The metropolis deployment: Poisson-clustered hot spots over a
/// 4000×4000 arena, paper ranges.
fn metro_placement(seed: u64) -> (Placement, StdRng) {
    let arena = Rect::new(0.0, 0.0, 4000.0, 4000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..40)
        .map(|_| sample::uniform_point(&mut rng, &arena))
        .collect();
    (
        Placement::Clustered {
            centers,
            spread: 25.0,
            arena,
        },
        rng,
    )
}

fn join_events(n: usize, seed: u64) -> Vec<Event> {
    let (placement, mut rng) = metro_placement(seed);
    let ranges = RangeDist::paper();
    (0..n)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        })
        .collect()
}

/// A colorless base network with `n` metropolis nodes.
fn base_net(n: usize, seed: u64, flat: bool) -> Network {
    let mut net = fresh(flat);
    for e in join_events(n, seed) {
        apply_topology(&mut net, &e);
    }
    net
}

/// One measured workload: a base network (possibly empty) plus the
/// events to time against it.
struct Workload {
    name: &'static str,
    base: Network,
    events: Vec<Event>,
}

fn build_workloads(n: usize, seed: u64, flat: bool) -> Vec<Workload> {
    let mut out = Vec::new();
    // join: n joins into an empty arena.
    out.push(Workload {
        name: "join",
        base: fresh(flat),
        events: join_events(n, seed),
    });
    // move: one §5.3 movement round over an n-node base (one move per
    // node), generated against a colorless ghost so every arm times
    // the identical event list.
    let base = base_net(n, seed, flat);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55AA);
    let moves = MovementWorkload {
        maxdisp: 60.0,
        rounds: 1,
        arena: Rect::new(0.0, 0.0, 4000.0, 4000.0),
    }
    .generate_round(&base, &mut rng);
    out.push(Workload {
        name: "move",
        base: base.clone(),
        events: moves,
    });
    // churn: n mixed steps (join/leave/move) against the same base.
    let (placement, _) = metro_placement(seed);
    let mix = MixWorkload {
        steps: n,
        join_prob: 0.35,
        leave_prob: 0.25,
        maxdisp: 60.0,
        placement,
        ranges: RangeDist::paper(),
    };
    let mut ghost = base.clone();
    let mut churn = Vec::with_capacity(n);
    for _ in 0..n {
        let e = mix.next_event(&ghost, &mut rng);
        apply_topology(&mut ghost, &e);
        churn.push(e);
    }
    out.push(Workload {
        name: "churn",
        base: base.clone(),
        events: churn,
    });
    // power-raise: the §5.2 regime on the base.
    let raises = PowerRaiseWorkload::paper(2.0).generate(&base, &mut rng);
    out.push(Workload {
        name: "power-raise",
        base,
        events: raises,
    });
    out
}

/// Median-of-`reps` wall-clock for applying `events` to a clone of
/// `base` through a fresh Minim strategy.
fn time_run(w: &Workload, reps: usize) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let mut net = w.base.clone();
                let mut s = Minim::default();
                let t = Instant::now();
                run_events(&mut s, &mut net, &w.events);
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// The lighthouse micro-preset: `n` short-range joiners plus one
/// max-range lighthouse early in the stream. Returns the event list.
fn lighthouse_events(n: usize, seed: u64) -> Vec<Event> {
    let arena = Rect::new(0.0, 0.0, 4000.0, 4000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let ranges = RangeDist::Interval {
        minr: 15.0,
        maxr: 25.0,
    };
    let mut events: Vec<Event> = (0..n)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                ranges.sample(&mut rng),
            ),
        })
        .collect();
    // The lighthouse joins 20 events in: everything after it runs
    // under the inflated flat watermark.
    events.insert(
        20.min(events.len()),
        Event::Join {
            cfg: NodeConfig::new(Point::new(2000.0, 2000.0), 2000.0),
        },
    );
    events
}

/// The paper's §5.1 join events for `n` nodes.
fn paper_join_events(n: usize, seed: u64) -> Vec<Event> {
    JoinWorkload::paper(n).generate(&mut StdRng::seed_from_u64(seed))
}

/// The locality gate (see the module docs). Returns the
/// `delta-vs-full-validation` document and panics if delta validation
/// fails to beat full revalidation by [`DELTA_MARGIN`] at N = 200 or
/// in the isolated validator pair.
fn delta_vs_full_validation() -> Json {
    let reps = 11;
    let mut event_loop = Vec::new();
    for n in [50usize, 100, 200] {
        let events = paper_join_events(n, 1);
        let arm = |mode: ValidationMode| {
            let mut net = Network::new(CELL_HINT);
            let mut s = Minim::default();
            let t = Instant::now();
            black_box(run_events_validated(&mut s, &mut net, &events, mode));
            t.elapsed().as_secs_f64()
        };
        let (delta_s, full_s) = paired_medians(
            reps,
            || arm(ValidationMode::Delta),
            || arm(ValidationMode::Full),
        );
        let ratio = full_s / delta_s;
        println!(
            "delta-vs-full-validation/event_loop/N={n}: delta {:>8.3} ms | full {:>8.3} ms | full/delta {ratio:.2}x",
            delta_s * 1e3,
            full_s * 1e3,
        );
        if n == 200 {
            assert!(
                ratio >= DELTA_MARGIN,
                "delta validation must beat full revalidation by {DELTA_MARGIN}x at N={n}, \
                 measured {ratio:.2}x (delta {delta_s:.5}s vs full {full_s:.5}s)"
            );
        }
        event_loop.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("events", Json::Num(events.len() as f64)),
            ("delta_seconds", Json::Num(delta_s)),
            ("full_seconds", Json::Num(full_s)),
            ("full_over_delta", Json::Num(ratio)),
            ("asserted", Json::Bool(n == 200)),
        ]));
    }

    // The two validators alone on a standing 100-node network, as if
    // one node's event had just landed: the strategy's cost is gone.
    let mut net = Network::new(CELL_HINT);
    let mut s = Minim::default();
    for e in &paper_join_events(100, 7) {
        s.apply(&mut net, e);
    }
    let seeds = [net.iter_nodes().nth(50).expect("100-node network")];
    let calls = 1_000;
    let per_call = |validate: &dyn Fn() -> bool| {
        let t = Instant::now();
        for _ in 0..calls {
            assert!(black_box(validate()), "the standing network is valid");
        }
        t.elapsed().as_secs_f64() / calls as f64
    };
    let delta_one =
        || conflict::validate_delta(net.graph(), net.assignment(), black_box(&seeds)).is_ok();
    let full_graph = || conflict::validate(net.graph(), net.assignment()).is_ok();
    let (delta_s, full_s) = paired_medians(reps, || per_call(&delta_one), || per_call(&full_graph));
    let ratio = full_s / delta_s;
    println!(
        "delta-vs-full-validation/validator/N=100: delta_one_node {:>8.2} us | full_graph {:>8.2} us | full/delta {ratio:.2}x",
        delta_s * 1e6,
        full_s * 1e6,
    );
    assert!(
        ratio >= DELTA_MARGIN,
        "validate_delta must beat validate by {DELTA_MARGIN}x on the standing network, \
         measured {ratio:.2}x (delta {delta_s:.3e}s vs full {full_s:.3e}s)"
    );
    Json::obj(vec![
        ("margin", Json::Num(DELTA_MARGIN)),
        ("event_loop", Json::Arr(event_loop)),
        (
            "validator",
            Json::obj(vec![
                ("n", Json::Num(net.node_count() as f64)),
                ("delta_one_node_seconds", Json::Num(delta_s)),
                ("full_graph_seconds", Json::Num(full_s)),
                ("full_over_delta", Json::Num(ratio)),
            ]),
        ),
    ])
}

fn main() {
    let ns: Vec<usize> = std::env::var("MINIM_BENCH_EVENTS_NS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("MINIM_BENCH_EVENTS_NS: bad N"))
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 4_000, 10_000]);
    // Cargo runs bench binaries with cwd = the *package* root
    // (crates/bench); anchor the default output at the workspace root
    // so CI finds it where the checkout lives.
    let out_path = std::env::var("MINIM_BENCH_EVENTS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_events.json").to_string()
    });
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let seed = 0xE7E27u64;

    // The locality gate first: it is quick, and a failure should not
    // wait behind the sweep.
    let delta_validation = delta_vs_full_validation();

    let mut results: Vec<Json> = Vec::new();
    for &n in &ns {
        let reps = if n >= 10_000 { 1 } else { 3 };
        for flat in [true, false] {
            let index = if flat { "flat" } else { "stratified" };
            for w in build_workloads(n, seed, flat) {
                let secs = time_run(&w, reps);
                let eps = w.events.len() as f64 / secs;
                println!(
                    "events/{}/N={n}: {index:>10} {:>9.0} events/s ({} events, {:.3}s)",
                    w.name,
                    eps,
                    w.events.len(),
                    secs,
                );
                results.push(Json::obj(vec![
                    ("workload", Json::Str(w.name.to_string())),
                    ("n", Json::Num(n as f64)),
                    ("index", Json::Str(index.to_string())),
                    ("execution", Json::Str("sequential".to_string())),
                    ("events", Json::Num(w.events.len() as f64)),
                    ("seconds", Json::Num(secs)),
                    ("events_per_sec", Json::Num(eps)),
                ]));
            }
        }
    }

    // Lighthouse: flat vs stratified join throughput, sequential.
    let mut lighthouse: Vec<Json> = Vec::new();
    for &n in &[1_000usize, 4_000] {
        let events = lighthouse_events(n, seed);
        let reps = 3;
        let arm = |flat: bool| {
            let w = Workload {
                name: "lighthouse",
                base: fresh(flat),
                events: events.clone(),
            };
            let secs = time_run(&w, reps);
            events.len() as f64 / secs
        };
        let flat_eps = arm(true);
        let strat_eps = arm(false);
        let speedup = strat_eps / flat_eps;
        println!(
            "lighthouse/N={n}: flat {flat_eps:>9.0} events/s | stratified {strat_eps:>9.0} events/s | tier speedup {speedup:.2}x"
        );
        assert!(
            n < 4_000 || speedup >= LIGHTHOUSE_MARGIN,
            "stratified joins must beat flat by {LIGHTHOUSE_MARGIN}x on the lighthouse at N={n}, \
             measured {speedup:.2}x"
        );
        lighthouse.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("flat_events_per_sec", Json::Num(flat_eps)),
            ("stratified_events_per_sec", Json::Num(strat_eps)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    // Resident vs sequential: metropolis churn in slices, the
    // sequential runner against the persistent spatial-ownership
    // resident executor. Same event slices, same strategy — the arms
    // must be bit-identical; the resident arm additionally reports its
    // shard structure.
    let mut resident_vs_sequential: Vec<Json> = Vec::new();
    {
        let n = 4_000usize;
        let n_slices = 20usize;
        let per_slice = 200usize;
        let base = base_net(n, seed, false);
        let (placement, _) = metro_placement(seed);
        let mix = MixWorkload {
            steps: n_slices * per_slice,
            join_prob: 0.3,
            leave_prob: 0.3,
            maxdisp: 60.0,
            placement,
            ranges: RangeDist::paper(),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
        let mut ghost = base.clone();
        let mut events = Vec::with_capacity(n_slices * per_slice);
        for _ in 0..n_slices * per_slice {
            let e = mix.next_event(&ghost, &mut rng);
            apply_topology(&mut ghost, &e);
            events.push(e);
        }
        let slices: Vec<&[Event]> = events.chunks(per_slice).collect();
        let reps = 3usize;

        let run_sequential = || {
            let mut net = base.clone();
            let mut s = Minim::default();
            let t = Instant::now();
            for slice in &slices {
                run_events(&mut s, &mut net, slice);
            }
            (t.elapsed().as_secs_f64(), net)
        };
        let run_resident = || {
            let mut net = base.clone();
            let mut s = Minim::default();
            let mut exec = ResidentExecutor::new(WORKERS);
            let mut health = ShardHealth::default();
            let t = Instant::now();
            for slice in &slices {
                let m = exec.run(&mut s, &mut net, slice, ValidationMode::Off);
                if let Some(h) = &m.shard_health {
                    health.absorb(h);
                }
            }
            (t.elapsed().as_secs_f64(), net, health)
        };

        let mut sequential_times = Vec::with_capacity(reps);
        let mut resident_times = Vec::with_capacity(reps);
        let mut sequential_net = None;
        let mut resident_out = None;
        for _ in 0..reps {
            let (secs, net) = run_sequential();
            sequential_times.push(secs);
            sequential_net = Some(net);
            let (secs, net, health) = run_resident();
            resident_times.push(secs);
            resident_out = Some((net, health));
        }
        let (resident_net, health) = resident_out.expect("reps >= 1");
        let sequential_net = sequential_net.expect("reps >= 1");
        assert_eq!(
            resident_net.snapshot_assignment(),
            sequential_net.snapshot_assignment(),
            "resident arm must be bit-identical to the sequential arm"
        );
        assert_eq!(resident_net.describe(), sequential_net.describe());
        assert!(
            health.shards > 1,
            "metropolis churn must split across shards, got {}",
            health.shards
        );
        assert!(
            health.border_fraction() < 0.5,
            "border-event fraction must stay bounded, got {:.3}",
            health.border_fraction()
        );
        let sequential_secs = median(sequential_times);
        let resident_secs = median(resident_times);
        let sequential_eps = events.len() as f64 / sequential_secs;
        let resident_eps = events.len() as f64 / resident_secs;
        let speedup = resident_eps / sequential_eps;
        println!(
            "resident-vs-sequential/N={n}: sequential {sequential_eps:>9.0} events/s | resident {resident_eps:>9.0} events/s | speedup {speedup:.2}x | {} shards, border {:.3}",
            health.shards,
            health.border_fraction(),
        );
        resident_vs_sequential.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("slices", Json::Num(n_slices as f64)),
            ("events", Json::Num(events.len() as f64)),
            ("sequential_events_per_sec", Json::Num(sequential_eps)),
            ("resident_events_per_sec", Json::Num(resident_eps)),
            ("speedup", Json::Num(speedup)),
            ("shards", Json::Num(health.shards as f64)),
            ("widest_shard", Json::Num(health.widest_shard as f64)),
            ("border_fraction", Json::Num(health.border_fraction())),
        ]));
    }

    // Profile overhead: the same metropolis churn preset, minim-obs
    // recording vs runtime-disabled, reps interleaved so drift hits
    // both arms equally. The spine's cost per instrumented event is a
    // TLS read plus a relaxed fetch_add, so the median overhead must
    // stay under 3%. (Under `--features obs-off` both arms run the
    // same site-free code and the ratio just measures noise.)
    let mut profile_overhead: Vec<Json> = Vec::new();
    let trace_doc;
    {
        let n = 4_000usize;
        let w = build_workloads(n, seed, false)
            .into_iter()
            .find(|w| w.name == "churn")
            .expect("churn workload present");
        let reps = 9usize;
        let arm = |record: bool| -> f64 {
            minim_obs::set_enabled(record);
            let mut net = w.base.clone();
            let mut s = Minim::default();
            let t = Instant::now();
            run_events(&mut s, &mut net, &w.events);
            t.elapsed().as_secs_f64()
        };
        arm(true); // warm-up: caches, interning
        let (off_secs, on_secs) = paired_medians(reps, || arm(false), || arm(true));
        minim_obs::set_enabled(true);
        let overhead = on_secs / off_secs - 1.0;
        println!(
            "profile-overhead/N={n}: disabled {:>9.0} events/s | recording {:>9.0} events/s | overhead {:+.2}%",
            w.events.len() as f64 / off_secs,
            w.events.len() as f64 / on_secs,
            overhead * 100.0,
        );
        assert!(
            overhead < 0.03,
            "observability overhead on metropolis churn must stay under 3%, \
             measured {:.2}% (recording {on_secs:.4}s vs disabled {off_secs:.4}s)",
            overhead * 100.0
        );
        profile_overhead.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("events", Json::Num(w.events.len() as f64)),
            (
                "disabled_events_per_sec",
                Json::Num(w.events.len() as f64 / off_secs),
            ),
            (
                "recording_events_per_sec",
                Json::Num(w.events.len() as f64 / on_secs),
            ),
            ("overhead", Json::Num(overhead)),
            ("obs_compiled", Json::Bool(minim_obs::COMPILED)),
        ]));

        // One more instrumented pass against a clean registry, so the
        // embedded trace document describes exactly this workload.
        minim_obs::reset();
        arm(true);
        trace_doc = minim_sim::trace::trace_document();
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("minim-bench-events/3".to_string())),
        ("cores", Json::Num(cores as f64)),
        ("resident_workers", Json::Num(WORKERS as f64)),
        ("results", Json::Arr(results)),
        ("lighthouse", Json::Arr(lighthouse)),
        ("resident-vs-sequential", Json::Arr(resident_vs_sequential)),
        ("profile-overhead", Json::Arr(profile_overhead)),
        ("delta-vs-full-validation", delta_validation),
        ("trace", trace_doc),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write BENCH_events.json");
    println!("wrote {out_path}");
}
