//! Power-control loop throughput trajectory → `BENCH_power.json`.
//!
//! Measures the `minim-power` closed loop at N ∈ {1k, 4k} on the
//! metropolis-style clustered deployment, continuous vs. discrete
//! (12-rung) ladder:
//!
//! * **loop**: full `PowerLoop::run` passes per second, the iteration
//!   count to convergence, and link-update throughput
//!   (links × iterations / second — the inner-loop rate the sparse
//!   interferer lists exist for);
//! * **events**: end-to-end endogenous events per second — the loop's
//!   emitted set-range stream applied through a fresh Minim strategy,
//!   i.e. what a power-control measured phase costs the scenario lab;
//! * **churn** (incremental vs rebuild, N up to 16k): the same
//!   exogenous join/leave/move stream driven through a warm
//!   [`PowerSession`] (field delta-patching + active-set re-settles)
//!   and through the from-scratch path (full field rebuild + cold
//!   sweep per slice), reporting the speedup explicitly;
//! * **active-set** (vs full sweep): on a static field, the full
//!   synchronous sweep vs cold event-driven relaxation, plus the warm
//!   per-event resettle cost after a single move patch;
//! * **parallel-settle** (vs serial): the same churn stream settled at
//!   `workers = 1` and at the machine's parallelism, asserting the
//!   power vectors stay bit-identical and reporting the island
//!   structure (mean islands per settle, widest island) — the
//!   attainable width even when the host has one core;
//! * **simd-accum** (vs scalar): the explicit-SIMD interference
//!   accumulation kernel against its scalar reference over a settled
//!   field's CSR rows, asserted bitwise-equal row by row.
//!
//! Run via `cargo bench -p minim-bench --bench power`; CI uploads the
//! JSON as an artifact next to `BENCH_events.json`. Override the
//! sweeps with `MINIM_BENCH_POWER_NS=500,2000` /
//! `MINIM_BENCH_POWER_CHURN_NS=1000,16000` and the output path with
//! `MINIM_BENCH_POWER_OUT=path.json`.

use minim_core::Minim;
use minim_geom::{sample, Point, Rect};
use minim_net::event::{apply_topology, Event};
use minim_net::workload::{MixWorkload, Placement, RangeDist};
use minim_net::{Network, NodeConfig};
use minim_power::{LoopScratch, PowerLadder, PowerLoop, PowerLoopConfig, PowerSession, Verdict};
use minim_sim::json::Json;
use minim_sim::runner::run_events;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A clustered metropolis-style base network with `n` nodes.
fn base_net(n: usize, seed: u64) -> Network {
    let arena = Rect::new(0.0, 0.0, 4000.0, 4000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..40)
        .map(|_| sample::uniform_point(&mut rng, &arena))
        .collect();
    let placement = Placement::Clustered {
        centers,
        spread: 25.0,
        arena,
    };
    let ranges = RangeDist::paper();
    let mut net = Network::new(30.5);
    for _ in 0..n {
        net.join(NodeConfig::new(
            placement.sample(&mut rng),
            ranges.sample(&mut rng),
        ));
    }
    net
}

fn loop_config(ladder: PowerLadder) -> PowerLoopConfig {
    let mut cfg = PowerLoopConfig::for_range_scale(25.5);
    cfg.ladder = ladder;
    cfg
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One pre-lowered churn step: the session API wants explicit slot
/// ids, so joins carry the id the shared ghost network assigned.
enum ChurnStep {
    Join(u32, Point, f64),
    Leave(u32),
    Move(u32, Point),
    SetRange(u32, f64),
}

/// Generates `slices × per_slice` exogenous churn steps against a
/// ghost clone of `net` (corrections are endogenous and path-specific,
/// so only the exogenous stream is shared between the two arms).
fn churn_stream(net: &Network, slices: usize, per_slice: usize, seed: u64) -> Vec<Vec<ChurnStep>> {
    let arena = Rect::new(0.0, 0.0, 4000.0, 4000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = MixWorkload {
        steps: slices * per_slice,
        join_prob: 0.3,
        leave_prob: 0.3,
        maxdisp: 25.0,
        placement: Placement::Uniform { arena },
        ranges: RangeDist::paper(),
    };
    let mut ghost = net.clone();
    (0..slices)
        .map(|_| {
            (0..per_slice)
                .map(|_| {
                    let e = workload.next_event(&ghost, &mut rng);
                    let step = match &e {
                        Event::Join { cfg } => {
                            ChurnStep::Join(ghost.peek_next_id().0, cfg.pos, cfg.range)
                        }
                        Event::Leave { node } => ChurnStep::Leave(node.0),
                        Event::Move { node, to } => ChurnStep::Move(node.0, *to),
                        Event::SetRange { node, range } => ChurnStep::SetRange(node.0, *range),
                    };
                    apply_topology(&mut ghost, &e);
                    step
                })
                .collect()
        })
        .collect()
}

/// Incremental vs rebuild on the same exogenous churn stream. The
/// incremental arm patches a warm [`PowerSession`] per event and
/// re-settles per slice; the rebuild arm replays the slice onto a
/// network and runs the from-scratch loop (receiver recompute + field
/// rebuild + cold sweep) at each slice boundary.
fn churn_arm(n: usize, seed: u64, results: &mut Vec<Json>) {
    let slices = 6usize;
    let per_slice = 16usize;
    let net0 = base_net(n, seed);
    let stream = churn_stream(&net0, slices, per_slice, seed ^ 0xC0DE);
    let cfg = loop_config(PowerLadder::Continuous);

    // Incremental: warm the session to the base equilibrium, then
    // time patch + settle across the whole stream.
    let mut session = PowerSession::new(cfg, &net0);
    let (_, base_report) = session.settle();
    let mut relax_updates = base_report.updates;
    let t = Instant::now();
    let mut verdicts_ok = true;
    for slice in &stream {
        for step in slice {
            match *step {
                ChurnStep::Join(id, pos, range) => session.apply_join(id, pos, range),
                ChurnStep::Leave(id) => session.apply_leave(id),
                ChurnStep::Move(id, to) => session.apply_move(id, to),
                ChurnStep::SetRange(id, range) => session.note_range(id, range),
            }
        }
        let (_, report) = session.settle();
        relax_updates += report.updates;
        verdicts_ok &= report.verdict != Verdict::Diverging;
    }
    let inc_secs = t.elapsed().as_secs_f64();

    // Rebuild: same stream replayed onto a network, full loop per
    // slice (scratch reused, so the arm pays rebuild — not allocator —
    // costs). Warm the equilibrium once outside the timer, like the
    // session did.
    let lp = PowerLoop::new(cfg);
    let mut scratch = LoopScratch::new();
    let mut net = net0;
    lp.run_reusing(&net, &[], &mut scratch);
    let mut sweep_link_updates = 0u64;
    let t = Instant::now();
    for slice in &stream {
        for step in slice {
            let e = match *step {
                ChurnStep::Join(_, pos, range) => Event::Join {
                    cfg: NodeConfig::new(pos, range),
                },
                ChurnStep::Leave(id) => Event::Leave {
                    node: minim_graph::NodeId(id),
                },
                ChurnStep::Move(id, to) => Event::Move {
                    node: minim_graph::NodeId(id),
                    to,
                },
                ChurnStep::SetRange(id, range) => Event::SetRange {
                    node: minim_graph::NodeId(id),
                    range,
                },
            };
            apply_topology(&mut net, &e);
        }
        let out = lp.run_reusing(&net, &[], &mut scratch);
        sweep_link_updates += (out.report.links * out.report.iterations) as u64;
    }
    let reb_secs = t.elapsed().as_secs_f64();

    let events = (slices * per_slice) as f64;
    let speedup = reb_secs / inc_secs;
    // The incremental engine's effective throughput in full-sweep
    // units: the link updates the rebuild arm needed for the same
    // stream, per incremental second.
    let equiv_updates_per_sec = sweep_link_updates as f64 / inc_secs;
    println!(
        "churn/N={n}: incremental {:>8.4}s vs rebuild {:>8.4}s over {} events ({} slices) | {speedup:>6.1}x speedup | {equiv_updates_per_sec:>12.0} sweep-equivalent link-updates/s | {} relax updates vs {} sweep updates",
        inc_secs, reb_secs, events, slices, relax_updates, sweep_link_updates,
    );
    results.push(Json::obj(vec![
        ("arm", Json::Str("incremental-vs-rebuild".to_string())),
        ("n", Json::Num(n as f64)),
        ("slices", Json::Num(slices as f64)),
        ("events", Json::Num(events)),
        ("incremental_seconds", Json::Num(inc_secs)),
        ("rebuild_seconds", Json::Num(reb_secs)),
        ("speedup", Json::Num(speedup)),
        ("relax_updates", Json::Num(relax_updates as f64)),
        ("sweep_link_updates", Json::Num(sweep_link_updates as f64)),
        ("link_updates_per_sec", Json::Num(equiv_updates_per_sec)),
        ("settled", Json::Bool(verdicts_ok)),
    ]));
}

/// Island-parallel vs serial settles on the same exogenous churn
/// stream: two sessions replay identical slices, one at `workers = 1`
/// (inline islands) and one at the machine's parallelism, asserting
/// bit-identical power vectors along the way. On single-core CI the
/// interesting output is the island *structure* (attainable width and
/// critical path), which is reported either way.
fn parallel_settle_arm(n: usize, seed: u64, results: &mut Vec<Json>) {
    let slices = 6usize;
    let per_slice = 16usize;
    let net0 = base_net(n, seed);
    let stream = churn_stream(&net0, slices, per_slice, seed ^ 0x15_1A);
    let cfg = loop_config(PowerLadder::Continuous);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(8))
        .unwrap_or(1);

    let run = |w: usize| {
        let mut session = PowerSession::new(cfg, &net0);
        session.set_workers(w);
        session.settle(); // warm to the base equilibrium, untimed
        let mut islands_sum = 0u64;
        let mut widest_sum = 0u64;
        let mut settles = 0u64;
        let t = Instant::now();
        for slice in &stream {
            for step in slice {
                match *step {
                    ChurnStep::Join(id, pos, range) => session.apply_join(id, pos, range),
                    ChurnStep::Leave(id) => session.apply_leave(id),
                    ChurnStep::Move(id, to) => session.apply_move(id, to),
                    ChurnStep::SetRange(id, range) => session.note_range(id, range),
                }
            }
            let (_, report) = session.settle();
            islands_sum += report.islands as u64;
            widest_sum += report.widest_island as u64;
            settles += 1;
        }
        let secs = t.elapsed().as_secs_f64();
        let powers = session.powers().to_vec();
        (secs, powers, islands_sum, widest_sum, settles)
    };
    let (serial_secs, serial_powers, islands_sum, widest_sum, settles) = run(1);
    let (par_secs, par_powers, _, _, _) = run(workers);
    // The contract the whole arm exists to witness: worker count never
    // changes a single bit of the fixed point.
    let bit_identical = serial_powers.len() == par_powers.len()
        && serial_powers
            .iter()
            .zip(&par_powers)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bit_identical, "parallel settle diverged from serial");

    let speedup = serial_secs / par_secs;
    let mean_islands = islands_sum as f64 / settles as f64;
    let mean_widest = widest_sum as f64 / settles as f64;
    // A single-core host cannot witness a speedup, but the island
    // *structure* — the attainable parallel width — is machine-
    // independent: churn dirty sets on the clustered arena must
    // genuinely decompose.
    assert!(
        mean_islands > 1.0,
        "churn worklists should decompose into >1 island per settle, got {mean_islands}"
    );
    println!(
        "parallel-settle/N={n}: serial {serial_secs:>8.4}s vs {workers}-worker {par_secs:>8.4}s | {speedup:>5.2}x | mean {mean_islands:>6.1} islands/settle, widest {mean_widest:>6.1} rows | bit-identical {bit_identical}",
    );
    results.push(Json::obj(vec![
        ("arm", Json::Str("parallel-settle-vs-serial".to_string())),
        ("n", Json::Num(n as f64)),
        ("workers", Json::Num(workers as f64)),
        ("serial_seconds", Json::Num(serial_secs)),
        ("parallel_seconds", Json::Num(par_secs)),
        ("speedup", Json::Num(speedup)),
        ("settles", Json::Num(settles as f64)),
        ("mean_islands", Json::Num(mean_islands)),
        ("mean_widest_island", Json::Num(mean_widest)),
        ("bit_identical", Json::Bool(bit_identical)),
    ]));
}

/// The SIMD vs scalar accumulation kernel, timed per full-field
/// interference pass over a settled session's CSR rows (and asserted
/// bitwise-equal row by row, outside the timers).
fn simd_vs_scalar_arm(n: usize, seed: u64, results: &mut Vec<Json>) {
    use minim_power::{weighted_sum_scalar, weighted_sum_simd};
    let net = base_net(n, seed);
    let cfg = loop_config(PowerLadder::Continuous);
    let mut session = PowerSession::new(cfg, &net);
    session.settle();
    let field = session.field();
    let powers = session.powers();
    let rows: Vec<usize> = (0..field.len()).filter(|&i| field.is_live(i)).collect();
    for &i in &rows {
        let (ids, gains) = field.interferers(i);
        let a = weighted_sum_scalar(ids, gains, |j| powers[j as usize]);
        let b = weighted_sum_simd(ids, gains, |j| powers[j as usize]);
        assert_eq!(a.to_bits(), b.to_bits(), "row {i}: SIMD arm drifted");
    }
    let reps = if n >= 4_000 { 20 } else { 60 };
    let mut sink = 0.0f64;
    let time_arm = |sink: &mut f64, f: &dyn Fn(&[u32], &[f64]) -> f64| {
        let t = Instant::now();
        for _ in 0..reps {
            for &i in &rows {
                let (ids, gains) = field.interferers(i);
                *sink += f(ids, gains);
            }
        }
        t.elapsed().as_secs_f64() / reps as f64
    };
    let scalar_secs = time_arm(&mut sink, &|ids, gains| {
        weighted_sum_scalar(ids, gains, |j| powers[j as usize])
    });
    let simd_secs = time_arm(&mut sink, &|ids, gains| {
        weighted_sum_simd(ids, gains, |j| powers[j as usize])
    });
    std::hint::black_box(sink);
    let entries: usize = rows.iter().map(|&i| field.interferers(i).0.len()).sum();
    let speedup = scalar_secs / simd_secs;
    println!(
        "simd-accum/N={n}: scalar {:>10.6}s vs simd {:>10.6}s per pass ({} rows, {entries} entries) | {speedup:>5.2}x",
        scalar_secs,
        simd_secs,
        rows.len(),
    );
    results.push(Json::obj(vec![
        ("arm", Json::Str("simd-vs-scalar-accum".to_string())),
        ("n", Json::Num(n as f64)),
        ("rows", Json::Num(rows.len() as f64)),
        ("entries", Json::Num(entries as f64)),
        ("scalar_seconds", Json::Num(scalar_secs)),
        ("simd_seconds", Json::Num(simd_secs)),
        ("speedup", Json::Num(speedup)),
    ]));
}

/// Full synchronous sweep vs event-driven relaxation on a static
/// field, plus the warm per-event resettle after a single move.
fn active_set_arm(n: usize, seed: u64, results: &mut Vec<Json>) {
    use minim_power::{relax, run_with, ControlScratch};
    let net = base_net(n, seed);
    let cfg = loop_config(PowerLadder::Continuous);
    let ctrl = cfg.control();
    let mut session = PowerSession::new(cfg, &net);
    let reps = if n >= 4_000 { 2 } else { 3 };

    let mut sweep = ControlScratch::new();
    let first = run_with(session.field(), &ctrl, &mut sweep);
    let sweep_secs = median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let r = run_with(session.field(), &ctrl, &mut sweep);
                assert_eq!(r.iterations, first.iterations);
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let sweep_updates = (session.field().live_links() * first.iterations) as u64;

    let mut active = ControlScratch::new();
    let cold = relax(session.field(), &ctrl, &mut active, false);
    let relax_secs = median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let r = relax(session.field(), &ctrl, &mut active, false);
                assert_eq!(r.updates, cold.updates);
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );

    // Warm per-event: one node oscillates, each settle re-relaxes from
    // the previous equilibrium over the patched rows only.
    session.settle();
    let mover = (0..n as u32)
        .find(|&i| session.field().is_live(i as usize))
        .expect("live node");
    let home = session
        .field()
        .position_of(mover as usize)
        .expect("mover position");
    let warm_events = 40usize;
    let t = Instant::now();
    for k in 0..warm_events {
        let dx = if k % 2 == 0 { 12.0 } else { 0.0 };
        session.apply_move(mover, Point::new(home.x + dx, home.y));
        session.settle();
    }
    let warm_secs = t.elapsed().as_secs_f64() / warm_events as f64;

    println!(
        "active-set/N={n}: sweep {:>8.4}s ({} updates) | cold relax {:>8.4}s ({} updates) | warm settle {:>10.6}s/event ({:>6.1}x vs sweep)",
        sweep_secs, sweep_updates, relax_secs, cold.updates, warm_secs, sweep_secs / warm_secs,
    );
    results.push(Json::obj(vec![
        ("arm", Json::Str("active-set-vs-full-sweep".to_string())),
        ("n", Json::Num(n as f64)),
        ("sweep_seconds", Json::Num(sweep_secs)),
        ("sweep_updates", Json::Num(sweep_updates as f64)),
        ("relax_seconds", Json::Num(relax_secs)),
        ("relax_updates", Json::Num(cold.updates as f64)),
        ("warm_event_seconds", Json::Num(warm_secs)),
        ("warm_speedup_vs_sweep", Json::Num(sweep_secs / warm_secs)),
    ]));
}

fn main() {
    let ns: Vec<usize> = std::env::var("MINIM_BENCH_POWER_NS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("MINIM_BENCH_POWER_NS: bad N"))
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 4_000]);
    // Cargo runs bench binaries with cwd = the *package* root
    // (crates/bench); anchor the default output at the workspace root
    // so CI finds it where the checkout lives.
    let out_path = std::env::var("MINIM_BENCH_POWER_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_power.json").to_string()
    });
    let seed = 0x50_57u64;

    let mut results: Vec<Json> = Vec::new();
    for &n in &ns {
        let reps = if n >= 4_000 { 2 } else { 3 };
        let net = base_net(n, seed);
        for (ladder_name, ladder) in [
            ("continuous", PowerLadder::Continuous),
            ("discrete-12", PowerLadder::Geometric { levels: 12 }),
        ] {
            let lp = PowerLoop::new(loop_config(ladder));
            // Loop throughput: converge the field from scratch.
            let outcome = lp.run(&net, &[]);
            let secs = median(
                (0..reps)
                    .map(|_| {
                        let t = Instant::now();
                        let o = lp.run(&net, &[]);
                        assert_eq!(o.report.iterations, outcome.report.iterations);
                        t.elapsed().as_secs_f64()
                    })
                    .collect(),
            );
            let iters = outcome.report.iterations;
            let link_updates = (outcome.report.links * iters) as f64 / secs;
            // Event throughput: the emitted endogenous stream through
            // a fresh Minim strategy on a clone of the base.
            let ev_secs = median(
                (0..reps)
                    .map(|_| {
                        let mut run_net = net.clone();
                        let mut s = Minim::default();
                        let t = Instant::now();
                        run_events(&mut s, &mut run_net, &outcome.events);
                        t.elapsed().as_secs_f64()
                    })
                    .collect(),
            );
            let events = outcome.events.len();
            println!(
                "power/N={n}: {ladder_name:>11} {:>7.2} loops/s | {iters:>3} iters | {:>10.0} link-updates/s | {:>8.0} endogenous events/s ({events} events)",
                1.0 / secs,
                link_updates,
                events as f64 / ev_secs,
            );
            results.push(Json::obj(vec![
                ("n", Json::Num(n as f64)),
                ("ladder", Json::Str(ladder_name.to_string())),
                ("loop_seconds", Json::Num(secs)),
                ("iterations", Json::Num(iters as f64)),
                ("links", Json::Num(outcome.report.links as f64)),
                ("link_updates_per_sec", Json::Num(link_updates)),
                ("events", Json::Num(events as f64)),
                ("events_per_sec", Json::Num(events as f64 / ev_secs)),
                (
                    "feasible",
                    Json::Bool(outcome.report.feasibility.is_feasible()),
                ),
                (
                    "infeasible_nodes",
                    Json::Num(outcome.report.infeasible.len() as f64),
                ),
            ]));
        }
    }

    let churn_ns: Vec<usize> = std::env::var("MINIM_BENCH_POWER_CHURN_NS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("MINIM_BENCH_POWER_CHURN_NS: bad N"))
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 4_000, 16_000]);
    for &n in &churn_ns {
        churn_arm(n, seed, &mut results);
        active_set_arm(n, seed, &mut results);
        parallel_settle_arm(n, seed, &mut results);
        simd_vs_scalar_arm(n, seed, &mut results);
    }

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let doc = Json::obj(vec![
        ("schema", Json::Str("minim-bench-power/3".to_string())),
        ("cores", Json::Num(cores as f64)),
        ("results", Json::Arr(results)),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write BENCH_power.json");
    println!("wrote {out_path}");
}
