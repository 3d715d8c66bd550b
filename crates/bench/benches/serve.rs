//! Durability overhead trajectory → `BENCH_serve.json`.
//!
//! Measures the price of crash safety: metropolis churn driven through
//! the bare strategy (no durability), through a [`minim_serve::Engine`]
//! fsyncing every event (`sync_every = 1`, the full-acknowledgment
//! posture), and through an engine batching fsyncs (`sync_every = 64`)
//! with periodic snapshot rotation. Each journaled arm must finish
//! **bit-identical** to the bare arm — the engine is a transparent
//! wrapper — and the JSON records events/sec per arm plus the
//! journaled/bare overhead ratio.
//!
//! The `snapshot` arm prices one checkpoint of a 5000-node network,
//! split into its three steps: streaming the document into the frame
//! buffer, sealing the frame (length + CRC), and the atomic file
//! replace plus removal of the previous generation. It records each
//! step's median milliseconds and the frame's bytes.
//!
//! Run via `cargo bench -p minim-bench --bench serve`; override the
//! event count with `MINIM_BENCH_SERVE_N=2000` and the output path
//! with `MINIM_BENCH_SERVE_OUT=path.json`.

use minim_core::StrategyKind;
use minim_geom::Point;
use minim_net::event::{apply_topology, Event};
use minim_net::workload::{MixWorkload, Placement, RangeDist};
use minim_net::{Network, NodeConfig};
use minim_serve::{codec, journal, DiskFs, Engine, EngineOptions, FaultFs};
use minim_sim::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const CELL_HINT: f64 = 30.5;

/// A valid-in-order churn stream over the paper arena.
fn churn_events(n: usize, seed: u64) -> Vec<Event> {
    let mix = MixWorkload {
        steps: n,
        join_prob: 0.45,
        leave_prob: 0.2,
        maxdisp: 60.0,
        placement: Placement::Uniform {
            arena: minim_geom::Rect::paper_arena(),
        },
        ranges: RangeDist::paper(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ghost = Network::new(CELL_HINT);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let e = mix.next_event(&ghost, &mut rng);
        apply_topology(&mut ghost, &e);
        events.push(e);
    }
    events
}

/// Bare arm: the strategy with no durability layer. Returns
/// (median seconds, final digest).
fn run_bare(events: &[Event], reps: usize) -> (f64, u64) {
    let mut times = Vec::with_capacity(reps);
    let mut digest = 0;
    for _ in 0..reps {
        let mut net = Network::new(CELL_HINT);
        let mut s = StrategyKind::Minim.build();
        let t = Instant::now();
        for e in events {
            s.apply(&mut net, e);
        }
        times.push(t.elapsed().as_secs_f64());
        digest = net.state_digest();
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], digest)
}

/// Journaled arm: the same events through an [`Engine`] over a fresh
/// temp directory per rep. Returns (median seconds, final digest).
fn run_journaled(
    events: &[Event],
    reps: usize,
    sync_every: u64,
    snapshot_every: u64,
) -> (f64, u64) {
    let mut times = Vec::with_capacity(reps);
    let mut digest = 0;
    for rep in 0..reps {
        let dir = std::env::temp_dir().join(format!(
            "minim-bench-serve-{}-{sync_every}-{snapshot_every}-{rep}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EngineOptions {
            strategy: StrategyKind::Minim,
            snapshot_every,
            sync_every,
            cell_hint: CELL_HINT,
            flat: false,
        };
        let mut eng = Engine::open_dir(&dir, opts).expect("open engine");
        let t = Instant::now();
        for e in events {
            eng.apply(e).expect("journaled apply");
        }
        eng.sync().expect("final sync");
        times.push(t.elapsed().as_secs_f64());
        digest = eng.net().state_digest();
        drop(eng);
        let _ = std::fs::remove_dir_all(&dir);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], digest)
}

/// Nodes in the snapshot arm's network.
const SNAPSHOT_N: usize = 5_000;

/// A Minim-colored network of `n` nodes at mean degree about 4:
/// uniform positions in a square of side `10·√n`, ranges 8–14.
fn snapshot_network(n: usize) -> Network {
    let side = 10.0 * (n as f64).sqrt();
    let mut rng = StdRng::seed_from_u64(0x5A4E);
    let mut net = Network::new(CELL_HINT);
    let mut minim = StrategyKind::Minim.build();
    for _ in 0..n {
        let cfg = NodeConfig::new(
            Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
            rng.gen_range(8.0..14.0),
        );
        minim.apply(&mut net, &Event::Join { cfg });
    }
    net
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Snapshot arm: `reps` checkpoints of one network through the
/// engine's steps, each timed on its own.
fn run_snapshot(n: usize, reps: usize) -> Json {
    let net = snapshot_network(n);
    let dir = std::env::temp_dir().join(format!("minim-bench-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fs = DiskFs::open(&dir).expect("open snapshot dir");
    let mut frame = Vec::new();
    let (mut encode, mut seal, mut replace) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let t = Instant::now();
        journal::begin_frame(&mut frame);
        codec::write_snapshot(&mut frame, &net, StrategyKind::Minim, rep as u64)
            .expect("finite network");
        encode.push(t.elapsed());

        let t = Instant::now();
        journal::seal_frame(&mut frame).expect("snapshot under MAX_FRAME");
        seal.push(t.elapsed());

        let t = Instant::now();
        fs.replace(&format!("snap-{rep}"), &frame)
            .expect("replace snapshot");
        if rep > 0 {
            fs.remove(&format!("snap-{}", rep - 1))
                .expect("remove old snapshot");
        }
        replace.push(t.elapsed());
    }
    drop(fs);
    let _ = std::fs::remove_dir_all(&dir);

    let (encode_ms, frame_ms, replace_ms) =
        (median_ms(encode), median_ms(seal), median_ms(replace));
    let bytes = frame.len();
    println!(
        "serve/snapshot:        N={n} {bytes} bytes: encode {encode_ms:.2} ms, \
         frame {frame_ms:.2} ms, replace {replace_ms:.2} ms"
    );
    Json::obj(vec![
        ("n", Json::Num(n as f64)),
        ("reps", Json::Num(reps as f64)),
        ("bytes", Json::Num(bytes as f64)),
        ("encode_ms", Json::Num(encode_ms)),
        ("frame_ms", Json::Num(frame_ms)),
        ("replace_ms", Json::Num(replace_ms)),
    ])
}

fn main() {
    let n: usize = std::env::var("MINIM_BENCH_SERVE_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000);
    let out_path = std::env::var("MINIM_BENCH_SERVE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });
    let reps = 3usize;
    let events = churn_events(n, 0x5E21E);

    let (bare_secs, bare_digest) = run_bare(&events, reps);
    let bare_eps = n as f64 / bare_secs;
    println!("serve/bare:            {bare_eps:>9.0} events/s ({bare_secs:.3}s, N={n})");

    let mut arms: Vec<Json> = Vec::new();
    for (label, sync_every, snapshot_every) in [
        ("journal-sync1", 1u64, 0u64),
        ("journal-sync64", 64, 0),
        ("journal-rotating", 64, 1_000),
    ] {
        let (secs, digest) = run_journaled(&events, reps, sync_every, snapshot_every);
        assert_eq!(
            digest, bare_digest,
            "{label}: the engine must be a bit-transparent wrapper"
        );
        let eps = n as f64 / secs;
        let overhead = secs / bare_secs;
        println!("serve/{label:<16} {eps:>9.0} events/s ({secs:.3}s, {overhead:.2}x bare)");
        arms.push(Json::obj(vec![
            ("arm", Json::Str(label.to_string())),
            ("sync_every", Json::Num(sync_every as f64)),
            ("snapshot_every", Json::Num(snapshot_every as f64)),
            ("seconds", Json::Num(secs)),
            ("events_per_sec", Json::Num(eps)),
            ("overhead_vs_bare", Json::Num(overhead)),
        ]));
    }

    let snapshot = run_snapshot(SNAPSHOT_N, 21);

    let doc = Json::obj(vec![
        ("schema", Json::Str("minim-bench-serve/1".to_string())),
        ("n", Json::Num(n as f64)),
        ("bare_events_per_sec", Json::Num(bare_eps)),
        ("arms", Json::Arr(arms)),
        ("snapshot", snapshot),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}
