//! End-to-end and per-layer benchmark of the event path.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--trace-out PATH]
//! perfbench --diff A.json B.json
//! ```
//!
//! Each run generates its inputs from the seed, sets the workload up
//! several times (the median is `setup_s`), then runs the workload's
//! fixed stream in passes from a fresh copy of the set-up state until
//! `--seconds` have elapsed. `--trace 0` reports the end-to-end
//! metrics from untraced passes; `--trace 1` runs traced passes and
//! reports the per-layer metrics, writing the spans to a trace file.
//! Every pass is checked (see `README.md`); any failure exits non-zero
//! without printing a result. The last line of standard output is the
//! JSON result.

mod gen;
mod path;
mod stats;
mod trace;
mod workload;

use stats::{median, percentile, samples_needed};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workload::{Pass, Workload, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest untraced passes behind the per-op minima.
const MIN_PASSES: usize = 3;
/// Untraced passes a traced run measures for `trace_overhead`.
const TRACE_BASELINE_PASSES: usize = 2;
/// Measuring stops here even if sample targets are not met.
const MAX_MEASURE_S: f64 = 120.0;
/// The seed whose results are pinned in `pins.json`.
const PIN_SEED: u64 = 1;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("events_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("recodings_per_event", "count"),
    ("max_color", "count"),
];

/// Per-layer metrics: name and unit.
const PER_LAYER: [(&str, &str); 30] = [
    ("net.rewire_s", "s"),
    ("net.edge_churn_per_event", "count"),
    ("core.plan_s", "s"),
    ("core.commit_s", "s"),
    ("core.fastpath_share", "ratio"),
    ("core.recode_set_mean", "count"),
    ("core.recode_set_p99", "count"),
    ("core.useful_write_ratio", "ratio"),
    ("core.gather_s", "s"),
    ("matching.plan_recode_s", "s"),
    ("matching.instance_cells_mean", "count"),
    ("core.repick_share", "ratio"),
    ("power.update_s", "s"),
    ("power.settle_s", "s"),
    ("power.settle_p99_us", "us"),
    ("power.corrections_per_settle", "count"),
    ("power.updates_per_settle", "count"),
    ("power.setup_s", "s"),
    ("serve.self_s", "s"),
    ("serve.append_s", "s"),
    ("serve.fsync_s", "s"),
    ("serve.snapshot_s", "s"),
    ("serve.frame_bytes_per_event", "bytes"),
    ("serve.recover_s", "s"),
    ("serve.recover_frames", "count"),
    ("sim.resident.slice_s", "s"),
    ("sim.resident.border_fraction", "ratio"),
    ("sim.resident.shards", "count"),
    ("trace.op_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Span names whose real-path self time is a per-layer metric.
const SELF_SPANS: [(&str, &str); 5] = [
    ("net.rewire", "net.rewire_s"),
    ("core.plan", "core.plan_s"),
    ("core.commit", "core.commit_s"),
    ("power.update", "power.update_s"),
    ("power.settle", "power.settle_s"),
];

/// Shadow span names whose time is a per-layer metric.
const SHADOW_SPANS: [(&str, &str); 2] = [
    ("core.gather", "core.gather_s"),
    ("matching.plan_recode", "matching.plan_recode_s"),
];

/// Pooled sample series and the p99 metric each one feeds (scale
/// converts the samples to the metric's unit).
const POOLED_P99: [(&str, &str, f64); 2] = [
    ("core.recode_set", "core.recode_set_p99", 1.0),
    ("power.settle_ns", "power.settle_p99_us", 1e-3),
];

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-out PATH]\n       perfbench --diff A.json B.json",
        NAMES.join("|")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: PIN_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        usage();
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// The run's environment, recorded with every result.
fn meta(args: &Args, workload: &str) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload", workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", git_commit().unwrap_or_else(|| "unknown".into())),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in exported trees).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A metric value with its sample count.
struct Value {
    value: f64,
    samples: usize,
}

impl Value {
    fn new(value: f64, samples: usize) -> Value {
        Value { value, samples }
    }
}

/// The outcome of one checked run.
struct Report {
    metrics: BTreeMap<&'static str, Value>,
    attempted: u64,
    digest: u64,
    recodings: u64,
    max_color: u32,
    events: u64,
}

/// Every pass must agree with the first on the final state.
fn check_passes(name: &str, seed: u64, passes: &[&Pass]) -> Result<(), String> {
    let first = passes[0];
    for (i, p) in passes.iter().enumerate() {
        if (p.digest, p.recodings, p.max_color) != (first.digest, first.recodings, first.max_color)
        {
            return Err(format!(
                "pass {i} ended at digest {:#x} / {} recodings / max color {}, pass 0 at {:#x} / {} / {}",
                p.digest, p.recodings, p.max_color, first.digest, first.recodings, first.max_color
            ));
        }
    }
    if seed == PIN_SEED {
        let pins = minim_sim::json::parse(include_str!("../pins.json"))
            .map_err(|e| format!("pins.json: {e}"))?;
        let got = format!(
            r#""{name}": {{"digest": "{:#018x}", "recodings": {}, "max_color": {}}}"#,
            first.digest, first.recodings, first.max_color
        );
        let want = pins.get(name).map(|pin| {
            format!(
                r#""{name}": {{"digest": "{}", "recodings": {}, "max_color": {}}}"#,
                pin.get("digest").and_then(|d| d.as_str()).unwrap_or(""),
                pin.get("recodings").and_then(|r| r.as_u64()).unwrap_or(0),
                pin.get("max_color").and_then(|m| m.as_u64()).unwrap_or(0),
            )
        });
        if want.as_ref() != Some(&got) {
            return Err(format!(
                "seed {seed} does not reproduce pins.json\n  got:    {got}\n  pinned: {}",
                want.as_deref().unwrap_or("(none)")
            ));
        }
    }
    Ok(())
}

/// Runs passes until `seconds` have elapsed since `start`, at least
/// `min` passes exist and every pooled series can carry a p99.
fn run_passes(
    wl: &mut dyn Workload,
    tr: &mut Tracer,
    start: Instant,
    seconds: f64,
    min: usize,
    prior: &[Pass],
    on_pass: &mut dyn FnMut(&Tracer),
) -> Result<Vec<Pass>, String> {
    let need = samples_needed(0.99);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        tr.clear();
        let p = wl.pass(tr)?;
        println!(
            "# pass {}{}: {} events in {:.6} s ({:.1} events/s)",
            prior.len() + passes.len(),
            if tr.is_on() { " (traced)" } else { "" },
            p.events,
            p.secs,
            p.events as f64 / p.secs
        );
        passes.push(p);
        on_pass(tr);
        let mut pooled: BTreeMap<&str, usize> = BTreeMap::new();
        for p in prior.iter().chain(&passes) {
            if tr.is_on() {
                for (k, v) in &p.pooled {
                    *pooled.entry(k).or_default() += v.len();
                }
            } else {
                // Percentiles are taken over one pass's ops (see
                // `fastest_repeats`).
                pooled.insert("op latency", p.lat_ns.len());
            }
        }
        let short: Vec<&str> = pooled
            .iter()
            .filter(|&(_, &n)| n > 0 && n < need)
            .map(|(&k, _)| k)
            .collect();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && passes.len() >= min && short.is_empty() {
            return Ok(passes);
        }
        if elapsed >= MAX_MEASURE_S {
            return Err(format!(
                "too few samples for a p99 after {elapsed:.0} s: {short:?}"
            ));
        }
    }
}

/// Every untraced pass replays the same deterministic stream, so op
/// `i` is the same work in every pass. Machine noise only ever adds
/// time, so each op's fastest repeat is taken as its cost; latency
/// percentiles and throughput both come from these per-op minima.
fn fastest_repeats(passes: &[Pass]) -> Vec<u64> {
    let mut lat = passes[0].lat_ns.clone();
    for p in &passes[1..] {
        for (best, &ns) in lat.iter_mut().zip(&p.lat_ns) {
            *best = (*best).min(ns);
        }
    }
    lat
}

fn pooled_sorted<'a>(passes: impl Iterator<Item = &'a Pass>, key: &str) -> Vec<u64> {
    let mut all: Vec<u64> = passes
        .flat_map(|p| p.pooled.iter().filter(|(k, _)| *k == key))
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn run(args: &Args, name: &str, work: &std::path::Path) -> Result<Report, String> {
    let mut wl = workload::make(name, args.seed, work).ok_or("unknown workload")?;
    let mut setup_s = Vec::new();
    let mut setup_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let layers = wl.setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        for (k, v) in layers {
            setup_layers.entry(k).or_default().push(v);
        }
    }

    let start = Instant::now();
    // The program's own peak is set-up plus one pass, read before the
    // benchmark's bookkeeping of later passes accumulates.
    let mut peak_rss = None;
    let untraced = run_passes(
        wl.as_mut(),
        &mut Tracer::off(),
        start,
        if args.trace { 0.0 } else { args.seconds },
        if args.trace {
            TRACE_BASELINE_PASSES
        } else {
            MIN_PASSES
        },
        &[],
        &mut |_| {
            peak_rss.get_or_insert_with(peak_rss_mib);
        },
    )?;
    let mut first_spans = None;
    let traced = if args.trace {
        run_passes(
            wl.as_mut(),
            &mut Tracer::on(),
            start,
            args.seconds,
            1,
            &untraced,
            &mut |t| {
                first_spans.get_or_insert_with(|| (t.names().to_vec(), t.spans_json()));
            },
        )?
    } else {
        Vec::new()
    };
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    check_passes(name, args.seed, &all)?;

    let metrics = if args.trace {
        let m = layer_metrics(&untraced, &traced, &setup_layers)?;
        write_trace(args, name, &traced, first_spans)?;
        m
    } else {
        end_to_end_metrics(&untraced, &setup_s, peak_rss.unwrap_or(f64::NAN))?
    };
    let first = all[0];
    Ok(Report {
        metrics,
        attempted: all.iter().map(|p| p.events).sum(),
        digest: first.digest,
        recodings: first.recodings,
        max_color: first.max_color,
        events: first.events,
    })
}

/// End-to-end metrics from the untraced passes.
fn end_to_end_metrics(
    untraced: &[Pass],
    setup_s: &[f64],
    peak_rss: f64,
) -> Result<BTreeMap<&'static str, Value>, String> {
    let mut lat = fastest_repeats(untraced);
    let secs = lat.iter().sum::<u64>() as f64 * 1e-9;
    lat.sort_unstable();
    let pct = |q: f64| -> Result<f64, String> {
        percentile(&lat, q)
            .map(|ns| ns as f64 / 1e3)
            .ok_or_else(|| format!("too few latency samples for p{}", q * 100.0))
    };
    let first = &untraced[0];
    let per_event = first.recodings as f64 / first.events as f64;
    Ok(BTreeMap::from([
        (
            "events_per_s",
            Value::new(first.events as f64 / secs, untraced.len()),
        ),
        ("op_p50_us", Value::new(pct(0.5)?, lat.len())),
        ("op_p99_us", Value::new(pct(0.99)?, lat.len())),
        ("setup_s", Value::new(median(setup_s), setup_s.len())),
        ("peak_rss_mib", Value::new(peak_rss, 1)),
        (
            "recodings_per_event",
            Value::new(per_event, first.events as usize),
        ),
        ("max_color", Value::new(f64::from(first.max_color), 1)),
    ]))
}

/// Per-layer metrics: medians over traced passes, p99s over samples
/// pooled from every pass, set-up layers over the set-ups. Layers off
/// the workload's path read 0 with 0 samples.
fn layer_metrics(
    untraced: &[Pass],
    traced: &[Pass],
    setup_layers: &BTreeMap<&'static str, Vec<f64>>,
) -> Result<BTreeMap<&'static str, Value>, String> {
    let n = traced.len();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut m: BTreeMap<&'static str, Value> = PER_LAYER
        .iter()
        .map(|&(k, _)| (k, Value::new(0.0, 0)))
        .collect();
    // Every pass reports the same layer names.
    for &(k, _) in &traced[0].layers {
        let v = per_pass(&|p| p.layers.iter().find(|l| l.0 == k).map_or(0.0, |l| l.1));
        m.insert(k, Value::new(v, n));
    }
    let profile = |p: &Pass| p.profile.clone().unwrap_or_default();
    for (span, metric) in SELF_SPANS {
        let v = per_pass(&|p| profile(p).self_s.get(span).copied().unwrap_or(0.0));
        m.insert(metric, Value::new(v, n));
    }
    for (span, metric) in SHADOW_SPANS {
        let v = per_pass(&|p| profile(p).shadow_s.get(span).copied().unwrap_or(0.0));
        m.insert(metric, Value::new(v, n));
    }
    for (series, metric, scale) in POOLED_P99 {
        let all = pooled_sorted(untraced.iter().chain(traced), series);
        if !all.is_empty() {
            let p99 = percentile(&all, 0.99).ok_or("too few samples for a p99")?;
            m.insert(metric, Value::new(p99 as f64 * scale, all.len()));
        }
    }
    for (&k, v) in setup_layers {
        m.insert(k, Value::new(median(v), v.len()));
    }
    let op_s = per_pass(&|p| p.secs);
    let base_s = median(&untraced.iter().map(|p| p.secs).collect::<Vec<_>>());
    m.insert("trace.op_s", Value::new(op_s, n));
    m.insert("trace_overhead", Value::new(op_s / base_s, n));
    Ok(m)
}

/// Writes the traced run's spans and per-name self times.
fn write_trace(
    args: &Args,
    name: &str,
    traced: &[Pass],
    first: Option<(Vec<&'static str>, String)>,
) -> Result<(), String> {
    use minim_sim::json::Json;
    let path = args.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}-seed{}.json", args.seed))
    });
    let medians = |pick: &dyn Fn(&trace::Profile) -> &BTreeMap<String, f64>| -> Json {
        let mut names: Vec<&String> = traced
            .iter()
            .filter_map(|p| p.profile.as_ref())
            .flat_map(|p| pick(p).keys())
            .collect();
        names.sort();
        names.dedup();
        Json::Obj(
            names
                .into_iter()
                .map(|n| {
                    let v: Vec<f64> = traced
                        .iter()
                        .filter_map(|p| p.profile.as_ref())
                        .map(|p| pick(p).get(n).copied().unwrap_or(0.0))
                        .collect();
                    (n.clone(), Json::Num(median(&v)))
                })
                .collect(),
        )
    };
    let (names, spans) = first.unwrap_or_default();
    let head = Json::obj(vec![
        ("schema", Json::Str("perfbench-trace/1".into())),
        (
            "meta",
            Json::Obj(
                meta(args, name)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v)))
                    .collect(),
            ),
        ),
        ("passes", Json::Num(traced.len() as f64)),
        ("self_s", medians(&|p| &p.self_s)),
        ("shadow_s", medians(&|p| &p.shadow_s)),
        (
            "names",
            Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect()),
        ),
    ])
    .to_string_compact();
    // Splice the (large) span array in without building a Json tree.
    let doc = format!(
        "{},\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\",\"shadow\"],\"spans\":{spans}}}\n",
        head.trim_end_matches('}')
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());
    Ok(())
}

fn print_report(args: &Args, name: &str, r: &Report) {
    let m: Vec<String> = meta(args, name)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# {}", m.join(" "));
    println!(
        "# check: digest {:#018x}, {} recodings, max color {}, {} events per pass",
        r.digest, r.recodings, r.max_color, r.events
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(k, unit) in table {
        let v = &r.metrics[k];
        println!("# {k:<30} {:>16.6} {unit:<6} n={}", v.value, v.samples);
    }
    println!(
        "# {:<30} {:>16.6} {:<6} n={}",
        "error_rate", 0.0, "ratio", r.attempted
    );
}

fn result_line(args: &Args, r: &Report) -> String {
    use minim_sim::json::Json;
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = Json::Obj(
        table
            .iter()
            .map(|&(k, unit)| {
                (
                    k.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(r.metrics[k].value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{}}}",
        r.attempted,
        metrics.to_string_compact()
    )
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn diff_main(a: &str, b: &str) -> i32 {
    let load = |p: &str| -> Result<minim_sim::json::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        minim_sim::json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(da), Ok(db)) => {
            println!(
                "{:<36} {:>12} {:>12} {:>12}",
                "span", "A self_s", "B self_s", "B - A"
            );
            for (n, x, y) in trace::diff(&da, &db) {
                println!("{n:<36} {x:>12.6} {y:>12.6} {:>+12.6}", y - x);
            }
            0
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--diff") {
        let [_, a, b] = argv.as_slice() else { usage() };
        std::process::exit(diff_main(a, b));
    }
    let args = parse_args(&argv);
    let work = WorkDir(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("work-{}", std::process::id())),
    );
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut lines = Vec::new();
    for name in names {
        match run(&args, name, &work.0) {
            Ok(r) => {
                print_report(&args, name, &r);
                lines.push(result_line(&args, &r));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                drop(work);
                std::process::exit(1);
            }
        }
    }
    for line in lines {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_sim::json::{parse, Json};

    /// The tables above and the repository's `BENCHMARK.json` must list
    /// the same workloads and metrics, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<String> = NAMES.iter().map(|n| n.to_string()).collect();
        assert_eq!(list("workloads", "name"), workloads);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<String> = table.iter().map(|m| m.0.to_string()).collect();
            let units: Vec<String> = table.iter().map(|m| m.1.to_string()).collect();
            assert_eq!(list(key, "name"), names, "{key} names");
            assert_eq!(list(key, "unit"), units, "{key} units");
        }
    }

    #[test]
    fn fastest_repeats_take_per_op_minima() {
        let pass = |lat_ns: Vec<u64>| Pass {
            lat_ns,
            ..Pass::default()
        };
        let passes = [pass(vec![5, 1, 9]), pass(vec![3, 4, 9])];
        assert_eq!(fastest_repeats(&passes), [3, 1, 9]);
    }
}
