//! Per-event recode latency for each strategy — the systems argument
//! behind the paper: Minim's per-event work is local (a small matching)
//! while BBB pays a global recolor on every event.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use minim_bench::network_with;
use minim_core::StrategyKind;
use minim_geom::{sample, Rect};
use minim_net::event::Event;
use minim_net::NodeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_join_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_join");
    for kind in StrategyKind::ALL {
        for &n in &[40usize, 100] {
            let base = network_with(kind, n, 5);
            let mut rng = StdRng::seed_from_u64(99);
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &Rect::paper_arena()),
                sample::uniform_range(&mut rng, 20.5, 30.5),
            );
            group.bench_with_input(
                BenchmarkId::new(kind.label(), n),
                &(base, cfg),
                |b, (base, cfg)| {
                    b.iter_batched(
                        || (base.clone(), kind.build()),
                        |(mut net, mut s)| {
                            black_box(s.apply(&mut net, &Event::Join { cfg: *cfg }).1);
                        },
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.finish();
}

fn bench_move_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_move");
    for kind in StrategyKind::ALL {
        let base = network_with(kind, 40, 6);
        let mut rng = StdRng::seed_from_u64(100);
        let k = rng.gen_range(0..base.node_count());
        let victim = base.iter_nodes().nth(k).expect("k < node_count");
        let to = sample::random_move(
            &mut rng,
            base.config(victim).unwrap().pos,
            40.0,
            &Rect::paper_arena(),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &base,
            |b, base| {
                b.iter_batched(
                    || (base.clone(), kind.build()),
                    |(mut net, mut s)| {
                        black_box(s.apply(&mut net, &Event::Move { node: victim, to }).1);
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_power_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_power_increase");
    for kind in StrategyKind::ALL {
        let base = network_with(kind, 100, 7);
        let victim = base.iter_nodes().nth(50).expect("100-node network");
        let new_range = base.config(victim).unwrap().range * 3.0;
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &base,
            |b, base| {
                b.iter_batched(
                    || (base.clone(), kind.build()),
                    |(mut net, mut s)| {
                        black_box(
                            s.apply(
                                &mut net,
                                &Event::SetRange {
                                    node: victim,
                                    range: new_range,
                                },
                            )
                            .1,
                        );
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_join_event, bench_move_event, bench_power_event
}
criterion_main!(benches);
