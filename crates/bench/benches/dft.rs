//! Criterion benches for the direct DFT (Figures 6–7 backing data).
//!
//! Equation (3): cost ∝ bins × events. The groups sweep each factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use selftune_bench::setups::WindowedFeed;
use selftune_spectrum::{amplitude_spectrum, synthetic_burst_train, SpectrumConfig, WindowedDft};
use std::hint::black_box;

fn bench_batch_events(c: &mut Criterion) {
    let cfg = SpectrumConfig::new(30.0, 100.0, 0.1);
    let mut g = c.benchmark_group("dft/batch_by_events");
    for &jobs in &[16usize, 32, 65, 130] {
        let events = synthetic_burst_train(1.0 / 32.5, jobs, 16, 0.004);
        g.throughput(Throughput::Elements(events.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(jobs), &events, |b, ev| {
            b.iter(|| amplitude_spectrum(black_box(ev), cfg));
        });
    }
    g.finish();
}

fn bench_batch_bins(c: &mut Criterion) {
    let events = synthetic_burst_train(1.0 / 32.5, 65, 16, 0.004);
    let mut g = c.benchmark_group("dft/batch_by_df");
    for &df in &[0.5f64, 0.2, 0.1, 0.05] {
        let cfg = SpectrumConfig::new(30.0, 100.0, df);
        g.throughput(Throughput::Elements(cfg.bins() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(df), &cfg, |b, &cfg| {
            b.iter(|| amplitude_spectrum(black_box(&events), cfg));
        });
    }
    g.finish();
}

fn bench_incremental_push(c: &mut Criterion) {
    let cfg = SpectrumConfig::new(30.0, 100.0, 0.1);
    c.bench_function("dft/incremental_push", |b| {
        let mut w = WindowedDft::new(cfg, 2.0);
        let mut t = 0.0;
        b.iter(|| {
            t += 0.002;
            w.push(black_box(t));
        });
    });
}

/// The manager's feed: a batch per 500 ms sampling period into a full 2 s
/// window (`incremental_push` above is one event per call, i.e. only the
/// one-at-a-time tail of the block kernel).
fn bench_windowed_feed(c: &mut Criterion) {
    let mut g = c.benchmark_group("dft/windowed_feed");
    for &per_batch in &[2usize, 16, 256] {
        g.throughput(Throughput::Elements(per_batch as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(per_batch),
            &per_batch,
            |b, &n| {
                let mut feed = WindowedFeed::new(n);
                b.iter(|| feed.feed_next());
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_batch_events,
    bench_batch_bins,
    bench_incremental_push,
    bench_windowed_feed
);
criterion_main!(benches);
