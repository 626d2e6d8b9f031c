//! Dense vs interval cost engine across horizon lengths.
//!
//! The interval-sparse engine's `build`, `total_cost` and `shift_delta`
//! costs depend on the number of breakpoints (constant here), while the
//! dense grid pays for every time unit of the horizon or of the move.
//! The `shift_delta` case moves a `T/16`-long task by `T/2` — far
//! beyond the local search's `µ = 10` window, which is where the
//! interval engine wins.
//!
//! The companion `bench_cost` binary runs the same grid, adds a
//! quick-grid workflow priced under `µ`-bounded shifts (where the
//! dense grid wins), and emits a machine-readable `BENCH_cost.json`.

#![allow(missing_docs)] // criterion_group! generates undocumented fns
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cawo_bench::fixtures::{horizon_fixture, COST_ENGINE_HORIZONS, COST_ENGINE_TASKS};
use cawo_core::{CostEngine, DenseGrid, IntervalEngine};

fn bench_cost_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_engine");
    for horizon in COST_ENGINE_HORIZONS {
        let (inst, sched, profile) = horizon_fixture(horizon, COST_ENGINE_TASKS);
        let task_len = inst.exec(0);
        let w = inst.work_power(0) as i64;
        let (from, to) = (sched.start(0), horizon / 2);

        group.bench_with_input(
            BenchmarkId::new("build/dense", horizon),
            &horizon,
            |b, _| b.iter(|| black_box(DenseGrid::build(&inst, &sched, &profile))),
        );
        group.bench_with_input(
            BenchmarkId::new("build/interval", horizon),
            &horizon,
            |b, _| b.iter(|| black_box(IntervalEngine::build(&inst, &sched, &profile))),
        );

        let dense = DenseGrid::build(&inst, &sched, &profile);
        let sparse = IntervalEngine::build(&inst, &sched, &profile);
        assert_eq!(dense.total_cost(), sparse.total_cost(), "engines disagree");

        group.bench_with_input(
            BenchmarkId::new("total_cost/dense", horizon),
            &horizon,
            |b, _| b.iter(|| black_box(dense.total_cost())),
        );
        group.bench_with_input(
            BenchmarkId::new("total_cost/interval", horizon),
            &horizon,
            |b, _| b.iter(|| black_box(sparse.total_cost())),
        );
        group.bench_with_input(
            BenchmarkId::new("shift_delta/dense", horizon),
            &horizon,
            |b, _| b.iter(|| black_box(dense.shift_delta(from, task_len, w, to))),
        );
        group.bench_with_input(
            BenchmarkId::new("shift_delta/interval", horizon),
            &horizon,
            |b, _| b.iter(|| black_box(sparse.shift_delta(from, task_len, w, to))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cost_engine);
criterion_main!(benches);
