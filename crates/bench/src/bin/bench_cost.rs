//! Measures the dense vs interval cost engines and emits a
//! machine-readable `BENCH_cost.json` (written to the current
//! directory, mirrored on stdout).
//!
//! ```text
//! cargo run --release -p cawo_bench --bin bench_cost
//! ```
//!
//! Two fixtures:
//!
//! * `long-tasks` — 8 long tasks across growing horizons, each priced
//!   moving to mid-horizon. `shift_delta_speedup` (dense / interval) at
//!   the largest horizon is its headline: the interval engine prices
//!   the move in time independent of the horizon, so the ratio grows
//!   linearly with `T`.
//! * `quick-grid` — a 200-task workflow of the quick paper grid (HEFT
//!   mapping on the small cluster, `pressWR` greedy schedule), priced
//!   over every shift of at most `µ = 10` the local search would try.
//!   `quick_grid_shift_speedup` is the same dense / interval ratio;
//!   below 1 the dense grid is the faster one, as it is in the
//!   end-to-end grid run with `--engine dense`.

use std::time::Instant;

use cawo_bench::fixtures::{fixture, horizon_fixture, COST_ENGINE_HORIZONS, COST_ENGINE_TASKS};
use cawo_core::{
    greedy_schedule, CostEngine, DenseGrid, GreedyConfig, Instance, IntervalEngine, Schedule, Score,
};
use cawo_graph::generator::Family;
use cawo_graph::NodeId;
use cawo_platform::{DeadlineFactor, PowerProfile, Time};

/// The local search's shift window (paper: 10).
const MU: Time = 10;

/// Median seconds per call over `samples` timed samples of `iters`
/// calls each.
fn median_secs<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct Row {
    fixture: &'static str,
    horizon: u64,
    engine: &'static str,
    build_s: f64,
    total_cost_s: f64,
    shift_delta_s: f64,
}

fn measure<E: CostEngine>(
    inst: &cawo_core::Instance,
    sched: &Schedule,
    profile: &PowerProfile,
    horizon: Time,
) -> Row {
    let task_len = inst.exec(0);
    let w = inst.work_power(0) as i64;
    let (from, to) = (sched.start(0), horizon / 2);
    let engine = E::build(inst, sched, profile);
    Row {
        fixture: "long-tasks",
        horizon,
        engine: E::NAME,
        build_s: median_secs(7, 3, || {
            std::hint::black_box(E::build(inst, sched, profile));
        }),
        total_cost_s: median_secs(7, 10, || {
            std::hint::black_box(engine.total_cost());
        }),
        shift_delta_s: median_secs(9, 20, || {
            std::hint::black_box(engine.shift_delta(from, task_len, w, to));
        }),
    }
}

/// Like [`measure`], but `shift_delta_s` is the mean time per candidate
/// over every shift of at most [`MU`] of every task that stays within
/// the horizon — the pricing load of one local-search round.
fn measure_local<E: CostEngine>(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Row {
    let horizon = profile.deadline();
    let mut moves = Vec::new();
    for v in 0..inst.node_count() as NodeId {
        let (start, len) = (sched.start(v), inst.exec(v));
        let w = inst.work_power(v) as i64;
        for to in start.saturating_sub(MU)..=start + MU {
            if to != start && to + len <= horizon {
                moves.push((start, len, w, to));
            }
        }
    }
    let engine = E::build(inst, sched, profile);
    Row {
        fixture: "quick-grid",
        horizon,
        engine: E::NAME,
        build_s: median_secs(7, 3, || {
            std::hint::black_box(E::build(inst, sched, profile));
        }),
        total_cost_s: median_secs(7, 10, || {
            std::hint::black_box(engine.total_cost());
        }),
        shift_delta_s: median_secs(9, 1, || {
            for &(start, len, w, to) in &moves {
                std::hint::black_box(engine.shift_delta(start, len, w, to));
            }
        }) / moves.len().max(1) as f64,
    }
}

fn main() {
    let mut rows = Vec::new();
    for horizon in COST_ENGINE_HORIZONS {
        let (inst, sched, profile) = horizon_fixture(horizon, COST_ENGINE_TASKS);
        let dense = DenseGrid::build(&inst, &sched, &profile);
        let sparse = IntervalEngine::build(&inst, &sched, &profile);
        assert_eq!(dense.total_cost(), sparse.total_cost(), "engines disagree");
        rows.push(measure::<DenseGrid>(&inst, &sched, &profile, horizon));
        rows.push(measure::<IntervalEngine>(&inst, &sched, &profile, horizon));
    }
    let f = fixture(Family::Atacseq, 200, DeadlineFactor::X20, 1);
    let sched = greedy_schedule(
        &f.inst,
        &f.profile,
        GreedyConfig::new(Score::Pressure, true, true),
    );
    rows.push(measure_local::<DenseGrid>(&f.inst, &sched, &f.profile));
    rows.push(measure_local::<IntervalEngine>(&f.inst, &sched, &f.profile));

    let speedup = |fixture: &str, h: u64| -> f64 {
        let of = |name: &str| {
            rows.iter()
                .find(|r| r.fixture == fixture && r.horizon == h && r.engine == name)
                .expect("measured")
                .shift_delta_s
        };
        of(DenseGrid::NAME) / of(IntervalEngine::NAME).max(1e-12)
    };
    let speedup_at = |h: u64| speedup("long-tasks", h);

    let mut json =
        format!("{{\n  \"bench\": \"cost_engine\",\n  \"tasks\": {COST_ENGINE_TASKS},\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"fixture\": \"{}\", \"horizon\": {}, \"engine\": \"{}\", \
             \"build_s\": {:.3e}, \"total_cost_s\": {:.3e}, \"shift_delta_s\": {:.3e}}}{}\n",
            r.fixture,
            r.horizon,
            r.engine,
            r.build_s,
            r.total_cost_s,
            r.shift_delta_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let quick = speedup("quick-grid", f.profile.deadline());
    json.push_str(&format!(
        "  \"quick_grid_shift_speedup\": {quick:.2},\n  \"shift_delta_speedup\": {{{}}}\n}}\n",
        COST_ENGINE_HORIZONS
            .iter()
            .map(|&h| format!("\"{}\": {:.1}", h, speedup_at(h)))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    std::fs::write("BENCH_cost.json", &json).expect("write BENCH_cost.json");
    print!("{json}");
    eprintln!(
        "shift_delta speedup at {}-unit horizon: {:.1}x; on the quick grid (shifts <= {MU}): \
         {quick:.2}x (wrote BENCH_cost.json)",
        COST_ENGINE_HORIZONS[COST_ENGINE_HORIZONS.len() - 1],
        speedup_at(COST_ENGINE_HORIZONS[COST_ENGINE_HORIZONS.len() - 1])
    );
}
