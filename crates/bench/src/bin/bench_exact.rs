//! Measures the exact solvers across horizon lengths — before vs after
//! incremental costing — and emits a machine-readable
//! `BENCH_exact.json` (written to the current directory, mirrored on
//! stdout).
//!
//! ```text
//! cargo run --release -p cawo_bench --bin bench_exact
//! ```
//!
//! "Before" is the per-time-unit [`DenseGrid`] backend (every candidate
//! placement pays `O(task length)`, i.e. `O(horizon)` on the scaling
//! fixture); "after" is the incremental [`IntervalEngine`] backend
//! whose candidate pricing scales with the *structure* inside the
//! touched window. The branch-and-bound explores an identical node
//! sequence on both backends (the deltas are exact either way), so the
//! wall-clock ratio isolates the costing layer. The
//! headline number is `bnb_speedup` (dense / interval) at the longest
//! horizon.
//!
//! A final **threads ladder** times the parallel branch-and-bound
//! (`BnbConfig::parallel`) under a fixed node budget on dedicated
//! `cawo_par` pools of 1/2/4/8 workers; `bnb_threads_speedup` is the
//! 1-thread wall-clock over each. Speedups saturate at the host's
//! physical core count — single-core machines report ~1.0 across the
//! ladder.

use std::time::Instant;

use cawo_bench::fixtures::{exact_chain_fixture, misaligned_chain_schedule, EXACT_HORIZONS};
use cawo_core::{CostEngine, DenseGrid, Instance, IntervalEngine, Schedule};
use cawo_exact::{
    dp_polynomial, dp_pseudo_polynomial, solve_exact_on, to_e_schedule_on, BnbConfig, Budget,
};
use cawo_graph::generator::{generate, Family, GeneratorConfig};
use cawo_heft::heft_schedule;
use cawo_platform::{Cluster, DeadlineFactor, PowerProfile, ProfileConfig, Scenario, Time};

/// Search-node budget for the branch-and-bound runs: both backends
/// explore exactly this many nodes, so timings compare per-node cost.
const BNB_NODES: u64 = 60;

/// Chain length of the scaling fixture.
const BNB_TASKS: usize = 4;

/// Chain length of the E-schedule / DP fixture (more, shorter tasks —
/// the transformation's work grows with the block count).
const CHAIN_TASKS: usize = 24;

/// Profile intervals of the branch-and-bound fixture (paper-style).
const BNB_INTERVALS: usize = 48;

/// Profile intervals of the E-schedule fixture: few, long intervals so
/// Lemma 4.2's block shifts travel `O(horizon)` distances — the regime
/// where per-time-unit costing degrades.
const CHAIN_INTERVALS: usize = 6;

/// Node budget of the threads ladder: the shared atomic counter stops
/// every worker at the same total, so per-thread timings compare equal
/// amounts of search work.
const PAR_NODES: u64 = 200_000;

/// Pool sizes of the threads ladder.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

struct Row {
    solver: &'static str,
    engine: &'static str,
    horizon: Time,
    seconds: f64,
    nodes: u64,
    cost: u64,
    status: &'static str,
    /// Pool size the row was measured on (1 = sequential; only the
    /// threads ladder varies this).
    threads: usize,
}

/// Median seconds of `samples` runs of `f` (each returning (nodes,
/// cost, status) which must be identical across runs).
fn timed<F: FnMut() -> (u64, u64, &'static str)>(
    samples: usize,
    mut f: F,
) -> (f64, u64, u64, &'static str) {
    let mut times = Vec::with_capacity(samples);
    let mut out = (0, 0, "");
    for _ in 0..samples {
        let t0 = Instant::now();
        out = f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out.0, out.1, out.2)
}

fn bnb_row<E: CostEngine + Clone + Send + Sync>(
    inst: &Instance,
    profile: &PowerProfile,
    horizon: Time,
) -> Row {
    let (seconds, nodes, cost, status) = timed(3, || {
        let res = solve_exact_on::<E>(
            inst,
            profile,
            BnbConfig {
                budget: Budget::nodes(BNB_NODES),
                incumbent: None,
                ..BnbConfig::default()
            },
        );
        (
            res.nodes,
            res.cost,
            if res.optimal { "optimal" } else { "timeout" },
        )
    });
    Row {
        solver: "bnb",
        engine: E::NAME,
        horizon,
        seconds,
        nodes,
        cost,
        status,
        threads: 1,
    }
}

fn eschedule_row<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    seed: &Schedule,
    horizon: Time,
) -> Row {
    let (seconds, _, cost, _) = timed(5, || {
        let (_, cost) = to_e_schedule_on::<E>(inst, profile, seed);
        (0, cost, "feasible")
    });
    Row {
        solver: "eschedule",
        engine: E::NAME,
        horizon,
        seconds,
        nodes: 0,
        cost,
        status: "feasible",
        threads: 1,
    }
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    for horizon in EXACT_HORIZONS {
        // Branch-and-bound: identical node-limited search per backend.
        let (inst, profile) = exact_chain_fixture(horizon, BNB_TASKS, BNB_INTERVALS);
        rows.push(bnb_row::<DenseGrid>(&inst, &profile, horizon));
        rows.push(bnb_row::<IntervalEngine>(&inst, &profile, horizon));
        {
            let r = &rows[rows.len() - 2..];
            assert_eq!(
                r[0].cost, r[1].cost,
                "backends disagree at horizon {horizon}"
            );
            assert_eq!(
                r[0].nodes, r[1].nodes,
                "backends explored different trees at horizon {horizon}"
            );
        }

        // E-schedule normalisation of a misaligned schedule.
        let (chain_inst, chain_profile) =
            exact_chain_fixture(horizon, CHAIN_TASKS, CHAIN_INTERVALS);
        let seed = misaligned_chain_schedule(&chain_inst, horizon);
        rows.push(eschedule_row::<DenseGrid>(
            &chain_inst,
            &chain_profile,
            &seed,
            horizon,
        ));
        rows.push(eschedule_row::<IntervalEngine>(
            &chain_inst,
            &chain_profile,
            &seed,
            horizon,
        ));

        // The two DPs (engine column names their costing structure:
        // both query prefix-sum cost oracles, the pseudo variant over every
        // time unit, the polynomial one over E-schedule candidates).
        let (dp_sec, _, dp_cost, _) = timed(3, || {
            let res = dp_pseudo_polynomial(&chain_inst, &chain_profile);
            (0, res.cost, "optimal")
        });
        rows.push(Row {
            solver: "dp-pseudo",
            engine: "prefix",
            horizon,
            seconds: dp_sec,
            nodes: 0,
            cost: dp_cost,
            status: "optimal",
            threads: 1,
        });
        let (poly_sec, _, poly_cost, _) = timed(3, || {
            let res = dp_polynomial(&chain_inst, &chain_profile);
            (0, res.cost, "optimal")
        });
        assert_eq!(dp_cost, poly_cost, "DPs disagree at horizon {horizon}");
        rows.push(Row {
            solver: "dp",
            engine: "prefix",
            horizon,
            seconds: poly_sec,
            nodes: 0,
            cost: poly_cost,
            status: "optimal",
            threads: 1,
        });
    }

    // --- Threads ladder: parallel B&B, fixed node budget per run. ---
    // A branching multi-unit instance so the leftmost-spine
    // decomposition actually yields independent slices.
    {
        let wf = generate(&GeneratorConfig::new(Family::Eager, 10, 7));
        let cluster = Cluster::tiny(&[3, 4], 2);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 7)
            .build(&cluster, inst.asap_makespan());
        let horizon = profile.deadline();
        for &threads in &THREAD_LADDER {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction cannot fail");
            let (seconds, nodes, cost, status) = timed(3, || {
                let res = pool.install(|| {
                    solve_exact_on::<IntervalEngine>(
                        &inst,
                        &profile,
                        BnbConfig {
                            budget: Budget::nodes(PAR_NODES),
                            parallel: true,
                            ..BnbConfig::default()
                        },
                    )
                });
                (
                    res.nodes,
                    res.cost,
                    if res.optimal { "optimal" } else { "timeout" },
                )
            });
            rows.push(Row {
                solver: "bnb-par",
                engine: IntervalEngine::NAME,
                horizon,
                seconds,
                nodes,
                cost,
                status,
                threads,
            });
        }
    }

    let speedup = |solver: &str, h: Time| -> f64 {
        let of = |engine: &str| {
            rows.iter()
                .find(|r| r.solver == solver && r.engine == engine && r.horizon == h)
                .expect("measured")
                .seconds
        };
        of(DenseGrid::NAME) / of(IntervalEngine::NAME).max(1e-12)
    };

    let mut json = format!(
        "{{\n  \"bench\": \"exact_solvers\",\n  \"bnb_tasks\": {BNB_TASKS},\n  \
         \"bnb_nodes\": {BNB_NODES},\n  \"chain_tasks\": {CHAIN_TASKS},\n  \
         \"host\": {},\n",
        cawo_obs::host_meta_json()
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"solver\": \"{}\", \"engine\": \"{}\", \"horizon\": {}, \
             \"seconds\": {:.3e}, \"nodes\": {}, \"cost\": {}, \"status\": \"{}\", \
             \"threads\": {}}}{}\n",
            r.solver,
            r.engine,
            r.horizon,
            r.seconds,
            r.nodes,
            r.cost,
            r.status,
            r.threads,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    for (key, solver) in [("bnb_speedup", "bnb"), ("eschedule_speedup", "eschedule")] {
        json.push_str(&format!(
            "  \"{key}\": {{{}}},\n",
            EXACT_HORIZONS
                .iter()
                .map(|&h| format!("\"{}\": {:.1}", h, speedup(solver, h)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let par_secs = |threads: usize| -> f64 {
        rows.iter()
            .find(|r| r.solver == "bnb-par" && r.threads == threads)
            .expect("measured")
            .seconds
    };
    json.push_str(&format!(
        "  \"bnb_threads_speedup\": {{{}}},\n",
        THREAD_LADDER
            .iter()
            .map(|&t| format!("\"{t}\": {:.2}", par_secs(1) / par_secs(t).max(1e-12)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(
        "  \"speedup_note\": \"dense seconds / interval seconds per horizon; bnb candidate \
         pricing is the headline (grows ~linearly with the horizon), while the E-schedule \
         pass performs only O(n + J) narrow shifts, so its backends stay within noise of \
         each other at these sizes. bnb_threads_speedup is 1-thread seconds over N-thread \
         seconds for the node-budgeted parallel search (bnb-par rows); it saturates at the \
         host's physical core count, so a single-core machine reports ~1.0 across the \
         ladder\"\n}\n",
    );

    std::fs::write("BENCH_exact.json", &json).expect("write BENCH_exact.json");
    print!("{json}");
    let top = EXACT_HORIZONS[EXACT_HORIZONS.len() - 1];
    eprintln!(
        "bnb incremental-costing speedup at {top}-unit horizon: {:.1}x; \
         eschedule: {:.1}x (wrote BENCH_exact.json)",
        speedup("bnb", top),
        speedup("eschedule", top),
    );
}
