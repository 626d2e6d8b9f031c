//! The three benchmark workloads: how each is set up, what one timed
//! instance runs, and the layer-by-layer replay of the same pipeline
//! that the correctness gate and the traced run share.

use cawo_core::{
    carbon_cost, greedy_schedule, local_search_with_engine, Cost, DenseGrid, EngineKind,
    GreedyConfig, Instance, IntervalEngine, LocalSearchStats, LsPolicy, RunParams, Schedule,
    Variant,
};
use cawo_exact::{Budget, SolveStatus, Solver, SolverKind};
use cawo_graph::generator::WeightDistribution;
use cawo_graph::generator::{self, generate, Family, GeneratorConfig, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_platform::{Cluster, DeadlineFactor, PowerProfile, ProfileConfig, Scenario};
use cawo_sim::experiment::{build_profile, run_one, ExperimentConfig, GridScale, InstanceSpec};

/// Instances of `exact-small` per pass.
const EXACT_INSTANCES: usize = 768;
/// The families of `exact-small`. At this size their `Gc` has about 8
/// nodes and every solve takes a few milliseconds; the atacseq and eager
/// instances (about 11 nodes) take 50 ms at the median and seconds in
/// the tail, so a pass of them would vary several-fold from seed to
/// seed.
const EXACT_FAMILIES: [Family; 2] = [Family::Bacass, Family::Methylseq];
/// Target task count of an `exact-small` workflow (the Fig. 7 setting).
const EXACT_TASKS: usize = 9;
/// Node budget of the `milp` solver on `exact-small`.
const MILP_NODES: u64 = 200_000;
/// Node budget of the `bnb` solver on `exact-small`.
const BNB_NODES: u64 = 3_000_000;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick paper grid, all 17 variants (local search dominates).
    GridQuick,
    /// The medium grid's 1000-task replicas, ASAP + the 8 greedy-only
    /// variants (greedy and set-up dominate).
    Greedy1000,
    /// Fig. 7-sized workflows solved by `milp` and `bnb`.
    ExactSmall,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "grid-quick" => Some(Workload::GridQuick),
            "greedy-1000" => Some(Workload::Greedy1000),
            "exact-small" => Some(Workload::ExactSmall),
            _ => None,
        }
    }

    fn variants(self) -> Vec<Variant> {
        match self {
            Workload::GridQuick => Variant::ALL.to_vec(),
            Workload::Greedy1000 => Variant::ALL
                .into_iter()
                .filter(|v| !v.has_local_search())
                .collect(),
            Workload::ExactSmall => {
                let mut v = vec![Variant::Asap];
                v.extend(Variant::WITH_LS);
                v
            }
        }
    }

    /// Seconds of `--seconds` that buy one timed pass. A pass takes
    /// about 7.5 s on `grid-quick`, 2.5 s on `greedy-1000` and 3.5 s on
    /// `exact-small` on a shared 2-core 2 GHz x86-64 VM. The host has
    /// phases of a minute or so in which it runs the program up to 30%
    /// slower; an instance's best pass escapes such a phase only when
    /// the passes span more than it. `exact-small`, which such phases
    /// slow most, therefore gets the longest span, and `grid-quick`,
    /// whose longest instances take a second, more passes than its
    /// length alone would give; `greedy-1000`, which they slow least,
    /// gets the shortest.
    fn pass_seconds(self) -> f64 {
        match self {
            Workload::GridQuick => 6.25,
            Workload::Greedy1000 => 5.0,
            Workload::ExactSmall => 25.0 / 12.0,
        }
    }

    /// Timed passes for a run of `seconds`: at least 2, and a function
    /// of the argument alone, so that every run of the same length takes
    /// the best of the same number of samples.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.pass_seconds()).round() as usize).max(2)
    }

    /// The exact solvers and their node budgets.
    fn solvers(self) -> Vec<(SolverKind, u64)> {
        match self {
            Workload::ExactSmall => {
                vec![(SolverKind::Milp, MILP_NODES), (SolverKind::Bnb, BNB_NODES)]
            }
            _ => Vec::new(),
        }
    }
}

/// One (workflow, cluster) pair, shared by every profile run on it.
struct Prepared {
    inst: Instance,
    cluster: Cluster,
}

/// How one instance's power profile is made.
enum ProfileRecipe {
    /// A grid instance: the grid's own profile builder.
    Grid(InstanceSpec),
    /// An `exact-small` instance: a 6-interval profile.
    Exact(ProfileConfig),
}

/// One benchmark instance: a prepared pair plus a profile.
struct Case {
    prep: usize,
    recipe: ProfileRecipe,
}

/// One result row: an algorithm's cost, outcome status and explored
/// nodes on one instance. These are the columns the digest covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Carbon cost.
    pub cost: Cost,
    /// `"ok"` for heuristics, the solve status for exact solvers.
    pub status: &'static str,
    /// Explored search nodes (0 for heuristics).
    pub nodes: u64,
}

/// Attempted and failed correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            eprintln!("perfbench: {}", what());
            self.failed += 1;
        }
    }
}

/// Totals of one layer-by-layer pass, beyond what the spans record.
#[derive(Debug, Default)]
pub struct PassTotals {
    /// Schedules validated, costs and replays compared.
    pub checks: Checks,
    /// Local-search statistics summed over every `-LS` call.
    pub ls: LocalSearchStats,
    /// Exact solves attempted.
    pub solves: u64,
    /// Exact solves that proved optimality.
    pub proved: u64,
}

/// A set-up workload: every instance ready for its first algorithm.
pub struct Bench {
    workload: Workload,
    cfg: ExperimentConfig,
    params: RunParams,
    solvers: Vec<(SolverKind, Box<dyn Solver + Send + Sync>, Budget)>,
    prepared: Vec<Prepared>,
    cases: Vec<Case>,
}

/// The weights of the Fig. 7 comparison: small, so horizons stay short
/// enough for the exact solvers.
fn small_weights() -> WeightDistribution {
    WeightDistribution {
        node_mean: 5.0,
        node_sd: 2.0,
        node_min: 2,
        node_max: 9,
        edge_mean: 2.0,
        edge_sd: 1.0,
        edge_min: 1,
        edge_max: 3,
    }
}

fn prepare(wf: &cawo_graph::Workflow, cluster: Cluster) -> Prepared {
    let mapping = {
        let _s = cawo_obs::span("heft", "map");
        heft_schedule(wf, &cluster)
    };
    let inst = {
        let _s = cawo_obs::span("core", "gc_build");
        Instance::build(wf, &cluster, &mapping)
    };
    Prepared { inst, cluster }
}

impl Bench {
    /// Generates the workflows, builds the clusters, maps with HEFT and
    /// builds every `Gc`: everything before the first algorithm call.
    pub fn setup(workload: Workload, seed: u64) -> Bench {
        let engine = EngineKind::default();
        let mut cfg = ExperimentConfig::new(
            match workload {
                Workload::GridQuick => GridScale::Quick,
                _ => GridScale::Medium,
            },
            seed,
        );
        cfg.variants = workload.variants();
        cfg.engine = engine;
        cfg.serial_timing = true;
        let params = RunParams {
            engine,
            ..RunParams::default()
        };
        let solvers = workload
            .solvers()
            .into_iter()
            .map(|(k, nodes)| (k, k.build_with_engine(engine), Budget::nodes(nodes)))
            .collect();
        let mut prepared = Vec::new();
        let mut cases = Vec::new();
        match workload {
            Workload::GridQuick | Workload::Greedy1000 => {
                let specs: Vec<InstanceSpec> = cfg
                    .grid()
                    .into_iter()
                    .filter(|s| workload == Workload::GridQuick || s.scaled_to == Some(1_000))
                    .collect();
                let mut keys: Vec<(Family, Option<usize>, _)> = Vec::new();
                for spec in specs {
                    let key = (spec.family, spec.scaled_to, spec.cluster);
                    let prep = match keys.iter().position(|k| *k == key) {
                        Some(i) => i,
                        None => {
                            let wf = {
                                let _s = cawo_obs::span("graph", "generate");
                                generator::instantiate(
                                    &PaperInstance {
                                        family: spec.family,
                                        scaled_to: spec.scaled_to,
                                    },
                                    seed,
                                )
                            };
                            prepared.push(prepare(&wf, spec.cluster.build(seed)));
                            keys.push(key);
                            keys.len() - 1
                        }
                    };
                    cases.push(Case {
                        prep,
                        recipe: ProfileRecipe::Grid(spec),
                    });
                }
            }
            Workload::ExactSmall => {
                for i in 0..EXACT_INSTANCES {
                    let scenario = Scenario::ALL[i % Scenario::ALL.len()];
                    let family = EXACT_FAMILIES[(i / Scenario::ALL.len()) % EXACT_FAMILIES.len()];
                    let s = seed ^ (i as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
                    let wf = {
                        let _s = cawo_obs::span("graph", "generate");
                        generate(&GeneratorConfig {
                            family,
                            target_tasks: EXACT_TASKS,
                            seed: s,
                            weights: small_weights(),
                        })
                    };
                    // One slow and one fast processor, as in Fig. 7.
                    prepared.push(prepare(&wf, Cluster::tiny(&[0, 5], s)));
                    cases.push(Case {
                        prep: i,
                        recipe: ProfileRecipe::Exact(ProfileConfig {
                            scenario,
                            deadline: DeadlineFactor::X15,
                            seed: s,
                            intervals: 6,
                            perturbation: 0.1,
                        }),
                    });
                }
            }
        }
        Bench {
            workload,
            cfg,
            params,
            solvers,
            prepared,
            cases,
        }
    }

    /// Number of instances in one pass.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Total `Gc` nodes over the prepared pairs.
    pub fn gc_nodes(&self) -> u64 {
        self.prepared
            .iter()
            .map(|p| p.inst.node_count() as u64)
            .sum()
    }

    fn profile(&self, case: &Case) -> PowerProfile {
        let prep = &self.prepared[case.prep];
        let asap = prep.inst.asap_makespan();
        match &case.recipe {
            ProfileRecipe::Grid(spec) => build_profile(&self.cfg, spec, &prep.cluster, asap)
                .expect("synthetic profiles always build"),
            ProfileRecipe::Exact(pc) => pc.build(&prep.cluster, asap),
        }
    }

    /// One timed instance through the program's own entry points:
    /// `run_one` for the grids, `Variant::run_with` plus
    /// `Solver::solve` for `exact-small`. Returns the instance's rows.
    pub fn run_timed(&self, i: usize) -> Vec<Row> {
        let case = &self.cases[i];
        let prep = &self.prepared[case.prep];
        match &case.recipe {
            ProfileRecipe::Grid(spec) => {
                let res = run_one(&self.cfg, spec, &prep.inst, &prep.cluster)
                    .expect("synthetic profiles always build");
                res.cost.iter().map(|&cost| heuristic_row(cost)).collect()
            }
            ProfileRecipe::Exact(_) => {
                let profile = self.profile(case);
                let mut rows: Vec<Row> = self
                    .cfg
                    .variants
                    .iter()
                    .map(|v| {
                        let s = v.run_with(&prep.inst, &profile, self.params);
                        heuristic_row(carbon_cost(&prep.inst, &s, &profile))
                    })
                    .collect();
                for (_, solver, budget) in &self.solvers {
                    rows.push(match solver.solve(&prep.inst, &profile, *budget) {
                        Ok(res) => Row {
                            cost: res.cost,
                            status: res.status.name(),
                            nodes: res.nodes,
                        },
                        Err(_) => error_row(),
                    });
                }
                rows
            }
        }
    }

    /// The same instance, one public layer call at a time, each inside
    /// a `cawo_obs` span (no-ops unless tracing is on). Every schedule
    /// is validated and costed, one per instance is replayed through
    /// the discrete-event simulator, and on `exact-small` the solvers'
    /// optima are checked against each other and the heuristics.
    pub fn run_layers(&self, i: usize, totals: &mut PassTotals) -> Vec<Row> {
        let case = &self.cases[i];
        let inst = &self.prepared[case.prep].inst;
        let profile = {
            let _s = cawo_obs::span("platform", "profile");
            self.profile(case)
        };
        let mut rows = Vec::new();
        // (row index, schedule) of every algorithm that returned one.
        let mut schedules: Vec<(usize, Schedule)> = Vec::new();
        let check = |sched: &Schedule, checks: &mut Checks| -> Cost {
            let valid = {
                let _s = cawo_obs::span("core", "validate");
                sched.validate(inst, profile.deadline())
            };
            checks.check(valid.is_ok(), || {
                format!("instance {i}: invalid schedule: {valid:?}")
            });
            let _s = cawo_obs::span("core", "cost");
            carbon_cost(inst, sched, &profile)
        };
        for &v in &self.cfg.variants {
            let sched = match v.components() {
                None => inst.asap_schedule(),
                Some((score, weighted, refined, ls)) => {
                    let cfg = GreedyConfig {
                        block_k: self.params.block_k,
                        refine_cap: self.params.refine_cap,
                        ..GreedyConfig::new(score, weighted, refined)
                    };
                    let mut sched = {
                        let _s = cawo_obs::span("core", "greedy");
                        greedy_schedule(inst, &profile, cfg)
                    };
                    if ls {
                        let _s = cawo_obs::span("core", "local_search");
                        let st = local_search(self.params, inst, &profile, &mut sched);
                        totals.ls.rounds += st.rounds;
                        totals.ls.moves += st.moves;
                    }
                    sched
                }
            };
            let cost = check(&sched, &mut totals.checks);
            schedules.push((rows.len(), sched));
            rows.push(heuristic_row(cost));
        }
        for (kind, solver, budget) in &self.solvers {
            totals.solves += 1;
            let res = {
                let _s = cawo_obs::span("exact", kind.name());
                solver.solve(inst, &profile, *budget)
            };
            match res {
                Ok(res) => {
                    let cost = check(&res.schedule, &mut totals.checks);
                    totals.checks.check(cost == res.cost, || {
                        format!(
                            "instance {i}: {} reports cost {} for a schedule costing {cost}",
                            kind.name(),
                            res.cost
                        )
                    });
                    if res.status == SolveStatus::Optimal {
                        totals.proved += 1;
                    }
                    schedules.push((rows.len(), res.schedule));
                    rows.push(Row {
                        cost,
                        status: res.status.name(),
                        nodes: res.nodes,
                    });
                }
                Err(e) => {
                    totals.checks.check(false, || {
                        format!("instance {i}: {} failed: {e}", kind.name())
                    });
                    rows.push(error_row());
                }
            }
        }
        // Replay one schedule per instance, rotating through the
        // algorithms, through the independent event simulator.
        let (k, sched) = &schedules[i % schedules.len()];
        let replay = cawo_sim::des::simulate(inst, sched, &profile);
        totals.checks.check(
            matches!(&replay, Ok(rep) if rep.carbon_cost == rows[*k].cost),
            || {
                format!(
                    "instance {i}: simulator gives {replay:?}, carbon_cost {}",
                    rows[*k].cost
                )
            },
        );
        if self.workload == Workload::ExactSmall {
            totals.checks.check(
                exact_rows_consistent(&rows, self.cfg.variants.len()),
                || format!("instance {i}: exact solvers disagree: {rows:?}"),
            );
        }
        rows
    }
}

/// Local search on the engine `params.engine` names, as
/// `Variant::run_with` runs it.
fn local_search(
    params: RunParams,
    inst: &Instance,
    profile: &PowerProfile,
    sched: &mut Schedule,
) -> LocalSearchStats {
    let policy = LsPolicy::FirstImprovement;
    match params.engine {
        EngineKind::Dense => {
            local_search_with_engine::<DenseGrid>(inst, profile, sched, params.mu, policy)
        }
        _ => local_search_with_engine::<IntervalEngine>(inst, profile, sched, params.mu, policy),
    }
}

fn heuristic_row(cost: Cost) -> Row {
    Row {
        cost,
        status: "ok",
        nodes: 0,
    }
}

fn error_row() -> Row {
    Row {
        cost: 0,
        status: "error",
        nodes: 0,
    }
}

/// On `exact-small` the rows are the heuristics followed by `milp` and
/// `bnb`. A proven optimum may not exceed any other row's cost: it is
/// at most every heuristic, and `milp` and `bnb` agree wherever both
/// proved optimality.
fn exact_rows_consistent(rows: &[Row], n_heuristics: usize) -> bool {
    let optimal = SolveStatus::Optimal.name();
    rows[n_heuristics..]
        .iter()
        .filter(|r| r.status == optimal)
        .all(|opt| {
            rows.iter()
                .all(|r| r.status == "error" || opt.cost <= r.cost)
        })
}
