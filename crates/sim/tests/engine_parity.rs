//! Engine parity on the paper grid: the dense and interval-sparse
//! (default) cost engines must produce *identical*
//! carbon costs for all 16 CaWoSched variants plus the ASAP baseline on
//! the paper's small platform, across every scenario shape.

use cawo_core::EngineKind;
use cawo_graph::generator::{self, Family, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_platform::{DeadlineFactor, Scenario};
use cawo_sim::experiment::{run_one, ClusterKind, ExperimentConfig, GridScale, InstanceSpec};
use cawo_sim::metrics::cost_mismatches;

#[test]
fn dense_and_interval_engines_agree_on_the_small_paper_grid() {
    let seed = 11;
    let family = Family::Bacass;
    let wf = generator::instantiate(
        &PaperInstance {
            family,
            scaled_to: None,
        },
        seed,
    );
    let cluster = ClusterKind::Small.build(seed);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = cawo_core::Instance::build(&wf, &cluster, &mapping);

    let base = ExperimentConfig::new(GridScale::Quick, seed);
    assert_eq!(base.variants.len(), 17, "all 16 variants + ASAP");
    for scenario in Scenario::ALL {
        for deadline in [DeadlineFactor::X15, DeadlineFactor::X30] {
            let spec = InstanceSpec {
                family,
                scaled_to: None,
                cluster: ClusterKind::Small,
                scenario: scenario.into(),
                deadline,
            };
            let dense_cfg = ExperimentConfig {
                engine: EngineKind::Dense,
                ..base.clone()
            };
            let sparse_cfg = ExperimentConfig {
                engine: EngineKind::Interval,
                ..base.clone()
            };
            let dense = run_one(&dense_cfg, &spec, &inst, &cluster).unwrap();
            let sparse = run_one(&sparse_cfg, &spec, &inst, &cluster).unwrap();
            let bad = cost_mismatches(&dense.cost, &sparse.cost);
            assert!(
                bad.is_empty(),
                "{}: engines disagree on {:?}",
                spec.id(),
                bad.iter().map(|&i| dense.variants[i]).collect::<Vec<_>>()
            );
        }
    }
}
