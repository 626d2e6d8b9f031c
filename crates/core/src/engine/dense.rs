//! The per-time-unit cost engine (the original `PowerGrid`).

use cawo_platform::{PowerProfile, Time};

use crate::cost::Cost;
use crate::enhanced::Instance;
use crate::schedule::Schedule;

use super::CostEngine;

/// Per-time-unit working-power grid with O(1) single-unit updates.
///
/// State and build time are proportional to the horizon `T`, but a
/// candidate move is evaluated in `O(|shift|)` time units (the
/// symmetric difference of the old and new execution windows). The
/// local search shifts a task by at most `µ`, so each candidate costs
/// `O(µ)` flat array reads at any horizon — fewer and cheaper than the
/// interval-sparse [`super::IntervalEngine`]'s breakpoint walk. Whole-task
/// placements over long windows (branch-and-bound) are where the
/// interval engine wins instead.
#[derive(Debug, Clone)]
pub struct DenseGrid {
    /// Working power per time unit.
    work: Vec<i64>,
    /// `d(t) = G(t) - Σ P_idle` per time unit (may be negative).
    headroom: Vec<i64>,
    horizon: Time,
}

impl DenseGrid {
    /// Builds the grid for `sched` over the profile's horizon. The
    /// schedule must respect the deadline.
    pub fn new(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Self {
        let horizon = profile.deadline();
        let idle = inst.total_idle_power() as i64;
        let mut work = vec![0i64; horizon as usize];
        for v in 0..inst.node_count() as cawo_graph::NodeId {
            let w = inst.work_power(v) as i64;
            let s = sched.start(v) as usize;
            let e = sched.finish(v, inst) as usize;
            debug_assert!(e <= horizon as usize, "schedule exceeds profile horizon");
            for slot in &mut work[s..e] {
                *slot += w;
            }
        }
        let mut headroom = vec![0i64; horizon as usize];
        for j in 0..profile.interval_count() {
            let (b, e) = profile.interval_span(j);
            let d = profile.budget(j) as i64 - idle;
            for slot in &mut headroom[b as usize..e as usize] {
                *slot = d;
            }
        }
        DenseGrid {
            work,
            headroom,
            horizon,
        }
    }

    /// Cost contribution of one time unit.
    #[inline]
    fn unit_cost(&self, t: usize) -> i64 {
        (self.work[t] - self.headroom[t]).max(0)
    }

    /// Cost contribution of one time unit if its working power changed
    /// by `delta`.
    #[inline]
    fn unit_cost_with(&self, t: usize, delta: i64) -> i64 {
        (self.work[t] + delta - self.headroom[t]).max(0)
    }
}

impl CostEngine for DenseGrid {
    const NAME: &'static str = "dense";

    fn build(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Self {
        DenseGrid::new(inst, sched, profile)
    }

    fn total_cost(&self) -> Cost {
        let mut c: i64 = 0;
        for t in 0..self.work.len() {
            c += self.unit_cost(t);
        }
        c as Cost
    }

    fn place_delta(&self, start: Time, len: Time, delta: i64) -> i64 {
        cawo_obs::inc(cawo_obs::Ctr::EnginePriceDense);
        if len == 0 || delta == 0 {
            return 0;
        }
        assert!(
            start + len <= self.horizon,
            "placement exceeds profile horizon"
        );
        let mut d = 0i64;
        for t in start..start + len {
            d += self.unit_cost_with(t as usize, delta) - self.unit_cost(t as usize);
        }
        d
    }

    fn apply_place(&mut self, start: Time, len: Time, delta: i64) {
        if len == 0 || delta == 0 {
            return;
        }
        assert!(
            start + len <= self.horizon,
            "placement exceeds profile horizon"
        );
        for slot in &mut self.work[start as usize..(start + len) as usize] {
            *slot += delta;
        }
    }

    fn horizon(&self) -> Time {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::carbon_cost;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    /// Two independent tasks on two units: exec 4 & 2, work power 10 & 5.
    fn two_task_instance() -> Instance {
        let dag = DagBuilder::new(2).build().unwrap();
        Instance::from_raw(
            dag,
            vec![4, 2],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 3,
                    p_work: 10,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 2,
                    p_work: 5,
                    is_link: false,
                },
            ],
            0,
        )
    }

    #[test]
    fn grid_total_matches_sweep() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![10, 6]);
        let s = Schedule::new(vec![0, 4]);
        let grid = DenseGrid::new(&inst, &s, &profile);
        // Grid counts only the work-vs-headroom overshoot; with
        // G >= idle here that's the same as the carbon cost.
        assert_eq!(grid.total_cost(), carbon_cost(&inst, &s, &profile));
        assert_eq!(grid.horizon(), 8);
    }

    #[test]
    fn grid_shift_delta_matches_recost() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![12, 18]);
        let s = Schedule::new(vec![0, 0]);
        let grid = DenseGrid::new(&inst, &s, &profile);
        // Move task 0 (len 4, w 10) from 0 to each feasible start.
        for ns in 0..=4 as Time {
            let mut s2 = s.clone();
            s2.set_start(0, ns);
            let expected =
                carbon_cost(&inst, &s2, &profile) as i64 - carbon_cost(&inst, &s, &profile) as i64;
            assert_eq!(grid.shift_delta(0, 4, 10, ns), expected, "ns={ns}");
        }
    }

    #[test]
    fn grid_apply_then_total_is_consistent() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![12, 18]);
        let mut s = Schedule::new(vec![0, 0]);
        let mut grid = DenseGrid::new(&inst, &s, &profile);
        let before = grid.total_cost() as i64;
        let delta = grid.shift_delta(0, 4, 10, 3);
        grid.apply_shift(0, 4, 10, 3);
        s.set_start(0, 3);
        assert_eq!(grid.total_cost() as i64, before + delta);
        assert_eq!(grid.total_cost(), carbon_cost(&inst, &s, &profile));
    }

    #[test]
    fn zero_power_shift_is_free() {
        let inst = two_task_instance();
        let profile = PowerProfile::uniform(10, 0);
        let s = Schedule::new(vec![0, 0]);
        let grid = DenseGrid::new(&inst, &s, &profile);
        assert_eq!(grid.shift_delta(0, 4, 0, 6), 0);
    }
}
