//! Trace perturbation: controlled mutations of instances for the
//! monotonicity oracles (splitting jobs or relaxing windows never raises
//! the optimum).

use mpss_core::{Instance, Job};

/// Multiplies every window's slack around its midpoint by `factor`
/// (`factor < 1` tightens deadlines and releases symmetrically, `> 1`
/// relaxes them; volumes unchanged).
pub fn scale_slack(instance: &Instance<f64>, factor: f64) -> Instance<f64> {
    assert!(factor > 0.0);
    let jobs = instance
        .jobs
        .iter()
        .map(|j| {
            let mid = 0.5 * (j.release + j.deadline);
            let half = 0.5 * j.window() * factor;
            Job::new((mid - half).max(0.0), mid + half.max(1e-12), j.volume)
        })
        .collect();
    Instance::new(instance.m, jobs).expect("slack scaling preserves validity")
}

/// Splits every job into `parts` equal-volume sub-jobs sharing the window.
/// The optimal energy can only drop or stay equal (more scheduling freedom:
/// the parts may run in parallel on different processors).
pub fn split_jobs(instance: &Instance<f64>, parts: usize) -> Instance<f64> {
    assert!(parts >= 1);
    let jobs = instance
        .jobs
        .iter()
        .flat_map(|j| {
            let w = j.volume / parts as f64;
            std::iter::repeat_n(Job::new(j.release, j.deadline, w), parts)
        })
        .collect();
    Instance::new(instance.m, jobs).expect("splitting preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{Family, WorkloadSpec};
    use mpss_core::job::job;

    fn base() -> Instance<f64> {
        WorkloadSpec {
            family: Family::Uniform,
            n: 8,
            m: 2,
            horizon: 16,
            seed: 1,
        }
        .generate()
    }

    #[test]
    fn slack_scaling_moves_boundaries_symmetrically() {
        let ins = Instance::new(1, vec![job(2.0, 6.0, 1.0)]).unwrap();
        let tight = scale_slack(&ins, 0.5);
        assert_eq!(tight.jobs[0].release, 3.0);
        assert_eq!(tight.jobs[0].deadline, 5.0);
        let relaxed = scale_slack(&ins, 2.0);
        assert_eq!(relaxed.jobs[0].release, 0.0);
        assert_eq!(relaxed.jobs[0].deadline, 8.0);
    }

    #[test]
    fn split_preserves_total_volume() {
        let ins = base();
        let split = split_jobs(&ins, 3);
        assert_eq!(split.n(), 3 * ins.n());
        assert!((split.total_volume() - ins.total_volume()).abs() < 1e-9);
    }

    #[test]
    fn splitting_never_raises_the_optimum() {
        use mpss_core::energy::schedule_energy;
        use mpss_core::power::Polynomial;
        let ins = WorkloadSpec {
            family: Family::Uniform,
            n: 5,
            m: 2,
            horizon: 10,
            seed: 2,
        }
        .generate();
        let p = Polynomial::new(2.0);
        let e0 = schedule_energy(&mpss_offline::optimal_schedule(&ins).unwrap().schedule, &p);
        let e_split = schedule_energy(
            &mpss_offline::optimal_schedule(&split_jobs(&ins, 2))
                .unwrap()
                .schedule,
            &p,
        );
        assert!(
            e_split <= e0 * (1.0 + 1e-9),
            "split raised OPT: {e0} -> {e_split}"
        );
    }

    #[test]
    fn relaxing_slack_never_raises_the_optimum() {
        use mpss_core::energy::schedule_energy;
        use mpss_core::power::Polynomial;
        let ins = WorkloadSpec {
            family: Family::Uniform,
            n: 6,
            m: 2,
            horizon: 12,
            seed: 3,
        }
        .generate();
        let p = Polynomial::new(2.0);
        let e0 = schedule_energy(&mpss_offline::optimal_schedule(&ins).unwrap().schedule, &p);
        let e_rel = schedule_energy(
            &mpss_offline::optimal_schedule(&scale_slack(&ins, 1.5))
                .unwrap()
                .schedule,
            &p,
        );
        assert!(
            e_rel <= e0 * (1.0 + 1e-9),
            "relaxing raised OPT: {e0} -> {e_rel}"
        );
    }
}
