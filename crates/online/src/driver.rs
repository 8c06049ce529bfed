//! Shared online-simulation utilities and competitive-ratio reporting.

use mpss_core::energy::schedule_energy;
use mpss_core::{Instance, ModelError, PowerFunction, Schedule};
use mpss_obs::{Collector, NoopCollector};
use mpss_offline::optimal::{optimal_schedule_observed, OfflineOptions};

/// A measured competitive-ratio data point, pairing an online algorithm's
/// energy with the offline optimum and the theoretical guarantee.
#[derive(Clone, Debug)]
pub struct RatioReport {
    /// Energy of the online schedule.
    pub online_energy: f64,
    /// Energy of the offline optimum (our flow algorithm).
    pub opt_energy: f64,
    /// `online_energy / opt_energy`. `None` when the optimum needs no energy
    /// but the online algorithm spent some — the ratio is unbounded and no
    /// finite value represents it honestly. When *both* energies are zero
    /// (empty instance) the algorithms tie and the ratio is `Some(1.0)`.
    pub ratio: Option<f64>,
    /// The theorem's bound for this α (`α^α` for OA, `(2α)^α/2 + 1` for
    /// AVR), as supplied by the caller.
    pub bound: f64,
}

impl RatioReport {
    /// `true` iff the measured ratio respects the bound (with slack for
    /// float noise). An unbounded ratio (`None`) never does.
    pub fn within_bound(&self) -> bool {
        match self.ratio {
            Some(r) => r <= self.bound * (1.0 + 1e-9) + 1e-9,
            None => false,
        }
    }

    /// The ratio as a plain `f64`, mapping the unbounded case to `+∞` — for
    /// display and worst-case folds.
    pub fn ratio_or_inf(&self) -> f64 {
        self.ratio.unwrap_or(f64::INFINITY)
    }
}

/// Builds a [`RatioReport`] for an online schedule of `instance` under `p`.
///
/// Computes the offline optimum internally; failures of that computation
/// (which indicate an invalid instance) surface as the error instead of
/// panicking.
pub fn competitive_report(
    instance: &Instance<f64>,
    online: &Schedule<f64>,
    p: &impl PowerFunction,
    bound: f64,
) -> Result<RatioReport, ModelError> {
    competitive_report_observed(instance, online, p, bound, &mut NoopCollector)
}

/// [`competitive_report`] with an instrumentation [`Collector`]: the
/// internal offline-optimum run reports through `obs` (spans and counters
/// under `offline.*`), and both energies are observed into the histograms
/// `driver.online_energy` and `driver.opt_energy`.
pub fn competitive_report_observed<C: Collector>(
    instance: &Instance<f64>,
    online: &Schedule<f64>,
    p: &impl PowerFunction,
    bound: f64,
    obs: &mut C,
) -> Result<RatioReport, ModelError> {
    let opt = optimal_schedule_observed(instance, &OfflineOptions::default(), obs)?;
    let opt_energy = schedule_energy(&opt.schedule, p);
    let online_energy = schedule_energy(online, p);
    obs.observe("driver.online_energy", online_energy);
    obs.observe("driver.opt_energy", opt_energy);
    let ratio = if opt_energy > 0.0 {
        Some(online_energy / opt_energy)
    } else if online_energy > 0.0 {
        None
    } else {
        Some(1.0)
    };
    Ok(RatioReport {
        online_energy,
        opt_energy,
        ratio,
        bound,
    })
}

/// Walks `schedule` in execution order and observes the cumulative energy
/// after each segment into the histogram `driver.energy_trajectory` (so a
/// run report shows how the energy bill accrues over the run, not just its
/// total), counting segments under `driver.segments`. Returns the total.
pub fn record_energy_trajectory<C: Collector>(
    schedule: &Schedule<f64>,
    p: &impl PowerFunction,
    obs: &mut C,
) -> f64 {
    let mut order: Vec<&mpss_core::Segment<f64>> = schedule.segments.iter().collect();
    order.sort_by(|a, b| {
        a.end
            .partial_cmp(&b.end)
            .expect("comparable times")
            .then(a.start.partial_cmp(&b.start).expect("comparable times"))
    });
    let mut total = 0.0;
    for seg in order {
        total += p.power(seg.speed) * (seg.end - seg.start);
        obs.count("driver.segments", 1);
        obs.observe("driver.energy_trajectory", total);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avr::avr_schedule;
    use crate::oa::oa_schedule;
    use mpss_core::job::job;
    use mpss_core::power::Polynomial;
    use mpss_obs::RecordingCollector;

    fn sample() -> Instance<f64> {
        Instance::new(
            2,
            vec![job(0.0, 2.0, 2.0), job(1.0, 3.0, 2.0), job(0.0, 4.0, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn reports_for_both_online_algorithms_respect_theorems() {
        let ins = sample();
        let p = Polynomial::new(2.0);
        let oa = oa_schedule(&ins).unwrap();
        let oa_report = competitive_report(&ins, &oa.schedule, &p, p.oa_bound()).unwrap();
        assert!(oa_report.within_bound(), "{oa_report:?}");
        assert!(oa_report.ratio.unwrap() >= 1.0 - 1e-9);

        let avr = avr_schedule(&ins);
        let avr_report = competitive_report(&ins, &avr, &p, p.avr_bound()).unwrap();
        assert!(avr_report.within_bound(), "{avr_report:?}");
        assert!(avr_report.ratio.unwrap() >= 1.0 - 1e-9);
    }

    #[test]
    fn empty_instance_ties_at_ratio_one() {
        let ins: Instance<f64> = Instance::new(2, vec![]).unwrap();
        let empty = Schedule::new(2);
        let p = Polynomial::new(2.0);
        let report = competitive_report(&ins, &empty, &p, p.oa_bound()).unwrap();
        assert_eq!(report.opt_energy, 0.0);
        assert_eq!(report.ratio, Some(1.0));
        assert!(report.within_bound());
        assert_eq!(report.ratio_or_inf(), 1.0);
    }

    #[test]
    fn zero_opt_with_positive_online_energy_is_unbounded() {
        // An empty instance costs the optimum nothing; an online schedule
        // that still burns energy has no finite competitive ratio.
        let ins: Instance<f64> = Instance::new(1, vec![]).unwrap();
        let mut wasteful = Schedule::new(1);
        wasteful.push(mpss_core::Segment {
            job: 0,
            proc: 0,
            start: 0.0,
            end: 1.0,
            speed: 2.0,
        });
        let p = Polynomial::new(2.0);
        let report = competitive_report(&ins, &wasteful, &p, p.oa_bound()).unwrap();
        assert_eq!(report.opt_energy, 0.0);
        assert!(report.online_energy > 0.0);
        assert_eq!(report.ratio, None);
        assert!(!report.within_bound());
        assert_eq!(report.ratio_or_inf(), f64::INFINITY);
    }

    #[test]
    fn observed_report_and_trajectory_feed_the_collector() {
        let ins = sample();
        let p = Polynomial::new(2.0);
        let oa = oa_schedule(&ins).unwrap();
        let mut rec = RecordingCollector::new();
        let report =
            competitive_report_observed(&ins, &oa.schedule, &p, p.oa_bound(), &mut rec).unwrap();
        assert!(rec.counter("offline.maxflow.invocations") >= 1);
        assert_eq!(rec.histogram("driver.online_energy").unwrap().count(), 1);

        let total = record_energy_trajectory(&oa.schedule, &p, &mut rec);
        assert!((total - report.online_energy).abs() <= 1e-9 * total.max(1.0));
        let traj = rec.histogram("driver.energy_trajectory").unwrap();
        assert_eq!(traj.count(), oa.schedule.len() as u64);
        assert_eq!(rec.counter("driver.segments"), oa.schedule.len() as u64);
        // The trajectory is cumulative: its max is the total energy.
        assert!((traj.summary().max - total).abs() <= 1e-9 * total.max(1.0));
    }
}
