//! AVR(m) — *Average Rate* on `m` processors (paper §3.2, Fig. 3,
//! Theorem 3).
//!
//! Each job contributes work at its density `δ_i = w_i/(d_i − r_i)` in every
//! instant it is active. Per interval, AVR(m) balances those densities
//! across the processors:
//!
//! 1. while the largest remaining density exceeds the average remaining
//!    load `Δ'/|M|`, the densest job is *peeled* onto a dedicated processor
//!    running at exactly its density;
//! 2. the remaining jobs share the remaining processors at the uniform
//!    speed `s_Δ = Δ'/|M|`, packed by McNaughton wrap-around (each job's
//!    share `δ_i·|I| / s_Δ ≤ |I|`, so the wrapped pieces never overlap).
//!
//! The paper presents the algorithm over unit intervals with integer
//! release times and deadlines ([`avr_schedule_unit`] reproduces that
//! faithfully). Since AVR's decisions depend only on the set of active jobs
//! — constant between consecutive release/deadline events —
//! [`avr_schedule`] computes the identical schedule directly on the event
//! partition, which also supports arbitrary real-valued times; on integer
//! instances the two produce the same speeds and the same energy.

use mpss_core::{Instance, Intervals, Schedule, Segment};
use mpss_numeric::FlowNum;
use mpss_obs::{Collector, NoopCollector};

/// Runs AVR(m) on the event-interval partition. Works for either numeric
/// mode; decisions are fully online (densities of active jobs only).
pub fn avr_schedule<T: FlowNum>(instance: &Instance<T>) -> Schedule<T> {
    avr_schedule_observed(instance, &mut NoopCollector)
}

/// [`avr_schedule`] with an instrumentation [`Collector`].
///
/// Counters: `avr.intervals` (event intervals with at least one active job)
/// and `avr.peeled` (over-dense jobs peeled onto dedicated processors across
/// all intervals — the Fig. 3 step 1 work).
pub fn avr_schedule_observed<T: FlowNum, C: Collector>(
    instance: &Instance<T>,
    obs: &mut C,
) -> Schedule<T> {
    let intervals = Intervals::from_instance(instance);
    let mut schedule = Schedule::new(instance.m);
    for j in 0..intervals.len() {
        let (start, end) = intervals.bounds(j);
        schedule_interval(instance, &mut schedule, start, end, obs);
    }
    schedule.normalize();
    schedule
}

/// Runs AVR(m) exactly as in the paper's Fig. 3: over unit intervals
/// `[t, t+1)` for integer `t`.
///
/// # Panics
/// Panics if any release time or deadline is not an integer.
pub fn avr_schedule_unit(instance: &Instance<f64>) -> Schedule<f64> {
    for (k, job) in instance.jobs.iter().enumerate() {
        assert!(
            job.release.fract() == 0.0 && job.deadline.fract() == 0.0,
            "avr_schedule_unit requires integer times (job {k})"
        );
    }
    let mut schedule = Schedule::new(instance.m);
    let Some(t0) = instance.min_release() else {
        return schedule;
    };
    let t_max = instance.max_deadline().unwrap();
    let mut t = t0;
    while t < t_max {
        schedule_interval(instance, &mut schedule, t, t + 1.0, &mut NoopCollector);
        t += 1.0;
    }
    schedule.normalize();
    schedule
}

/// The per-interval core of Fig. 3: peel over-dense jobs, then wrap-around
/// the rest at the average speed.
fn schedule_interval<T: FlowNum, C: Collector>(
    instance: &Instance<T>,
    schedule: &mut Schedule<T>,
    start: T,
    end: T,
    obs: &mut C,
) {
    let len = end - start;
    // Active jobs with their densities, sorted densest-first.
    let mut active: Vec<(usize, T)> = instance
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, job)| job.active_in(start, end))
        .map(|(k, job)| (k, job.density()))
        .collect();
    if active.is_empty() {
        return;
    }
    obs.count("avr.intervals", 1);
    active.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("comparable densities")
            .then(a.0.cmp(&b.0))
    });

    // Lane-split sum: no serial dependence chain, so wide intervals with
    // hundreds of active jobs vectorize; short slices keep the legacy order.
    let densities: Vec<T> = active.iter().map(|&(_, d)| d).collect();
    let mut total_density = mpss_numeric::sum_lanes(&densities);
    let mut m_left = instance.m;
    let mut next_proc = 0usize;
    let mut idx = 0usize;
    // Peeling loop: densest job vs average of the remainder.
    while idx < active.len() && m_left > 0 {
        let (k, d) = active[idx];
        let avg = total_density / T::from_usize(m_left);
        if !(avg < d) {
            break; // δ_max ≤ Δ'/|M|: the rest shares uniformly
        }
        obs.count("avr.peeled", 1);
        schedule.push(Segment {
            job: k,
            proc: next_proc,
            start,
            end,
            speed: d,
        });
        total_density -= d;
        m_left -= 1;
        next_proc += 1;
        idx += 1;
    }
    let rest = &active[idx..];
    if rest.is_empty() {
        return;
    }
    debug_assert!(
        m_left > 0,
        "peeling cannot exhaust processors (δ_max ≤ Δ' when |M| = 1)"
    );
    let s_avg = total_density / T::from_usize(m_left);
    if !s_avg.is_strictly_positive() {
        return;
    }
    // Wrap-around packing of the shared jobs: job share δ_i·|I| / s_avg.
    let mut cap = len;
    for &(k, d) in rest {
        let mut t_share = d * len / s_avg;
        while t_share.is_strictly_positive() {
            if next_proc >= instance.m {
                break; // float dust past the last processor
            }
            if !cap.is_strictly_positive() {
                next_proc += 1;
                cap = len;
                continue;
            }
            let chunk = t_share.min2(cap);
            let seg_start = start + (len - cap);
            schedule.push(Segment {
                job: k,
                proc: next_proc,
                start: seg_start,
                end: seg_start + chunk,
                speed: s_avg,
            });
            t_share -= chunk;
            cap -= chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_core::energy::{schedule_energy, schedule_energy_exact};
    use mpss_core::job::job;
    use mpss_core::power::Polynomial;
    use mpss_core::validate::assert_feasible;
    use mpss_numeric::rational::rat;
    use mpss_numeric::rng::Rng;
    use mpss_numeric::Rational;

    fn random_int_instance(n: usize, m: usize, horizon: u32, seed: u64) -> Instance<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let jobs = (0..n)
            .map(|_| {
                let r = rng.gen_range(0..horizon - 1) as f64;
                let span = rng.gen_range(1..=horizon - r as u32) as f64;
                job(r, r + span, rng.gen_range(1..=8) as f64)
            })
            .collect();
        Instance::new(m, jobs).unwrap()
    }

    #[test]
    fn single_job_runs_at_its_density() {
        let ins = Instance::new(2, vec![job(0.0, 4.0, 2.0)]).unwrap();
        let s = avr_schedule(&ins);
        assert_feasible(&ins, &s, 1e-9);
        assert_eq!(s.speed_levels(), vec![0.5]);
    }

    #[test]
    fn balanced_jobs_share_uniform_speed() {
        // 3 equal-density jobs on 2 processors: δ = 1 each, avg = 3/2 ≥ δ,
        // so nobody is peeled; uniform speed 1.5.
        let ins = Instance::new(2, vec![job(0.0, 2.0, 2.0); 3]).unwrap();
        let s = avr_schedule(&ins);
        assert_feasible(&ins, &s, 1e-9);
        assert_eq!(s.speed_levels(), vec![1.5]);
    }

    #[test]
    fn dense_job_is_peeled_onto_its_own_processor() {
        // Densities 4, 1, 1 on m = 2: 4 > 6/2 = 3 ⇒ peel job 0 at speed 4;
        // the rest shares speed 2.
        let ins = Instance::new(
            2,
            vec![job(0.0, 1.0, 4.0), job(0.0, 1.0, 1.0), job(0.0, 1.0, 1.0)],
        )
        .unwrap();
        let s = avr_schedule(&ins);
        assert_feasible(&ins, &s, 1e-9);
        assert_eq!(s.speed_levels(), vec![4.0, 2.0]);
        // The peeled job occupies one processor for the whole interval.
        let peeled: Vec<_> = s.segments.iter().filter(|x| x.job == 0).collect();
        assert_eq!(peeled.len(), 1);
        assert_eq!((peeled[0].start, peeled[0].end), (0.0, 1.0));
    }

    #[test]
    fn avr_is_feasible_on_random_instances() {
        for seed in 0..40u64 {
            let ins =
                random_int_instance(3 + (seed as usize % 8), 1 + (seed as usize % 4), 12, seed);
            let s = avr_schedule(&ins);
            assert_feasible(&ins, &s, 1e-9);
        }
    }

    #[test]
    fn event_and_unit_interval_versions_agree_on_energy() {
        for seed in 50..70u64 {
            let ins =
                random_int_instance(4 + (seed as usize % 5), 1 + (seed as usize % 3), 10, seed);
            let e1 = schedule_energy(&avr_schedule(&ins), &Polynomial::new(2.5));
            let e2 = schedule_energy(&avr_schedule_unit(&ins), &Polynomial::new(2.5));
            assert!(
                (e1 - e2).abs() <= 1e-9 * e1.max(1.0),
                "seed {seed}: event {e1} vs unit {e2}"
            );
            assert_feasible(&ins, &avr_schedule_unit(&ins), 1e-9);
        }
    }

    #[test]
    fn exact_rational_avr() {
        let ins: Instance<Rational> = Instance::new(
            2,
            vec![
                job(rat(0, 1), rat(1, 1), rat(4, 1)),
                job(rat(0, 1), rat(1, 1), rat(1, 1)),
                job(rat(0, 1), rat(1, 1), rat(1, 1)),
            ],
        )
        .unwrap();
        let s = avr_schedule(&ins);
        assert_feasible(&ins, &s, 0.0);
        assert_eq!(schedule_energy_exact(&s, 2), rat(20, 1)); // 16 + 4·1
    }

    #[test]
    fn avr_unit_rejects_fractional_times() {
        let ins = Instance::new(1, vec![job(0.5, 2.0, 1.0)]).unwrap();
        let r = std::panic::catch_unwind(|| avr_schedule_unit(&ins));
        assert!(r.is_err());
    }

    #[test]
    fn total_speed_equals_total_density_at_all_times() {
        // Fundamental AVR invariant: Σ_l s_{t,l} = Δ_t.
        let ins = random_int_instance(6, 3, 10, 99);
        let s = avr_schedule(&ins);
        let iv = Intervals::from_instance(&ins);
        for j in 0..iv.len() {
            let (a, b) = iv.bounds(j);
            let mid = 0.5 * (a + b);
            let total_speed: f64 = (0..ins.m).map(|p| s.speed_at(p, mid)).sum();
            let total_density: f64 = ins
                .jobs
                .iter()
                .filter(|job| job.active_in(a, b))
                .map(|job| job.density())
                .sum();
            assert!(
                (total_speed - total_density).abs() <= 1e-9 * total_density.max(1.0),
                "interval {j}: Σ speeds {total_speed} ≠ Δ_t {total_density}"
            );
        }
    }

    #[test]
    fn observed_run_counts_intervals_and_peels() {
        use mpss_obs::RecordingCollector;
        // Densities 4, 1, 1 on m = 2: exactly one peel in one interval.
        let ins = Instance::new(
            2,
            vec![job(0.0, 1.0, 4.0), job(0.0, 1.0, 1.0), job(0.0, 1.0, 1.0)],
        )
        .unwrap();
        let mut rec = RecordingCollector::new();
        let s = avr_schedule_observed(&ins, &mut rec);
        assert_eq!(rec.counter("avr.intervals"), 1);
        assert_eq!(rec.counter("avr.peeled"), 1);
        assert_eq!(s.segments, avr_schedule(&ins).segments);
    }

    #[test]
    fn peeled_processors_never_exceed_m() {
        // Many very dense jobs: peeling stops at m − 1 dedicated processors.
        let mut jobs = vec![job(0.0, 1.0, 100.0), job(0.0, 1.0, 50.0)];
        jobs.extend(std::iter::repeat_n(job(0.0, 1.0, 1.0), 6));
        let ins = Instance::new(3, jobs).unwrap();
        let s = avr_schedule(&ins);
        assert_feasible(&ins, &s, 1e-9);
    }
}
