//! Energy accounting.
//!
//! Energy is power integrated over time; for a piecewise-constant-speed
//! [`Schedule`] it is the finite sum `Σ P(speed_k) · duration_k` over
//! segments. Idle time is not charged, which is exact for power functions
//! with `P(0) = 0` such as the classical `P(s) = s^α`.

use crate::{PowerFunction, Schedule};
use mpss_numeric::{FlowNum, KahanLanes, Rational};

/// Energy of `schedule` under power function `p`, ignoring idle power
/// (exact for `P(0) = 0`, e.g. `P(s) = s^α`). Uses lane-split compensated
/// summation: four independent Kahan lanes, so long schedules accumulate
/// without one serial add chain and without giving up error compensation.
pub fn schedule_energy(schedule: &Schedule<f64>, p: &impl PowerFunction) -> f64 {
    let mut sum = KahanLanes::new();
    for s in &schedule.segments {
        sum.add(p.power(s.speed) * s.duration());
    }
    sum.value()
}

/// Exact energy of a rational schedule under `P(s) = s^α` for integer `α`.
/// Rational addition is associative, so the lane-split order is free
/// throughput here, not a rounding choice.
pub fn schedule_energy_exact(schedule: &Schedule<Rational>, alpha: u32) -> Rational {
    let terms: Vec<Rational> = schedule
        .segments
        .iter()
        .map(|s| s.speed.pow(alpha) * s.duration())
        .collect();
    mpss_numeric::sum_lanes(&terms)
}

/// Generic energy under `P(s) = s^α` for integer `α`, usable with both
/// numeric modes (integer powers only).
pub fn schedule_energy_poly<T: FlowNum>(schedule: &Schedule<T>, alpha: u32) -> T {
    let terms: Vec<T> = schedule
        .segments
        .iter()
        .map(|s| {
            let mut p = T::one();
            for _ in 0..alpha {
                p = p * s.speed;
            }
            p * s.duration()
        })
        .collect();
    mpss_numeric::sum_lanes(&terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::Polynomial;
    use crate::Segment;
    use mpss_numeric::rational::rat;

    fn simple_schedule() -> Schedule<f64> {
        let mut s = Schedule::new(2);
        s.push(Segment {
            job: 0,
            proc: 0,
            start: 0.0,
            end: 2.0,
            speed: 3.0,
        });
        s.push(Segment {
            job: 1,
            proc: 1,
            start: 0.0,
            end: 1.0,
            speed: 2.0,
        });
        s
    }

    #[test]
    fn energy_under_square_law() {
        // 9·2 + 4·1 = 22
        assert_eq!(
            schedule_energy(&simple_schedule(), &Polynomial::new(2.0)),
            22.0
        );
    }

    #[test]
    fn exact_energy_matches_float() {
        let mut s = Schedule::new(1);
        s.push(Segment {
            job: 0,
            proc: 0,
            start: rat(0, 1),
            end: rat(3, 2),
            speed: rat(4, 3),
        });
        let exact = schedule_energy_exact(&s, 3);
        // (4/3)³ · 3/2 = 64/27 · 3/2 = 32/9
        assert_eq!(exact, rat(32, 9));
        assert!(
            (exact.to_f64() - schedule_energy(&s.to_f64(), &Polynomial::new(3.0))).abs() < 1e-12
        );
    }

    #[test]
    fn generic_poly_energy_agrees_with_both_paths() {
        let s = simple_schedule();
        let g = schedule_energy_poly(&s, 2);
        assert_eq!(g, 22.0);
    }

    #[test]
    fn empty_schedule_has_zero_energy() {
        let s: Schedule<f64> = Schedule::new(4);
        assert_eq!(schedule_energy(&s, &Polynomial::cube()), 0.0);
    }
}
