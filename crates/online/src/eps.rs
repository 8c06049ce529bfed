//! The crate-wide liveness tolerance for remaining job volume.
//!
//! Online drivers track per-job remaining volume with floating-point
//! subtraction, so a job executed to completion may be left with a residual
//! on the order of the rounding error of the sums that produced it. Every
//! component that asks "is this job still live?" must therefore use the
//! *same* tolerance, or two components can disagree about the live set —
//! e.g. a session replanning for a job its metrics already report finished.
//! This module is that single definition; `OaSession` (and with it every
//! OA run), the potential-function audit and BKP's EDF picker all route
//! through it.
//!
//! In `f64` the tolerance is **relative** to the job's original volume — a
//! job of volume `1e6` accumulates proportionally larger float error than a
//! job of volume `1.0` — with an absolute floor of `1e-9` so that sub-unit
//! volumes (where the relative bound would underflow the achievable float
//! noise) still get a workable margin: `1e-9 · max(volume, 1)`. Exact
//! arithmetic has no rounding residue, so there a job is live exactly while
//! work remains.

use mpss_numeric::FlowNum;

/// Whether a job with `remaining` volume left (of `volume` originally) still
/// counts as live: definitely more than zero at the job's scale. In `f64`
/// that is `remaining > 1e-9 · max(volume, 1)` — exactly *at* the tolerance
/// counts as finished; in exact arithmetic it is `remaining > 0`.
#[inline]
pub fn job_is_live<T: FlowNum>(remaining: T, volume: T) -> bool {
    T::definitely_lt(T::zero(), remaining, volume, 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_numeric::rational::rat;
    use mpss_numeric::Rational;

    #[test]
    fn boundary_is_exclusive_and_scales_with_volume() {
        // Exactly at the tolerance: finished. A hair above: live.
        assert!(!job_is_live(1e-9, 1.0));
        assert!(job_is_live(1.1e-9, 1.0));
        // Large volumes widen the band proportionally.
        assert!(!job_is_live(1e-3, 1e6));
        assert!(job_is_live(1.1e-3, 1e6));
        // Tiny volumes keep the absolute 1e-9 floor rather than shrinking
        // the band below float noise.
        assert!(!job_is_live(1e-9, 1e-6));
        assert!(job_is_live(1.1e-9, 1e-6));
        assert!(!job_is_live(0.9e-9, 1e-6));
        // Fully unexecuted jobs are trivially live.
        assert!(job_is_live(1.0, 1.0));
        // Exact arithmetic: live exactly while any work remains.
        assert!(job_is_live(rat(1, 1_000_000_000_000), Rational::ONE));
        assert!(!job_is_live(Rational::ZERO, Rational::ONE));
    }
}
