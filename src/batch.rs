//! Batched multi-instance solving over the shared worker pool.
//!
//! Experiment sweeps and the `mpss-cli solve-batch` command solve many
//! *independent* instances — different seeds, different workload families,
//! different traces in a directory. The instances share nothing, so the
//! natural unit of parallelism is the whole solve: [`solve_many`] shards the
//! batch across an [`mpss_par::ThreadPool`] and returns results in input
//! order.
//!
//! Determinism: each instance is solved by exactly one worker with its own
//! engines, and the pool's ordered join puts outputs back in submission
//! order — the batch output is byte-for-byte the concatenation of
//! `threads = 1` solo runs, whatever the thread count.
//!
//! Observation: [`solve_many`] records nothing. [`solve_many_observed`]
//! records each instance once, into its own [`TraceCollector`] forked from
//! the caller's root; [`RecordingCollector::from_trace`] folds one into
//! that instance's run report, and adopting them into the root in input
//! order gives the batch trace, one track per instance.
//!
//! [`RecordingCollector::from_trace`]: mpss_obs::RecordingCollector::from_trace

use mpss_core::{Instance, ModelError};
use mpss_numeric::FlowNum;
use mpss_obs::{Collector, TraceCollector};
use mpss_offline::{
    optimal_schedule_observed, optimal_schedule_with, OfflineOptions, OptimalResult,
};
use mpss_par::ThreadPool;

/// One instance's slice of a [`solve_many`] batch.
pub struct BatchOutput<T: FlowNum> {
    /// The solve outcome (independent per instance; one instance erroring
    /// does not poison the batch).
    pub result: Result<OptimalResult<T>, ModelError>,
    /// This instance's event trace, on one track named `instance-<index>`:
    /// every event a solo observed run records, and nothing else. `None`
    /// when the batch was not observed.
    pub trace: Option<TraceCollector>,
}

/// Solves every instance of `batch` on the pool, returning outputs in input
/// order. Records nothing; see [`solve_many_observed`].
pub fn solve_many<T: FlowNum>(
    batch: &[Instance<T>],
    opts: &OfflineOptions,
    pool: &ThreadPool,
) -> Vec<BatchOutput<T>> {
    pool.scope_map(batch.iter().collect(), |instance| BatchOutput {
        result: optimal_schedule_with(instance, opts),
        trace: None,
    })
}

/// [`solve_many`] that records each instance into its own trace.
///
/// `root` receives the pool-level counters `par.tasks` (instances
/// dispatched) and `par.pool.threads`. Each instance's trace is forked from
/// `root` before the fan-out, so all of them share its time axis, and comes
/// back in [`BatchOutput::trace`].
pub fn solve_many_observed<T: FlowNum>(
    batch: &[Instance<T>],
    opts: &OfflineOptions,
    pool: &ThreadPool,
    root: &mut TraceCollector,
) -> Vec<BatchOutput<T>> {
    root.count("par.tasks", batch.len() as u64);
    root.count("par.pool.threads", pool.threads() as u64);
    let items: Vec<(&Instance<T>, TraceCollector)> = batch
        .iter()
        .enumerate()
        .map(|(i, instance)| (instance, root.fork(&format!("instance-{i}"))))
        .collect();
    pool.scope_map(items, |(instance, mut trace)| BatchOutput {
        result: optimal_schedule_observed(instance, opts, &mut trace),
        trace: Some(trace),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_core::energy::schedule_energy;
    use mpss_core::job::job;
    use mpss_core::power::Polynomial;
    use mpss_obs::RecordingCollector;

    fn batch_of(n: usize) -> Vec<Instance<f64>> {
        (0..n)
            .map(|k| {
                let stretch = 1.0 + k as f64;
                Instance::new(
                    2,
                    vec![
                        job(0.0, 1.0, 2.0 * stretch),
                        job(0.0, 2.0 * stretch, 1.0),
                        job(0.5, 1.5 + stretch, 1.5),
                    ],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_matches_solo_solves_in_order() {
        let batch = batch_of(6);
        let opts = OfflineOptions::default();
        let outputs = solve_many(&batch, &opts, &ThreadPool::new(4));
        assert_eq!(outputs.len(), batch.len());
        let p = Polynomial::new(3.0);
        for (instance, out) in batch.iter().zip(&outputs) {
            let solo = mpss_offline::optimal_schedule_with(instance, &opts).unwrap();
            let batched = out.result.as_ref().unwrap();
            assert_eq!(solo.schedule.segments, batched.schedule.segments);
            assert_eq!(solo.flow_computations, batched.flow_computations);
            let e_solo = schedule_energy(&solo.schedule, &p);
            let e_batch = schedule_energy(&batched.schedule, &p);
            assert_eq!(e_solo.to_bits(), e_batch.to_bits());
            assert!(out.trace.is_none(), "an unobserved batch records nothing");
        }
    }

    #[test]
    fn per_instance_reports_match_solo_observed_runs() {
        let batch = batch_of(4);
        let opts = OfflineOptions::default();
        let mut root = TraceCollector::new("main");
        let outputs = solve_many_observed(&batch, &opts, &ThreadPool::new(2), &mut root);
        let obs = RecordingCollector::from_trace(&root);
        assert_eq!(obs.counter("par.tasks"), batch.len() as u64);
        assert_eq!(obs.counter("par.pool.threads"), 2);
        for (i, (instance, out)) in batch.iter().zip(&outputs).enumerate() {
            let trace = out.trace.as_ref().unwrap();
            assert_eq!(trace.track_names(), [format!("instance-{i}")]);
            let report = RecordingCollector::from_trace(trace);
            let mut solo = RecordingCollector::new();
            let res = optimal_schedule_observed(instance, &opts, &mut solo).unwrap();
            assert_eq!(report.counter("offline.phases"), res.phases.len() as u64);
            let counters = |rec: &RecordingCollector| {
                rec.counters()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect::<Vec<_>>()
            };
            assert_eq!(counters(&report), counters(&solo));
        }
    }

    #[test]
    fn single_threaded_batch_is_the_sequential_loop() {
        let batch = batch_of(3);
        let opts = OfflineOptions::default();
        let seq = solve_many(&batch, &opts, &ThreadPool::new(1));
        let par = solve_many(&batch, &opts, &ThreadPool::new(8));
        for (a, b) in seq.iter().zip(&par) {
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.phases.len(), rb.phases.len());
            for (pa, pb) in ra.phases.iter().zip(&rb.phases) {
                assert_eq!(pa.speed.to_bits(), pb.speed.to_bits());
                assert_eq!(pa.jobs, pb.jobs);
            }
        }
    }
}
