//! Batched multi-instance solving over the shared worker pool.
//!
//! Experiment sweeps and the `mpss-cli solve-batch` command solve many
//! *independent* instances — different seeds, different workload families,
//! different traces in a directory. The instances share nothing, so the
//! natural unit of parallelism is the whole solve: [`solve_many`] shards the
//! batch across an [`mpss_par::ThreadPool`] and returns results in input
//! order, each with its own per-instance run report.
//!
//! Determinism: each instance is solved by exactly one worker with its own
//! engines and its own [`RecordingCollector`], and the pool's ordered join
//! puts outputs back in submission order — the batch output is byte-for-byte
//! the concatenation of `threads = 1` solo runs, whatever the thread count.

use mpss_core::{Instance, ModelError};
use mpss_numeric::FlowNum;
use mpss_obs::{Collector, NoopCollector, RecordingCollector, Tee, TrackedCollector};
use mpss_offline::{optimal_schedule_observed, OfflineOptions, OptimalResult};
use mpss_par::ThreadPool;

/// One instance's slice of a [`solve_many`] batch.
pub struct BatchOutput<T: FlowNum> {
    /// The solve outcome (independent per instance; one instance erroring
    /// does not poison the batch).
    pub result: Result<OptimalResult<T>, ModelError>,
    /// This instance's run report: phase spans, repair-round counters,
    /// max-flow work counters — everything a solo `--report` run records.
    pub report: RecordingCollector,
}

/// Solves every instance of `batch` on the pool, returning outputs in input
/// order. See [`solve_many_observed`] for the instrumented variant.
pub fn solve_many<T: FlowNum>(
    batch: &[Instance<T>],
    opts: &OfflineOptions,
    pool: &ThreadPool,
) -> Vec<BatchOutput<T>> {
    solve_many_observed(batch, opts, pool, &mut NoopCollector)
}

/// [`solve_many`] with a batch-level [`Collector`].
///
/// The caller's collector receives the pool-level counters `par.tasks`
/// (instances dispatched) and `par.pool.threads`, plus — through forked
/// per-worker tracks (`worker-0`, `worker-1`, …) adopted back in worker
/// order — every solver event, each instance wrapped in a `batch.solve`
/// span. The per-instance solver counters *also* land in each
/// [`BatchOutput::report`] (the solver reports through a [`Tee`]), which
/// keeps those reports exactly equal to what a solo observed run of that
/// instance would record: the `batch.solve` span and worker tracks exist
/// only on the batch-level collector.
pub fn solve_many_observed<T: FlowNum, C: TrackedCollector>(
    batch: &[Instance<T>],
    opts: &OfflineOptions,
    pool: &ThreadPool,
    obs: &mut C,
) -> Vec<BatchOutput<T>> {
    obs.count("par.tasks", batch.len() as u64);
    obs.count("par.pool.threads", pool.threads() as u64);
    let items: Vec<&Instance<T>> = batch.iter().collect();
    pool.scope_map_tracked(items, obs, |_, instance, track| {
        track.span_start("batch.solve");
        let mut report = RecordingCollector::new();
        let result = {
            let mut tee = Tee(&mut *track, &mut report);
            optimal_schedule_observed(instance, opts, &mut tee)
        };
        report.close_open_spans();
        track.span_end("batch.solve");
        // Shard progress lives on the batch-level collector only (a live
        // metrics bridge sees it as per-worker completion), keeping each
        // per-instance report equal to a solo observed run.
        track.count("batch.solved", 1);
        BatchOutput { result, report }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_core::energy::schedule_energy;
    use mpss_core::job::job;
    use mpss_core::power::Polynomial;

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
        }
    }

    #[test]
    fn per_instance_reports_match_solo_observed_runs() {
        let batch = batch_of(4);
        let opts = OfflineOptions::default();
        let mut obs = RecordingCollector::new();
        let outputs = solve_many_observed(&batch, &opts, &ThreadPool::new(2), &mut obs);
        assert_eq!(obs.counter("par.tasks"), batch.len() as u64);
        assert_eq!(obs.counter("par.pool.threads"), 2);
        for (instance, out) in batch.iter().zip(&outputs) {
            let mut solo = RecordingCollector::new();
            let res = optimal_schedule_observed(instance, &opts, &mut solo).unwrap();
            assert_eq!(
                out.report.counter("offline.phases"),
                res.phases.len() as u64
            );
            for key in [
                "offline.repair_rounds",
                "offline.maxflow.invocations",
                "maxflow.dinic.bfs_phases",
                "maxflow.dinic.augmenting_paths",
            ] {
                assert_eq!(out.report.counter(key), solo.counter(key), "{key}");
            }
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
