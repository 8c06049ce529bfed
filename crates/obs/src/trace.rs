//! The streaming trace collector: an ordered event timeline with tracks.
//!
//! Every span begin/end, instant, counter increment and observed value is
//! appended to an ordered event list with a monotonic timestamp and a track
//! id. The stream is complete: a run report is its fold
//! ([`RecordingCollector::from_trace`](crate::RecordingCollector::from_trace)),
//! and [`chrome`](crate::chrome) exports it for Perfetto. A batched solve
//! records each instance on its own forked track and appends the tracks in
//! input order, so the timeline renders one row per instance.
//!
//! Timestamps come from one shared epoch: [`TraceCollector::fork`] copies
//! the parent's epoch `Instant` into the child, so events recorded on
//! different threads are directly comparable on one time axis.

use crate::Collector;
use std::time::Instant;

/// What happened at one point of the timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEventKind {
    /// A span opened.
    Begin(&'static str),
    /// The innermost span closed.
    End(&'static str),
    /// A zero-duration point event.
    Instant(&'static str),
    /// A counter was incremented by the given delta (the Chrome export
    /// accumulates deltas into running per-track totals).
    Count(&'static str, u64),
    /// A value was observed into a histogram; the trace keeps the raw
    /// sample so value series render as counter tracks.
    Value(&'static str, f64),
}

/// One timeline event: when, on which track, and what.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Index into [`TraceCollector::track_names`].
    pub track: u32,
    /// Nanoseconds since the root collector's epoch.
    pub ts_ns: u64,
    /// The event itself.
    pub kind: TraceEventKind,
}

/// A [`Collector`] that records the full ordered event stream.
///
/// Forked tracks keep their events under *local* track ids (their own track
/// is id 0); [`adopt`](TraceCollector::adopt) renumbers the child's tracks
/// after the parent's existing ones and appends its events — so the final
/// track numbering depends only on fork/adopt order, never on thread timing.
#[derive(Clone, Debug)]
pub struct TraceCollector {
    epoch: Instant,
    tracks: Vec<String>,
    events: Vec<TraceEvent>,
}

impl TraceCollector {
    /// Creates a trace whose root track is named `root_name` and whose
    /// timestamps count from "now".
    pub fn new(root_name: &str) -> TraceCollector {
        TraceCollector {
            epoch: Instant::now(),
            tracks: vec![root_name.to_string()],
            events: Vec::new(),
        }
    }

    fn push(&mut self, kind: TraceEventKind) {
        let ts_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.events.push(TraceEvent {
            track: 0,
            ts_ns,
            kind,
        });
    }

    /// Track names; a [`TraceEvent::track`] indexes this slice. Index 0 is
    /// this collector's own track, adopted tracks follow in adopt order.
    pub fn track_names(&self) -> &[String] {
        &self.tracks
    }

    /// All recorded events. Events of any single track appear in
    /// chronological order; events of different tracks interleave in
    /// adopt order (child blocks append after the parent's own events so
    /// far).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The instant timestamps count from.
    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Creates an empty trace for a parallel track named `name`, on this
    /// trace's time axis. Move it into the worker, then
    /// [`adopt`](TraceCollector::adopt) it back after the join.
    pub fn fork(&self, name: &str) -> TraceCollector {
        TraceCollector {
            // Shared epoch: the child's timestamps land on the parent's axis.
            epoch: self.epoch,
            tracks: vec![name.to_string()],
            events: Vec::new(),
        }
    }

    /// Appends a forked trace's tracks after this trace's own and its
    /// events after the events so far. Adopting in a fixed order (a batch
    /// adopts in input order) makes the numbering independent of thread
    /// timing.
    pub fn adopt(&mut self, track: TraceCollector) {
        let offset = self.tracks.len() as u32;
        self.tracks.extend(track.tracks);
        self.events.extend(track.events.into_iter().map(|mut e| {
            e.track += offset;
            e
        }));
    }
}

impl Collector for TraceCollector {
    fn span_start(&mut self, name: &'static str) {
        self.push(TraceEventKind::Begin(name));
    }

    fn span_end(&mut self, name: &'static str) {
        self.push(TraceEventKind::End(name));
    }

    fn count(&mut self, counter: &'static str, by: u64) {
        self.push(TraceEventKind::Count(counter, by));
    }

    fn observe(&mut self, histogram: &'static str, value: f64) {
        self.push(TraceEventKind::Value(histogram, value));
    }

    fn instant(&mut self, name: &'static str) {
        self.push(TraceEventKind::Instant(name));
    }

    fn enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_in_order_with_monotone_timestamps() {
        let mut t = TraceCollector::new("main");
        t.span_start("solve");
        t.count("c", 2);
        t.instant("tick");
        t.observe("v", 1.5);
        t.span_end("solve");
        let kinds: Vec<_> = t.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::Begin("solve"),
                TraceEventKind::Count("c", 2),
                TraceEventKind::Instant("tick"),
                TraceEventKind::Value("v", 1.5),
                TraceEventKind::End("solve"),
            ]
        );
        assert!(t.events().windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert!(t.events().iter().all(|e| e.track == 0));
        assert_eq!(t.track_names(), ["main"]);
    }

    #[test]
    fn adopt_renumbers_tracks_deterministically() {
        let mut root = TraceCollector::new("main");
        root.instant("root-event");
        let mut a = root.fork("worker-0");
        let mut b = root.fork("worker-1");
        a.instant("a-event");
        b.instant("b-event");
        // Adopt out of fork order on purpose: numbering follows adopt order.
        root.adopt(b);
        root.adopt(a);
        assert_eq!(root.track_names(), ["main", "worker-1", "worker-0"]);
        let tracks: Vec<u32> = root.events().iter().map(|e| e.track).collect();
        assert_eq!(tracks, vec![0, 1, 2]);
    }

    #[test]
    fn nested_forks_remap_transitively() {
        let mut root = TraceCollector::new("main");
        let mut shard = root.fork("shard-0");
        let mut worker = shard.fork("worker-0");
        worker.instant("worker-event");
        shard.instant("shard-event");
        shard.adopt(worker);
        root.adopt(shard);
        assert_eq!(root.track_names(), ["main", "shard-0", "worker-0"]);
        let by_track: Vec<(u32, TraceEventKind)> =
            root.events().iter().map(|e| (e.track, e.kind)).collect();
        assert!(by_track.contains(&(1, TraceEventKind::Instant("shard-event"))));
        assert!(by_track.contains(&(2, TraceEventKind::Instant("worker-event"))));
    }

    #[test]
    fn forked_tracks_share_the_epoch() {
        let mut root = TraceCollector::new("main");
        root.instant("before");
        let mut child = root.fork("w");
        child.instant("after");
        let child_ts = child.events()[0].ts_ns;
        root.adopt(child);
        // The child's event is on the same axis, after the root's.
        assert!(child_ts >= root.events()[0].ts_ns);
    }
}
