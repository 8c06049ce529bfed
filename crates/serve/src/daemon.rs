//! The multi-tenant daemon: request dispatch, checkpointing, compaction.
//!
//! A [`Daemon`] owns a map of named tenants, each an independent
//! [`OaSession`] or [`AvrSession`], plus one shared [`MetricsHub`] (every
//! tenant publishes `{algo, tenant}`-labeled session series into it) and an
//! `mpss-par` [`ThreadPool`] that broadcast `advance` requests fan out
//! over. The daemon itself is synchronous and single-writer: requests are
//! handled strictly in arrival order, which is what makes the
//! checkpoint/restore story exact — there is never a half-applied request
//! to freeze.
//!
//! # Checkpoints
//!
//! [`Request::Checkpoint`] writes one `<tenant>.checkpoint.json` per tenant
//! (atomically: temp file + rename) wrapping the session's versioned
//! checkpoint from [`mpss_online::checkpoint`] in a
//! `{"format": "mpss-serve/checkpoint", …}` envelope.
//! [`Request::Restore`] re-opens tenants from those files bit-identically:
//! a daemon killed between two requests and restored from its last
//! checkpoint replays the remaining requests to exactly the schedules and
//! counters the uninterrupted daemon would have produced.
//!
//! # Compaction
//!
//! With [`DaemonConfig::compact_window`] set, every advance to time `t`
//! compacts each advanced tenant's executed history up to `t - window`,
//! bounding the history kept on long streams (not the job table: sessions
//! keep every job they were told about). The compaction watermark and
//! dropped-work tallies ride along in checkpoints, so bounded history and
//! exact restore compose.
//!
//! # Black box
//!
//! The daemon carries an always-on black box: one bounded
//! [`FlightRecorder`] per tenant plus one for the daemon itself, and — when
//! [`DaemonConfig::postmortem_dir`] is set — automatic
//! [postmortem bundles](crate::postmortem) on serious errors, caught
//! panics, and replans slower than [`DaemonConfig::slow_replan_ms`]. Every
//! fact enters it once, as one flight event, through one route: the
//! addressed tenant's ring; the daemon ring too when the event is
//! daemon-scope, a failure or a bundle write; and, with
//! [`DaemonConfig::log_stderr`], one NDJSON line on stderr when the event
//! has a [`Level`] at or above [`DaemonConfig::log_level`] (a failure is
//! `warn`, or `error` for kind `internal`; a bundle write `warn`, or
//! `error` when it failed; a tenant opened or restored `info`; routine
//! requests and replans never). All of the recording happens *after* the
//! response is computed, on the daemon thread, and its cumulative cost is
//! tracked in [`Daemon::obs_overhead_ns`] so the <1% soak-overhead budget
//! is itself observable.

use crate::postmortem::{self, BundleContents, BundleReason};
use crate::protocol::{Algo, ErrorKind, Request, Response};
use mpss_obs::json::Json;
use mpss_obs::{
    Counter, Failure, FlightEventKind, FlightRecorder, Gauge, Level, MetricsHub, TraceCollector,
};
use mpss_online::{
    AvrCheckpoint, AvrSession, OaCheckpoint, OaSession, ReplanSummary, SessionCore, SessionError,
    SessionMetrics,
};
use mpss_par::ThreadPool;
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The checkpoint-file envelope's `format` marker.
pub const CHECKPOINT_FORMAT: &str = "mpss-serve/checkpoint";
/// The checkpoint-file envelope version. Rejected on mismatch; the inner
/// session state carries its own [`mpss_online::CHECKPOINT_VERSION`].
pub const CHECKPOINT_FILE_VERSION: u64 = 1;

/// Automatic (error / panic / slow-replan) bundles stop after this many per
/// daemon lifetime, so a persistently failing tenant cannot fill the disk.
/// Operator `debug-dump` requests are never capped.
pub const MAX_AUTO_BUNDLES: u64 = 32;

/// Longest request line [`Daemon::serve_io`] reads, newline excluded. No
/// request the protocol defines comes near it; a longer line is skipped to
/// its newline and answered `bad-request`, so one client cannot make the
/// daemon buffer without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Most processors one tenant may have: each metered tenant registers one
/// speed gauge per processor, so a larger `m` is refused before any
/// session or series exists.
pub const MAX_PROCESSORS: usize = 1024;

/// Daemon construction knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Sliding history window: after advancing to `t`, executed history
    /// before `t - window` is compacted away. `None`: keep everything.
    pub compact_window: Option<f64>,
    /// Worker threads for broadcast advances (`None`: the `MPSS_THREADS` /
    /// hardware default of [`ThreadPool::with_threads`]).
    pub threads: Option<usize>,
    /// The least level of flight event mirrored to stderr.
    pub log_level: Level,
    /// Mirror flight events at or above `log_level` to stderr, one NDJSON
    /// line each (the CLI daemon turns this on; tests and benchmarks keep
    /// the black box in memory only).
    pub log_stderr: bool,
    /// Capacity of each flight-recorder ring (per tenant, plus one for the
    /// daemon itself). Clamped to at least 1.
    pub flight_capacity: usize,
    /// Where postmortem bundles are written. `None` disables automatic
    /// bundles; the `debug-dump` op then requires an explicit `dir`.
    pub postmortem_dir: Option<PathBuf>,
    /// A replan slower than this many milliseconds dumps a `slow-replan`
    /// bundle carrying the replan's Chrome trace. Needs `postmortem_dir`.
    pub slow_replan_ms: Option<f64>,
    /// Chaos injection for tests: panic while handling this op, exercising
    /// the scoped panic hook and the `panic` bundle path.
    pub panic_on_op: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            compact_window: None,
            threads: None,
            log_level: Level::Info,
            log_stderr: false,
            flight_capacity: 64,
            postmortem_dir: None,
            slow_replan_ms: None,
            panic_on_op: None,
        }
    }
}

/// One tenant's live session.
// Sessions live once per tenant in the map and are only moved on
// open/restore, so the OA variant's inline size buys locality, not waste.
#[allow(clippy::large_enum_variant)]
enum Session {
    Oa(OaSession),
    Avr(AvrSession),
}

impl Session {
    fn algo(&self) -> Algo {
        match self {
            Session::Oa(_) => Algo::Oa,
            Session::Avr(_) => Algo::Avr,
        }
    }

    fn core(&self) -> &SessionCore {
        match self {
            Session::Oa(s) => s.core(),
            Session::Avr(s) => s.core(),
        }
    }

    /// Advance plus windowed compaction. The caller has already checked
    /// `to >= now`, so errors here are defensive.
    fn advance_to(&mut self, to: f64, compact_window: Option<f64>) -> Result<(), SessionError> {
        let core = match self {
            Session::Oa(s) => {
                s.advance_to(to)?;
                s.core_mut()
            }
            Session::Avr(s) => {
                s.advance_to(to)?;
                s.core_mut()
            }
        };
        if let Some(window) = compact_window {
            core.compact_history(to - window);
        }
        Ok(())
    }

    fn snapshot_json(&self, tenant: &str) -> Json {
        let core = self.core();
        let mut doc = Json::object();
        doc.push("tenant", Json::from(tenant));
        doc.push("algo", Json::from(self.algo().as_str()));
        doc.push("m", Json::UInt(core.m() as u64));
        doc.push("now", Json::Num(core.now()));
        doc.push("jobs", Json::UInt(core.job_count() as u64));
        if let Session::Oa(s) = self {
            doc.push("replans", Json::UInt(s.replans() as u64));
            doc.push(
                "flow_computations",
                Json::UInt(s.flow_computations() as u64),
            );
            doc.push("engine", Json::from(s.engine().name()));
        }
        doc.push(
            "executed_segments",
            Json::UInt(core.executed().segments.len() as u64),
        );
        doc.push(
            "compacted_segments",
            Json::UInt(core.compacted_segments() as u64),
        );
        doc.push("compacted_work", Json::Num(core.compacted_work()));
        doc.push(
            "compaction_watermark",
            core.compaction_watermark().map_or(Json::Null, Json::Num),
        );
        doc
    }

    fn plan_json(&self, tenant: &str) -> Json {
        let mut doc = Json::object();
        doc.push("tenant", Json::from(tenant));
        doc.push("algo", Json::from(self.algo().as_str()));
        doc.push("now", Json::Num(self.core().now()));
        // AVR tracks no per-job progress or speed: its jobs list nulls.
        let (speeds, oa) = match self {
            Session::Oa(s) => (s.current_speeds(), Some(s)),
            Session::Avr(s) => (s.current_speeds(), None),
        };
        doc.push(
            "speeds",
            Json::Arr(speeds.into_iter().map(Json::Num).collect()),
        );
        let jobs = (0..self.core().job_count())
            .map(|k| {
                let mut job = Json::object();
                job.push("id", Json::UInt(k as u64));
                let remaining = oa.and_then(|s| s.remaining_volume(k));
                job.push("remaining", remaining.map_or(Json::Null, Json::Num));
                let speed = oa.and_then(|s| s.planned_speed(k));
                job.push("speed", speed.map_or(Json::Null, Json::Num));
                job
            })
            .collect();
        doc.push("jobs", Json::Arr(jobs));
        doc
    }
}

fn session_error(e: SessionError) -> (ErrorKind, String) {
    let kind = match &e {
        SessionError::TimeWentBackwards { .. } => ErrorKind::TimeWentBackwards,
        SessionError::BadJob(_) => ErrorKind::BadJob,
        SessionError::Planning(_) => ErrorKind::Planning,
        SessionError::Checkpoint(_) => ErrorKind::BadCheckpoint,
    };
    (kind, e.to_string())
}

/// One tenant's flight recorder plus the high-water mark of evictions
/// already published to the `mpss_serve_flight_dropped_total` counter
/// (counters are monotonic, so only the delta may be added). The metric
/// handles are registered once at open/restore and cached here — publishing
/// on the request hot path must be atomic stores, not registry lookups.
struct TenantFlight {
    recorder: FlightRecorder,
    dropped_published: u64,
    len_published: usize,
    events_gauge: Gauge,
    dropped_counter: Counter,
}

impl TenantFlight {
    fn new(capacity: usize, hub: &MetricsHub, tenant: &str) -> TenantFlight {
        TenantFlight {
            recorder: FlightRecorder::new(capacity),
            dropped_published: 0,
            len_published: usize::MAX,
            events_gauge: hub.gauge(
                "mpss_serve_flight_events",
                "flight-recorder ring occupancy, by tenant",
                &[("tenant", tenant)],
            ),
            dropped_counter: hub.counter(
                "mpss_serve_flight_dropped_total",
                "flight-recorder events evicted, by tenant",
                &[("tenant", tenant)],
            ),
        }
    }

    /// Records `event` and publishes the flight gauges: ring occupancy, and
    /// the eviction delta past the published high-water mark (the counter
    /// is monotonic). Both stores are skipped when nothing changed — once
    /// the ring is full its occupancy is pinned at capacity, so the steady
    /// state touches only the eviction counter.
    fn record(&mut self, event: FlightEventKind) {
        self.recorder.record(event);
        let len = self.recorder.len();
        if len != self.len_published {
            self.events_gauge.set(len as f64);
            self.len_published = len;
        }
        let dropped = self.recorder.dropped_total();
        if dropped > self.dropped_published {
            self.dropped_counter.add(dropped - self.dropped_published);
            self.dropped_published = dropped;
        }
    }
}

/// The daemon-wide half of the black box: the daemon ring and the stderr
/// mirror. [`record`](BlackBox::record) is the one route every flight
/// event takes.
struct BlackBox {
    ring: FlightRecorder,
    log_level: Level,
    log_stderr: bool,
}

impl BlackBox {
    /// Records `event`, which concerns `tenant` (`None`: the daemon as a
    /// whole), once per sink: into `tenant_ring` when that tenant is live;
    /// into the daemon ring when the event is daemon-scope, a failure or a
    /// bundle write (that is, it has no tenant ring or is at least `warn`);
    /// and to stderr as one NDJSON line naming its level and tenant, when
    /// mirroring is on and its level clears the threshold.
    fn record(
        &mut self,
        tenant: Option<&str>,
        tenant_ring: Option<&mut TenantFlight>,
        event: FlightEventKind,
    ) {
        let level = level(tenant, &event);
        if let Some(level) = level.filter(|l| self.log_stderr && *l >= self.log_level) {
            let mut line = Json::object();
            line.push("level", Json::from(level.as_str()));
            line.push("tenant", tenant.map_or(Json::Null, Json::from));
            event.push_fields(&mut line);
            // A dead stderr must not take the daemon down with it.
            let _ = writeln!(std::io::stderr().lock(), "{}", line.render());
        }
        match tenant_ring {
            Some(flight) => {
                if level >= Some(Level::Warn) {
                    self.ring.record(event.clone());
                }
                flight.record(event);
            }
            None => {
                self.ring.record(event);
            }
        }
    }
}

/// The level `event` is mirrored to stderr at, if any: a failed request is
/// `warn` (`error` for kind `internal`), a bundle write `warn` (`error` when
/// it failed), and a tenant opened or restored `info`. Routine requests and
/// replans have none, so they never reach stderr.
fn level(tenant: Option<&str>, event: &FlightEventKind) -> Option<Level> {
    match event {
        FlightEventKind::Request {
            failure: Some(failure),
            ..
        } => Some(if failure.kind == ErrorKind::Internal.as_str() {
            Level::Error
        } else {
            Level::Warn
        }),
        FlightEventKind::Request {
            op: "open" | "restore",
            ..
        } if tenant.is_some() => Some(Level::Info),
        FlightEventKind::Bundle { outcome, .. } => Some(match outcome {
            Ok(_) => Level::Warn,
            Err(_) => Level::Error,
        }),
        _ => None,
    }
}

/// One live tenant: the scheduling session and its flight recorder, kept in
/// the same map entry so the per-request hot path reaches both with a
/// single lookup (the session is already cache-hot from handling the op).
struct Tenant {
    session: Session,
    flight: TenantFlight,
    /// `mpss_serve_replan_patched_arcs{tenant}`, registered at the
    /// tenant's first OA replan.
    patched_arcs: Option<Gauge>,
}

/// The daemon: a map of tenants plus the shared hub and pool. See the
/// module docs for the execution model.
pub struct Daemon {
    tenants: BTreeMap<String, Tenant>,
    hub: MetricsHub,
    pool: ThreadPool,
    config: DaemonConfig,
    black_box: BlackBox,
    /// Chrome trace armed around the most recent replan, kept only until
    /// the slow-replan check ran.
    pending_trace: Option<TraceCollector>,
    postmortem_seq: u64,
    postmortems_written: u64,
    obs_ns: u64,
    /// `mpss_serve_requests_total{op}` per op, each registered at the op's
    /// first request.
    requests_total: BTreeMap<&'static str, Counter>,
    /// `mpss_serve_tenants`, registered when the first request completes.
    tenants_gauge: Option<Gauge>,
}

impl Daemon {
    /// A daemon with no tenants.
    pub fn new(config: DaemonConfig) -> Daemon {
        let black_box = BlackBox {
            ring: FlightRecorder::new(config.flight_capacity),
            log_level: config.log_level,
            log_stderr: config.log_stderr,
        };
        Daemon {
            tenants: BTreeMap::new(),
            hub: MetricsHub::new(),
            pool: ThreadPool::with_threads(config.threads),
            black_box,
            pending_trace: None,
            postmortem_seq: 0,
            postmortems_written: 0,
            obs_ns: 0,
            requests_total: BTreeMap::new(),
            tenants_gauge: None,
            config,
        }
    }

    /// The shared metrics hub (expose it with
    /// [`MetricsServer::bind`](mpss_obs::MetricsServer::bind) for live
    /// scraping).
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// Live tenant count.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Live tenant ids, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// Cumulative nanoseconds spent in the always-on observability tail
    /// (flight recording, flight gauges, stderr mirroring) across all
    /// requests. The soak harness divides this by wall time to gate the
    /// <1% recorder-overhead budget.
    pub fn obs_overhead_ns(&self) -> u64 {
        self.obs_ns
    }

    /// `(recorded, dropped)` flight events summed over the daemon ring and
    /// every tenant ring.
    pub fn flight_totals(&self) -> (u64, u64) {
        let mut recorded = self.black_box.ring.recorded_total();
        let mut dropped = self.black_box.ring.dropped_total();
        for t in self.tenants.values() {
            recorded += t.flight.recorder.recorded_total();
            dropped += t.flight.recorder.dropped_total();
        }
        (recorded, dropped)
    }

    /// Postmortem bundles written by this daemon, all trigger reasons.
    pub fn postmortems_written(&self) -> u64 {
        self.postmortems_written
    }

    /// Serves newline-delimited requests from `input`, writing one response
    /// line per request to `output`, until EOF or a `shutdown` request.
    /// Blank lines are skipped; a line that is not UTF-8 or is longer than
    /// 1 MiB is answered `bad-request`, and serving goes on.
    /// Returns `true` if a `shutdown` was served (the caller should stop
    /// re-entering), `false` on EOF.
    pub fn serve_io(
        &mut self,
        mut input: impl BufRead,
        mut output: impl Write,
    ) -> std::io::Result<bool> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let cap = MAX_LINE_BYTES as u64 + 1;
            if (&mut input).take(cap).read_until(b'\n', &mut buf)? == 0 {
                return Ok(false);
            }
            let line = if buf.len() > MAX_LINE_BYTES && !buf.ends_with(b"\n") {
                input.skip_until(b'\n')?;
                Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))
            } else {
                let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                std::str::from_utf8(line).map_err(|_| "request line is not valid UTF-8".to_string())
            };
            let (response, shutdown) = match line {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => self.handle_line(line),
                Err(message) => (self.reject(message), false),
            };
            output.write_all(response.render_line().as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
    }

    /// Parses and handles one request line; the boolean reports whether it
    /// was an (acknowledged) shutdown. A panic inside the handler is caught
    /// by a scoped hook and turned into an `internal` error response (plus
    /// a `panic` postmortem bundle when bundles are configured), so one bad
    /// request cannot take the whole daemon down.
    pub fn handle_line(&mut self, line: &str) -> (Response, bool) {
        match Request::parse_line(line) {
            Ok(request) => {
                let shutdown = matches!(request, Request::Shutdown);
                let response =
                    match catch_panics(std::panic::AssertUnwindSafe(|| self.handle(&request))) {
                        Ok(response) => response,
                        Err(panic_message) => self.panicked(&request, panic_message),
                    };
                (response, shutdown)
            }
            Err(message) => (self.reject(message), false),
        }
    }

    /// Handles one request and produces its response.
    pub fn handle(&mut self, request: &Request) -> Response {
        let op = request.op();
        if self.config.panic_on_op.as_deref() == Some(op) {
            panic!("injected panic on `{op}` (DaemonConfig::panic_on_op)");
        }
        let hub = &self.hub;
        self.requests_total
            .entry(op)
            .or_insert_with(|| {
                hub.counter(
                    "mpss_serve_requests_total",
                    "requests handled, by op",
                    &[("op", op)],
                )
            })
            .inc();
        let response = match request {
            Request::Open {
                tenant,
                algo,
                m,
                start,
                engine,
            } => self.open(tenant, *algo, *m, *start, *engine),
            Request::Arrive {
                tenant,
                deadline,
                volume,
            } => self.arrive(tenant, *deadline, *volume),
            Request::Advance { tenant, to } => self.advance(tenant.as_deref(), *to),
            Request::QueryPlan { tenant } => self.query_plan(tenant),
            Request::Snapshot { tenant } => self.snapshot(tenant.as_deref()),
            Request::Checkpoint { tenant, dir } => self.checkpoint(tenant.as_deref(), dir),
            Request::Restore { tenant, dir } => self.restore(tenant.as_deref(), dir),
            Request::DebugDump { tenant, dir } => self.debug_dump(tenant, dir.as_deref()),
            Request::Shutdown => Response::ok(Json::object()),
        };
        // The always-on black box records *after* the response is computed.
        let replan = self.observe(request.op(), request_tenant(request), &response);
        // Bundle triggers run outside the obs window: dumping is incident
        // I/O, not steady-state recording.
        self.maybe_bundle(request, &response, replan);
        let hub = &self.hub;
        self.tenants_gauge
            .get_or_insert_with(|| hub.gauge("mpss_serve_tenants", "live tenant sessions", &[]))
            .set(self.tenants.len() as f64);
        response
    }

    /// The observability tail of a request: records its outcome, drains the
    /// addressed OA tenant's replan summary into a replan event, and adds
    /// the cost to [`obs_overhead_ns`](Daemon::obs_overhead_ns). Returns the
    /// drained summary for the bundle triggers.
    fn observe(
        &mut self,
        op: &'static str,
        tenant: Option<&str>,
        response: &Response,
    ) -> Option<ReplanSummary> {
        let started = Instant::now();
        let event = FlightEventKind::request(op, failure(response));
        // The per-request hot path: one map lookup reaches both the
        // tenant's flight ring and its session (replan drain). Only an OA
        // arrival replans, and it addresses its tenant.
        let mut t = tenant.and_then(|name| self.tenants.get_mut(name));
        self.black_box
            .record(tenant, t.as_deref_mut().map(|t| &mut t.flight), event);
        let mut replan = None;
        if let Some(t) = t {
            if let Session::Oa(s) = &mut t.session {
                replan = s.take_last_replan();
                if let Some(summary) = &replan {
                    let event = replan_event(summary, s.engine().name());
                    self.black_box.record(tenant, Some(&mut t.flight), event);
                }
            }
        }
        // A fleet restore is daemon-scope; each tenant it restored also
        // starts its new ring with its own restore event.
        if op == "restore" && tenant.is_none() {
            if let Some(Json::Arr(restored)) = response.get("restored") {
                for name in restored {
                    if let Json::Str(name) = name {
                        let ring = self.tenants.get_mut(name).map(|t| &mut t.flight);
                        let event = FlightEventKind::request(op, None);
                        self.black_box.record(Some(name), ring, event);
                    }
                }
            }
        }
        self.obs_ns += started.elapsed().as_nanos() as u64;
        replan
    }

    /// Bundle triggers: a slow replan (keeping the armed Chrome trace) or a
    /// serious protocol error. Runs after the response; failures to write a
    /// bundle are recorded, never escalated into the response.
    fn maybe_bundle(
        &mut self,
        request: &Request,
        response: &Response,
        replan: Option<ReplanSummary>,
    ) {
        if let (Some(threshold_ms), Some(summary), Some(name)) =
            (self.config.slow_replan_ms, replan, request_tenant(request))
        {
            if summary.latency_s * 1_000.0 >= threshold_ms {
                self.bundle(
                    name,
                    BundleReason::SlowReplan,
                    request.op(),
                    None,
                    Some(summary),
                    None,
                );
            }
        }
        // The trace is only kept by a tripped threshold; otherwise arming
        // it was speculative and it dies here.
        self.pending_trace = None;
        if let Some(kind) = response.error_kind() {
            if matches!(kind, "planning" | "bad-checkpoint" | "internal") {
                if let Some(name) = request_tenant(request) {
                    if self.tenants.contains_key(name) {
                        let (kind, name) = (kind.to_string(), name.to_string());
                        let message = error_message(response);
                        self.bundle(
                            &name,
                            BundleReason::ProtocolError,
                            request.op(),
                            Some((kind, message)),
                            None,
                            None,
                        );
                    }
                }
            }
        }
    }

    /// The caught-panic path: an `internal` error response, recorded as a
    /// failed request, and a `panic` bundle for the addressed tenant.
    fn panicked(&mut self, request: &Request, panic_message: String) -> Response {
        let op = request.op();
        let tenant = request_tenant(request);
        let response = self.fail(
            ErrorKind::Internal,
            format!("panic while handling `{op}`: {panic_message}"),
        );
        self.observe(op, tenant, &response);
        if let Some(name) = tenant.filter(|name| self.tenants.contains_key(*name)) {
            self.bundle(
                name,
                BundleReason::Panic,
                op,
                Some(("internal".to_string(), panic_message)),
                None,
                None,
            );
        }
        response
    }

    /// A line that is no request: answered `bad-request`, and recorded in
    /// the daemon ring as a failed `parse`.
    fn reject(&mut self, message: String) -> Response {
        let response = self.fail(ErrorKind::BadRequest, message);
        self.observe("parse", None, &response);
        response
    }

    /// Writes one postmortem bundle for `tenant`. Automatic reasons go to
    /// the configured dir and respect [`MAX_AUTO_BUNDLES`]; `debug-dump`
    /// passes `dir_override` and is never capped. Returns the bundle path,
    /// or `None` when bundling is off / capped / the tenant vanished. The
    /// write, or its error, is recorded as a bundle event (an error reaches
    /// the client only through the `debug-dump` response, which re-checks
    /// the returned path).
    fn bundle(
        &mut self,
        tenant: &str,
        reason: BundleReason,
        op: &str,
        error: Option<(String, String)>,
        replan: Option<ReplanSummary>,
        dir_override: Option<&Path>,
    ) -> Option<PathBuf> {
        let dir = match dir_override {
            Some(dir) => dir.to_path_buf(),
            None => self.config.postmortem_dir.clone()?,
        };
        if reason != BundleReason::DebugDump && self.postmortems_written >= MAX_AUTO_BUNDLES {
            return None;
        }
        let t = self.tenants.get(tenant)?;
        let trace = self
            .pending_trace
            .take()
            .filter(|_| reason == BundleReason::SlowReplan);
        let name = format!("{tenant}-{}-{:04}", reason.as_str(), self.postmortem_seq);
        self.postmortem_seq += 1;
        let mut flight = Json::object();
        flight.push("tenant", t.flight.recorder.dump_json());
        flight.push("daemon", self.black_box.ring.dump_json());
        let contents = BundleContents {
            tenant: tenant.to_string(),
            reason,
            op: op.to_string(),
            error,
            replan: replan.as_ref().map(replan_json),
            plan: t.session.plan_json(tenant),
            checkpoint: checkpoint_envelope(tenant, &t.session).render_pretty(),
            flight,
            metrics: self.hub.render(),
            trace: trace.map(|t| t.chrome_trace()),
        };
        let written = postmortem::write_bundle(&dir, &name, &contents);
        if written.is_ok() {
            self.postmortems_written += 1;
            self.hub
                .counter(
                    "mpss_serve_postmortem_total",
                    "postmortem bundles written, by trigger reason",
                    &[("reason", reason.as_str())],
                )
                .inc();
        }
        let started = Instant::now();
        let outcome = match &written {
            Ok(path) => Ok(path.display().to_string()),
            Err(e) => Err(e.to_string()),
        };
        let ring = self.tenants.get_mut(tenant).map(|t| &mut t.flight);
        let event = FlightEventKind::bundle(reason.as_str(), outcome);
        self.black_box.record(Some(tenant), ring, event);
        self.obs_ns += started.elapsed().as_nanos() as u64;
        written.ok()
    }

    /// The `debug-dump` op: freeze one tenant's black box on demand. Pure
    /// read of the tenant's state — a dump must never perturb any session.
    fn debug_dump(&mut self, tenant: &str, dir: Option<&str>) -> Response {
        if !self.tenants.contains_key(tenant) {
            return unknown_tenant(self, tenant);
        }
        let dir = match dir
            .map(PathBuf::from)
            .or_else(|| self.config.postmortem_dir.clone())
        {
            Some(dir) => dir,
            None => {
                return self.fail(
                    ErrorKind::BadRequest,
                    "no `dir` given and the daemon has no --postmortem-dir",
                )
            }
        };
        match self.bundle(
            tenant,
            BundleReason::DebugDump,
            "debug-dump",
            None,
            None,
            Some(&dir),
        ) {
            Some(path) => {
                let mut body = Json::object();
                body.push("tenant", Json::from(tenant));
                body.push("bundle", Json::from(path.display().to_string()));
                Response::ok(body)
            }
            None => self.fail(
                ErrorKind::Io,
                format!(
                    "could not write a bundle for `{tenant}` under {}",
                    dir.display()
                ),
            ),
        }
    }

    fn fail(&self, kind: ErrorKind, message: impl Into<String>) -> Response {
        self.hub
            .counter(
                "mpss_serve_errors_total",
                "failed requests, by error kind",
                &[("kind", kind.as_str())],
            )
            .inc();
        Response::error(kind, message)
    }

    fn open(
        &mut self,
        tenant: &str,
        algo: Algo,
        m: usize,
        start: f64,
        engine: Option<mpss_offline::FlowEngine>,
    ) -> Response {
        if let Err(message) = validate_tenant_id(tenant) {
            return self.fail(ErrorKind::BadRequest, message);
        }
        if let Err(message) = check_processors(m) {
            return self.fail(ErrorKind::BadRequest, message);
        }
        if !start.is_finite() {
            return self.fail(ErrorKind::BadRequest, "`start` must be finite");
        }
        if self.tenants.contains_key(tenant) {
            return self.fail(
                ErrorKind::DuplicateTenant,
                format!("tenant `{tenant}` is already open"),
            );
        }
        let session = match algo {
            Algo::Oa => Session::Oa(OaSession::with_engine(m, start, engine.unwrap_or_default())),
            Algo::Avr => Session::Avr(AvrSession::new(m, start)),
        };
        self.admit(tenant, session);
        let mut body = Json::object();
        body.push("tenant", Json::from(tenant));
        Response::ok(body)
    }

    fn arrive(&mut self, tenant: &str, deadline: f64, volume: f64) -> Response {
        let Some(t) = self.tenants.get_mut(tenant) else {
            return unknown_tenant(self, tenant);
        };
        // Slow-replan exemplar capture: with a threshold and a bundle dir
        // configured, every OA replan runs under an armed Chrome trace that
        // is kept only if the threshold trips.
        let arm = self.config.slow_replan_ms.is_some() && self.config.postmortem_dir.is_some();
        let outcome = match &mut t.session {
            Session::Oa(s) => {
                let result = if arm {
                    let mut trace = TraceCollector::new("replan");
                    let result = s.arrive_observed(deadline, volume, &mut trace);
                    self.pending_trace = Some(trace);
                    result
                } else {
                    s.arrive(deadline, volume)
                };
                // Soak runs watch this grow with the per-arrival delta, not
                // with the tenant's live-job count (the incremental-replan
                // contract; AVR tenants have no replan network to patch).
                if result.is_ok() {
                    let hub = &self.hub;
                    t.patched_arcs
                        .get_or_insert_with(|| {
                            hub.gauge(
                                "mpss_serve_replan_patched_arcs",
                                "cumulative network arcs patched by incremental replans",
                                &[("tenant", tenant)],
                            )
                        })
                        .set(s.incremental_stats().patched_arcs as f64);
                }
                result
            }
            Session::Avr(s) => s.arrive(deadline, volume),
        };
        match outcome {
            Ok(job) => {
                let mut body = Json::object();
                body.push("tenant", Json::from(tenant));
                body.push("job", Json::UInt(job as u64));
                Response::ok(body)
            }
            Err(e) => {
                let (kind, message) = session_error(e);
                self.fail(kind, message)
            }
        }
    }

    fn advance(&mut self, tenant: Option<&str>, to: f64) -> Response {
        if !to.is_finite() {
            return self.fail(ErrorKind::BadRequest, "`to` must be finite");
        }
        let targets: Vec<&String> = match tenant {
            Some(name) => match self.tenants.get_key_value(name) {
                Some((key, _)) => vec![key],
                None => return unknown_tenant(self, name),
            },
            None => self.tenants.keys().collect(),
        };
        // Atomicity: reject before moving anyone's clock, so a failed
        // broadcast leaves every tenant exactly where it was.
        for name in &targets {
            let now = self.tenants[*name].session.core().now();
            if now > to {
                return self.fail(
                    ErrorKind::TimeWentBackwards,
                    format!("tenant `{name}` is already at {now}, cannot go back to {to}"),
                );
            }
        }
        let advanced = match tenant {
            Some(name) => {
                let t = self.tenants.get_mut(name).expect("checked above");
                if let Err(e) = t.session.advance_to(to, self.config.compact_window) {
                    let (kind, message) = session_error(e);
                    return self.fail(kind, message);
                }
                1
            }
            None => {
                // Fan every tenant out over the pool, advanced in place;
                // results come back in submission (= sorted-name) order.
                let window = self.config.compact_window;
                let tenants: Vec<(&String, &mut Tenant)> = self.tenants.iter_mut().collect();
                let count = tenants.len();
                let results = self.pool.scope_map(tenants, |(name, t)| {
                    t.session.advance_to(to, window).map_err(|e| (name, e))
                });
                let first_error = results.into_iter().find_map(Result::err).map(|(name, e)| {
                    let (kind, message) = session_error(e);
                    (kind, format!("tenant `{name}`: {message}"))
                });
                if let Some((kind, message)) = first_error {
                    return self.fail(kind, message);
                }
                count
            }
        };
        let mut body = Json::object();
        body.push("now", Json::Num(to));
        body.push("advanced", Json::UInt(advanced as u64));
        Response::ok(body)
    }

    fn query_plan(&self, tenant: &str) -> Response {
        match self.tenants.get(tenant) {
            Some(t) => Response::ok(t.session.plan_json(tenant)),
            None => unknown_tenant(self, tenant),
        }
    }

    fn snapshot(&self, tenant: Option<&str>) -> Response {
        let mut rows = Vec::new();
        match tenant {
            Some(name) => match self.tenants.get(name) {
                Some(t) => rows.push(t.session.snapshot_json(name)),
                None => return unknown_tenant(self, name),
            },
            None => {
                for (name, t) in &self.tenants {
                    rows.push(t.session.snapshot_json(name));
                }
            }
        }
        let mut body = Json::object();
        body.push("tenants", Json::Arr(rows));
        Response::ok(body)
    }

    fn checkpoint(&mut self, tenant: Option<&str>, dir: &str) -> Response {
        let started = std::time::Instant::now();
        let targets: Vec<String> = match tenant {
            Some(name) => {
                if !self.tenants.contains_key(name) {
                    return unknown_tenant(self, name);
                }
                vec![name.to_string()]
            }
            None => self.tenants.keys().cloned().collect(),
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            return self.fail(ErrorKind::Io, format!("creating {dir}: {e}"));
        }
        for name in &targets {
            let envelope = checkpoint_envelope(name, &self.tenants[name].session);
            if let Err(e) = write_atomically(&checkpoint_path(dir, name), &envelope.render_pretty())
            {
                return self.fail(ErrorKind::Io, format!("writing {name}: {e}"));
            }
        }
        self.hub
            .histogram(
                "mpss_serve_checkpoint_seconds",
                "wall-clock latency of one checkpoint request",
                &[],
            )
            .observe(started.elapsed().as_secs_f64());
        let mut body = Json::object();
        body.push("dir", Json::from(dir));
        body.push(
            "written",
            Json::Arr(targets.iter().map(|n| Json::from(n.as_str())).collect()),
        );
        Response::ok(body)
    }

    fn restore(&mut self, tenant: Option<&str>, dir: &str) -> Response {
        let paths: Vec<PathBuf> = match tenant {
            Some(name) => {
                if let Err(message) = validate_tenant_id(name) {
                    return self.fail(ErrorKind::BadRequest, message);
                }
                vec![checkpoint_path(dir, name)]
            }
            None => match checkpoint_files(dir) {
                Ok(paths) => paths,
                Err(e) => return self.fail(ErrorKind::Io, format!("reading {dir}: {e}")),
            },
        };
        // Two passes: parse and validate everything first, then commit, so
        // a bad file cannot leave a half-restored daemon.
        let mut restored = Vec::new();
        for path in &paths {
            match self.read_checkpoint(path) {
                Ok((name, session)) => restored.push((name, session)),
                Err(response) => return response,
            }
        }
        let mut names = Vec::new();
        for (name, session) in restored {
            self.admit(&name, session);
            names.push(Json::from(name));
        }
        let mut body = Json::object();
        body.push("dir", Json::from(dir));
        body.push("restored", Json::Arr(names));
        Response::ok(body)
    }

    /// Makes `session` live as tenant `name`, metered and with a flight ring.
    /// The first publish reads each session's own state.
    fn admit(&mut self, name: &str, mut session: Session) {
        let (algo, m) = (session.algo().as_str(), session.core().m());
        let metrics = SessionMetrics::register_tenant(&self.hub, algo, name, m);
        match &mut session {
            Session::Oa(s) => s.attach_metrics(metrics),
            Session::Avr(s) => s.attach_metrics(metrics),
        }
        let flight = TenantFlight::new(self.config.flight_capacity, &self.hub, name);
        let patched_arcs = None;
        let tenant = Tenant {
            session,
            flight,
            patched_arcs,
        };
        self.tenants.insert(name.to_string(), tenant);
    }

    fn read_checkpoint(&self, path: &Path) -> Result<(String, Session), Response> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| self.fail(ErrorKind::Io, format!("{}: {e}", path.display())))?;
        let doc = Json::parse(&text)
            .map_err(|e| self.fail(ErrorKind::BadCheckpoint, format!("{}: {e}", path.display())))?;
        let bad = |message: String| self.fail(ErrorKind::BadCheckpoint, message);
        match doc.get("format") {
            Some(Json::Str(format)) if format == CHECKPOINT_FORMAT => {}
            other => return Err(bad(format!("not a {CHECKPOINT_FORMAT} file: {other:?}"))),
        }
        match doc.get("version") {
            Some(Json::UInt(v)) if *v == CHECKPOINT_FILE_VERSION => {}
            other => {
                return Err(bad(format!(
                    "unsupported envelope version {other:?} (this build reads {CHECKPOINT_FILE_VERSION})"
                )))
            }
        }
        let name = match doc.get("tenant") {
            Some(Json::Str(name)) => name.clone(),
            other => return Err(bad(format!("bad `tenant`: {other:?}"))),
        };
        validate_tenant_id(&name).map_err(bad)?;
        if self.tenants.contains_key(&name) {
            return Err(self.fail(
                ErrorKind::DuplicateTenant,
                format!("tenant `{name}` is already open"),
            ));
        }
        let algo = match doc.get("algo") {
            Some(Json::Str(algo)) => {
                Algo::parse(algo).ok_or_else(|| bad(format!("unknown algo `{algo}`")))?
            }
            other => return Err(bad(format!("bad `algo`: {other:?}"))),
        };
        let state = doc
            .get("state")
            .ok_or_else(|| bad("missing `state`".into()))?;
        let session = match algo {
            Algo::Oa => OaCheckpoint::from_json(state)
                .map_err(SessionError::Checkpoint)
                .and_then(OaSession::restore)
                .map(Session::Oa),
            Algo::Avr => AvrCheckpoint::from_json(state)
                .map_err(SessionError::Checkpoint)
                .and_then(AvrSession::restore)
                .map(Session::Avr),
        }
        .map_err(|e| bad(e.to_string()))?;
        check_processors(session.core().m()).map_err(bad)?;
        Ok((name, session))
    }
}

fn unknown_tenant(daemon: &Daemon, name: &str) -> Response {
    daemon.fail(ErrorKind::UnknownTenant, format!("no tenant `{name}`"))
}

/// The tenant a request addresses, if any (broadcast ops return `None`).
fn request_tenant(request: &Request) -> Option<&str> {
    match request {
        Request::Open { tenant, .. }
        | Request::Arrive { tenant, .. }
        | Request::QueryPlan { tenant }
        | Request::DebugDump { tenant, .. } => Some(tenant),
        Request::Advance { tenant, .. }
        | Request::Snapshot { tenant }
        | Request::Checkpoint { tenant, .. }
        | Request::Restore { tenant, .. } => tenant.as_deref(),
        Request::Shutdown => None,
    }
}

/// Interns a response's error kind back to its `&'static` wire spelling —
/// the kind vocabulary is closed ([`ErrorKind::ALL`]), so flight events can
/// carry it without allocating.
fn static_error_kind(kind: &str) -> &'static str {
    ErrorKind::ALL
        .iter()
        .map(|k| k.as_str())
        .find(|s| *s == kind)
        .unwrap_or("internal")
}

/// A replan summary as a flight-recorder event.
fn replan_event(summary: &ReplanSummary, engine: &'static str) -> FlightEventKind {
    FlightEventKind::replan(
        summary.latency_s * 1_000.0,
        summary.work_ops,
        summary.patched_arcs,
        engine,
    )
}

/// A failed response's wire kind and message; `None` for successes.
fn failure(response: &Response) -> Option<Failure> {
    let kind = static_error_kind(response.error_kind()?);
    Some(Failure::new(kind, error_message(response)))
}

/// The error message of a failed response (empty for successes).
fn error_message(response: &Response) -> String {
    match response
        .to_json()
        .get("error")
        .and_then(|e| e.get("message"))
    {
        Some(Json::Str(message)) => message.clone(),
        _ => String::new(),
    }
}

/// A replan summary as manifest JSON.
fn replan_json(summary: &ReplanSummary) -> Json {
    let mut doc = Json::object();
    doc.push("latency_ms", Json::Num(summary.latency_s * 1_000.0));
    doc.push("work_ops", Json::UInt(summary.work_ops));
    doc.push("patched_arcs", Json::UInt(summary.patched_arcs));
    doc.push("flow_computations", Json::UInt(summary.flow_computations));
    doc.push("live_jobs", Json::UInt(summary.live_jobs as u64));
    doc
}

/// One tenant's checkpoint-file envelope (shared by `checkpoint` requests
/// and postmortem bundles, so a bundle doubles as a restorable checkpoint
/// directory).
fn checkpoint_envelope(name: &str, session: &Session) -> Json {
    let state = match session {
        Session::Oa(s) => s.checkpoint().to_json(),
        Session::Avr(s) => s.checkpoint().to_json(),
    };
    let mut envelope = Json::object();
    envelope.push("format", Json::from(CHECKPOINT_FORMAT));
    envelope.push("version", Json::UInt(CHECKPOINT_FILE_VERSION));
    envelope.push("tenant", Json::from(name));
    envelope.push("algo", Json::from(session.algo().as_str()));
    envelope.push("state", state);
    envelope
}

/// Runs `f` under a scoped panic hook: a panic on this thread inside the
/// call is captured (message + location) instead of printed, and returned
/// as `Err`. Panics anywhere else still reach the previous hook.
fn catch_panics<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    use std::cell::{Cell, RefCell};
    use std::sync::Once;

    static INSTALL: Once = Once::new();
    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
        static CAPTURED: RefCell<Option<String>> = const { RefCell::new(None) };
    }
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ACTIVE.with(Cell::get) {
                previous(info);
                return;
            }
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let message = match info.location() {
                Some(location) => format!("{message} ({location})"),
                None => message,
            };
            CAPTURED.with(|c| *c.borrow_mut() = Some(message));
        }));
    });
    ACTIVE.with(|a| a.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    ACTIVE.with(|a| a.set(false));
    result.map_err(|_| {
        CAPTURED
            .with(|c| c.borrow_mut().take())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// A tenant has `1..=MAX_PROCESSORS` processors.
fn check_processors(m: usize) -> Result<(), String> {
    match m {
        0 => Err("`m` must be at least 1".into()),
        1..=MAX_PROCESSORS => Ok(()),
        _ => Err(format!(
            "`m` = {m} exceeds the limit of {MAX_PROCESSORS} processors"
        )),
    }
}

/// Tenant ids double as file names, so the charset is locked down.
pub fn validate_tenant_id(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("tenant id must be 1..=64 characters".into());
    }
    if name.starts_with('.') {
        return Err("tenant id may not start with `.`".into());
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!(
            "tenant id contains `{c}` (allowed: [A-Za-z0-9._-])"
        ));
    }
    Ok(())
}

fn checkpoint_path(dir: &str, tenant: &str) -> PathBuf {
    Path::new(dir).join(format!("{tenant}.checkpoint.json"))
}

fn checkpoint_files(dir: &str) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".checkpoint.json"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Temp-file-plus-rename, so a kill mid-write never leaves a torn
/// checkpoint where a complete one used to be.
fn write_atomically(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(response: Response) -> Response {
        assert!(response.is_ok(), "{}", response.render_line());
        response
    }

    /// `(op, kind, message)` of every failed request `ring` holds, oldest
    /// first.
    fn failures(ring: &FlightRecorder) -> Vec<(&'static str, &'static str, String)> {
        ring.events()
            .filter_map(|event| match &event.kind {
                FlightEventKind::Request {
                    op,
                    failure: Some(failure),
                } => Some((*op, failure.kind, failure.message.clone())),
                _ => None,
            })
            .collect()
    }

    fn tmp_dir(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("mpss-serve-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn open_arrive_advance_query_round_trip() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Oa,
            m: 2,
            start: 0.0,
            engine: None,
        }));
        let r = ok(daemon.handle(&Request::Arrive {
            tenant: "a".into(),
            deadline: 4.0,
            volume: 3.0,
        }));
        assert_eq!(r.get("job"), Some(&Json::UInt(0)));
        ok(daemon.handle(&Request::Advance {
            tenant: Some("a".into()),
            to: 1.0,
        }));
        let plan = ok(daemon.handle(&Request::QueryPlan { tenant: "a".into() }));
        assert_eq!(plan.get("now"), Some(&Json::Num(1.0)));
        let speeds = plan.get("speeds").and_then(|s| match s {
            Json::Arr(v) => Some(v.len()),
            _ => None,
        });
        assert_eq!(speeds, Some(2));
    }

    #[test]
    fn errors_carry_stable_kinds() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        let r = daemon.handle(&Request::Arrive {
            tenant: "ghost".into(),
            deadline: 1.0,
            volume: 1.0,
        });
        assert_eq!(r.error_kind(), Some("unknown-tenant"));
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Avr,
            m: 1,
            start: 5.0,
            engine: None,
        }));
        let r = daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Oa,
            m: 1,
            start: 0.0,
            engine: None,
        });
        assert_eq!(r.error_kind(), Some("duplicate-tenant"));
        let r = daemon.handle(&Request::Advance {
            tenant: Some("a".into()),
            to: 4.0,
        });
        assert_eq!(r.error_kind(), Some("time-went-backwards"));
        let r = daemon.handle(&Request::Arrive {
            tenant: "a".into(),
            deadline: 5.0, // empty window at now=5
            volume: 1.0,
        });
        assert_eq!(r.error_kind(), Some("bad-job"));
        let r = daemon.handle(&Request::Open {
            tenant: "bad/name".into(),
            algo: Algo::Oa,
            m: 1,
            start: 0.0,
            engine: None,
        });
        assert_eq!(r.error_kind(), Some("bad-request"));
    }

    #[test]
    fn broadcast_advance_is_atomic_on_clock_skew() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        for (name, start) in [("early", 0.0), ("late", 5.0)] {
            ok(daemon.handle(&Request::Open {
                tenant: name.into(),
                algo: Algo::Avr,
                m: 1,
                start,
                engine: None,
            }));
        }
        // 1.0 is behind `late`'s clock: nobody may move.
        let r = daemon.handle(&Request::Advance {
            tenant: None,
            to: 1.0,
        });
        assert_eq!(r.error_kind(), Some("time-went-backwards"));
        let snap = ok(daemon.handle(&Request::Snapshot {
            tenant: Some("early".into()),
        }));
        let rows = mpss_core::json::arr(snap.to_json(), "tenants").unwrap();
        assert_eq!(rows[0].get("now"), Some(&Json::Num(0.0)));
        // A legal broadcast moves everyone.
        let r = ok(daemon.handle(&Request::Advance {
            tenant: None,
            to: 6.0,
        }));
        assert_eq!(r.get("advanced"), Some(&Json::UInt(2)));
    }

    #[test]
    fn checkpoint_restore_round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let mut daemon = Daemon::new(DaemonConfig::default());
        ok(daemon.handle(&Request::Open {
            tenant: "oa-1".into(),
            algo: Algo::Oa,
            m: 2,
            start: 0.0,
            engine: None,
        }));
        ok(daemon.handle(&Request::Arrive {
            tenant: "oa-1".into(),
            deadline: 4.0,
            volume: 3.0,
        }));
        ok(daemon.handle(&Request::Advance {
            tenant: None,
            to: 1.0,
        }));
        ok(daemon.handle(&Request::Checkpoint {
            tenant: None,
            dir: dir.clone(),
        }));

        let mut fresh = Daemon::new(DaemonConfig::default());
        let r = ok(fresh.handle(&Request::Restore {
            tenant: None,
            dir: dir.clone(),
        }));
        assert_eq!(
            r.get("restored"),
            Some(&Json::Arr(vec![Json::from("oa-1")]))
        );
        // Restoring again is a duplicate.
        let r = fresh.handle(&Request::Restore {
            tenant: None,
            dir: dir.clone(),
        });
        assert_eq!(r.error_kind(), Some("duplicate-tenant"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_do_not_half_restore() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let mut daemon = Daemon::new(DaemonConfig::default());
        ok(daemon.handle(&Request::Open {
            tenant: "good".into(),
            algo: Algo::Avr,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        ok(daemon.handle(&Request::Checkpoint {
            tenant: None,
            dir: dir.clone(),
        }));
        std::fs::write(
            Path::new(&dir).join("evil.checkpoint.json"),
            r#"{"format":"mpss-serve/checkpoint","version":1,"tenant":"evil","algo":"oa","state":{"version":99}}"#,
        )
        .unwrap();
        let mut fresh = Daemon::new(DaemonConfig::default());
        let r = fresh.handle(&Request::Restore {
            tenant: None,
            dir: dir.clone(),
        });
        assert_eq!(r.error_kind(), Some("bad-checkpoint"));
        assert_eq!(fresh.tenant_count(), 0, "all-or-nothing restore");
        // Restoring just the good tenant works.
        ok(fresh.handle(&Request::Restore {
            tenant: Some("good".into()),
            dir: dir.clone(),
        }));
        assert_eq!(fresh.tenant_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn processor_counts_past_the_limit_change_nothing() {
        let dir = tmp_dir("max-processors");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            Path::new(&dir).join("wider.checkpoint.json"),
            r#"{"format":"mpss-serve/checkpoint","version":1,"tenant":"wider","algo":"avr","state":{"version":1,"m":1025,"now":0,"jobs":[],"executed":{"m":1025,"segments":[]}}}"#,
        )
        .unwrap();
        let mut daemon = Daemon::new(DaemonConfig::default());
        let open = |m| Request::Open {
            tenant: "wide".into(),
            algo: Algo::Oa,
            m,
            start: 0.0,
            engine: None,
        };
        let r = daemon.handle(&open(MAX_PROCESSORS + 1));
        assert_eq!(
            r.render_line(),
            r#"{"ok":false,"error":{"kind":"bad-request","message":"`m` = 1025 exceeds the limit of 1024 processors"}}"#
        );
        let r = daemon.handle(&Request::Restore {
            tenant: None,
            dir: dir.clone(),
        });
        assert_eq!(r.error_kind(), Some("bad-checkpoint"));
        assert_eq!(daemon.tenant_count(), 0);
        assert!(
            daemon
                .hub()
                .snapshot()
                .iter()
                .all(|row| row.labels.iter().all(|(k, _)| k != "tenant")),
            "a refused tenant registered series"
        );
        ok(daemon.handle(&open(MAX_PROCESSORS)));
        assert_eq!(daemon.tenant_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_window_bounds_history() {
        let mut daemon = Daemon::new(DaemonConfig {
            compact_window: Some(1.0),
            threads: Some(1),
            ..DaemonConfig::default()
        });
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Avr,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        for step in 1..=20 {
            let t = step as f64;
            ok(daemon.handle(&Request::Arrive {
                tenant: "a".into(),
                deadline: t + 0.5,
                volume: 0.5,
            }));
            ok(daemon.handle(&Request::Advance {
                tenant: None,
                to: t,
            }));
        }
        let snap = ok(daemon.handle(&Request::Snapshot {
            tenant: Some("a".into()),
        }));
        let rows = mpss_core::json::arr(snap.to_json(), "tenants").unwrap();
        let compacted = mpss_core::json::uint(&rows[0], "compacted_segments").unwrap();
        assert!(compacted > 0, "history must have been compacted");
        let watermark = rows[0].get("compaction_watermark");
        assert_eq!(watermark, Some(&Json::Num(19.0)));
    }

    #[test]
    fn tenant_ids_are_locked_down() {
        assert!(validate_tenant_id("ok-id_1.x").is_ok());
        for bad in ["", "..", ".hidden", "a/b", "a b", "é", &"x".repeat(65)] {
            assert!(validate_tenant_id(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn serve_io_speaks_ndjson_and_shuts_down() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        let input = concat!(
            r#"{"op":"open","tenant":"a","algo":"oa","m":1}"#,
            "\n",
            "\n", // blank lines are skipped
            "this is not json\n",
            r#"{"op":"shutdown"}"#,
            "\n",
            r#"{"op":"snapshot"}"#,
            "\n", // never reached
        );
        let mut output = Vec::new();
        let shutdown = daemon.serve_io(input.as_bytes(), &mut output).unwrap();
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains(r#""ok":true"#));
        assert!(lines[1].contains("bad-request"));
        assert!(lines[2].contains(r#""ok":true"#));
    }

    #[test]
    fn serve_io_answers_hostile_lines_and_keeps_serving() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        let mut input = br#"{"op":"open","tenant":"a","algo":"oa","m":1}"#.to_vec();
        input.extend_from_slice(b"\n\xff\xfe\n");
        // A request the daemon would serve, padded with JSON whitespace to
        // one byte over the line cap.
        let mut long = br#"{"op":"snapshot""#.to_vec();
        long.resize(MAX_LINE_BYTES, b' ');
        long.extend_from_slice(b"}\n");
        input.extend_from_slice(&long);
        input.extend_from_slice("[".repeat(200_000).as_bytes());
        input.extend_from_slice(b"\n{\"op\":\"snapshot\"}\n");
        let mut output = Vec::new();
        let shutdown = daemon
            .serve_io(std::io::Cursor::new(input), &mut output)
            .unwrap();
        assert!(!shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 5, "{lines:?}");
        assert!(lines[0].contains(r#""ok":true"#));
        for line in &lines[1..4] {
            assert!(line.contains("bad-request"), "{line}");
        }
        assert!(lines[4].contains(r#""tenant":"a""#), "{}", lines[4]);
        // Each rejected line is one failed `parse` in the daemon ring.
        let failed = failures(&daemon.black_box.ring);
        assert_eq!(failed.len(), 3, "{failed:?}");
        for (op, kind, _) in &failed {
            assert_eq!((*op, *kind), ("parse", "bad-request"));
        }
        assert_eq!(failed[0].2, "request line is not valid UTF-8");
        assert_eq!(
            failed[1].2,
            format!("request line longer than {MAX_LINE_BYTES} bytes")
        );
        assert!(failed[2].2.contains("nest"), "{}", failed[2].2);
    }

    #[test]
    fn a_failure_is_one_event_per_ring() {
        let mut daemon = Daemon::new(DaemonConfig {
            panic_on_op: Some("query-plan".into()),
            ..DaemonConfig::default()
        });
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Oa,
            m: 1,
            start: 5.0,
            engine: None,
        }));
        let tenant_len = |daemon: &Daemon| daemon.tenants["a"].flight.recorder.len();
        let (tenant_before, daemon_before) = (tenant_len(&daemon), daemon.black_box.ring.len());
        let r = daemon.handle(&Request::Arrive {
            tenant: "a".into(),
            deadline: 5.0, // empty window at now=5
            volume: 1.0,
        });
        let message = error_message(&r);
        assert_eq!(tenant_len(&daemon), tenant_before + 1);
        assert_eq!(daemon.black_box.ring.len(), daemon_before + 1);
        let (panicked, _) = daemon.handle_line(r#"{"op":"query-plan","tenant":"a"}"#);
        let panic_message = error_message(&panicked);
        assert!(panic_message.contains("injected panic"), "{panic_message}");
        assert_eq!(tenant_len(&daemon), tenant_before + 2);
        assert_eq!(daemon.black_box.ring.len(), daemon_before + 2);
        let expected = vec![
            ("arrive", "bad-job", message),
            ("query-plan", "internal", panic_message),
        ];
        assert_eq!(failures(&daemon.tenants["a"].flight.recorder), expected);
        assert_eq!(failures(&daemon.black_box.ring), expected);
    }

    #[test]
    fn arrivals_publish_the_per_tenant_patched_arcs_gauge() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        for (name, algo) in [("oa-cell", Algo::Oa), ("avr-cell", Algo::Avr)] {
            ok(daemon.handle(&Request::Open {
                tenant: name.into(),
                algo,
                m: 2,
                start: 0.0,
                engine: None,
            }));
            ok(daemon.handle(&Request::Arrive {
                tenant: name.into(),
                deadline: 4.0,
                volume: 2.0,
            }));
        }
        let rows: Vec<_> = daemon
            .hub()
            .snapshot()
            .into_iter()
            .filter(|row| row.name == "mpss_serve_replan_patched_arcs")
            .collect();
        // Only the OA tenant replans, so only it patches arcs.
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert!(
            rows[0]
                .labels
                .iter()
                .any(|(k, v)| k == "tenant" && v == "oa-cell"),
            "{rows:?}"
        );
        match rows[0].value {
            mpss_obs::SnapshotValue::Gauge(v) => assert!(v > 0.0, "no arcs patched: {v}"),
            ref other => panic!("gauge expected: {other:?}"),
        }
    }

    #[test]
    fn flight_kinds_are_in_the_manifest() {
        let dir = tmp_dir("manifest-events");
        let checkpoints = tmp_dir("manifest-events-ckpt");
        let mut daemon = Daemon::new(DaemonConfig {
            postmortem_dir: Some(PathBuf::from(&dir)),
            slow_replan_ms: Some(0.0),
            panic_on_op: Some("query-plan".into()),
            ..DaemonConfig::default()
        });
        // An open, an arrival whose replan trips the 0 ms slow threshold
        // into a bundle write, and a failed request.
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Oa,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        ok(daemon.handle(&Request::Arrive {
            tenant: "a".into(),
            deadline: 2.0,
            volume: 1.0,
        }));
        let failed = daemon.handle(&Request::Arrive {
            tenant: "ghost".into(),
            deadline: 1.0,
            volume: 1.0,
        });
        assert!(!failed.is_ok());
        // A fleet restore of a tenant another daemon checkpointed, then a
        // caught panic.
        let mut source = Daemon::new(DaemonConfig::default());
        ok(source.handle(&Request::Open {
            tenant: "b".into(),
            algo: Algo::Avr,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        ok(source.handle(&Request::Checkpoint {
            tenant: None,
            dir: checkpoints.clone(),
        }));
        ok(daemon.handle(&Request::Restore {
            tenant: None,
            dir: checkpoints.clone(),
        }));
        let (panicked, _) = daemon.handle_line(r#"{"op":"query-plan","tenant":"a"}"#);
        assert_eq!(panicked.error_kind(), Some("internal"));

        // The restored tenant's new ring starts with its restore event.
        let first = daemon.tenants["b"].flight.recorder.events().next();
        assert_eq!(
            first.map(|event| &event.kind),
            Some(&FlightEventKind::request("restore", None))
        );
        let tenant_events = daemon
            .tenants
            .values()
            .flat_map(|t| t.flight.recorder.events());
        let kinds: std::collections::BTreeSet<&str> = daemon
            .black_box
            .ring
            .events()
            .chain(tenant_events)
            .map(|event| event.kind.class())
            .collect();
        assert_eq!(
            kinds.iter().copied().collect::<Vec<_>>(),
            ["bundle", "replan", "request"]
        );
        for kind in kinds {
            assert!(mpss_obs::names::known_flight_kind(kind), "{kind}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&checkpoints);
    }

    #[test]
    fn hub_families_are_in_the_manifest() {
        let dir = tmp_dir("manifest-pm");
        let mut daemon = Daemon::new(DaemonConfig {
            postmortem_dir: Some(PathBuf::from(&dir)),
            slow_replan_ms: Some(0.0),
            ..DaemonConfig::default()
        });
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Oa,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        // A successful arrive publishes the per-tenant replan gauge too —
        // and with a 0ms slow threshold it also writes a postmortem bundle,
        // exercising the postmortem counter family.
        ok(daemon.handle(&Request::Arrive {
            tenant: "a".into(),
            deadline: 2.0,
            volume: 1.0,
        }));
        daemon.handle(&Request::Arrive {
            tenant: "ghost".into(),
            deadline: 1.0,
            volume: 1.0,
        });
        ok(daemon.handle(&Request::Checkpoint {
            tenant: None,
            dir: tmp_dir("manifest"),
        }));
        for row in daemon.hub().snapshot() {
            assert!(
                mpss_obs::names::known_metric(&row.name),
                "{} missing from mpss_obs::names::METRICS",
                row.name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn debug_dump_writes_a_bundle_that_restores_bit_identically() {
        let dir = tmp_dir("debug-dump");
        let mut daemon = Daemon::new(DaemonConfig::default());
        ok(daemon.handle(&Request::Open {
            tenant: "acme".into(),
            algo: Algo::Oa,
            m: 2,
            start: 0.0,
            engine: None,
        }));
        for (deadline, volume) in [(4.0, 3.0), (6.0, 2.0)] {
            ok(daemon.handle(&Request::Arrive {
                tenant: "acme".into(),
                deadline,
                volume,
            }));
        }
        ok(daemon.handle(&Request::Advance {
            tenant: None,
            to: 1.0,
        }));
        // No postmortem dir configured: an explicit `dir` is required…
        let r = daemon.handle(&Request::DebugDump {
            tenant: "acme".into(),
            dir: None,
        });
        assert_eq!(r.error_kind(), Some("bad-request"));
        // …and with one, a bundle lands.
        let r = ok(daemon.handle(&Request::DebugDump {
            tenant: "acme".into(),
            dir: Some(dir.clone()),
        }));
        let Some(Json::Str(bundle)) = r.get("bundle") else {
            panic!("no bundle path: {}", r.render_line());
        };
        let bundles = crate::postmortem::find_bundles(Path::new(&dir)).unwrap();
        assert_eq!(bundles, vec![PathBuf::from(bundle)]);
        let manifest = crate::postmortem::read_manifest(&bundles[0]).unwrap();
        assert_eq!(manifest.get("reason"), Some(&Json::from("debug-dump")));
        // The bundle doubles as a checkpoint dir: restore from it and the
        // tenant's plan comes back bit-identical to the manifest's copy.
        let mut fresh = Daemon::new(DaemonConfig::default());
        ok(fresh.handle(&Request::Restore {
            tenant: Some("acme".into()),
            dir: bundle.clone(),
        }));
        let replayed = fresh.tenants["acme"].session.plan_json("acme");
        assert_eq!(
            replayed.render(),
            manifest.get("plan").unwrap().render(),
            "restored plan must match the manifest's plan byte for byte"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panics_are_caught_bundled_and_survivable() {
        let dir = tmp_dir("panic");
        let mut daemon = Daemon::new(DaemonConfig {
            postmortem_dir: Some(PathBuf::from(&dir)),
            panic_on_op: Some("query-plan".into()),
            ..DaemonConfig::default()
        });
        ok(daemon.handle(&Request::Open {
            tenant: "sick".into(),
            algo: Algo::Avr,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        let (r, shutdown) = daemon.handle_line(r#"{"op":"query-plan","tenant":"sick"}"#);
        assert!(!shutdown);
        assert_eq!(r.error_kind(), Some("internal"));
        assert!(error_message(&r).contains("injected panic"), "{r:?}");
        // The daemon is still alive and serving.
        ok(daemon.handle(&Request::Snapshot { tenant: None }));
        // The incident left a panic bundle behind.
        let bundles = crate::postmortem::find_bundles(Path::new(&dir)).unwrap();
        assert_eq!(bundles.len(), 1, "{bundles:?}");
        let manifest = crate::postmortem::read_manifest(&bundles[0]).unwrap();
        assert_eq!(manifest.get("reason"), Some(&Json::from("panic")));
        assert_eq!(manifest.get("tenant"), Some(&Json::from("sick")));
        assert_eq!(daemon.postmortems_written(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_replans_capture_an_exemplar_trace() {
        let dir = tmp_dir("slow-replan");
        let mut daemon = Daemon::new(DaemonConfig {
            postmortem_dir: Some(PathBuf::from(&dir)),
            slow_replan_ms: Some(0.0), // every replan is "slow"
            ..DaemonConfig::default()
        });
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Oa,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        ok(daemon.handle(&Request::Arrive {
            tenant: "a".into(),
            deadline: 2.0,
            volume: 1.0,
        }));
        let bundles = crate::postmortem::find_bundles(Path::new(&dir)).unwrap();
        assert_eq!(bundles.len(), 1, "{bundles:?}");
        let manifest = crate::postmortem::read_manifest(&bundles[0]).unwrap();
        assert_eq!(manifest.get("reason"), Some(&Json::from("slow-replan")));
        let replan = manifest.get("replan").expect("replan summary in manifest");
        assert!(matches!(replan.get("work_ops"), Some(Json::UInt(n)) if *n > 0));
        // The armed Chrome trace of the offending replan rode along.
        let trace = std::fs::read_to_string(bundles[0].join("replan.trace.json")).unwrap();
        mpss_obs::validate_chrome_trace(&trace).expect("bundle trace must be a valid Chrome trace");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failing_tenants_dump_is_metrics_neutral_for_others() {
        let dir = tmp_dir("neutral");
        let mut daemon = Daemon::new(DaemonConfig {
            postmortem_dir: Some(PathBuf::from(&dir)),
            ..DaemonConfig::default()
        });
        for name in ["healthy", "sick"] {
            ok(daemon.handle(&Request::Open {
                tenant: name.into(),
                algo: Algo::Oa,
                m: 2,
                start: 0.0,
                engine: None,
            }));
            ok(daemon.handle(&Request::Arrive {
                tenant: name.into(),
                deadline: 4.0,
                volume: 2.0,
            }));
        }
        let healthy_rows = |daemon: &Daemon| -> Vec<String> {
            daemon
                .hub()
                .snapshot()
                .into_iter()
                .filter(|row| {
                    row.labels
                        .iter()
                        .any(|(k, v)| k == "tenant" && v == "healthy")
                })
                .map(|row| format!("{} {:?} {:?}", row.name, row.labels, row.value))
                .collect()
        };
        let before_plan = ok(daemon.handle(&Request::QueryPlan {
            tenant: "healthy".into(),
        }))
        .to_json()
        .render();
        // Captured *after* the query above: between this capture and the
        // re-capture below, only sick-addressed requests run.
        let before_rows = healthy_rows(&daemon);
        // The sick tenant fails (late arrival) and is debug-dumped.
        let r = daemon.handle(&Request::Arrive {
            tenant: "sick".into(),
            deadline: -1.0,
            volume: 1.0,
        });
        assert!(!r.is_ok());
        ok(daemon.handle(&Request::DebugDump {
            tenant: "sick".into(),
            dir: None,
        }));
        // The healthy tenant's metric rows and plan are untouched.
        assert_eq!(
            before_rows,
            healthy_rows(&daemon),
            "healthy tenant's metrics perturbed by neighbor's failure/dump"
        );
        let after_plan = ok(daemon.handle(&Request::QueryPlan {
            tenant: "healthy".into(),
        }))
        .to_json()
        .render();
        assert_eq!(before_plan, after_plan, "plan perturbed by neighbor's dump");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_rings_stay_bounded_and_observable() {
        let mut daemon = Daemon::new(DaemonConfig {
            flight_capacity: 4,
            ..DaemonConfig::default()
        });
        ok(daemon.handle(&Request::Open {
            tenant: "a".into(),
            algo: Algo::Avr,
            m: 1,
            start: 0.0,
            engine: None,
        }));
        for step in 1..=20 {
            ok(daemon.handle(&Request::Arrive {
                tenant: "a".into(),
                deadline: step as f64 + 1.0,
                volume: 0.1,
            }));
        }
        let (recorded, dropped) = daemon.flight_totals();
        assert!(recorded >= 21, "{recorded}");
        assert!(dropped > 0, "a 4-slot ring must have evicted: {dropped}");
        let rows: Vec<_> = daemon
            .hub()
            .snapshot()
            .into_iter()
            .filter(|row| row.name.starts_with("mpss_serve_flight_"))
            .collect();
        assert!(
            rows.iter()
                .any(|row| row.name == "mpss_serve_flight_events"),
            "{rows:?}"
        );
        let dropped_row = rows
            .iter()
            .find(|row| row.name == "mpss_serve_flight_dropped_total")
            .expect("dropped counter published");
        match dropped_row.value {
            mpss_obs::SnapshotValue::Counter(n) => {
                assert_eq!(n, daemon.tenants["a"].flight.recorder.dropped_total())
            }
            ref other => panic!("counter expected: {other:?}"),
        }
        assert!(daemon.obs_overhead_ns() > 0);
    }
}
