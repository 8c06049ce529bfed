//! The instrumentation-key manifest.
//!
//! Every event name the workspace emits is listed here, in one place:
//! counter, histogram, span and instant names, live-metric families,
//! flight-recorder event kinds and log targets. Two things hang off the
//! manifest:
//!
//! * coverage tests run the stack end to end and assert every name they
//!   saw is listed — `manifest_covers_everything_the_stack_emits`
//!   (`tests/trace_obs.rs`) for collector keys, and the daemon's unit
//!   tests for metric families, flight kinds and log targets — so a
//!   typo'd name at an instrumentation point fails CI instead of silently
//!   forking a new one;
//! * the DESIGN.md observability table is generated from
//!   [`markdown_table`], so docs cannot drift from code.
//!
//! When adding an instrumentation point, add its key here (the arrays are
//! sorted; keep them that way).

/// Every counter key, sorted. Instants are listed separately in
/// [`INSTANTS`] but also land here logically when an aggregating collector
/// folds them into counters — [`known_counter`] accepts both.
pub const COUNTERS: &[(&str, &str)] = &[
    (
        "avr.intervals",
        "AVR density intervals summed into the profile",
    ),
    ("avr.peeled", "AVR per-job segments peeled off the profile"),
    (
        "driver.segments",
        "schedule segments emitted by the online driver",
    ),
    (
        "exp.cold.augmenting_paths",
        "ablation: augmenting paths, cold max-flow",
    ),
    (
        "exp.csr.pr_ops",
        "ablation: push-relabel work, CSR engine with heuristics",
    ),
    (
        "exp.legacy.pr_ops",
        "ablation: push-relabel work, legacy Vec<Edge> engine",
    ),
    (
        "exp.warm.augmenting_paths",
        "ablation: augmenting paths, warm-started",
    ),
    (
        "flight.overhead_pct",
        "always-on recorder overhead as hundredths of a percent of soak wall time",
    ),
    (
        "maxflow.dinic.augmenting_paths",
        "Dinic augmenting paths found",
    ),
    (
        "maxflow.dinic.bfs_phases",
        "Dinic level-graph (BFS) phases built",
    ),
    (
        "maxflow.pr.current_arc_resets",
        "push-relabel current-arc pointer resets after relabels",
    ),
    (
        "maxflow.pr.gap_events",
        "push-relabel gap heuristic firings",
    ),
    (
        "maxflow.pr.global_relabels",
        "push-relabel global-relabel (backward BFS) passes",
    ),
    ("maxflow.pr.pushes", "push-relabel push operations"),
    ("maxflow.pr.relabels", "push-relabel relabel operations"),
    (
        "maxflow.warm.drained",
        "warm-start drain events: job removals, plus retargets that cancelled flow",
    ),
    (
        "maxflow.warm.reused_flow",
        "max-flow rounds that started from non-zero retained or seeded flow",
    ),
    (
        "oa.maxflow.invocations",
        "max-flow calls made by OA replans",
    ),
    ("oa.replans", "OA replan events (one per arrival)"),
    (
        "obs.span_mismatch",
        "span_end calls that did not match the open span",
    ),
    ("obs.span_unclosed", "spans force-closed at report time"),
    (
        "offline.cold_rounds_avoided",
        "repair rounds served from the warm model",
    ),
    (
        "offline.incremental.patched_arcs",
        "network arcs patched with arrivals/expiries instead of probed",
    ),
    (
        "offline.incremental.rebuilt",
        "planner syncs that fell back to a full re-derivation",
    ),
    (
        "offline.incremental.reused_intervals",
        "partition breakpoints carried over unchanged across a sync",
    ),
    (
        "offline.jobs_removed",
        "Lemma 4 removals: jobs outside J_i, left to a later, slower phase",
    ),
    ("offline.maxflow.invocations", "max-flow computations run"),
    ("offline.phases", "phases of the optimal offline algorithm"),
    (
        "offline.repair_rounds",
        "repair-loop iterations across all phases",
    ),
    ("par.pool.threads", "worker threads the pool fanned out to"),
    ("par.tasks", "tasks submitted to the worker pool"),
    (
        "serve.arrivals",
        "jobs the soak harness pushed through daemon tenants",
    ),
    (
        "serve.checkpoint_ms",
        "milliseconds the soak harness spent in checkpoint requests",
    ),
    (
        "serve.flight.dropped",
        "flight-recorder events evicted across all daemon recorders",
    ),
    (
        "serve.flight.events",
        "flight-recorder events recorded across all daemon recorders",
    ),
    ("serve.postmortems", "postmortem bundles the daemon wrote"),
    ("serve.tenants", "tenant sessions the soak harness opened"),
];

/// Every histogram key, sorted. Span-duration histograms (`span.<name>.ms`)
/// are derived from [`SPANS`] and not repeated here.
pub const HISTOGRAMS: &[(&str, &str)] = &[
    (
        "driver.energy_trajectory",
        "cumulative online energy after each segment, in execution order",
    ),
    ("driver.online_energy", "online algorithm energy per run"),
    ("driver.opt_energy", "optimal offline energy per run"),
    (
        "offline.flow_vs_target",
        "max-flow value vs. demand target per probe",
    ),
    (
        "offline.jobs_removed_per_phase",
        "Lemma 4 removals in one phase (its rounds − 1)",
    ),
];

/// Every span name, sorted. Each span `s` implies a derived histogram
/// `span.<s>.ms`.
pub const SPANS: &[(&str, &str)] = &[
    ("oa.replan", "one OA arrival replan, end to end"),
    ("offline.optimal_schedule", "the whole offline solve"),
    ("offline.phase", "one phase: repair loop + extraction"),
];

/// Every instant-event name, sorted. Aggregating collectors fold instants
/// into same-named counters, so [`known_counter`] accepts these too.
pub const INSTANTS: &[(&str, &str)] = &[
    ("oa.arrival", "a job arrived and triggered a replan"),
    (
        "offline.job_removed",
        "the repair loop dropped a job outside J_i (Lemma 4)",
    ),
];

/// Every live-metric family name, sorted: the labeled series the sessions
/// and the daemon publish into a [`MetricsHub`](crate::MetricsHub).
pub const METRICS: &[(&str, &str)] = &[
    (
        "mpss_serve_checkpoint_seconds",
        "histogram: wall-clock latency of one daemon checkpoint request",
    ),
    (
        "mpss_serve_errors_total",
        "counter: daemon requests that failed, by error kind",
    ),
    (
        "mpss_serve_flight_dropped_total",
        "counter: flight-recorder events evicted, by tenant",
    ),
    (
        "mpss_serve_flight_events",
        "gauge: flight-recorder ring occupancy, by tenant",
    ),
    (
        "mpss_serve_log_records_total",
        "counter: structured log records the daemon emitted",
    ),
    (
        "mpss_serve_postmortem_total",
        "counter: postmortem bundles written, by trigger reason",
    ),
    (
        "mpss_serve_replan_patched_arcs",
        "gauge: cumulative arcs patched by a tenant's incremental replans",
    ),
    (
        "mpss_serve_requests_total",
        "counter: daemon requests handled, by op",
    ),
    (
        "mpss_serve_tenants",
        "gauge: live tenant sessions in the daemon",
    ),
    (
        "mpss_session_active_jobs",
        "gauge: jobs with remaining work in a live session, by algo",
    ),
    (
        "mpss_session_arrivals_total",
        "counter: jobs accepted by a live session, by algo",
    ),
    (
        "mpss_session_clock",
        "gauge: a live session's current model time, by algo",
    ),
    (
        "mpss_session_queued_volume",
        "gauge: unfinished work volume queued in a live session, by algo",
    ),
    (
        "mpss_session_replan_seconds",
        "histogram: wall-clock replan latency of a live session, by algo",
    ),
    (
        "mpss_session_replans_total",
        "counter: replans a live session has run, by algo",
    ),
    (
        "mpss_session_speed",
        "gauge: a live session's current per-processor speed, by algo and proc",
    ),
];

/// Every flight-recorder event kind, sorted: the values of
/// [`FlightEventKind::class`](crate::FlightEventKind::class), which a
/// postmortem bundle's flight dump carries as `kind`.
pub const FLIGHT_KINDS: &[(&str, &str)] = &[
    ("error", "a request failed or its handler panicked"),
    (
        "replan",
        "an OA replan ran: latency, work, patched arcs, engine",
    ),
    ("request", "a protocol request was handled"),
];

/// Every structured-log target, sorted: the `target` of the daemon's
/// [`Logger`](crate::Logger) records.
pub const LOG_TARGETS: &[(&str, &str)] = &[
    ("serve.open", "a tenant session was opened"),
    ("serve.panic", "a request handler panicked and was caught"),
    (
        "serve.postmortem",
        "a postmortem bundle was written, or writing one failed",
    ),
    ("serve.request", "a request failed"),
    ("serve.restore", "a tenant was restored from a checkpoint"),
];

fn listed(table: &[(&str, &str)], name: &str) -> bool {
    table.iter().any(|(key, _)| *key == name)
}

/// `true` if `family` is a manifest live-metric family (listed in
/// [`METRICS`]).
pub fn known_metric(family: &str) -> bool {
    listed(METRICS, family)
}

/// `true` if `kind` is a manifest flight-recorder event kind.
pub fn known_flight_kind(kind: &str) -> bool {
    listed(FLIGHT_KINDS, kind)
}

/// `true` if `target` is a manifest log target.
pub fn known_log_target(target: &str) -> bool {
    listed(LOG_TARGETS, target)
}

/// `true` if `name` is a manifest counter — including instant names, which
/// aggregating collectors record as counters.
pub fn known_counter(name: &str) -> bool {
    listed(COUNTERS, name) || listed(INSTANTS, name)
}

/// `true` if `name` is a manifest histogram — including the derived
/// `span.<name>.ms` duration histograms of manifest spans.
pub fn known_histogram(name: &str) -> bool {
    if listed(HISTOGRAMS, name) {
        return true;
    }
    name.strip_prefix("span.")
        .and_then(|rest| rest.strip_suffix(".ms"))
        .is_some_and(|span| listed(SPANS, span))
}

/// `true` if `name` is a manifest span.
pub fn known_span(name: &str) -> bool {
    listed(SPANS, name)
}

/// Filters recorded keys down to the ones the manifest does not know —
/// the coverage test asserts this comes back empty.
pub fn unknown_keys<'a>(
    counters: impl IntoIterator<Item = &'a str>,
    histograms: impl IntoIterator<Item = &'a str>,
) -> Vec<String> {
    let mut unknown: Vec<String> = counters
        .into_iter()
        .filter(|name| !known_counter(name))
        .map(|name| format!("counter {name}"))
        .chain(
            histograms
                .into_iter()
                .filter(|name| !known_histogram(name))
                .map(|name| format!("histogram {name}")),
        )
        .collect();
    unknown.sort();
    unknown
}

/// The manifest as a Markdown table (DESIGN.md embeds this verbatim; the
/// `design_md_embeds_the_manifest_table` test in the root crate keeps the
/// two in sync).
pub fn markdown_table() -> String {
    let mut out = String::from("| kind | key | meaning |\n|---|---|---|\n");
    let sections: [(&str, &[(&str, &str)]); 7] = [
        ("counter", COUNTERS),
        ("histogram", HISTOGRAMS),
        ("span", SPANS),
        ("instant", INSTANTS),
        ("metric", METRICS),
        ("flight", FLIGHT_KINDS),
        ("log", LOG_TARGETS),
    ];
    for (kind, table) in sections {
        for (key, meaning) in table {
            out.push_str(&format!("| {kind} | `{key}` | {meaning} |\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_sorted_and_unique() {
        for table in [
            COUNTERS,
            HISTOGRAMS,
            SPANS,
            INSTANTS,
            METRICS,
            FLIGHT_KINDS,
            LOG_TARGETS,
        ] {
            for pair in table.windows(2) {
                assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
            }
        }
    }

    #[test]
    fn lookups_cover_derived_and_folded_names() {
        assert!(known_counter("offline.phases"));
        assert!(known_counter("offline.job_removed")); // instant folded to counter
        assert!(!known_counter("offline.phasez"));
        assert!(known_histogram("driver.online_energy"));
        assert!(known_histogram("span.offline.phase.ms")); // derived
        assert!(!known_histogram("span.not.a.span.ms"));
        assert!(known_span("oa.replan"));
    }

    #[test]
    fn unknown_keys_reports_only_strays() {
        let unknown = unknown_keys(
            ["offline.phases", "typo.counter"],
            ["span.oa.replan.ms", "typo.hist"],
        );
        assert_eq!(unknown, vec!["counter typo.counter", "histogram typo.hist"]);
    }

    #[test]
    fn markdown_table_lists_every_key() {
        let table = markdown_table();
        for (key, _) in COUNTERS
            .iter()
            .chain(HISTOGRAMS)
            .chain(SPANS)
            .chain(INSTANTS)
            .chain(METRICS)
            .chain(FLIGHT_KINDS)
            .chain(LOG_TARGETS)
        {
            assert!(table.contains(&format!("`{key}`")), "missing {key}");
        }
    }

    #[test]
    fn known_metric_accepts_only_listed_families() {
        assert!(known_metric("mpss_session_replan_seconds"));
        assert!(known_metric("mpss_serve_requests_total"));
        // Collector keys are not live-metric families.
        assert!(!known_metric("mpss_offline_phases_total"));
        assert!(!known_metric("mpss_totally_made_up"));
    }

    #[test]
    fn every_flight_event_class_is_listed() {
        use crate::FlightEventKind;
        for event in [
            FlightEventKind::request("open", true, None),
            FlightEventKind::replan(1.0, 2, 3, "dinic"),
            FlightEventKind::error("planning", "x"),
        ] {
            assert!(known_flight_kind(event.class()), "{}", event.class());
        }
        assert!(known_log_target("serve.open"));
        assert!(!known_log_target("serve.typo"));
    }
}
