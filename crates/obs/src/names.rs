//! The instrumentation-key manifest.
//!
//! Every counter, histogram, span, and instant name the workspace emits is
//! listed here, in one place. Two things hang off the manifest:
//!
//! * a coverage test (`tests/obs.rs` in the root crate) runs the solvers
//!   end-to-end and asserts every *recorded* key is listed — so a typo'd key
//!   at an instrumentation point fails CI instead of silently forking a new
//!   counter;
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
        "batch.solved",
        "instances a batch shard finished (shard-level progress)",
    ),
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
        "warm-start flow units drained on rebuild",
    ),
    (
        "maxflow.warm.reused_flow",
        "warm-start flow units carried over",
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
        "jobs fixed at peak speed by the repair loop",
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
        "par.worker.items",
        "items one pool worker claimed (per-worker track)",
    ),
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
        "online/OPT energy ratio per prefix",
    ),
    ("driver.online_energy", "online algorithm energy per run"),
    ("driver.opt_energy", "optimal offline energy per run"),
    (
        "offline.flow_vs_target",
        "max-flow value vs. demand target per probe",
    ),
    ("offline.jobs_removed_per_phase", "jobs fixed per phase"),
];

/// Every span name, sorted. Each span `s` implies a derived histogram
/// `span.<s>.ms`.
pub const SPANS: &[(&str, &str)] = &[
    ("batch.solve", "one instance solved inside a batch shard"),
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
        "the repair loop fixed a job at peak speed",
    ),
];

/// Every *explicitly registered* live-metric family name, sorted. These are
/// the `{algo, proc, …}`-labeled series the sessions publish directly into a
/// [`MetricsHub`](crate::MetricsHub); the bridged families derived from
/// [`COUNTERS`]/[`HISTOGRAMS`]/[`INSTANTS`] via [`prom_counter`] /
/// [`prom_histogram`] are *not* repeated here — [`known_metric`] accepts
/// both.
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
    (
        "mpss_span_seconds",
        "histogram: wall-clock span durations bridged from collectors, by span and track",
    ),
];

/// The bridged span-duration histogram family
/// ([`MetricsCollector`](crate::MetricsCollector) observes every closed span
/// here, labeled `{span, track}`).
pub const PROM_SPAN_SECONDS: &str = "mpss_span_seconds";

fn listed(table: &[(&str, &str)], name: &str) -> bool {
    table.iter().any(|(key, _)| *key == name)
}

/// Rewrites a dotted instrumentation key into a Prometheus-legal name chunk:
/// every character outside `[A-Za-z0-9]` becomes `_`.
pub fn prom_sanitize(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The live-metric family name a bridged counter or instant lands in:
/// `offline.phases` → `mpss_offline_phases_total`.
pub fn prom_counter(key: &str) -> String {
    format!("mpss_{}_total", prom_sanitize(key))
}

/// The live-metric family name a bridged histogram lands in:
/// `driver.online_energy` → `mpss_driver_online_energy`.
pub fn prom_histogram(key: &str) -> String {
    format!("mpss_{}", prom_sanitize(key))
}

/// `true` if `family` is a manifest live-metric family — either listed in
/// [`METRICS`] or derived from a manifest counter/instant/histogram by the
/// [`prom_counter`]/[`prom_histogram`] bridge mapping.
pub fn known_metric(family: &str) -> bool {
    listed(METRICS, family)
        || COUNTERS
            .iter()
            .chain(INSTANTS)
            .any(|(key, _)| prom_counter(key) == family)
        || HISTOGRAMS
            .iter()
            .any(|(key, _)| prom_histogram(key) == family)
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
/// `obs_manifest` test in the root crate keeps the two in sync).
pub fn markdown_table() -> String {
    let mut out = String::from("| kind | key | meaning |\n|---|---|---|\n");
    let sections: [(&str, &[(&str, &str)]); 5] = [
        ("counter", COUNTERS),
        ("histogram", HISTOGRAMS),
        ("span", SPANS),
        ("instant", INSTANTS),
        ("metric", METRICS),
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
        for table in [COUNTERS, HISTOGRAMS, SPANS, INSTANTS, METRICS] {
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
        {
            assert!(table.contains(&format!("`{key}`")), "missing {key}");
        }
    }

    #[test]
    fn prom_names_follow_the_bridge_mapping() {
        assert_eq!(prom_sanitize("offline.phases"), "offline_phases");
        assert_eq!(prom_counter("offline.phases"), "mpss_offline_phases_total");
        assert_eq!(
            prom_histogram("driver.online_energy"),
            "mpss_driver_online_energy"
        );
    }

    #[test]
    fn known_metric_accepts_listed_and_bridged_families() {
        assert!(known_metric("mpss_session_replan_seconds")); // listed
        assert!(known_metric(PROM_SPAN_SECONDS)); // listed
        assert!(known_metric("mpss_offline_phases_total")); // bridged counter
        assert!(known_metric("mpss_oa_arrival_total")); // bridged instant
        assert!(known_metric("mpss_driver_online_energy")); // bridged histogram
        assert!(!known_metric("mpss_totally_made_up"));
    }
}
