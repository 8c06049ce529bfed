//! `serve-soak`: does the `mpss-serve` daemon hold a four-digit tenant
//! count and a six-digit arrival stream without unbounded memory, and does
//! a mid-run kill/restore leave it *bit-identical* to a daemon that never
//! died?
//!
//! The harness drives a [`Daemon`] through the same request surface a
//! network client would use — `open`, `arrive`, broadcast `advance`,
//! periodic `checkpoint` — with a mixed OA/AVR tenant population and a
//! sliding compaction window, and checks three things:
//!
//! * **scale** — ≥1000 concurrent tenants and ≥100k cumulative arrivals in
//!   `--smoke` mode (the CI configuration; the full run is ~1M arrivals);
//! * **bit-identical restore** — halfway through, every tenant is frozen to
//!   disk, a *fresh* daemon restores the fleet, re-freezes it, and the two
//!   checkpoint directories must match byte for byte; the restored daemon
//!   then serves the rest of the soak, so the back half also proves the
//!   revived fleet stays live;
//! * **bounded memory** — the compaction window must keep every tenant's
//!   retained executed history small regardless of stream length, with RSS
//!   reported (and sanity-bounded) from `/proc/self/status`.
//!
//! Run: `cargo run -p mpss-bench --release --bin exp_serve_soak -- --smoke`
//! `--smoke` also appends a `serve_soak_smoke` snapshot to the cumulative
//! `BENCH_TRAJECTORY.json` — gated work counters (`serve.tenants`,
//! `serve.arrivals`, the flight-recorder tallies) plus ungated
//! wall-clock-shaped stats (`serve.checkpoint_ms` and
//! `flight.overhead_pct`, the always-on black-box cost as a percent of
//! wall time) — gate it with `mpss-cli report-diff --bench`.
//!
//! The soak also *asserts in-binary* that the black box stays under 1% of
//! wall time. With `--postmortem-dir DIR [--slow-replan-ms MS]` the daemon
//! additionally dumps postmortem bundles (CI injects a 0 ms threshold to
//! force one) and the harness asserts a bundle landed.

use mpss_bench::{record_bench_snapshot, Table};
use mpss_core::json::{arr, uint};
use mpss_serve::protocol::{Algo, Request};
use mpss_serve::{Daemon, DaemonConfig};
use std::path::{Path, PathBuf};

/// Retained-history ceiling per tenant: the compaction window covers ~3
/// rounds, so anything within an order of magnitude of the per-round
/// segment count is "bounded"; an unbounded history would blow through
/// this within a few dozen rounds.
const MAX_RETAINED_SEGMENTS: u64 = 1000;

struct SoakConfig {
    tenants: usize,
    /// Every round sends one arrival per tenant, then a broadcast advance.
    rounds: usize,
    /// Tenants whose index is a multiple of this run OA (flow replanning —
    /// the expensive engine); the rest run AVR.
    oa_stride: usize,
    checkpoint_every: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let postmortem_dir = flag("--postmortem-dir").map(PathBuf::from);
    let slow_replan_ms: Option<f64> = flag("--slow-replan-ms").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("bad --slow-replan-ms `{v}`"))
    });
    assert!(
        slow_replan_ms.is_none() || postmortem_dir.is_some(),
        "--slow-replan-ms needs --postmortem-dir"
    );
    let config = if smoke {
        SoakConfig {
            tenants: 1000,
            rounds: 100,
            oa_stride: 20, // 50 OA tenants
            checkpoint_every: 25,
        }
    } else {
        SoakConfig {
            tenants: 2000,
            rounds: 500,
            oa_stride: 40, // 50 OA tenants
            checkpoint_every: 100,
        }
    };
    let started = std::time::Instant::now();
    let planned = config.tenants * config.rounds;
    println!(
        "serve-soak: {} tenants ({} OA, {} AVR), {} rounds, {} arrivals planned",
        config.tenants,
        config.tenants.div_ceil(config.oa_stride),
        config.tenants - config.tenants.div_ceil(config.oa_stride),
        config.rounds,
        planned,
    );
    let rss_start = rss_mb();

    let daemon_config = DaemonConfig {
        compact_window: Some(3.0),
        threads: None,
        postmortem_dir: postmortem_dir.clone(),
        slow_replan_ms,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(daemon_config.clone());
    for k in 0..config.tenants {
        let algo = if k % config.oa_stride == 0 {
            Algo::Oa
        } else {
            Algo::Avr
        };
        let response = daemon.handle(&Request::Open {
            tenant: format!("tenant-{k:04}"),
            algo,
            m: 2,
            start: 0.0,
            engine: None,
        });
        assert!(response.is_ok(), "open {k}: {}", response.render_line());
    }
    assert!(daemon.tenant_count() >= 1000 || !smoke);

    let scratch = scratch_dir();
    let mut arrivals: u64 = 0;
    let mut checkpoint_ms: f64 = 0.0;
    let mut checkpoints: u64 = 0;
    let kill_round = config.rounds / 2;
    let mut rss_mid = 0.0;
    let mut obs_ns_carry: u64 = 0;
    let mut flight_carry: (u64, u64) = (0, 0);
    let mut postmortems_carry: u64 = 0;
    for round in 1..=config.rounds {
        let t = round as f64;
        for k in 0..config.tenants {
            let response = daemon.handle(&Request::Arrive {
                tenant: format!("tenant-{k:04}"),
                deadline: t + 1.5,
                volume: 0.3,
            });
            assert!(
                response.is_ok(),
                "arrive r{round} t{k}: {}",
                response.render_line()
            );
            arrivals += 1;
        }
        let response = daemon.handle(&Request::Advance {
            tenant: None,
            to: t,
        });
        assert!(
            response.is_ok(),
            "advance r{round}: {}",
            response.render_line()
        );

        if round % config.checkpoint_every == 0 {
            let dir = scratch.join(format!("round-{round}"));
            let ms = checkpoint_all(&mut daemon, &dir);
            checkpoint_ms += ms;
            checkpoints += 1;
            println!("  round {round:4}: checkpointed fleet in {ms:.1} ms");
        }
        if round == kill_round {
            // The black-box tallies die with the killed daemon: carry them.
            obs_ns_carry += daemon.obs_overhead_ns();
            let (recorded, dropped) = daemon.flight_totals();
            flight_carry.0 += recorded;
            flight_carry.1 += dropped;
            postmortems_carry += daemon.postmortems_written();
            daemon = kill_and_restore(daemon, &daemon_config, &scratch);
            rss_mid = rss_mb();
            println!(
                "  round {round:4}: killed the daemon, restored {} tenants bit-identically \
                 (RSS {rss_mid:.0} MB)",
                daemon.tenant_count()
            );
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let rss_end = rss_mb();

    // Always-on black box: the flight recorders ran for the whole soak.
    // Total their cost (pre-kill tallies were carried) and hold the line at
    // <1% of wall time.
    let obs_ns = obs_ns_carry + daemon.obs_overhead_ns();
    let (live_recorded, live_dropped) = daemon.flight_totals();
    let flight_recorded = flight_carry.0 + live_recorded;
    let flight_dropped = flight_carry.1 + live_dropped;
    let postmortems = postmortems_carry + daemon.postmortems_written();
    let overhead_pct = obs_ns as f64 / (wall_ms * 1e6) * 100.0;
    println!(
        "black box: {obs_ns} ns over {} requests ({:.0} ns/request), {overhead_pct:.3}% of wall",
        arrivals + config.rounds as u64,
        obs_ns as f64 / (arrivals + config.rounds as u64) as f64,
    );
    assert!(
        overhead_pct < 1.0,
        "black-box overhead {overhead_pct:.3}% of wall time — the always-on recorder must stay under 1%"
    );
    if let Some(dir) = &postmortem_dir {
        if slow_replan_ms.is_some() {
            let bundles = mpss_serve::find_bundles(dir).expect("listing postmortem bundles");
            assert!(
                !bundles.is_empty(),
                "a slow-replan threshold was set but no postmortem bundle landed in {}",
                dir.display()
            );
            println!(
                "postmortem: {} bundle(s) in {} (first: {})",
                bundles.len(),
                dir.display(),
                bundles[0].display()
            );
        }
    }

    // Bounded memory: compaction must have kept every tenant's retained
    // history flat, independent of how many rounds ran.
    let snapshot = daemon.handle(&Request::Snapshot { tenant: None });
    assert!(snapshot.is_ok(), "{}", snapshot.render_line());
    let rows = arr(snapshot.to_json(), "tenants").expect("snapshot rows");
    assert_eq!(rows.len(), config.tenants);
    let mut max_segments = 0u64;
    let mut total_compacted = 0u64;
    for row in rows {
        let retained = uint(row, "executed_segments").expect("snapshot row");
        let compacted = uint(row, "compacted_segments").expect("snapshot row");
        assert!(
            retained <= MAX_RETAINED_SEGMENTS,
            "tenant {:?} retains {retained} segments — compaction is not bounding history",
            row.get("tenant"),
        );
        assert!(
            compacted > 0,
            "tenant {:?} never compacted anything over {} rounds",
            row.get("tenant"),
            config.rounds,
        );
        max_segments = max_segments.max(retained);
        total_compacted += compacted;
    }
    // RSS is machine-dependent; this is a tripwire against runaway growth,
    // not a precise bound (the real invariant is the segment ceiling above).
    if rss_end > 0.0 {
        assert!(
            rss_end < 4096.0,
            "soak RSS reached {rss_end:.0} MB — memory is not bounded"
        );
    }

    assert_eq!(arrivals as usize, planned);
    if smoke {
        assert!(
            daemon.tenant_count() >= 1000,
            "smoke must soak ≥1000 tenants"
        );
        assert!(arrivals >= 100_000, "smoke must push ≥100k arrivals");
    }

    let mut table = Table::new(&["measure", "value"]);
    table.row(vec!["tenants".into(), daemon.tenant_count().to_string()]);
    table.row(vec!["arrivals".into(), arrivals.to_string()]);
    table.row(vec!["rounds".into(), config.rounds.to_string()]);
    table.row(vec![
        "checkpoints (fleet-wide)".into(),
        checkpoints.to_string(),
    ]);
    table.row(vec![
        "checkpoint wall (ms total)".into(),
        format!("{checkpoint_ms:.1}"),
    ]);
    table.row(vec![
        "max retained segments/tenant".into(),
        max_segments.to_string(),
    ]);
    table.row(vec![
        "segments compacted (fleet)".into(),
        total_compacted.to_string(),
    ]);
    table.row(vec![
        "RSS start/mid/end (MB)".into(),
        format!("{rss_start:.0} / {rss_mid:.0} / {rss_end:.0}"),
    ]);
    table.row(vec![
        "flight events recorded/dropped".into(),
        format!("{flight_recorded} / {flight_dropped}"),
    ]);
    table.row(vec!["postmortem bundles".into(), postmortems.to_string()]);
    table.row(vec![
        "black-box overhead (% wall)".into(),
        format!("{overhead_pct:.3}"),
    ]);
    table.row(vec!["wall (ms)".into(), format!("{wall_ms:.0}")]);
    table.print();
    println!(
        "\nkill/restore at round {kill_round} was byte-identical on disk and the restored\n\
         fleet served the remaining {} rounds; history stayed ≤{max_segments} segments/tenant.",
        config.rounds - kill_round,
    );

    let _ = std::fs::remove_dir_all(&scratch);

    if smoke {
        let bench = Path::new("BENCH_TRAJECTORY.json");
        record_bench_snapshot(
            bench,
            "serve_soak_smoke",
            wall_ms,
            &[
                ("serve.tenants", daemon.tenant_count() as u64),
                ("serve.arrivals", arrivals),
                ("serve.flight.events", flight_recorded),
                ("serve.flight.dropped", flight_dropped),
                ("serve.postmortems", postmortems),
            ],
            // Checkpoint wall and recorder overhead are wall-clock-shaped
            // (machine noise swamps a 25% gate); the hard <1% overhead gate
            // is the assert above, the trajectory entries just track trends.
            &[
                ("serve.checkpoint_ms", checkpoint_ms),
                ("flight.overhead_pct", overhead_pct),
            ],
        )
        .expect("writing bench snapshot");
        println!("bench snapshot recorded in {}", bench.display());
    }
}

/// Fleet-wide checkpoint into `dir`, returning the wall milliseconds the
/// daemon spent serving it.
fn checkpoint_all(daemon: &mut Daemon, dir: &Path) -> f64 {
    let start = std::time::Instant::now();
    let response = daemon.handle(&Request::Checkpoint {
        tenant: None,
        dir: dir.to_string_lossy().into_owned(),
    });
    assert!(response.is_ok(), "{}", response.render_line());
    start.elapsed().as_secs_f64() * 1e3
}

/// The kill-restore differential: freeze `daemon` to disk, drop it, restore
/// a fresh daemon from the files, re-freeze the restored fleet, and demand
/// the two directories match byte for byte. Returns the restored daemon.
fn kill_and_restore(mut daemon: Daemon, config: &DaemonConfig, scratch: &Path) -> Daemon {
    let before = scratch.join("killed");
    let after = scratch.join("restored");
    checkpoint_all(&mut daemon, &before);
    drop(daemon); // the "kill"
    let mut revived = Daemon::new(config.clone());
    let response = revived.handle(&Request::Restore {
        tenant: None,
        dir: before.to_string_lossy().into_owned(),
    });
    assert!(response.is_ok(), "restore: {}", response.render_line());
    checkpoint_all(&mut revived, &after);
    for entry in std::fs::read_dir(&before).expect("reading checkpoint dir") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name() else {
            continue;
        };
        let a = std::fs::read(&path).expect("reading original checkpoint");
        let b = std::fs::read(after.join(name)).expect("reading re-frozen checkpoint");
        assert_eq!(
            a, b,
            "checkpoint {name:?} changed across kill/restore — restore is not bit-identical"
        );
    }
    revived
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpss-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Resident set size in MB from `/proc/self/status`, or 0.0 where that
/// pseudo-file does not exist.
fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}
