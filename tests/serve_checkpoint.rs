//! Checkpoint/restore is *invisible*: killing a session (or the whole
//! daemon) at any point and restoring from its checkpoint must replay the
//! rest of the arrival stream to bit-identical state — same executed
//! segments, same clock, same speeds, same replan and max-flow counters.
//! No tolerance comparisons anywhere in this file: the checkpoint codec
//! rides the shortest-round-trip `f64` JSON, so equality is exact or it is
//! a bug.
//!
//! Three layers:
//!
//! * deterministic kill-after-every-step differentials for OA (both
//!   max-flow engines) and AVR, with and without history compaction;
//! * a daemon-level restart differential driving the full request surface;
//! * property tests over random streams × random kill interleavings.

use mpss::numeric::rng::{check, Rng};
use mpss::obs::json::Json;
use mpss::prelude::*;
use mpss::serve::protocol::{Algo, Request};

/// One step of an online arrival stream.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Arrive with (deadline = now + window, volume).
    Arrive(f64, f64),
    /// Advance the clock by dt.
    Advance(f64),
}

/// A fractional random stream: awkward f64s on purpose, so any
/// text-round-trip rounding would show up as divergence.
fn stream(seed: u64, len: usize) -> Vec<Event> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.6) {
                Event::Arrive(
                    0.3 + rng.gen_range(0.0..1.0) * 3.0,
                    0.1 + rng.gen_range(0.0..1.0),
                )
            } else {
                Event::Advance(rng.gen_range(0.0..1.0) * 0.7)
            }
        })
        .collect()
}

/// Freeze → render → parse → restore: the full disk round trip, minus the
/// disk.
fn kill_and_restore_oa(session: OaSession) -> OaSession {
    let frozen = session.checkpoint().to_json().render();
    drop(session);
    let parsed = Json::parse(&frozen).expect("checkpoint is valid JSON");
    OaSession::restore(OaCheckpoint::from_json(&parsed).expect("checkpoint decodes"))
        .expect("checkpoint restores")
}

fn kill_and_restore_avr(session: AvrSession) -> AvrSession {
    let frozen = session.checkpoint().to_json().render();
    drop(session);
    let parsed = Json::parse(&frozen).expect("checkpoint is valid JSON");
    AvrSession::restore(AvrCheckpoint::from_json(&parsed).expect("checkpoint decodes"))
        .expect("checkpoint restores")
}

/// Runs `events` through an OA session; `kill(i)` says whether to
/// kill/restore after step `i`. `compact` additionally drags a sliding
/// window behind the clock on every advance.
fn run_oa(
    events: &[Event],
    engine: FlowEngine,
    compact: Option<f64>,
    kill: impl Fn(usize) -> bool,
) -> OaSession {
    let mut session = OaSession::with_engine(2, 0.0, engine);
    for (i, event) in events.iter().enumerate() {
        match *event {
            Event::Arrive(window, volume) => {
                session
                    .arrive(session.core().now() + window, volume)
                    .expect("streams only produce valid jobs");
            }
            Event::Advance(dt) => {
                let to = session.core().now() + dt;
                session.advance_to(to).expect("time moves forward");
                if let Some(w) = compact {
                    session.core_mut().compact_history(to - w);
                }
            }
        }
        if kill(i) {
            session = kill_and_restore_oa(session);
        }
    }
    session
}

fn run_avr(events: &[Event], compact: Option<f64>, kill: impl Fn(usize) -> bool) -> AvrSession {
    let mut session = AvrSession::new(2, 0.0);
    for (i, event) in events.iter().enumerate() {
        match *event {
            Event::Arrive(window, volume) => {
                session
                    .arrive(session.core().now() + window, volume)
                    .expect("streams only produce valid jobs");
            }
            Event::Advance(dt) => {
                let to = session.core().now() + dt;
                session.advance_to(to).expect("time moves forward");
                if let Some(w) = compact {
                    session.core_mut().compact_history(to - w);
                }
            }
        }
        if kill(i) {
            session = kill_and_restore_avr(session);
        }
    }
    session
}

/// Two runs of either session type agree bit for bit: same clock, executed
/// history, compaction tally and speeds, and checkpoints that render to the
/// same bytes (so a re-freeze of the survivor equals a re-freeze of the
/// restored twin). An OA checkpoint also carries the remaining volumes, the
/// plan, and the replan and max-flow counters.
macro_rules! assert_identical {
    ($a:expr, $b:expr) => {{
        let (a, b) = ($a, $b);
        let (ca, cb) = (a.core(), b.core());
        assert_eq!(ca.now().to_bits(), cb.now().to_bits(), "clock diverged");
        assert_eq!(
            ca.executed().segments,
            cb.executed().segments,
            "schedule diverged"
        );
        assert_eq!(ca.compaction_watermark(), cb.compaction_watermark());
        assert_eq!(ca.compacted_segments(), cb.compacted_segments());
        assert_eq!(ca.compacted_work().to_bits(), cb.compacted_work().to_bits());
        assert_eq!(a.current_speeds(), b.current_speeds(), "speeds diverged");
        assert_eq!(
            a.checkpoint().to_json().render(),
            b.checkpoint().to_json().render()
        );
    }};
}

#[test]
fn oa_kill_after_every_step_is_invisible_on_both_engines() {
    for engine in [FlowEngine::Dinic, FlowEngine::PushRelabel] {
        for seed in [1u64, 7, 42] {
            let events = stream(seed, 30);
            let straight = run_oa(&events, engine, None, |_| false);
            let battered = run_oa(&events, engine, None, |_| true);
            assert_identical!(&straight, &battered);
            assert!(straight.replans() > 0, "stream {seed} exercised nothing");
        }
    }
}

#[test]
fn oa_kill_restore_composes_with_compaction() {
    let events = stream(3, 40);
    for engine in [FlowEngine::Dinic, FlowEngine::PushRelabel] {
        let straight = run_oa(&events, engine, Some(1.5), |_| false);
        let battered = run_oa(&events, engine, Some(1.5), |i| i % 3 == 0);
        assert_identical!(&straight, &battered);
        assert!(
            straight.core().compacted_segments() > 0,
            "the window never compacted anything — the test is vacuous"
        );
    }
}

#[test]
fn avr_kill_after_every_step_is_invisible() {
    for seed in [2u64, 11, 99] {
        let events = stream(seed, 40);
        let straight = run_avr(&events, Some(1.0), |_| false);
        let battered = run_avr(&events, Some(1.0), |_| true);
        assert_identical!(&straight, &battered);
        assert!(!straight.core().executed().segments.is_empty());
    }
}

/// Daemon-level: the same request script through an uninterrupted daemon
/// and through one that is killed and restored from disk every few
/// requests; the final fleets must freeze to byte-identical checkpoints.
#[test]
fn daemon_restart_every_few_requests_is_invisible() {
    let scratch = std::env::temp_dir().join(format!("mpss-serve-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut script: Vec<Request> = vec![
        Request::Open {
            tenant: "din".into(),
            algo: Algo::Oa,
            m: 2,
            start: 0.0,
            engine: Some(FlowEngine::Dinic),
        },
        Request::Open {
            tenant: "rel".into(),
            algo: Algo::Oa,
            m: 3,
            start: 0.0,
            engine: Some(FlowEngine::PushRelabel),
        },
        Request::Open {
            tenant: "avr".into(),
            algo: Algo::Avr,
            m: 2,
            start: 0.0,
            engine: None,
        },
    ];
    let mut rng = Rng::seed_from_u64(2026);
    let mut t = 0.0;
    for k in 0..40 {
        let tenant = ["din", "rel", "avr"][k % 3];
        script.push(Request::Arrive {
            tenant: tenant.into(),
            deadline: t + 0.5 + rng.gen_range(0.0..1.0) * 2.0,
            volume: 0.2 + rng.gen_range(0.0..1.0),
        });
        if k % 2 == 0 {
            t += rng.gen_range(0.0..1.0) * 0.4;
            script.push(Request::Advance {
                tenant: None,
                to: t,
            });
        }
    }

    let config = DaemonConfig {
        compact_window: Some(2.0),
        threads: Some(2),
        ..DaemonConfig::default()
    };
    let mut straight = Daemon::new(config.clone());
    let mut battered = Daemon::new(config.clone());
    let restart_dir = scratch.join("restarts");
    for (i, request) in script.iter().enumerate() {
        let a = straight.handle(request);
        let b = battered.handle(request);
        assert!(a.is_ok(), "straight {i}: {}", a.render_line());
        assert_eq!(
            a.render_line(),
            b.render_line(),
            "responses diverged at {i}"
        );
        if i % 5 == 4 {
            // Kill the battered daemon: freeze, drop, restore from disk.
            let dir = restart_dir.join(format!("at-{i}"));
            let freeze = battered.handle(&Request::Checkpoint {
                tenant: None,
                dir: dir.to_string_lossy().into_owned(),
            });
            assert!(freeze.is_ok(), "{}", freeze.render_line());
            battered = Daemon::new(config.clone());
            let revive = battered.handle(&Request::Restore {
                tenant: None,
                dir: dir.to_string_lossy().into_owned(),
            });
            assert!(revive.is_ok(), "{}", revive.render_line());
        }
    }

    // Final verdict: both fleets freeze to byte-identical files.
    let dir_a = scratch.join("final-straight");
    let dir_b = scratch.join("final-battered");
    for (daemon, dir) in [(&mut straight, &dir_a), (&mut battered, &dir_b)] {
        let r = daemon.handle(&Request::Checkpoint {
            tenant: None,
            dir: dir.to_string_lossy().into_owned(),
        });
        assert!(r.is_ok(), "{}", r.render_line());
    }
    for tenant in ["din", "rel", "avr"] {
        let file = format!("{tenant}.checkpoint.json");
        let a = std::fs::read(dir_a.join(&file)).expect("straight checkpoint");
        let b = std::fs::read(dir_b.join(&file)).expect("battered checkpoint");
        assert_eq!(
            a, b,
            "tenant {tenant}: restart history leaked into the checkpoint"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The checkpoint format is pinned by files an earlier build wrote:
/// `tests/fixtures/serve_checkpoint/` holds the checkpoint directory that
/// `mpss-cli serve --compact-window 1.5 --threads 2 < requests.ndjson` left
/// in `ckpt/` — a Dinic OA tenant with a live plan, a push–relabel OA
/// tenant and an AVR tenant, all with compacted history. Restoring it and
/// checkpointing again must reproduce every file byte for byte.
#[test]
fn checkpoints_written_by_an_earlier_build_round_trip_byte_for_byte() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve_checkpoint");
    let out = std::env::temp_dir().join(format!("mpss-serve-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let mut daemon = Daemon::new(DaemonConfig::default());
    let r = daemon.handle(&Request::Restore {
        tenant: None,
        dir: fixture.to_string_lossy().into_owned(),
    });
    assert!(r.is_ok(), "{}", r.render_line());
    assert_eq!(daemon.tenant_names(), ["avr", "din", "rel"]);
    let r = daemon.handle(&Request::Checkpoint {
        tenant: None,
        dir: out.to_string_lossy().into_owned(),
    });
    assert!(r.is_ok(), "{}", r.render_line());
    for tenant in ["avr", "din", "rel"] {
        let file = format!("{tenant}.checkpoint.json");
        let pinned = std::fs::read(fixture.join(&file)).expect("fixture file");
        let written = std::fs::read(out.join(&file)).expect("re-checkpointed file");
        assert!(
            pinned == written,
            "tenant {tenant}: checkpoint bytes changed"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// Any interleaving of kill/restore points in any OA arrival stream is
/// invisible in the executed schedule and every counter.
#[test]
fn oa_any_kill_interleaving_is_invisible() {
    check(24, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let (kill_mask, len) = (rng.gen_range(0..u64::MAX), rng.gen_range(10..25));
        let events = stream(seed, len);
        let straight = run_oa(&events, FlowEngine::Dinic, None, |_| false);
        let battered = run_oa(&events, FlowEngine::Dinic, None, |i| {
            kill_mask >> (i % 64) & 1 == 1
        });
        assert_identical!(&straight, &battered);
    });
}

/// Same property for AVR, with a compaction window dragging along.
#[test]
fn avr_any_kill_interleaving_is_invisible() {
    check(24, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let (kill_mask, len) = (rng.gen_range(0..u64::MAX), rng.gen_range(10..30));
        let events = stream(seed, len);
        let straight = run_avr(&events, Some(0.8), |_| false);
        let battered = run_avr(&events, Some(0.8), |i| kill_mask >> (i % 64) & 1 == 1);
        assert_identical!(&straight, &battered);
    });
}
