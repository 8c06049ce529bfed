//! Postmortem bundles: one directory per incident, written atomically.
//!
//! When a tenant misbehaves — a serious protocol error, a caught panic, a
//! replan over the slow threshold, or an operator `debug-dump` — the daemon
//! freezes the evidence into a bundle directory:
//!
//! * `manifest.json` — what happened: tenant, trigger reason, offending op,
//!   error kind/message, the replan summary that tripped the threshold, and
//!   the tenant's plan at dump time (the replay target for
//!   `mpss-cli postmortem`);
//! * `<tenant>.checkpoint.json` — the tenant's full checkpoint in the exact
//!   daemon envelope, so a `restore` pointed at the bundle directory
//!   resurrects the session bit-identically;
//! * `flight.json` — the tenant's and the daemon's flight-recorder rings,
//!   which hold every fact the daemon recorded about the recent past:
//!   requests (each failure with its error kind and message), replans, and
//!   earlier bundle writes;
//! * `metrics.prom` — a full Prometheus snapshot of the hub;
//! * `replan.trace.json` — the Chrome trace of the offending replan, when
//!   one was armed (slow-replan exemplar capture).
//!
//! Bundles share the checkpoint discipline: everything is staged in a
//! dot-prefixed temp directory and `rename`d into place, so a kill mid-dump
//! never leaves a half-written bundle where [`find_bundles`] would see it.

use mpss_obs::json::Json;
use std::io;
use std::path::{Path, PathBuf};

/// The bundle manifest's `format` marker.
pub const BUNDLE_FORMAT: &str = "mpss-serve/postmortem";
/// The bundle manifest version. Bump on breaking layout changes (2: the
/// bundle no longer carries a copy of the daemon's log; its facts are
/// flight events in `flight.json`).
pub const BUNDLE_VERSION: u64 = 2;

/// What triggered a bundle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BundleReason {
    /// A request failed with a serious error kind (`planning`,
    /// `bad-checkpoint`, `internal`).
    ProtocolError,
    /// A replan's latency exceeded the configured `--slow-replan-ms`.
    SlowReplan,
    /// A request handler panicked and the scoped hook caught it.
    Panic,
    /// An operator asked via the `debug-dump` op.
    DebugDump,
}

impl BundleReason {
    /// The stable spelling used in manifests, metrics labels, and bundle
    /// directory names.
    pub fn as_str(self) -> &'static str {
        match self {
            BundleReason::ProtocolError => "protocol-error",
            BundleReason::SlowReplan => "slow-replan",
            BundleReason::Panic => "panic",
            BundleReason::DebugDump => "debug-dump",
        }
    }
}

/// Everything a bundle freezes. The daemon assembles this; [`write_bundle`]
/// only does filesystem work.
pub struct BundleContents {
    /// The tenant the incident belongs to.
    pub tenant: String,
    /// What triggered the dump.
    pub reason: BundleReason,
    /// The op of the request being handled when the trigger fired.
    pub op: String,
    /// The failed response's `(kind, message)`, if the trigger was an error.
    pub error: Option<(String, String)>,
    /// The replan summary that tripped the slow threshold, as JSON.
    pub replan: Option<Json>,
    /// The tenant's `query-plan` document at dump time — the replay target.
    pub plan: Json,
    /// The tenant's checkpoint in the daemon envelope (pretty-rendered).
    pub checkpoint: String,
    /// `{tenant: <ring dump | null>, daemon: <ring dump>}`.
    pub flight: Json,
    /// Full Prometheus exposition of the hub.
    pub metrics: String,
    /// Chrome trace of the offending replan (slow-replan capture).
    pub trace: Option<Json>,
}

impl BundleContents {
    fn manifest(&self) -> Json {
        let mut doc = Json::object();
        doc.push("format", Json::from(BUNDLE_FORMAT));
        doc.push("version", Json::UInt(BUNDLE_VERSION));
        doc.push("tenant", Json::from(self.tenant.as_str()));
        doc.push("reason", Json::from(self.reason.as_str()));
        doc.push("op", Json::from(self.op.as_str()));
        match &self.error {
            Some((kind, message)) => {
                let mut err = Json::object();
                err.push("kind", Json::from(kind.as_str()));
                err.push("message", Json::from(message.as_str()));
                doc.push("error", err);
            }
            None => {
                doc.push("error", Json::Null);
            }
        }
        doc.push("replan", self.replan.clone().unwrap_or(Json::Null));
        doc.push("plan", self.plan.clone());
        doc
    }
}

/// Writes `contents` as the bundle directory `dir/<name>`, atomically:
/// everything is staged under `dir/.<name>.tmp` and renamed into place.
/// Returns the final bundle path. Fails with [`io::ErrorKind::AlreadyExists`]
/// semantics (from the rename) if the bundle already exists.
pub fn write_bundle(dir: &Path, name: &str, contents: &BundleContents) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let staged = dir.join(format!(".{name}.tmp"));
    let target = dir.join(name);
    if target.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("bundle {} already exists", target.display()),
        ));
    }
    // A stale temp directory from a killed dump is garbage: reclaim it.
    let _ = std::fs::remove_dir_all(&staged);
    std::fs::create_dir_all(&staged)?;
    std::fs::write(
        staged.join("manifest.json"),
        contents.manifest().render_pretty(),
    )?;
    std::fs::write(
        staged.join(format!("{}.checkpoint.json", contents.tenant)),
        &contents.checkpoint,
    )?;
    std::fs::write(staged.join("flight.json"), contents.flight.render_pretty())?;
    std::fs::write(staged.join("metrics.prom"), &contents.metrics)?;
    if let Some(trace) = &contents.trace {
        std::fs::write(staged.join("replan.trace.json"), trace.render_pretty())?;
    }
    std::fs::rename(&staged, &target)?;
    Ok(target)
}

/// Completed bundles under `dir`, sorted: subdirectories holding a
/// `manifest.json`, skipping dot-prefixed names (staging directories are
/// never visible here — that is the atomicity contract).
pub fn find_bundles(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut bundles: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| {
            path.is_dir()
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| !n.starts_with('.'))
                && path.join("manifest.json").is_file()
        })
        .collect();
    bundles.sort();
    Ok(bundles)
}

/// Reads and validates a bundle's manifest.
pub fn read_manifest(bundle: &Path) -> Result<Json, String> {
    let path = bundle.join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("format") {
        Some(Json::Str(format)) if format == BUNDLE_FORMAT => {}
        other => return Err(format!("not a {BUNDLE_FORMAT} manifest: {other:?}")),
    }
    match doc.get("version") {
        Some(Json::UInt(v)) if *v == BUNDLE_VERSION => {}
        other => {
            return Err(format!(
                "unsupported bundle version {other:?} (this build reads {BUNDLE_VERSION})"
            ))
        }
    }
    if !matches!(doc.get("tenant"), Some(Json::Str(_))) {
        return Err("manifest without a string `tenant`".into());
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpss-pm-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn contents() -> BundleContents {
        BundleContents {
            tenant: "t0".into(),
            reason: BundleReason::DebugDump,
            op: "debug-dump".into(),
            error: None,
            replan: None,
            plan: Json::object(),
            checkpoint: "{}\n".into(),
            flight: Json::object(),
            metrics: String::new(),
            trace: None,
        }
    }

    #[test]
    fn bundles_round_trip_and_list() {
        let dir = tmp("roundtrip");
        let path = write_bundle(&dir, "t0-debug-dump-0000", &contents()).unwrap();
        assert!(path.join("manifest.json").is_file());
        assert!(path.join("t0.checkpoint.json").is_file());
        assert!(path.join("flight.json").is_file());
        assert!(path.join("metrics.prom").is_file());
        let manifest = read_manifest(&path).unwrap();
        assert_eq!(manifest.get("tenant"), Some(&Json::from("t0")));
        assert_eq!(manifest.get("reason"), Some(&Json::from("debug-dump")));
        assert_eq!(find_bundles(&dir).unwrap(), vec![path.clone()]);
        // Writing the same bundle name again fails loudly.
        assert!(write_bundle(&dir, "t0-debug-dump-0000", &contents()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staging_directories_are_invisible() {
        let dir = tmp("staging");
        // Simulate a dump killed mid-write: the staged directory exists,
        // with a manifest inside, but was never renamed.
        let staged = dir.join(".t0-panic-0000.tmp");
        std::fs::create_dir_all(&staged).unwrap();
        std::fs::write(staged.join("manifest.json"), "{}").unwrap();
        assert!(find_bundles(&dir).unwrap().is_empty());
        // A later successful dump reclaims the stale staging dir.
        let path = write_bundle(&dir, "t0-panic-0000", &contents()).unwrap();
        assert_eq!(find_bundles(&dir).unwrap(), vec![path]);
        assert!(!staged.exists(), "stale staging dir must be reclaimed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_manifest_rejects_foreign_documents() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), r#"{"format":"other"}"#).unwrap();
        assert!(read_manifest(&dir).is_err());
        // Version 1 bundles carried a log tail this build no longer reads.
        for version in [1, 99] {
            std::fs::write(
                dir.join("manifest.json"),
                format!(r#"{{"format":"{BUNDLE_FORMAT}","version":{version},"tenant":"t"}}"#),
            )
            .unwrap();
            let err = read_manifest(&dir).unwrap_err();
            assert!(
                err.starts_with(&format!("unsupported bundle version Some(UInt({version}))")),
                "{err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
