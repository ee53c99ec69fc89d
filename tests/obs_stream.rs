//! Streaming export equivalence, end to end: every registered built-in
//! spec runs once through the batch [`Recorder`] and once through the
//! shard-rotating [`StreamSink`] (`ScenarioSpec::run_streamed`), and
//!
//! 1. both paths produce the identical report (the sink never steers),
//! 2. the concatenated trace shards are byte-identical to the batch
//!    JSONL export, and likewise for the metrics lane — the streamed
//!    artifact is the batch artifact, just retired incrementally,
//! 3. the stream finalizes cleanly (`stream.done`, stats consistent
//!    with what landed on disk).

mod common;

use common::TempDir;
use parvagpu::obs::read_concat_shards;
use parvagpu::scenarios::builtin_specs;

fn shard_dir(name: &str) -> TempDir {
    TempDir::new(&format!("obs-stream-{name}"))
}

/// Concatenated shards are byte-equivalent to the batch export and the
/// reports agree, for every registered spec.
#[test]
fn streamed_shards_match_batch_export_for_every_spec() {
    for spec in builtin_specs() {
        let spec = spec.quick();
        let (batch_report, rec) = spec
            .run_observed()
            .unwrap_or_else(|e| panic!("{} observed run failed: {e}", spec.name));
        let dir = shard_dir(&spec.name);
        let (stream_report, stats) = spec
            .run_streamed(dir.path())
            .unwrap_or_else(|e| panic!("{} streamed run failed: {e}", spec.name));

        // Identical reports (compare serialized — reports don't all
        // implement PartialEq).
        let a = serde_json::to_string(&batch_report).unwrap();
        let b = serde_json::to_string(&stream_report).unwrap();
        assert_eq!(a, b, "report drift between sinks in '{}'", spec.name);

        // Byte equivalence, lane by lane.
        let trace = read_concat_shards(dir.path(), "trace").unwrap();
        assert_eq!(
            trace,
            rec.trace_jsonl(),
            "trace lane drift in '{}'",
            spec.name
        );
        let metrics = read_concat_shards(dir.path(), "metrics").unwrap();
        assert_eq!(
            metrics,
            rec.metrics_jsonl(),
            "metrics lane drift in '{}'",
            spec.name
        );

        // Stats agree with what's on disk; the stream is finalized.
        assert_eq!(
            stats.trace_events,
            trace.lines().count() as u64,
            "{}",
            spec.name
        );
        assert_eq!(
            stats.gauge_rows,
            metrics.lines().count() as u64,
            "{}",
            spec.name
        );
        assert_eq!(stats.dropped_shards, 0, "{}", spec.name);
        assert!(dir.path().join("stream.done").is_file(), "{}", spec.name);
    }
}

/// A tight rotation policy (tiny shards) changes the file layout but not
/// one byte of the concatenated stream.
#[test]
fn rotation_policy_never_changes_the_bytes() {
    let spec = parvagpu::scenarios::spec_by_name("quickstart").unwrap();
    let mut spec = spec.quick();
    let dir_default = shard_dir("quickstart-default-shards");
    let (_, stats_default) = spec.run_streamed(dir_default.path()).unwrap();
    let baseline = read_concat_shards(dir_default.path(), "trace").unwrap();

    spec.observability.streaming.shard_max_events = 64;
    let dir_tiny = shard_dir("quickstart-tiny-shards");
    let (_, stats_tiny) = spec.run_streamed(dir_tiny.path()).unwrap();
    let rotated = read_concat_shards(dir_tiny.path(), "trace").unwrap();

    assert_eq!(baseline, rotated, "rotation must be layout-only");
    assert!(
        stats_tiny.trace_shards > stats_default.trace_shards,
        "64-event shards must rotate more often ({} vs {})",
        stats_tiny.trace_shards,
        stats_default.trace_shards
    );
}

/// Retention keeps only the newest shards — the tail of the full stream
/// — and reports what it dropped.
#[test]
fn retention_keeps_the_newest_tail() {
    let spec = parvagpu::scenarios::spec_by_name("quickstart").unwrap();
    let mut spec = spec.quick();
    spec.observability.streaming.shard_max_events = 64;
    let dir_full = shard_dir("quickstart-retain-full");
    spec.run_streamed(dir_full.path()).unwrap();
    let full = read_concat_shards(dir_full.path(), "trace").unwrap();

    spec.observability.streaming.retain_shards = 2;
    let dir_kept = shard_dir("quickstart-retain-2");
    let (_, stats) = spec.run_streamed(dir_kept.path()).unwrap();
    let kept = read_concat_shards(dir_kept.path(), "trace").unwrap();

    assert!(stats.dropped_shards > 0, "tiny shards must trip retention");
    assert!(
        stats.trace_shards <= 3,
        "{} shards kept",
        stats.trace_shards
    );
    assert!(
        full.ends_with(&kept),
        "retained shards must be a suffix of the full stream"
    );
    assert!(kept.lines().count() < full.lines().count());
}
