//! The streaming [`TraceSink`]: bounded-ring buffering flushed to
//! rotating newline-delimited shard files.
//!
//! Where the [`crate::Recorder`] buffers an entire run in memory (a dead
//! end for a long-running control plane), [`StreamSink`] renders every
//! span and gauge row to its canonical JSON line immediately and retires
//! it to disk in bounded batches. Two lanes share one shard directory:
//!
//! ```text
//! <dir>/trace-00000.jsonl     trace_event spans/instants, shard 0
//! <dir>/trace-00001.jsonl     … rotated by event count or sim-age
//! <dir>/metrics-00000.jsonl   gauge rows, rotated by row count
//! <dir>/stream.done           finalize marker + run stats JSON
//! ```
//!
//! Lines are rendered straight into the lane buffer by the exact same
//! renderers the batch exporters use ([`crate::trace_jsonl`],
//! [`crate::MetricsLog::to_jsonl`]), so for a run
//! with retention off, concatenating a lane's shards in index order is
//! **byte-equivalent** to the `Recorder`'s batch export of the same run
//! (`trace_jsonl` / `metrics_jsonl`) — pinned across the whole spec
//! registry by `tests/obs_stream.rs`. Each shard is Perfetto
//! streamed-JSON compatible: every line is one complete `trace_event`
//! object, so `{"traceEvents":[` + comma-joined lines + `]}` loads
//! directly.
//!
//! Rotation and retention come from [`StreamConfig`]: a shard closes
//! after `shard_max_events` lines (checked *before* appending, so a run
//! of exactly `k` events fills one shard and never opens an empty
//! successor) or — trace lane only, where lines carry simulation
//! timestamps — once the shard spans `rotate_us` of simulation time.
//! `retain_shards` keeps only the newest N shards per lane, deleting
//! oldest-first as new shards open (0 retains everything).
//!
//! No span loss on normal exit: [`StreamSink::finish`] flushes both
//! lanes and writes the `stream.done` marker; if the sink is dropped
//! without `finish` (a panic unwinding, an early return), `Drop` still
//! flushes buffered lines best-effort — only the marker is skipped.

use crate::metrics::Row;
use crate::trace::{TraceEvent, TraceSink};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Buffered lines per lane before a flush retires them to the current
/// shard file — the "bounded ring" that keeps memory O(1) in run length.
const FLUSH_EVERY_LINES: usize = 256;

/// Shard rotation and retention policy of a [`StreamSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Lines per shard before rotation (0 = never rotate by count).
    pub shard_max_events: usize,
    /// Trace-lane sim-age per shard, µs (0 = never rotate by age). The
    /// metrics lane rotates by count only — gauge rows are not required
    /// to carry a timestamp.
    pub rotate_us: u64,
    /// Newest shards kept per lane; older shards are deleted as new ones
    /// open (0 = retain everything). Retention trades the byte-equivalence
    /// guarantee for bounded disk in never-ending runs.
    pub retain_shards: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            shard_max_events: 4096,
            rotate_us: 0,
            retain_shards: 0,
        }
    }
}

/// What one finished stream wrote — deterministic counts only (no host
/// clocks), so tests can assert on it byte-for-byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Trace events written (spans + instants).
    pub trace_events: u64,
    /// Gauge rows written.
    pub gauge_rows: u64,
    /// Trace-lane shards on disk after retention.
    pub trace_shards: usize,
    /// Metrics-lane shards on disk after retention.
    pub metrics_shards: usize,
    /// Shards deleted by the retention policy (both lanes).
    pub dropped_shards: usize,
}

impl StreamStats {
    /// Render as a small deterministic JSON object (the `stream.done`
    /// marker body).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"parva-obs/stream/v1\",\"trace_events\":{},\"gauge_rows\":{},\
             \"trace_shards\":{},\"metrics_shards\":{},\"dropped_shards\":{}}}",
            self.trace_events,
            self.gauge_rows,
            self.trace_shards,
            self.metrics_shards,
            self.dropped_shards
        )
    }
}

/// One output lane (trace or metrics): a line buffer plus the current
/// shard's state.
#[derive(Debug)]
struct Lane {
    prefix: &'static str,
    buf: String,
    buf_lines: usize,
    shard_index: usize,
    shard_created: bool,
    lines_in_shard: usize,
    first_ts_us: Option<u64>,
    total_lines: u64,
    /// Shard indices currently on disk, oldest first.
    on_disk: Vec<usize>,
    dropped: usize,
}

impl Lane {
    fn new(prefix: &'static str) -> Self {
        Lane {
            prefix,
            buf: String::new(),
            buf_lines: 0,
            shard_index: 0,
            shard_created: false,
            lines_in_shard: 0,
            first_ts_us: None,
            total_lines: 0,
            on_disk: Vec::new(),
            dropped: 0,
        }
    }

    fn shard_path(&self, dir: &Path, index: usize) -> PathBuf {
        dir.join(format!("{}-{:05}.jsonl", self.prefix, index))
    }

    /// Would appending a line stamped `ts_us` overflow the current shard?
    fn should_rotate(&self, cfg: &StreamConfig, ts_us: u64) -> bool {
        if self.lines_in_shard == 0 {
            return false;
        }
        if cfg.shard_max_events > 0 && self.lines_in_shard >= cfg.shard_max_events {
            return true;
        }
        if cfg.rotate_us > 0 {
            if let Some(first) = self.first_ts_us {
                if ts_us.saturating_sub(first) >= cfg.rotate_us {
                    return true;
                }
            }
        }
        false
    }

    /// Retire buffered lines to the current shard file, creating it (and
    /// applying retention) on first write.
    fn flush(&mut self, dir: &Path, cfg: &StreamConfig) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let path = self.shard_path(dir, self.shard_index);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        file.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        self.buf_lines = 0;
        if !self.shard_created {
            self.shard_created = true;
            self.on_disk.push(self.shard_index);
            if cfg.retain_shards > 0 {
                while self.on_disk.len() > cfg.retain_shards {
                    let oldest = self.on_disk.remove(0);
                    std::fs::remove_file(self.shard_path(dir, oldest))?;
                    self.dropped += 1;
                }
            }
        }
        Ok(())
    }

    /// Append one line, rendered by `render` straight into the buffer,
    /// rotating/flushing per policy first.
    fn push_line(
        &mut self,
        dir: &Path,
        cfg: &StreamConfig,
        ts_us: u64,
        render: impl FnOnce(&mut String),
    ) -> std::io::Result<()> {
        if self.should_rotate(cfg, ts_us) {
            self.flush(dir, cfg)?;
            self.shard_index += 1;
            self.shard_created = false;
            self.lines_in_shard = 0;
            self.first_ts_us = None;
        }
        if self.first_ts_us.is_none() {
            self.first_ts_us = Some(ts_us);
        }
        render(&mut self.buf);
        self.buf.push('\n');
        self.buf_lines += 1;
        self.lines_in_shard += 1;
        self.total_lines += 1;
        if self.buf_lines >= FLUSH_EVERY_LINES {
            self.flush(dir, cfg)?;
        }
        Ok(())
    }
}

/// A [`TraceSink`] that streams to rotating shard files (see the module
/// docs for the layout and guarantees).
///
/// The sampler contract matches [`crate::Recorder`]: a cadence armed at
/// construction, one boundary at a time, `advance_sampler` moving it —
/// so swapping a `Recorder` for a `StreamSink` observes the exact same
/// simulation decisions.
#[derive(Debug)]
pub struct StreamSink {
    dir: PathBuf,
    config: StreamConfig,
    trace: Lane,
    metrics: Lane,
    sample_every_us: u64,
    next_sample_us: u64,
    run_id: Option<String>,
    finished: bool,
    /// First I/O error hit on the emit path (the [`TraceSink`] trait is
    /// infallible); surfaced by [`StreamSink::finish`].
    deferred_error: Option<String>,
}

impl StreamSink {
    /// Open a streaming sink writing into `dir` (created if missing),
    /// sampling gauges every `sample_every_us` simulation microseconds
    /// (0 = no sampling).
    ///
    /// Shard files are created lazily on first flush, so an empty run
    /// finalizes without leaving lane files behind.
    ///
    /// # Errors
    /// Directory creation failures.
    pub fn create(
        dir: impl Into<PathBuf>,
        sample_every_us: u64,
        config: StreamConfig,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(StreamSink {
            dir,
            config,
            trace: Lane::new("trace"),
            metrics: Lane::new("metrics"),
            sample_every_us,
            next_sample_us: if sample_every_us == 0 {
                u64::MAX
            } else {
                sample_every_us
            },
            run_id: None,
            finished: false,
            deferred_error: None,
        })
    }

    /// Stamp every gauge row with a leading `run` column, exactly like
    /// [`crate::Recorder::with_run_id`] — the byte-equivalence guarantee
    /// requires both sinks of a comparison to carry the same stamp.
    #[must_use]
    pub fn with_run_id(mut self, run_id: impl Into<String>) -> Self {
        self.run_id = Some(run_id.into());
        self
    }

    /// The shard directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn record_io(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            if self.deferred_error.is_none() {
                self.deferred_error = Some(e.to_string());
            }
        }
    }

    fn flush_all(&mut self) -> std::io::Result<()> {
        self.trace.flush(&self.dir, &self.config)?;
        self.metrics.flush(&self.dir, &self.config)?;
        Ok(())
    }

    /// Flush both lanes, write the `stream.done` marker, and return the
    /// run's stats. Idempotent; after `finish` the sink drops silently.
    ///
    /// # Errors
    /// The first I/O failure of the whole stream — including errors hit
    /// (and deferred) on the infallible emit path.
    pub fn finish(&mut self) -> Result<StreamStats, String> {
        let flush = self.flush_all();
        self.record_io(flush);
        self.finished = true;
        if let Some(e) = &self.deferred_error {
            return Err(format!("stream sink I/O failure: {e}"));
        }
        let stats = StreamStats {
            trace_events: self.trace.total_lines,
            gauge_rows: self.metrics.total_lines,
            trace_shards: self.trace.on_disk.len(),
            metrics_shards: self.metrics.on_disk.len(),
            dropped_shards: self.trace.dropped + self.metrics.dropped,
        };
        std::fs::write(self.dir.join("stream.done"), stats.to_json())
            .map_err(|e| format!("cannot write stream.done: {e}"))?;
        Ok(stats)
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort: buffered lines must not vanish on unwind.
            let _ = self.flush_all();
        }
    }
}

impl TraceSink for StreamSink {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: TraceEvent) {
        let res = self
            .trace
            .push_line(&self.dir, &self.config, ev.ts_us, |buf| {
                crate::chrome::write_event(buf, &ev);
            });
        self.record_io(res);
    }

    #[inline]
    fn next_sample_us(&self) -> u64 {
        self.next_sample_us
    }

    fn sample(&mut self, row: Row) {
        let row = match &self.run_id {
            Some(id) => row.with_run(id),
            None => row,
        };
        let res = self
            .metrics
            .push_line(&self.dir, &self.config, 0, |buf| row.write_json(buf));
        self.record_io(res);
    }

    fn advance_sampler(&mut self) {
        if self.sample_every_us > 0 {
            self.next_sample_us = self.next_sample_us.saturating_add(self.sample_every_us);
        }
    }
}

/// Sorted shard file names of one lane (`"trace"` or `"metrics"`) in a
/// shard directory. Zero-padded indices make the lexicographic order the
/// numeric one.
///
/// # Errors
/// Directory read failures.
pub fn shard_files(dir: &Path, lane: &str) -> std::io::Result<Vec<PathBuf>> {
    let prefix = format!("{lane}-");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".jsonl"))
                .is_some_and(|stem| stem.starts_with(&prefix))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Concatenate a lane's shards in index order — for a retention-free run
/// this reproduces the batch export byte-for-byte.
///
/// # Errors
/// Directory or shard read failures.
pub fn read_concat_shards(dir: &Path, lane: &str) -> std::io::Result<String> {
    let mut out = String::new();
    for path in shard_files(dir, lane)? {
        out.push_str(&std::fs::read_to_string(path)?);
    }
    Ok(out)
}

/// Follows a live shard directory, yielding complete new lines of one
/// lane as they land — the engine behind `parvactl trace tail`.
///
/// The follower tracks (current shard, byte offset); [`TailFollower::poll`]
/// drains everything new since the last poll, advancing across shard
/// rotations. Shards deleted by retention before they were read are
/// skipped (a live tail of a bounded stream cannot be lossless).
#[derive(Debug)]
pub struct TailFollower {
    dir: PathBuf,
    lane: String,
    current: Option<PathBuf>,
    offset: u64,
}

impl TailFollower {
    /// Follow `lane` (`"trace"` or `"metrics"`) in `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, lane: impl Into<String>) -> Self {
        TailFollower {
            dir: dir.into(),
            lane: lane.into(),
            current: None,
            offset: 0,
        }
    }

    /// Has the producer finalized the stream (written `stream.done`)?
    /// Combine with one final [`TailFollower::poll`] to drain the tail.
    #[must_use]
    pub fn done(&self) -> bool {
        self.dir.join("stream.done").is_file()
    }

    /// Complete lines of one file from `offset`; returns the consumed
    /// byte count (partial trailing lines stay unconsumed).
    fn read_new(path: &Path, offset: u64) -> std::io::Result<(Vec<String>, u64)> {
        let bytes = std::fs::read(path)?;
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(bytes.len());
        let tail = &bytes[start..];
        // Only consume up to the last full line.
        let Some(last_nl) = tail.iter().rposition(|&b| b == b'\n') else {
            return Ok((Vec::new(), 0));
        };
        let complete = &tail[..=last_nl];
        let text = String::from_utf8_lossy(complete);
        let lines = text.lines().map(str::to_string).collect();
        Ok((lines, complete.len() as u64))
    }

    /// Drain every complete new line since the last poll, in order,
    /// advancing across shard rotations.
    ///
    /// # Errors
    /// Directory or shard read failures (a shard deleted mid-poll is
    /// skipped, not an error).
    pub fn poll(&mut self) -> std::io::Result<Vec<String>> {
        let files = shard_files(&self.dir, &self.lane)?;
        let mut out = Vec::new();
        for path in files {
            match &self.current {
                // Retention may have deleted shards we already read;
                // never re-read older names.
                Some(cur) if path < *cur => continue,
                Some(cur) if path == *cur => {}
                _ => {
                    self.current = Some(path.clone());
                    self.offset = 0;
                }
            }
            match Self::read_new(&path, self.offset) {
                Ok((lines, consumed)) => {
                    self.offset += consumed;
                    out.extend(lines);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceEvent};

    /// A scratch directory owned by one test and removed when dropped; the
    /// name carries the process id and a counter, so concurrent test
    /// processes never share one.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(label: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "parva-obs-stream-{label}-{}-{n}",
                std::process::id()
            ));
            // Left over by an earlier process that had the same pid and died.
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::instant("tick", "test", i * 10).arg_u64("i", i)
    }

    #[test]
    fn rotation_exactly_at_shard_boundary() {
        let tmp = TempDir::new("boundary");
        let dir = tmp.path();
        let cfg = StreamConfig {
            shard_max_events: 4,
            ..StreamConfig::default()
        };
        let mut sink = StreamSink::create(dir, 0, cfg).unwrap();
        for i in 0..8 {
            sink.emit(ev(i));
        }
        let stats = sink.finish().unwrap();
        // Exactly two full shards — no empty third shard after the 8th
        // event lands on the boundary.
        assert_eq!(stats.trace_shards, 2);
        let files = shard_files(dir, "trace").unwrap();
        assert_eq!(files.len(), 2);
        for f in &files {
            assert_eq!(std::fs::read_to_string(f).unwrap().lines().count(), 4);
        }
        // One more event opens shard 2.
        let tmp2 = TempDir::new("boundary2");
        let dir2 = tmp2.path();
        let mut sink = StreamSink::create(dir2, 0, cfg).unwrap();
        for i in 0..9 {
            sink.emit(ev(i));
        }
        assert_eq!(sink.finish().unwrap().trace_shards, 3);
    }

    #[test]
    fn age_rotation_splits_by_sim_time() {
        let tmp = TempDir::new("age");
        let dir = tmp.path();
        let cfg = StreamConfig {
            shard_max_events: 0,
            rotate_us: 100,
            retain_shards: 0,
        };
        let mut sink = StreamSink::create(dir, 0, cfg).unwrap();
        // ts 0, 10, …, 90 in shard 0; ts 100 rotates; ts 200 rotates again.
        for i in 0..=20 {
            sink.emit(ev(i));
        }
        let stats = sink.finish().unwrap();
        assert_eq!(stats.trace_shards, 3);
        assert_eq!(stats.trace_events, 21);
    }

    #[test]
    fn retention_deletes_oldest_first() {
        let tmp = TempDir::new("retention");
        let dir = tmp.path();
        let cfg = StreamConfig {
            shard_max_events: 2,
            rotate_us: 0,
            retain_shards: 2,
        };
        let mut sink = StreamSink::create(dir, 0, cfg).unwrap();
        for i in 0..8 {
            sink.emit(ev(i));
        }
        let stats = sink.finish().unwrap();
        assert_eq!(stats.trace_events, 8);
        assert_eq!(stats.trace_shards, 2);
        assert_eq!(stats.dropped_shards, 2);
        let files = shard_files(dir, "trace").unwrap();
        let names: Vec<String> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        // The two *newest* shards survive.
        assert_eq!(names, vec!["trace-00002.jsonl", "trace-00003.jsonl"]);
    }

    #[test]
    fn empty_run_finalizes_without_lane_files() {
        let tmp = TempDir::new("empty");
        let dir = tmp.path();
        let mut sink = StreamSink::create(dir, 1000, StreamConfig::default()).unwrap();
        let stats = sink.finish().unwrap();
        assert_eq!(stats, StreamStats::default());
        assert!(shard_files(dir, "trace").unwrap().is_empty());
        assert!(shard_files(dir, "metrics").unwrap().is_empty());
        assert!(dir.join("stream.done").is_file());
    }

    #[test]
    fn drop_without_finish_loses_no_lines() {
        let tmp = TempDir::new("drop");
        let dir = tmp.path();
        {
            let mut sink = StreamSink::create(dir, 0, StreamConfig::default()).unwrap();
            for i in 0..5 {
                sink.emit(ev(i));
            }
            // No finish(): Drop must flush the buffered lines.
        }
        let text = read_concat_shards(dir, "trace").unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(!dir.join("stream.done").is_file(), "Drop writes no marker");
    }

    #[test]
    fn concat_matches_recorder_batch_export() {
        let tmp = TempDir::new("equiv");
        let dir = tmp.path();
        let cfg = StreamConfig {
            shard_max_events: 3,
            ..StreamConfig::default()
        };
        let mut stream = StreamSink::create(dir, 1000, cfg)
            .unwrap()
            .with_run_id("unit@1");
        let mut rec = Recorder::new(1000).with_run_id("unit@1");
        for i in 0..10 {
            let e = ev(i).arg_str("svc", "bert").arg_f64("x", 0.25);
            stream.emit(e.clone());
            rec.emit(e);
            let row = Row::new().str("kind", "tick").u64("i", i);
            stream.sample(row.clone());
            rec.sample(row);
            stream.advance_sampler();
            rec.advance_sampler();
        }
        stream.finish().unwrap();
        assert_eq!(read_concat_shards(dir, "trace").unwrap(), rec.trace_jsonl());
        assert_eq!(
            read_concat_shards(dir, "metrics").unwrap(),
            rec.metrics_jsonl()
        );
    }

    #[test]
    fn tail_follows_across_rotations() {
        let tmp = TempDir::new("tail");
        let dir = tmp.path();
        let cfg = StreamConfig {
            shard_max_events: 2,
            ..StreamConfig::default()
        };
        let mut sink = StreamSink::create(dir, 1000, cfg).unwrap();
        let mut tail = TailFollower::new(dir, "metrics");
        assert!(tail.poll().unwrap().is_empty());
        assert!(!tail.done());
        for i in 0..5 {
            sink.sample(Row::new().u64("i", i));
            sink.advance_sampler();
        }
        sink.finish().unwrap();
        let lines = tail.poll().unwrap();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "{\"i\":0}");
        assert_eq!(lines[4], "{\"i\":4}");
        assert!(tail.done());
        // Nothing new on a second poll.
        assert!(tail.poll().unwrap().is_empty());
    }

    #[test]
    fn sampler_contract_matches_recorder() {
        let tmp = TempDir::new("sampler");
        let sink = StreamSink::create(tmp.path(), 500, StreamConfig::default()).unwrap();
        assert_eq!(sink.next_sample_us(), 500);
        let mut sink = sink;
        sink.advance_sampler();
        assert_eq!(sink.next_sample_us(), 1000);
        let tmp = TempDir::new("parked");
        let parked = StreamSink::create(tmp.path(), 0, StreamConfig::default()).unwrap();
        assert_eq!(parked.next_sample_us(), u64::MAX);
    }
}
