//! Zero-dependency structured logging: one JSON object per line, written
//! to stderr, a file, or any sink.
//!
//! The logger is built for the server's hot path: each event is formatted
//! completely *outside* the sink mutex, then written with a single
//! `write_all`, so the critical section is one syscall long and lines
//! from concurrent workers never interleave. A disabled logger
//! short-circuits on an `Option` check before any formatting happens —
//! the same single-branch contract the rest of `kdap-obs` keeps.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::profile::json_string_into;

thread_local! {
    /// Per-thread line buffer, reused across events so a steady-state
    /// logger allocates nothing per call.
    static LINE_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Severity of a log event, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Engine-internal detail.
    Debug,
    /// Normal operational events (access records).
    Info,
    /// Degraded but handled conditions (governor breaches, 4xx).
    Warn,
    /// Failures (5xx, I/O errors).
    Error,
}

impl LogLevel {
    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// One field value in a log event.
#[derive(Debug, Clone)]
pub enum LogValue {
    /// A string, JSON-escaped on render.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl LogValue {
    fn render_into(&self, out: &mut String) {
        match self {
            LogValue::Str(s) => json_string_into(out, s),
            LogValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            LogValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            LogValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            LogValue::F64(_) => out.push_str("null"),
            LogValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
}

impl From<&str> for LogValue {
    fn from(v: &str) -> Self {
        LogValue::Str(v.to_string())
    }
}

impl From<String> for LogValue {
    fn from(v: String) -> Self {
        LogValue::Str(v)
    }
}

impl From<u64> for LogValue {
    fn from(v: u64) -> Self {
        LogValue::U64(v)
    }
}

impl From<u16> for LogValue {
    fn from(v: u16) -> Self {
        LogValue::U64(u64::from(v))
    }
}

impl From<usize> for LogValue {
    fn from(v: usize) -> Self {
        LogValue::U64(v as u64)
    }
}

impl From<i64> for LogValue {
    fn from(v: i64) -> Self {
        LogValue::I64(v)
    }
}

impl From<f64> for LogValue {
    fn from(v: f64) -> Self {
        LogValue::F64(v)
    }
}

impl From<bool> for LogValue {
    fn from(v: bool) -> Self {
        LogValue::Bool(v)
    }
}

/// Events below this level are dropped.
const MIN_LEVEL: LogLevel = LogLevel::Info;

/// A JSONL event logger. Disabled loggers cost one branch per call;
/// enabled loggers serialize outside the sink lock and write each event
/// as exactly one line.
pub struct JsonLogger {
    sink: Option<Mutex<Box<dyn Write + Send>>>,
    dropped: AtomicU64,
}

impl fmt::Debug for JsonLogger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLogger")
            .field("enabled", &self.sink.is_some())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl JsonLogger {
    /// A logger that discards everything after a single branch.
    pub fn disabled() -> Self {
        JsonLogger {
            sink: None,
            dropped: AtomicU64::new(0),
        }
    }

    /// Logs to standard error.
    pub fn to_stderr() -> Self {
        JsonLogger::to_writer(Box::new(io::stderr()))
    }

    /// Logs to the file at `path` (created or appended to).
    pub fn to_file(path: &str) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonLogger::to_writer(Box::new(file)))
    }

    /// Logs to an arbitrary sink — how tests capture output and how the
    /// overhead bench measures the formatting path without I/O.
    pub fn to_writer(sink: Box<dyn Write + Send>) -> Self {
        JsonLogger {
            sink: Some(Mutex::new(sink)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Builds a logger from a `--log` flag value: `None` disables,
    /// `"stderr"` targets standard error, anything else is a file path.
    pub fn from_spec(spec: Option<&str>) -> io::Result<Self> {
        match spec {
            None => Ok(JsonLogger::disabled()),
            Some("stderr") => Ok(JsonLogger::to_stderr()),
            Some(path) => JsonLogger::to_file(path),
        }
    }

    /// True when events are being written anywhere.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Events lost to sink write errors since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes one event as a single JSONL line:
    /// `{"ts_ms": …, "level": …, "event": …, <fields>}`. Field keys are
    /// JSON-escaped; insertion order is preserved. No-op when disabled
    /// or below the minimum level.
    pub fn log(&self, level: LogLevel, event: &str, fields: &[(&str, LogValue)]) {
        let Some(sink) = &self.sink else {
            return;
        };
        if level < MIN_LEVEL {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        // Format into a reused per-thread buffer: a steady-state logger
        // allocates nothing per event, and the sink lock still spans
        // exactly one write_all.
        LINE_BUF.with(|buf| {
            let mut line = buf.borrow_mut();
            line.clear();
            let _ = write!(
                line,
                "{{\"ts_ms\": {ts_ms}, \"level\": \"{}\", \"event\": ",
                level.as_str()
            );
            json_string_into(&mut line, event);
            for (k, v) in fields {
                line.push_str(", ");
                json_string_into(&mut line, k);
                line.push_str(": ");
                v.render_into(&mut line);
            }
            line.push_str("}\n");
            let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
            if guard.write_all(line.as_bytes()).is_err() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// [`JsonLogger::log`] at `Info`.
    pub fn info(&self, event: &str, fields: &[(&str, LogValue)]) {
        self.log(LogLevel::Info, event, fields);
    }

    /// [`JsonLogger::log`] at `Warn`.
    pub fn warn(&self, event: &str, fields: &[(&str, LogValue)]) {
        self.log(LogLevel::Warn, event, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sink that appends into a shared buffer.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Buf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn events_render_as_one_json_line_each() {
        let buf = Buf::default();
        let log = JsonLogger::to_writer(Box::new(buf.clone()));
        log.info(
            "access",
            &[
                ("tenant", "ebiz".into()),
                ("status", 200u16.into()),
                ("latency_ns", 12_345u64.into()),
                ("breach", false.into()),
            ],
        );
        log.warn("governor", &[("kind", "timeout".into())]);
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\": \"access\""), "{text}");
        assert!(lines[0].contains("\"tenant\": \"ebiz\""), "{text}");
        assert!(lines[0].contains("\"status\": 200"), "{text}");
        assert!(lines[0].contains("\"breach\": false"), "{text}");
        assert!(lines[0].contains("\"ts_ms\": "), "{text}");
        assert!(lines[1].contains("\"level\": \"warn\""), "{text}");
        for line in &lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn strings_are_escaped() {
        let buf = Buf::default();
        let log = JsonLogger::to_writer(Box::new(buf.clone()));
        log.info("q", &[("kw", "say \"hi\"\nthere".into())]);
        assert!(buf.text().contains("\"kw\": \"say \\\"hi\\\"\\nthere\""));
    }

    #[test]
    fn events_below_the_level_floor_are_dropped() {
        let buf = Buf::default();
        let log = JsonLogger::to_writer(Box::new(buf.clone()));
        log.log(LogLevel::Debug, "quiet", &[]);
        log.info("loud", &[]);
        let text = buf.text();
        assert!(!text.contains("quiet"));
        assert!(text.contains("loud"));
    }

    #[test]
    fn disabled_logger_writes_nothing() {
        let log = JsonLogger::disabled();
        assert!(!log.is_enabled());
        log.info("access", &[("tenant", "ebiz".into())]);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn from_spec_maps_flag_values() {
        assert!(!JsonLogger::from_spec(None).unwrap().is_enabled());
        assert!(JsonLogger::from_spec(Some("stderr")).unwrap().is_enabled());
        let dir = std::env::temp_dir().join("kdap_log_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path = path.to_str().unwrap();
        let log = JsonLogger::from_spec(Some(path)).unwrap();
        log.info("hello", &[]);
        drop(log);
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"event\": \"hello\""));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn non_finite_floats_render_null() {
        let buf = Buf::default();
        let log = JsonLogger::to_writer(Box::new(buf.clone()));
        log.info("f", &[("ok", 1.5f64.into()), ("bad", f64::NAN.into())]);
        let text = buf.text();
        assert!(text.contains("\"ok\": 1.5"), "{text}");
        assert!(text.contains("\"bad\": null"), "{text}");
    }
}
