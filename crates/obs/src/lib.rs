//! # harp-obs
//!
//! Observability for the HARP workspace (its one dependency is the
//! vendored `serde_json`, whose writer renders JSONL records): hierarchical
//! tracing spans with monotonic timing, typed counters and histograms, and
//! a structured event sink that renders either as human-readable stderr
//! lines or machine-readable JSONL.
//!
//! ## Configuration
//!
//! The sink is resolved **once per process**, either programmatically via
//! [`init`] (tests, profiling binaries) or lazily from the environment on
//! first use:
//!
//! * `HARP_OBS` — `off` (default), `human` (stderr lines), or `jsonl`
//!   (one JSON object per line).
//! * `HARP_OBS_FILE` — when set with `HARP_OBS=jsonl`, JSONL records are
//!   appended to this file instead of stderr (opened in append mode, one
//!   `write` per line, so concurrent processes interleave whole lines).
//!
//! ## Overhead contract
//!
//! With the sink off, every instrumentation point reduces to one atomic
//! load and a branch: [`enabled`] is the fast path, [`span`] returns an
//! inert guard, [`Counter::add`] / [`Histogram::record`] return
//! immediately, and [`Event::field`] never allocates. What that costs
//! on kernel throughput with observability disabled is not measured
//! anywhere; the contract is the code shape (see DESIGN.md §7).
//!
//! ## Model
//!
//! * **Events** ([`event`]) — point-in-time structured records (an epoch
//!   finished, a config warning). Emitted immediately to the sink.
//!   [`warn_always`] falls back to a human stderr line when the sink is
//!   off, for warnings that must never be swallowed.
//! * **Spans** ([`span`]) — scoped wall-time measurements that nest per
//!   thread; durations aggregate by hierarchical path (`train/forward/
//!   harp.gcn`). Dump with [`span_report`] or [`dump_metrics`].
//! * **Counters / histograms** ([`Counter`], [`Histogram`]) — monotonic
//!   totals and duration distributions, registered globally on first
//!   touch and dumped with [`metrics_snapshot`] / [`dump_metrics`].

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

mod metrics;
mod span;

pub use metrics::{
    histogram, metrics_snapshot, Counter, CounterSnapshot, Histogram, HistogramSnapshot,
};
pub use span::{span, span_report, span_snapshot, Span, SpanStat};

/// Where structured records go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// Observability disabled: every hook is a no-op branch.
    Off,
    /// Human-readable `[obs] name k=v ...` lines on stderr.
    Human,
    /// One JSON object per line, to `HARP_OBS_FILE` (append) or stderr.
    Jsonl,
}

/// Process-wide observability configuration (see [`init`]).
#[derive(Clone, Debug)]
pub struct Config {
    /// Output format / destination kind.
    pub sink: SinkKind,
    /// JSONL destination path (append mode); `None` = stderr.
    pub file: Option<std::path::PathBuf>,
    /// Enable per-op tape timing (`HARP_OBS_OPS=1`). Off by default even
    /// with a sink on: it reads the clock and updates a histogram per
    /// recorded tape node, which is profiling-grade overhead, not
    /// always-on-metrics-grade.
    pub op_timing: bool,
}

impl Config {
    /// The disabled configuration.
    pub fn off() -> Self {
        Config {
            sink: SinkKind::Off,
            file: None,
            op_timing: false,
        }
    }

    /// JSONL records appended to `path`.
    pub fn jsonl_to(path: impl Into<std::path::PathBuf>) -> Self {
        Config {
            sink: SinkKind::Jsonl,
            file: Some(path.into()),
            op_timing: false,
        }
    }

    /// Same sink, with per-op tape timing enabled.
    pub fn with_op_timing(mut self) -> Self {
        self.op_timing = true;
        self
    }
}

struct State {
    sink: SinkKind,
    /// Serialized writer for JSONL file output; `None` = stderr.
    writer: Option<Mutex<std::fs::File>>,
}

static STATE: OnceLock<State> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static OP_TIMING: AtomicBool = AtomicBool::new(false);
static START: OnceLock<Instant> = OnceLock::new();

fn state() -> &'static State {
    STATE.get_or_init(|| build_state(config_from_env()))
}

fn build_state(cfg: Config) -> State {
    let _ = START.get_or_init(Instant::now);
    let writer = match (&cfg.sink, &cfg.file) {
        (SinkKind::Jsonl, Some(path)) => match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(Mutex::new(f)),
            Err(e) => {
                eprintln!(
                    "harp-obs: cannot open HARP_OBS_FILE {}: {e}; falling back to stderr",
                    path.display()
                );
                None
            }
        },
        _ => None,
    };
    OP_TIMING.store(
        cfg.sink != SinkKind::Off && cfg.op_timing,
        Ordering::Release,
    );
    ENABLED.store(cfg.sink != SinkKind::Off, Ordering::Release);
    State {
        sink: cfg.sink,
        writer,
    }
}

fn config_from_env() -> Config {
    // lint: allow(env) — the sink is chosen per process, before any config exists
    let sink = match std::env::var("HARP_OBS") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "none" => SinkKind::Off,
            "human" | "stderr" | "1" => SinkKind::Human,
            "jsonl" | "json" => SinkKind::Jsonl,
            other => {
                eprintln!("harp-obs: unknown HARP_OBS={other:?} (want off|human|jsonl); off");
                SinkKind::Off
            }
        },
        Err(_) => SinkKind::Off,
    };
    // lint: allow(env) — where the jsonl sink writes
    let file = std::env::var("HARP_OBS_FILE").ok().map(Into::into);
    // lint: allow(env) — opt-in per-op tape timing
    let op_timing = std::env::var("HARP_OBS_OPS")
        .is_ok_and(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"));
    Config {
        sink,
        file,
        op_timing,
    }
}

/// Install `cfg` as the process-wide configuration. Returns `true` when it
/// took effect; `false` when the sink was already resolved (first caller
/// wins — call before any other harp-obs use, e.g. at the top of `main`).
pub fn init(cfg: Config) -> bool {
    let mut installed = false;
    STATE.get_or_init(|| {
        installed = true;
        build_state(cfg)
    });
    installed
}

/// Fast-path check: is any sink active? One atomic load; instrumentation
/// sites branch on this before doing any work.
#[inline]
pub fn enabled() -> bool {
    if STATE.get().is_none() {
        let _ = state();
    }
    ENABLED.load(Ordering::Acquire)
}

/// Is per-op tape timing on (`HARP_OBS_OPS=1` plus an active sink, or
/// [`Config::with_op_timing`])? Checked once per `Tape`, not per op.
#[inline]
pub fn op_timing_enabled() -> bool {
    if STATE.get().is_none() {
        let _ = state();
    }
    OP_TIMING.load(Ordering::Acquire)
}

/// Monotonic microseconds since the first harp-obs touch in this process
/// (the timestamp base for all emitted records).
pub fn now_us() -> u64 {
    u64::try_from(START.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Flush the JSONL file writer (file sinks only; stderr is unbuffered).
pub fn flush() {
    if let Some(w) = &state().writer {
        if let Ok(mut f) = w.lock() {
            let _ = f.flush();
        }
    }
}

// ----------------------------------------------------------------------
// Events
// ----------------------------------------------------------------------

/// A typed field value on an [`Event`].
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values serialize as JSON `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on output).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// A structured record under construction; build with [`event`], attach
/// fields, then [`Event::emit`] (use [`warn_always`] for warnings that
/// must reach stderr even with the sink off).
#[must_use = "an Event does nothing until emit() / emit_always() is called"]
pub struct Event {
    name: &'static str,
    /// `None` when the sink is off: fields are dropped without allocating.
    fields: Option<Vec<(&'static str, FieldValue)>>,
}

/// Start building an event named `name` (dotted lowercase by convention,
/// e.g. `train.epoch`). Free when the sink is off.
pub fn event(name: &'static str) -> Event {
    Event {
        name,
        fields: enabled().then(Vec::new),
    }
}

impl Event {
    /// Attach a field. No-op (and no allocation of the value) off-sink.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if let Some(fields) = &mut self.fields {
            fields.push((key, value.into()));
        }
        self
    }

    /// Attach a field computed lazily — `f` runs only when a sink is on.
    /// Use when building the value is itself non-trivial (string
    /// formatting, reductions).
    pub fn field_with(mut self, key: &'static str, f: impl FnOnce() -> FieldValue) -> Self {
        if let Some(fields) = &mut self.fields {
            fields.push((key, f()));
        }
        self
    }

    /// Emit to the active sink; silently dropped when the sink is off.
    pub fn emit(self) {
        if let Some(fields) = self.fields {
            write_record(self.name, &fields);
        }
    }
}

/// Emit a warning-style event that is never swallowed: goes to the active
/// sink when one is on, and to stderr in human form when off. `fields` are
/// always materialized (unlike [`event`], which drops them off-sink).
pub fn warn_always(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if enabled() {
        write_record(name, fields);
    } else {
        eprintln!("[obs] {}{}", name, render_human_fields(fields));
    }
}

fn render_human_fields(fields: &[(&'static str, FieldValue)]) -> String {
    let mut out = String::new();
    for (k, v) in fields {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        match v {
            FieldValue::U64(x) => out.push_str(&x.to_string()),
            FieldValue::I64(x) => out.push_str(&x.to_string()),
            FieldValue::F64(x) => out.push_str(&format!("{x:.6}")),
            FieldValue::Bool(x) => out.push_str(&x.to_string()),
            FieldValue::Str(x) => {
                out.push_str(&format!("{x:?}"));
            }
        }
    }
    out
}

/// One JSONL record, written through `serde_json`'s streaming writers
/// (the workspace's one JSON writer).
fn render_jsonl(name: &str, t_us: u64, fields: &[(&'static str, FieldValue)]) -> String {
    let mut out = String::with_capacity(64 + fields.len() * 24);
    out.push_str("{\"ev\":");
    serde_json::write_str(&mut out, name);
    out.push_str(",\"t_us\":");
    serde_json::write_u64(&mut out, t_us);
    for (k, v) in fields {
        out.push(',');
        serde_json::write_str(&mut out, k);
        out.push(':');
        match v {
            FieldValue::U64(x) => serde_json::write_u64(&mut out, *x),
            FieldValue::I64(x) => {
                if *x < 0 {
                    out.push('-');
                }
                serde_json::write_u64(&mut out, x.unsigned_abs());
            }
            FieldValue::F64(x) => serde_json::write_f64(&mut out, *x),
            FieldValue::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
            FieldValue::Str(x) => serde_json::write_str(&mut out, x),
        }
    }
    out.push_str("}\n");
    out
}

fn write_record(name: &str, fields: &[(&'static str, FieldValue)]) {
    let st = state();
    match st.sink {
        SinkKind::Off => {}
        SinkKind::Human => {
            eprintln!("[obs] {}{}", name, render_human_fields(fields));
        }
        SinkKind::Jsonl => {
            let line = render_jsonl(name, now_us(), fields);
            match &st.writer {
                Some(w) => {
                    if let Ok(mut f) = w.lock() {
                        let _ = f.write_all(line.as_bytes());
                    }
                }
                None => {
                    let _ = std::io::stderr().write_all(line.as_bytes());
                }
            }
        }
    }
}

/// Emit every counter, histogram, and aggregated span as `metric.counter` /
/// `metric.histogram` / `metric.span` events, then [`flush`]. Call at the
/// end of a run (bench binaries, training drivers) to persist totals.
pub fn dump_metrics() {
    if !enabled() {
        return;
    }
    let (counters, histograms) = metrics_snapshot();
    for c in counters {
        event("metric.counter")
            .field("name", c.name)
            .field("value", c.value)
            .emit();
    }
    for h in histograms {
        event("metric.histogram")
            .field("name", h.name)
            .field("count", h.count)
            .field("sum", h.sum)
            .field("min", if h.count == 0 { 0 } else { h.min })
            .field("max", h.max)
            .field("mean", h.mean())
            .emit();
    }
    for s in span_snapshot() {
        event("metric.span")
            .field("path", s.path.clone())
            .field("count", s.count)
            .field("total_ns", s.total_ns)
            .field("mean_ns", s.mean_ns())
            .emit();
    }
    flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The renderer this crate used before it wrote through `serde_json`,
    /// kept as the oracle for the golden test below.
    fn render_jsonl_before(name: &str, t_us: u64, fields: &[(&'static str, FieldValue)]) -> String {
        fn push_json_str(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    // lint: allow(as-cast) — char→u32 is lossless by definition
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut out = String::new();
        out.push_str("{\"ev\":");
        push_json_str(&mut out, name);
        out.push_str(",\"t_us\":");
        out.push_str(&t_us.to_string());
        for (k, v) in fields {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            match v {
                FieldValue::U64(x) => out.push_str(&x.to_string()),
                FieldValue::I64(x) => out.push_str(&x.to_string()),
                FieldValue::F64(x) => {
                    if x.is_finite() {
                        out.push_str(&format!("{x}"));
                    } else {
                        out.push_str("null");
                    }
                }
                FieldValue::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                FieldValue::Str(x) => push_json_str(&mut out, x),
            }
        }
        out.push_str("}\n");
        out
    }

    #[test]
    fn jsonl_lines_are_byte_identical_to_the_hand_rolled_renderer() {
        let fields = [
            ("s", FieldValue::Str("a\"b\\c\nd\re\tf/é∑".into())),
            (
                "ctl",
                FieldValue::Str("\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}".into()),
            ),
            ("u", FieldValue::U64(u64::MAX)),
            ("i", FieldValue::I64(i64::MIN)),
            ("i0", FieldValue::I64(-3)),
            ("f", FieldValue::F64(1.5)),
            ("int", FieldValue::F64(3.0)),
            ("neg_int", FieldValue::F64(-42.0)),
            ("big", FieldValue::F64(1e16)),
            ("edge", FieldValue::F64(9e15)),
            ("huge", FieldValue::F64(1e300)),
            ("tiny", FieldValue::F64(5e-324)),
            ("third", FieldValue::F64(1.0 / 3.0)),
            ("nan", FieldValue::F64(f64::NAN)),
            ("inf", FieldValue::F64(f64::INFINITY)),
            ("ninf", FieldValue::F64(f64::NEG_INFINITY)),
            ("b", FieldValue::Bool(true)),
            ("q\"k", FieldValue::Bool(false)),
        ];
        for name in ["unit.test", "we\"ird\u{2}"] {
            assert_eq!(
                render_jsonl(name, 1_234_567, &fields),
                render_jsonl_before(name, 1_234_567, &fields)
            );
        }
        // The one difference: an integral f64 prints as the integer it is,
        // so negative zero is `0` here as in every other JSON the
        // workspace writes (`format!` printed `-0`).
        let zero = [("z", FieldValue::F64(-0.0))];
        assert_eq!(
            render_jsonl("e", 0, &zero),
            "{\"ev\":\"e\",\"t_us\":0,\"z\":0}\n"
        );
    }

    #[test]
    fn human_rendering_is_key_value() {
        let s = render_human_fields(&[
            ("k", FieldValue::U64(2)),
            ("name", FieldValue::Str("x y".into())),
        ]);
        assert_eq!(s, " k=2 name=\"x y\"");
    }

    #[test]
    fn event_without_sink_is_inert() {
        // Sink resolution in the test process defaults to Off unless the
        // environment opts in; either way the builder API must not panic.
        event("unit.inert").field("x", 1u64).emit();
        warn_always("unit.warn", &[("why", FieldValue::Str("test".into()))]);
    }
}
