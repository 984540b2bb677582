//! The structured event record and its deterministic JSONL encoding.
//!
//! Events are keyed by [`SimTime`], not wall-clock time: two runs with
//! the same seed emit byte-identical logs, which is what lets
//! `tests/determinism.rs` pin the whole observability surface.

use netaware_sim::SimTime;
use serde::Value;

/// Event severity, ordered from chattiest to most severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Very fine-grained detail (per-packet scale).
    Trace,
    /// Per-decision detail (chunk scheduling, gossip exchanges).
    Debug,
    /// Lifecycle milestones (run start, probe sunk, pass finished).
    Info,
    /// Recoverable anomalies (handshake refused, request timed out).
    Warn,
    /// Failures surfaced to the caller (stream errors, corrupt input).
    Error,
}

impl Level {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses the name written by [`Level::as_str`].
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A typed field value. The small closed set keeps the JSONL encoding
/// (and therefore the determinism test surface) trivial to audit.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counts, ids, byte totals).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point value (rates, fractions).
    F64(f64),
    /// Short free-form text (kinds, names).
    Str(String),
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u8> for FieldValue {
    fn from(v: u8) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::U64(v) => Value::U64(*v),
            FieldValue::I64(v) => Value::I64(*v),
            FieldValue::F64(v) => Value::F64(*v),
            FieldValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// One structured log record.
///
/// `target` names the subsystem and decision point with a
/// `<layer>.<aspect>` convention (`swarm.discovery.handshake`, `swarm.scheduling.chunk_sched`,
/// `stream.error`, `pass.flow`, …); it is `&'static str` so emitting an
/// event never allocates for the routing key and filtering is a pointer-
/// and-prefix affair.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation time of the event (the deterministic key).
    pub time: SimTime,
    /// Static target, `<layer>.<aspect>`.
    pub target: &'static str,
    /// Severity.
    pub level: Level,
    /// Typed key/value payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Encodes the event as one compact JSON object (no trailing
    /// newline). Key order is fixed (`t`, `target`, `level`, then the
    /// fields in emission order), so the encoding is deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut pairs: Vec<(Value, Value)> = vec![
            (Value::Str("t".into()), Value::U64(self.time.as_us())),
            (Value::Str("target".into()), Value::Str(self.target.into())),
            (
                Value::Str("level".into()),
                Value::Str(self.level.as_str().into()),
            ),
        ];
        for (k, v) in &self.fields {
            pairs.push((Value::Str((*k).into()), v.to_value()));
        }
        let value = Value::Map(pairs);
        // The encoder only fails on non-finite floats; clamp those to
        // null rather than poisoning the whole log line.
        serde_json::to_string(&value).unwrap_or_else(|_| {
            let sane: Vec<(Value, Value)> = match value {
                Value::Map(pairs) => pairs
                    .into_iter()
                    .map(|(k, v)| match v {
                        Value::F64(f) if !f.is_finite() => (k, Value::Null),
                        other => (k, other),
                    })
                    .collect(),
                _ => Vec::new(),
            };
            serde_json::to_string(&Value::Map(sane)).unwrap_or_default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_round_trip_and_order() {
        for l in [
            Level::Trace,
            Level::Debug,
            Level::Info,
            Level::Warn,
            Level::Error,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::parse("fatal"), None);
    }

    #[test]
    fn jsonl_encoding_is_stable() {
        let e = Event {
            time: SimTime::from_us(1_500_000),
            target: "swarm.handshake",
            level: Level::Info,
            fields: vec![
                ("peer", FieldValue::U64(7)),
                ("nat", FieldValue::Bool(true)),
                ("kind", FieldValue::Str("probe".into())),
            ],
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"t":1500000,"target":"swarm.handshake","level":"info","peer":7,"nat":true,"kind":"probe"}"#
        );
        // Encoding twice yields identical bytes.
        assert_eq!(e.to_jsonl(), e.to_jsonl());
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let e = Event {
            time: SimTime::ZERO,
            target: "pass.flow",
            level: Level::Debug,
            fields: vec![("rate", FieldValue::F64(f64::NAN))],
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"t":0,"target":"pass.flow","level":"debug","rate":null}"#
        );
    }
}
