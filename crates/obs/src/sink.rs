//! Pluggable event sinks.
//!
//! A sink receives every [`Event`] an enabled handle emits through
//! `&self`, so one sink can be shared between the emitting layer and the caller that
//! later inspects what was collected (keep an `Arc` clone).

#![expect(
    clippy::disallowed_types,
    reason = "audited: each sink's one Mutex is never held while taking another"
)]

use crate::event::Event;
use crate::locked;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Destination for structured events.
pub trait EventSink: Send + Sync {
    /// Receives one event.
    fn record(&self, event: &Event);

    /// Flushes buffered output; a no-op for in-memory sinks.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Counting null sink: drops every event but counts them. The cheapest
/// enabled sink, used by the `obs_overhead` bench to price the emission
/// path itself.
#[derive(Debug, Default)]
pub struct NullSink {
    seen: AtomicU64,
}

impl NullSink {
    /// A fresh counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many events were recorded.
    pub fn events_seen(&self) -> u64 {
        self.seen.load(Ordering::SeqCst)
    }
}

impl EventSink for NullSink {
    fn record(&self, _event: &Event) {
        self.seen.fetch_add(1, Ordering::SeqCst);
    }
}

/// Bounded in-memory ring buffer keeping the most recent events.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A ring holding at most `cap` events (the oldest are dropped).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        locked(&self.buf).iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        locked(&self.buf).len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        locked(&self.buf).is_empty()
    }
}

impl EventSink for RingSink {
    fn record(&self, event: &Event) {
        let mut buf = locked(&self.buf);
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Writes one compact JSON object per line. Same seed ⇒ same events ⇒
/// byte-identical files, because [`Event::to_jsonl`] has a fixed key
/// order and timestamps are sim time.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) `path` and returns a sink writing to it.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut out = locked(&self.out);
        // A failed write leaves the BufWriter in an error state that the
        // final flush() reports; record() itself must not panic (PA01).
        let _ = writeln!(out, "{}", event.to_jsonl());
    }

    fn flush(&self) -> io::Result<()> {
        locked(&self.out).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use netaware_sim::SimTime;

    fn ev(target: &'static str, level: Level, n: u64) -> Event {
        Event {
            time: SimTime::from_us(n),
            target,
            level,
            fields: vec![("n", crate::FieldValue::U64(n))],
        }
    }

    #[test]
    fn null_sink_counts() {
        let s = NullSink::new();
        for i in 0..5 {
            s.record(&ev("swarm.tick", Level::Debug, i));
        }
        assert_eq!(s.events_seen(), 5);
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let s = RingSink::new(3);
        for i in 0..10 {
            s.record(&ev("swarm.tick", Level::Debug, i));
        }
        let kept = s.snapshot();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].time, SimTime::from_us(7));
        assert_eq!(kept[2].time, SimTime::from_us(9));
        assert!(!s.is_empty());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path = std::env::temp_dir().join(format!(
            "netaware_obs_sink_test_{}.jsonl",
            std::process::id()
        ));
        let s = JsonlSink::create(&path).expect("create");
        s.record(&ev("swarm.tick", Level::Debug, 1));
        s.record(&ev("pass.flow", Level::Info, 2));
        s.flush().expect("flush");
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""target":"swarm.tick""#));
        assert!(lines[1].contains(r#""target":"pass.flow""#));
    }
}
