//! Offline event-log summarisation (the `netaware-cli obs` subcommand).
//!
//! Re-reads a JSONL event log written by
//! [`JsonlSink`](crate::sink::JsonlSink) and produces the operator's
//! first-look digest: how many events, which targets dominate, what went
//! wrong, and how fast the chunk scheduler was deciding.

use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

/// Why a log could not be summarised.
#[derive(Debug)]
pub enum SummaryError {
    /// Underlying I/O failure while reading.
    Io(std::io::Error),
    /// A line that is not one complete event object (e.g. the file was
    /// truncated mid-write). Carries the 1-based line number.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for SummaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryError::Io(e) => write!(f, "reading event log: {e}"),
            SummaryError::Malformed { line, reason } => {
                write!(f, "event log line {line} is not a complete event: {reason}")
            }
        }
    }
}

impl std::error::Error for SummaryError {}

impl From<std::io::Error> for SummaryError {
    fn from(e: std::io::Error) -> Self {
        SummaryError::Io(e)
    }
}

/// Digest of one event log.
#[derive(Clone, Debug, Default)]
pub struct LogSummary {
    /// Total events.
    pub events: u64,
    /// Event count per target, sorted by target name.
    pub by_target: BTreeMap<String, u64>,
    /// Event count per severity level name.
    pub by_level: BTreeMap<String, u64>,
    /// Rendered error-level events, capped at [`LogSummary::ERROR_CAP`].
    pub errors: Vec<String>,
    /// Total error-level events (even beyond the cap).
    pub error_count: u64,
    /// Earliest event time, µs of sim time.
    pub first_us: u64,
    /// Latest event time, µs of sim time.
    pub last_us: u64,
    /// Per-probe stream continuity in permille, from `swarm.continuity`
    /// events (one per probe at end of run; empty when the log carries
    /// none).
    pub continuity_permille: Vec<u64>,
}

impl LogSummary {
    /// At most this many error lines are retained verbatim.
    pub const ERROR_CAP: usize = 20;

    /// Parses a JSONL event log. Every line must be one complete event
    /// object with at least `t` and `target`; anything else (including a
    /// line cut short by a crash or truncation) is a [`SummaryError`].
    pub fn from_reader(reader: impl BufRead) -> Result<LogSummary, SummaryError> {
        let mut s = LogSummary {
            first_us: u64::MAX,
            ..LogSummary::default()
        };
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let malformed = |reason: &str| SummaryError::Malformed {
                line: lineno,
                reason: reason.to_string(),
            };
            let value = serde_json::parse_value(&line).map_err(|e| malformed(&format!("{e:?}")))?;
            let map = value.as_map().ok_or_else(|| malformed("not an object"))?;
            let t = serde_json::value::field(map, "t")
                .as_u64()
                .ok_or_else(|| malformed("missing `t`"))?;
            let target = serde_json::value::field(map, "target")
                .as_str()
                .ok_or_else(|| malformed("missing `target`"))?;
            let level = serde_json::value::field(map, "level")
                .as_str()
                .unwrap_or("info");
            s.events += 1;
            s.first_us = s.first_us.min(t);
            s.last_us = s.last_us.max(t);
            *s.by_target.entry(target.to_string()).or_insert(0) += 1;
            *s.by_level.entry(level.to_string()).or_insert(0) += 1;
            if target == "swarm.continuity" {
                if let Some(p) = serde_json::value::field(map, "permille").as_u64() {
                    s.continuity_permille.push(p);
                }
            }
            if level == "error" {
                s.error_count += 1;
                if s.errors.len() < Self::ERROR_CAP {
                    s.errors.push(line);
                }
            }
        }
        if s.events == 0 {
            s.first_us = 0;
        }
        Ok(s)
    }

    /// Sim-time span covered by the log, seconds.
    pub fn span_secs(&self) -> f64 {
        self.last_us.saturating_sub(self.first_us) as f64 / 1e6
    }

    /// Chunk-scheduler decision rate: `swarm.scheduling.chunk_sched`
    /// events per sim-second over the covered span (0 when the span is
    /// empty).
    pub fn chunk_sched_rate_hz(&self) -> f64 {
        let n = self
            .by_target
            .get("swarm.scheduling.chunk_sched")
            .copied()
            .unwrap_or(0);
        let span = self.span_secs();
        if span <= 0.0 {
            0.0
        } else {
            n as f64 / span
        }
    }

    /// Mean per-probe stream continuity (0..=1) from `swarm.continuity`
    /// events, if the log carries any.
    pub fn continuity_mean(&self) -> Option<f64> {
        if self.continuity_permille.is_empty() {
            return None;
        }
        let sum: u64 = self.continuity_permille.iter().sum();
        Some(sum as f64 / self.continuity_permille.len() as f64 / 1000.0)
    }

    /// Worst per-probe stream continuity (0..=1), if reported.
    pub fn continuity_min(&self) -> Option<f64> {
        self.continuity_permille
            .iter()
            .min()
            .map(|p| *p as f64 / 1000.0)
    }

    /// Human-readable report: totals, top targets by count, error lines,
    /// the chunk-scheduler decision rate, and stream continuity when the
    /// run reported it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events: {} spanning {:.3}–{:.3} s (sim time)",
            self.events,
            self.first_us as f64 / 1e6,
            self.last_us as f64 / 1e6,
        );
        let mut targets: Vec<(&String, &u64)> = self.by_target.iter().collect();
        targets.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "top targets:");
        for (target, n) in targets.iter().take(10) {
            let _ = writeln!(out, "  {target:<24} {n}");
        }
        let rate = self.chunk_sched_rate_hz();
        if rate > 0.0 {
            let _ = writeln!(out, "chunk-scheduler decisions: {rate:.1}/s (sim)");
        }
        if let (Some(mean), Some(min)) = (self.continuity_mean(), self.continuity_min()) {
            let _ = writeln!(
                out,
                "continuity: mean {:.3}, worst probe {:.3} ({} probes)",
                mean,
                min,
                self.continuity_permille.len(),
            );
        }
        let _ = writeln!(out, "errors: {}", self.error_count);
        for line in &self.errors {
            let _ = writeln!(out, "  {line}");
        }
        out
    }

    /// Parses a `--metrics` snapshot JSON body (as written by
    /// `netaware-cli run --metrics`), for merging into the report.
    pub fn parse_metrics(body: &str) -> Result<MetricsSnapshot, SummaryError> {
        serde_json::from_str(body).map_err(|e| SummaryError::Malformed {
            line: 0,
            reason: format!("metrics snapshot: {e:?}"),
        })
    }

    /// [`LogSummary::render`] plus the metrics snapshot folded in: one
    /// report with continuity, per-counter sim-time throughput, and
    /// histogram percentiles, instead of two artifacts read separately.
    pub fn render_with_metrics(&self, metrics: Option<&MetricsSnapshot>) -> String {
        let mut out = self.render();
        let Some(m) = metrics else { return out };
        let _ = writeln!(
            out,
            "metrics: {} counters, {} gauges, {} histograms",
            m.counters.len(),
            m.gauges.len(),
            m.histograms.len(),
        );
        let span = self.span_secs();
        if span > 0.0 {
            let mut counters: Vec<(&String, &u64)> = m.counters.iter().collect();
            counters.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            let _ = writeln!(out, "counter throughput (per sim-second):");
            for (name, n) in counters.iter().take(12) {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>12.1}/s  ({n} total)",
                    **n as f64 / span
                );
            }
        }
        if !m.histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms: {:<24} {:>8} {:>6} {:>6} {:>6} {:>6}",
                "name", "total", "p50", "p90", "p99", "max"
            );
            for (name, h) in &m.histograms {
                let q = |v: Option<usize>| v.map_or(String::from("-"), |x| x.to_string());
                let _ = writeln!(
                    out,
                    "            {name:<24} {:>8} {:>6} {:>6} {:>6} {:>6}",
                    h.total,
                    q(h.p50),
                    q(h.p90),
                    q(h.p99),
                    q(h.max),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const LOG: &str = concat!(
        r#"{"t":0,"target":"testbed.run","level":"info","app":"sopcast"}"#,
        "\n",
        r#"{"t":1000000,"target":"swarm.scheduling.chunk_sched","level":"debug","chunk":1}"#,
        "\n",
        r#"{"t":2000000,"target":"swarm.scheduling.chunk_sched","level":"debug","chunk":2}"#,
        "\n",
        r#"{"t":3000000,"target":"stream.error","level":"error","kind":"truncated"}"#,
        "\n",
        r#"{"t":4000000,"target":"pass.flow","level":"info","probe":0}"#,
        "\n",
        r#"{"t":4000000,"target":"swarm.continuity","level":"info","probe":0,"permille":950}"#,
        "\n",
        r#"{"t":4000000,"target":"swarm.continuity","level":"info","probe":1,"permille":850}"#,
        "\n",
    );

    #[test]
    fn summarises_counts_span_and_rate() {
        let s = LogSummary::from_reader(BufReader::new(LOG.as_bytes())).expect("parse");
        assert_eq!(s.events, 7);
        assert_eq!(s.by_target["swarm.scheduling.chunk_sched"], 2);
        assert_eq!(s.error_count, 1);
        assert_eq!(s.errors.len(), 1);
        assert_eq!(s.first_us, 0);
        assert_eq!(s.last_us, 4_000_000);
        assert!((s.chunk_sched_rate_hz() - 0.5).abs() < 1e-9);
        assert_eq!(s.continuity_permille, vec![950, 850]);
        assert!((s.continuity_mean().unwrap() - 0.9).abs() < 1e-9);
        assert!((s.continuity_min().unwrap() - 0.85).abs() < 1e-9);
        let text = s.render();
        assert!(text.contains("events: 7"));
        assert!(text.contains("continuity: mean 0.900, worst probe 0.850 (2 probes)"));
        assert!(text.contains("swarm.scheduling.chunk_sched"));
        assert!(text.contains("errors: 1"));
        assert!(text.contains("chunk-scheduler decisions: 0.5/s"));
    }

    #[test]
    fn merged_report_folds_metrics_in() {
        let s = LogSummary::from_reader(BufReader::new(LOG.as_bytes())).expect("parse");
        let reg = crate::metrics::Registry::new();
        reg.counter("proto.chunks_requested").add(400);
        let h = reg.histogram("swarm.fanout", 64);
        for v in [1, 2, 2, 3, 9] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let merged = s.render_with_metrics(Some(&snap));
        // Still one report: log lines first, metrics folded in after.
        assert!(merged.contains("events: 7"));
        assert!(merged.contains("continuity: mean 0.900"));
        assert!(merged.contains("metrics: 1 counters, 0 gauges, 1 histograms"));
        // 400 requests over the 4-sim-second span.
        assert!(merged.contains("proto.chunks_requested"));
        assert!(merged.contains("100.0/s"));
        assert!(merged.contains("swarm.fanout"));
        // Snapshot JSON round-trips through the --metrics parser.
        let back = LogSummary::parse_metrics(&snap.to_json()).expect("parse metrics");
        assert_eq!(back, snap);
        // Without a snapshot the report is unchanged.
        assert_eq!(s.render_with_metrics(None), s.render());
    }

    #[test]
    fn truncated_line_is_an_error() {
        let broken = &LOG[..LOG.len() - 30]; // cut mid-line
        let err =
            LogSummary::from_reader(BufReader::new(broken.as_bytes())).expect_err("must fail");
        match err {
            SummaryError::Malformed { line, .. } => assert_eq!(line, 7),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn missing_keys_are_errors() {
        let err = LogSummary::from_reader(BufReader::new(
            r#"{"target":"x.y","level":"info"}"#.as_bytes(),
        ))
        .expect_err("must fail");
        assert!(matches!(err, SummaryError::Malformed { line: 1, .. }));
    }

    #[test]
    fn empty_log_summarises_cleanly() {
        let s = LogSummary::from_reader(BufReader::new(&b""[..])).expect("parse");
        assert_eq!(s.events, 0);
        assert_eq!(s.first_us, 0);
        assert_eq!(s.chunk_sched_rate_hz(), 0.0);
        assert_eq!(s.continuity_mean(), None);
        assert_eq!(s.continuity_min(), None);
    }
}
