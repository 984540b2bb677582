//! The benchmark's own tracing: host-clock spans recorded around each
//! layer call from outside the program, and a [`TimingSink`] that splits
//! `Swarm::run_into` into its event loop and its capture collection.

use netaware_obs::alloc::{self, AllocSnapshot};
use netaware_trace::{ProbeTrace, RecordSink, TraceError};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One closed span: a layer call, or the iteration that encloses them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`testbed.build`, `proto.execute`, …) or `iteration`.
    pub name: &'static str,
    /// Index of the enclosing span in the same iteration's list.
    pub parent: Option<usize>,
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// End, [`now_ns`] clock.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one iteration: index 0 is the `iteration` root, every
/// other span is a direct child of it (layer calls never nest).
#[derive(Clone, Debug, Default)]
pub struct IterSpans {
    spans: Vec<Span>,
}

impl IterSpans {
    /// Opens the iteration root at `start_ns`.
    pub fn start(start_ns: u64) -> IterSpans {
        IterSpans {
            spans: vec![Span {
                name: "iteration",
                parent: None,
                start_ns,
                end_ns: start_ns,
            }],
        }
    }

    /// Records a layer call that ran from `start_ns` to `end_ns`.
    pub fn layer(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent: Some(0),
            start_ns,
            end_ns,
        });
    }

    /// Closes the iteration root at `end_ns`.
    pub fn finish(&mut self, end_ns: u64) {
        self.spans[0].end_ns = end_ns;
    }

    /// All spans, root first.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Iteration wall time, nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.spans[0].ns()
    }

    /// Duration of the layer span named `name`, or 0 when that layer did
    /// not run in this iteration.
    pub fn layer_ns(&self, name: &str) -> u64 {
        self.spans[1..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Share of the iteration that no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let wall = self.wall_ns();
        if wall == 0 {
            return 0.0;
        }
        let covered: u64 = self.spans[1..].iter().map(Span::ns).sum();
        wall.saturating_sub(covered) as f64 / wall as f64
    }
}

/// Span log of a traced run, kept in memory and written out at exit.
#[derive(Default)]
pub struct SpanLog {
    iterations: Vec<(u64, IterSpans)>,
}

impl SpanLog {
    /// Keeps iteration `iter`'s spans.
    pub fn push(&mut self, iter: u64, spans: IterSpans) {
        self.iterations.push((iter, spans));
    }

    /// One JSON object per span and line: name, start, end, parent and
    /// iteration id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (iter, spans) in &self.iterations {
            for s in spans.spans() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"iter\":{iter},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                );
            }
        }
        out
    }
}

/// What a [`TimingSink`] observed while the swarm drained into it.
#[derive(Clone, Copy, Debug)]
pub struct SinkStamps {
    /// Entry of the first `sink_probe` call (end of the event loop).
    pub first_probe_ns: u64,
    /// Heap counters at that moment.
    pub alloc_at_first_probe: AllocSnapshot,
    /// Return of the inner sink's `finish`.
    pub finish_ns: u64,
    /// Records handed to the sink, summed over probes.
    pub records: u64,
}

/// A sink's output together with the stamps taken around it.
pub struct Timed<O> {
    /// The wrapped sink's output.
    pub output: O,
    /// When the capture arrived and how much of it there was.
    pub stamps: SinkStamps,
}

/// A [`RecordSink`] wrapper that forwards every call unchanged and
/// stamps the first `sink_probe` and the return of `finish`, so the
/// time of `run_into` splits into `proto.execute` (entry to the first
/// probe) and `trace.collect` (first probe to sealed output).
pub struct TimingSink<S> {
    inner: S,
    first: Option<(u64, AllocSnapshot)>,
    records: u64,
}

impl<S: RecordSink> TimingSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimingSink {
            inner,
            first: None,
            records: 0,
        }
    }
}

impl<S: RecordSink> RecordSink for TimingSink<S> {
    type Output = Timed<S::Output>;

    fn sink_probe(&mut self, trace: ProbeTrace) -> Result<(), TraceError> {
        if self.first.is_none() {
            self.first = Some((now_ns(), alloc::snapshot()));
        }
        self.records += trace.len() as u64;
        self.inner.sink_probe(trace)
    }

    fn finish(self, app: &str, duration_us: u64) -> Result<Self::Output, TraceError> {
        let (first_probe_ns, alloc_at_first_probe) = match self.first {
            Some(first) => first,
            None => (now_ns(), alloc::snapshot()),
        };
        let output = self.inner.finish(app, duration_us)?;
        Ok(Timed {
            output,
            stamps: SinkStamps {
                first_probe_ns,
                alloc_at_first_probe,
                finish_ns: now_ns(),
                records: self.records,
            },
        })
    }
}
