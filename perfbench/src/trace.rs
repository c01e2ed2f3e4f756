//! In-memory spans recorded around the calls into each layer.
//!
//! A traced request is one `op` span enclosing the request itself and the
//! probe calls made for it; every span of that request carries its id.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines, together with each span name's self time: its duration minus
//! the part of that interval its child spans cover.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within a run.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Id of the request the span belongs to.
    pub req: u64,
    /// Layer call the span times (for example `engine.plan`).
    pub name: &'static str,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: f64,
    /// End, in microseconds since the tracer's epoch.
    pub end_us: f64,
}

/// A per-thread span recorder. Clones share the epoch and the id counter,
/// so the spans of several client threads merge into one timeline.
#[derive(Clone, Debug)]
pub struct Tracer {
    epoch: Instant,
    ids: Arc<AtomicU64>,
    spans: Vec<Span>,
}

/// The span of one open request: close it after its probes ran.
#[derive(Clone, Copy, Debug)]
pub struct OpenOp {
    /// The op span's id (the parent of the request's spans).
    pub id: u64,
    /// The request id.
    pub req: u64,
    start: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
        }
    }

    /// An empty recorder sharing this tracer's epoch and ids.
    pub fn fork(&self) -> Self {
        Tracer {
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    /// Takes over the spans another recorder collected.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens the `op` span of a new request.
    pub fn open(&self) -> OpenOp {
        OpenOp {
            id: self.next_id(),
            req: self.next_id(),
            start: Instant::now(),
        }
    }

    /// Closes the `op` span opened by [`Tracer::open`].
    pub fn close(&mut self, op: OpenOp) {
        let end = Instant::now();
        self.push(op.id, None, op.req, "op", op.start, end);
    }

    /// Records a span that ran from `start` to `end` inside `op`.
    pub fn record(&mut self, op: &OpenOp, name: &'static str, start: Instant, end: Instant) {
        let id = self.next_id();
        self.push(id, Some(op.id), op.req, name, start, end);
    }

    /// Runs `f` as a span named `name` inside `op`; returns its result and
    /// duration.
    pub fn time<T>(
        &mut self,
        op: &OpenOp,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(op, name, start, end);
        (out, end - start)
    }

    fn push(
        &mut self,
        id: u64,
        parent: Option<u64>,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_us: at(start),
            end_us: at(end),
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON line per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Value::Object(vec![
                ("id".into(), Value::Int(s.id.into())),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Int(p.into())),
                ),
                ("req".into(), Value::Int(s.req.into())),
                ("name".into(), Value::Str(s.name.into())),
                ("start_us".into(), Value::Float(s.start_us)),
                ("end_us".into(), Value::Float(s.end_us)),
            ]);
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("span serializes")
            )?;
        }
        out.flush()
    }
}

/// Names of the spans that time the request itself; every other child of
/// an `op` span is a probe.
pub const REQUEST_SPANS: [&str; 3] = [
    "engine.answer_from_views",
    "service.serve_batch",
    "service.apply_delta",
];

/// Share of traced op time spent in probe calls.
pub fn probe_share(spans: &[Span]) -> f64 {
    let (mut ops, mut probes) = (0.0, 0.0);
    for s in spans {
        let d = s.end_us - s.start_us;
        if s.parent.is_none() {
            ops += d;
        } else if !REQUEST_SPANS.contains(&s.name) {
            probes += d;
        }
    }
    if ops == 0.0 {
        0.0
    } else {
        probes / ops
    }
}

/// Per span name: (spans, total ms, self ms).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |c| covered_length(c, s.start_us, s.end_us));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur / 1e3;
        e.2 += (dur - covered).max(0.0) / 1e3;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_length(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: f64, e: f64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_us: s,
            end_us: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "op", 0.0, 10_000.0),
            span(2, Some(1), "a", 1_000.0, 4_000.0),
            span(3, Some(1), "b", 3_000.0, 5_000.0),
            span(4, Some(1), "a", 9_000.0, 12_000.0),
        ];
        let t = self_times(&spans);
        // Children cover [1,5] ms and [9,10] ms of the op's [0,10] ms.
        assert!((t["op"].2 - 5.0).abs() < 1e-9);
        assert_eq!(t["a"].0, 2);
        assert!((t["a"].2 - 6.0).abs() < 1e-9);
    }
}
