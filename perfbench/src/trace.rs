//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public APIs, one recorder per benchmark thread. Each recorder
//! holds a buffer allocated once up front; a full buffer counts the spans
//! it drops instead of growing. A disabled recorder records nothing, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span within its recorder; `NO_SPAN` marks "no parent".
pub type SpanId = u32;
/// The parent id of a root span.
pub const NO_SPAN: SpanId = u32::MAX;

/// One closed interval of work at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `dlrm.push`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// The enclosing span on the same thread, or [`NO_SPAN`].
    pub parent: SpanId,
    /// The request (training step or query) the span served.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    tid: u32,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder that keeps nothing.
    pub fn disabled(epoch: Instant) -> Self {
        Self {
            enabled: false,
            tid: 0,
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recorder for thread `tid` with room for `capacity` spans,
    /// allocated and touched now so that recording never allocates.
    pub fn enabled(epoch: Instant, tid: u32, capacity: usize) -> Self {
        let mut spans = Vec::with_capacity(capacity);
        let blank = Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: NO_SPAN,
            req: 0,
        };
        spans.resize(capacity, blank);
        spans.clear();
        Self {
            enabled: true,
            tid,
            epoch,
            spans,
            dropped: 0,
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span from timestamps the caller already took.
    /// Returns its id, or [`NO_SPAN`] when disabled or full.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; close it with [`Recorder::end`]. Children may name
    /// the returned id as their parent.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.now_ns();
        self.record(name, now, now, parent, req)
    }

    /// Closes a span opened with [`Recorder::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes reserved for spans.
    pub fn reserved_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
    }
}

/// Per-name totals: `(count, total ns, self ns)`. A span's self time is its
/// duration minus the durations of its children; children on one thread
/// never overlap, so their sum is the part of the span they cover.
pub fn self_times(recorders: &[&Recorder]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, covered) in rec.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(covered);
        }
    }
    out
}

/// Writes every recorder's spans as Chrome trace-event JSON (complete
/// `"X"` events, microsecond timestamps), with `header` as metadata.
///
/// # Errors
///
/// Returns any write error.
pub fn write_chrome_trace(
    w: &mut impl Write,
    recorders: &[&Recorder],
    header: &[(String, String)],
) -> std::io::Result<()> {
    write!(w, "{{\"otherData\":{{")?;
    for (i, (k, v)) in header.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}\"{}\":\"{}\"", escape(k), escape(v))?;
    }
    write!(w, "}},\"traceEvents\":[")?;
    let mut first = true;
    for rec in recorders {
        for (id, s) in rec.spans.iter().enumerate() {
            let sep = if first { "" } else { "," };
            first = false;
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                rec.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req
            )?;
        }
    }
    writeln!(w, "\n]}}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled(Instant::now());
        let id = r.begin("a", NO_SPAN, 0);
        r.end(id);
        assert_eq!(r.record("b", 0, 5, NO_SPAN, 1), NO_SPAN);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut r = Recorder::enabled(Instant::now(), 1, 2);
        for i in 0..5 {
            r.record("x", i, i + 1, NO_SPAN, i);
        }
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.reserved_bytes(), 2 * std::mem::size_of::<Span>());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::enabled(Instant::now(), 1, 8);
        let root = r.record("bench.step", 0, 100, NO_SPAN, 7);
        r.record("datasets.next_batch", 0, 10, root, 7);
        r.record("dlrm.push", 10, 90, root, 7);
        let t = self_times(&[&r]);
        assert_eq!(t["bench.step"], (1, 100, 10));
        assert_eq!(t["dlrm.push"], (1, 80, 80));
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &[&r], &[("seed".into(), "1".into())]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"name\":\"dlrm.push\""));
        assert!(text.contains("\"parent\":0"));
    }
}
