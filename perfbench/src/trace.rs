//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name (the layer it times), a start and an end, the span
//! that caused it, and the request it belongs to (0 for set-up and probe
//! spans). Spans stay in memory until the run ends, then go out as a
//! Chrome trace (loadable in Perfetto) and as a per-layer self-time
//! table. A disabled tracer records nothing, so the untraced runs that
//! give the end-to-end metrics pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// The span recorder shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent closes. Returns 0 when tracing is off.
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span ending now under an id from [`Tracer::open`].
    pub fn close(&self, id: u64, name: &'static str, parent: u64, request: u64, start: Instant) {
        self.span(id, name, parent, request, start, Instant::now());
    }

    /// Records a span with explicit bounds under an id from
    /// [`Tracer::open`].
    pub fn span(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span list lock poisoned by a panicking thread")
                .push(Span {
                    id,
                    parent,
                    request,
                    name,
                    start,
                    end,
                });
        }
    }

    /// Records a finished span under a fresh id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open();
        self.span(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's wall time in milliseconds (measured traced or not).
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> (T, f64) {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.close(id, name, parent, 0, start);
        (out, ms)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .clone()
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Chrome trace JSON. Spans of a request become async slices keyed
    /// by the request id (their lifetimes overlap other requests');
    /// the rest are complete slices on one track.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (ts, dur) = (self.us(s.start), self.us(s.end) - self.us(s.start));
            let args = format!(
                "{{\"span\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.parent, s.request
            );
            if s.request == 0 {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{args}}}",
                    s.name
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"name\":\"{n}\",\"cat\":\"request\",\"ph\":\"b\",\"id\":{r},\"pid\":1,\"tid\":2,\"ts\":{ts:.3},\"args\":{args}}},\
                     {{\"name\":\"{n}\",\"cat\":\"request\",\"ph\":\"e\",\"id\":{r},\"pid\":1,\"tid\":2,\"ts\":{e:.3}}}",
                    n = s.name,
                    r = s.request,
                    e = ts + dur
                );
            }
        }
        out.push_str("]}");
        out
    }
}

/// Total self time per span name: a span's duration minus the part of
/// its interval that its children cover.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e3;
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ms(c, s.start, s.end))
            .unwrap_or(0.0);
        let row = out.entry(s.name).or_default();
        row.count += 1;
        row.total_ms += dur;
        row.self_ms += (dur - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ms(intervals: &mut [(Instant, Instant)], lo: Instant, hi: Instant) -> f64 {
    intervals.sort_by_key(|&(s, _)| s);
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += (ce - cs).as_secs_f64();
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += (ce - cs).as_secs_f64();
    }
    total * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let span = |id, parent, name, s, e| Span {
            id,
            parent,
            request: 0,
            name,
            start: at(s),
            end: at(e),
        };
        // Parent 0..10 ms with overlapping children 1..4 and 3..6.
        let spans = vec![
            span(1, 0, "parent", 0, 10),
            span(2, 1, "child", 1, 4),
            span(3, 1, "child", 3, 6),
        ];
        let st = self_times(&spans);
        assert!((st["parent"].self_ms - 5.0).abs() < 1e-9);
        assert_eq!(st["child"].count, 2);
        assert!((st["child"].self_ms - 6.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let ((), ms) = tracer.time("x", 0, |id| assert_eq!(id, 0));
        assert!(ms >= 0.0);
        assert!(tracer.spans().is_empty());
        assert_eq!(
            tracer.chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
