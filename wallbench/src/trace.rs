//! In-memory spans taken from the benchmark's side of each layer
//! boundary: name, start, end, parent span and request id. Spans are
//! kept in memory and written out when the run ends. With tracing off
//! `begin`/`end` only test a flag.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span plus one; 0 for a root.
    pub parent: usize,
    /// Request, frame or pass the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span handle: index plus one, 0 when tracing is off.
pub type SpanId = usize;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    pub fn end(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans[id - 1].end_ns = now;
    }

    /// An empty tracer sharing this one's clock and switch, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Appends a forked tracer's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent > 0 {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (µs) of the spans called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Mean duration (µs) of the spans called `name`, 0 when none.
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations_us(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    /// Cost of one `begin`/`end` pair (ns), measured on a scratch tracer,
    /// so a traced run can state its own overhead.
    pub fn span_cost_ns() -> f64 {
        const N: usize = 200_000;
        let mut t = Tracer::new(true);
        t.spans.reserve(N);
        let start = Instant::now();
        for i in 0..N {
            let id = t.begin("calibrate", 0, i as u64);
            t.end(id);
        }
        start.elapsed().as_nanos() as f64 / N as f64
    }
}
