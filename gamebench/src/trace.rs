//! Spans recorded by the benchmark itself around each call into a layer
//! (choosing-metrics §4): name, start, end, the span that caused it, and
//! the tick number as the id every span of one tick shares. Kept in
//! memory; reduced to per-name self time and written out at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{jobj, jstr};

/// Name of the root span of every tick.
pub const TICK: &str = "tick";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Shared id of all spans of one tick.
    pub tick: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many public calls this span covers (a query class runs its
    /// whole share of the batch inside one span).
    pub calls: u32,
}

/// What a workload's tick sees of the tracer: `span` times the call when
/// tracing is on and is a plain call when it is off, so the traced and
/// untraced runs execute the same workload code.
pub struct Probe {
    origin: Instant,
    on: bool,
    tick: u64,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Probe {
    pub fn new(on: bool) -> Self {
        Probe {
            origin: Instant::now(),
            on,
            tick: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Set the tick id stamped on spans from here on.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Run `f` inside a span called `name` covering one call.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> T) -> T {
        self.span_n(name, 1, f)
    }

    /// Run `f` inside a span called `name` covering `calls` calls.
    #[inline]
    pub fn span_n<T>(
        &mut self,
        name: &'static str,
        calls: u32,
        f: impl FnOnce(&mut Probe) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            tick: self.tick,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }
}

/// Per-name reduction of a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub spans: u64,
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the part their child spans cover.
    pub self_ns: u64,
}

/// Self time = a span's duration minus its direct children's durations
/// (children never overlap: one thread, properly nested).
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.spans += 1;
        e.calls += u64::from(s.calls);
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Layer of a span name: the part before the first dot (`sync.shard` →
/// `sync`); the root tick span is the harness's own layer.
pub fn layer_of(name: &str) -> &str {
    if name == TICK {
        "harness"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

/// Self time per layer, largest first.
pub fn layer_shares(by_name: &BTreeMap<&'static str, NameStats>) -> Vec<(String, u64)> {
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, st) in by_name {
        *layers.entry(layer_of(name)).or_default() += st.self_ns;
    }
    let mut v: Vec<(String, u64)> = layers
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// The trace file: every span plus the metrics-registry snapshot (already
/// JSON) that was attached only in the traced run.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], registry_json: &str) -> String {
    let mut rows = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&jobj(&[
            ("name", jstr(s.name)),
            ("tick", s.tick.to_string()),
            ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
            ("start_ns", s.start_ns.to_string()),
            ("end_ns", s.end_ns.to_string()),
            ("calls", s.calls.to_string()),
        ]));
    }
    rows.push(']');
    jobj(&[
        ("workload", jstr(workload)),
        ("seed", seed.to_string()),
        ("spans", rows),
        ("registry", registry_json.to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            tick: 0,
            parent,
            start_ns: start,
            end_ns: end,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // tick [0,100] { a [10,40] { b [20,30] }, a [50,70] }
        let spans = vec![
            span(TICK, None, 0, 100),
            span("x.a", Some(0), 10, 40),
            span("y.b", Some(1), 20, 30),
            span("x.a", Some(0), 50, 70),
        ];
        let r = reduce(&spans);
        assert_eq!(r[TICK].self_ns, 100 - 30 - 20);
        assert_eq!(r["x.a"].total_ns, 50);
        assert_eq!(
            r["x.a"].self_ns,
            50 - 10,
            "grandchild only charges its parent"
        );
        assert_eq!(r["x.a"].spans, 2);
        assert_eq!(r["y.b"].self_ns, 10);
        // self times partition the root's duration
        let total: u64 = r.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100);
        let shares = layer_shares(&r);
        assert_eq!(shares[0], ("harness".to_string(), 50));
        assert_eq!(shares[1], ("x".to_string(), 40));
        assert_eq!(shares[2], ("y".to_string(), 10));
    }

    #[test]
    fn probe_nests_and_is_transparent_when_off() {
        let mut off = Probe::new(false);
        assert_eq!(off.span("a.b", |p| p.span("c.d", |_| 7)), 7);
        assert!(off.spans.is_empty());

        let mut on = Probe::new(true);
        on.set_tick(5);
        let v = on.span(TICK, |p| p.span_n("a.b", 3, |_| 1) + p.span("c.d", |_| 2));
        assert_eq!(v, 3);
        assert_eq!(on.spans.len(), 3);
        assert_eq!(on.spans[0].parent, None);
        assert_eq!(on.spans[1].parent, Some(0));
        assert_eq!(on.spans[2].parent, Some(0));
        assert_eq!(on.spans[1].calls, 3);
        assert!(on
            .spans
            .iter()
            .all(|s| s.tick == 5 && s.end_ns >= s.start_ns));
        assert!(on.spans[0].end_ns >= on.spans[2].end_ns);
    }

    #[test]
    fn trace_json_shape() {
        let spans = vec![span(TICK, None, 0, 9), span("a.b", Some(0), 1, 2)];
        let j = to_json("w", 3, &spans, "{}");
        assert!(j.starts_with("{\"workload\": \"w\", \"seed\": 3, \"spans\": [{\"name\": \"tick\""));
        assert!(j.contains("\"parent\": null"));
        assert!(j.contains("\"parent\": 0"));
        assert!(j.ends_with("\"registry\": {}}"));
    }
}
