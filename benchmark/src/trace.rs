//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from outside the crates (the benchmark wraps each
//! layer call), kept in a `Vec` while measuring, and written out once at
//! exit. A disabled tracer reads no clock and stores nothing, so the same
//! replay loop gives the untraced baseline that `bench.trace_overhead_share`
//! is computed against.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Clock;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Which repetition (or which of the repeated set-ups) the span is of.
    pub rep: u32,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Clone, Copy)]
#[must_use]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    clock: Clock,
    enabled: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(clock: Clock, enabled: bool) -> Tracer {
        Tracer {
            clock,
            enabled,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the repetition stamped on spans entered from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent,
            rep: self.rep,
        });
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.clock.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        self.spans[id as usize].end_ns = end;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name within one repetition: each span's duration
    /// minus the part its children cover.
    pub fn self_ns_by_name(&self, rep: u32) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if s.rep == rep {
                *by_name.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - children;
            }
        }
        by_name
    }

    /// The span list as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.rep
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Clock::start(), true);
        let root = t.enter("root");
        let a = t.enter("leaf");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a);
        let b = t.enter("leaf");
        t.exit(b);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let by = t.self_ns_by_name(0);
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(by["root"] + by["leaf"], total);
        assert!(by["leaf"] >= 2_000_000);
        assert!(t.self_ns_by_name(1).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Clock::start(), false);
        let s = t.enter("x");
        t.exit(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_file_is_json() {
        let mut t = Tracer::new(Clock::start(), true);
        t.set_rep(3);
        let s = t.enter("nic.handle");
        t.exit(s);
        let doc = crate::json::parse(&t.to_json("w")).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("nic.handle"));
        assert_eq!(spans[0].get("rep").unwrap().as_f64(), Some(3.0));
        assert!(spans[0].get("parent").unwrap().is_null());
    }
}
