//! The benchmark's own span tracer.
//!
//! Spans are recorded around public calls into the library: name,
//! start, end, parent and the op they belong to. They stay in memory
//! during a pass and are written out afterwards. A span opened as a
//! *shadow* (a re-run made only to measure or cross-check, never part
//! of the real event path) tags its whole subtree; shadow time is
//! reported apart from layer self time. Trace files of two commits are
//! compared by span name with `--diff`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Index into [`Tracer::names`].
    pub name: u16,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op (input event or slice) the span belongs to.
    pub op: u64,
    /// Whether the span is (inside) a shadow re-run.
    pub shadow: bool,
}

/// Time per span name, split into real-path self time and shadow time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Self seconds of real-path spans (children, shadow or not,
    /// subtracted).
    pub self_s: BTreeMap<String, f64>,
    /// Self seconds of shadow spans.
    pub shadow_s: BTreeMap<String, f64>,
}

impl Profile {
    /// Total real-path time: every non-shadow span's self time.
    pub fn real_s(&self) -> f64 {
        self.self_s.values().sum()
    }
}

/// An in-memory span recorder. [`Tracer::off`] records nothing and
/// costs one branch per span.
pub struct Tracer {
    on: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id stamped on subsequently opened spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A span is a shadow
    /// if `shadow` is set or its parent is one.
    pub fn enter(&mut self, name: &'static str, shadow: bool) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let shadow = shadow || (parent != NO_PARENT && self.spans[parent as usize].shadow);
        let rec = SpanRec {
            name: self.intern(name),
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
            shadow,
        };
        let idx = self.spans.len() as u32;
        self.spans.push(rec);
        self.stack.push(idx);
        // Stamp last so interning and bookkeeping stay outside the span.
        self.spans[idx as usize].start_ns = self.now_ns();
        idx
    }

    /// Closes the span `idx` (must be the innermost open one).
    pub fn exit(&mut self, idx: u32) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, false);
        let out = f();
        self.exit(s);
        out
    }

    /// Span names, indexed by [`SpanRec::name`].
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Forgets every recorded span (names stay interned).
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// Self time per span name: each span's duration minus the
    /// durations of its direct children.
    pub fn profile(&self) -> Profile {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut p = Profile::default();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9;
            let map = if s.shadow {
                &mut p.shadow_s
            } else {
                &mut p.self_s
            };
            *map.entry(self.names[s.name as usize].to_string())
                .or_default() += own;
        }
        p
    }

    /// Serializes the recorded spans as a JSON array of
    /// `[name, start_ns, end_ns, parent, op, shadow]` rows.
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 40 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "[{},{},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.op, s.shadow as u8
            );
        }
        out.push(']');
        out
    }
}

/// Ranks span names by self-time change between two trace files
/// (`self_s` and `shadow_s` maps); returns `(name, a, b)` rows sorted
/// by descending `|b - a|`.
pub fn diff(a: &minim_sim::json::Json, b: &minim_sim::json::Json) -> Vec<(String, f64, f64)> {
    let read = |doc: &minim_sim::json::Json| -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for (key, prefix) in [("self_s", ""), ("shadow_s", "shadow:")] {
            if let Some(minim_sim::json::Json::Obj(pairs)) = doc.get(key) {
                for (name, v) in pairs {
                    m.insert(format!("{prefix}{name}"), v.as_f64().unwrap_or(0.0));
                }
            }
        }
        m
    };
    let (ma, mb) = (read(a), read(b));
    let mut names: Vec<&String> = ma.keys().chain(mb.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<(String, f64, f64)> = names
        .into_iter()
        .map(|n| {
            (
                n.clone(),
                ma.get(n).copied().unwrap_or(0.0),
                mb.get(n).copied().unwrap_or(0.0),
            )
        })
        .collect();
    rows.sort_by(|x, y| (y.2 - y.1).abs().total_cmp(&(x.2 - x.1).abs()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: u16, start_ns: u64, end_ns: u64, parent: u32, shadow: bool) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            shadow,
        }
    }

    /// A tracer preloaded with fixed spans, so self times are exact.
    fn fixed(names: Vec<&'static str>, spans: Vec<SpanRec>) -> Tracer {
        Tracer {
            names,
            spans,
            ..Tracer::on()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ⊃ a [10,50] ⊃ b [20,30]; op ⊃ c [60,90] (shadow).
        let t = fixed(
            vec!["op", "a", "b", "c"],
            vec![
                rec(0, 0, 100, NO_PARENT, false),
                rec(1, 10, 50, 0, false),
                rec(2, 20, 30, 1, false),
                rec(3, 60, 90, 0, true),
            ],
        );
        let p = t.profile();
        let ns = |v: f64| (v * 1e9).round() as u64;
        assert_eq!(ns(p.self_s["op"]), 100 - 40 - 30);
        assert_eq!(ns(p.self_s["a"]), 40 - 10);
        assert_eq!(ns(p.self_s["b"]), 10);
        assert!(!p.self_s.contains_key("c"));
        assert_eq!(ns(p.shadow_s["c"]), 30);
        assert_eq!(ns(p.real_s()), 100 - 30);
    }

    #[test]
    fn same_name_accumulates_across_ops_and_shadow_is_inherited() {
        let mut t = Tracer::on();
        for op in 0..3 {
            t.set_op(op);
            t.time("op", || ());
        }
        let outer = t.enter("check", true);
        t.time("inner", || ());
        t.exit(outer);
        assert_eq!(t.spans.len(), 5);
        assert!(t.spans[4].shadow, "child of a shadow span is a shadow");
        assert_eq!(t.spans[2].op, 2);
        let p = t.profile();
        assert!(p.self_s.contains_key("op") && !p.self_s.contains_key("inner"));
        assert!(p.shadow_s.contains_key("inner"));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.time("x", || 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn diff_ranks_by_absolute_change() {
        let a =
            minim_sim::json::parse(r#"{"self_s":{"x":1.0,"y":2.0},"shadow_s":{"g":1.0}}"#).unwrap();
        let b =
            minim_sim::json::parse(r#"{"self_s":{"x":1.5,"z":0.1},"shadow_s":{"g":4.0}}"#).unwrap();
        let rows = diff(&a, &b);
        let names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(names, ["shadow:g", "y", "x", "z"]);
    }
}
