//! In-memory span recorder for the traced run.
//!
//! The benchmark measures layers from outside: it wraps every call it
//! makes into a crate (`Entry::run`, `build_chain`, `run_until`, one
//! socket request, …) in a span — name, start, end, parent, pass id —
//! kept in a `Vec` and written once when the run ends. Nothing here runs
//! during an untraced run, so end-to-end numbers never pay for it; the
//! traced run reports what it cost as `trace.overhead_frac`.
//!
//! A span's **self time** is its duration minus the part of its interval
//! its children cover. Children may overlap (two client threads inside
//! one throughput phase), so the covered part is the length of the
//! *union* of the child intervals, clipped to the parent.

use std::time::Instant;

/// Index of a span inside its [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Pass (or serve round) the span belongs to.
    pub pass: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a recorder's spans.
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotal {
    /// Span name.
    pub name: String,
    /// Spans with that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    pass: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Tag every span opened from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let now = self.ns(Instant::now());
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — that would silently
    /// re-parent every span opened afterwards.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "span closed out of order");
        self.spans[id.0].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Add an already-measured interval as a child of the innermost open
    /// span: for calls timed where the recorder cannot be borrowed (a
    /// `Fn` builder closure, a client thread).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            pass: self.pass,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.duration_ns() - union_len(&mut kids))
            .collect()
    }

    /// Totals per span name, in order of first appearance.
    pub fn totals_by_name(&self) -> Vec<NameTotal> {
        let selfs = self.self_times_ns();
        let mut out: Vec<NameTotal> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += s.duration_ns();
                    t.self_ns += self_ns;
                }
                None => out.push(NameTotal {
                    name: s.name.clone(),
                    count: 1,
                    total_ns: s.duration_ns(),
                    self_ns,
                }),
            }
        }
        out
    }

    /// Sum of the self times of the spans under (and including) the root
    /// spans named `root`, over the summed duration of those roots. 1.0
    /// exactly when every nanosecond of each root is attributed to exactly
    /// one span; overlapping children (parallel clients) push it above 1.
    pub fn self_sum_frac(&self, root: &str) -> f64 {
        let selfs = self.self_times_ns();
        let mut under = vec![false; self.spans.len()];
        let mut root_ns = 0u64;
        let mut self_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            under[i] = match s.parent {
                Some(SpanId(p)) => under[p],
                None => s.name == root,
            };
            if under[i] {
                self_ns += selfs[i];
                if s.parent.is_none() {
                    root_ns += s.duration_ns();
                }
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            self_ns as f64 / root_ns as f64
        }
    }

    /// The whole recording as one JSON document: the span list (with self
    /// times) and the per-name totals.
    pub fn to_json(&self) -> String {
        use crate::json::escape;
        let selfs = self.self_times_ns();
        let mut out = String::from("{\n  \"unit\": \"ns\",\n  \"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = match s.parent {
                Some(SpanId(p)) => p.to_string(),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"parent\": {parent}, \"pass\": {}, \"self\": {self_ns}}}{}\n",
                escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.pass,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"by_name\": [\n");
        let totals = self.totals_by_name();
        for (i, t) in totals.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"total\": {}, \"self\": {}}}{}\n",
                escape(&t.name),
                t.count,
                t.total_ns,
                t.self_ns,
                if i + 1 == totals.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Total length covered by a set of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A recorder with hand-placed spans: `(name, start, end, parent)`.
    fn synthetic(spans: &[(&str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new();
        for &(name, start_ns, end_ns, parent) in spans {
            r.spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns,
                parent: parent.map(SpanId),
                pass: 1,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // pass [0,100): clients a [10,60) and b [40,90) overlap on [40,60),
        // so they cover 80, not 100; a has a grandchild [20,30).
        let r = synthetic(&[
            ("pass", 0, 100, None),
            ("client", 10, 60, Some(0)),
            ("client", 40, 90, Some(0)),
            ("request", 20, 30, Some(1)),
        ]);
        assert_eq!(r.self_times_ns(), vec![20, 40, 50, 10]);
        let totals = r.totals_by_name();
        assert_eq!(totals.len(), 3);
        assert_eq!(
            totals[1],
            NameTotal {
                name: "client".into(),
                count: 2,
                total_ns: 100,
                self_ns: 90,
            }
        );
        // 120 ns of self time over a 100 ns root: the overlap is counted
        // once per client, which is what "busy" means for parallel spans.
        assert!((r.self_sum_frac("pass") - 1.2).abs() < 1e-12);
    }

    #[test]
    fn sequential_children_account_for_the_root_exactly() {
        let r = synthetic(&[
            ("pass", 0, 100, None),
            ("build", 0, 30, Some(0)),
            ("run", 30, 95, Some(0)),
            ("probe", 200, 300, None),
        ]);
        assert_eq!(r.self_times_ns(), vec![5, 30, 65, 100]);
        assert_eq!(r.self_sum_frac("pass"), 1.0);
        assert_eq!(r.self_sum_frac("absent"), 0.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that (by clock skew between threads) ends after its
        // parent cannot make the parent's self time negative.
        let r = synthetic(&[("pass", 10, 50, None), ("late", 40, 70, Some(0))]);
        assert_eq!(r.self_times_ns()[0], 30);
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut r = Recorder::new();
        r.set_pass(3);
        let before = Instant::now();
        r.span("outer", |r| {
            r.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            let t = Instant::now();
            r.record("measured elsewhere", t, t + Duration::from_millis(1));
        });
        assert!(before.elapsed() >= Duration::from_millis(2));
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(SpanId(0)));
        assert_eq!(s[2].parent, Some(SpanId(0)));
        assert!(s.iter().all(|s| s.pass == 3));
        assert!(s[1].duration_ns() >= 2_000_000);
        assert!(s[0].duration_ns() >= s[1].duration_ns());
        let doc = crate::json::parse(&r.to_json()).expect("trace file is valid JSON");
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("by_name").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new();
        let a = r.enter("a");
        let _b = r.enter("b");
        r.exit(a);
    }
}
