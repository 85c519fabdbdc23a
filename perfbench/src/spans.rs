//! The benchmark's own host-time spans.
//!
//! The traced pass wraps every call it times into a library layer in a
//! span (name, start, end, parent). Spans are held in memory and written
//! out as one Chrome trace when the pass ends; layer figures are span
//! *self* times: a span's duration minus the part of it its children
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

use wadc_obs::json::Json;

/// One closed or open span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-call name.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the origin (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span; returns
    /// its duration in ns.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The spans as a Chrome trace (complete `X` events in µs, one lane;
    /// the parent index rides in `args`).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = Json::obj().field("id", i);
                let args = match s.parent {
                    Some(p) => args.field("parent", p),
                    None => args,
                };
                Json::obj()
                    .field("name", s.name)
                    .field("cat", s.name.split('.').next().unwrap_or(s.name))
                    .field("ph", "X")
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .field("pid", 0)
                    .field("tid", 0)
                    .field("args", args)
            })
            .collect();
        Json::obj()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        s.spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                name: "c",
                start_ns: 60,
                end_ns: 70,
                parent: Some(2),
            },
        ];
        assert_eq!(s.self_times(), vec![40, 20, 30, 10]);
        let t = s.totals();
        assert_eq!(
            t["b"],
            Totals {
                count: 2,
                total_ns: 60,
                self_ns: 50
            }
        );
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut s = Spans::new();
        s.time("outer", |s| s.time("inner", |_| ()));
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[0].parent, None);
    }
}
