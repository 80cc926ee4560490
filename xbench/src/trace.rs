//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions; the program itself is not instrumented. Spans carry
//! a name (`<layer>.<what>`), a start and an end on one monotonic clock,
//! the span they were opened under, and the pass they belong to. They are
//! kept in memory and summarised when the run ends.
//!
//! A specialized run's `profile.*` phase timers give durations but no
//! positions, so [`Tracer::phases`] lays them end to end from the start of
//! the run's span; only their total matters to the parent's self time.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `kernels.verify`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start: u64,
    /// Nanoseconds since the tracer was made.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to (`setup`, `regen`, `scaled`, `store`).
    pub pass: &'static str,
}

/// Records spans when enabled; does nothing but call through otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: Cell<&'static str>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            pass: Cell::new("setup"),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { on: false, ..Tracer::on() }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans recorded from now on with `pass`.
    pub fn set_pass(&self, pass: &'static str) {
        self.pass.set(pass);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_at(name, f).0
    }

    /// [`Tracer::span`], also returning the span's index for
    /// [`Tracer::phases`] (`None` when off).
    pub fn span_at<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.now();
            spans.push(Span { name, start, end: start, parent, pass: self.pass.get() });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.now();
        (out, Some(idx))
    }

    /// Adds child spans of the given durations (ns) under span `parent`,
    /// end to end from its start and clipped to its end.
    pub fn phases(&self, parent: Option<usize>, phases: &[(&'static str, u64)]) {
        let Some(parent) = parent else { return };
        let mut spans = self.spans.borrow_mut();
        let (mut at, end, pass) = (spans[parent].start, spans[parent].end, spans[parent].pass);
        for &(name, ns) in phases {
            let stop = (at + ns).min(end);
            spans.push(Span { name, start: at, end: stop, parent: Some(parent), pass });
            at = stop;
        }
    }

    /// Busy seconds per `(pass, name)`: each span's self time, summed.
    pub fn self_seconds(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let spans = self.spans.borrow();
        let mut out = BTreeMap::new();
        for (i, ns) in self_times(&spans).into_iter().enumerate() {
            *out.entry((spans[i].pass, spans[i].name)).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }
}

/// Self time of every span: its length minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// The part of an untraced pass no layer span accounts for: with it, the
/// layers' self times add up to the untraced pass time exactly.
pub fn unattributed(untraced_pass_s: f64, self_s: &[f64]) -> f64 {
    untraced_pass_s - self_s.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, pass: "regen" }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("sim.run", 0, 100, None),
            span("gpp.io", 10, 40, Some(0)),
            span("lpsu.engine", 30, 60, Some(0)), // overlaps gpp.io by 10
            span("lpsu.scan", 90, 130, Some(0)),  // runs past the parent
            span("inner", 15, 20, Some(1)),       // grandchild: not the root's
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 5, 30, 40, 5]);
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_the_pass() {
        let spans = vec![
            span("kernels.init_memory", 0, 5, None),
            span("sim.specialized", 5, 80, None),
            span("gpp.io", 5, 30, Some(1)),
            span("kernels.verify", 80, 90, None),
        ];
        let self_s: Vec<f64> = self_times(&spans).iter().map(|&ns| ns as f64).collect();
        assert_eq!(self_s.iter().sum::<f64>(), 90.0, "self times tile the traced pass");
        let rest = unattributed(97.0, &self_s);
        assert_eq!(rest, 7.0);
        assert_eq!(self_s.iter().sum::<f64>() + rest, 97.0);
    }

    #[test]
    fn tracer_nests_spans_and_lays_phases_end_to_end() {
        let t = Tracer::on();
        t.set_pass("scaled");
        let ((), run) = t.span_at("sim.specialized", || {
            t.span("kernels.verify", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        t.phases(run, &[("gpp.io", 1_000), ("lpsu.engine", 2_000)]);
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].start, spans[0].start);
        assert_eq!(spans[3].start, spans[2].end);
        assert!(spans.iter().all(|s| s.pass == "scaled"));
        drop(spans);
        let by_name = t.self_seconds();
        assert!(by_name[&("scaled", "kernels.verify")] >= 0.002);
        assert_eq!(by_name[&("scaled", "lpsu.engine")], 2e-6);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span_at("sim.run", || 3), (3, None));
        assert!(t.self_seconds().is_empty());
    }
}
