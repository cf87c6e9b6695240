//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps each call it makes into a layer of the stack in a
//! span. Spans are kept in memory for one pass and aggregated when the
//! pass ends; a disabled recorder costs one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the harness span that groups one cell's layer calls. Every
/// other span name is a layer span.
pub const CELL: &str = "experiments.cell";

/// One recorded interval.
struct Span {
    /// Layer (or harness) name.
    name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    end_ns: u64,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans while enabled; does nothing otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped, also while a panic unwinds.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only if `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that ends when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        let index = state.spans.len();
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        state.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Total seconds per layer-span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in self.state.borrow().spans.iter().filter(|s| s.name != CELL) {
            *totals.entry(span.name).or_insert(0.0) += span.seconds();
        }
        totals
    }

    /// Seconds covered by layer spans that are not nested in another layer
    /// span (so no interval is counted twice).
    pub fn layer_coverage_s(&self) -> f64 {
        let state = self.state.borrow();
        let spans = &state.spans;
        spans
            .iter()
            .filter(|s| s.name != CELL)
            .filter(|s| s.parent.is_none_or(|p| spans[p].name == CELL))
            .map(Span::seconds)
            .sum()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.tracer.now_ns();
        // Never held across user code, so the borrow cannot conflict.
        if let Ok(mut state) = self.tracer.state.try_borrow_mut() {
            state.spans[index].end_ns = end_ns;
            if let Some(pos) = state.open.iter().rposition(|&i| i == index) {
                state.open.truncate(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Tracer::new(false);
        t.time("isa.compress", || ());
        assert!(t.layer_totals().is_empty());
        assert_eq!(t.layer_coverage_s(), 0.0);
    }

    #[test]
    fn nested_layer_spans_are_not_double_counted() {
        let t = Tracer::new(true);
        {
            let _cell = t.span(CELL);
            let _outer = t.span("serve.pricing");
            t.time("sim.machine_new", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        let totals = t.layer_totals();
        assert!(totals["serve.pricing"] >= totals["sim.machine_new"]);
        assert!((t.layer_coverage_s() - totals["serve.pricing"]).abs() < 1e-12);
    }

    #[test]
    fn spans_close_while_unwinding() {
        let t = Tracer::new(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _cell = t.span(CELL);
            t.time("kernels.relu_vec", || panic!("cell failed"));
        }));
        assert!(r.is_err());
        assert!(t.state.borrow().open.is_empty());
        t.time("isa.expand", || ());
        assert_eq!(t.state.borrow().spans.last().unwrap().parent, None);
    }
}
