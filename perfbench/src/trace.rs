//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public functions: name, start, end, the enclosing
//! span, and the id of the op they belong to. They stay in memory and are
//! written out once, after the run. With tracing off, [`Tracer::span`] is a
//! single branch around the call.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The workspace layers spans are attributed to, plus `bench` for the
/// harness's own code. A span belongs to the longest layer its name starts
/// with (`chain.classify.uncle_events` → `chain.classify`).
pub const LAYERS: [&str; 11] = [
    "sim.engine",
    "sim.delay",
    "net",
    "chain.forkchoice",
    "chain.classify",
    "chain.accounting",
    "mdp.policy",
    "mdp.solver",
    "core",
    "markov",
    "bench",
];

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called, prefixed by its layer.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this call was made for; shared by all spans of one op.
    pub op: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every span a plain call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute the following spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Write the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                layer_of(s.name),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to (see [`LAYERS`]); `bench` when none
/// matches.
pub fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .filter(|layer| {
            name.strip_prefix(*layer)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .max_by_key(|layer| layer.len())
        .copied()
        .unwrap_or("bench")
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, over every layer in [`LAYERS`].
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(layer_of(s.name)).or_insert(0) += own;
    }
    totals
}

/// Summed duration and call count of the spans called `name`.
pub fn name_total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span("bench.op", 0, 100, None),
            span("sim.engine.step", 10, 40, Some(0)),
            span("sim.engine.step", 40, 70, Some(0)),
            span("sim.engine.finalize", 80, 95, Some(0)),
            // A grandchild is subtracted from its parent only.
            span("chain.classify.uncle_events", 85, 90, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![25, 30, 30, 10, 5]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 25);
        assert_eq!(layers["sim.engine"], 70);
        assert_eq!(layers["chain.classify"], 5);
        assert_eq!(layers["net"], 0);
        let total: u64 = layers.values().sum();
        assert_eq!(total, 100, "self times partition the root's wall time");
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("bench.op", 0, 100, None),
            span("net.propagate", 10, 60, Some(0)),
            span("net.propagate", 50, 120, Some(0)),
        ];
        // Children cover [10, 100) of the parent's interval.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn names_map_to_their_longest_layer() {
        assert_eq!(layer_of("chain.classify.uncle_events"), "chain.classify");
        assert_eq!(layer_of("core.chain_model.build_dtmc"), "core");
        assert_eq!(layer_of("net.propagate"), "net");
        assert_eq!(layer_of("network.other"), "bench");
        assert_eq!(layer_of("markov"), "markov");
    }

    #[test]
    fn spans_nest_and_share_the_op_id() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        let value = tr.span("bench.op", |tr| tr.span("mdp.solver.solve", |_| 3));
        assert_eq!(value, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(name_total(spans, "mdp.solver.solve").1, 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("bench.op", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
