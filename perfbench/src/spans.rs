//! In-memory span recording for the traced run.
//!
//! Each thread owns a [`Recorder`]; a span carries a name, the layer it
//! is charged to, the id of the cell or job it belongs to, its start and
//! end (nanoseconds since a shared origin) and its parent.  Work too fine
//! to record one span per call (a `Simulator::step`, one trace decode) is
//! aggregated onto the enclosing span as per-layer nanosecond totals.
//!
//! A layer's self time is the duration of its spans minus what their
//! children and aggregates cover, plus the aggregates charged to it, so
//! self times over all layers add up exactly to the duration of the root
//! spans.  The check the benchmark prints is the non-trivial part: how much
//! of the traced wall clock lands on program layers rather than on the
//! benchmark's own driver code (layer [`DRIVER`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::Outcome;

/// Layer charged with the benchmark's own code: worker and cell roots and
/// the stepping loop's bookkeeping.
pub const DRIVER: &str = "bench.driver";

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    /// The cell or job this span belongs to.
    group: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Per-layer time of work aggregated inside this span.
    aggregates: Vec<(&'static str, u64)>,
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    thread: usize,
    /// A disabled recorder reads no clock and keeps nothing, so untraced
    /// code can run through the same calls.
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: usize) -> Self {
        Recorder {
            origin,
            thread,
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        group: u64,
        parent: Option<usize>,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            group,
            parent,
            start_ns: now,
            end_ns: now,
            aggregates: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Charges `ns` of work done inside span `id` to `layer`.
    pub fn aggregate(&mut self, id: usize, layer: &'static str, ns: u64) {
        if ns == 0 || !self.enabled {
            return;
        }
        let aggregates = &mut self.spans[id].aggregates;
        match aggregates.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, total)) => *total += ns,
            None => aggregates.push((layer, ns)),
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.open(name, layer, group, parent);
        let out = f(self);
        self.close(id);
        out
    }
}

/// Self time per layer, in nanoseconds, over any number of recorders.
pub fn self_times(recorders: &[Recorder]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for recorder in recorders {
        let mut covered = vec![0u64; recorder.spans.len()];
        for span in &recorder.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in recorder.spans.iter().zip(covered) {
            let aggregated: u64 = span.aggregates.iter().map(|(_, ns)| ns).sum();
            let own = (span.end_ns - span.start_ns).saturating_sub(covered + aggregated);
            *out.entry(span.layer).or_insert(0) += own;
            for (layer, ns) in &span.aggregates {
                *out.entry(layer).or_insert(0) += ns;
            }
        }
    }
    out
}

/// Allowed gap between the self times of all layers and threads × the
/// traced wall clock: time no span covers (thread start-up, the idle tail
/// of the thread that finished first).
const SELF_TIME_TOLERANCE: f64 = 0.05;

/// Prints the per-layer self-time table of one traced phase, counts a
/// failed check in `out` if the self times of all layers are not within
/// [`SELF_TIME_TOLERANCE`] of `threads × wall_s`, and returns the share
/// they cover.
pub fn print_self_times(
    out: &mut Outcome,
    phase: &str,
    recorders: &[Recorder],
    threads: usize,
    wall_s: f64,
) -> f64 {
    let table = self_times(recorders);
    let capacity_s = threads as f64 * wall_s;
    println!("self time by layer ({phase}, {threads} thread(s), traced wall {wall_s:.3} s):");
    for (layer, ns) in &table {
        let s = *ns as f64 * 1e-9;
        println!(
            "  {layer:<24} {s:>10.4} s  {:>6.2}%",
            100.0 * s / capacity_s
        );
    }
    let all_s: f64 = table.values().map(|ns| *ns as f64 * 1e-9).sum();
    let driver_s = table.get(DRIVER).copied().unwrap_or(0) as f64 * 1e-9;
    let share = all_s / capacity_s;
    let within = (1.0 - share).abs() <= SELF_TIME_TOLERANCE;
    println!(
        "  self times sum to {all_s:.4} s = {:.2}% of threads x traced wall ({capacity_s:.4} s); \
         tolerance {:.0}%: {}; program layers (all but {DRIVER}) {:.2}%",
        100.0 * share,
        100.0 * SELF_TIME_TOLERANCE,
        if within { "within" } else { "OUTSIDE" },
        100.0 * (all_s - driver_s) / capacity_s,
    );
    out.check(within, || {
        format!(
            "self times of {phase} cover {:.2}% of threads x traced wall, outside {:.0}%",
            100.0 * share,
            100.0 * SELF_TIME_TOLERANCE
        )
    });
    share
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for recorder in recorders {
        for (index, span) in recorder.spans.iter().enumerate() {
            let aggregates: Vec<String> = span
                .aggregates
                .iter()
                .map(|(layer, ns)| format!("\"{layer}\":{ns}"))
                .collect();
            writeln!(
                out,
                "{{\"thread\":{},\"span\":{index},\"parent\":{},\"group\":{},\"name\":\"{}\",\
                 \"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"aggregates\":{{{}}}}}",
                recorder.thread,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.group,
                span.name,
                span.layer,
                span.start_ns,
                span.end_ns,
                aggregates.join(",")
            )?;
        }
    }
    out.flush()
}
