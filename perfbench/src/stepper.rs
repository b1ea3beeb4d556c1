//! The traced cell driver: runs one (trace × scheme) cell through the
//! `Simulator` stepping API in exactly the order `Simulator::run_source`
//! uses — a whole-trace profiling pass, a rewind, then always stepping the
//! core whose clock is furthest behind (ties to the lowest core), with the
//! same batched dispatch — so its report must equal the untraced one byte
//! for byte.
//!
//! Each `step` is timed and charged to a bucket by the `ServedBy` it
//! returns: L1 (`lad-cache`), replica (`lad-replication`), home
//! (`lad-coherence` + `lad-noc`) and off-chip (`lad-dram`).  Trace reads go
//! through [`Timed`], which charges them to `lad-traceio`.

use std::time::Instant;

use lad_common::types::{CoreId, MemoryAccess};
use lad_sim::engine::{ServedBy, Simulator};
use lad_sim::metrics::SimulationReport;
use lad_sim::CoreScheduler;
use lad_traceio::error::TraceError;
use lad_traceio::source::TraceSource;

use crate::spans::{Recorder, DRIVER};

const LAYER_PROFILE: &str = "lad-sim.profile";
const LAYER_REPORT: &str = "lad-sim.report";
pub const LAYER_DECODE: &str = "lad-traceio.decode";
/// The engine's scheduling loop outside `step`: picking the core furthest
/// behind and refilling its pending access (decode excluded), plus the
/// clock reads of the tracing itself.
const LAYER_SCHEDULE: &str = "lad-sim.schedule";
/// Step buckets, indexed by [`bucket`].
pub const BUCKETS: [&str; 4] = ["l1", "replica", "home", "offchip"];
const LAYER_STEP: [&str; 4] = [
    "lad-sim.step.l1",
    "lad-sim.step.replica",
    "lad-sim.step.home",
    "lad-sim.step.offchip",
];

/// Steps per "step batch" span.
const STEP_BATCH: u64 = 1 << 16;

fn nanos(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

fn bucket(served_by: ServedBy) -> usize {
    match served_by {
        ServedBy::L1 => 0,
        ServedBy::LlcReplica => 1,
        ServedBy::LlcHome => 2,
        ServedBy::OffChip => 3,
    }
}

/// Step counts and host nanoseconds per bucket.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepStats {
    pub steps: [u64; 4],
    pub ns: [u64; 4],
}

impl StepStats {
    pub fn merge(&mut self, other: &StepStats) {
        for i in 0..4 {
            self.steps[i] += other.steps[i];
            self.ns[i] += other.ns[i];
        }
    }
}

/// A [`TraceSource`] that accumulates the host time spent inside every
/// call of the source it wraps.
pub struct Timed<S> {
    inner: S,
    ns: u64,
}

impl<S: TraceSource> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed { inner, ns: 0 }
    }

    fn time<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.ns += nanos(started.elapsed());
        out
    }
}

impl<S: TraceSource> TraceSource for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn rewind(&mut self) -> Result<(), TraceError> {
        self.time(|s| s.rewind())
    }

    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError> {
        self.time(|s| s.next_for_core(core))
    }

    fn next_access(&mut self) -> Result<Option<MemoryAccess>, TraceError> {
        self.time(|s| s.next_access())
    }
}

/// Host time a source has spent decoding so far; zero for sources whose
/// reads are not worth charging to a layer (in-memory traces).
pub trait SourceClock {
    fn source_ns(&self) -> u64;
}

impl<S> SourceClock for Timed<S> {
    fn source_ns(&self) -> u64 {
        self.ns
    }
}

impl SourceClock for lad_traceio::source::MemorySource<'_> {
    fn source_ns(&self) -> u64 {
        0
    }
}

/// Runs one cell under span `parent`: `make` builds the simulator inside
/// the profile phase.  Adds the per-bucket step statistics to `stats`.
pub fn run_cell<S: TraceSource + SourceClock>(
    make: impl FnOnce() -> Simulator,
    source: &mut S,
    rec: &mut Recorder,
    parent: usize,
    group: u64,
    stats: &mut StepStats,
) -> Result<SimulationReport, TraceError> {
    let num_cores = source.num_cores();
    let name = source.name().to_string();

    let profile = rec.open("profile", LAYER_PROFILE, group, Some(parent));
    let decoded = source.source_ns();
    let mut sim = make();
    sim.begin(&name, num_cores);
    source.rewind()?;
    while let Some(access) = source.next_access()? {
        sim.profile_access(&access);
    }
    source.rewind()?;
    rec.aggregate(profile, LAYER_DECODE, source.source_ns() - decoded);
    rec.close(profile);

    let mut batch = Batch::open(rec, group, parent, source.source_ns());
    let mut pending: Vec<Option<MemoryAccess>> = Vec::with_capacity(num_cores);
    let mut scheduler = CoreScheduler::with_capacity(num_cores);
    for core in 0..num_cores {
        let access = source.next_for_core(CoreId::new(core))?;
        if access.is_some() {
            scheduler.push(core, sim.core_clock(CoreId::new(core)));
        }
        pending.push(access);
    }
    let mut current = scheduler.pop();
    // One clock read per phase boundary: [step) [refill + schedule) and
    // the end of one is the start of the next.
    let mut stepped = Instant::now();
    while let Some(core) = current {
        let Some(access) = pending[core].take() else {
            unreachable!("scheduled cores always have a pending access");
        };
        let outcome = std::hint::black_box(sim.step(&access));
        let scheduling = Instant::now();
        let b = bucket(outcome.served_by);
        batch.stats.steps[b] += 1;
        batch.stats.ns[b] += nanos(scheduling - stepped);
        pending[core] = source.next_for_core(CoreId::new(core))?;
        let clock = sim.core_clock(CoreId::new(core));
        current = if pending[core].is_none() {
            scheduler.pop()
        } else if scheduler.runs_next(core, clock) {
            Some(core)
        } else {
            scheduler.push(core, clock);
            scheduler.pop()
        };
        stepped = Instant::now();
        batch.schedule_ns += nanos(stepped - scheduling);
        batch.len += 1;
        if batch.len == STEP_BATCH {
            batch.close(rec, source.source_ns(), stats);
            batch = Batch::open(rec, group, parent, source.source_ns());
        }
    }
    batch.close(rec, source.source_ns(), stats);

    Ok(rec.scope("report", LAYER_REPORT, group, Some(parent), |_| {
        sim.report()
    }))
}

/// One open "step batch" span and the statistics gathered inside it.
struct Batch {
    span: usize,
    decoded: u64,
    len: u64,
    stats: StepStats,
    /// Refill and scheduling time, trace decode included.
    schedule_ns: u64,
}

impl Batch {
    fn open(rec: &mut Recorder, group: u64, parent: usize, decoded: u64) -> Batch {
        Batch {
            span: rec.open("step-batch", DRIVER, group, Some(parent)),
            decoded,
            len: 0,
            stats: StepStats::default(),
            schedule_ns: 0,
        }
    }

    fn close(self, rec: &mut Recorder, decoded: u64, total: &mut StepStats) {
        for (layer, ns) in LAYER_STEP.iter().zip(self.stats.ns) {
            rec.aggregate(self.span, layer, ns);
        }
        let decode_ns = decoded - self.decoded;
        rec.aggregate(self.span, LAYER_DECODE, decode_ns);
        rec.aggregate(
            self.span,
            LAYER_SCHEDULE,
            self.schedule_ns.saturating_sub(decode_ns),
        );
        rec.close(self.span);
        total.merge(&self.stats);
    }
}

/// Adds the `sim.*` and `traceio.decode_s` per-layer metrics from the
/// step statistics and the self-time table of the traced phase.
pub fn sim_metrics(
    stats: &StepStats,
    self_times: &std::collections::BTreeMap<&'static str, u64>,
    out: &mut crate::Metrics,
) {
    let seconds = |layer: &str| self_times.get(layer).copied().unwrap_or(0) as f64 * 1e-9;
    out.set("sim.profile_s", seconds(LAYER_PROFILE));
    out.set("sim.report_s", seconds(LAYER_REPORT));
    out.set("sim.schedule_s", seconds(LAYER_SCHEDULE));
    out.set("traceio.decode_s", seconds(LAYER_DECODE));
    out.set("sim.step_s", stats.ns.iter().sum::<u64>() as f64 * 1e-9);
    for (i, name) in BUCKETS.iter().enumerate() {
        out.set(&format!("sim.steps.{name}"), stats.steps[i] as f64);
        let per_step = stats.ns[i] as f64 / stats.steps[i].max(1) as f64;
        out.set(&format!("sim.step_ns.{name}"), per_step);
    }
}
