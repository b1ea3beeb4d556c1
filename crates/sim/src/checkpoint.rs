//! Mid-stream engine checkpoints: a plain-data snapshot of every piece of
//! mutable simulator state plus the per-core stream cursor, with exact JSON
//! round-tripping through [`lad_common::json`].
//!
//! Two things are deliberately **not** serialized:
//!
//! * the R-NUCA home map and the per-line data classes — both are rebuilt by
//!   re-running the profiling pass on resume (`profile_access` is their only
//!   writer and converges to the same state in any complete order), and
//! * the per-core pending accesses — [`EngineCheckpoint::consumed`] counts
//!   the accesses each core has *stepped*, so resume fast-forwards each
//!   core's stream by that many accesses and re-fetches the pending window
//!   from the (deterministic) source.
//!
//! Full-range `u64` values (RNG state, cache tags, line indices) are encoded
//! as `"0x…"` hex strings ([`Hex`]): [`JsonValue`] numbers are `f64` and
//! would silently lose bits above 2^53.
//!
//! [`EngineCheckpoint::from_json`] reports *structural* problems (missing or
//! mistyped fields) as errors.  *Semantic* invariant violations — sharer
//! lists over budget, duplicate classifier entries, occupied-slot clashes —
//! panic inside the validating restore constructors of the lower crates:
//! checkpoints are produced by [`Simulator::capture_checkpoint`] and a
//! structurally well-formed document that violates protocol invariants means
//! the file was tampered with, not malformed.

use lad_cache::CacheState;
use lad_coherence::ackwise::AckwiseSharers;
use lad_coherence::directory::DirectoryEntry;
use lad_coherence::mesi::MesiState;
use lad_common::json::{elements, field, field_with, items, Hex, Json, JsonValue};
use lad_common::types::{CacheLine, CoreId, Cycle, DataClass};
use lad_dram::DramControllerState;
use lad_energy::accounting::EnergyAccounting;
use lad_noc::{LinkState, NetworkState};
use lad_replication::classifier::{
    ClassifierKind, LocalityClassifier, ReplicationMode, TrackedCore,
};
use lad_replication::counter::SaturatingCounter;
use lad_replication::entry::{HomeEntry, LlcEntry, ReplicaEntry};

use crate::metrics::{ClassifierStats, LatencyBreakdown, MissBreakdown, RunLengthProfile};

#[cfg(doc)]
use crate::Simulator;

/// Snapshot of one tile: core clock plus the three cache arrays.
#[derive(Debug, Clone)]
pub struct TileCheckpoint {
    /// The core's local clock.
    pub clock: Cycle,
    /// The L1 instruction cache.
    pub l1i: CacheState<MesiState>,
    /// The L1 data cache.
    pub l1d: CacheState<MesiState>,
    /// The LLC slice (home lines and replicas).
    pub llc: CacheState<LlcEntry>,
}

/// A resumable mid-stream snapshot of a [`Simulator`].
///
/// Captured by [`Simulator::capture_checkpoint`] at a scheduling-loop
/// boundary; [`Simulator::resume_source`] continues the run from it with
/// results byte-identical to never having stopped.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    /// Benchmark (stream) name — resume validates it against the source.
    pub benchmark: String,
    /// Cores the stream spans.
    pub num_cores: usize,
    /// Scheme label — resume validates it against the simulator.
    pub scheme: String,
    /// The replication threshold RT the classifier state was captured under.
    pub replication_threshold: u32,
    /// Classifier capacity: `None` = Complete, `Some(k)` = Limited_k.
    pub classifier_capacity: Option<usize>,
    /// Per-tile state, in core order (all tiles, not just active cores).
    pub tiles: Vec<TileCheckpoint>,
    /// Network link occupancy and traffic statistics.
    pub network: NetworkState,
    /// Per-controller DRAM state.
    pub dram: Vec<DramControllerState>,
    /// The deterministic RNG's word state.
    pub rng: [u64; 4],
    /// Dynamic energy accumulated so far (cache/directory events only; the
    /// network and DRAM components are re-derived from their event counts).
    pub energy: EnergyAccounting,
    /// Completion-time components accumulated so far.
    pub latency: LatencyBreakdown,
    /// L1 miss breakdown accumulated so far.
    pub misses: MissBreakdown,
    /// Run-length profile, including still-open runs.
    pub run_lengths: RunLengthProfile,
    /// Per-line home-serialization horizon, sorted by line.
    pub line_busy_until: Vec<(CacheLine, Cycle)>,
    /// Total LLC replicas created.
    pub replicas_created: u64,
    /// Total back-invalidations from LLC evictions.
    pub back_invalidations: u64,
    /// Total accesses stepped.
    pub total_accesses: u64,
    /// Capture-time classifier variance totals (retired + live).  The
    /// per-entry diagnostic counters are *not* serialized — restored
    /// classifiers restart at the `from_snapshot` baseline and these
    /// totals seed the simulator's retired accumulators instead.
    pub classifier: ClassifierStats,
    /// Accesses each core has stepped — the stream cursor used to
    /// fast-forward the source on resume.
    pub consumed: Vec<u64>,
}

fn cache_to_json<V>(state: &CacheState<V>, encode: impl Fn(&V) -> JsonValue) -> JsonValue {
    let slots = state
        .slots
        .iter()
        .map(|(slot, tag, stamp, value)| {
            JsonValue::Array(vec![
                slot.to_json(),
                Hex(*tag).to_json(),
                stamp.to_json(),
                encode(value),
            ])
        })
        .collect();
    JsonValue::object([
        ("clock", state.clock.to_json()),
        ("hits", state.hits.to_json()),
        ("misses", state.misses.to_json()),
        ("evictions", state.evictions.to_json()),
        ("slots", JsonValue::Array(slots)),
    ])
}

fn cache_from_json<V>(
    value: &JsonValue,
    decode: impl Fn(&JsonValue) -> Result<V, String>,
) -> Result<CacheState<V>, String> {
    let slot_from_json = |slot: &JsonValue| {
        let [index, tag, stamp, payload] = elements(slot)?;
        Ok((
            usize::from_json(index)?,
            Hex::from_json(tag)?.0,
            u64::from_json(stamp)?,
            decode(payload)?,
        ))
    };
    Ok(CacheState {
        slots: field_with(value, "slots", |slots| items(slots, slot_from_json))?,
        clock: field(value, "clock")?,
        hits: field(value, "hits")?,
        misses: field(value, "misses")?,
        evictions: field(value, "evictions")?,
    })
}

fn llc_entry_to_json(entry: &LlcEntry) -> JsonValue {
    match entry {
        LlcEntry::Home(home) => {
            let sharers = home.directory.sharers();
            let tracked = sharers.tracked().iter().map(Json::to_json).collect();
            let classifier = home
                .classifier
                .snapshot()
                .iter()
                .map(|t| (t.core, t.mode.allows_replica(), t.home_reuse, t.active).to_json())
                .collect();
            JsonValue::object([
                ("kind", JsonValue::from("home")),
                ("dirty", home.dirty.to_json()),
                ("owner", home.directory.owner().to_json()),
                ("max_pointers", sharers.max_pointers().to_json()),
                ("tracked", JsonValue::Array(tracked)),
                ("global", sharers.is_global().to_json()),
                ("sharer_count", sharers.count().to_json()),
                ("classifier", JsonValue::Array(classifier)),
            ])
        }
        LlcEntry::Replica(replica) => JsonValue::object([
            ("kind", JsonValue::from("replica")),
            ("state", replica.state.to_json()),
            ("dirty", replica.dirty.to_json()),
            ("l1_copy", replica.l1_copy.to_json()),
            ("reuse", replica.reuse.value().to_json()),
        ]),
    }
}

fn llc_entry_from_json(
    value: &JsonValue,
    rt: u32,
    kind: ClassifierKind,
) -> Result<LlcEntry, String> {
    match field::<String>(value, "kind")?.as_str() {
        "home" => {
            let tracked: Vec<CoreId> = field(value, "tracked")?;
            let sharers = AckwiseSharers::from_parts(
                field(value, "max_pointers")?,
                &tracked,
                field(value, "global")?,
                field(value, "sharer_count")?,
            );
            let classifier: Vec<(CoreId, bool, u32, bool)> = field(value, "classifier")?;
            let entries: Vec<TrackedCore> = classifier
                .into_iter()
                .map(|(core, replica, home_reuse, active)| TrackedCore {
                    core,
                    mode: if replica {
                        ReplicationMode::Replica
                    } else {
                        ReplicationMode::NonReplica
                    },
                    home_reuse,
                    active,
                })
                .collect();
            Ok(LlcEntry::Home(HomeEntry {
                directory: DirectoryEntry::from_parts(sharers, field(value, "owner")?),
                classifier: LocalityClassifier::from_snapshot(kind, rt, &entries),
                dirty: field(value, "dirty")?,
            }))
        }
        "replica" => Ok(LlcEntry::Replica(ReplicaEntry {
            state: field(value, "state")?,
            reuse: SaturatingCounter::with_value(rt, field(value, "reuse")?),
            l1_copy: field(value, "l1_copy")?,
            dirty: field(value, "dirty")?,
        })),
        kind => Err(format!("unknown LLC entry kind {kind:?}")),
    }
}

fn network_to_json(state: &NetworkState) -> JsonValue {
    let links = state
        .links
        .iter()
        .map(|link| (link.busy_until, link.flits).to_json())
        .collect();
    JsonValue::object([
        ("links", JsonValue::Array(links)),
        ("messages", state.messages.to_json()),
        ("control_messages", state.control_messages.to_json()),
        ("data_messages", state.data_messages.to_json()),
        ("flit_hops", state.flit_hops.to_json()),
        ("router_traversals", state.router_traversals.to_json()),
        ("latency", state.latency.to_json()),
    ])
}

fn network_from_json(value: &JsonValue) -> Result<NetworkState, String> {
    let links: Vec<(Cycle, u64)> = field(value, "links")?;
    Ok(NetworkState {
        links: links
            .into_iter()
            .map(|(busy_until, flits)| LinkState { busy_until, flits })
            .collect(),
        messages: field(value, "messages")?,
        control_messages: field(value, "control_messages")?,
        data_messages: field(value, "data_messages")?,
        flit_hops: field(value, "flit_hops")?,
        router_traversals: field(value, "router_traversals")?,
        latency: field(value, "latency")?,
    })
}

impl EngineCheckpoint {
    /// The checkpoint as a JSON document.  Numeric state round-trips exactly
    /// through [`EngineCheckpoint::from_json`]; full-range `u64` words are
    /// hex strings (see the module docs).
    pub fn to_json(&self) -> JsonValue {
        let tiles = self
            .tiles
            .iter()
            .map(|tile| {
                JsonValue::object([
                    ("clock", tile.clock.to_json()),
                    ("l1i", cache_to_json(&tile.l1i, Json::to_json)),
                    ("l1d", cache_to_json(&tile.l1d, Json::to_json)),
                    ("llc", cache_to_json(&tile.llc, llc_entry_to_json)),
                ])
            })
            .collect();
        let dram = self
            .dram
            .iter()
            .map(|c| (c.free_at, c.accesses, c.busy_cycles).to_json())
            .collect();
        JsonValue::object([
            ("benchmark", self.benchmark.to_json()),
            ("num_cores", self.num_cores.to_json()),
            ("scheme", self.scheme.to_json()),
            (
                "replication_threshold",
                self.replication_threshold.to_json(),
            ),
            ("classifier_capacity", self.classifier_capacity.to_json()),
            ("tiles", JsonValue::Array(tiles)),
            ("network", network_to_json(&self.network)),
            ("dram", JsonValue::Array(dram)),
            ("rng", self.rng.map(Hex).to_vec().to_json()),
            ("energy", self.energy.to_json()),
            ("latency", self.latency.to_json()),
            ("misses", self.misses.to_json()),
            ("run_lengths", self.run_lengths.to_json()),
            ("open_runs", self.run_lengths.open_runs().to_json()),
            ("line_busy_until", self.line_busy_until.to_json()),
            ("replicas_created", self.replicas_created.to_json()),
            ("back_invalidations", self.back_invalidations.to_json()),
            ("total_accesses", self.total_accesses.to_json()),
            ("classifier", self.classifier.to_json()),
            ("consumed", self.consumed.to_json()),
        ])
    }

    /// Rebuilds a checkpoint from [`EngineCheckpoint::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    ///
    /// # Panics
    ///
    /// Structurally valid documents whose state violates protocol invariants
    /// (sharer lists over budget, duplicate classifier entries, …) panic in
    /// the lower crates' validating constructors — see the module docs.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let replication_threshold = field(value, "replication_threshold")?;
        let classifier_capacity: Option<usize> = field(value, "classifier_capacity")?;
        let kind = classifier_capacity.map_or(ClassifierKind::Complete, ClassifierKind::Limited);
        let tile_from_json = |tile: &JsonValue| {
            let llc_entry =
                |entry: &JsonValue| llc_entry_from_json(entry, replication_threshold, kind);
            Ok(TileCheckpoint {
                clock: field(tile, "clock")?,
                l1i: field_with(tile, "l1i", |cache| {
                    cache_from_json(cache, MesiState::from_json)
                })?,
                l1d: field_with(tile, "l1d", |cache| {
                    cache_from_json(cache, MesiState::from_json)
                })?,
                llc: field_with(tile, "llc", |cache| cache_from_json(cache, llc_entry))?,
            })
        };
        let dram: Vec<(Cycle, u64, u64)> = field(value, "dram")?;
        let rng: Vec<Hex> = field(value, "rng")?;
        let rng: [Hex; 4] = rng.try_into().map_err(|words: Vec<Hex>| {
            format!("rng state must have 4 words, not {}", words.len())
        })?;
        let mut run_lengths: RunLengthProfile = field(value, "run_lengths")?;
        let open_runs: Vec<(CacheLine, CoreId, u64, DataClass)> = field(value, "open_runs")?;
        for (line, core, count, class) in open_runs {
            run_lengths.restore_open_run(line, core, count, class);
        }
        Ok(EngineCheckpoint {
            benchmark: field(value, "benchmark")?,
            num_cores: field(value, "num_cores")?,
            scheme: field(value, "scheme")?,
            replication_threshold,
            classifier_capacity,
            tiles: field_with(value, "tiles", |tiles| items(tiles, tile_from_json))?,
            network: field_with(value, "network", network_from_json)?,
            dram: dram
                .into_iter()
                .map(|(free_at, accesses, busy_cycles)| DramControllerState {
                    free_at,
                    accesses,
                    busy_cycles,
                })
                .collect(),
            rng: rng.map(|Hex(word)| word),
            energy: field(value, "energy")?,
            latency: field(value, "latency")?,
            misses: field(value, "misses")?,
            run_lengths,
            line_busy_until: field(value, "line_busy_until")?,
            replicas_created: field(value, "replicas_created")?,
            back_invalidations: field(value, "back_invalidations")?,
            total_accesses: field(value, "total_accesses")?,
            classifier: field(value, "classifier")?,
            consumed: field(value, "consumed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use lad_common::config::SystemConfig;
    use lad_replication::config::ReplicationConfig;
    use lad_trace::benchmarks::Benchmark;
    use lad_trace::generator::TraceGenerator;
    use lad_traceio::source::MemorySource;

    fn hex(value: u64) -> JsonValue {
        Hex(value).to_json()
    }

    fn parse_hex(value: &JsonValue, _what: &str) -> Result<u64, String> {
        Hex::from_json(value).map(|Hex(word)| word)
    }

    fn captured_checkpoint() -> EngineCheckpoint {
        let trace = TraceGenerator::new(Benchmark::Barnes.profile()).generate(16, 400, 7);
        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        let mut source = MemorySource::new(&trace);
        let mut stop = crate::engine::StopAfter::new(200);
        match sim.run_source_observed(&mut source, Some(&mut stop)) {
            Ok(crate::engine::RunOutcome::Cancelled(checkpoint)) => *checkpoint,
            other => panic!("expected a cancelled run, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_json_roundtrips_exactly() {
        let checkpoint = captured_checkpoint();
        let json = checkpoint.to_json();
        let text = json.pretty();
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed, json);
        let decoded = EngineCheckpoint::from_json(&reparsed).unwrap();
        // Re-encoding the decoded checkpoint must reproduce the document
        // byte-for-byte: the JSON form is canonical (sorted open runs and
        // busy lines, hex words, exact floats), so equality here covers
        // every field — cache slots, RNG words, energy totals, cursors.
        assert_eq!(decoded.to_json().pretty(), text);
        assert_eq!(decoded.consumed, checkpoint.consumed);
        assert_eq!(decoded.total_accesses, checkpoint.total_accesses);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let json = captured_checkpoint().to_json();
        let JsonValue::Object(pairs) = &json else {
            panic!("checkpoint JSON must be an object");
        };
        for i in 0..pairs.len() {
            let mut broken = pairs.clone();
            broken.remove(i);
            assert!(
                EngineCheckpoint::from_json(&JsonValue::Object(broken)).is_err(),
                "dropping field {} must fail",
                pairs[i].0
            );
        }
        assert!(EngineCheckpoint::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn hex_encoding_preserves_full_range_words() {
        for word in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d, 1 << 53] {
            let encoded = hex(word);
            assert_eq!(parse_hex(&encoded, "word"), Ok(word));
        }
        assert!(parse_hex(&JsonValue::from("123"), "word").is_err());
        assert!(parse_hex(&JsonValue::from(123u64), "word").is_err());
    }
}
