//! Golden pins of the JSON wire and on-disk formats.
//!
//! `lad-serve` seals every cache entry and checkpoint with a digest of its
//! pretty-printed body, and clients compare served reports against locally
//! computed ones as text, so the JSON encoding must stay byte-stable: a
//! reordered field or a differently rendered number would quarantine every
//! stored artifact.  These tests pin the exact compact text of hand-built
//! values and the FNV-1a fingerprints of run-derived documents.
//!
//! The run-derived digests (report, comparison, checkpoint) also move when
//! the simulated *model* changes — a legitimate change to the numbers, which
//! must update them together with the model version.  They must never move
//! for a change to the codec alone.

use std::path::PathBuf;

use locality_replication::common::config::SystemConfig;
use locality_replication::replication::config::ReplicationConfig;
use locality_replication::replication::scheme::SchemeId;
use locality_replication::serve::cache::CacheKey;
use locality_replication::serve::protocol::{
    fingerprint, fingerprint_hex, JobSpec, SystemPreset, TraceSpec,
};
use locality_replication::sim::checkpoint::EngineCheckpoint;
use locality_replication::sim::engine::{RunOutcome, Simulator, StopAfter};
use locality_replication::sim::experiment::{ExperimentRunner, SchemeComparison};
use locality_replication::sim::metrics::{ClassifierStats, LatencyBreakdown, MissBreakdown};
use locality_replication::trace::benchmarks::Benchmark;
use locality_replication::trace::generator::TraceGenerator;
use locality_replication::trace::suite::BenchmarkSuite;
use locality_replication::traceio::source::MemorySource;

const CORES: usize = 16;
const ACCESSES_PER_CORE: usize = 200;
const SEED: u64 = 7;

fn digest(text: &str) -> String {
    fingerprint_hex(fingerprint(text))
}

#[test]
fn hand_built_values_have_pinned_compact_text() {
    let latency = LatencyBreakdown {
        compute: 1,
        l1_to_llc_replica: 2,
        l1_to_llc_home: 3,
        llc_home_waiting: 4,
        llc_home_to_sharers: 5,
        llc_home_to_offchip: 6,
        synchronization: 1 << 40,
    };
    assert_eq!(
        latency.to_json().to_string(),
        r#"{"Compute":1,"L1-To-LLC-Replica":2,"L1-To-LLC-Home":3,"LLC-Home-Waiting":4,"LLC-Home-To-Sharers":5,"LLC-Home-To-OffChip":6,"Synchronization":1099511627776}"#
    );
    let misses = MissBreakdown {
        l1_hits: 10,
        llc_replica_hits: 11,
        llc_home_hits: 12,
        offchip_misses: 0,
    };
    assert_eq!(
        misses.to_json().to_string(),
        r#"{"l1_hits":10,"llc_replica_hits":11,"llc_home_hits":12,"offchip_misses":0}"#
    );
    let classifier = ClassifierStats {
        mode_flips: 17,
        peak_tracked: 9,
    };
    assert_eq!(
        classifier.to_json().to_string(),
        r#"{"mode_flips":17,"peak_tracked":9}"#
    );
    let key = CacheKey {
        trace: "00112233aabbccdd".into(),
        config: "ffeeddccbbaa0011".into(),
        scheme: "ASR-0.50".into(),
    };
    assert_eq!(
        key.to_json().to_string(),
        r#"{"trace":"00112233aabbccdd","config":"ffeeddccbbaa0011","scheme":"ASR-0.50"}"#
    );

    let file = TraceSpec::File {
        path: PathBuf::from("/data/barnes \"quoted\".ladt"),
    };
    assert_eq!(
        file.to_json().to_string(),
        r#"{"kind":"file","path":"/data/barnes \"quoted\".ladt"}"#
    );
    let stored = TraceSpec::Stored {
        digest: "00ff00ff00ff00ff".into(),
    };
    assert_eq!(
        stored.to_json().to_string(),
        r#"{"kind":"stored","digest":"00ff00ff00ff00ff"}"#
    );
    let builtin = TraceSpec::Builtin {
        benchmark: "BARNES".into(),
        cores: 16,
        accesses_per_core: 400,
        seed: 7,
    };
    assert_eq!(
        builtin.to_json().to_string(),
        r#"{"kind":"builtin","benchmark":"BARNES","cores":16,"accesses_per_core":400,"seed":7}"#
    );
    let job = JobSpec {
        trace: builtin,
        schemes: vec!["S-NUCA".into(), "RT-3".into()],
        system: SystemPreset::SmallTest,
    };
    assert_eq!(
        job.to_json().to_string(),
        r#"{"trace":{"kind":"builtin","benchmark":"BARNES","cores":16,"accesses_per_core":400,"seed":7},"schemes":["S-NUCA","RT-3"],"system":"small-test"}"#
    );
}

#[test]
fn run_derived_documents_have_pinned_digests() {
    let system = SystemConfig::small_test().with_num_cores(CORES);
    let trace =
        TraceGenerator::new(Benchmark::Barnes.profile()).generate(CORES, ACCESSES_PER_CORE, SEED);

    let report = Simulator::new(system.clone(), ReplicationConfig::locality_aware(3)).run(&trace);
    assert_eq!(digest(&report.to_json().pretty()), "5b906f9133b9843f");

    let suite = BenchmarkSuite::custom(vec![Benchmark::Barnes], ACCESSES_PER_CORE, SEED);
    let results = ExperimentRunner::new(system.clone(), suite)
        .with_threads(1)
        .run_matrix(&[SchemeId::StaticNuca, SchemeId::Rt(3)])
        .expect("both schemes are builtin");
    let comparison = SchemeComparison::from_results(vec![Benchmark::Barnes], results);
    assert_eq!(digest(&comparison.to_json().pretty()), "5b3ed810dd2efdd9");

    let mut sim = Simulator::new(system, ReplicationConfig::locality_aware(3));
    let mut stop = StopAfter::new((CORES * ACCESSES_PER_CORE / 2) as u64);
    let checkpoint: EngineCheckpoint =
        match sim.run_source_observed(&mut MemorySource::new(&trace), Some(&mut stop)) {
            Ok(RunOutcome::Cancelled(checkpoint)) => *checkpoint,
            other => panic!("expected a cancelled run, got {other:?}"),
        };
    assert_eq!(digest(&checkpoint.to_json().pretty()), "c68925e361f76799");
}
