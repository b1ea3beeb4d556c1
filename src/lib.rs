//! Locality-Aware Data Replication in the Last-Level Cache — a from-scratch
//! Rust reproduction of Kurian, Devadas and Khan's HPCA 2014 paper.
//!
//! This crate is the umbrella of the workspace: it re-exports every
//! sub-crate under a stable module path and provides a [`prelude`] with the
//! types most programs need.  See `README.md` for the architecture overview
//! and the per-figure binaries.
//!
//! # Quick start
//!
//! ```
//! use locality_replication::prelude::*;
//!
//! // A scaled-down system for a fast doc-test; use
//! // `SystemConfig::paper_default()` for the 64-core target of the paper.
//! let system = SystemConfig::small_test();
//! let trace = TraceGenerator::new(Benchmark::Barnes.profile())
//!     .generate(system.num_cores, 400, 7);
//!
//! let mut locality_aware = Simulator::new(system.clone(), ReplicationConfig::locality_aware(3));
//! let mut static_nuca = Simulator::new(system, ReplicationConfig::static_nuca());
//!
//! let with_replication = locality_aware.run(&trace);
//! let baseline = static_nuca.run(&trace);
//! assert!(with_replication.total_accesses == baseline.total_accesses);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lad_cache as cache;
pub use lad_coherence as coherence;
pub use lad_common as common;
pub use lad_dram as dram;
pub use lad_energy as energy;
pub use lad_noc as noc;
pub use lad_replication as replication;
pub use lad_serve as serve;
pub use lad_sim as sim;
pub use lad_trace as trace;
pub use lad_traceio as traceio;

/// The types most applications of the library need.
pub mod prelude {
    pub use lad_check::{
        check_view, explore, run_mutant, Event, ExploreOptions, Invariant, Model, ModelConfig,
        Mutant, ProtocolView, Violation, SEEDED_MUTANTS,
    };
    pub use lad_common::config::SystemConfig;
    pub use lad_common::json::JsonValue;
    pub use lad_common::types::{
        Address, CacheLine, CoreId, Cycle, DataClass, MemOp, MemoryAccess,
    };
    pub use lad_energy::accounting::Component;
    pub use lad_energy::model::EnergyModel;
    pub use lad_replication::classifier::{ClassifierKind, ReplicationMode};
    pub use lad_replication::config::ReplicationConfig;
    pub use lad_replication::placement::PlacementPolicy;
    pub use lad_replication::policy::{
        builtin_policy, EvictDecision, FillDecision, RegisteredScheme, ReplicationPolicy,
        SchemeRegistry,
    };
    pub use lad_replication::scheme::{SchemeId, SchemeKind, UnknownScheme};
    pub use lad_sim::engine::{AccessOutcome, ServedBy, Simulator};
    pub use lad_sim::experiment::{ExperimentRunner, ReplayError, SchemeComparison};
    pub use lad_sim::metrics::SimulationReport;
    pub use lad_trace::benchmarks::Benchmark;
    pub use lad_trace::error::ProfileError;
    pub use lad_trace::generator::TraceGenerator;
    pub use lad_trace::suite::BenchmarkSuite;
    pub use lad_traceio::{
        FileSource, GeneratorSource, MemorySource, ReaderSource, TraceError, TraceHeader,
        TraceReader, TraceSource, TraceWriter,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_stack() {
        let system = SystemConfig::small_test();
        let trace = TraceGenerator::new(Benchmark::Dedup.profile()).generate(4, 50, 1);
        let mut sim = Simulator::new(system, ReplicationConfig::paper_default());
        let report = sim.run(&trace);
        assert_eq!(report.scheme, "RT-3");
        assert!(report.total_accesses >= 200);
    }
}
