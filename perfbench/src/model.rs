//! The `model.*` per-layer metrics: simulated (not host) statistics read
//! from `SimulationReport`s and `SchemeComparison`.  They are
//! deterministic for a seed and unvalidated against hardware; a change
//! that only speeds up the simulator must leave every one identical.

use std::collections::BTreeMap;

use lad_replication::scheme::SchemeId;
use lad_sim::experiment::SchemeComparison;
use lad_sim::metrics::SimulationReport;
use lad_trace::benchmarks::Benchmark;

use crate::Metrics;

/// Schemes whose per-component statistics are reported.
pub const SCHEMES: [&str; 2] = ["S-NUCA", "RT-3"];

/// Figure 7 completion-time components, in `LatencyBreakdown::values`
/// order.
pub const CPA_COMPONENTS: [&str; 7] = [
    "compute",
    "l1_to_llc_replica",
    "l1_to_llc_home",
    "llc_home_waiting",
    "llc_home_to_sharers",
    "llc_home_to_offchip",
    "synchronization",
];

/// The paper's reported RT-3 reductions in energy and completion time
/// (percent) against each baseline — the only reference for the model.
pub const PAPER_REDUCTIONS: [(&str, f64, f64); 4] = [
    ("VR", 16.0, 4.0),
    ("ASR", 14.0, 9.0),
    ("R-NUCA", 13.0, 6.0),
    ("S-NUCA", 21.0, 13.0),
];

/// Adds the per-scheme `model.*` metrics, summed over every report of the
/// scheme (one per benchmark).
pub fn add_scheme_metrics<'a>(
    reports: impl IntoIterator<Item = &'a SimulationReport> + Clone,
    out: &mut Metrics,
) {
    for scheme in SCHEMES {
        let mine: Vec<&SimulationReport> = reports
            .clone()
            .into_iter()
            .filter(|r| r.scheme_id.label() == scheme)
            .collect();
        let accesses: u64 = mine.iter().map(|r| r.total_accesses).sum();
        let per_access = |value: f64| value / accesses.max(1) as f64;
        let sum = |f: &dyn Fn(&SimulationReport) -> u64| -> u64 { mine.iter().map(|r| f(r)).sum() };
        let served = [
            sum(&|r| r.misses.l1_hits),
            sum(&|r| r.misses.llc_replica_hits),
            sum(&|r| r.misses.llc_home_hits),
            sum(&|r| r.misses.offchip_misses),
        ];
        for (bucket, count) in crate::stepper::BUCKETS.iter().zip(served) {
            out.set(
                &format!("model.share.{bucket}.{scheme}"),
                per_access(count as f64),
            );
        }
        for (i, component) in CPA_COMPONENTS.iter().enumerate() {
            let cycles = sum(&|r| r.latency.values()[i]);
            out.set(
                &format!("model.cpa.{component}.{scheme}"),
                per_access(cycles as f64),
            );
        }
        out.set(
            &format!("model.replicas_created.{scheme}"),
            sum(&|r| r.replicas_created) as f64,
        );
        out.set(
            &format!("model.back_invalidations.{scheme}"),
            sum(&|r| r.back_invalidations) as f64,
        );
        let energy: f64 = mine.iter().map(|r| r.energy.total()).sum();
        out.set(
            &format!("model.energy_pj_per_access.{scheme}"),
            per_access(energy),
        );
    }
}

/// Adds RT-3's energy and completion time normalized to each baseline
/// (averaged over benchmarks, ASR at its best level per benchmark) and
/// prints the paper's figures beside them.
pub fn add_rt3_norms(
    benchmarks: &[Benchmark],
    results: &BTreeMap<(Benchmark, SchemeId), SimulationReport>,
    out: &mut Metrics,
) -> Result<(), String> {
    let comparison = SchemeComparison::from_results(benchmarks.to_vec(), results.clone());
    println!("RT-3 normalized to each baseline: model (unvalidated) vs paper reference:");
    for (baseline, paper_energy, paper_time) in PAPER_REDUCTIONS {
        let id = SchemeId::parse(baseline);
        let energy = comparison
            .average_normalized_energy(SchemeId::Rt(3), id)
            .map_err(|e| e.to_string())?;
        let time = comparison
            .average_normalized_completion_time(SchemeId::Rt(3), id)
            .map_err(|e| e.to_string())?;
        out.set(&format!("model.rt3_energy_norm.{baseline}"), energy);
        out.set(&format!("model.rt3_time_norm.{baseline}"), time);
        println!(
            "  vs {baseline:<6} energy {energy:.4} (paper {:.2})  time {time:.4} (paper {:.2})",
            1.0 - paper_energy / 100.0,
            1.0 - paper_time / 100.0,
        );
    }
    Ok(())
}
