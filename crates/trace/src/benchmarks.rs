//! The 21 benchmarks of the paper's evaluation (Table 2), as synthetic
//! profiles.
//!
//! Each profile is qualitatively matched to the characterization the paper
//! gives in Figure 1 and Section 4.1:
//!
//! * **BARNES, WATER-NSQ** — dominated by shared read-write data with long
//!   reuse run-lengths (≥ 10); working set fits in the LLC.
//! * **LU-NC** — migratory shared data (read-modify-write bursts by one core
//!   at a time).
//! * **FACESIM, BODYTRACK, RAYTRACE** — significant instruction footprints
//!   (the only three with non-trivial L1-I miss rates) plus shared read-only
//!   or mostly-read shared data.
//! * **PATRICIA, STREAMCLUSTER, VOLREND, FERRET** — shared read-only heavy
//!   with good reuse.
//! * **BLACKSCHOLES** — private data with page-level false sharing plus some
//!   shared read-only data.
//! * **DEDUP** — almost exclusively private data without false sharing.
//! * **RADIX, FFT, LU-C, CHOLESKY, SWAPTIONS** — private-data heavy with
//!   modest reuse; R-NUCA's local placement of private data already serves
//!   them well.
//! * **OCEAN-C, OCEAN-NC, FLUIDANIMATE, CONCOMP** — reuse run-lengths of
//!   1–2 and working sets that exceed the LLC, so replication only pollutes.

use lad_common::json::{Json, JsonValue};

use crate::generator::BenchmarkProfile;
use crate::pattern::{ClassMix, ReuseModel};

/// The benchmarks of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    Radix,
    Fft,
    LuContiguous,
    LuNonContiguous,
    Cholesky,
    Barnes,
    OceanContiguous,
    OceanNonContiguous,
    WaterNsquared,
    Raytrace,
    Volrend,
    Blackscholes,
    Swaptions,
    Fluidanimate,
    Streamcluster,
    Dedup,
    Ferret,
    Bodytrack,
    Facesim,
    Patricia,
    ConnectedComponents,
}

impl Benchmark {
    /// All 21 benchmarks in the order the paper's figures list them.
    pub const ALL: [Benchmark; 21] = [
        Benchmark::Radix,
        Benchmark::Fft,
        Benchmark::LuContiguous,
        Benchmark::LuNonContiguous,
        Benchmark::Cholesky,
        Benchmark::Barnes,
        Benchmark::OceanContiguous,
        Benchmark::OceanNonContiguous,
        Benchmark::WaterNsquared,
        Benchmark::Raytrace,
        Benchmark::Volrend,
        Benchmark::Blackscholes,
        Benchmark::Swaptions,
        Benchmark::Fluidanimate,
        Benchmark::Streamcluster,
        Benchmark::Dedup,
        Benchmark::Ferret,
        Benchmark::Bodytrack,
        Benchmark::Facesim,
        Benchmark::Patricia,
        Benchmark::ConnectedComponents,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        self.profile().name
    }

    /// Parses a [`Benchmark::label`].
    ///
    /// # Errors
    ///
    /// Names the label when no benchmark has it.
    pub fn parse(label: &str) -> Result<Benchmark, String> {
        Benchmark::ALL
            .into_iter()
            .find(|benchmark| benchmark.label() == label)
            .ok_or_else(|| format!("unknown benchmark {label:?}"))
    }

    /// The benchmark suite the application comes from.
    pub fn suite_name(self) -> &'static str {
        match self {
            Benchmark::Radix
            | Benchmark::Fft
            | Benchmark::LuContiguous
            | Benchmark::LuNonContiguous
            | Benchmark::Cholesky
            | Benchmark::Barnes
            | Benchmark::OceanContiguous
            | Benchmark::OceanNonContiguous
            | Benchmark::WaterNsquared
            | Benchmark::Raytrace
            | Benchmark::Volrend => "SPLASH-2",
            Benchmark::Blackscholes
            | Benchmark::Swaptions
            | Benchmark::Fluidanimate
            | Benchmark::Streamcluster
            | Benchmark::Dedup
            | Benchmark::Ferret
            | Benchmark::Bodytrack
            | Benchmark::Facesim => "PARSEC",
            Benchmark::Patricia => "Parallel MiBench",
            Benchmark::ConnectedComponents => "UHPC",
        }
    }

    /// The synthetic profile reproducing this benchmark's memory behaviour.
    pub fn profile(self) -> BenchmarkProfile {
        let mix = |instruction, private, shared_read_only, shared_read_write| ClassMix {
            instruction,
            private,
            shared_read_only,
            shared_read_write,
        };
        let reuse = |i: f64, p: f64, ro: f64, rw: f64| {
            [
                ReuseModel::with_probability(i),
                ReuseModel::with_probability(p),
                ReuseModel::with_probability(ro),
                ReuseModel::with_probability(rw),
            ]
        };
        match self {
            Benchmark::Radix => BenchmarkProfile {
                name: "RADIX",
                problem_size: "4M integers, radix 1024",
                class_mix: mix(0.02, 0.73, 0.05, 0.20),
                reuse: reuse(0.5, 0.30, 0.3, 0.20),
                instruction_lines: 128,
                shared_ro_lines: 1024,
                shared_rw_lines: 16_384,
                private_lines_per_core: 2048,
                rw_write_fraction: 0.4,
                private_write_fraction: 0.45,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 8,
                mean_compute_cycles: 6,
            },
            Benchmark::Fft => BenchmarkProfile {
                name: "FFT",
                problem_size: "4M complex data points",
                class_mix: mix(0.02, 0.68, 0.05, 0.25),
                reuse: reuse(0.5, 0.40, 0.3, 0.25),
                instruction_lines: 128,
                shared_ro_lines: 512,
                shared_rw_lines: 24_576,
                private_lines_per_core: 1536,
                rw_write_fraction: 0.35,
                private_write_fraction: 0.4,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 4,
                mean_compute_cycles: 8,
            },
            Benchmark::LuContiguous => BenchmarkProfile {
                name: "LU-C",
                problem_size: "1024 x 1024 matrix",
                class_mix: mix(0.02, 0.70, 0.13, 0.15),
                reuse: reuse(0.6, 0.60, 0.6, 0.4),
                instruction_lines: 128,
                shared_ro_lines: 2048,
                shared_rw_lines: 8192,
                private_lines_per_core: 1024,
                rw_write_fraction: 0.3,
                private_write_fraction: 0.35,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 8,
                mean_compute_cycles: 10,
            },
            Benchmark::LuNonContiguous => BenchmarkProfile {
                name: "LU-NC",
                problem_size: "1024 x 1024 matrix",
                class_mix: mix(0.02, 0.28, 0.05, 0.65),
                reuse: reuse(0.6, 0.55, 0.5, 0.88),
                instruction_lines: 128,
                shared_ro_lines: 512,
                shared_rw_lines: 6144,
                private_lines_per_core: 768,
                rw_write_fraction: 0.3,
                private_write_fraction: 0.3,
                migratory: true,
                private_false_sharing: false,
                sharing_degree: 8,
                mean_compute_cycles: 8,
            },
            Benchmark::Cholesky => BenchmarkProfile {
                name: "CHOLESKY",
                problem_size: "tk29.O",
                class_mix: mix(0.05, 0.50, 0.18, 0.27),
                reuse: reuse(0.6, 0.50, 0.6, 0.5),
                instruction_lines: 256,
                shared_ro_lines: 3072,
                shared_rw_lines: 8192,
                private_lines_per_core: 1024,
                rw_write_fraction: 0.25,
                private_write_fraction: 0.35,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 8,
                mean_compute_cycles: 10,
            },
            Benchmark::Barnes => BenchmarkProfile {
                name: "BARNES",
                problem_size: "64K particles",
                class_mix: mix(0.02, 0.10, 0.05, 0.83),
                reuse: reuse(0.7, 0.6, 0.7, 0.92),
                instruction_lines: 192,
                shared_ro_lines: 1024,
                shared_rw_lines: 12_288,
                private_lines_per_core: 384,
                rw_write_fraction: 0.06,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 64,
                mean_compute_cycles: 8,
            },
            Benchmark::OceanContiguous => BenchmarkProfile {
                name: "OCEAN-C",
                problem_size: "2050 x 2050 ocean",
                class_mix: mix(0.02, 0.56, 0.05, 0.37),
                reuse: reuse(0.4, 0.12, 0.2, 0.10),
                instruction_lines: 128,
                shared_ro_lines: 1024,
                shared_rw_lines: 131_072,
                private_lines_per_core: 6144,
                rw_write_fraction: 0.4,
                private_write_fraction: 0.45,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 4,
                mean_compute_cycles: 5,
            },
            Benchmark::OceanNonContiguous => BenchmarkProfile {
                name: "OCEAN-NC",
                problem_size: "1026 x 1026 ocean",
                class_mix: mix(0.02, 0.48, 0.05, 0.45),
                reuse: reuse(0.4, 0.25, 0.3, 0.25),
                instruction_lines: 128,
                shared_ro_lines: 1024,
                shared_rw_lines: 65_536,
                private_lines_per_core: 3072,
                rw_write_fraction: 0.4,
                private_write_fraction: 0.4,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 4,
                mean_compute_cycles: 5,
            },
            Benchmark::WaterNsquared => BenchmarkProfile {
                name: "WATER-NSQ",
                problem_size: "512 molecules",
                class_mix: mix(0.03, 0.27, 0.10, 0.60),
                reuse: reuse(0.7, 0.6, 0.7, 0.86),
                instruction_lines: 192,
                shared_ro_lines: 1024,
                shared_rw_lines: 4096,
                private_lines_per_core: 512,
                rw_write_fraction: 0.10,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 16,
                mean_compute_cycles: 12,
            },
            Benchmark::Raytrace => BenchmarkProfile {
                name: "RAYTRACE",
                problem_size: "car",
                class_mix: mix(0.25, 0.15, 0.50, 0.10),
                reuse: reuse(0.88, 0.5, 0.72, 0.4),
                instruction_lines: 3072,
                shared_ro_lines: 24_576,
                shared_rw_lines: 2048,
                private_lines_per_core: 512,
                rw_write_fraction: 0.15,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 4,
                mean_compute_cycles: 10,
            },
            Benchmark::Volrend => BenchmarkProfile {
                name: "VOLREND",
                problem_size: "head",
                class_mix: mix(0.18, 0.25, 0.47, 0.10),
                reuse: reuse(0.85, 0.5, 0.80, 0.4),
                instruction_lines: 2048,
                shared_ro_lines: 16_384,
                shared_rw_lines: 2048,
                private_lines_per_core: 512,
                rw_write_fraction: 0.15,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 8,
                mean_compute_cycles: 9,
            },
            Benchmark::Blackscholes => BenchmarkProfile {
                name: "BLACKSCH.",
                problem_size: "65,536 options",
                class_mix: mix(0.04, 0.62, 0.30, 0.04),
                reuse: reuse(0.7, 0.76, 0.80, 0.3),
                instruction_lines: 256,
                shared_ro_lines: 6144,
                shared_rw_lines: 1024,
                private_lines_per_core: 768,
                rw_write_fraction: 0.2,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: true,
                sharing_degree: 8,
                mean_compute_cycles: 14,
            },
            Benchmark::Swaptions => BenchmarkProfile {
                name: "SWAPTIONS",
                problem_size: "64 swaptions, 20,000 sims.",
                class_mix: mix(0.05, 0.55, 0.33, 0.07),
                reuse: reuse(0.7, 0.62, 0.72, 0.4),
                instruction_lines: 384,
                shared_ro_lines: 4096,
                shared_rw_lines: 1024,
                private_lines_per_core: 640,
                rw_write_fraction: 0.2,
                private_write_fraction: 0.35,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 8,
                mean_compute_cycles: 16,
            },
            Benchmark::Fluidanimate => BenchmarkProfile {
                name: "FLUIDANIM.",
                problem_size: "5 frames, 300,000 particles",
                class_mix: mix(0.03, 0.52, 0.05, 0.40),
                reuse: reuse(0.4, 0.10, 0.2, 0.12),
                instruction_lines: 256,
                shared_ro_lines: 2048,
                shared_rw_lines: 98_304,
                private_lines_per_core: 5120,
                rw_write_fraction: 0.35,
                private_write_fraction: 0.4,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 4,
                mean_compute_cycles: 6,
            },
            Benchmark::Streamcluster => BenchmarkProfile {
                name: "STREAMCLUS.",
                problem_size: "8192 points per block, 1 block",
                class_mix: mix(0.03, 0.15, 0.72, 0.10),
                reuse: reuse(0.7, 0.5, 0.90, 0.4),
                instruction_lines: 256,
                shared_ro_lines: 16_384,
                shared_rw_lines: 2048,
                private_lines_per_core: 384,
                rw_write_fraction: 0.2,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 64,
                mean_compute_cycles: 7,
            },
            Benchmark::Dedup => BenchmarkProfile {
                name: "DEDUP",
                problem_size: "31 MB data",
                class_mix: mix(0.04, 0.84, 0.08, 0.04),
                reuse: reuse(0.6, 0.55, 0.5, 0.3),
                instruction_lines: 384,
                shared_ro_lines: 2048,
                shared_rw_lines: 1024,
                private_lines_per_core: 2560,
                rw_write_fraction: 0.3,
                private_write_fraction: 0.4,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 4,
                mean_compute_cycles: 9,
            },
            Benchmark::Ferret => BenchmarkProfile {
                name: "FERRET",
                problem_size: "256 queries, 34,973 images",
                class_mix: mix(0.14, 0.30, 0.46, 0.10),
                reuse: reuse(0.8, 0.5, 0.75, 0.4),
                instruction_lines: 1536,
                shared_ro_lines: 12_288,
                shared_rw_lines: 2048,
                private_lines_per_core: 768,
                rw_write_fraction: 0.2,
                private_write_fraction: 0.35,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 16,
                mean_compute_cycles: 11,
            },
            Benchmark::Bodytrack => BenchmarkProfile {
                name: "BODYTRACK",
                problem_size: "4 frames, 4000 particles",
                class_mix: mix(0.30, 0.15, 0.38, 0.17),
                reuse: reuse(0.88, 0.5, 0.82, 0.7),
                instruction_lines: 3072,
                shared_ro_lines: 8192,
                shared_rw_lines: 3072,
                private_lines_per_core: 512,
                rw_write_fraction: 0.05,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 32,
                mean_compute_cycles: 9,
            },
            Benchmark::Facesim => BenchmarkProfile {
                name: "FACESIM",
                problem_size: "1 frame, 372,126 tetrahedrons",
                class_mix: mix(0.36, 0.17, 0.12, 0.35),
                reuse: reuse(0.90, 0.5, 0.75, 0.80),
                instruction_lines: 4096,
                shared_ro_lines: 4096,
                shared_rw_lines: 8192,
                private_lines_per_core: 640,
                rw_write_fraction: 0.06,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 32,
                mean_compute_cycles: 8,
            },
            Benchmark::Patricia => BenchmarkProfile {
                name: "PATRICIA",
                problem_size: "5000 IP address queries",
                class_mix: mix(0.10, 0.18, 0.62, 0.10),
                reuse: reuse(0.8, 0.5, 0.86, 0.4),
                instruction_lines: 768,
                shared_ro_lines: 12_288,
                shared_rw_lines: 1536,
                private_lines_per_core: 384,
                rw_write_fraction: 0.15,
                private_write_fraction: 0.3,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 64,
                mean_compute_cycles: 8,
            },
            Benchmark::ConnectedComponents => BenchmarkProfile {
                name: "CONCOMP",
                problem_size: "Graph with 2^18 nodes",
                class_mix: mix(0.02, 0.32, 0.06, 0.60),
                reuse: reuse(0.4, 0.2, 0.3, 0.14),
                instruction_lines: 128,
                shared_ro_lines: 4096,
                shared_rw_lines: 131_072,
                private_lines_per_core: 3072,
                rw_write_fraction: 0.35,
                private_write_fraction: 0.4,
                migratory: false,
                private_false_sharing: false,
                sharing_degree: 8,
                mean_compute_cycles: 5,
            },
        }
    }
}

impl Json for Benchmark {
    fn to_json(&self) -> JsonValue {
        JsonValue::from(self.label())
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Benchmark::parse(value.as_str().ok_or("expected a benchmark label")?)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_common::types::DataClass;

    #[test]
    fn there_are_21_benchmarks_with_unique_labels() {
        assert_eq!(Benchmark::ALL.len(), 21);
        let labels: std::collections::HashSet<_> =
            Benchmark::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 21);
    }

    #[test]
    fn every_profile_validates() {
        for b in Benchmark::ALL {
            b.profile()
                .validate()
                .unwrap_or_else(|e| panic!("{b}: {e}"));
        }
    }

    #[test]
    fn suite_names_match_table2() {
        assert_eq!(Benchmark::Barnes.suite_name(), "SPLASH-2");
        assert_eq!(Benchmark::Facesim.suite_name(), "PARSEC");
        assert_eq!(Benchmark::Patricia.suite_name(), "Parallel MiBench");
        assert_eq!(Benchmark::ConnectedComponents.suite_name(), "UHPC");
        let splash = Benchmark::ALL
            .iter()
            .filter(|b| b.suite_name() == "SPLASH-2")
            .count();
        let parsec = Benchmark::ALL
            .iter()
            .filter(|b| b.suite_name() == "PARSEC")
            .count();
        assert_eq!(splash, 11);
        assert_eq!(parsec, 8);
    }

    #[test]
    fn problem_sizes_are_recorded() {
        assert_eq!(Benchmark::Barnes.profile().problem_size, "64K particles");
        assert_eq!(
            Benchmark::Radix.profile().problem_size,
            "4M integers, radix 1024"
        );
        for b in Benchmark::ALL {
            assert!(!b.profile().problem_size.is_empty());
        }
    }

    #[test]
    fn barnes_is_dominated_by_shared_read_write_with_high_reuse() {
        let p = Benchmark::Barnes.profile();
        let w = p.class_mix.weights();
        let total: f64 = w.iter().sum();
        // Figure 1: over 80-90% of BARNES' LLC accesses are shared R/W.
        assert!(p.class_mix.shared_read_write / total > 0.8);
        // ... with run lengths of 10 or more.
        assert!(p.reuse[3].continue_probability >= 0.9);
    }

    #[test]
    fn facesim_and_bodytrack_are_instruction_heavy() {
        for b in [
            Benchmark::Facesim,
            Benchmark::Bodytrack,
            Benchmark::Raytrace,
        ] {
            let p = b.profile();
            assert!(
                p.class_mix.instruction >= 0.25,
                "{b} must have a large I-fetch share"
            );
            assert!(
                p.instruction_lines >= 3072,
                "{b} instruction footprint exceeds the L1-I"
            );
        }
        // Everyone else has a small instruction share (< 0.2), matching the
        // paper's claim that only three benchmarks have notable L1-I misses.
        for b in Benchmark::ALL {
            if ![
                Benchmark::Facesim,
                Benchmark::Bodytrack,
                Benchmark::Raytrace,
            ]
            .contains(&b)
            {
                assert!(b.profile().class_mix.instruction < 0.2, "{b}");
            }
        }
    }

    #[test]
    fn low_reuse_benchmarks_have_short_run_lengths() {
        for b in [
            Benchmark::Fluidanimate,
            Benchmark::OceanContiguous,
            Benchmark::ConnectedComponents,
        ] {
            let p = b.profile();
            // Expected run length of the dominant data classes stays below ~2.
            assert!(
                p.reuse[1].expected_run_length() < 2.0,
                "{b} private reuse too high"
            );
            assert!(
                p.reuse[3].expected_run_length() < 2.0,
                "{b} shared-RW reuse too high"
            );
        }
    }

    #[test]
    fn working_set_classification() {
        // Aggregate LLC of the 64-core target: 16 MB = 262144 lines.
        let llc_lines = 64 * 4096;
        for b in [
            Benchmark::Barnes,
            Benchmark::WaterNsquared,
            Benchmark::Streamcluster,
        ] {
            assert!(
                b.profile().footprint_lines(64) < llc_lines / 2,
                "{b} must fit comfortably in the LLC"
            );
        }
        for b in [
            Benchmark::OceanContiguous,
            Benchmark::Fluidanimate,
            Benchmark::ConnectedComponents,
        ] {
            assert!(
                b.profile().footprint_lines(64) > llc_lines,
                "{b} must exceed the LLC capacity"
            );
        }
    }

    #[test]
    fn special_patterns_are_flagged() {
        assert!(Benchmark::LuNonContiguous.profile().migratory);
        assert!(Benchmark::Blackscholes.profile().private_false_sharing);
        assert!(!Benchmark::Dedup.profile().private_false_sharing);
        assert!(Benchmark::Dedup.profile().class_mix.private > 0.8);
    }

    #[test]
    fn mostly_read_shared_data_where_the_paper_says_so() {
        // BARNES/BODYTRACK/FACESIM: accesses to shared R/W data are mostly
        // reads with only a few writes.
        for b in [Benchmark::Barnes, Benchmark::Bodytrack, Benchmark::Facesim] {
            assert!(b.profile().rw_write_fraction <= 0.1, "{b}");
        }
        assert_eq!(DataClass::ALL.len(), 4);
    }
}
