//! The LLC management schemes evaluated in the paper (Section 3.3).

use std::fmt;

use lad_common::json::{Json, JsonValue};

use crate::placement::PlacementPolicy;

/// The five LLC management schemes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Static-NUCA: all cache lines address-interleaved across the LLC
    /// slices, no replication.
    StaticNuca,
    /// Reactive-NUCA: private data placed at the requester's slice,
    /// instructions replicated per 4-core cluster, shared data interleaved.
    ReactiveNuca,
    /// Victim Replication: the local LLC slice acts as a victim cache for L1
    /// evictions (Zhang & Asanović).
    VictimReplication,
    /// Adaptive Selective Replication: shared read-only lines are replicated
    /// on L1 eviction with a per-benchmark probability level (Beckmann et
    /// al.).
    AdaptiveSelectiveReplication,
    /// The paper's locality-aware replication protocol.
    LocalityAware,
}

impl SchemeKind {
    /// All schemes, in the order the paper's figures list them
    /// (S-NUCA, R-NUCA, VR, ASR, then the locality-aware RT variants).
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::StaticNuca,
        SchemeKind::ReactiveNuca,
        SchemeKind::VictimReplication,
        SchemeKind::AdaptiveSelectiveReplication,
        SchemeKind::LocalityAware,
    ];

    /// Short label used in reports (matches the paper's figure axes).
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::StaticNuca => "S-NUCA",
            SchemeKind::ReactiveNuca => "R-NUCA",
            SchemeKind::VictimReplication => "VR",
            SchemeKind::AdaptiveSelectiveReplication => "ASR",
            SchemeKind::LocalityAware => "RT",
        }
    }

    /// The home-placement policy each scheme uses.
    ///
    /// VR and ASR are built on top of Static-NUCA (the paper models them that
    /// way); R-NUCA uses its page-grain placement with cluster-replicated
    /// instructions; the locality-aware protocol reuses R-NUCA's data
    /// placement but replicates instructions through its own classifier.
    pub fn placement_policy(self) -> PlacementPolicy {
        match self {
            SchemeKind::StaticNuca
            | SchemeKind::VictimReplication
            | SchemeKind::AdaptiveSelectiveReplication => PlacementPolicy::AddressInterleaved,
            SchemeKind::ReactiveNuca => PlacementPolicy::Rnuca {
                instruction_cluster: 4,
            },
            SchemeKind::LocalityAware => PlacementPolicy::RnucaDataOnly,
        }
    }

    /// `true` if the scheme ever installs replicas in the requester's local
    /// LLC slice.
    pub fn replicates(self) -> bool {
        !matches!(self, SchemeKind::StaticNuca | SchemeKind::ReactiveNuca)
    }

    /// `true` if replicas are created on L1 evictions (VR, ASR) rather than
    /// on L1 misses (locality-aware).
    pub fn replicates_on_eviction(self) -> bool {
        matches!(
            self,
            SchemeKind::VictimReplication | SchemeKind::AdaptiveSelectiveReplication
        )
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed identifier for one experiment configuration of the benchmark ×
/// scheme matrix.
///
/// Where [`SchemeKind`] names the five protocol *families*, a `SchemeId`
/// names one *column of a figure*: `Rt(3)` and `Rt(8)` are distinct ids of
/// the same family, the ASR sweep runs as `AsrAt(level)` entries that the
/// comparison collapses into the single [`SchemeId::Asr`] column, and
/// out-of-crate policies registered with a
/// [`SchemeRegistry`](crate::policy::SchemeRegistry) use
/// [`SchemeId::Custom`].  Experiment results are keyed by `SchemeId` instead
/// of bare label strings, so a typo'd lookup is a compile error or a typed
/// [`UnknownScheme`] — never a silent `NaN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchemeId {
    /// The Static-NUCA baseline (`S-NUCA`).
    StaticNuca,
    /// The Reactive-NUCA baseline (`R-NUCA`).
    ReactiveNuca,
    /// The Victim Replication baseline (`VR`).
    VictimReplication,
    /// ASR collapsed to its best per-benchmark replication level (`ASR`) —
    /// the paper's methodology for Figures 6–8.  This id exists only as a
    /// comparison column; individual runs use [`SchemeId::AsrAt`].
    Asr,
    /// ASR at a fixed replication level, stored in hundredths
    /// (`AsrAt(50)` is level 0.50, labelled `ASR-0.50`).
    AsrAt(u8),
    /// The locality-aware protocol at replication threshold `RT`
    /// (`Rt(3)` is the paper's headline `RT-3`).
    Rt(u32),
    /// An out-of-crate scheme registered by name.
    ///
    /// Names matching a built-in label (`S-NUCA`, `VR`, `ASR`, `ASR-x.xx`,
    /// `RT-k`, ...) are reserved: [`SchemeId::parse`] maps such labels back
    /// to the built-in variant, so a `Custom` id using one would change
    /// identity across a JSON round trip.
    Custom(&'static str),
}

impl SchemeId {
    /// The short label used in reports and figure axes
    /// (`S-NUCA`, `ASR-0.50`, `RT-3`, ...).
    pub fn label(self) -> String {
        self.to_string()
    }

    /// The [`SchemeId::AsrAt`] id for a replication level in `[0, 1]` —
    /// the single place the level-to-hundredths convention lives.
    pub fn asr_at_level(level: f64) -> SchemeId {
        SchemeId::AsrAt((level.clamp(0.0, 1.0) * 100.0).round() as u8)
    }

    /// Parses a label back into a `SchemeId`.
    ///
    /// Labels produced by [`SchemeId::label`] for the built-in schemes parse
    /// back exactly.  Any other label becomes [`SchemeId::Custom`], backed
    /// by a process-wide intern table (each distinct name is leaked once to
    /// obtain the `&'static str`), so memory stays bounded by the number of
    /// distinct custom names — still, this is meant for configuration/CLI/
    /// report parsing, not for hot loops.
    pub fn parse(label: &str) -> SchemeId {
        match label {
            "S-NUCA" => return SchemeId::StaticNuca,
            "R-NUCA" => return SchemeId::ReactiveNuca,
            "VR" => return SchemeId::VictimReplication,
            "ASR" => return SchemeId::Asr,
            _ => {}
        }
        if let Some(rest) = label.strip_prefix("RT-") {
            if let Ok(rt) = rest.parse::<u32>() {
                return SchemeId::Rt(rt);
            }
        }
        if let Some(rest) = label.strip_prefix("ASR-") {
            if let Ok(level) = rest.parse::<f64>() {
                if (0.0..=1.0).contains(&level) {
                    return SchemeId::asr_at_level(level);
                }
            }
        }
        SchemeId::Custom(intern_label(label))
    }

    /// The protocol family implementing this scheme, or `None` for
    /// [`SchemeId::Custom`] ids (whose behaviour is defined by the
    /// registered policy, not by a built-in family).
    pub fn kind(self) -> Option<SchemeKind> {
        match self {
            SchemeId::StaticNuca => Some(SchemeKind::StaticNuca),
            SchemeId::ReactiveNuca => Some(SchemeKind::ReactiveNuca),
            SchemeId::VictimReplication => Some(SchemeKind::VictimReplication),
            SchemeId::Asr | SchemeId::AsrAt(_) => Some(SchemeKind::AdaptiveSelectiveReplication),
            SchemeId::Rt(_) => Some(SchemeKind::LocalityAware),
            SchemeId::Custom(_) => None,
        }
    }
}

/// Process-wide intern table for custom scheme names parsed from labels:
/// each distinct name is leaked exactly once, so repeated parsing (e.g. of
/// large JSON reports) does not grow memory per call.
fn intern_label(label: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock, PoisonError};

    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    // A poisoned table is still structurally sound (inserts are atomic
    // Box::leak + BTreeSet insert), so interning proceeds.
    let mut table = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match table.get(label) {
        Some(existing) => existing,
        None => {
            let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
            table.insert(leaked);
            leaked
        }
    }
}

/// An id travels as its label; see [`SchemeId::parse`].
impl Json for SchemeId {
    fn to_json(&self) -> JsonValue {
        JsonValue::from(self.label())
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let label = value.as_str().ok_or("expected a scheme label")?;
        Ok(SchemeId::parse(label))
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeId::StaticNuca => f.write_str("S-NUCA"),
            SchemeId::ReactiveNuca => f.write_str("R-NUCA"),
            SchemeId::VictimReplication => f.write_str("VR"),
            SchemeId::Asr => f.write_str("ASR"),
            SchemeId::AsrAt(level) => write!(f, "ASR-{:.2}", f64::from(*level) / 100.0),
            SchemeId::Rt(rt) => write!(f, "RT-{rt}"),
            SchemeId::Custom(name) => f.write_str(name),
        }
    }
}

/// A lookup named a scheme that the registry / comparison does not contain.
///
/// Returned instead of silently producing `None` or `NaN`, so experiment
/// code fails loudly on a missing baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheme {
    /// The scheme that was looked up.
    pub scheme: SchemeId,
    /// Where the lookup failed (a benchmark label, `"registry"`, ...).
    pub context: String,
}

impl UnknownScheme {
    /// Creates the error for a lookup of `scheme` in `context`.
    pub fn new(scheme: SchemeId, context: impl Into<String>) -> Self {
        UnknownScheme {
            scheme,
            context: context.into(),
        }
    }
}

impl fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheme {} ({})", self.scheme, self.context)
    }
}

impl std::error::Error for UnknownScheme {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_axes() {
        assert_eq!(SchemeKind::StaticNuca.label(), "S-NUCA");
        assert_eq!(SchemeKind::ReactiveNuca.label(), "R-NUCA");
        assert_eq!(SchemeKind::VictimReplication.label(), "VR");
        assert_eq!(SchemeKind::AdaptiveSelectiveReplication.label(), "ASR");
        assert_eq!(SchemeKind::LocalityAware.label(), "RT");
        assert_eq!(SchemeKind::ALL.len(), 5);
    }

    #[test]
    fn placement_policies() {
        assert_eq!(
            SchemeKind::StaticNuca.placement_policy(),
            PlacementPolicy::AddressInterleaved
        );
        assert_eq!(
            SchemeKind::VictimReplication.placement_policy(),
            PlacementPolicy::AddressInterleaved
        );
        assert_eq!(
            SchemeKind::AdaptiveSelectiveReplication.placement_policy(),
            PlacementPolicy::AddressInterleaved
        );
        assert_eq!(
            SchemeKind::ReactiveNuca.placement_policy(),
            PlacementPolicy::Rnuca {
                instruction_cluster: 4
            }
        );
        assert_eq!(
            SchemeKind::LocalityAware.placement_policy(),
            PlacementPolicy::RnucaDataOnly
        );
    }

    #[test]
    fn replication_flags() {
        assert!(!SchemeKind::StaticNuca.replicates());
        assert!(!SchemeKind::ReactiveNuca.replicates());
        assert!(SchemeKind::VictimReplication.replicates());
        assert!(SchemeKind::AdaptiveSelectiveReplication.replicates());
        assert!(SchemeKind::LocalityAware.replicates());

        assert!(SchemeKind::VictimReplication.replicates_on_eviction());
        assert!(SchemeKind::AdaptiveSelectiveReplication.replicates_on_eviction());
        assert!(!SchemeKind::LocalityAware.replicates_on_eviction());
        assert!(!SchemeKind::StaticNuca.replicates_on_eviction());
    }

    #[test]
    fn scheme_id_labels_match_paper_axes() {
        assert_eq!(SchemeId::StaticNuca.label(), "S-NUCA");
        assert_eq!(SchemeId::ReactiveNuca.label(), "R-NUCA");
        assert_eq!(SchemeId::VictimReplication.label(), "VR");
        assert_eq!(SchemeId::Asr.label(), "ASR");
        assert_eq!(SchemeId::AsrAt(50).label(), "ASR-0.50");
        assert_eq!(SchemeId::AsrAt(100).label(), "ASR-1.00");
        assert_eq!(SchemeId::Rt(3).label(), "RT-3");
        assert_eq!(SchemeId::Custom("ALWAYS").label(), "ALWAYS");
    }

    #[test]
    fn scheme_id_parse_roundtrips_builtins() {
        for id in [
            SchemeId::StaticNuca,
            SchemeId::ReactiveNuca,
            SchemeId::VictimReplication,
            SchemeId::Asr,
            SchemeId::AsrAt(0),
            SchemeId::AsrAt(25),
            SchemeId::AsrAt(75),
            SchemeId::Rt(1),
            SchemeId::Rt(3),
            SchemeId::Rt(8),
        ] {
            assert_eq!(SchemeId::parse(&id.label()), id, "{id} must round-trip");
        }
        // Unknown labels become Custom ids that still round-trip.
        let custom = SchemeId::parse("MY-SCHEME");
        assert_eq!(custom, SchemeId::Custom("MY-SCHEME"));
        assert_eq!(SchemeId::parse(&custom.label()), custom);
        // A cluster-variant label is not a plain RT id.
        assert_eq!(SchemeId::parse("RT-3/C-16"), SchemeId::Custom("RT-3/C-16"));
    }

    #[test]
    fn custom_labels_are_interned_once() {
        let first = match SchemeId::parse("INTERN-ME") {
            SchemeId::Custom(name) => name,
            other => panic!("expected a custom id, got {other:?}"),
        };
        let second = match SchemeId::parse("INTERN-ME") {
            SchemeId::Custom(name) => name,
            other => panic!("expected a custom id, got {other:?}"),
        };
        // Pointer-identical, not merely equal: repeated parses reuse the
        // single leaked allocation.
        assert!(std::ptr::eq(first, second));
    }

    #[test]
    fn scheme_id_maps_to_family() {
        assert_eq!(SchemeId::StaticNuca.kind(), Some(SchemeKind::StaticNuca));
        assert_eq!(
            SchemeId::Asr.kind(),
            Some(SchemeKind::AdaptiveSelectiveReplication)
        );
        assert_eq!(
            SchemeId::AsrAt(25).kind(),
            Some(SchemeKind::AdaptiveSelectiveReplication)
        );
        assert_eq!(SchemeId::Rt(8).kind(), Some(SchemeKind::LocalityAware));
        assert_eq!(SchemeId::Custom("X").kind(), None);
    }

    #[test]
    fn unknown_scheme_error_is_descriptive() {
        let err = UnknownScheme::new(SchemeId::VictimReplication, "BARNES");
        assert_eq!(err.scheme, SchemeId::VictimReplication);
        assert_eq!(err.to_string(), "unknown scheme VR (BARNES)");
    }
}
