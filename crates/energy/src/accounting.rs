//! Per-component energy accumulation (the Figure 6 breakdown).

use std::fmt;
use std::ops::{Add, AddAssign};

use lad_common::json::{Json, JsonValue};

/// The memory-system components whose dynamic energy the paper reports
/// separately in Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// L1 instruction caches.
    L1I,
    /// L1 data caches.
    L1D,
    /// L2 / last-level cache slices (tag + data arrays).
    L2Cache,
    /// Coherence directory (sharer lists + locality classifier).
    Directory,
    /// Network routers.
    NetworkRouter,
    /// Network links.
    NetworkLink,
    /// Off-chip DRAM.
    Dram,
}

impl Component {
    /// All components in the order used by the Figure 6 legend.
    pub const ALL: [Component; 7] = [
        Component::L1I,
        Component::L1D,
        Component::L2Cache,
        Component::Directory,
        Component::NetworkRouter,
        Component::NetworkLink,
        Component::Dram,
    ];

    /// Label used in reports (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            Component::L1I => "L1-I Cache",
            Component::L1D => "L1-D Cache",
            Component::L2Cache => "L2 Cache (LLC)",
            Component::Directory => "Directory",
            Component::NetworkRouter => "Network Router",
            Component::NetworkLink => "Network Link",
            Component::Dram => "DRAM",
        }
    }

    /// Parses a [`Component::label`].
    ///
    /// # Errors
    ///
    /// Names the label when no component has it.
    pub fn parse(label: &str) -> Result<Component, String> {
        Component::ALL
            .into_iter()
            .find(|component| component.label() == label)
            .ok_or_else(|| format!("unknown energy component {label:?}"))
    }

    fn index(self) -> usize {
        match self {
            Component::L1I => 0,
            Component::L1D => 1,
            Component::L2Cache => 2,
            Component::Directory => 3,
            Component::NetworkRouter => 4,
            Component::NetworkLink => 5,
            Component::Dram => 6,
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated dynamic energy, split by [`Component`], in picojoules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccounting {
    by_component: [f64; 7],
}

impl EnergyAccounting {
    /// Creates an empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `picojoules` to `component`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `picojoules` is negative or non-finite.
    pub fn record(&mut self, component: Component, picojoules: f64) {
        debug_assert!(
            picojoules.is_finite() && picojoules >= 0.0,
            "energy must be finite and non-negative"
        );
        self.by_component[component.index()] += picojoules;
    }

    /// Energy attributed to one component.
    pub fn component(&self, component: Component) -> f64 {
        self.by_component[component.index()]
    }

    /// Total energy across all components.
    pub fn total(&self) -> f64 {
        self.by_component.iter().sum()
    }

    /// Iterates `(component, picojoules)` in Figure 6 legend order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, f64)> + '_ {
        Component::ALL.iter().map(|c| (*c, self.component(*c)))
    }

    /// The breakdown as fractions of the total (all zeros if the total is
    /// zero).
    pub fn fractions(&self) -> Vec<(Component, f64)> {
        let total = self.total();
        Component::ALL
            .iter()
            .map(|c| {
                (
                    *c,
                    if total > 0.0 {
                        self.component(*c) / total
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }

    /// Merges another accounting into this one.
    pub fn merge(&mut self, other: &EnergyAccounting) {
        for (i, v) in other.by_component.iter().enumerate() {
            self.by_component[i] += v;
        }
    }
}

impl Add for EnergyAccounting {
    type Output = EnergyAccounting;
    fn add(mut self, rhs: EnergyAccounting) -> EnergyAccounting {
        self.merge(&rhs);
        self
    }
}

impl AddAssign for EnergyAccounting {
    fn add_assign(&mut self, rhs: EnergyAccounting) {
        self.merge(&rhs);
    }
}

/// The breakdown as an object from component label to picojoules, in
/// Figure 6 legend order.
impl Json for EnergyAccounting {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.iter()
                .map(|(component, pj)| (component.label().to_string(), pj.to_json()))
                .collect(),
        )
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let pairs = value
            .as_object()
            .ok_or("expected an energy breakdown object")?;
        let mut energy = EnergyAccounting::new();
        for (label, pj) in pairs {
            let pj = f64::from_json(pj)
                .ok()
                .filter(|pj| *pj >= 0.0)
                .ok_or_else(|| format!("energy of {label:?} must be a non-negative number"))?;
            energy.record(Component::parse(label)?, pj);
        }
        Ok(energy)
    }
}

impl fmt::Display for EnergyAccounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "energy breakdown (pJ):")?;
        for (c, v) in self.iter() {
            writeln!(f, "  {:<18} {:>14.1}", c.label(), v)?;
        }
        write!(f, "  {:<18} {:>14.1}", "TOTAL", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_ordered() {
        let labels: std::collections::HashSet<_> =
            Component::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 7);
        assert_eq!(Component::ALL[0], Component::L1I);
        assert_eq!(Component::ALL[6], Component::Dram);
    }

    #[test]
    fn add_and_total() {
        let mut acc = EnergyAccounting::new();
        acc.record(Component::L1D, 10.0);
        acc.record(Component::L1D, 5.0);
        acc.record(Component::Dram, 100.0);
        assert_eq!(acc.component(Component::L1D), 15.0);
        assert_eq!(acc.component(Component::L1I), 0.0);
        assert_eq!(acc.total(), 115.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut acc = EnergyAccounting::new();
        acc.record(Component::L2Cache, 30.0);
        acc.record(Component::NetworkLink, 70.0);
        let sum: f64 = acc.fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Empty accounting has all-zero fractions.
        let empty = EnergyAccounting::new();
        assert!(empty.fractions().iter().all(|(_, f)| *f == 0.0));
    }

    #[test]
    fn merge_and_operators() {
        let mut a = EnergyAccounting::new();
        a.record(Component::Directory, 1.0);
        let mut b = EnergyAccounting::new();
        b.record(Component::Directory, 2.0);
        b.record(Component::Dram, 3.0);
        a.merge(&b);
        assert_eq!(a.component(Component::Directory), 3.0);
        let c = a.clone() + b.clone();
        assert_eq!(c.component(Component::Directory), 5.0);
        let mut d = EnergyAccounting::new();
        d += b;
        assert_eq!(d.component(Component::Dram), 3.0);
    }

    #[test]
    fn display_contains_all_components() {
        let mut acc = EnergyAccounting::new();
        acc.record(Component::L1I, 2.0);
        let text = acc.to_string();
        for c in Component::ALL {
            assert!(text.contains(c.label()), "missing {c}");
        }
        assert!(text.contains("TOTAL"));
    }
}
