//! The strategy registry: every contestant a tournament can field.
//!
//! A registry entry is a named, shared, replayable [`PolicyTable`] — a
//! lowered [`Family`] at some `(α, γ)`, or a solver
//! artifact loaded from disk (`results/policies/`). Tables are held
//! behind [`Arc`] so that a tournament's many concurrent cells never copy
//! the action arrays; the registry index is the stable handle cells refer
//! to.

use std::sync::Arc;

use seleth_mdp::PolicyTable;

use crate::families::Family;

/// Where a registered strategy came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategySource {
    /// Generated by a [`Family`] at the entry's `(α, γ)`.
    Family(Family),
    /// A solver-produced (or externally supplied) policy artifact.
    Artifact,
}

/// One tournament contestant: a named table plus its provenance.
#[derive(Debug, Clone)]
pub struct RegisteredStrategy {
    /// Report name: the family id, or the artifact's file stem.
    pub name: String,
    /// The replayable table (shared, never copied per cell).
    pub table: Arc<PolicyTable>,
    /// Predicted objective value at the table's own `(α, γ)`: the closed
    /// form for honest/SM1, the recorded ρ* for solver artifacts, the
    /// honest baseline `α` otherwise.
    pub predicted: f64,
    /// Provenance.
    pub source: StrategySource,
}

/// An append-only collection of contestants; indices are stable handles.
#[derive(Debug, Clone, Default)]
pub struct StrategyRegistry {
    entries: Vec<RegisteredStrategy>,
}

impl StrategyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a [`Family`] lowered at `(alpha, gamma)` with truncation
    /// `max_len`; returns the entry's index.
    ///
    /// # Panics
    ///
    /// Panics if the lowered table fails the
    /// [`PolicyTable::is_legal_everywhere`] audit — the generators
    /// guarantee legality, so a failure is a bug in a new family rule, and
    /// catching it at registration beats silently degraded replays.
    pub fn register_family(
        &mut self,
        family: Family,
        alpha: f64,
        gamma: f64,
        max_len: u32,
    ) -> usize {
        let table = family.table(alpha, gamma, max_len);
        assert!(
            table.is_legal_everywhere(),
            "family {} lowered to an illegal table",
            family.id()
        );
        self.push(RegisteredStrategy {
            name: family.id(),
            predicted: table.predicted_revenue(),
            table: Arc::new(table),
            source: StrategySource::Family(family),
        })
    }

    /// Register a solver (or hand-supplied) artifact under `name`;
    /// returns the entry's index. The artifact's recorded ρ* becomes the
    /// prediction. Unlike [`StrategyRegistry::register_family`] no
    /// legality audit is enforced: executors tolerate illegal artifacts by
    /// design (forced adopt), and auditing them is the caller's choice.
    pub fn register_artifact(&mut self, name: impl Into<String>, table: PolicyTable) -> usize {
        self.push(RegisteredStrategy {
            name: name.into(),
            predicted: table.predicted_revenue(),
            table: Arc::new(table),
            source: StrategySource::Artifact,
        })
    }

    fn push(&mut self, entry: RegisteredStrategy) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds (registry indices come from
    /// the register calls, so this is a caller bug).
    pub fn get(&self, index: usize) -> &RegisteredStrategy {
        &self.entries[index]
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over the entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &RegisteredStrategy> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_round_trip() {
        let mut reg = StrategyRegistry::new();
        assert!(reg.is_empty());
        let sm1 = reg.register_family(Family::Sm1, 0.3, 0.5, 10);
        let honest = reg.register_artifact("baseline", PolicyTable::honest(0.3, 0.5, 10));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(sm1).name, "sm1");
        assert_eq!(reg.get(sm1).source, StrategySource::Family(Family::Sm1));
        assert!(
            (reg.get(sm1).predicted - seleth_core::bitcoin::eyal_sirer_revenue(0.3, 0.5)).abs()
                < 1e-12,
            "family prediction is the closed form"
        );
        assert_eq!(reg.get(honest).name, "baseline");
        assert_eq!(reg.get(honest).source, StrategySource::Artifact);
        assert_eq!(reg.get(honest).predicted, 0.3);
        assert_eq!(reg.iter().count(), 2);
    }
}
