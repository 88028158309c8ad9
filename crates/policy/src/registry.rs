//! The policy registry: resolves policy references `φ(v̄)` to runnable
//! instances.

use std::collections::BTreeMap;
use std::fmt;

use crate::instance::{InstantiationError, PolicyInstance};
use crate::usage::UsageAutomaton;
use sufs_hexpr::shash::{fresh_stamp, stable_hash_of};
use sufs_hexpr::PolicyRef;

/// An error raised when resolving a [`PolicyRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// No automaton registered under the referenced name.
    Unknown(String),
    /// The automaton exists but the actual parameters do not fit.
    Instantiation(InstantiationError),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Unknown(name) => write!(f, "unknown policy {name}"),
            PolicyError::Instantiation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PolicyError {}

impl From<InstantiationError> for PolicyError {
    fn from(e: InstantiationError) -> Self {
        PolicyError::Instantiation(e)
    }
}

/// A registry of named parametric usage automata.
///
/// # Examples
///
/// ```
/// use sufs_policy::{catalog, registry::PolicyRegistry};
/// use sufs_hexpr::{ParamValue, PolicyRef};
///
/// let mut reg = PolicyRegistry::new();
/// reg.register(catalog::hotel_policy());
/// let phi = PolicyRef::new("hotel", [
///     ParamValue::set([1i64]), ParamValue::int(45), ParamValue::int(100),
/// ]);
/// let inst = reg.instantiate(&phi)?;
/// assert_eq!(inst.reference(), &phi);
/// # Ok::<(), sufs_policy::registry::PolicyError>(())
/// ```
///
/// Every content-changing mutation draws a fresh content stamp
/// ([`PolicyRegistry::stamp`]); equality compares content only.
#[derive(Debug, Clone, Default)]
pub struct PolicyRegistry {
    automata: BTreeMap<String, UsageAutomaton>,
    stamp: u64,
}

impl PartialEq for PolicyRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.automata == other.automata
    }
}

impl Eq for PolicyRegistry {}

impl PolicyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry preloaded with every [`crate::catalog`] policy
    /// (the hotel policy plus `no_after("read","write")` under their
    /// catalogue names).
    pub fn with_catalog() -> Self {
        let mut reg = Self::new();
        reg.register(crate::catalog::hotel_policy());
        reg.register(crate::catalog::no_after("read", "write"));
        reg
    }

    /// Registers an automaton under its own name, replacing any previous
    /// automaton with that name (the old one is returned).
    pub fn register(&mut self, automaton: UsageAutomaton) -> Option<UsageAutomaton> {
        self.stamp = fresh_stamp();
        self.automata.insert(automaton.name().to_owned(), automaton)
    }

    /// Looks up an automaton by name.
    pub fn get(&self, name: &str) -> Option<&UsageAutomaton> {
        self.automata.get(name)
    }

    /// Unregisters the automaton with `name`, returning it if it was
    /// registered. Histories referencing a removed policy fail to
    /// resolve from then on, exactly like any other unknown policy.
    pub fn remove(&mut self, name: &str) -> Option<UsageAutomaton> {
        let removed = self.automata.remove(name);
        if removed.is_some() {
            self.stamp = fresh_stamp();
        }
        removed
    }

    /// The content stamp: drawn afresh (see
    /// [`sufs_hexpr::shash::fresh_stamp`]) by every `register` and every
    /// `remove` of a registered name, and copied by `Clone`. Two
    /// registries with equal stamps hold equal automata; a never-mutated
    /// registry has stamp 0.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// One structural fingerprint of every registered automaton (see
    /// [`UsageAutomaton::fingerprint`]): equal registries have equal
    /// fingerprints, in every run.
    pub fn fingerprint(&self) -> u64 {
        let parts: Vec<u64> = self.iter().map(UsageAutomaton::fingerprint).collect();
        stable_hash_of(&parts)
    }

    /// The number of registered automata.
    pub fn len(&self) -> usize {
        self.automata.len()
    }

    /// Returns `true` if no automata are registered.
    pub fn is_empty(&self) -> bool {
        self.automata.is_empty()
    }

    /// Resolves a policy reference to a runnable instance.
    ///
    /// # Errors
    ///
    /// [`PolicyError::Unknown`] if the name is unregistered,
    /// [`PolicyError::Instantiation`] on arity mismatch.
    pub fn instantiate(&self, reference: &PolicyRef) -> Result<PolicyInstance, PolicyError> {
        let ua = self
            .automata
            .get(reference.name())
            .ok_or_else(|| PolicyError::Unknown(reference.name().to_owned()))?;
        Ok(PolicyInstance::new(ua.clone(), reference.clone())?)
    }

    /// Iterates over the registered automata in name order.
    pub fn iter(&self) -> impl Iterator<Item = &UsageAutomaton> {
        self.automata.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use sufs_hexpr::ParamValue;

    #[test]
    fn register_and_lookup() {
        let mut reg = PolicyRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.register(catalog::hotel_policy()).is_none());
        assert_eq!(reg.len(), 1);
        assert!(reg.get("hotel").is_some());
        assert!(reg.get("nope").is_none());
        // Re-registering returns the old automaton.
        assert!(reg.register(catalog::hotel_policy()).is_some());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.iter().count(), 1);
    }

    #[test]
    fn clone_keeps_the_stamp_and_mutations_diverge_it() {
        let mut a = PolicyRegistry::new();
        a.register(catalog::hotel_policy());
        let mut b = a.clone();
        assert_eq!(a.stamp(), b.stamp());
        b.register(catalog::no_after("read", "write"));
        assert_ne!(a.stamp(), b.stamp());
        let c = a.clone();
        assert!(a.remove("hotel").is_some());
        assert_ne!(a.stamp(), c.stamp());
        assert_ne!(a.stamp(), b.stamp());
    }

    #[test]
    fn removing_an_unknown_name_keeps_the_stamp() {
        let mut reg = PolicyRegistry::new();
        assert_eq!(reg.stamp(), 0);
        reg.register(catalog::hotel_policy());
        let stamp = reg.stamp();
        assert_ne!(stamp, 0);
        assert!(reg.remove("ghost").is_none());
        assert_eq!(reg.stamp(), stamp);
    }

    #[test]
    fn equal_content_built_apart_compares_equal_with_distinct_stamps() {
        let (a, b) = (
            PolicyRegistry::with_catalog(),
            PolicyRegistry::with_catalog(),
        );
        assert_eq!(a, b);
        assert_ne!(a.stamp(), b.stamp());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.remove("hotel");
        assert_ne!(a, c);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn mutations_on_different_instances_never_share_a_stamp() {
        // A per-instance counter would hand every registry the same
        // sequence 1, 2, 3, …; the global one never repeats.
        let mut regs = vec![PolicyRegistry::new(), PolicyRegistry::new()];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..3 {
            for reg in &mut regs {
                reg.register(catalog::hotel_policy());
                assert!(seen.insert(reg.stamp()), "stamp reused");
            }
        }
    }

    #[test]
    fn unknown_policy_error() {
        let reg = PolicyRegistry::new();
        let err = reg.instantiate(&PolicyRef::nullary("ghost")).unwrap_err();
        assert_eq!(err, PolicyError::Unknown("ghost".into()));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn arity_error_is_propagated() {
        let mut reg = PolicyRegistry::new();
        reg.register(catalog::hotel_policy());
        let bad = PolicyRef::new("hotel", [ParamValue::int(45)]);
        let err = reg.instantiate(&bad).unwrap_err();
        assert!(matches!(err, PolicyError::Instantiation(_)));
    }

    #[test]
    fn with_catalog_is_preloaded() {
        let reg = PolicyRegistry::with_catalog();
        assert!(reg.get("hotel").is_some());
        assert!(reg.get("no_write_after_read").is_some());
    }
}
