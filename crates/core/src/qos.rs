//! Tenant QoS classes: who suffers when capacity shrinks.
//!
//! A multi-tenant SmartNIC fleet (OSMOSIS, arXiv:2309.03628) sells two
//! kinds of contract: **guaranteed** tenants paid for their SLA and must
//! keep it through NIC failures and maintenance drains; **best-effort**
//! tenants absorb the slack — they are the first to be drained off a
//! contended NIC, the first to be parked when a failure burst shrinks the
//! fleet, and the last to be re-admitted when capacity returns. The class
//! is a property of the *tenant* (it arrives with the NF and never
//! changes), not of the placement.

/// A tenant's service class, ordered by precedence: guaranteed tenants
/// outrank best-effort ones everywhere capacity is contested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum QosClass {
    /// Holds a hard SLA: never evicted or parked while a best-effort
    /// tenant could yield instead; re-placed first under evacuation.
    #[default]
    Guaranteed,
    /// Soft contract: sheds first under pressure, re-admits last (and
    /// with backoff) when the fleet recovers.
    BestEffort,
}

impl QosClass {
    /// Stable lowercase name, used in reports and JSON records.
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Guaranteed => "guaranteed",
            QosClass::BestEffort => "best_effort",
        }
    }

    /// The inverse of [`QosClass::name`]; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<QosClass> {
        [QosClass::Guaranteed, QosClass::BestEffort]
            .into_iter()
            .find(|q| q.name() == name)
    }

    /// Whether this is the guaranteed class.
    pub fn is_guaranteed(self) -> bool {
        matches!(self, QosClass::Guaranteed)
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guaranteed_outranks_best_effort() {
        assert!(QosClass::Guaranteed < QosClass::BestEffort);
        assert_eq!(QosClass::default(), QosClass::Guaranteed);
        assert!(QosClass::Guaranteed.is_guaranteed());
        assert!(!QosClass::BestEffort.is_guaranteed());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(QosClass::Guaranteed.name(), "guaranteed");
        assert_eq!(QosClass::BestEffort.to_string(), "best_effort");
        for q in [QosClass::Guaranteed, QosClass::BestEffort] {
            assert_eq!(QosClass::from_name(q.name()), Some(q));
        }
        assert_eq!(QosClass::from_name("platinum"), None);
    }
}
