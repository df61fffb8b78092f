//! Violations, reports, and risk ranking.
//!
//! "Errors are classified by risk factor based on the number of servers
//! it impacts, and the number of additional faults required to cause an
//! impact" (§2.6.4). Reports are what the stream-analytics queries and
//! the remediation queues consume.

use crate::contracts::{ContractKind, ContractRef};
use dctopo::{DeviceId, MetadataService, Role};
use netprim::{Ipv4, Prefix};
use std::fmt;

/// Why a contract was violated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ViolationReason {
    /// No rule in the FIB covers (part of) the contract's range; the
    /// packets fall through to a shorter rule or the default route.
    MissingRoute,
    /// A covering rule exists but forwards to the wrong next hops.
    NextHopMismatch {
        /// The rule's prefix.
        rule: Prefix,
        /// Next hops the contract expects.
        expected: Vec<Ipv4>,
        /// Next hops the rule actually programs.
        actual: Vec<Ipv4>,
    },
    /// The default route is absent although a default contract exists.
    MissingDefault,
    /// The default route's next hops differ from the contract
    /// (validated as a special case, §2.5.1).
    DefaultMismatch {
        /// Expected next hops.
        expected: Vec<Ipv4>,
        /// Programmed next hops.
        actual: Vec<Ipv4>,
    },
    /// The contract expects local delivery/origination but the FIB
    /// forwards (or vice versa).
    LocalityMismatch,
}

impl fmt::Display for ViolationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationReason::MissingRoute => write!(f, "no specific route"),
            ViolationReason::NextHopMismatch {
                rule,
                expected,
                actual,
            } => {
                if actual.len() == expected.len() {
                    write!(
                        f,
                        "rule {rule} programs a different {}-hop set than expected",
                        actual.len()
                    )
                } else {
                    write!(
                        f,
                        "rule {rule} programs {} of {} expected next hops",
                        actual.len(),
                        expected.len()
                    )
                }
            }
            ViolationReason::MissingDefault => write!(f, "default route absent"),
            ViolationReason::DefaultMismatch { expected, actual } => {
                if actual.len() == expected.len() {
                    write!(
                        f,
                        "default route has a different {}-hop set than expected",
                        actual.len()
                    )
                } else {
                    write!(
                        f,
                        "default route has {} of {} expected next hops",
                        actual.len(),
                        expected.len()
                    )
                }
            }
            ViolationReason::LocalityMismatch => write!(f, "locality mismatch"),
        }
    }
}

/// One violated contract on one device.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Violation {
    /// The device.
    pub device: DeviceId,
    /// The violated contract's prefix.
    pub prefix: Prefix,
    /// Default or specific contract.
    pub kind: ContractKind,
    /// What went wrong.
    pub reason: ViolationReason,
}

impl Violation {
    /// Build from a contract plus reason.
    pub fn of(contract: ContractRef<'_>, reason: ViolationReason) -> Violation {
        Violation {
            device: contract.device,
            prefix: contract.prefix,
            kind: contract.kind,
            reason,
        }
    }
}

/// Risk rank of a violation (§2.6.4): how close it is to an
/// availability impact, and how many servers sit behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Risk {
    /// Address later; redundancy still absorbs further faults.
    Low,
    /// Reduced redundancy; schedule remediation.
    Medium,
    /// One more fault causes impact (e.g. a ToR down to a single
    /// default next hop), or a wide blast radius (spine/regional).
    High,
}

/// Rank a violation's risk.
///
/// The rules distill §2.6.4's examples: a ToR whose default route is
/// down to one next hop is high-risk (any further fault isolates its
/// rack); spine/regional errors are high-risk because "they are
/// required for assuring the longer paths for several servers"; other
/// reduced-redundancy cases are medium; everything else low.
pub fn risk_of(v: &Violation, meta: &MetadataService) -> Risk {
    let role = meta.device(v.device).role;
    match (&v.reason, role) {
        (ViolationReason::MissingDefault, _) => Risk::High,
        (ViolationReason::DefaultMismatch { actual, .. }, Role::Tor) => {
            if actual.len() <= 1 {
                Risk::High
            } else {
                Risk::Medium
            }
        }
        (_, Role::Spine | Role::RegionalSpine) => Risk::High,
        (ViolationReason::NextHopMismatch { actual, .. }, Role::Tor | Role::Leaf) => {
            if actual.is_empty() || actual.len() == 1 {
                Risk::Medium
            } else {
                Risk::Low
            }
        }
        (ViolationReason::MissingRoute, _) => Risk::Low,
        (ViolationReason::LocalityMismatch, _) => Risk::Medium,
        (ViolationReason::DefaultMismatch { actual, .. }, _) => {
            if actual.len() <= 1 {
                Risk::High
            } else {
                Risk::Medium
            }
        }
    }
}

/// Validation result of one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Violations in contract order; empty means the device is clean.
    pub violations: Vec<Violation>,
    /// Number of contracts checked.
    pub contracts_checked: usize,
    /// Solver-side counters for the engines that run one (conflicts,
    /// propagations, bit-blast cache hits, …). All-zero for the trie
    /// engine, which never touches a solver.
    pub solver_stats: smtkit::SessionStats,
}

impl ValidationReport {
    /// Did every contract hold?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of a given kind.
    pub fn by_kind(&self, kind: ContractKind) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo::generator::figure3;

    fn meta() -> (dctopo::generator::Figure3, MetadataService) {
        let f = figure3();
        let m = MetadataService::from_topology(&f.topology);
        (f, m)
    }

    fn hops(n: usize) -> Vec<Ipv4> {
        (0..n as u32).map(|i| Ipv4(i + 1)).collect()
    }

    #[test]
    fn tor_single_hop_default_is_high_risk() {
        let (f, m) = meta();
        let v = Violation {
            device: f.tors[0],
            prefix: Prefix::DEFAULT,
            kind: ContractKind::Default,
            reason: ViolationReason::DefaultMismatch {
                expected: hops(4),
                actual: hops(1),
            },
        };
        assert_eq!(risk_of(&v, &m), Risk::High);
        // Two remaining hops: degraded but not one-fault-from-outage.
        let v2 = Violation {
            reason: ViolationReason::DefaultMismatch {
                expected: hops(4),
                actual: hops(2),
            },
            ..v
        };
        assert_eq!(risk_of(&v2, &m), Risk::Medium);
    }

    #[test]
    fn spine_errors_are_high_risk() {
        let (f, m) = meta();
        let v = Violation {
            device: f.d[0],
            prefix: f.prefixes[1],
            kind: ContractKind::Specific,
            reason: ViolationReason::MissingRoute,
        };
        // §2.6.4: spine specific-prefix errors endanger the longer paths.
        assert_eq!(risk_of(&v, &m), Risk::High);
        let v_regional = Violation {
            device: f.r[0],
            ..v
        };
        assert_eq!(risk_of(&v_regional, &m), Risk::High);
    }

    #[test]
    fn tor_missing_specific_is_low_risk() {
        let (f, m) = meta();
        let v = Violation {
            device: f.tors[0],
            prefix: f.prefixes[1],
            kind: ContractKind::Specific,
            reason: ViolationReason::MissingRoute,
        };
        assert_eq!(risk_of(&v, &m), Risk::Low);
    }

    #[test]
    fn missing_default_is_always_high() {
        let (f, m) = meta();
        for d in [f.tors[0], f.a[0], f.d[0]] {
            let v = Violation {
                device: d,
                prefix: Prefix::DEFAULT,
                kind: ContractKind::Default,
                reason: ViolationReason::MissingDefault,
            };
            assert_eq!(risk_of(&v, &m), Risk::High);
        }
    }

    #[test]
    fn risk_ordering() {
        assert!(Risk::High > Risk::Medium);
        assert!(Risk::Medium > Risk::Low);
    }

    #[test]
    fn report_kind_filter() {
        let (f, _m) = meta();
        let r = ValidationReport {
            violations: vec![
                Violation {
                    device: f.tors[0],
                    prefix: Prefix::DEFAULT,
                    kind: ContractKind::Default,
                    reason: ViolationReason::MissingDefault,
                },
                Violation {
                    device: f.tors[0],
                    prefix: f.prefixes[1],
                    kind: ContractKind::Specific,
                    reason: ViolationReason::MissingRoute,
                },
            ],
            contracts_checked: 4,
            solver_stats: smtkit::SessionStats::default(),
        };
        assert!(!r.is_clean());
        assert_eq!(r.by_kind(ContractKind::Default).count(), 1);
        assert_eq!(r.by_kind(ContractKind::Specific).count(), 1);
    }
}
