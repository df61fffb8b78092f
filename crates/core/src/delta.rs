//! Shared delta-revalidation machinery for the incremental explorers.
//!
//! Both [`crate::whatif`] (k-failure sweeps) and [`crate::rollout`]
//! (change-ordering search) evaluate "what does the fabric look like
//! after this perturbation" states by restarting the routing fixed
//! point from a converged baseline and revalidating only the devices
//! whose FIBs changed. The pieces that make that cheap — the
//! clean-prior pruned revalidation over the contract store's
//! affected-contract lookup, and the `(device, fib_hash)` verdict
//! memo — live here.

use crate::contracts::DeviceContracts;
use crate::engine::Engine;
use crate::report::{risk_of, ValidationReport, Violation, ViolationReason};
use crate::whatif::FailCondition;
use bgpsim::Fib;
use dctopo::MetadataService;
use netprim::wire::FibDelta;
use netprim::Prefix;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Cross-state verdict memo: validation is pure in the FIB bytes and
/// the contract set, so `(device, fib content hash)` fully determines
/// the report no matter which fault or change context produced the
/// table — the same argument that makes the pipeline's `VerdictCache`
/// `(fib_hash, epoch)` key sound across scenarios.
pub(crate) type VerdictMemo = RwLock<HashMap<(u32, u64), ValidationReport>>;

/// Delta-validate one changed device against its prior.
///
/// With a clean prior (the overwhelmingly common case — healthy
/// fabrics validate clean), unaffected contracts carry nothing over,
/// so the contracts the delta can affect (the store's table lookup,
/// the same one [`Engine::validate_delta`] uses in the trie engine)
/// are validated on their own: the engine sees only the contracts it
/// would have re-checked anyway, and the subset's clean prior is the
/// genuine prior of those contracts. The subset keeps list order, so
/// violations come back in the full scan's emission order. A non-clean
/// prior falls back to the engine's own carry logic.
pub(crate) fn revalidate(
    engine: &dyn Engine,
    contracts: &DeviceContracts,
    prior: &ValidationReport,
    fib: &Fib,
    touched: &[Prefix],
) -> ValidationReport {
    // `validate_delta` only consumes the delta's prefix set (which
    // contracts are affected) and its rule count (the full-churn
    // fallback heuristic) — never the rule payloads. The restart
    // already hands us the touched prefixes, so the delta is
    // synthesized without re-searching either table; which bucket the
    // prefixes land in is immaterial.
    let delta = FibDelta {
        device: fib.device().0,
        removed: touched.to_vec(),
        ..FibDelta::default()
    };
    if !prior.violations.is_empty() {
        return engine.validate_delta(fib, contracts, &delta, prior);
    }
    let mut affected: Vec<_> = contracts.affected(touched).collect();
    if affected.is_empty() {
        return prior.clone();
    }
    affected.sort_unstable_by_key(|&(key, _)| key);
    let pruned =
        DeviceContracts::from_contracts(affected.iter().map(|(_, c)| c.to_contract()).collect());
    let clean = ValidationReport {
        violations: Vec::new(),
        contracts_checked: pruned.len(),
        solver_stats: Default::default(),
    };
    let sub = engine.validate_delta(fib, &pruned, &delta, &clean);
    ValidationReport {
        contracts_checked: contracts.len(),
        ..sub
    }
}

/// Does `v` match `condition`? Shared by the what-if sweeper and the
/// rollout planner so both judge states with the same reading.
///
/// # Panics
///
/// Risk-ranked conditions require metadata; `ctx` names the caller in
/// the panic message.
pub(crate) fn violation_matches(
    v: &Violation,
    condition: FailCondition,
    meta: Option<&MetadataService>,
    ctx: &str,
) -> bool {
    match condition {
        FailCondition::AnyViolation => true,
        FailCondition::Blackhole => matches!(v.reason, ViolationReason::MissingDefault),
        FailCondition::AtLeast(min) => {
            let meta = meta.unwrap_or_else(|| {
                panic!(
                    "risk-ranked fail conditions require metadata: construct the {ctx} \
                     via Validator::new(&meta) or attach it with .metadata(&meta)"
                )
            });
            risk_of(v, meta) >= min
        }
    }
}
