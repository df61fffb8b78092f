//! Safe change-rollout planning: find an ordering of configuration
//! changes whose *every intermediate state* satisfies the contracts.
//!
//! The paper's §2.7 pre-deployment check validates one candidate
//! configuration as a whole; the operational risk it leaves open is
//! *ordering*. A migration that is safe end-to-end can still blackhole
//! traffic halfway through — shut both old uplinks before the new ones
//! come up and the ToR has no default route until the rollout
//! finishes. Snowcap (SIGCOMM 2021) frames this as a search over
//! per-device reconfiguration sequences; Plankton shows the search
//! scales when each explored state is checked *incrementally* rather
//! than rebuilt. That is exactly the stack PR 9 built for what-if
//! sweeps, reused here:
//!
//! * Changes are absolute-state writes to **distinct targets** (a
//!   classification error otherwise), so they commute: the network
//!   state after applying a subset is a function of the *set*, not the
//!   order. The search therefore explores subsets (`u128` masks), not
//!   sequences — a plan is a path through the subset lattice.
//! * Each subset splits into its *general* part (link bring-ups,
//!   override edits — anything `bgpsim::restart` cannot patch) and its
//!   *fault* part (links going down). The general part keys a converged
//!   **anchor** ([`bgpsim::Baseline`] + full validation); the fault
//!   part is evaluated from that anchor by
//!   [`resimulate`](bgpsim::Baseline::resimulate) + touched-device-only
//!   revalidation ([`crate::delta`]). Anchors never bake faults in, so
//!   one anchor serves every fault combination above it — and ddmin can
//!   evaluate *arbitrary* subsets, not just search prefixes.
//! * Per-device verdicts are memoized across the whole search frontier
//!   by `(device, fib content hash)` ([`crate::delta::VerdictMemo`]):
//!   validation is pure in the FIB bytes and the contract set, so a
//!   content hit is a correct verdict no matter which ordering
//!   produced the table.
//!
//! A state is *safe* when every condition-matching violation in it is
//! **allowed** — present in the production baseline (pre-existing
//! conditions are not the rollout's fault) or in the final state (the
//! operator asked for that state; see
//! [`PlanOptions::accept_final`]). The driver is a deterministic DFS:
//! candidates in ascending index order, fault-shaped candidates of a
//! frontier pre-evaluated in parallel chunks, dead prefixes memoized,
//! backtracking bounded. When no safe ordering exists the planner
//! reports a ddmin-minimal unsafe change *set* ([`crate::shrink`]):
//! applying those changes together is unsafe no matter the order and
//! removing any one of them makes the remainder orderable.
//!
//! Build a planner with
//! [`ValidatorBuilder::build_planner`](crate::ValidatorBuilder::build_planner),
//! a plain §2.7 pre-checker with
//! [`build_precheck`](crate::ValidatorBuilder::build_precheck).

use crate::contracts::DeviceContracts;
use crate::delta::VerdictMemo;
use crate::engine::Engine;
use crate::report::{ValidationReport, Violation};
use crate::runner::run_pass;
use crate::shrink::shrink_list;
use crate::whatif::FailCondition;
use bgpsim::restart::{Baseline, FaultSpec, RestartStats};
use bgpsim::{simulate, DeviceOverride, Fib, SimConfig};
use dctopo::{DeviceId, LinkId, LinkState, MetadataService, Topology};
use obskit::Registry;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// One configuration change under review — the shared change
/// vocabulary of the pre-checker and the rollout planner.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigChange {
    /// Replace a device's configuration overrides (route maps, ECMP
    /// settings, ASN) — the §2.6.2 "policy error" and "migration"
    /// change classes.
    SetOverride {
        /// Target device.
        device: DeviceId,
        /// New override (use `DeviceOverride::default()` to clear).
        config: DeviceOverride,
    },
    /// Administratively change a link/session state (maintenance,
    /// lossy-link mitigation, decommissioning).
    SetLinkState {
        /// Target link.
        link: LinkId,
        /// New state.
        state: LinkState,
    },
}

/// The production network being managed: the model the emulator
/// clones, deployments mutate, and rollout plans step through.
#[derive(Clone)]
pub struct ManagedNetwork {
    /// Physical topology, including current link states.
    pub topology: Topology,
    /// Device configuration overrides currently in production.
    pub config: SimConfig,
}

impl ManagedNetwork {
    /// A healthy network over a topology.
    pub fn new(topology: Topology) -> ManagedNetwork {
        ManagedNetwork {
            topology,
            config: SimConfig::healthy(),
        }
    }

    /// Apply a change in place (used for production deploys and on the
    /// emulator clone).
    pub fn apply(&mut self, change: &ConfigChange) {
        match change {
            ConfigChange::SetOverride { device, config } => {
                *self.config.device_mut(*device) = config.clone();
            }
            ConfigChange::SetLinkState { link, state } => {
                self.topology.set_link_state(*link, *state);
            }
        }
    }

    /// Converge the control plane and validate every device; returns
    /// all violations (the flattened datacenter report). Validates the
    /// borrowed contracts with the default engine and thread count;
    /// construct a [`Prechecker`] to pick them.
    pub fn validate(&self, contracts: &[DeviceContracts]) -> Vec<Violation> {
        let fibs = simulate(&self.topology, &self.config);
        let engine = crate::runner::EngineChoice::default().instantiate();
        let report = run_pass(engine.as_ref(), 0, &fibs, contracts, 1, None, None);
        report
            .reports
            .into_iter()
            .flat_map(|r| r.violations)
            .collect()
    }
}

/// A seeded rollout-scenario shape, shared by the `validatedc plan`
/// subcommand, the difftest rollout oracle, and the E19 benchmark so
/// they all exercise the same operations the planner was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutScenario {
    /// Uplink migration: for each picked ToR, the "new" half of its
    /// uplinks is admin-shut in production; the change set shuts the
    /// "old" half and brings up the new half, listed in the naive
    /// submit order (all shuts first) — the order that blackholes the
    /// ToR mid-rollout and forces the planner to interleave.
    Migrate,
    /// Rack decommission: shut every uplink of each picked ToR. Safe
    /// in any order when the final state is accepted, minimally
    /// unsafe otherwise.
    Decommission,
}

impl std::str::FromStr for RolloutScenario {
    type Err = String;

    fn from_str(s: &str) -> Result<RolloutScenario, String> {
        match s {
            "migrate" => Ok(RolloutScenario::Migrate),
            "decommission" => Ok(RolloutScenario::Decommission),
            other => Err(format!(
                "unknown scenario {other:?} (expected migrate|decommission)"
            )),
        }
    }
}

/// Build a seeded rollout scenario over `racks` distinct seed-chosen
/// ToRs of a topology: the production network (standby links already
/// shut for [`Migrate`](RolloutScenario::Migrate)) plus the change set
/// in naive submit order. `racks` is clamped to the available ToRs;
/// keep `racks × uplinks-per-ToR × 2` within the planner's 128-change
/// budget.
pub fn seeded_scenario(
    topology: &Topology,
    scenario: RolloutScenario,
    racks: usize,
    seed: u64,
) -> (ManagedNetwork, Vec<ConfigChange>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut tors: Vec<DeviceId> = topology
        .devices_with_role(dctopo::Role::Tor)
        .map(|d| d.id)
        .collect();
    let n = racks.clamp(1, tors.len());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let j = rng.gen_range(i..tors.len());
        tors.swap(i, j);
    }
    let mut net = ManagedNetwork::new(topology.clone());
    let mut shuts = Vec::new();
    let mut ups = Vec::new();
    for &tor in &tors[..n] {
        let uplinks: Vec<LinkId> = net.topology.links_of(tor).map(|l| l.id).collect();
        let standby_from = match scenario {
            // Decommission touches every uplink; migration splits them
            // into an "old" (shut) and a "new" (bring-up) half.
            RolloutScenario::Decommission => uplinks.len(),
            RolloutScenario::Migrate => uplinks.len().div_ceil(2),
        };
        for &link in &uplinks[..standby_from] {
            shuts.push(ConfigChange::SetLinkState {
                link,
                state: LinkState::AdminShut,
            });
        }
        for &link in &uplinks[standby_from..] {
            net.topology.set_link_state(link, LinkState::AdminShut);
            ups.push(ConfigChange::SetLinkState {
                link,
                state: LinkState::Up,
            });
        }
    }
    shuts.extend(ups);
    (net, shuts)
}

/// Result of a pre-check run.
#[derive(Debug)]
pub struct PrecheckReport {
    /// Violations present before the change (pre-existing conditions
    /// are not the change's fault).
    pub baseline: Vec<Violation>,
    /// Violations present after the change, on the emulator.
    pub candidate: Vec<Violation>,
}

impl PrecheckReport {
    /// Violations introduced by the change: candidate minus baseline.
    pub fn regressions(&self) -> Vec<&Violation> {
        self.candidate
            .iter()
            .filter(|v| !self.baseline.contains(v))
            .collect()
    }

    /// Does the change pass (no new violations)?
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
    }
}

/// Outcome of the full Figure-7 workflow for one change set.
#[derive(Debug)]
pub enum WorkflowOutcome {
    /// Pre-check failed: the change never reached production.
    RejectedAtPrecheck(PrecheckReport),
    /// Deployed; post-validation green.
    Deployed,
    /// Deployed, post-validation regressed (e.g. emulator/production
    /// divergence injected in tests), change rolled back.
    RolledBack {
        /// The violations seen post-deployment.
        regressions: Vec<Violation>,
    },
}

/// The §2.7 emulator pre-check and Figure-7 change workflow over one
/// production network. Build with
/// [`ValidatorBuilder::build_precheck`](crate::ValidatorBuilder::build_precheck).
pub struct Prechecker {
    production: ManagedNetwork,
    contracts: Vec<DeviceContracts>,
    engine: Box<dyn Engine + Sync>,
    threads: usize,
}

impl Prechecker {
    pub(crate) fn new(
        production: ManagedNetwork,
        contracts: Vec<DeviceContracts>,
        engine: Box<dyn Engine + Sync>,
        threads: usize,
    ) -> Prechecker {
        Prechecker {
            production,
            contracts,
            engine,
            threads,
        }
    }

    /// The production network (mutated only by successful
    /// [`submit`](Self::submit) deploys).
    pub fn production(&self) -> &ManagedNetwork {
        &self.production
    }

    /// Surrender the production network (e.g. to hand the deployed
    /// state to a deprecated-shim caller).
    pub fn into_production(self) -> ManagedNetwork {
        self.production
    }

    /// The contract sets being validated against (indexed by device).
    pub fn contracts(&self) -> &[DeviceContracts] {
        &self.contracts
    }

    /// Converge and validate a network with this checker's engine and
    /// thread count; returns the flattened violation list.
    pub fn validate(&self, network: &ManagedNetwork) -> Vec<Violation> {
        let fibs = simulate(&network.topology, &network.config);
        run_pass(
            self.engine.as_ref(),
            self.threads,
            &fibs,
            &self.contracts,
            1,
            None,
            None,
        )
        .reports
        .into_iter()
        .flat_map(|r| r.violations)
        .collect()
    }

    /// Run the emulator pre-check for a change set: clone production,
    /// apply, converge, compare against the baseline validation.
    pub fn precheck(&self, changes: &[ConfigChange]) -> PrecheckReport {
        let baseline = self.validate(&self.production);
        let mut emulated = self.production.clone();
        for c in changes {
            emulated.apply(c);
        }
        let candidate = self.validate(&emulated);
        PrecheckReport {
            baseline,
            candidate,
        }
    }

    /// Run a change set through the Figure-7 workflow: pre-check →
    /// deploy → post-check → rollback on regression.
    pub fn submit(&mut self, changes: &[ConfigChange]) -> WorkflowOutcome {
        let pre = self.precheck(changes);
        if !pre.passed() {
            return WorkflowOutcome::RejectedAtPrecheck(pre);
        }
        // Deploy to production.
        let before = self.production.clone();
        for c in changes {
            self.production.apply(c);
        }
        // Post-check on the live network.
        let post = self.validate(&self.production);
        let regressions: Vec<Violation> = post
            .into_iter()
            .filter(|v| !pre.baseline.contains(v))
            .collect();
        if regressions.is_empty() {
            WorkflowOutcome::Deployed
        } else {
            self.production = before;
            WorkflowOutcome::RolledBack { regressions }
        }
    }
}

/// Rollout-search configuration.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// What makes an intermediate state unsafe (default: any new
    /// violation at all).
    pub condition: FailCondition,
    /// Treat the final state's violations as allowed (default). The
    /// operator asked for the end state — a decommission *ends* with
    /// fewer links — so only violations transient to intermediate
    /// steps should block the rollout. Disable to demand that every
    /// state, the last included, stays regression-free.
    pub accept_final: bool,
    /// Abort the search after this many backtracks (dead subsets); the
    /// report's [`search_exhausted`](PlanReport::search_exhausted)
    /// records whether the space was covered.
    pub max_backtracks: usize,
    /// Worker threads for frontier evaluation (0 = the planner's
    /// configured thread count). The emitted plan is identical at any
    /// thread count.
    pub threads: usize,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions {
            condition: FailCondition::AnyViolation,
            accept_final: true,
            max_backtracks: 4096,
            threads: 0,
        }
    }
}

/// One step of an emitted plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Index of the change in the submitted change list.
    pub index: usize,
    /// The change itself.
    pub change: ConfigChange,
}

/// Why no safe ordering exists: a minimal subset of the submitted
/// changes that is unsafe *as a set* — since changes commute, every
/// ordering of the full submission passes through some unsafe state
/// containing it.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsafePrefix {
    /// The ddmin-minimized unsafe subset (ascending submission index):
    /// removing any one change makes the remainder safe.
    pub prefix: Vec<PlanStep>,
    /// The unsafe subset the search first discovered (a superset).
    pub found: Vec<PlanStep>,
    /// The transient violations (condition-matching, not allowed)
    /// present in the minimized subset's state.
    pub transient: Vec<Violation>,
}

/// The planner's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanVerdict {
    /// A safe ordering: apply the steps in sequence and every
    /// intermediate fixed point satisfies the contracts (modulo
    /// allowed baseline/final violations).
    Safe(Vec<PlanStep>),
    /// No safe ordering exists; here is a minimal witness.
    Unsafe(UnsafePrefix),
}

impl std::fmt::Display for PlanVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanVerdict::Safe(steps) => write!(f, "safe plan of {} step(s)", steps.len()),
            PlanVerdict::Unsafe(u) => {
                write!(f, "unsafe: minimal unsafe subset of {} change(s)", u.prefix.len())
            }
        }
    }
}

/// Everything a planning run did and decided.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The verdict.
    pub verdict: PlanVerdict,
    /// The condition intermediate states were judged against.
    pub condition: FailCondition,
    /// Distinct intermediate states evaluated (anchors + restarts).
    pub states_evaluated: usize,
    /// Per-device delta validations performed.
    pub devices_revalidated: usize,
    /// Per-device verdicts answered from the cross-state memo.
    pub verdicts_reused: usize,
    /// Converged anchors built for general-change subsets.
    pub anchors_built: usize,
    /// Search steps skipped because the subset was a memoized dead
    /// prefix.
    pub dead_prefix_hits: usize,
    /// Subsets proven dead (every completion blocked).
    pub backtracks: usize,
    /// Did the search cover the space? `false` means the backtrack
    /// budget ran out — an `Unsafe` verdict is then still a true
    /// witness, but a safe ordering outside the explored region may
    /// have been missed.
    pub search_exhausted: bool,
    /// Aggregated fixed-point restart counters across all states.
    pub restart: RestartStats,
    /// Wall-clock time for the whole planning run.
    pub elapsed: Duration,
}

impl PlanReport {
    /// Did the planner find a safe ordering?
    pub fn is_safe(&self) -> bool {
        matches!(self.verdict, PlanVerdict::Safe(_))
    }
}

/// One submitted order checked step by step (no search) — the §2.7
/// workflow's question, answered with intermediate states included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderCheck {
    /// Index of the first step whose post-state is unsafe (`None` =
    /// the order is safe end to end).
    pub first_unsafe: Option<usize>,
    /// Transient violations in that first unsafe state.
    pub transient: usize,
    /// Intermediate states evaluated.
    pub states_evaluated: usize,
}

struct RolloutMetrics {
    safe: obskit::Counter,
    unsafe_states: obskit::Counter,
    state_latency: obskit::Histogram,
    revalidated: obskit::Counter,
    reused: obskit::Counter,
    backtracks: obskit::Counter,
    dead_hits: obskit::Counter,
    anchors: obskit::Counter,
}

impl RolloutMetrics {
    fn new(registry: &Registry) -> RolloutMetrics {
        let outcome = |o| {
            registry.counter(
                "rcdc_rollout_states_total",
                "intermediate rollout states evaluated, by outcome",
                &[("outcome", o)],
            )
        };
        RolloutMetrics {
            safe: outcome("safe"),
            unsafe_states: outcome("unsafe"),
            state_latency: registry.histogram(
                "rcdc_rollout_state_latency_ns",
                "per-state incremental check latency in nanoseconds",
                &[],
            ),
            revalidated: registry.counter(
                "rcdc_rollout_devices_revalidated_total",
                "per-device delta validations performed by the planner",
                &[],
            ),
            reused: registry.counter(
                "rcdc_rollout_verdicts_reused_total",
                "per-device verdicts answered from the cross-state memo",
                &[],
            ),
            backtracks: registry.counter(
                "rcdc_rollout_backtracks_total",
                "subsets proven dead during ordering search",
                &[],
            ),
            dead_hits: registry.counter(
                "rcdc_rollout_dead_prefix_hits_total",
                "search steps skipped via the dead-prefix memo",
                &[],
            ),
            anchors: registry.counter(
                "rcdc_rollout_anchors_total",
                "converged anchors built for general-change subsets",
                &[],
            ),
        }
    }
}

/// How a change interacts with the incremental evaluation stack,
/// classified once against production (valid for every subset because
/// targets are distinct — no later change can alter the classification
/// of an earlier one's target).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// No routing effect (override equal to current, or a link-state
    /// write that does not change session liveness).
    Noop,
    /// A live session going down — exactly what
    /// [`bgpsim::Baseline::resimulate`] patches.
    Fault(LinkId),
    /// Everything else (link bring-up, override edit): needs a fresh
    /// converged anchor.
    General,
}

/// The safe change-rollout planner. Build one with
/// [`ValidatorBuilder::build_planner`](crate::ValidatorBuilder::build_planner).
pub struct RolloutPlanner {
    production: ManagedNetwork,
    baseline: Baseline,
    root_reports: Vec<ValidationReport>,
    root_hashes: Vec<u64>,
    contracts: Vec<DeviceContracts>,
    engine: Box<dyn Engine + Sync>,
    threads: usize,
    meta: Option<MetadataService>,
    metrics: Option<RolloutMetrics>,
    /// Cross-call memo for [`Self::state_reports`], keyed by the
    /// canonical change *set*. Changes commute (classify rejects
    /// duplicate targets), so a subset's fixed point — and therefore
    /// its report vector — is independent of the order the subset was
    /// reached in; candidate orderings of one rollout revisit the same
    /// lattice states over and over, and each distinct state is only
    /// ever evaluated once per planner.
    state_memo: RwLock<HashMap<Vec<ChangeKey>, std::sync::Arc<Vec<ValidationReport>>>>,
}

/// Canonical identity of one change in the [`RolloutPlanner`]
/// state-report memo: the exact payload, keyed by target so a change
/// set sorts into one canonical sequence (targets are distinct by
/// construction).
#[derive(PartialEq, Eq, Hash)]
enum ChangeKey {
    Link(u32, LinkState),
    Override(u32, DeviceOverride),
}

impl ChangeKey {
    fn of(c: &ConfigChange) -> ChangeKey {
        match c {
            ConfigChange::SetLinkState { link, state } => ChangeKey::Link(link.0, *state),
            ConfigChange::SetOverride { device, config } => {
                ChangeKey::Override(device.0, config.clone())
            }
        }
    }

    /// `(kind, target)` — unique within one change set.
    fn slot(&self) -> (u8, u32) {
        match self {
            ChangeKey::Link(id, _) => (0, *id),
            ChangeKey::Override(id, _) => (1, *id),
        }
    }
}

/// Entries kept in the state-report memo before it is wiped; a plan
/// over the full 128-change budget visits far fewer distinct states
/// than this, so the cap only matters to planners embedded in
/// long-lived services.
const STATE_MEMO_CAP: usize = 4096;

impl RolloutPlanner {
    pub(crate) fn new(
        production: ManagedNetwork,
        contracts: Vec<DeviceContracts>,
        engine: Box<dyn Engine + Sync>,
        threads: usize,
        meta: Option<MetadataService>,
        registry: Option<&Registry>,
    ) -> RolloutPlanner {
        let baseline = Baseline::converge(&production.topology, &production.config);
        let root = run_pass(
            engine.as_ref(),
            threads,
            baseline.healthy_fibs(),
            &contracts,
            1,
            None,
            None,
        );
        RolloutPlanner {
            production,
            baseline,
            root_hashes: root.fib_hashes,
            root_reports: root.reports,
            contracts,
            engine,
            threads,
            meta,
            metrics: registry.map(RolloutMetrics::new),
            state_memo: RwLock::new(HashMap::new()),
        }
    }

    /// The production network plans start from.
    pub fn production(&self) -> &ManagedNetwork {
        &self.production
    }

    /// The production baseline's per-device validation reports.
    pub fn baseline_reports(&self) -> &[ValidationReport] {
        &self.root_reports
    }

    /// The contract sets being validated against (indexed by device).
    pub fn contracts(&self) -> &[DeviceContracts] {
        &self.contracts
    }

    /// Classify each change against production. Errors on duplicate
    /// targets (changes must commute for subset-keyed evaluation to be
    /// sound) and on change sets too large for the mask width.
    fn classify(&self, changes: &[ConfigChange]) -> Result<Vec<Shape>, String> {
        if changes.len() > 128 {
            return Err(format!(
                "at most 128 changes per plan (got {})",
                changes.len()
            ));
        }
        let mut links_seen: HashSet<LinkId> = HashSet::new();
        let mut devices_seen: HashSet<DeviceId> = HashSet::new();
        changes
            .iter()
            .map(|c| match c {
                ConfigChange::SetLinkState { link, state } => {
                    if !links_seen.insert(*link) {
                        return Err(format!(
                            "duplicate change target: link {} appears twice",
                            link.0
                        ));
                    }
                    let current = self.production.topology.link(*link).state;
                    Ok(if current.session_up() == state.session_up() {
                        // Up→up is the same state; down→down (e.g.
                        // OperDown → AdminShut) changes bookkeeping
                        // but not the session graph the fixed point
                        // reads.
                        Shape::Noop
                    } else if current.session_up() {
                        Shape::Fault(*link)
                    } else {
                        Shape::General
                    })
                }
                ConfigChange::SetOverride { device, config } => {
                    if !devices_seen.insert(*device) {
                        return Err(format!(
                            "duplicate change target: device {} appears twice",
                            device.0
                        ));
                    }
                    let current = self
                        .production
                        .config
                        .device(*device)
                        .cloned()
                        .unwrap_or_default();
                    Ok(if current == *config {
                        Shape::Noop
                    } else {
                        Shape::General
                    })
                }
            })
            .collect()
    }

    /// Validate a full FIB vector with the root-hash shortcut:
    /// devices whose tables match production reuse the root verdict.
    fn cold_reports(&self, fibs: &[Fib]) -> Vec<ValidationReport> {
        fibs.iter()
            .enumerate()
            .map(|(du, fib)| {
                if fib.content_hash() == self.root_hashes[du] {
                    self.root_reports[du].clone()
                } else {
                    self.engine.validate_device(fib, &self.contracts[du])
                }
            })
            .collect()
    }

    /// The full per-device report vector after applying `changes` (as
    /// a set — order is irrelevant), computed through the incremental
    /// machinery: general changes converge an anchor, fault changes
    /// restart from it, only changed devices are revalidated. Results
    /// are memoized by the canonical change set — stepping many
    /// candidate orderings of one rollout re-asks the same subset
    /// states, and each distinct state is evaluated once. The difftest
    /// oracle byte-compares this against a from-scratch simulate +
    /// cold validation of the same state.
    pub fn state_reports(&self, changes: &[ConfigChange]) -> Result<Vec<ValidationReport>, String> {
        let shapes = self.classify(changes)?;
        let mut key: Vec<ChangeKey> = changes.iter().map(ChangeKey::of).collect();
        key.sort_by_key(ChangeKey::slot);
        if let Some(hit) = self.state_memo.read().get(&key) {
            return Ok((**hit).clone());
        }
        let generals: Vec<usize> = shapes
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Shape::General))
            .map(|(i, _)| i)
            .collect();
        let links: Vec<LinkId> = shapes
            .iter()
            .filter_map(|s| match s {
                Shape::Fault(l) => Some(*l),
                _ => None,
            })
            .collect();
        let (anchor, mut reports) = if generals.is_empty() {
            (None, self.root_reports.clone())
        } else {
            let mut net = self.production.clone();
            for &i in &generals {
                net.apply(&changes[i]);
            }
            let baseline = Baseline::converge(&net.topology, &net.config);
            let reports = self.cold_reports(baseline.healthy_fibs());
            (Some(baseline), reports)
        };
        if !links.is_empty() {
            let base = anchor.as_ref().unwrap_or(&self.baseline);
            let out = base.resimulate(&FaultSpec::links(links));
            for ((d, fib), touched) in out.changed.iter().zip(&out.touched) {
                let du = d.0 as usize;
                reports[du] = crate::delta::revalidate(
                    self.engine.as_ref(),
                    &self.contracts[du],
                    &reports[du],
                    fib,
                    touched,
                );
            }
        }
        let mut memo = self.state_memo.write();
        if memo.len() >= STATE_MEMO_CAP {
            memo.clear();
        }
        let cached = memo
            .entry(key)
            .or_insert_with(|| std::sync::Arc::new(reports));
        Ok((**cached).clone())
    }

    /// Search for a safe ordering of `changes`. Deterministic at any
    /// thread count: the emitted plan always applies the
    /// lowest-indexed safe candidate first (threads only change how
    /// many candidate states get evaluated, never which one is
    /// chosen).
    pub fn plan(&self, changes: &[ConfigChange], opts: &PlanOptions) -> Result<PlanReport, String> {
        let start = Instant::now();
        let shapes = self.classify(changes)?;
        let n = changes.len();
        let mut search = Search::new(self, changes, shapes, opts);
        let full = search.ctx.full;
        let mut order: Vec<usize> = Vec::new();
        let safe = if n == 0 {
            true
        } else if search.final_transient == 0 {
            search.dfs(0, &mut order)
        } else {
            // Even the complete change set violates the condition —
            // no ordering can end anywhere else, so skip the search
            // and go straight to minimization.
            search.first_unsafe = Some(full);
            false
        };
        let steps = |mask: u128| -> Vec<PlanStep> {
            (0..n)
                .filter(|&i| mask & (1u128 << i) != 0)
                .map(|i| PlanStep {
                    index: i,
                    change: changes[i].clone(),
                })
                .collect()
        };
        let verdict = if safe {
            PlanVerdict::Safe(
                order
                    .iter()
                    .map(|&i| PlanStep {
                        index: i,
                        change: changes[i].clone(),
                    })
                    .collect(),
            )
        } else {
            // A failed search always evaluated at least one unsafe
            // state: the dead-prefix memo starts empty, so the first
            // subset to fail saw only unsafe children.
            let found = search
                .first_unsafe
                .expect("failed search must have recorded an unsafe state");
            let found_idx: Vec<usize> = (0..n).filter(|&i| found & (1u128 << i) != 0).collect();
            let mut minimized = shrink_list(&found_idx, |subset| {
                let m = subset.iter().fold(0u128, |m, &i| m | (1u128 << i));
                search.eval_of(m).transient > 0
            });
            minimized.sort_unstable();
            let mmask = minimized.iter().fold(0u128, |m, &i| m | (1u128 << i));
            let transient = search.transient_violations(mmask);
            PlanVerdict::Unsafe(UnsafePrefix {
                prefix: steps(mmask),
                found: steps(found),
                transient,
            })
        };
        if let Some(m) = &self.metrics {
            m.backtracks.add(search.backtracks as u64);
            m.dead_hits.add(search.dead_hits as u64);
            m.anchors.add(search.anchors_built as u64);
        }
        Ok(PlanReport {
            verdict,
            condition: opts.condition,
            states_evaluated: search.states_evaluated,
            devices_revalidated: search.devices_revalidated,
            verdicts_reused: search.verdicts_reused,
            anchors_built: search.anchors_built,
            dead_prefix_hits: search.dead_hits,
            backtracks: search.backtracks,
            search_exhausted: !search.aborted,
            restart: search.restart,
            elapsed: start.elapsed(),
        })
    }

    /// Check one submitted order step by step — the naive deployment
    /// sequence's safety, answered incrementally with no search.
    pub fn check_order(
        &self,
        changes: &[ConfigChange],
        opts: &PlanOptions,
    ) -> Result<OrderCheck, String> {
        let shapes = self.classify(changes)?;
        if changes.is_empty() {
            return Ok(OrderCheck {
                first_unsafe: None,
                transient: 0,
                states_evaluated: 0,
            });
        }
        let mut search = Search::new(self, changes, shapes, opts);
        let mut mask = 0u128;
        for i in 0..changes.len() {
            mask |= 1u128 << i;
            let ev = search.eval_of(mask);
            if ev.transient > 0 {
                return Ok(OrderCheck {
                    first_unsafe: Some(i),
                    transient: ev.transient,
                    states_evaluated: search.states_evaluated,
                });
            }
        }
        Ok(OrderCheck {
            first_unsafe: None,
            transient: 0,
            states_evaluated: search.states_evaluated,
        })
    }
}

/// A converged general-change subset the fault-shaped remainder
/// restarts from. `None` fields mean "the planner's own root" —
/// borrowed, not cloned.
struct Anchor {
    baseline: Option<Baseline>,
    reports: Option<Vec<ValidationReport>>,
    /// Per-device transient-violation counts under this anchor (the
    /// subtraction side of the delta arithmetic).
    dev_matching: Vec<u32>,
    /// Sum of `dev_matching`.
    transient: usize,
}

/// One evaluated state's verdict (memoized by canonical mask).
#[derive(Clone, Copy)]
struct StateEval {
    /// Condition-matching, not-allowed violations in the state.
    transient: usize,
}

/// The raw outcome of one fault-set evaluation from an anchor.
struct FaultEval {
    eval: StateEval,
    stats: RestartStats,
    revalidated: usize,
    reused: usize,
    /// Changed devices' reports (only populated in collect mode).
    changed: Vec<(DeviceId, ValidationReport)>,
}

/// Immutable search context, separable from the mutable search state
/// so parallel frontier workers can borrow it alongside one anchor.
struct Ctx<'a> {
    p: &'a RolloutPlanner,
    changes: &'a [ConfigChange],
    shapes: Vec<Shape>,
    condition: FailCondition,
    /// Baseline ∪ (optionally) final-state violations: present in
    /// states the operator already accepts, so never transient.
    allowed: HashSet<Violation>,
    noop_mask: u128,
    general_mask: u128,
    /// All submitted changes (raw mask, noops included).
    full: u128,
    threads: usize,
    /// Cross-state `(device, fib content hash)` verdict memo shared
    /// across the whole search frontier.
    memo: VerdictMemo,
    max_backtracks: usize,
}

impl Ctx<'_> {
    /// Canonical state key: noop changes have no routing effect, so
    /// masks differing only in noop bits denote the same state.
    fn canon(&self, m: u128) -> u128 {
        m & !self.noop_mask
    }

    fn fault_links(&self, m: u128) -> Vec<LinkId> {
        self.shapes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Shape::Fault(l) if m & (1u128 << i) != 0 => Some(*l),
                _ => None,
            })
            .collect()
    }

    fn matches(&self, v: &Violation) -> bool {
        crate::delta::violation_matches(v, self.condition, self.p.meta.as_ref(), "planner")
    }

    /// Condition-matching violations in `r` that are not allowed.
    fn transient_count(&self, r: &ValidationReport) -> usize {
        r.violations
            .iter()
            .filter(|v| self.matches(v) && !self.allowed.contains(v))
            .count()
    }

    fn anchor_baseline<'b>(&'b self, a: &'b Anchor) -> &'b Baseline {
        a.baseline.as_ref().unwrap_or(&self.p.baseline)
    }

    fn anchor_reports<'b>(&'b self, a: &'b Anchor) -> &'b [ValidationReport] {
        a.reports.as_deref().unwrap_or(&self.p.root_reports)
    }

    /// Evaluate a fault set from an anchor: restart the fixed point,
    /// revalidate only changed devices (memo first), and patch the
    /// anchor's transient count — subtract the changed devices' old
    /// contributions, add their new ones.
    fn eval_fault(&self, anchor: &Anchor, links: &[LinkId], collect: bool) -> FaultEval {
        if links.is_empty() {
            return FaultEval {
                eval: StateEval {
                    transient: anchor.transient,
                },
                stats: RestartStats::default(),
                revalidated: 0,
                reused: 0,
                changed: Vec::new(),
            };
        }
        let timer = self.p.metrics.as_ref().map(|m| m.state_latency.start_timer());
        let reports = self.anchor_reports(anchor);
        let out = self
            .anchor_baseline(anchor)
            .resimulate(&FaultSpec::links(links.iter().copied()));
        let mut transient = anchor.transient;
        let mut revalidated = 0usize;
        let mut reused = 0usize;
        let mut changed = Vec::new();
        for ((d, fib), touched) in out.changed.iter().zip(&out.touched) {
            let du = d.0 as usize;
            let h = fib.content_hash();
            let hit = self.memo.read().get(&(d.0, h)).cloned();
            let r = match hit {
                Some(r) => {
                    reused += 1;
                    r
                }
                None => {
                    revalidated += 1;
                    let r = crate::delta::revalidate(
                        self.p.engine.as_ref(),
                        &self.p.contracts[du],
                        &reports[du],
                        fib,
                        touched,
                    );
                    self.memo.write().insert((d.0, h), r.clone());
                    r
                }
            };
            transient -= anchor.dev_matching[du] as usize;
            transient += self.transient_count(&r);
            if collect {
                changed.push((*d, r));
            }
        }
        if let Some(t) = timer {
            t.stop();
        }
        FaultEval {
            eval: StateEval { transient },
            stats: out.stats,
            revalidated,
            reused,
            changed,
        }
    }
}

/// Mutable search state: memoized evals, anchors, dead prefixes, and
/// the exploration counters.
struct Search<'a> {
    ctx: Ctx<'a>,
    evals: HashMap<u128, StateEval>,
    anchors: HashMap<u128, Anchor>,
    /// Canonical masks from which no safe completion exists.
    dead: HashSet<u128>,
    first_unsafe: Option<u128>,
    final_transient: usize,
    states_evaluated: usize,
    devices_revalidated: usize,
    verdicts_reused: usize,
    anchors_built: usize,
    dead_hits: usize,
    backtracks: usize,
    aborted: bool,
    restart: RestartStats,
}

impl<'a> Search<'a> {
    fn new(
        p: &'a RolloutPlanner,
        changes: &'a [ConfigChange],
        shapes: Vec<Shape>,
        opts: &PlanOptions,
    ) -> Search<'a> {
        let n = changes.len();
        let full: u128 = if n == 0 { 0 } else { (!0u128) >> (128 - n) };
        let mut noop_mask = 0u128;
        let mut general_mask = 0u128;
        for (i, s) in shapes.iter().enumerate() {
            match s {
                Shape::Noop => noop_mask |= 1u128 << i,
                Shape::General => general_mask |= 1u128 << i,
                Shape::Fault(_) => {}
            }
        }
        let threads = if opts.threads > 0 {
            opts.threads
        } else {
            p.threads.max(1)
        };
        // The final state, computed once from scratch: it defines the
        // allowed set (with `accept_final`) and pre-seeds the full
        // mask's eval and the verdict memo.
        let canon_full = full & !noop_mask;
        let final_pass = (canon_full != 0).then(|| {
            let mut net = p.production.clone();
            for c in changes {
                net.apply(c);
            }
            let fibs = simulate(&net.topology, &net.config);
            run_pass(p.engine.as_ref(), threads, &fibs, &p.contracts, 1, None, None)
        });
        let mut allowed: HashSet<Violation> = p
            .root_reports
            .iter()
            .flat_map(|r| r.violations.iter().cloned())
            .collect();
        let finals: &[ValidationReport] = final_pass
            .as_ref()
            .map(|dr| dr.reports.as_slice())
            .unwrap_or(&p.root_reports);
        if opts.accept_final {
            allowed.extend(finals.iter().flat_map(|r| r.violations.iter().cloned()));
        }
        let ctx = Ctx {
            p,
            changes,
            shapes,
            condition: opts.condition,
            allowed,
            noop_mask,
            general_mask,
            full,
            threads,
            memo: RwLock::new(HashMap::new()),
            max_backtracks: opts.max_backtracks,
        };
        // Seed the memo with the final state's verdicts: deep search
        // states share most tables with it.
        if let Some(dr) = &final_pass {
            let mut memo = ctx.memo.write();
            for (du, (&h, r)) in dr.fib_hashes.iter().zip(&dr.reports).enumerate() {
                if h != p.root_hashes[du] {
                    memo.insert((du as u32, h), r.clone());
                }
            }
        }
        // Root anchor (mask 0): borrows the planner's own baseline.
        let dev_matching: Vec<u32> = p
            .root_reports
            .iter()
            .map(|r| ctx.transient_count(r) as u32)
            .collect();
        let root_transient: usize = dev_matching.iter().map(|&c| c as usize).sum();
        let final_transient: usize = finals.iter().map(|r| ctx.transient_count(r)).sum();
        let mut anchors = HashMap::new();
        anchors.insert(
            0u128,
            Anchor {
                baseline: None,
                reports: None,
                dev_matching,
                transient: root_transient,
            },
        );
        let mut evals = HashMap::new();
        evals.insert(
            0u128,
            StateEval {
                transient: root_transient,
            },
        );
        evals.insert(
            canon_full,
            StateEval {
                transient: final_transient,
            },
        );
        Search {
            ctx,
            evals,
            anchors,
            dead: HashSet::new(),
            first_unsafe: None,
            final_transient,
            states_evaluated: 0,
            devices_revalidated: 0,
            verdicts_reused: 0,
            anchors_built: 0,
            dead_hits: 0,
            backtracks: 0,
            aborted: false,
            restart: RestartStats::default(),
        }
    }

    fn absorb(&mut self, fe: &FaultEval) {
        self.states_evaluated += 1;
        self.devices_revalidated += fe.revalidated;
        self.verdicts_reused += fe.reused;
        self.restart.absorb(&fe.stats);
        if let Some(m) = &self.ctx.p.metrics {
            m.revalidated.add(fe.revalidated as u64);
            m.reused.add(fe.reused as u64);
            if fe.eval.transient > 0 {
                m.unsafe_states.inc();
            } else {
                m.safe.inc();
            }
        }
    }

    /// Build (or reuse) the converged anchor for a general-change
    /// subset. Devices whose tables match production or an earlier
    /// state reuse their memoized verdicts.
    fn ensure_anchor(&mut self, g: u128) {
        if self.anchors.contains_key(&g) {
            return;
        }
        let ctx = &self.ctx;
        let p = ctx.p;
        let mut net = p.production.clone();
        for (i, c) in ctx.changes.iter().enumerate() {
            if g & (1u128 << i) != 0 {
                net.apply(c);
            }
        }
        let baseline = Baseline::converge(&net.topology, &net.config);
        let mut revalidated = 0usize;
        let mut reused = 0usize;
        let reports: Vec<ValidationReport> = baseline
            .healthy_fibs()
            .iter()
            .enumerate()
            .map(|(du, fib)| {
                let h = fib.content_hash();
                if h == p.root_hashes[du] {
                    reused += 1;
                    return p.root_reports[du].clone();
                }
                if let Some(r) = ctx.memo.read().get(&(du as u32, h)) {
                    reused += 1;
                    return r.clone();
                }
                revalidated += 1;
                let r = p.engine.validate_device(fib, &p.contracts[du]);
                ctx.memo.write().insert((du as u32, h), r.clone());
                r
            })
            .collect();
        let dev_matching: Vec<u32> = reports
            .iter()
            .map(|r| ctx.transient_count(r) as u32)
            .collect();
        let transient: usize = dev_matching.iter().map(|&c| c as usize).sum();
        self.devices_revalidated += revalidated;
        self.verdicts_reused += reused;
        self.anchors_built += 1;
        self.anchors.insert(
            g,
            Anchor {
                baseline: Some(baseline),
                reports: Some(reports),
                dev_matching,
                transient,
            },
        );
    }

    /// The (memoized) verdict for a subset state.
    fn eval_of(&mut self, raw: u128) -> StateEval {
        let m = self.ctx.canon(raw);
        if let Some(&e) = self.evals.get(&m) {
            return e;
        }
        let g = m & self.ctx.general_mask;
        self.ensure_anchor(g);
        let links = self.ctx.fault_links(m);
        let fe = {
            let anchor = &self.anchors[&g];
            self.ctx.eval_fault(anchor, &links, false)
        };
        self.absorb(&fe);
        self.evals.insert(m, fe.eval);
        fe.eval
    }

    /// Pre-evaluate a frontier chunk in parallel. Only fault-shaped
    /// candidates qualify (they share the frontier's anchor and touch
    /// no search state); results land in the eval memo, so the serial
    /// scan that follows picks candidates exactly as it would have
    /// single-threaded.
    fn eval_chunk(&mut self, mask: u128, block: &[usize]) {
        if self.ctx.threads <= 1 {
            return;
        }
        let todo: Vec<(u128, Vec<LinkId>)> = block
            .iter()
            .filter_map(|&i| {
                if !matches!(self.ctx.shapes[i], Shape::Fault(_)) {
                    return None;
                }
                let child = self.ctx.canon(mask | (1u128 << i));
                if self.evals.contains_key(&child) || self.dead.contains(&child) {
                    return None;
                }
                Some((child, self.ctx.fault_links(child)))
            })
            .collect();
        if todo.len() < 2 {
            return;
        }
        let g = self.ctx.canon(mask) & self.ctx.general_mask;
        self.ensure_anchor(g);
        let results: Vec<(u128, FaultEval)> = {
            let anchor = &self.anchors[&g];
            let ctx = &self.ctx;
            std::thread::scope(|scope| {
                let handles: Vec<_> = todo
                    .iter()
                    .map(|(child, links)| {
                        scope.spawn(move || (*child, ctx.eval_fault(anchor, links, false)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        for (child, fe) in results {
            self.absorb(&fe);
            self.evals.insert(child, fe.eval);
        }
    }

    /// Depth-first ordering search from a subset state. Returns `true`
    /// with `order` extended by a safe completion, or `false` after
    /// marking the subset dead (or aborting on backtrack budget).
    fn dfs(&mut self, mask: u128, order: &mut Vec<usize>) -> bool {
        if mask == self.ctx.full {
            return true;
        }
        let n = self.ctx.changes.len();
        let candidates: Vec<usize> = (0..n).filter(|&i| mask & (1u128 << i) == 0).collect();
        let chunk = self.ctx.threads.max(1);
        for block in candidates.chunks(chunk) {
            self.eval_chunk(mask, block);
            for &i in block {
                let child = mask | (1u128 << i);
                if self.dead.contains(&self.ctx.canon(child)) {
                    self.dead_hits += 1;
                    if let Some(m) = &self.ctx.p.metrics {
                        m.dead_hits.inc();
                    }
                    continue;
                }
                let ev = self.eval_of(child);
                if ev.transient > 0 {
                    if self.first_unsafe.is_none() {
                        self.first_unsafe = Some(child);
                    }
                    continue;
                }
                order.push(i);
                if self.dfs(child, order) {
                    return true;
                }
                order.pop();
                if self.aborted {
                    return false;
                }
            }
        }
        self.dead.insert(self.ctx.canon(mask));
        self.backtracks += 1;
        if self.backtracks > self.ctx.max_backtracks {
            self.aborted = true;
        }
        false
    }

    /// The transient violations present in a subset's state (spliced
    /// full view), for unsafe-prefix reporting.
    fn transient_violations(&mut self, raw: u128) -> Vec<Violation> {
        let m = self.ctx.canon(raw);
        let g = m & self.ctx.general_mask;
        self.ensure_anchor(g);
        let links = self.ctx.fault_links(m);
        let fe = {
            let anchor = &self.anchors[&g];
            self.ctx.eval_fault(anchor, &links, true)
        };
        self.absorb(&fe);
        let anchor = &self.anchors[&g];
        let reports = self.ctx.anchor_reports(anchor);
        let changed: HashMap<u32, &ValidationReport> =
            fe.changed.iter().map(|(d, r)| (d.0, r)).collect();
        let mut out = Vec::new();
        for (du, base) in reports.iter().enumerate() {
            let r = changed.get(&(du as u32)).copied().unwrap_or(base);
            for v in &r.violations {
                if self.ctx.matches(v) && !self.ctx.allowed.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ViolationReason;
    use crate::validator::Validator;
    use crate::TrieEngine;
    use dctopo::generator::{figure3, Figure3};

    fn planner_for(net: &ManagedNetwork) -> RolloutPlanner {
        let meta = MetadataService::from_topology(&net.topology);
        Validator::new(&meta).build_planner(net)
    }

    fn shut(f: &Figure3, a: DeviceId, b: DeviceId) -> ConfigChange {
        ConfigChange::SetLinkState {
            link: f.topology.link_between(a, b).unwrap().id,
            state: LinkState::AdminShut,
        }
    }

    fn bring_up(f: &Figure3, a: DeviceId, b: DeviceId) -> ConfigChange {
        ConfigChange::SetLinkState {
            link: f.topology.link_between(a, b).unwrap().id,
            state: LinkState::Up,
        }
    }

    /// The uplink-migration scenario: ToR0's standby uplinks (a2, a3)
    /// are admin-shut in production; the rollout shuts the active pair
    /// and brings up the standby pair. Safe only interleaved.
    fn migrate() -> (Figure3, ManagedNetwork, Vec<ConfigChange>) {
        let f = figure3();
        let mut net = ManagedNetwork::new(f.topology.clone());
        for leaf in [f.a[2], f.a[3]] {
            let l = net.topology.link_between(f.tors[0], leaf).unwrap().id;
            net.topology.set_link_state(l, LinkState::AdminShut);
        }
        let changes = vec![
            shut(&f, f.tors[0], f.a[0]),
            shut(&f, f.tors[0], f.a[1]),
            bring_up(&f, f.tors[0], f.a[2]),
            bring_up(&f, f.tors[0], f.a[3]),
        ];
        (f, net, changes)
    }

    #[test]
    fn seeded_clos_migration_needs_interleaving_and_plans_safely() {
        // The shared scenario generator must reproduce the migrate
        // shape on a generated Clos fabric: naive submit order fails
        // mid-rollout, the planner finds a safe interleaving.
        let params = dctopo::ClosParams {
            clusters: 2,
            tors_per_cluster: 2,
            leaves_per_cluster: 4,
            spines: 4,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 1,
        };
        let topology = dctopo::build_clos(&params);
        let (net, changes) = seeded_scenario(&topology, RolloutScenario::Migrate, 1, 11);
        assert_eq!(changes.len(), 4, "{changes:?}");
        let planner = planner_for(&net);
        let opts = PlanOptions {
            condition: FailCondition::Blackhole,
            ..PlanOptions::default()
        };
        let naive = planner.check_order(&changes, &opts).unwrap();
        assert!(naive.first_unsafe.is_some(), "{naive:?}");
        let report = planner.plan(&changes, &opts).unwrap();
        assert!(report.is_safe(), "{}", report.verdict);
        // Different seeds pick different racks, same shape.
        let (net2, changes2) = seeded_scenario(&topology, RolloutScenario::Decommission, 2, 3);
        assert_eq!(changes2.len(), 8);
        assert_eq!(net2.topology.links().len(), topology.links().len());
    }

    #[test]
    fn empty_change_set_plans_trivially() {
        let f = figure3();
        let planner = planner_for(&ManagedNetwork::new(f.topology));
        let report = planner.plan(&[], &PlanOptions::default()).unwrap();
        assert_eq!(report.verdict, PlanVerdict::Safe(Vec::new()));
        assert!(report.is_safe());
        assert!(report.search_exhausted);
    }

    #[test]
    fn duplicate_targets_are_rejected() {
        let (f, net, _) = migrate();
        let planner = planner_for(&net);
        let twice = vec![shut(&f, f.tors[0], f.a[0]), shut(&f, f.tors[0], f.a[0])];
        let err = planner.plan(&twice, &PlanOptions::default()).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let cfg = ConfigChange::SetOverride {
            device: f.tors[0],
            config: DeviceOverride::default(),
        };
        let err = planner
            .check_order(&[cfg.clone(), cfg], &PlanOptions::default())
            .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn migration_submit_order_fails_but_planner_interleaves() {
        let (_f, net, changes) = migrate();
        let planner = planner_for(&net);
        let opts = PlanOptions {
            condition: FailCondition::Blackhole,
            ..PlanOptions::default()
        };
        // The naive submitted order shuts both active uplinks before
        // any standby comes up: ToR0 loses its default mid-rollout.
        let naive = planner.check_order(&changes, &opts).unwrap();
        assert_eq!(naive.first_unsafe, Some(1), "{naive:?}");
        assert!(naive.transient > 0);
        // The planner interleaves shut/bring-up: [shut a0, up a2,
        // shut a1, up a3] — the lowest-index-first deterministic
        // ordering that keeps a default path at every step.
        let report = planner.plan(&changes, &opts).unwrap();
        let steps = match &report.verdict {
            PlanVerdict::Safe(steps) => steps.clone(),
            v => panic!("expected a safe plan, got {v}"),
        };
        assert_eq!(
            steps.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![0, 2, 1, 3]
        );
        assert!(report.search_exhausted);
        assert!(report.states_evaluated > 0);
        // Replaying the emitted order step by step is clean.
        let ordered: Vec<ConfigChange> =
            steps.iter().map(|s| s.change.clone()).collect();
        let replay = planner.check_order(&ordered, &opts).unwrap();
        assert_eq!(replay.first_unsafe, None, "{replay:?}");
    }

    #[test]
    fn plan_is_deterministic_at_any_thread_count() {
        let (_f, net, changes) = migrate();
        let planner = planner_for(&net);
        let verdicts: Vec<PlanVerdict> = [1usize, 2, 5]
            .iter()
            .map(|&threads| {
                let opts = PlanOptions {
                    condition: FailCondition::Blackhole,
                    threads,
                    ..PlanOptions::default()
                };
                planner.plan(&changes, &opts).unwrap().verdict
            })
            .collect();
        assert_eq!(verdicts[0], verdicts[1]);
        assert_eq!(verdicts[1], verdicts[2]);
    }

    #[test]
    fn decommission_without_accepting_final_is_minimally_unsafe() {
        // Shutting all four ToR0 uplinks blackholes the ToR in the
        // *final* state: with accept_final off there is no safe
        // ordering, and the minimal unsafe subset is all four changes
        // (any three leave one uplink carrying the default).
        let f = figure3();
        let net = ManagedNetwork::new(f.topology.clone());
        let planner = planner_for(&net);
        let changes: Vec<ConfigChange> = f
            .a
            .iter()
            .map(|&leaf| shut(&f, f.tors[0], leaf))
            .collect();
        let opts = PlanOptions {
            condition: FailCondition::Blackhole,
            accept_final: false,
            ..PlanOptions::default()
        };
        let report = planner.plan(&changes, &opts).unwrap();
        let u = match &report.verdict {
            PlanVerdict::Unsafe(u) => u.clone(),
            v => panic!("decommission must not plan clean: {v}"),
        };
        assert_eq!(u.prefix.len(), 4, "{u:?}");
        assert_eq!(u.found.len(), 4);
        assert!(u
            .transient
            .iter()
            .any(|v| v.device == f.tors[0]
                && matches!(v.reason, ViolationReason::MissingDefault)));
        // Minimality replay: dropping any single change makes the
        // remainder plannable.
        for skip in 0..changes.len() {
            let rest: Vec<ConfigChange> = changes
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            assert!(planner.plan(&rest, &opts).unwrap().is_safe(), "skip {skip}");
        }
        // With accept_final (the default) the end state is the
        // operator's intent and any order works.
        let accepted = planner
            .plan(
                &changes,
                &PlanOptions {
                    condition: FailCondition::Blackhole,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
        assert!(accepted.is_safe(), "{:?}", accepted.verdict);
    }

    #[test]
    fn single_change_plan_matches_precheck() {
        // k=1: a plan with accept_final off under the strict condition
        // asks exactly the §2.7 precheck question.
        let f = figure3();
        let net = ManagedNetwork::new(f.topology.clone());
        let meta = MetadataService::from_topology(&net.topology);
        let planner = planner_for(&net);
        let checker = Validator::new(&meta).build_precheck(&net);
        let opts = PlanOptions {
            accept_final: false,
            ..PlanOptions::default()
        };
        let cases = vec![
            ConfigChange::SetOverride {
                device: f.tors[0],
                config: DeviceOverride {
                    reject_default_import: true,
                    ..DeviceOverride::default()
                },
            },
            ConfigChange::SetOverride {
                device: f.tors[0],
                config: DeviceOverride::default(),
            },
            shut(&f, f.tors[0], f.a[0]),
        ];
        for change in cases {
            let plan = planner.plan(std::slice::from_ref(&change), &opts).unwrap();
            let pre = checker.precheck(std::slice::from_ref(&change));
            assert_eq!(plan.is_safe(), pre.passed(), "{change:?}");
        }
    }

    #[test]
    fn state_reports_match_scratch_validation() {
        // The oracle contract in miniature: a mixed subset (fault +
        // general + noop) evaluated incrementally must be byte-equal
        // to from-scratch simulation + cold validation.
        let (f, net, _) = migrate();
        let planner = planner_for(&net);
        let changes = vec![
            shut(&f, f.tors[0], f.a[0]),
            bring_up(&f, f.tors[0], f.a[2]),
            ConfigChange::SetOverride {
                device: f.tors[1],
                config: DeviceOverride {
                    max_ecmp: Some(2),
                    ..DeviceOverride::default()
                },
            },
            ConfigChange::SetOverride {
                device: f.tors[2],
                config: DeviceOverride::default(), // noop
            },
        ];
        let incremental = planner.state_reports(&changes).unwrap();
        let mut scratch = net.clone();
        for c in &changes {
            scratch.apply(c);
        }
        let fibs = simulate(&scratch.topology, &scratch.config);
        let engine = TrieEngine::new();
        let cold: Vec<ValidationReport> = fibs
            .iter()
            .enumerate()
            .map(|(du, fib)| engine.validate_device(fib, &planner.contracts()[du]))
            .collect();
        assert_eq!(incremental, cold);
        // Fault-only subsets take the root-anchor restart path.
        let fault_only = vec![shut(&f, f.tors[0], f.a[0]), shut(&f, f.tors[1], f.a[0])];
        let incremental = planner.state_reports(&fault_only).unwrap();
        let mut scratch = net.clone();
        for c in &fault_only {
            scratch.apply(c);
        }
        let fibs = simulate(&scratch.topology, &scratch.config);
        let cold: Vec<ValidationReport> = fibs
            .iter()
            .enumerate()
            .map(|(du, fib)| engine.validate_device(fib, &planner.contracts()[du]))
            .collect();
        assert_eq!(incremental, cold);
    }

    #[test]
    fn planner_memoizes_verdicts_across_the_frontier() {
        let (_f, net, changes) = migrate();
        let planner = planner_for(&net);
        let report = planner
            .plan(
                &changes,
                &PlanOptions {
                    condition: FailCondition::Blackhole,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
        assert!(
            report.verdicts_reused > 0,
            "search states share FIB content: {report:?}"
        );
        assert!(report.anchors_built > 0, "bring-ups need anchors");
    }

    #[test]
    fn prechecker_workflow_deploys_and_rejects() {
        // The Figure-7 workflow through the builder route.
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let mut checker =
            Validator::new(&meta).build_precheck(&ManagedNetwork::new(f.topology.clone()));
        let bad = ConfigChange::SetOverride {
            device: f.tors[0],
            config: DeviceOverride {
                reject_default_import: true,
                ..DeviceOverride::default()
            },
        };
        assert!(matches!(
            checker.submit(std::slice::from_ref(&bad)),
            WorkflowOutcome::RejectedAtPrecheck(_)
        ));
        let benign = ConfigChange::SetOverride {
            device: f.tors[0],
            config: DeviceOverride::default(),
        };
        assert!(matches!(
            checker.submit(std::slice::from_ref(&benign)),
            WorkflowOutcome::Deployed
        ));
        assert!(checker.validate(checker.production()).is_empty());
    }
}
