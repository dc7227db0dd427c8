//! Feedback-controlled mid-epoch replanning from live telemetry.
//!
//! The planner's inputs (node speeds, link rates) are measurements, and
//! measurements go stale: a storage node starts straggling, an operator
//! caps a link, a noisy neighbour appears. The static pipeline reacts only
//! at the next epoch boundary. This module closes the loop *inside* an
//! epoch:
//!
//! ```text
//! stage graph ──StageSample──▶ observed/expected ratio ──▶ TelemetryHub
//!      ▲                                                       │
//!      │                                 windowed mean, once per batch
//!      │                                                       ▼
//! revised FleetNodeConfigs ◀── FeedbackController ◀── CusumDetector trip
//!      │  (cooldown-gated)
//!      ▼
//! sharding::plan_fleet      ──▶ EpochDirective.works (next batch on)
//! ```
//!
//! Every channel is a *ratio*: observed stage service time divided by the
//! expectation under the nominal node parameters, so `1.0` means "as
//! planned" and `2.5` means "this resource runs at 40% of its modelled
//! rate". A tripped drift verdict's level is therefore directly the
//! correction factor for the node parameter, and after the controller acts
//! it [`telemetry::CusumDetector::rebase`]s the detector onto the new
//! level so the already-corrected drift cannot re-trip.
//!
//! The loop has two actuators. The first revises node parameters so the
//! placement engine reroutes work. The second — the *fidelity axis*
//! ([`BrownoutConfig`]) — sheds bytes instead: when a link channel trips
//! past the brownout threshold, link-bound raw serves are replanned at a
//! lower fidelity tier (the wire ships a tier prefix of the stored
//! progressive encoding), which helps precisely where rerouting cannot —
//! when every replica sits behind an equally squeezed link.
//!
//! Determinism and bit-identity: drift statistics are windowed means
//! (permutation-invariant in window contents) fed to a pure CUSUM, so the
//! same seed produces the same verdicts at the same batches. Replanning
//! swaps *works* (where preprocessing runs, how many bytes move) but never
//! routing or sample order, so the batch digest is identical with the
//! controller on or off.

use std::cell::RefCell;

use cluster::stagegraph::SampleRouting;
use cluster::{
    run_stage_graph, EpochDirective, EpochSpec, FleetNodeConfig, NodeUpdate, ShardMap, StageHooks,
    StageKind, StageSample,
};
use pipeline::SplitPoint;
use telemetry::{CusumDetector, DriftConfig, SeriesId, TelemetryHub};

use crate::engine::PlanningContext;
use crate::ext::sharding::{plan_fleet, FleetPlanRequest};
use crate::{OffloadPlan, SophonError};

/// Tuning of the feedback controller.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackConfig {
    /// Samples per channel window feeding the drift statistic.
    pub drift_window: usize,
    /// Minimum batches between replans — the anti-thrash gate.
    pub cooldown_batches: u64,
    /// Deadband: a tripped level must differ from the current estimate by
    /// at least this relative fraction to justify a replan.
    pub min_ratio_change: f64,
    /// How much of a deadband-suppressed correction *toward nominal* is
    /// adopted anyway, in `[0, 1]`. A resource that recovers most — but not
    /// all — of the way back trips the detector at a level inside the
    /// deadband; dropping that trip (the `0.0` behaviour) leaves the
    /// estimate pessimistic forever while the detector re-trips endlessly.
    /// With a positive decay the estimate moves that fraction of the way to
    /// the tripped level per trip, and when the result lands within the
    /// deadband of `1.0` it snaps to exactly nominal and the channel is
    /// forgotten. Degradations (trips *away* from nominal) inside the
    /// deadband are still dropped as noise.
    pub recovery_decay: f64,
    /// Progressive-fidelity brownout under link pressure. `None` (the
    /// default) keeps the pre-brownout behaviour: every replan corrects
    /// node parameters only, and every sample is served at full fidelity.
    pub brownout: Option<BrownoutConfig>,
}

impl Default for FeedbackConfig {
    fn default() -> FeedbackConfig {
        FeedbackConfig {
            drift_window: 64,
            cooldown_batches: 4,
            min_ratio_change: 0.15,
            recovery_decay: 0.5,
            brownout: None,
        }
    }
}

/// Tuning of progressive-fidelity degradation: when a node's link channel
/// trips past `threshold`, the controller replans that node's link-bound
/// raw serves at a lower fidelity tier — shedding bytes *before* asking
/// the placement engine to reroute around the slow link. Because the
/// decision rides the same replan events as every other correction, it is
/// cooldown-gated and deadband-filtered for free, and the
/// [`FeedbackConfig::recovery_decay`] machinery walks fidelity back to
/// full as the link estimate decays toward nominal.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// Byte fraction of the full encoding at each fidelity tier, ascending
    /// and ending at `1.0`: the ladder of a progressive container, which
    /// brownout is simulated against (no stored stream carries one).
    pub tier_fractions: Vec<f64>,
    /// Floor on the served fraction: brownout never plans a tier whose
    /// byte fraction is below this.
    pub min_fidelity: f64,
    /// Link ratio (observed/expected) at which brownout engages.
    pub threshold: f64,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig { tier_fractions: vec![0.25, 0.55, 1.0], min_fidelity: 0.25, threshold: 1.5 }
    }
}

impl BrownoutConfig {
    /// The lowest tier fraction the fidelity floor allows — what brownout
    /// serves when the link budget is arbitrarily bad. `1.0` when the
    /// ladder has no rung at or above the floor (brownout disabled).
    pub(crate) fn floor_fraction(&self) -> f64 {
        let mut lowest = 1.0f64;
        for &f in &self.tier_fractions {
            if f >= self.min_fidelity {
                lowest = lowest.min(f);
            }
        }
        lowest
    }

    /// The fraction of full fidelity to plan for a link running `r_link`
    /// times slower than modelled: below `threshold` (or for non-finite
    /// estimates) full fidelity; past it, the largest ladder rung that
    /// fits the residual link budget `1 / r_link`, floored at
    /// [`BrownoutConfig::min_fidelity`].
    pub(crate) fn fraction_for(&self, r_link: f64) -> f64 {
        if !r_link.is_finite() || r_link < self.threshold {
            return 1.0;
        }
        let budget = 1.0 / r_link;
        let mut pick: Option<f64> = None;
        for &f in &self.tier_fractions {
            if f >= self.min_fidelity && f <= budget && pick.is_none_or(|p| f > p) {
                pick = Some(f);
            }
        }
        pick.unwrap_or_else(|| self.floor_fraction())
    }
}

/// One channel's contribution to a replan decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelDrift {
    /// The telemetry channel that drifted (e.g. `node2.link`).
    pub channel: String,
    /// The new observed/expected ratio the controller adopted.
    pub ratio: f64,
}

/// A replan the controller committed to.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanEvent {
    /// The batch before which the replan takes effect.
    pub batch: u64,
    /// Virtual time of the decision.
    pub(crate) at: f64,
    /// The drifted channels that drove it, in channel-name order.
    pub channels: Vec<ChannelDrift>,
}

/// Converts drift verdicts on telemetry ratio channels into replan
/// decisions, with hysteresis (via the detectors) and a cooldown so the
/// control loop cannot thrash.
///
/// Channels are created by `FeedbackController::channel`, which resolves
/// a name to its [`SeriesId`] once, for a producer that observes by id
/// (tests observe by name); each gets a
/// [`CusumDetector`] referenced at ratio `1.0` once it has a window. Once
/// per batch, `FeedbackController::end_batch` folds every channel's
/// windowed mean into its detector, in channel-name order; trips
/// accumulate until the cooldown allows acting, at which point detectors
/// rebase onto the adopted levels. The per-channel state lives in `Vec`s
/// indexed by [`SeriesId::index`].
#[derive(Debug, Clone)]
pub(crate) struct FeedbackController {
    config: FeedbackConfig,
    hub: TelemetryHub,
    detectors: Vec<Option<CusumDetector>>,
    /// Adopted ratios; `1.0` is nominal, whether never adopted or
    /// snapped back.
    estimates: Vec<f64>,
    /// Tripped levels waiting for the cooldown.
    pending: Vec<Option<f64>>,
    last_replan: Option<u64>,
    replans: Vec<ReplanEvent>,
}

impl FeedbackController {
    /// Creates an idle controller.
    ///
    /// # Panics
    ///
    /// Panics when `drift_window` is zero, `min_ratio_change` is not a
    /// finite non-negative number, or `recovery_decay` is outside `[0, 1]`
    /// (allocation-time invariants).
    pub(crate) fn new(config: FeedbackConfig) -> FeedbackController {
        assert!(config.drift_window > 0, "drift window must hold at least one sample");
        assert!(
            config.min_ratio_change.is_finite() && config.min_ratio_change >= 0.0,
            "invalid deadband {}",
            config.min_ratio_change
        );
        assert!(
            config.recovery_decay.is_finite() && (0.0..=1.0).contains(&config.recovery_decay),
            "invalid recovery decay {}",
            config.recovery_decay
        );
        if let Some(b) = &config.brownout {
            assert!(
                b.tier_fractions.iter().all(|f| f.is_finite() && *f > 0.0 && *f <= 1.0),
                "tier fractions must lie in (0, 1]: {:?}",
                b.tier_fractions
            );
            assert!(
                b.min_fidelity.is_finite() && (0.0..=1.0).contains(&b.min_fidelity),
                "invalid fidelity floor {}",
                b.min_fidelity
            );
            assert!(
                b.threshold.is_finite() && b.threshold >= 1.0,
                "brownout threshold must be at least nominal, got {}",
                b.threshold
            );
        }
        let capacity = config.drift_window.max(64) * 4;
        FeedbackController {
            config,
            hub: TelemetryHub::new(capacity),
            detectors: Vec::new(),
            estimates: Vec::new(),
            pending: Vec::new(),
            last_replan: None,
            replans: Vec::new(),
        }
    }

    /// The id of `channel`, creating the channel on first use.
    pub(crate) fn channel(&mut self, channel: &str) -> SeriesId {
        let id = self.hub.register(channel);
        if id.index() >= self.estimates.len() {
            self.detectors.resize(id.index() + 1, None);
            self.estimates.resize(id.index() + 1, 1.0);
            self.pending.resize(id.index() + 1, None);
        }
        id
    }

    /// Feeds one observed/expected ratio into `channel` at time `t`.
    /// Out-of-order or non-finite observations are dropped (the series
    /// counts them as rejected) rather than corrupting the window.
    #[cfg(test)]
    pub(crate) fn observe(&mut self, channel: &str, t: f64, ratio: f64) {
        let id = self.channel(channel);
        self.observe_id(id, t, ratio);
    }

    /// `FeedbackController::observe` for a channel resolved with
    /// `FeedbackController::channel`.
    ///
    /// # Panics
    ///
    /// Panics when `channel` did not come from this controller.
    pub(crate) fn observe_id(&mut self, channel: SeriesId, t: f64, ratio: f64) {
        let _ = self.hub.push_to(channel, t, ratio);
    }

    /// The controller's current believed ratio for `channel` (`1.0` until
    /// a replan adopts something else).
    #[cfg(test)]
    pub(crate) fn estimate(&self, channel: &str) -> f64 {
        self.hub.id(channel).map_or(1.0, |id| self.estimate_id(id))
    }

    /// The controller's current believed ratio for a channel resolved with
    /// `FeedbackController::channel` (`1.0` until a replan adopts
    /// something else).
    ///
    /// # Panics
    ///
    /// Panics when `channel` did not come from this controller.
    pub(crate) fn estimate_id(&self, channel: SeriesId) -> f64 {
        self.estimates[channel.index()]
    }

    /// Closes batch `batch` at virtual time `now`: updates every channel's
    /// drift detector with its windowed mean and, when trips have
    /// accumulated and the cooldown has expired, commits a replan.
    ///
    /// Returns the committed [`ReplanEvent`], or `None` when nothing
    /// drifted, the cooldown is still active, or every trip fell inside
    /// the deadband.
    pub(crate) fn end_batch(&mut self, batch: u64, now: f64) -> Option<ReplanEvent> {
        let window = self.config.drift_window;
        for (_, id, series) in self.hub.iter() {
            let Some(mean) = series.mean_last(window) else { continue };
            let detector = self.detectors[id.index()].get_or_insert_with(|| {
                // `new` rejects only a non-finite field or a negative
                // magnitude, and `for_reference(1.0)` has neither.
                CusumDetector::new(DriftConfig::for_reference(1.0))
                    .expect("reference 1.0 is a valid drift config")
            });
            if let Some(verdict) = detector.update(batch as f64, mean) {
                self.pending[id.index()] = Some(verdict.level);
            }
        }
        if self.pending.iter().all(Option::is_none) {
            return None;
        }
        if let Some(last) = self.last_replan {
            if batch.saturating_sub(last) < self.config.cooldown_batches {
                return None; // cooldown: trips stay pending
            }
        }
        let mut channels = Vec::new();
        for (name, id, _) in self.hub.iter() {
            let Some(level) = self.pending[id.index()].take() else { continue };
            let current = self.estimates[id.index()];
            let relative = (level / current - 1.0).abs();
            // A pending level comes only from a detector's verdict in the
            // loop above, which first put that detector in its slot.
            let detector =
                self.detectors[id.index()].as_mut().expect("tripped channels have detectors");
            if relative >= self.config.min_ratio_change {
                detector.rebase(level);
                self.estimates[id.index()] = level;
                channels.push(ChannelDrift { channel: name.to_string(), ratio: level });
            } else if self.config.recovery_decay > 0.0
                && (level - 1.0).abs() < (current - 1.0).abs()
            {
                // A recovery the deadband would otherwise drop: adopt a
                // decayed step toward the tripped level, snapping to
                // nominal when the residual falls inside the deadband.
                let mut adopted = current + (level - current) * self.config.recovery_decay;
                if (adopted - 1.0).abs() <= self.config.min_ratio_change {
                    adopted = 1.0;
                }
                detector.rebase(adopted);
                self.estimates[id.index()] =
                    if (adopted - 1.0).abs() < 1e-12 { 1.0 } else { adopted };
                channels.push(ChannelDrift { channel: name.to_string(), ratio: adopted });
            } else {
                // Inside the deadband, away from nominal: noise. Re-arm on
                // the existing estimate.
                detector.rebase(current);
            }
        }
        if channels.is_empty() {
            return None;
        }
        self.last_replan = Some(batch);
        let event = ReplanEvent { batch, at: now, channels };
        self.replans.push(event.clone());
        Some(event)
    }
}

/// The telemetry channel carrying node `n`'s storage-read service ratio.
pub(crate) fn read_channel(node: usize) -> String {
    format!("node{node}.read")
}

/// The telemetry channel carrying node `n`'s offloaded-CPU service ratio.
pub(crate) fn cpu_channel(node: usize) -> String {
    format!("node{node}.cpu")
}

/// The telemetry channel carrying node `n`'s link service ratio.
pub(crate) fn link_channel(node: usize) -> String {
    format!("node{node}.link")
}

/// One node's three telemetry channels, resolved once per run rather than
/// looked up by name once per stage event.
struct NodeChannels {
    read: SeriesId,
    cpu: SeriesId,
    link: SeriesId,
}

impl NodeChannels {
    fn new(controller: &mut FeedbackController, node: usize) -> NodeChannels {
        NodeChannels {
            read: controller.channel(&read_channel(node)),
            cpu: controller.channel(&cpu_channel(node)),
            link: controller.channel(&link_channel(node)),
        }
    }
}

/// A deterministic mid-epoch disturbance for chaos runs: at `at_batch`,
/// node `node`'s service speed and link bandwidth are multiplied by the
/// given factors (relative to nominal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Batch before which the disturbance lands.
    pub(crate) at_batch: u64,
    /// The disturbed node.
    pub(crate) node: usize,
    /// Multiplier on the node's service speed (`1.0` = unchanged).
    pub(crate) speed_factor: f64,
    /// Multiplier on the node's link bandwidth (`1.0` = unchanged).
    pub(crate) link_factor: f64,
}

/// The bench's chaos profile: a straggler onset at ~20% of the epoch and a
/// link squeeze on a different node at ~35%, with the victim nodes chosen
/// by `seed`. Deterministic: the same seed yields the same events.
pub fn chaos_straggler_and_squeeze(seed: u64, nodes: usize, batches: u64) -> Vec<ChaosEvent> {
    assert!(nodes > 0, "chaos needs at least one node");
    let straggler = (splitmix(seed, 1) as usize) % nodes;
    // A different node for the squeeze when the fleet allows it.
    let squeeze = if nodes > 1 {
        let mut pick = (splitmix(seed, 2) as usize) % nodes;
        if pick == straggler {
            pick = (pick + 1) % nodes;
        }
        pick
    } else {
        straggler
    };
    vec![
        ChaosEvent { at_batch: batches / 5, node: straggler, speed_factor: 0.3, link_factor: 1.0 },
        ChaosEvent {
            at_batch: batches * 7 / 20,
            node: squeeze,
            speed_factor: 1.0,
            link_factor: 0.35,
        },
    ]
}

/// The brownout bench's chaos profile: at ~15% of the epoch *every* node's
/// link is squeezed to 25% of nominal (an operator cap or a congested
/// spine), and the squeeze never lifts. Rerouting cannot help — every
/// replica sits behind an equally squeezed link — so a fixed-fidelity plan
/// collapses while brownout sheds bytes instead. `seed` staggers each
/// node's onset by up to two batches; the same seed yields the same
/// schedule.
pub fn chaos_link_squeeze(seed: u64, nodes: usize, batches: u64) -> Vec<ChaosEvent> {
    chaos_link_squeeze_to(seed, nodes, batches, 0.25)
}

/// [`chaos_link_squeeze`] with an explicit residual link factor, for
/// sweeping squeeze severity: `link_factor` is the fraction of nominal
/// bandwidth every node keeps after the squeeze (`1.0` = no squeeze).
///
/// # Panics
///
/// Panics when `nodes` is zero or `link_factor` is outside `(0, 1]`.
pub fn chaos_link_squeeze_to(
    seed: u64,
    nodes: usize,
    batches: u64,
    link_factor: f64,
) -> Vec<ChaosEvent> {
    assert!(nodes > 0, "chaos needs at least one node");
    assert!(
        link_factor.is_finite() && link_factor > 0.0 && link_factor <= 1.0,
        "link factor must lie in (0, 1]: {link_factor}"
    );
    let onset = batches * 3 / 20;
    (0..nodes)
        .map(|node| ChaosEvent {
            at_batch: onset + splitmix(seed, node as u64) % 3,
            node,
            speed_factor: 1.0,
            link_factor,
        })
        .collect()
}

/// The SplitMix64 mix of `seed + i·γ`. `splitmix64` adds one γ before it
/// mixes, so it is handed one γ less.
fn splitmix(seed: u64, i: u64) -> u64 {
    imagery::rng::splitmix64(
        seed.wrapping_add(i.wrapping_sub(1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    )
}

/// The outcome of one (possibly feedback-controlled) fleet epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveEpochReport {
    /// Virtual seconds until the last batch left the GPU.
    pub epoch_seconds: f64,
    /// Bytes on all wires.
    pub traffic_bytes: u64,
    /// FNV-1a digest over `(batch, serving node, sample id)` in issue
    /// order — the simulator's analogue of batch bit-identity. Replans
    /// change works, never routing or order, so this digest is invariant
    /// under any directive sequence.
    pub digest: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean fidelity (byte fraction of the full encoding) actually
    /// delivered across all link transfers: `1.0` unless brownout engaged.
    pub mean_fidelity: f64,
    /// Replans the controller committed (empty for static runs).
    pub replans: Vec<ReplanEvent>,
}

struct DriverState {
    controller: Option<FeedbackController>,
    digest: u64,
    /// Per-sample planned serving fraction (parallel to the corpus), or
    /// empty while every sample is planned at full fidelity.
    fidelity: Vec<f64>,
    /// Delivered fidelity, accumulated as samples actually cross a link.
    fidelity_sum: f64,
    fidelity_samples: u64,
    replans: Vec<ReplanEvent>,
    error: Option<SophonError>,
}

fn fnv_fold(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest ^= byte as u64;
        *digest = digest.wrapping_mul(0x100000001b3);
    }
}

/// Runs one fleet epoch of `ctx`'s corpus, sharded by `map` over `nodes`,
/// under the `chaos` disturbance schedule — statically when `feedback` is
/// `None`, feedback-controlled when `Some`.
///
/// The initial plan is always [`plan_fleet`] against the
/// *nominal* nodes — neither run knows the chaos schedule. The adaptive
/// run additionally instruments every stage, detects drift, and swaps in
/// plans recomputed against the estimated (post-disturbance) node
/// parameters, cooldown-gated.
///
/// # Errors
///
/// Propagates planning errors ([`SophonError::FleetMismatch`] /
/// [`SophonError::PlanMismatch`]) and simulation errors
/// ([`SophonError::Sim`]).
pub fn run_fleet_epoch_adaptive(
    ctx: &PlanningContext<'_>,
    map: &ShardMap,
    nodes: &[FleetNodeConfig],
    chaos: &[ChaosEvent],
    feedback: Option<&FeedbackConfig>,
) -> Result<AdaptiveEpochReport, SophonError> {
    let n = ctx.profiles.len();
    // The initial plan, every replan and the stage graph route by one table.
    let owners = map.owner_table(n);
    let initial = FleetPlanRequest { owners: Some(&owners), ..FleetPlanRequest::new(map, nodes) };
    // Only the plan outlives the planning: the rest goes before the works
    // are allocated.
    let plan = plan_fleet(ctx, &initial)?.plan;
    let works = plan.to_sample_works(ctx.profiles)?;
    let spec = EpochSpec::new(works, ctx.batch_size, ctx.gpu);
    let dead = vec![usize::MAX; nodes.len()];
    let base = ctx.config;

    let brownout = feedback.and_then(|cfg| cfg.brownout.clone());
    // Works for an all-raw plan, used to price browned-out serves: a
    // fidelity tier is a prefix of the *stored* encoding, so its byte cost
    // is a fraction of the raw transfer, not of the offloaded output.
    let raw_works = match &brownout {
        Some(_) => Some(OffloadPlan::none(n).to_sample_works(ctx.profiles)?),
        None => None,
    };

    let mut controller = feedback.map(|cfg| FeedbackController::new(cfg.clone()));
    let channels: Vec<NodeChannels> = match controller.as_mut() {
        Some(controller) => (0..nodes.len()).map(|n| NodeChannels::new(controller, n)).collect(),
        None => Vec::new(),
    };
    let state = RefCell::new(DriverState {
        controller,
        digest: 0xcbf29ce484222325,
        fidelity: Vec::new(),
        fidelity_sum: 0.0,
        fidelity_samples: 0,
        replans: Vec::new(),
        error: None,
    });

    let mut stage_hook = |e: StageSample| {
        let st = &mut *state.borrow_mut();
        if e.stage == StageKind::Read {
            fnv_fold(&mut st.digest, e.batch);
            fnv_fold(&mut st.digest, e.node as u64);
            fnv_fold(&mut st.digest, e.sample);
        }
        if e.stage == StageKind::Link {
            // Delivered fidelity is what the plan said *when the sample
            // crossed the wire*, not what a later replan would have served.
            st.fidelity_sum += st.fidelity.get(e.sample as usize).copied().unwrap_or(1.0);
            st.fidelity_samples += 1;
        }
        let Some(controller) = st.controller.as_mut() else { return };
        let w = &e.work;
        let node = &nodes[e.node];
        let names = &channels[e.node];
        let (channel, expected) = match e.stage {
            StageKind::Read => (
                names.read,
                w.transfer_bytes as f64 / (base.storage_read_bytes_per_sec * node.speed),
            ),
            StageKind::StorageCpu => (names.cpu, w.storage_cpu_seconds / node.speed),
            StageKind::Link => {
                (names.link, w.transfer_bytes as f64 * 8.0 / node.link_bps + base.link_latency)
            }
            // The compute stage is shared and not a planner input.
            StageKind::ComputeCpu => return,
        };
        if expected > 1e-12 {
            controller.observe_id(channel, e.batch as f64, e.service_seconds / expected);
        }
    };

    let mut batch_hook = |batch: u64, now: f64| -> EpochDirective {
        let st = &mut *state.borrow_mut();
        let mut directive = EpochDirective::default();
        for ev in chaos.iter().filter(|ev| ev.at_batch == batch) {
            if ev.node >= nodes.len() {
                continue; // malformed chaos schedules are inert, not fatal
            }
            directive.node_updates.push(NodeUpdate {
                node: ev.node,
                speed: Some(nodes[ev.node].speed * ev.speed_factor),
                link_bps: Some(nodes[ev.node].link_bps * ev.link_factor),
            });
        }
        let Some(controller) = st.controller.as_mut() else { return directive };
        let Some(event) = controller.end_batch(batch, now) else { return directive };
        // Brownout first: a link past the threshold sheds bytes by serving
        // lower tiers before the placement engine is asked to route around
        // it. The planner then sees only the *residual* slowdown
        // (`r_link × fraction`) — a brownout that fully absorbs the squeeze
        // leaves the placement untouched.
        let fractions: Vec<f64> = (0..nodes.len())
            .map(|i| match &brownout {
                Some(b) => b.fraction_for(controller.estimate_id(channels[i].link)),
                None => 1.0,
            })
            .collect();
        // Lower the adopted ratio estimates to a revised fleet: a channel
        // running r× slower than modelled means the resource's effective
        // rate is 1/r of nominal.
        let revised: Vec<FleetNodeConfig> = nodes
            .iter()
            .enumerate()
            .map(|(i, nd)| {
                let r_cpu = controller.estimate_id(channels[i].cpu);
                let r_read = controller.estimate_id(channels[i].read);
                let r_speed =
                    if (r_cpu - 1.0).abs() >= (r_read - 1.0).abs() { r_cpu } else { r_read };
                let r_link = controller.estimate_id(channels[i].link) * fractions[i];
                FleetNodeConfig {
                    storage_cores: nd.storage_cores,
                    speed: (nd.speed / r_speed).clamp(nd.speed * 0.05, nd.speed * 20.0),
                    link_bps: (nd.link_bps / r_link).clamp(nd.link_bps * 0.05, nd.link_bps * 20.0),
                }
            })
            .collect();
        let request = FleetPlanRequest { nodes: &revised, ..initial };
        let replanned = plan_fleet(ctx, &request).and_then(|fleet| {
            let plan = fleet.plan;
            let mut new_works = plan.to_sample_works(ctx.profiles)?;
            // Allocated only when a sample browns out.
            let mut fidelity = None;
            let n = new_works.len();
            for (s, w) in new_works.iter_mut().enumerate() {
                // No node dies in this run (`dead`), so the stage graph
                // serves each sample from its primary.
                let f = fractions[owners.owners(s)[0]];
                if f >= 1.0 {
                    continue;
                }
                if plan.split(s) == SplitPoint::NONE {
                    // A raw serve browns out in place: same plan, fewer
                    // bytes — the wire ships a tier prefix.
                    w.transfer_bytes = ((w.transfer_bytes as f64) * f).ceil() as u64;
                    fidelity.get_or_insert_with(|| vec![1.0; n])[s] = f;
                } else if let Some(raw) = raw_works.as_ref() {
                    // An offloaded serve has no tier boundaries (it ships
                    // a stage output), but brownout can outbid it: when
                    // the tier prefix of the raw encoding is smaller than
                    // the offloaded output, flip the sample back to a raw
                    // serve at reduced fidelity and free the storage CPU.
                    let browned = ((raw[s].transfer_bytes as f64) * f).ceil() as u64;
                    if browned < w.transfer_bytes {
                        *w = raw[s];
                        w.transfer_bytes = browned;
                        fidelity.get_or_insert_with(|| vec![1.0; n])[s] = f;
                    }
                }
            }
            Ok((new_works, fidelity))
        });
        match replanned {
            Ok((new_works, fidelity)) => {
                st.fidelity = fidelity.unwrap_or_default();
                directive.works = Some(new_works);
                st.replans.push(event);
            }
            Err(e) => st.error = Some(e),
        }
        directive
    };

    let run = run_stage_graph(
        base,
        nodes,
        &spec,
        SampleRouting::ReplicaFailover { owners: &owners, dead_from: &dead },
        StageHooks {
            stage: Some(&mut stage_hook),
            batch: Some(&mut batch_hook),
            ..StageHooks::default()
        },
    )?;
    let st = state.into_inner();
    if let Some(e) = st.error {
        return Err(e);
    }
    let totals = run.total_stats();
    let mean_fidelity =
        if st.fidelity_samples > 0 { st.fidelity_sum / st.fidelity_samples as f64 } else { 1.0 };
    Ok(AdaptiveEpochReport {
        epoch_seconds: run.epoch_seconds,
        traffic_bytes: totals.traffic_bytes,
        digest: st.digest,
        batches: run.batches,
        mean_fidelity,
        replans: st.replans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, SampleProfile};

    fn setup(samples: u64, cores: usize) -> (Vec<SampleProfile>, PipelineSpec, ClusterConfig) {
        let ds = DatasetSpec::openimages_like(samples, 23);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        (ps, pipeline, ClusterConfig::paper_testbed(cores))
    }

    fn controller_with_squeeze(flip_at: u64, batches: u64) -> FeedbackController {
        let mut c = FeedbackController::new(FeedbackConfig {
            drift_window: 16,
            ..FeedbackConfig::default()
        });
        for b in 0..batches {
            let ratio = if b < flip_at { 1.0 } else { 2.5 };
            for _ in 0..8 {
                c.observe("node0.link", b as f64, ratio);
            }
            c.end_batch(b, b as f64);
        }
        c
    }

    #[test]
    fn controller_converges_on_excursion_and_respects_cooldown() {
        let c = controller_with_squeeze(6, 40);
        // A windowed step response may converge in two corrections (the
        // first window straddles the step), but never thrashes.
        assert!((1..=2).contains(&c.replans.len()), "{:?}", c.replans);
        let first = &c.replans[0];
        assert!(first.batch >= 6, "cannot trip before the squeeze");
        assert!(first.batch <= 10, "a 2.5x step must trip fast, got {}", first.batch);
        for pair in c.replans.windows(2) {
            assert!(pair[1].batch - pair[0].batch >= 4, "cooldown violated: {pair:?}");
        }
        assert!((c.estimate("node0.link") - 2.5).abs() < 0.2, "{:?}", c.replans);
        assert_eq!(c.estimate("node9.link"), 1.0, "untouched channels stay nominal");
    }

    #[test]
    fn a_controller_fed_by_id_matches_one_fed_by_name() {
        // Channels that trip, recover and stay quiet, observed in an order
        // that is not their name order.
        let names = ["node1.link", "node0.cpu", "node0.read", "node2.cpu"];
        let ratio = |channel: usize, b: u64| match channel {
            0 if b >= 6 => 2.5,
            1 if (10..40).contains(&b) => 1.6,
            3 if b >= 20 => 0.6,
            _ => 1.0,
        };
        let config = FeedbackConfig { drift_window: 16, ..FeedbackConfig::default() };
        let mut by_name = FeedbackController::new(config.clone());
        let mut by_id = FeedbackController::new(config);
        let ids: Vec<SeriesId> = names.iter().map(|name| by_id.channel(name)).collect();
        for b in 0..80u64 {
            for (c, name) in names.iter().enumerate() {
                for _ in 0..8 {
                    by_name.observe(name, b as f64, ratio(c, b));
                    by_id.observe_id(ids[c], b as f64, ratio(c, b));
                }
            }
            assert_eq!(by_id.end_batch(b, b as f64), by_name.end_batch(b, b as f64), "batch {b}");
            assert_eq!(by_id.pending, by_name.pending, "batch {b}");
            for (c, name) in names.iter().enumerate() {
                assert_eq!(by_id.estimate_id(ids[c]), by_name.estimate(name), "{name}");
            }
        }
        assert!(by_id.replans.len() >= 3, "{:?}", by_id.replans);
        assert_eq!(by_id.replans, by_name.replans);
    }

    #[test]
    fn controller_is_deterministic() {
        let a = controller_with_squeeze(6, 40);
        let b = controller_with_squeeze(6, 40);
        assert_eq!(a.replans, b.replans);
    }

    #[test]
    fn cooldown_defers_but_does_not_drop_trips() {
        let mut c = FeedbackController::new(FeedbackConfig {
            drift_window: 8,
            cooldown_batches: 10,
            ..FeedbackConfig::default()
        });
        // First drift on the link channel trips and replans early.
        for b in 0..4u64 {
            for _ in 0..8 {
                c.observe("node0.link", b as f64, 3.0);
            }
            c.end_batch(b, b as f64);
        }
        assert_eq!(c.replans.len(), 1);
        let first = c.replans[0].batch;
        // A second channel drifts immediately after: its trip must wait
        // out the cooldown, then land.
        for b in 4..20u64 {
            for _ in 0..8 {
                c.observe("node1.cpu", b as f64, 2.0);
                c.observe("node0.link", b as f64, 3.0);
            }
            c.end_batch(b, b as f64);
        }
        assert_eq!(c.replans.len(), 2, "{:?}", c.replans);
        let second = c.replans[1].batch;
        assert!(second - first >= 10, "cooldown violated: {first} then {second}");
        assert_eq!(c.replans[1].channels[0].channel, "node1.cpu");
    }

    /// A link squeezed to 2.5x that later lifts most of the way back,
    /// settling at 2.2x — a 12% residual, inside the 15% deadband, so the
    /// recovery trip would be suppressed outright without decay.
    fn degrade_then_partially_recover(recovery_decay: f64) -> FeedbackController {
        let mut c = FeedbackController::new(FeedbackConfig {
            drift_window: 16,
            recovery_decay,
            ..FeedbackConfig::default()
        });
        for b in 0..80u64 {
            let ratio = if b < 12 { 2.5 } else { 2.2 };
            for _ in 0..8 {
                c.observe("node0.link", b as f64, ratio);
            }
            c.end_batch(b, b as f64);
        }
        c
    }

    #[test]
    fn recovery_decay_tracks_a_partial_recovery_the_deadband_would_drop() {
        // Without decay the estimate stays pessimistic at 2.5 forever:
        // every recovery trip toward 2.2 lands inside the deadband and is
        // dropped, so the only replan is the original degradation.
        let stale = degrade_then_partially_recover(0.0);
        assert_eq!(stale.replans.len(), 1, "{:?}", stale.replans);
        assert!((stale.estimate("node0.link") - 2.5).abs() < 0.2, "{:?}", stale.replans);

        // With decay the suppressed trip moves the estimate halfway toward
        // the observed 2.2 and then settles (the rebased detector sees the
        // residual as in-slack), as its own cooldown-respecting replan.
        let tracked = degrade_then_partially_recover(0.5);
        assert!(tracked.replans.len() >= 2, "{:?}", tracked.replans);
        let est = tracked.estimate("node0.link");
        assert!((2.0..2.45).contains(&est), "expected a decayed step toward 2.2, got {est}");
        assert!(tracked.replans.len() <= 4, "recovery must not thrash: {:?}", tracked.replans);
        for pair in tracked.replans.windows(2) {
            assert!(pair[1].batch - pair[0].batch >= 4, "cooldown violated: {pair:?}");
        }
    }

    #[test]
    fn recovery_decay_snaps_near_nominal_residuals_to_nominal() {
        // Degrade to 1.4 (adopted: 40% off nominal), then recover to 1.1
        // (|1.1/1.4 - 1| ≈ 21%, outside the deadband: adopted directly).
        // The tail then overshoots slightly to 0.95: that trip lands
        // inside the deadband (|0.95/1.1 - 1| ≈ 14%), and the decayed
        // level is within 15% of nominal — so the estimate snaps to
        // exactly 1.0 and the channel is forgotten.
        let mut c = FeedbackController::new(FeedbackConfig {
            drift_window: 16,
            recovery_decay: 1.0,
            ..FeedbackConfig::default()
        });
        for b in 0..120u64 {
            let ratio = if b < 12 {
                1.4
            } else if b < 60 {
                1.1
            } else {
                0.95
            };
            for _ in 0..8 {
                c.observe("node0.cpu", b as f64, ratio);
            }
            c.end_batch(b, b as f64);
        }
        assert_eq!(c.estimate("node0.cpu"), 1.0, "{:?}", c.replans);
        let last = c.replans.last().expect("recovery must commit a replan");
        assert_eq!(last.channels[0].ratio, 1.0, "{:?}", c.replans);
    }

    #[test]
    fn deadband_suppresses_tiny_corrections() {
        let mut c = FeedbackController::new(FeedbackConfig {
            drift_window: 8,
            cooldown_batches: 1,
            min_ratio_change: 0.5,
            ..FeedbackConfig::default()
        });
        // A real drift (1.7x) that is still inside the 50% deadband
        // relative to... no: 1.7 vs 1.0 is 70% — outside. Use 1.3 (30%).
        for b in 0..40u64 {
            for _ in 0..8 {
                c.observe("node0.cpu", b as f64, 1.3);
            }
            c.end_batch(b, b as f64);
        }
        assert!(c.replans.is_empty(), "{:?}", c.replans);
        assert_eq!(c.estimate("node0.cpu"), 1.0);
    }

    #[test]
    fn adaptive_run_matches_static_when_nothing_drifts() {
        let (ps, pipeline, config) = setup(512, 8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
        let map = ShardMap::new(4, 2, 11);
        let nodes = crate::ext::sharding::fleet_nodes(&config, 4);
        let quiet = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &[], None).unwrap();
        let watched =
            run_fleet_epoch_adaptive(&ctx, &map, &nodes, &[], Some(&FeedbackConfig::default()))
                .unwrap();
        assert!(watched.replans.is_empty(), "{:?}", watched.replans);
        assert_eq!(quiet.epoch_seconds, watched.epoch_seconds);
        assert_eq!(quiet.digest, watched.digest);
    }

    #[test]
    fn adaptive_beats_static_under_chaos_with_identical_digests() {
        let (ps, pipeline, config) = setup(2048, 2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
        let map = ShardMap::new(4, 2, 11);
        let nodes = crate::ext::sharding::fleet_nodes_sharing_link(&config, 4);
        let batches = (ps.len() / 64) as u64;
        let chaos = chaos_straggler_and_squeeze(17, 4, batches);
        let static_run = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, None).unwrap();
        let feedback = FeedbackConfig { drift_window: 64, ..FeedbackConfig::default() };
        let adaptive =
            run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, Some(&feedback)).unwrap();
        assert!(!adaptive.replans.is_empty(), "the chaos profile must trigger replanning");
        assert!(
            adaptive.epoch_seconds < static_run.epoch_seconds,
            "adaptive {} vs static {}",
            adaptive.epoch_seconds,
            static_run.epoch_seconds
        );
        assert_eq!(adaptive.digest, static_run.digest, "replanning disturbed batch identity");
        assert_eq!(adaptive.batches, static_run.batches);
    }

    #[test]
    fn an_adaptive_epoch_ranks_its_context_once() {
        let (ps, pipeline, config) = setup(2048, 2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
        let map = ShardMap::new(4, 2, 11);
        let nodes = crate::ext::sharding::fleet_nodes_sharing_link(&config, 4);
        let chaos = chaos_straggler_and_squeeze(17, 4, (ps.len() / 64) as u64);
        let builds = crate::engine::table_builds();
        let run =
            run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, Some(&FeedbackConfig::default()))
                .unwrap();
        assert!(run.replans.len() >= 2, "{:?}", run.replans);
        assert_eq!(crate::engine::table_builds() - builds, 1, "the initial plan and every replan");
    }

    #[test]
    fn same_seed_reproduces_the_same_replan_points() {
        let (ps, pipeline, config) = setup(1024, 8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
        let map = ShardMap::new(3, 2, 5);
        let nodes = crate::ext::sharding::fleet_nodes(&config, 3);
        let chaos = chaos_straggler_and_squeeze(83, 3, (ps.len() / 64) as u64);
        let feedback = FeedbackConfig::default();
        let a = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, Some(&feedback)).unwrap();
        let b = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, Some(&feedback)).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.replans.iter().map(|r| r.batch).collect::<Vec<_>>(),
            b.replans.iter().map(|r| r.batch).collect::<Vec<_>>()
        );
    }

    #[test]
    fn brownout_ladder_picks_the_largest_rung_that_fits() {
        let b = BrownoutConfig::default(); // [0.25, 0.55, 1.0], floor 0.25, threshold 1.5
        assert_eq!(b.fraction_for(1.0), 1.0, "nominal link stays full fidelity");
        assert_eq!(b.fraction_for(1.4), 1.0, "below the threshold nothing browns out");
        assert_eq!(b.fraction_for(1.6), 0.55, "1/1.6 fits the middle rung");
        assert_eq!(b.fraction_for(4.0), 0.25, "a deep squeeze drops to the lowest rung");
        assert_eq!(b.fraction_for(40.0), 0.25, "the floor binds past the ladder");
        assert_eq!(b.fraction_for(f64::NAN), 1.0, "garbage estimates are ignored");

        let floored = BrownoutConfig { min_fidelity: 0.5, ..BrownoutConfig::default() };
        assert_eq!(floored.fraction_for(4.0), 0.55, "rungs below the floor are never served");
        assert_eq!(floored.floor_fraction(), 0.55);

        let empty = BrownoutConfig { tier_fractions: vec![], ..BrownoutConfig::default() };
        assert_eq!(empty.fraction_for(4.0), 1.0, "an empty ladder disables brownout");
    }

    fn brownout_feedback() -> FeedbackConfig {
        FeedbackConfig { brownout: Some(BrownoutConfig::default()), ..FeedbackConfig::default() }
    }

    /// An ImageNet-like corpus is the regime brownout targets: most
    /// samples' raw encodings are already smaller than the post-crop
    /// raster, so raw serving dominates the plan and the link — not the
    /// storage CPU — is the binding resource.
    fn setup_imagenet(
        samples: u64,
        cores: usize,
    ) -> (Vec<SampleProfile>, PipelineSpec, ClusterConfig) {
        let ds = DatasetSpec::imagenet_like(samples, 23);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        (ps, pipeline, ClusterConfig::paper_testbed(cores))
    }

    #[test]
    fn brownout_bounds_epoch_time_where_fixed_fidelity_collapses() {
        // A fleet-wide link squeeze: every replica is equally squeezed, so
        // rerouting alone cannot absorb it — only shedding bytes can.
        let (ps, pipeline, config) = setup_imagenet(2048, 2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
        let map = ShardMap::new(4, 2, 11);
        let nodes = crate::ext::sharding::fleet_nodes_sharing_link(&config, 4);
        let batches = (ps.len() / 64) as u64;
        let chaos = chaos_link_squeeze(17, 4, batches);

        let calm = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &[], None).unwrap();
        let fixed = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, None).unwrap();
        let browned =
            run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, Some(&brownout_feedback()))
                .unwrap();

        assert_eq!(fixed.mean_fidelity, 1.0, "a static run never browns out");
        assert!(!browned.replans.is_empty(), "the squeeze must trigger replanning");
        assert!(
            browned.mean_fidelity < 1.0,
            "the squeeze must brown out some serves, got {}",
            browned.mean_fidelity
        );
        assert!(
            browned.mean_fidelity >= BrownoutConfig::default().min_fidelity,
            "delivered fidelity under-ran the floor: {}",
            browned.mean_fidelity
        );
        assert!(
            browned.epoch_seconds < fixed.epoch_seconds,
            "brownout {} vs fixed-fidelity {}",
            browned.epoch_seconds,
            fixed.epoch_seconds
        );
        assert_eq!(browned.digest, fixed.digest, "brownout disturbed batch identity");
        assert_eq!(browned.batches, fixed.batches);
        // The ISSUE's robustness gates, in miniature: the browned epoch
        // stays within 1.5x of calm while fixed fidelity blows past 2x.
        assert!(
            browned.epoch_seconds <= calm.epoch_seconds * 1.5,
            "brownout {} vs calm {}",
            browned.epoch_seconds,
            calm.epoch_seconds
        );
        assert!(
            fixed.epoch_seconds >= calm.epoch_seconds * 2.0,
            "fixed {} vs calm {} — the squeeze is not biting",
            fixed.epoch_seconds,
            calm.epoch_seconds
        );
    }

    #[test]
    fn brownout_runs_are_deterministic_per_seed_and_schedule() {
        let (ps, pipeline, config) = setup_imagenet(1024, 2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
        let map = ShardMap::new(3, 2, 5);
        let nodes = crate::ext::sharding::fleet_nodes_sharing_link(&config, 3);
        let chaos = chaos_link_squeeze(83, 3, (ps.len() / 64) as u64);
        let cfg = brownout_feedback();
        let a = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, Some(&cfg)).unwrap();
        let b = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, Some(&cfg)).unwrap();
        assert_eq!(a, b, "browned-out epochs must be reproducible");
        assert!(a.mean_fidelity < 1.0, "the schedule must actually brown out");
    }

    #[test]
    fn brownout_config_is_inert_without_link_pressure() {
        let (ps, pipeline, config) = setup(512, 8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
        let map = ShardMap::new(4, 2, 11);
        let nodes = crate::ext::sharding::fleet_nodes(&config, 4);
        let quiet = run_fleet_epoch_adaptive(&ctx, &map, &nodes, &[], None).unwrap();
        let armed =
            run_fleet_epoch_adaptive(&ctx, &map, &nodes, &[], Some(&brownout_feedback())).unwrap();
        assert_eq!(armed.mean_fidelity, 1.0);
        assert_eq!(quiet.epoch_seconds, armed.epoch_seconds);
        assert_eq!(quiet.digest, armed.digest);
    }

    #[test]
    fn link_squeeze_chaos_is_deterministic_and_fleet_wide() {
        let a = chaos_link_squeeze(7, 4, 100);
        let b = chaos_link_squeeze(7, 4, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4, "every node's link is squeezed");
        for (n, ev) in a.iter().enumerate() {
            assert_eq!(ev.node, n);
            assert_eq!(ev.speed_factor, 1.0);
            assert_eq!(ev.link_factor, 0.25);
            assert!((15..18).contains(&ev.at_batch), "onset out of range: {}", ev.at_batch);
        }
    }

    #[test]
    fn chaos_profile_is_deterministic_and_in_range() {
        let a = chaos_straggler_and_squeeze(42, 5, 100);
        let b = chaos_straggler_and_squeeze(42, 5, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|e| e.node < 5));
        assert_ne!(a[0].node, a[1].node, "straggler and squeeze hit different nodes");
        assert!(a[0].at_batch < a[1].at_batch);
    }
}
