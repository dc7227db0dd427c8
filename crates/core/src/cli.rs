//! Argument parsing for the `sophon-sim` command-line tool.
//!
//! Hand-rolled (`--flag value` pairs) to keep the workspace dependency-free;
//! the parser is a pure function so every path is unit-testable.

use cluster::{ClusterConfig, GpuModel, KillEvent};
use datasets::DatasetSpec;

use crate::runner::Scenario;

/// How much deterministic fault injection a run asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// No injected faults.
    None,
    /// One mid-epoch node kill.
    Light,
    /// As many node kills as replication tolerates.
    Aggressive,
    /// No kills; every node's link is squeezed mid-epoch and never
    /// recovers. Rerouting cannot help — only brownout (byte-shedding)
    /// keeps the epoch bounded.
    LinkSqueeze,
}

impl ChaosProfile {
    /// The profile's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::None => "none",
            ChaosProfile::Light => "light",
            ChaosProfile::Aggressive => "aggressive",
            ChaosProfile::LinkSqueeze => "link-squeeze",
        }
    }
}

/// Which data modality the simulated workload preprocesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModalityChoice {
    /// Imagery through the paper's five-op pipeline.
    Image,
    /// Speech-like audio through the mel front-end.
    Audio,
}

/// Which corpus to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DatasetChoice {
    /// OpenImages-like statistics.
    OpenImages,
    /// ImageNet-like statistics.
    ImageNet,
    /// The small mixed corpus used by functional tests.
    Mini,
}

/// A fully parsed `sophon-sim` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Data modality of the workload.
    pub modality: ModalityChoice,
    /// Corpus family.
    pub(crate) dataset: DatasetChoice,
    /// Sample count.
    pub(crate) samples: u64,
    /// Corpus seed.
    pub seed: u64,
    /// Policy name, or `"all"`.
    pub policy: String,
    /// Storage-node preprocessing cores.
    pub(crate) storage_cores: usize,
    /// Compute-node preprocessing cores.
    pub(crate) compute_cores: usize,
    /// GPUs.
    pub(crate) gpus: usize,
    /// Link bandwidth in Mbps.
    pub(crate) bandwidth_mbps: f64,
    /// GPU cost model.
    pub model: GpuModel,
    /// Batch size.
    pub batch: usize,
    /// Training epochs (1 = single-epoch report).
    pub epochs: u64,
    /// Near-compute cache budget as a percentage of corpus raw bytes
    /// (0 = no cache).
    pub cache_budget_pct: u64,
    /// Cache selection policy.
    pub cache_policy: crate::ext::caching::CacheSelection,
    /// Storage nodes the corpus is sharded across (1 = single node).
    pub shards: usize,
    /// Replicas per sample across the fleet.
    pub replication: usize,
    /// Fault-injection intensity for fleet runs.
    pub chaos_profile: ChaosProfile,
    /// Seed driving the deterministic fault schedule.
    pub chaos_seed: u64,
    /// Concurrent tenant jobs sharing the storage node (1 = single-job).
    pub tenants: usize,
    /// Per-tenant DWRR weights, cycled to cover all tenants
    /// (empty = equal weights).
    pub tenant_weights: Vec<u32>,
    /// Per-tenant byte quota in bytes/second (0 = unquotaed).
    pub quota_bytes_per_sec: f64,
    /// Enable the mid-epoch feedback control loop on fleet runs.
    pub(crate) adaptive: bool,
    /// Telemetry samples per channel window feeding drift detection.
    pub(crate) drift_window: usize,
    /// Minimum batches between feedback-driven replans.
    pub(crate) replan_cooldown: u64,
    /// Byte fractions of the brownout fidelity ladder, ascending and
    /// ending at 1.0 (empty = brownout disabled).
    pub(crate) brownout_tiers: Vec<f64>,
    /// Floor on the served byte fraction when brownout engages.
    pub(crate) min_fidelity: f64,
    /// Print the SOPHON decision trace summary.
    pub explain: bool,
    /// Print the simulated timeline of this many leading samples.
    pub trace: Option<usize>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            modality: ModalityChoice::Image,
            dataset: DatasetChoice::OpenImages,
            samples: 8_192,
            seed: 42,
            policy: "all".to_string(),
            storage_cores: 48,
            compute_cores: 48,
            gpus: 1,
            bandwidth_mbps: 500.0,
            model: GpuModel::AlexNet,
            batch: 256,
            epochs: 1,
            cache_budget_pct: 0,
            cache_policy: crate::ext::caching::CacheSelection::EfficiencyAware,
            shards: 1,
            replication: 1,
            chaos_profile: ChaosProfile::None,
            chaos_seed: 0,
            tenants: 1,
            tenant_weights: Vec::new(),
            quota_bytes_per_sec: 0.0,
            adaptive: false,
            drift_window: 64,
            replan_cooldown: 4,
            brownout_tiers: Vec::new(),
            min_fidelity: 0.25,
            explain: false,
            trace: None,
        }
    }
}

impl CliOptions {
    /// Parses `--flag value` argument pairs.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message naming the offending flag or value.
    pub fn parse<I, S>(args: I) -> Result<CliOptions, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = CliOptions::default();
        // Flags as given, so a flag its run ignores is an error even when
        // its value happens to equal the default.
        let mut given: Vec<String> = Vec::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_ref();
            given.push(flag.to_string());
            // Boolean switches take no value.
            let switch = match flag {
                "--adaptive" => Some(&mut opts.adaptive),
                "--explain" => Some(&mut opts.explain),
                _ => None,
            };
            if let Some(on) = switch {
                *on = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
            let value = value.as_ref();
            match flag {
                "--modality" => {
                    opts.modality = match value {
                        "image" => ModalityChoice::Image,
                        "audio" => ModalityChoice::Audio,
                        other => return Err(format!("unknown modality '{other}'")),
                    }
                }
                "--dataset" => {
                    opts.dataset = match value {
                        "openimages" => DatasetChoice::OpenImages,
                        "imagenet" => DatasetChoice::ImageNet,
                        "mini" => DatasetChoice::Mini,
                        other => return Err(format!("unknown dataset '{other}'")),
                    }
                }
                "--samples" => opts.samples = parse_num(flag, value)?,
                "--seed" => opts.seed = parse_num(flag, value)?,
                "--policy" => {
                    if !["all", "no-off", "all-off", "fastflow", "resize-off", "sophon"]
                        .contains(&value)
                    {
                        return Err(format!("unknown policy '{value}'"));
                    }
                    opts.policy = value.to_string();
                }
                "--storage-cores" => opts.storage_cores = parse_num(flag, value)?,
                "--compute-cores" => opts.compute_cores = parse_num(flag, value)?,
                "--gpus" => opts.gpus = parse_num(flag, value)?,
                "--bandwidth-mbps" => {
                    opts.bandwidth_mbps = value
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v > 0.0)
                        .ok_or_else(|| format!("invalid bandwidth '{value}'"))?;
                }
                "--model" => {
                    opts.model = match value {
                        "alexnet" => GpuModel::AlexNet,
                        "resnet18" => GpuModel::ResNet18,
                        "resnet50" => GpuModel::ResNet50,
                        other => return Err(format!("unknown model '{other}'")),
                    }
                }
                "--batch" => opts.batch = parse_num(flag, value)?,
                "--epochs" => opts.epochs = parse_num(flag, value)?,
                "--cache-budget-pct" => opts.cache_budget_pct = parse_num(flag, value)?,
                "--cache-policy" => {
                    use crate::ext::caching::CacheSelection;
                    opts.cache_policy = match value {
                        "lru" => CacheSelection::Arrival,
                        "size" => CacheSelection::SizeAware,
                        "efficiency" => CacheSelection::EfficiencyAware,
                        other => return Err(format!("unknown cache policy '{other}'")),
                    }
                }
                "--shards" => opts.shards = parse_num(flag, value)?,
                "--replication" => opts.replication = parse_num(flag, value)?,
                "--chaos-profile" => {
                    opts.chaos_profile = match value {
                        "none" => ChaosProfile::None,
                        "light" => ChaosProfile::Light,
                        "aggressive" => ChaosProfile::Aggressive,
                        "link-squeeze" => ChaosProfile::LinkSqueeze,
                        other => return Err(format!("unknown chaos profile '{other}'")),
                    }
                }
                "--chaos-seed" => opts.chaos_seed = parse_num(flag, value)?,
                "--tenants" => opts.tenants = parse_num(flag, value)?,
                "--tenant-weights" => {
                    opts.tenant_weights = value
                        .split(',')
                        .map(|w| {
                            w.trim()
                                .parse::<u32>()
                                .ok()
                                .filter(|&w| w >= 1)
                                .ok_or_else(|| format!("invalid tenant weight '{w}'"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--drift-window" => opts.drift_window = parse_num(flag, value)?,
                "--replan-cooldown" => opts.replan_cooldown = parse_num(flag, value)?,
                "--brownout-tiers" => {
                    opts.brownout_tiers = value
                        .split(',')
                        .map(|f| {
                            f.trim()
                                .parse::<f64>()
                                .ok()
                                .filter(|v| v.is_finite() && *v > 0.0 && *v <= 1.0)
                                .ok_or_else(|| format!("invalid brownout tier '{f}'"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--min-fidelity" => {
                    opts.min_fidelity = value
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && (0.0..=1.0).contains(v))
                        .ok_or_else(|| format!("invalid min fidelity '{value}' (want 0-1)"))?;
                }
                "--trace" => opts.trace = Some(parse_num(flag, value)?),
                "--quota-bytes-per-sec" => {
                    opts.quota_bytes_per_sec = value
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v > 0.0)
                        .ok_or_else(|| format!("invalid quota '{value}'"))?;
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if opts.samples == 0 || opts.batch == 0 || opts.epochs == 0 {
            return Err("samples, batch, and epochs must be positive".to_string());
        }
        if opts.cache_budget_pct > 100 {
            return Err("cache budget must be 0-100 percent of corpus bytes".to_string());
        }
        if opts.shards == 0 {
            return Err("shards must be positive".to_string());
        }
        if opts.replication == 0 || opts.replication > opts.shards {
            return Err(format!(
                "replication must be between 1 and the shard count ({})",
                opts.shards
            ));
        }
        if opts.tenants == 0 || opts.tenants > u16::MAX as usize {
            return Err(format!("tenants must be between 1 and {}", u16::MAX));
        }
        if opts.drift_window < 2 {
            return Err("drift window must hold at least 2 samples".to_string());
        }
        if opts.replan_cooldown == 0 {
            return Err("replan cooldown must be at least 1 batch".to_string());
        }
        if !opts.brownout_tiers.is_empty() {
            let ascending = opts.brownout_tiers.windows(2).all(|w| w[0] < w[1]);
            if !ascending || opts.brownout_tiers.last() != Some(&1.0) {
                return Err("brownout tiers must be strictly ascending and end at 1.0".to_string());
            }
        }
        if opts.tenant_weights.len() > opts.tenants {
            return Err(format!(
                "{} tenant weights for {} tenants (weights are cycled, never dropped)",
                opts.tenant_weights.len(),
                opts.tenants
            ));
        }
        if opts.gpus == 0 {
            return Err("gpus must be positive".to_string());
        }
        let ignored = |flags: &str, context: &str| {
            let hit = given.iter().find(|f| flags.split_whitespace().any(|g| g == f.as_str()));
            hit.map_or(Ok(()), |flag| Err(format!("{flag} has no effect {context}")))
        };
        if opts.modality == ModalityChoice::Audio {
            // The audio path plans one corpus for one epoch, one node, one tenant.
            ignored(
                "--dataset --epochs --shards --replication --cache-budget-pct --cache-policy \
                 --chaos-profile --tenants --quota-bytes-per-sec --adaptive",
                "with --modality audio",
            )?;
        }
        if !opts.adaptive {
            let tuning = "--brownout-tiers --min-fidelity --drift-window --replan-cooldown";
            ignored(tuning, "without --adaptive")?;
        }
        if opts.tenants == 1 {
            ignored("--quota-bytes-per-sec --tenant-weights", "with one tenant")?;
        }
        Ok(opts)
    }

    /// Materializes the modality-tagged workload: the corpus paired with
    /// its preprocessing pipeline, behind [`sophon_planner::workload::ModalWorkload`]'s
    /// dispatch.
    ///
    /// `--dataset` picks the image corpus family; the audio modality has
    /// a single speech-like corpus family, so it reads only `--samples`
    /// and `--seed`.
    pub fn workload(&self) -> sophon_planner::workload::ModalWorkload {
        use sophon_planner::workload::ModalWorkload;
        match self.modality {
            ModalityChoice::Image => ModalWorkload::Image {
                dataset: self.dataset_spec(),
                pipeline: pipeline::PipelineSpec::standard_train(),
                cost_model: pipeline::CostModel::realistic(),
            },
            ModalityChoice::Audio => ModalWorkload::audio_standard(self.samples, self.seed),
        }
    }

    /// Materializes the corpus spec.
    pub(crate) fn dataset_spec(&self) -> DatasetSpec {
        match self.dataset {
            DatasetChoice::OpenImages => DatasetSpec::openimages_like(self.samples, self.seed),
            DatasetChoice::ImageNet => DatasetSpec::imagenet_like(self.samples, self.seed),
            DatasetChoice::Mini => DatasetSpec::mini(self.samples, self.seed),
        }
    }

    /// Materializes the cluster config.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::paper_testbed(self.storage_cores)
            .with_compute_cores(self.compute_cores)
            .with_gpus(self.gpus)
            .with_bandwidth(netsim::Bandwidth::from_mbps(self.bandwidth_mbps))
    }

    /// Materializes the scenario.
    pub fn scenario(&self) -> Scenario {
        Scenario::new(self.dataset_spec(), self.cluster_config(), self.model, self.batch)
    }

    /// The deterministic node-kill schedule the chaos profile asks for.
    ///
    /// Empty unless a profile is set *and* the fleet can survive a kill
    /// (at least two shards and replication ≥ 2 — an unreplicated corpus
    /// has nowhere to fail over, and injecting a guaranteed
    /// `SampleUnreachable` teaches nothing). Kills are capped at
    /// `replication - 1` dead nodes so every sample keeps one live owner,
    /// and the whole schedule is a pure function of `chaos_seed`.
    pub fn chaos_kills(&self) -> Vec<KillEvent> {
        if self.chaos_profile == ChaosProfile::None || self.shards < 2 || self.replication < 2 {
            return Vec::new();
        }
        let want = match self.chaos_profile {
            // A link squeeze degrades every wire but kills nothing; its
            // schedule lives in the feedback loop, not the kill list.
            ChaosProfile::None | ChaosProfile::LinkSqueeze => 0,
            ChaosProfile::Light => 1,
            ChaosProfile::Aggressive => self.replication - 1,
        }
        .min(self.shards - 1);
        let mut kills = Vec::with_capacity(want);
        let mut used = vec![false; self.shards];
        let mut draw = 0u64;
        while kills.len() < want {
            let h = splitmix(self.chaos_seed ^ 0xc4a0_5a11, draw);
            draw += 1;
            let node = (h % self.shards as u64) as usize;
            if used[node] {
                continue; // deterministic rejection sampling for distinctness
            }
            used[node] = true;
            // Kill somewhere in the middle half of the epoch: late enough
            // that the node did real work, early enough that failover does.
            let fraction = 0.25 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64);
            kills.push(KillEvent::new(node, fraction));
        }
        kills
    }

    /// Per-tenant specs for the multi-tenant serving simulation: weights
    /// cycled from `--tenant-weights` (equal when unset), every tenant
    /// quotaed at `--quota-bytes-per-sec` when positive (burst = a
    /// quarter-second of quota).
    pub fn tenant_specs(&self) -> Vec<tenant::TenantSpec> {
        (0..self.tenants)
            .map(|i| {
                let weight = if self.tenant_weights.is_empty() {
                    1
                } else {
                    self.tenant_weights[i % self.tenant_weights.len()]
                };
                let spec = tenant::TenantSpec::default().with_weight(weight);
                if self.quota_bytes_per_sec > 0.0 {
                    spec.with_quota(
                        self.quota_bytes_per_sec,
                        (self.quota_bytes_per_sec / 4.0).max(1.0) as u64,
                    )
                } else {
                    spec
                }
            })
            .collect()
    }

    /// The feedback-control tuning this invocation asks for, or `None`
    /// when `--adaptive` is absent. `--brownout-tiers` arms progressive
    /// fidelity degradation inside the same loop; without it every replan
    /// corrects node parameters only and serves full fidelity.
    pub fn feedback_config(&self) -> Option<crate::ext::feedback::FeedbackConfig> {
        self.adaptive.then(|| {
            let brownout =
                (!self.brownout_tiers.is_empty()).then(|| crate::ext::feedback::BrownoutConfig {
                    tier_fractions: self.brownout_tiers.clone(),
                    min_fidelity: self.min_fidelity,
                    ..crate::ext::feedback::BrownoutConfig::default()
                });
            crate::ext::feedback::FeedbackConfig {
                drift_window: self.drift_window,
                cooldown_batches: self.replan_cooldown,
                brownout,
                ..crate::ext::feedback::FeedbackConfig::default()
            }
        })
    }

    /// One line per flag, for `--help`-style output.
    pub fn usage() -> &'static str {
        "sophon-sim [--modality image|audio]\n\
         \u{20}          [--dataset openimages|imagenet|mini] [--samples N] [--seed N]\n\
         \u{20}          [--policy all|no-off|all-off|fastflow|resize-off|sophon]\n\
         \u{20}          [--storage-cores N] [--compute-cores N] [--gpus N]\n\
         \u{20}          [--bandwidth-mbps F] [--model alexnet|resnet18|resnet50]\n\
         \u{20}          [--batch N] [--epochs N]\n\
         \u{20}          [--cache-budget-pct 0-100] [--cache-policy lru|size|efficiency]\n\
         \u{20}          [--shards N] [--replication N]\n\
         \u{20}          [--chaos-profile none|light|aggressive|link-squeeze] [--chaos-seed N]\n\
         \u{20}          [--tenants N] [--tenant-weights W1,W2,...] [--quota-bytes-per-sec F]\n\
         \u{20}          [--adaptive] [--drift-window N] [--replan-cooldown N]\n\
         \u{20}          [--brownout-tiers F1,F2,...,1.0] [--min-fidelity F]\n\
         \u{20}          [--explain] [--trace N]\n\
         \u{20}(--modality audio plans the speech-like mel front-end instead of the\n\
         \u{20} imagery pipeline, with per-clip measured profiles;\n\
         \u{20} --cache-budget-pct with --shards composes: a warm near-compute cache\n\
         \u{20} over a sharded storage fleet, planned per shard on the residual;\n\
         \u{20} --chaos-profile injects seeded mid-epoch node kills into fleet runs;\n\
         \u{20} --tenants > 1 shares the storage node between that many jobs under\n\
         \u{20} weighted-fair scheduling, with optional per-tenant byte quotas;\n\
         \u{20} --adaptive closes a telemetry feedback loop over fleet runs,\n\
         \u{20} replanning mid-epoch when drift detectors trip, gated by\n\
         \u{20} --drift-window samples and a --replan-cooldown batch floor;\n\
         \u{20} --brownout-tiers arms progressive fidelity degradation inside the\n\
         \u{20} adaptive loop: link-bound samples drop to the largest tier fraction\n\
         \u{20} the squeezed link affords, never below --min-fidelity;\n\
         \u{20} --chaos-profile link-squeeze throttles every link mid-epoch without\n\
         \u{20} killing nodes — the schedule where rerouting cannot help;\n\
         \u{20} --explain prints the SOPHON decision trace summary;\n\
         \u{20} --trace N prints the first N samples' simulated timeline)"
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value '{value}' for {flag}"))
}

/// SplitMix64 over `(seed, i)`.
fn splitmix(seed: u64, i: u64) -> u64 {
    imagery::rng::splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_parse_from_empty() {
        let opts = CliOptions::parse(Vec::<String>::new()).unwrap();
        assert_eq!(opts, CliOptions::default());
    }

    #[test]
    fn full_flag_set_parses() {
        let opts = CliOptions::parse(
            "--dataset imagenet --samples 1000 --seed 9 --policy sophon \
             --storage-cores 2 --compute-cores 16 --gpus 4 --bandwidth-mbps 1000 \
             --model resnet50 --batch 128 --epochs 50"
                .split_whitespace(),
        )
        .unwrap();
        assert_eq!(opts.dataset, DatasetChoice::ImageNet);
        assert_eq!(opts.samples, 1000);
        assert_eq!(opts.policy, "sophon");
        assert_eq!(opts.storage_cores, 2);
        assert_eq!(opts.gpus, 4);
        assert_eq!(opts.bandwidth_mbps, 1000.0);
        assert_eq!(opts.model, GpuModel::ResNet50);
        assert_eq!(opts.epochs, 50);
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(CliOptions::parse(["--policy", "bogus"]).unwrap_err().contains("bogus"));
        assert!(CliOptions::parse(["--samples"]).unwrap_err().contains("needs a value"));
        assert!(CliOptions::parse(["--wat", "1"]).unwrap_err().contains("--wat"));
        assert!(CliOptions::parse(["--bandwidth-mbps", "-5"]).unwrap_err().contains("bandwidth"));
        assert!(CliOptions::parse(["--samples", "0"]).unwrap_err().contains("positive"));
        assert!(CliOptions::parse(["--cache-budget-pct", "150"]).unwrap_err().contains("0-100"));
        assert!(CliOptions::parse(["--cache-policy", "mru"]).unwrap_err().contains("mru"));
        assert!(CliOptions::parse(["--shards", "0"]).unwrap_err().contains("shards"));
        assert!(CliOptions::parse(["--replication", "2"]).unwrap_err().contains("replication"));
        assert!(CliOptions::parse("--shards 4 --replication 5".split_whitespace())
            .unwrap_err()
            .contains("replication"));
    }

    #[test]
    fn modality_flag_parses() {
        assert_eq!(CliOptions::default().modality, ModalityChoice::Image);
        let opts = CliOptions::parse(["--modality", "audio"]).unwrap();
        assert_eq!(opts.modality, ModalityChoice::Audio);
        assert_eq!(opts.workload().modality_name(), "audio");
        assert_eq!(CliOptions::default().workload().modality_name(), "image");
        assert!(CliOptions::parse(["--modality", "video"]).unwrap_err().contains("video"));
    }

    #[test]
    fn fleet_flags_parse() {
        let opts = CliOptions::parse("--shards 4 --replication 2".split_whitespace()).unwrap();
        assert_eq!(opts.shards, 4);
        assert_eq!(opts.replication, 2);
        let d = CliOptions::default();
        assert_eq!((d.shards, d.replication), (1, 1));
    }

    #[test]
    fn cache_flags_parse() {
        use crate::ext::caching::CacheSelection;
        let opts = CliOptions::parse("--cache-budget-pct 30 --cache-policy lru".split_whitespace())
            .unwrap();
        assert_eq!(opts.cache_budget_pct, 30);
        assert_eq!(opts.cache_policy, CacheSelection::Arrival);
        assert_eq!(CliOptions::default().cache_budget_pct, 0);
    }

    #[test]
    fn chaos_flags_parse() {
        let opts = CliOptions::parse(
            "--shards 4 --replication 2 --chaos-profile aggressive --chaos-seed 99"
                .split_whitespace(),
        )
        .unwrap();
        assert_eq!(opts.chaos_profile, ChaosProfile::Aggressive);
        assert_eq!(opts.chaos_seed, 99);
        assert_eq!(CliOptions::default().chaos_profile, ChaosProfile::None);
        assert!(CliOptions::parse(["--chaos-profile", "wild"]).unwrap_err().contains("wild"));
    }

    #[test]
    fn chaos_kills_are_deterministic_and_survivable() {
        let parse = |s: &str| CliOptions::parse(s.split_whitespace()).unwrap();
        let opts = parse("--shards 4 --replication 3 --chaos-profile aggressive --chaos-seed 7");
        let a = opts.chaos_kills();
        let b = opts.chaos_kills();
        assert_eq!(a, b, "schedule must be a pure function of the seed");
        // Aggressive with replication 3 kills exactly 2 distinct nodes.
        assert_eq!(a.len(), 2);
        assert_ne!(a[0].node, a[1].node);
        for k in &a {
            assert!(k.node < 4);
            assert!((0.25..=0.75).contains(&k.after_fraction));
        }
        // Different seed, different schedule.
        let other = parse("--shards 4 --replication 3 --chaos-profile aggressive --chaos-seed 8");
        assert_ne!(a, other.chaos_kills());
        // Light kills one node.
        let light = parse("--shards 4 --replication 3 --chaos-profile light --chaos-seed 7");
        assert_eq!(light.chaos_kills().len(), 1);
    }

    #[test]
    fn chaos_kills_guard_unsurvivable_fleets() {
        let parse = |s: &str| CliOptions::parse(s.split_whitespace()).unwrap();
        // No profile, single shard, or no replication: never inject.
        assert!(parse("--shards 4 --replication 2").chaos_kills().is_empty());
        assert!(parse("--chaos-profile light").chaos_kills().is_empty());
        assert!(parse("--shards 4 --replication 1 --chaos-profile aggressive")
            .chaos_kills()
            .is_empty());
    }

    #[test]
    fn tenant_flags_parse_and_validate() {
        let opts = CliOptions::parse(
            "--tenants 8 --tenant-weights 4,2,1 --quota-bytes-per-sec 2e6".split_whitespace(),
        )
        .unwrap();
        assert_eq!(opts.tenants, 8);
        assert_eq!(opts.tenant_weights, vec![4, 2, 1]);
        assert_eq!(opts.quota_bytes_per_sec, 2e6);
        let d = CliOptions::default();
        assert_eq!((d.tenants, d.quota_bytes_per_sec), (1, 0.0));
        assert!(d.tenant_weights.is_empty());
        assert!(CliOptions::parse(["--tenants", "0"]).unwrap_err().contains("tenants"));
        assert!(CliOptions::parse(["--tenants", "70000"]).unwrap_err().contains("tenants"));
        assert!(CliOptions::parse(["--tenant-weights", "3,0"]).unwrap_err().contains("weight"));
        assert!(CliOptions::parse(["--quota-bytes-per-sec", "-1"]).unwrap_err().contains("quota"));
        // More weights than tenants is a mistake, not a cycle.
        assert!(CliOptions::parse("--tenants 2 --tenant-weights 1,2,3".split_whitespace())
            .unwrap_err()
            .contains("cycled"));
    }

    #[test]
    fn tenant_specs_cycle_weights_and_apply_quota() {
        let opts = CliOptions::parse(
            "--tenants 5 --tenant-weights 4,1 --quota-bytes-per-sec 1e6".split_whitespace(),
        )
        .unwrap();
        let specs = opts.tenant_specs();
        assert_eq!(specs.len(), 5);
        let weights: Vec<u32> = specs.iter().map(|s| s.weight).collect();
        assert_eq!(weights, vec![4, 1, 4, 1, 4]);
        for s in &specs {
            assert_eq!(s.quota_bytes_per_sec, Some(1e6));
            assert_eq!(s.burst_bytes, 250_000);
        }
        // No weights, no quota: every tenant gets the default spec.
        let plain = CliOptions::parse(["--tenants", "3"]).unwrap().tenant_specs();
        assert!(plain.iter().all(|s| s.weight == 1 && s.quota_bytes_per_sec.is_none()));
    }

    #[test]
    fn adaptive_flags_parse_and_validate() {
        let opts = CliOptions::parse(
            "--adaptive --drift-window 32 --replan-cooldown 8".split_whitespace(),
        )
        .unwrap();
        assert!(opts.adaptive);
        assert_eq!(opts.drift_window, 32);
        assert_eq!(opts.replan_cooldown, 8);
        let cfg = opts.feedback_config().unwrap();
        assert_eq!(cfg.drift_window, 32);
        assert_eq!(cfg.cooldown_batches, 8);
        // --adaptive is a switch: the next token is parsed as its own flag.
        let chained = CliOptions::parse("--adaptive --samples 64".split_whitespace()).unwrap();
        assert!(chained.adaptive);
        assert_eq!(chained.samples, 64);
        let d = CliOptions::default();
        assert!(!d.adaptive);
        assert_eq!((d.drift_window, d.replan_cooldown), (64, 4));
        assert!(d.feedback_config().is_none(), "tuning flags alone never enable the loop");
        assert!(CliOptions::parse(["--drift-window", "1"]).unwrap_err().contains("drift window"));
        assert!(CliOptions::parse(["--replan-cooldown", "0"]).unwrap_err().contains("cooldown"));
    }

    #[test]
    fn brownout_flags_parse_and_validate() {
        let opts = CliOptions::parse(
            "--adaptive --brownout-tiers 0.2,0.6,1.0 --min-fidelity 0.2".split_whitespace(),
        )
        .unwrap();
        assert_eq!(opts.brownout_tiers, vec![0.2, 0.6, 1.0]);
        assert_eq!(opts.min_fidelity, 0.2);
        let brownout = opts.feedback_config().unwrap().brownout.unwrap();
        assert_eq!(brownout.tier_fractions, vec![0.2, 0.6, 1.0]);
        assert_eq!(brownout.min_fidelity, 0.2);
        let d = CliOptions::default();
        assert!(d.brownout_tiers.is_empty());
        assert_eq!(d.min_fidelity, 0.25);
        // Without tiers the adaptive loop runs fidelity-blind.
        let plain = CliOptions::parse(["--adaptive"]).unwrap();
        assert!(plain.feedback_config().unwrap().brownout.is_none());
        assert!(CliOptions::parse(["--brownout-tiers", "0,1.0"]).unwrap_err().contains("tier"));
        assert!(CliOptions::parse(["--brownout-tiers", "0.5,1.5"]).unwrap_err().contains("tier"));
        assert!(CliOptions::parse(["--brownout-tiers", "0.6,0.3,1.0"])
            .unwrap_err()
            .contains("ascending"));
        assert!(CliOptions::parse(["--brownout-tiers", "0.25,0.55"])
            .unwrap_err()
            .contains("end at 1.0"));
        assert!(CliOptions::parse(["--min-fidelity", "1.5"]).unwrap_err().contains("fidelity"));
        assert!(CliOptions::parse(["--min-fidelity", "-0.1"]).unwrap_err().contains("fidelity"));
    }

    #[test]
    fn link_squeeze_profile_parses_and_kills_nothing() {
        let opts = CliOptions::parse(
            "--shards 4 --replication 2 --chaos-profile link-squeeze --chaos-seed 7"
                .split_whitespace(),
        )
        .unwrap();
        assert_eq!(opts.chaos_profile, ChaosProfile::LinkSqueeze);
        assert_eq!(opts.chaos_profile.name(), "link-squeeze");
        assert!(opts.chaos_kills().is_empty(), "a squeeze degrades links, never kills nodes");
    }

    #[test]
    fn explain_and_trace_flags_parse() {
        let d = CliOptions::default();
        assert_eq!((d.explain, d.trace), (false, None));
        // --explain is a switch: the next token is parsed as its own flag.
        let opts =
            CliOptions::parse("--explain --trace 5 --samples 64".split_whitespace()).unwrap();
        assert!(opts.explain);
        assert_eq!(opts.trace, Some(5));
        assert_eq!(opts.samples, 64);
        assert!(CliOptions::parse(["--samples", "64", "--trace"])
            .unwrap_err()
            .contains("--trace needs a value"));
        assert!(CliOptions::parse(["--trace", "five"]).unwrap_err().contains("'five' for --trace"));
    }

    fn rejection(args: &str) -> String {
        CliOptions::parse(args.split_whitespace()).unwrap_err()
    }

    #[test]
    fn audio_rejects_flags_only_the_image_path_reads() {
        for flag in ["--dataset mini", "--epochs 3", "--shards 2", "--cache-policy lru"] {
            let err = rejection(&format!("--modality audio {flag}"));
            let name = flag.split(' ').next().unwrap();
            assert_eq!(err, format!("{name} has no effect with --modality audio"));
        }
        // A flag given at its default value is still a flag the run ignores.
        assert!(rejection("--tenants 1 --modality audio").starts_with("--tenants"));
        assert!(rejection("--modality audio --adaptive").starts_with("--adaptive"));
        assert!(
            CliOptions::parse("--modality audio --samples 64 --gpus 2".split_whitespace()).is_ok()
        );
    }

    #[test]
    fn loop_tuning_needs_adaptive() {
        for flag in [
            "--brownout-tiers 0.5,1.0",
            "--min-fidelity 0.5",
            "--drift-window 64",
            "--replan-cooldown 2",
        ] {
            let name = flag.split(' ').next().unwrap();
            assert_eq!(rejection(flag), format!("{name} has no effect without --adaptive"));
            assert!(CliOptions::parse(format!("--adaptive {flag}").split_whitespace()).is_ok());
        }
    }

    #[test]
    fn quota_and_weights_need_several_tenants() {
        assert_eq!(
            rejection("--quota-bytes-per-sec 1e6"),
            "--quota-bytes-per-sec has no effect with one tenant"
        );
        assert_eq!(
            rejection("--tenant-weights 2"),
            "--tenant-weights has no effect with one tenant"
        );
        assert!(
            CliOptions::parse("--tenants 2 --quota-bytes-per-sec 1e6".split_whitespace()).is_ok()
        );
    }

    #[test]
    fn zero_gpus_is_rejected() {
        assert_eq!(rejection("--gpus 0"), "gpus must be positive");
    }

    #[test]
    fn scenario_materializes() {
        let opts = CliOptions::parse(["--samples", "64"]).unwrap();
        let s = opts.scenario();
        assert_eq!(s.dataset.len, 64);
        assert_eq!(s.config.link_bps, 500e6);
    }
}
