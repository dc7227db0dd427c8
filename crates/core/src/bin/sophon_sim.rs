//! `sophon-sim` — run any SOPHON scenario from the command line.
//!
//! ```sh
//! cargo run --release -p sophon-core --bin sophon-sim -- \
//!     --dataset openimages --samples 8192 --storage-cores 4 --policy all
//! ```

use sophon::cli::{CliOptions, ModalityChoice};
use sophon::policy::standard_policies;
use sophon::runner::{TrainingReport, TrainingRequest};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", CliOptions::usage());
        return;
    }
    let opts = match CliOptions::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", CliOptions::usage());
            std::process::exit(2);
        }
    };

    if opts.modality == ModalityChoice::Audio {
        run_audio(&opts);
        return;
    }

    let scenario = opts.scenario();
    println!(
        "scenario: {} x{} | {} | {} storage cores, {} compute cores, {} GPU(s), {:.0} Mbps",
        scenario.dataset.name,
        scenario.dataset.len,
        scenario.gpu.name(),
        scenario.config.storage_cores,
        scenario.config.compute_cores,
        scenario.config.gpus,
        scenario.config.link_bps / 1e6,
    );

    if opts.explain {
        let set = scenario.profile_set();
        let profiles = set.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            profiles,
            &scenario.pipeline,
            &scenario.config,
            scenario.gpu,
            scenario.batch_size,
        );
        let (_, report) = sophon::explain::ExplainReport::compute(&ctx);
        println!(
            "
SOPHON decision trace:
{}",
            report.render()
        );
    }

    if let Some(n) = opts.trace {
        let set = scenario.profile_set();
        let profiles = set.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            profiles,
            &scenario.pipeline,
            &scenario.config,
            scenario.gpu,
            scenario.batch_size,
        );
        let plan = sophon::engine::DecisionEngine::new().plan(&ctx);
        let works = plan.to_sample_works(profiles).expect("plan matches profiles");
        let spec = cluster::EpochSpec::new(works, scenario.batch_size, scenario.gpu);
        match cluster::simulate_epoch_traced(&scenario.config, &spec) {
            Ok(trace) => {
                println!(
                    "
SOPHON epoch timeline (first {n} samples, virtual seconds):"
                );
                println!("{}", trace.render_head(n));
            }
            Err(e) => eprintln!("trace unavailable: {e}"),
        }
    }

    let kills = opts.chaos_kills();
    if !kills.is_empty() {
        println!(
            "\nchaos: {} profile, seed {} — killing {} node(s): {}",
            opts.chaos_profile.name(),
            opts.chaos_seed,
            kills.len(),
            kills
                .iter()
                .map(|k| format!("node{} at {:.0}% of the epoch", k.node, k.after_fraction * 100.0))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }

    if opts.tenants > 1 {
        let set = scenario.profile_set();
        let profiles = set.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            profiles,
            &scenario.pipeline,
            &scenario.config,
            scenario.gpu,
            scenario.batch_size,
        );
        let plan = sophon::engine::DecisionEngine::new().plan(&ctx);
        let works = plan.to_sample_works(profiles).expect("plan matches profiles");
        let specs = opts.tenant_specs();
        // Deal the corpus round-robin: every tenant trains on an equal,
        // interleaved share of the planned samples.
        let mut per_tenant: Vec<Vec<cluster::SampleWork>> = vec![Vec::new(); opts.tenants];
        for (i, w) in works.into_iter().enumerate() {
            per_tenant[i % opts.tenants].push(w);
        }
        let workloads: Vec<cluster::TenantWorkload> = specs
            .into_iter()
            .zip(per_tenant)
            .enumerate()
            .map(|(i, (spec, samples))| {
                cluster::TenantWorkload::new(tenant::TenantId(i as u16), spec, samples)
            })
            .collect();
        println!(
            "\nmulti-tenant serving: {} jobs, weights {}, quota {}",
            opts.tenants,
            if opts.tenant_weights.is_empty() {
                "equal".to_string()
            } else {
                format!("{:?} (cycled)", opts.tenant_weights)
            },
            if opts.quota_bytes_per_sec > 0.0 {
                format!("{:.1} MB/s per tenant", opts.quota_bytes_per_sec / 1e6)
            } else {
                "none".to_string()
            },
        );
        match cluster::simulate_multi_tenant(&scenario.config, &workloads, opts.chaos_seed) {
            Ok(run) => {
                let shown = opts.tenants.min(8);
                println!(
                    "{:<8} {:>8} {:>11} {:>9} {:>9} {:>10} {:>18}",
                    "tenant",
                    "samples",
                    "bytes (MB)",
                    "p50 (ms)",
                    "p99 (ms)",
                    "throttled",
                    "digest"
                );
                for (id, t) in run.per_tenant.iter().take(shown) {
                    println!(
                        "{:<8} {:>8} {:>11.1} {:>9.1} {:>9.1} {:>10} {:>18}",
                        format!("job{id}"),
                        t.samples,
                        t.bytes as f64 / 1e6,
                        t.p50_latency_seconds * 1e3,
                        t.p99_latency_seconds * 1e3,
                        t.throttled,
                        format!("{:016x}", t.digest),
                    );
                }
                if opts.tenants > shown {
                    println!("... {} more tenants", opts.tenants - shown);
                }
                println!(
                    "aggregate: {:.1} s, {:.2} GB, goodput {:.1} MB/s",
                    run.epoch_seconds,
                    run.total_bytes as f64 / 1e9,
                    run.goodput_bytes_per_sec / 1e6,
                );
            }
            Err(e) => println!("multi-tenant run failed: {e}"),
        }
    }

    if opts.cache_budget_pct > 0 || opts.shards > 1 {
        let cache = (opts.cache_budget_pct > 0).then(|| {
            let set = scenario.profile_set();
            let corpus_bytes: u64 = set.profiles().iter().map(|p| p.raw_bytes).sum();
            (corpus_bytes * opts.cache_budget_pct / 100, opts.cache_policy)
        });
        let request = TrainingRequest {
            shards: opts.shards,
            replication: opts.replication,
            placement_seed: opts.seed,
            cache,
            kills: &kills,
            // The steady (warm) epoch printed below comes after SOPHON's
            // profiling (cold) epoch.
            ..TrainingRequest::new(opts.epochs.max(2))
        };
        let what = print_training_intro(&opts, &request);
        match scenario.run_training(&request) {
            Ok(r) => print_training_report(&r, !kills.is_empty()),
            Err(e) => println!("{what} run failed: {e}"),
        }
    }

    if let Some(feedback) = opts.feedback_config() {
        let shards = opts.shards.max(2); // the control loop watches a fleet
        let set = scenario.profile_set();
        let profiles = set.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            profiles,
            &scenario.pipeline,
            &scenario.config,
            scenario.gpu,
            scenario.batch_size,
        );
        let map = cluster::ShardMap::new(shards, opts.replication.min(shards), opts.seed);
        let nodes = sophon::ext::sharding::fleet_nodes_sharing_link(&scenario.config, shards);
        let batches = (profiles.len() / scenario.batch_size.max(1)).max(1) as u64;
        let chaos = match opts.chaos_profile {
            sophon::cli::ChaosProfile::None => Vec::new(),
            sophon::cli::ChaosProfile::LinkSqueeze => {
                sophon::ext::feedback::chaos_link_squeeze(opts.chaos_seed, shards, batches)
            }
            _ => {
                sophon::ext::feedback::chaos_straggler_and_squeeze(opts.chaos_seed, shards, batches)
            }
        };
        println!(
            "\nfeedback control: {} shards, drift window {}, cooldown {} batches, {}{}",
            shards,
            feedback.drift_window,
            feedback.cooldown_batches,
            if chaos.is_empty() {
                "no injected drift".to_string()
            } else {
                format!(
                    "{} chaos event(s) ({}, seed {})",
                    chaos.len(),
                    opts.chaos_profile.name(),
                    opts.chaos_seed
                )
            },
            match &feedback.brownout {
                Some(b) => format!(
                    ", brownout tiers {:?} floored at {:.2}",
                    b.tier_fractions, b.min_fidelity
                ),
                None => String::new(),
            },
        );
        let static_run =
            sophon::ext::feedback::run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, None);
        let adaptive_run = sophon::ext::feedback::run_fleet_epoch_adaptive(
            &ctx,
            &map,
            &nodes,
            &chaos,
            Some(&feedback),
        );
        match (static_run, adaptive_run) {
            (Ok(st), Ok(ad)) => {
                println!(
                    "{:<10} {:>11} {:>13} {:>9} {:>9} {:>18}",
                    "plan", "epoch (s)", "traffic (GB)", "replans", "fidelity", "batch digest"
                );
                for (name, r) in [("static", &st), ("adaptive", &ad)] {
                    println!(
                        "{:<10} {:>11.1} {:>13.2} {:>9} {:>9.3} {:>18}",
                        name,
                        r.epoch_seconds,
                        r.traffic_bytes as f64 / 1e9,
                        r.replans.len(),
                        r.mean_fidelity,
                        format!("{:016x}", r.digest),
                    );
                }
                for replan in &ad.replans {
                    println!(
                        "  replan at batch {}: {}",
                        replan.batch,
                        replan
                            .channels
                            .iter()
                            .map(|c| format!("{} {:.2}x", c.channel, c.ratio))
                            .collect::<Vec<_>>()
                            .join(", "),
                    );
                }
                if ad.digest == st.digest {
                    println!(
                        "batches bit-identical; adaptive epoch {:+.1}% vs static",
                        (ad.epoch_seconds / st.epoch_seconds - 1.0) * 100.0,
                    );
                }
            }
            (Err(e), _) | (_, Err(e)) => println!("feedback run failed: {e}"),
        }
    }

    let policies = standard_policies();
    let selected: Vec<_> =
        policies.iter().filter(|p| opts.policy == "all" || p.name() == opts.policy).collect();

    if opts.epochs == 1 {
        println!(
            "\n{:<12} {:>11} {:>13} {:>11} {:>10} {:>9}",
            "policy", "epoch (s)", "traffic (GB)", "offloaded", "GPU util", "class"
        );
        let class = scenario.workload_class();
        for p in selected {
            match class.clone().and_then(|class| Ok((scenario.run(p.as_ref())?, class))) {
                Ok((r, class)) => println!(
                    "{:<12} {:>11.1} {:>13.2} {:>11} {:>9.1}% {:>9}",
                    r.policy,
                    r.epoch.epoch_seconds,
                    r.epoch.traffic_bytes as f64 / 1e9,
                    r.summary.offloaded_samples,
                    r.epoch.gpu_utilization() * 100.0,
                    format!("{class:?}"),
                ),
                Err(e) => println!("{:<12} failed: {e}", p.name()),
            }
        }
    } else {
        println!(
            "\n{:<12} {:>12} {:>12} {:>12} {:>18}",
            "policy", "epoch 0 (s)", "steady (s)", "total (s)", "profiling overhead"
        );
        for p in selected {
            let request =
                TrainingRequest { policy: Some(p.as_ref()), ..TrainingRequest::new(opts.epochs) };
            match scenario.run_training(&request) {
                Ok(r) => println!(
                    "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>17.2}%",
                    r.policy,
                    r.stats.first_epoch.total.epoch_seconds,
                    r.stats.steady_epoch.total.epoch_seconds,
                    r.stats.total_seconds,
                    r.profiling_overhead() * 100.0,
                ),
                Err(e) => println!("{:<12} failed: {e}", p.name()),
            }
        }
    }
}

/// Announces the cache and fleet axes of `request`; returns the name its
/// failure is reported under.
fn print_training_intro(opts: &CliOptions, request: &TrainingRequest<'_>) -> &'static str {
    let TrainingRequest { epochs, shards, replication, .. } = *request;
    let pct = opts.cache_budget_pct;
    let Some((budget, selection)) = request.cache else {
        println!("\nstorage fleet: {shards} shards, {replication}-way replication");
        return "fleet";
    };
    let (gb, selection) = (budget as f64 / 1e9, selection.name());
    if shards > 1 {
        println!(
            "\ncache x fleet: {gb:.2} GB cache ({pct}%, {selection} selection) over {shards} \
             shards, {replication}-way replication, {epochs} epochs"
        );
        return "cache x fleet";
    }
    println!(
        "\nnear-compute cache: {gb:.2} GB budget ({pct}% of corpus), {selection} selection, \
         {epochs} epochs"
    );
    "cache"
}

/// Prints a SOPHON training run: the per-shard table when the run was
/// sharded, the cold/warm split when it had a cache, and the failover
/// counts of an uncached fleet run under `chaos`.
fn print_training_report(r: &TrainingReport, chaos: bool) {
    let gb = |bytes: u64| bytes as f64 / 1e9;
    let (cold, warm) = (r.stats.cold(), r.stats.warm());
    let (cold_s, cold_gb) = (cold.total.epoch_seconds, gb(cold.total.traffic_bytes));
    let (warm_s, warm_gb) = (warm.total.epoch_seconds, gb(warm.total.traffic_bytes));
    let avoided = r.stats.warm_traffic_reduction() * 100.0;
    let share = warm.peak_node_share() * 100.0;
    let sharded = r.per_shard.len() > 1;
    if sharded {
        // A cache adds the `cached` column and widens the last two.
        let cached_column = r.cache.is_some();
        if cached_column {
            println!(
                "{:<8} {:>9} {:>8} {:>11} {:>18} {:>16}",
                "shard", "residual", "cached", "offloaded", "warm traffic (GB)", "storage CPU (s)"
            );
        } else {
            println!(
                "{:<8} {:>9} {:>11} {:>13} {:>14}",
                "shard", "samples", "offloaded", "traffic (GB)", "storage CPU (s)"
            );
        }
        for s in &r.per_shard {
            let (node, traffic, cpu) =
                (format!("node{}", s.shard), gb(s.transfer_bytes), s.storage_cpu_seconds);
            let (samples, cached, offloaded) = (s.samples, s.cached_samples, s.offloaded_samples);
            if cached_column {
                println!(
                    "{node:<8} {samples:>9} {cached:>8} {offloaded:>11} {traffic:>18.2} \
                     {cpu:>16.1}"
                );
            } else {
                println!("{node:<8} {samples:>9} {offloaded:>11} {traffic:>13.2} {cpu:>14.1}");
            }
        }
    }
    let Some(held) = &r.cache else {
        let links = warm.per_node.len();
        println!(
            "fleet epoch: {warm_s:.1} s, {warm_gb:.2} GB across {links} links; \
             peak node share {share:.0}%"
        );
        if chaos {
            println!(
                "chaos outcome: {} failovers in the kill epoch, {} steady-state; \
                 zero samples lost",
                cold.failovers, warm.failovers,
            );
        }
        return;
    };
    let (cached, total, held_gb) = (held.cached_samples, warm.total.samples, gb(held.cached_bytes));
    if sharded {
        println!(
            "cold epoch: {cold_s:.1} s, {cold_gb:.2} GB | warm epoch: {warm_s:.1} s, \
             {warm_gb:.2} GB (avoids {avoided:.1}% of cold traffic)"
        );
        println!(
            "cached {cached}/{total} samples in {held_gb:.2} GB; \
             peak warm node share {share:.0}%"
        );
    } else {
        println!("{:<22} {:>14} {:>14}", "", "cold (epoch 0)", "warm (steady)");
        println!("{:<22} {cold_s:>14.1} {warm_s:>14.1}", "epoch time (s)");
        println!("{:<22} {cold_gb:>14.2} {warm_gb:>14.2}", "traffic (GB)");
        println!(
            "cached {cached}/{total} samples in {held_gb:.2} GB; \
             warm epochs avoid {avoided:.1}% of traffic"
        );
    }
}

/// The `--modality audio` path: plan the speech-like mel front-end with
/// the same policies and cluster, using per-clip *measured* profiles
/// instead of the imagery cost model.
fn run_audio(opts: &CliOptions) {
    let workload = opts.workload();
    let config = opts.cluster_config();
    println!(
        "scenario: speech-like x{} ({} modality) | {} | {} storage cores, {} compute cores, \
         {} GPU(s), {:.0} Mbps",
        workload.len(),
        workload.modality_name(),
        opts.model.name(),
        config.storage_cores,
        config.compute_cores,
        config.gpus,
        config.link_bps / 1e6,
    );

    let profiles = match workload.profiles() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: audio profiling failed: {e}");
            std::process::exit(1);
        }
    };
    let ctx = sophon::engine::PlanningContext::new(
        &profiles,
        workload.modality(),
        &config,
        opts.model,
        opts.batch,
    );

    if opts.explain {
        let (_, report) = sophon::explain::ExplainReport::compute(&ctx);
        println!(
            "
SOPHON decision trace:
{}",
            report.render()
        );
    }

    if let Some(n) = opts.trace {
        let plan = sophon::engine::DecisionEngine::new().plan(&ctx);
        let works = plan.to_sample_works(&profiles).expect("plan matches profiles");
        let spec = cluster::EpochSpec::new(works, opts.batch, opts.model);
        match cluster::simulate_epoch_traced(&config, &spec) {
            Ok(trace) => {
                println!(
                    "
SOPHON epoch timeline (first {n} clips, virtual seconds):"
                );
                println!("{}", trace.render_head(n));
            }
            Err(e) => eprintln!("trace unavailable: {e}"),
        }
    }

    let policies = standard_policies();
    let selected: Vec<_> =
        policies.iter().filter(|p| opts.policy == "all" || p.name() == opts.policy).collect();
    println!(
        "\n{:<12} {:>11} {:>13} {:>11} {:>10} {:>9}",
        "policy", "epoch (s)", "traffic (MB)", "offloaded", "reduction", "class"
    );
    for p in selected {
        let report = sophon::profiler::Stage1Probe::run(&ctx)
            .map(|probe| probe.classify())
            .and_then(|class| {
                let plan = p.plan(&ctx)?;
                let summary = plan.summarize(&profiles)?;
                let works = plan.to_sample_works(&profiles)?;
                let epoch = cluster::simulate_epoch(
                    &config,
                    &cluster::EpochSpec::new(works, opts.batch, opts.model),
                )?;
                Ok((class, summary, epoch))
            });
        match report {
            Ok((class, summary, epoch)) => println!(
                "{:<12} {:>11.1} {:>13.2} {:>11} {:>9.2}x {:>9}",
                p.name(),
                epoch.epoch_seconds,
                epoch.traffic_bytes as f64 / 1e6,
                summary.offloaded_samples,
                summary.traffic_reduction(),
                format!("{:?}", class),
            ),
            Err(e) => println!("{:<12} failed: {e}", p.name()),
        }
    }
}
