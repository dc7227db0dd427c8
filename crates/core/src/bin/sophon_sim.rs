//! `sophon-sim` — run any SOPHON scenario from the command line.
//!
//! ```sh
//! cargo run --release -p sophon-core --bin sophon-sim -- \
//!     --dataset openimages --samples 8192 --storage-cores 4 --policy all
//! ```

use sophon::cli::{CliOptions, ModalityChoice};
use sophon::policy::standard_policies;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", CliOptions::usage());
        println!("            [--explain]   print the SOPHON decision trace summary");
        println!("            [--trace N]   print the first N samples' simulated timeline");
        return;
    }
    let explain = if let Some(pos) = args.iter().position(|a| a == "--explain") {
        args.remove(pos);
        true
    } else {
        false
    };
    let trace_n: Option<usize> = args.iter().position(|a| a == "--trace").map(|pos| {
        args.remove(pos);
        args.remove(pos).parse().unwrap_or_else(|_| {
            eprintln!("error: --trace needs a sample count");
            std::process::exit(2);
        })
    });
    let opts = match CliOptions::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", CliOptions::usage());
            std::process::exit(2);
        }
    };

    if opts.modality == ModalityChoice::Audio {
        run_audio(&opts, explain, trace_n);
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

    if explain {
        let profiles = scenario.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            &profiles,
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

    if let Some(n) = trace_n {
        let profiles = scenario.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            &profiles,
            &scenario.pipeline,
            &scenario.config,
            scenario.gpu,
            scenario.batch_size,
        );
        let plan = sophon::engine::DecisionEngine::new().plan(&ctx);
        let works = plan.to_sample_works(&profiles).expect("plan matches profiles");
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
        let profiles = scenario.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            &profiles,
            &scenario.pipeline,
            &scenario.config,
            scenario.gpu,
            scenario.batch_size,
        );
        let plan = sophon::engine::DecisionEngine::new().plan(&ctx);
        let works = plan.to_sample_works(&profiles).expect("plan matches profiles");
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

    if opts.cache_budget_pct > 0 && opts.shards > 1 {
        let profiles = scenario.profiles();
        let corpus_bytes: u64 = profiles.iter().map(|p| p.raw_bytes).sum();
        let budget = corpus_bytes * opts.cache_budget_pct / 100;
        let epochs = opts.epochs.max(2);
        println!(
            "\ncache x fleet: {:.2} GB cache ({}%, {} selection) over {} shards, \
             {}-way replication, {} epochs",
            budget as f64 / 1e9,
            opts.cache_budget_pct,
            opts.cache_policy.name(),
            opts.shards,
            opts.replication,
            epochs,
        );
        match scenario.run_training_fleet_cached(
            epochs,
            opts.shards,
            opts.replication,
            opts.seed,
            budget,
            opts.cache_policy,
            &kills,
        ) {
            Ok(r) => {
                println!(
                    "{:<8} {:>9} {:>8} {:>11} {:>18} {:>16}",
                    "shard",
                    "residual",
                    "cached",
                    "offloaded",
                    "warm traffic (GB)",
                    "storage CPU (s)"
                );
                for s in &r.per_shard {
                    println!(
                        "{:<8} {:>9} {:>8} {:>11} {:>18.2} {:>16.1}",
                        format!("node{}", s.shard),
                        s.samples,
                        s.cached_samples,
                        s.offloaded_samples,
                        s.transfer_bytes as f64 / 1e9,
                        s.storage_cpu_seconds,
                    );
                }
                println!(
                    "cold epoch: {:.1} s, {:.2} GB | warm epoch: {:.1} s, {:.2} GB \
                     (avoids {:.1}% of cold traffic)",
                    r.stats.cold().total.epoch_seconds,
                    r.stats.cold().total.traffic_bytes as f64 / 1e9,
                    r.stats.warm().total.epoch_seconds,
                    r.warm_traffic_bytes() as f64 / 1e9,
                    r.warm_traffic_reduction() * 100.0,
                );
                println!(
                    "cached {}/{} samples in {:.2} GB; peak warm node share {:.0}%",
                    r.cached_samples,
                    r.total_samples,
                    r.cached_bytes as f64 / 1e9,
                    r.stats.warm().peak_node_share() * 100.0,
                );
            }
            Err(e) => println!("cache x fleet run failed: {e}"),
        }
    } else if opts.cache_budget_pct > 0 {
        let profiles = scenario.profiles();
        let corpus_bytes: u64 = profiles.iter().map(|p| p.raw_bytes).sum();
        let budget = corpus_bytes * opts.cache_budget_pct / 100;
        let epochs = opts.epochs.max(2);
        println!(
            "\nnear-compute cache: {:.2} GB budget ({}% of corpus), {} selection, {} epochs",
            budget as f64 / 1e9,
            opts.cache_budget_pct,
            opts.cache_policy.name(),
            epochs,
        );
        match scenario.run_training_cached(epochs, budget, opts.cache_policy) {
            Ok(r) => {
                println!("{:<22} {:>14} {:>14}", "", "cold (epoch 0)", "warm (steady)");
                println!(
                    "{:<22} {:>14.1} {:>14.1}",
                    "epoch time (s)",
                    r.stats.cold().epoch_seconds,
                    r.stats.warm().epoch_seconds,
                );
                println!(
                    "{:<22} {:>14.2} {:>14.2}",
                    "traffic (GB)",
                    r.stats.cold().traffic_bytes as f64 / 1e9,
                    r.warm_traffic_bytes() as f64 / 1e9,
                );
                println!(
                    "cached {}/{} samples in {:.2} GB; warm epochs avoid {:.1}% of traffic",
                    r.cached_samples,
                    r.total_samples,
                    r.cached_bytes as f64 / 1e9,
                    r.warm_traffic_reduction() * 100.0,
                );
            }
            Err(e) => println!("cache run failed: {e}"),
        }
    } else if opts.shards > 1 {
        println!(
            "\nstorage fleet: {} shards, {}-way replication{}",
            opts.shards,
            opts.replication,
            if opts.hedge_after_ms > 0 {
                format!(", hedging after {} ms (live transport only)", opts.hedge_after_ms)
            } else {
                String::new()
            },
        );
        match scenario.run_training_fleet(
            opts.epochs,
            opts.shards,
            opts.replication,
            opts.seed,
            &kills,
        ) {
            Ok(r) => {
                println!(
                    "{:<8} {:>9} {:>11} {:>13} {:>14}",
                    "shard", "samples", "offloaded", "traffic (GB)", "storage CPU (s)"
                );
                for s in &r.per_shard {
                    println!(
                        "{:<8} {:>9} {:>11} {:>13.2} {:>14.1}",
                        format!("node{}", s.shard),
                        s.samples,
                        s.offloaded_samples,
                        s.transfer_bytes as f64 / 1e9,
                        s.storage_cpu_seconds,
                    );
                }
                println!(
                    "fleet epoch: {:.1} s, {:.2} GB across {} links; peak node share {:.0}%",
                    r.stats.steady_epoch.total.epoch_seconds,
                    r.stats.steady_epoch.total.traffic_bytes as f64 / 1e9,
                    r.shards,
                    r.peak_node_share() * 100.0,
                );
                if !kills.is_empty() {
                    println!(
                        "chaos outcome: {} failovers in the kill epoch, {} steady-state; \
                         zero samples lost",
                        r.stats.first_epoch.failovers, r.stats.steady_epoch.failovers,
                    );
                }
            }
            Err(e) => println!("fleet run failed: {e}"),
        }
    }

    if let Some(feedback) = opts.feedback_config() {
        let shards = opts.shards.max(2); // the control loop watches a fleet
        let profiles = scenario.profiles();
        let ctx = sophon::engine::PlanningContext::new(
            &profiles,
            &scenario.pipeline,
            &scenario.config,
            scenario.gpu,
            scenario.batch_size,
        );
        let map = fleet::ShardMap::new(shards, opts.replication.min(shards), opts.seed);
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
        for p in selected {
            match scenario.run(p.as_ref()) {
                Ok(r) => println!(
                    "{:<12} {:>11.1} {:>13.2} {:>11} {:>9.1}% {:>9}",
                    r.policy,
                    r.epoch.epoch_seconds,
                    r.epoch.traffic_bytes as f64 / 1e9,
                    r.summary.offloaded_samples,
                    r.epoch.gpu_utilization() * 100.0,
                    format!("{:?}", r.class),
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
            match scenario.run_training(p.as_ref(), opts.epochs) {
                Ok(r) => println!(
                    "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>17.2}%",
                    r.policy,
                    r.stats.first_epoch.epoch_seconds,
                    r.stats.steady_epoch.epoch_seconds,
                    r.stats.total_seconds,
                    r.profiling_overhead() * 100.0,
                ),
                Err(e) => println!("{:<12} failed: {e}", p.name()),
            }
        }
    }
}

/// The `--modality audio` path: plan the speech-like mel front-end with
/// the same policies and cluster, using per-clip *measured* profiles
/// instead of the imagery cost model.
fn run_audio(opts: &CliOptions, explain: bool, trace_n: Option<usize>) {
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

    if explain {
        let (_, report) = sophon::explain::ExplainReport::compute(&ctx);
        println!(
            "
SOPHON decision trace:
{}",
            report.render()
        );
    }

    if let Some(n) = trace_n {
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
