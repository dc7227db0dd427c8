//! Audio on the two-node topology: selective offloading, executed for
//! real, composed with the epoch-stable cache and a sharded fleet.
//!
//! Where `audio_offloading` *plans* the speech workload, this example
//! *executes* the plan clip by clip: the storage side runs each clip's
//! offloaded prefix, the intermediate crosses the (counted) wire, and the
//! compute side finishes the suffix. Every clip's final features are
//! FNV-digested and checked bit-identical to a no-offload run — the
//! transparency property that makes split choice a pure performance knob
//! — and the corpus digest is pinned so regressions in any layer
//! (codec, resampler, FFT, augmentation keying) show up as a diff here.
//!
//! On top of the split execution:
//!
//! * **cache** — audio's deterministic prefix is *two* ops deep (decode +
//!   resample; the random crop comes later), so the resampled PCM is
//!   epoch-stable and [`cache::CacheKey`] accepts it (it rejects the same
//!   split for imagery, whose prefix is one op). Warm epochs replay the
//!   cached PCM and re-run only the augmented tail, moving zero bytes.
//! * **fleet** — the same plan sharded across two storage nodes with
//!   replicated placement, each node shipping only its residual.
//!
//! ```sh
//! cargo run --release --example audio_two_node
//! ```

use audio::{codec, AudioData, AudioDatasetSpec, AudioPipeline};
use cache::{AdmissionHint, CacheKey, SampleCache};
use cluster::{ClusterConfig, GpuModel};
use netsim::Bandwidth;
use pipeline::{SplitPoint, StageData};
use sophon::engine::{DecisionEngine, PlanningContext};
use sophon::ext::sharding;
use sophon::prelude::*;

const CLIPS: u64 = 192;
const SEED: u64 = 2025;
const BATCH: usize = 32;

/// Pinned FNV-1a fold of every clip's epoch-0 feature digest. Any change
/// to the audio stack's bytes — codec, resampler, window, FFT, mel, or
/// augmentation keying — lands here.
const EXPECTED_CORPUS_DIGEST: u64 = 0x9f97_6d3b_8b9b_da67;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(digest: u64, value: u64) -> u64 {
    let mut d = digest;
    for byte in value.to_le_bytes() {
        d ^= u64::from(byte);
        d = d.wrapping_mul(FNV_PRIME);
    }
    d
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = ModalWorkload::audio_standard(CLIPS, SEED);
    let ds = AudioDatasetSpec::speech_like(CLIPS, SEED);
    let pipeline = AudioPipeline::standard_train();
    println!("profiling {CLIPS} clips through the audio pipeline...");
    let profiles = workload.profiles()?;

    let gpu = GpuModel::Custom { seconds_per_image: 1.0 / 2000.0 };
    let config = ClusterConfig::paper_testbed(16).with_bandwidth(Bandwidth::from_mbps(50.0));
    let ctx = PlanningContext::new(&profiles, workload.modality(), &config, gpu, BATCH);
    let plan = DecisionEngine::new().plan(&ctx);
    let summary = plan.summarize(&profiles)?;

    // --- Execute the plan: prefix on storage, suffix on compute. -------
    let mut shipped = 0u64;
    let mut raw = 0u64;
    let mut corpus_digest = FNV_OFFSET;
    for id in 0..CLIPS {
        let split = plan.split(id as usize);
        let key = workload.sample_key(id, 0);
        let storage_out = pipeline.run_prefix(ds.materialize(id), split, key)?;
        shipped += storage_out.byte_len();
        raw += ds.materialize(id).byte_len();
        let _features = pipeline.run_suffix(storage_out, split, key)?;

        let offloaded = workload.split_digest(id, 0, split)?;
        let local = workload.split_digest(id, 0, SplitPoint::NONE)?;
        assert_eq!(offloaded, local, "clip {id}: split {split:?} changed the features");
        corpus_digest = fnv_fold(corpus_digest, offloaded);
    }
    println!(
        "\nsplit execution: {}/{CLIPS} clips offloaded; {:.1} MB shipped vs {:.1} MB raw \
         ({:.2}x); every clip bit-identical to local preprocessing",
        summary.offloaded_samples,
        shipped as f64 / 1e6,
        raw as f64 / 1e6,
        raw as f64 / shipped as f64,
    );
    println!("corpus digest: {corpus_digest:#018x}");
    assert_eq!(corpus_digest, EXPECTED_CORPUS_DIGEST, "audio stack bytes drifted");

    // --- Cache the epoch-stable prefix, replay it warm. ----------------
    // Decode + resample is deterministic; the random crop is not. So the
    // 16 kHz PCM at split 2 caches across epochs (the cache crate proves
    // this per-modality — imagery's prefix is only one op deep).
    let stable = SplitPoint::new(2);
    let mut cache = SampleCache::lru(u64::MAX / 2);
    for id in 0..CLIPS {
        let key = CacheKey::try_new(ds.seed, id, stable, None, &pipeline)?;
        let pcm = pipeline.run_prefix(ds.materialize(id), stable, workload.sample_key(id, 0))?;
        let encoded = codec::encode(pcm.as_pcm().expect("split 2 is PCM"));
        cache.insert(
            key,
            stable,
            StageData::Encoded(encoded.into()),
            AdmissionHint::from_payload_bytes(pcm.byte_len()),
        );
    }
    let mut warm_wire = 0u64;
    for id in 0..CLIPS {
        let key = CacheKey::try_new(ds.seed, id, stable, None, &pipeline)?;
        let features = match cache.get(&key) {
            Some((_, StageData::Encoded(bytes))) => {
                let pcm = AudioData::Pcm(codec::decode(&bytes)?);
                pipeline.run_suffix(pcm, stable, workload.sample_key(id, 1))?
            }
            _ => {
                warm_wire += ds.materialize(id).byte_len();
                pipeline.run(ds.materialize(id), workload.sample_key(id, 1))?
            }
        };
        let mut digest = FNV_OFFSET;
        if let AudioData::Features(s) = &features {
            for v in s.as_slice() {
                for byte in v.to_le_bytes() {
                    digest ^= u64::from(byte);
                    digest = digest.wrapping_mul(FNV_PRIME);
                }
            }
        }
        let fresh = workload.split_digest(id, 1, SplitPoint::NONE)?;
        assert_eq!(digest, fresh, "clip {id}: cached PCM replay diverged in epoch 1");
    }
    let stats = cache.stats();
    println!(
        "\ncache: {} entries ({:.1} MB of 16 kHz PCM); warm epoch hit {:.0}% and moved \
         {warm_wire} bytes over the wire",
        cache.len(),
        cache.used_bytes() as f64 / 1e6,
        stats.hit_rate() * 100.0,
    );

    // --- The same plan over a two-node storage fleet. ------------------
    let map = fleet::ShardMap::new(2, 2, SEED);
    let nodes = sharding::fleet_nodes(&config, 2);
    let sharded = sharding::plan_fleet(&ctx, &sharding::FleetPlanRequest::new(&map, &nodes))?;
    println!("\nfleet: 2 storage nodes, 2-way replication");
    println!("{:<8} {:>8} {:>11} {:>13}", "shard", "clips", "offloaded", "ships (MB)");
    for s in &sharded.per_shard {
        println!(
            "{:<8} {:>8} {:>11} {:>13.2}",
            format!("node{}", s.shard),
            s.samples,
            s.offloaded_samples,
            s.transfer_bytes as f64 / 1e6,
        );
    }
    let fleet_bytes: u64 = sharded.per_shard.iter().map(|s| s.transfer_bytes).sum();
    println!(
        "fleet ships {:.1} MB total — {:.2}x under raw, planned per node",
        fleet_bytes as f64 / 1e6,
        raw as f64 / fleet_bytes as f64,
    );
    Ok(())
}
