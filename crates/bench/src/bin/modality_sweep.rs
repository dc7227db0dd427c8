//! Bytes-on-the-wire vs split point, per modality.
//!
//! The modality abstraction's core claim is that one planner serves
//! pipelines with *opposite* split structure: imagery shrinks early (the
//! crop) and blows up late (`ToTensor`), so its byte minimum sits
//! mid-pipeline, while audio shrinks late (mel features are far smaller
//! than lossless PCM), so its minimum sits at the end. This bench sweeps
//! every uniform split point for both workloads, then lets SOPHON plan
//! per-sample, and reports bytes and simulated epoch time for each row.
//!
//! ```sh
//! cargo run --release -p bench --bin modality_sweep
//! cargo run --release -p bench --bin modality_sweep -- \
//!     --json target/modality_sweep.json --assert
//! ```
//!
//! `--assert` exits nonzero unless, for **both** modalities: some uniform
//! split strictly beats `No-Off` on bytes, SOPHON's per-sample plan is at
//! least as good as the best uniform split, and SOPHON's simulated epoch
//! beats `No-Off`'s. It also pins the shape claim itself: the image
//! minimum must land strictly inside the pipeline, the audio minimum at
//! its end.

use bench::gate::{fixed, list, string, Args, Clock, Report, Verdicts};
use cluster::{ClusterConfig, EpochSpec, GpuModel};
use pipeline::SplitPoint;
use sophon::engine::{DecisionEngine, PlanningContext};
use sophon::prelude::ModalWorkload;
use sophon::OffloadPlan;

/// Paper-testbed cluster tuned so each modality's workload is I/O-bound
/// (the regime where split choice matters): ample storage cores, and for
/// audio the thin link + fast per-clip GPU step from the audio examples.
fn cluster_for(workload: &ModalWorkload) -> (ClusterConfig, GpuModel, usize) {
    match workload {
        ModalWorkload::Image { .. } => (ClusterConfig::paper_testbed(48), GpuModel::AlexNet, 256),
        ModalWorkload::Audio { .. } => (
            ClusterConfig::paper_testbed(16).with_bandwidth(netsim::Bandwidth::from_mbps(50.0)),
            GpuModel::Custom { seconds_per_image: 1.0 / 2000.0 },
            32,
        ),
    }
}

fn main() {
    let args = Args::parse(
        "modality_sweep",
        &[("--samples", "2048"), ("--clips", "256"), ("--seed", "23")],
    );
    let samples: u64 = args.value("--samples");
    let clips: u64 = args.value("--clips");
    let seed: u64 = args.value("--seed");

    let mut report =
        Report::new("modality_sweep").param("image_samples", samples).param("audio_clips", clips);
    let mut verdicts = Verdicts::default();
    for workload in
        [ModalWorkload::image_standard(samples, seed), ModalWorkload::audio_standard(clips, seed)]
    {
        let profiles = workload.profiles().expect("profiling succeeds");
        let (config, gpu, batch) = cluster_for(&workload);
        let modality = workload.modality();
        let name = workload.modality_name();
        let ops = modality.op_count();
        // Wire bytes at uniform split `k`, for `k` in `0..=ops`.
        let bytes_per_split: Vec<u64> = (0..=ops)
            .map(|k| {
                OffloadPlan::uniform(profiles.len(), SplitPoint::new(k))
                    .summarize(&profiles)
                    .expect("uniform split within every profile")
                    .transfer_bytes
            })
            .collect();
        let no_off_bytes = bytes_per_split[0];
        let end_bytes = bytes_per_split[ops];
        let (best_split, best_bytes) = bytes_per_split
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, b)| b)
            .expect("split 0 is swept");

        let ctx = PlanningContext::new(&profiles, modality, &config, gpu, batch);
        let plan = DecisionEngine::new().plan(&ctx);
        let sophon = plan.summarize(&profiles).expect("plan matches profiles");
        let epoch = |p: &OffloadPlan| {
            let works = p.to_sample_works(&profiles).expect("plan matches profiles");
            cluster::simulate_epoch(&config, &EpochSpec::new(works, batch, gpu))
                .expect("simulation succeeds")
                .epoch_seconds
        };
        let sophon_epoch = epoch(&plan);
        let no_off_epoch = epoch(&OffloadPlan::none(profiles.len()));

        report.row([
            ("modality", string(name)),
            ("ops", list((0..ops).map(|i| string(modality.op_name(i))))),
            ("bytes_per_split", list(&bytes_per_split)),
            ("best_split", best_split.to_string()),
            ("best_bytes", best_bytes.to_string()),
            ("sophon_bytes", sophon.transfer_bytes.to_string()),
            ("sophon_offloaded", sophon.offloaded_samples.to_string()),
            ("sophon_epoch_s", fixed(sophon_epoch, 3)),
            ("no_off_epoch_s", fixed(no_off_epoch, 3)),
        ]);
        verdicts.check(
            Clock::Virtual,
            best_bytes < no_off_bytes && best_split != 0,
            format!(
                "{name} best uniform split {best_split} ({best_bytes} bytes) does not beat \
                 no-offload ({no_off_bytes})"
            ),
        );
        verdicts.check(
            Clock::Virtual,
            sophon.transfer_bytes <= best_bytes,
            format!(
                "{name} SOPHON moved {} bytes, worse than the best uniform split's {best_bytes}",
                sophon.transfer_bytes
            ),
        );
        verdicts.check(
            Clock::Virtual,
            sophon_epoch < no_off_epoch,
            format!(
                "{name} SOPHON epoch {sophon_epoch:.2}s did not beat no-off {no_off_epoch:.2}s"
            ),
        );
        // The shape claim behind the abstraction. Ties compare on bytes,
        // not index: the audio `normalize_features` tail moves exactly what
        // `mel_spectrogram` does, and both are "the end".
        match workload {
            ModalWorkload::Image { .. } => verdicts.check(
                Clock::Virtual,
                best_split > 0 && best_bytes < end_bytes,
                format!("image byte minimum at split {best_split}, expected interior"),
            ),
            ModalWorkload::Audio { .. } => verdicts.check(
                Clock::Virtual,
                end_bytes <= best_bytes,
                format!(
                    "audio pipeline end moves {end_bytes} bytes, above the minimum {best_bytes} \
                     at split {best_split} — expected the minimum at the end"
                ),
            ),
        }
    }
    report.publish(&args);
    verdicts.finish(&args);
}
