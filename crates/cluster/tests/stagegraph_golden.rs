//! Golden regression grid for the stage-graph unification.
//!
//! The constants below were captured from the pre-refactor simulators
//! (`run_sim` in `sim.rs` and the hand-rolled loop in `fleet.rs`) before
//! both were reimplemented on `cluster::stagegraph`. Every `f64` is pinned
//! by its IEEE-754 bit pattern, so the test proves the unified core
//! reproduces the original per-sample stage loops **bit-for-bit** across
//! the grid: single-node, cached warm/cold, and fleet configurations with
//! kills and stragglers.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```sh
//! cargo test -p cluster --test stagegraph_golden -- --ignored --nocapture
//! ```

use cluster::{
    simulate_epoch, simulate_epoch_traced, simulate_fleet_epoch, simulate_training, ClusterConfig,
    EpochSpec, FleetEpochStats, FleetNodeConfig, GpuModel, KillEvent, OwnerTable, SampleWork,
    TrainingSpec,
};

/// SplitMix64 — deterministic, dependency-free stream for the grid specs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A mixed corpus: some samples offload a prefix, some ship raw, sizes and
/// CPU demands jittered deterministically.
fn mixed_spec(seed: u64, n: usize, batch: usize, gpu: GpuModel) -> EpochSpec {
    let mut rng = Rng(seed);
    let samples = (0..n)
        .map(|_| {
            let offloaded = rng.f64() < 0.6;
            let storage = if offloaded { 0.002 + 0.02 * rng.f64() } else { 0.0 };
            let bytes = rng.range(10_000, 400_000);
            let compute = if rng.f64() < 0.9 { 0.001 + 0.008 * rng.f64() } else { 0.0 };
            SampleWork::new(storage, bytes, compute)
        })
        .collect();
    EpochSpec::new(samples, batch, gpu)
}

/// A warm-cache residual of `cold`: a deterministic ~`hit_pct`% of samples
/// become cache hits (zero storage work, zero transfer, suffix compute
/// only).
fn warm_spec(cold: &EpochSpec, seed: u64, hit_pct: u64) -> EpochSpec {
    let mut rng = Rng(seed);
    let samples = cold
        .samples
        .iter()
        .map(|w| {
            if rng.next() % 100 < hit_pct {
                SampleWork::new(0.0, 0, w.compute_cpu_seconds)
            } else {
                *w
            }
        })
        .collect();
    EpochSpec::new(samples, cold.batch_size, cold.gpu)
}

/// Round-robin replica sets: sample `i` is owned by nodes
/// `i, i+1, .. (mod nodes)`, `replication` deep.
fn owners(samples: usize, nodes: usize, replication: usize) -> OwnerTable {
    let rows = (0..samples).flat_map(|i| (0..replication).map(move |r| (i + r) % nodes));
    OwnerTable::new(replication, rows.collect())
}

fn fmt_f64(out: &mut String, label: &str, v: f64) {
    out.push_str(&format!("{label}={:016x}\n", v.to_bits()));
}

fn fmt_epoch(out: &mut String, tag: &str, s: &cluster::EpochStats) {
    fmt_f64(out, &format!("{tag}.epoch_seconds"), s.epoch_seconds);
    out.push_str(&format!("{tag}.traffic_bytes={}\n", s.traffic_bytes));
    fmt_f64(out, &format!("{tag}.gpu_busy"), s.gpu_busy_seconds);
    fmt_f64(out, &format!("{tag}.storage_cpu_busy"), s.storage_cpu_busy_seconds);
    fmt_f64(out, &format!("{tag}.compute_cpu_busy"), s.compute_cpu_busy_seconds);
    fmt_f64(out, &format!("{tag}.link_busy"), s.link_busy_seconds);
    out.push_str(&format!("{tag}.counts={}/{}/{}\n", s.samples, s.batches, s.gpus));
}

fn fmt_fleet(out: &mut String, tag: &str, s: &FleetEpochStats) {
    fmt_epoch(out, &format!("{tag}.total"), &s.total);
    out.push_str(&format!("{tag}.failovers={}\n", s.failovers));
    for (i, n) in s.per_node.iter().enumerate() {
        out.push_str(&format!(
            "{tag}.node{i}.served={} bytes={}\n",
            n.samples_served, n.traffic_bytes
        ));
        fmt_f64(out, &format!("{tag}.node{i}.cpu_busy"), n.storage_cpu_busy_seconds);
        fmt_f64(out, &format!("{tag}.node{i}.link_busy"), n.link_busy_seconds);
    }
}

/// FNV-1a over the full per-sample timeline, pinning the traced entry point
/// bit-for-bit without printing thousands of lines.
fn trace_digest(trace: &cluster::trace::EpochTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for s in trace.samples() {
        mix(s.sample);
        mix(s.batch);
        mix(s.gate.to_bits());
        mix(s.read_done.to_bits());
        mix(s.offload_done.to_bits());
        mix(s.transfer_done.to_bits());
        mix(s.local_done.to_bits());
        mix(s.batch_done.to_bits());
    }
    h
}

/// Runs the whole grid and renders every statistic with exact bit patterns.
fn render_grid() -> String {
    let mut out = String::new();

    // --- Single-node grid -------------------------------------------------
    let testbed = ClusterConfig::paper_testbed(48);
    let spec_a = mixed_spec(1, 2048, 256, GpuModel::AlexNet);
    fmt_epoch(&mut out, "single.testbed", &simulate_epoch(&testbed, &spec_a).unwrap());

    let tight = ClusterConfig::paper_testbed(1).with_compute_cores(4).with_gpus(2);
    let spec_b = mixed_spec(2, 999, 64, GpuModel::ResNet18);
    fmt_epoch(&mut out, "single.tight", &simulate_epoch(&tight, &spec_b).unwrap());

    // No storage work at all (the phantom-pool edge case: 0 storage cores).
    let no_storage = ClusterConfig::paper_testbed(0);
    let spec_c = EpochSpec::new(
        mixed_spec(3, 512, 128, GpuModel::ResNet50)
            .samples
            .into_iter()
            .map(|w| SampleWork::new(0.0, w.transfer_bytes, w.compute_cpu_seconds))
            .collect(),
        128,
        GpuModel::ResNet50,
    );
    fmt_epoch(&mut out, "single.nostorage", &simulate_epoch(&no_storage, &spec_c).unwrap());

    // No compute suffix anywhere (0 compute cores, fully offloaded work).
    let no_compute = ClusterConfig::paper_testbed(8).with_compute_cores(0);
    let spec_d = EpochSpec::new(
        mixed_spec(4, 512, 128, GpuModel::AlexNet)
            .samples
            .into_iter()
            .map(|w| SampleWork::new(w.storage_cpu_seconds, w.transfer_bytes, 0.0))
            .collect(),
        128,
        GpuModel::AlexNet,
    );
    fmt_epoch(&mut out, "single.nocompute", &simulate_epoch(&no_compute, &spec_d).unwrap());

    // Traced run: the timeline must survive the refactor bit-for-bit too.
    let traced = simulate_epoch_traced(&testbed, &spec_a).unwrap();
    out.push_str(&format!("single.trace.digest={:016x}\n", trace_digest(&traced)));
    fmt_epoch(&mut out, "single.trace", traced.stats());

    // --- Training & cached cold/warm --------------------------------------
    // The pre-refactor grid paired a 2048-sample first epoch with a
    // 999-sample steady one, now a `WorksMismatch`: the two epochs are
    // simulated on their own and their 7-epoch totals re-derived here. The
    // cached and fleet blocks pin the training simulator's own arithmetic.
    let first = simulate_epoch(&testbed, &spec_a).unwrap();
    let steady = simulate_epoch(&testbed, &spec_b).unwrap();
    fmt_f64(&mut out, "training.total_seconds", first.epoch_seconds + steady.epoch_seconds * 6.0);
    out.push_str(&format!(
        "training.total_traffic={}\n",
        first.traffic_bytes + steady.traffic_bytes * 6
    ));
    fmt_epoch(&mut out, "training.first", &first);
    fmt_epoch(&mut out, "training.steady", &steady);

    let warm = warm_spec(&spec_a, 5, 70);
    let two_node = TrainingSpec {
        nodes: &[FleetNodeConfig::nominal(&testbed)],
        first: &spec_a,
        steady: &warm,
        owners: None,
        kills: &[],
        epochs: 12,
    };
    let cached = simulate_training(&testbed, &two_node).unwrap();
    fmt_f64(&mut out, "cached.total_seconds", cached.total_seconds);
    out.push_str(&format!("cached.total_traffic={}\n", cached.total_traffic_bytes));
    fmt_epoch(&mut out, "cached.cold", &cached.cold().total);
    fmt_epoch(&mut out, "cached.warm", &cached.warm().total);

    // --- Fleet grid: kills and stragglers ---------------------------------
    let base = ClusterConfig::paper_testbed(8);
    let mut nodes: Vec<FleetNodeConfig> = vec![FleetNodeConfig::nominal(&base); 4];
    nodes[2] = nodes[2].with_speed(0.5); // one straggler at half speed
    nodes[3].storage_cores = 2; // one under-provisioned node
    let spec_f = mixed_spec(6, 1536, 256, GpuModel::AlexNet);
    let own = owners(1536, 4, 2);
    let kills = [KillEvent::new(1, 0.4)];

    let fleet = simulate_fleet_epoch(&base, &nodes, &spec_f, &own, &kills).unwrap();
    fmt_fleet(&mut out, "fleet.killed", &fleet);

    let healthy = simulate_fleet_epoch(&base, &nodes, &spec_f, &own, &[]).unwrap();
    fmt_fleet(&mut out, "fleet.healthy", &healthy);

    // Single-node fleet must agree with the plain simulator's numbers.
    let one = simulate_fleet_epoch(
        &testbed,
        &[FleetNodeConfig::nominal(&testbed)],
        &spec_a,
        &owners(2048, 1, 1),
        &[],
    )
    .unwrap();
    fmt_fleet(&mut out, "fleet.one", &one);

    let training = simulate_training(
        &base,
        &TrainingSpec {
            nodes: &nodes,
            first: &spec_f,
            steady: &spec_f,
            owners: Some(&own),
            kills: &kills,
            epochs: 5,
        },
    )
    .unwrap();
    fmt_f64(&mut out, "fleet.training.total_seconds", training.total_seconds);
    out.push_str(&format!("fleet.training.total_traffic={}\n", training.total_traffic_bytes));
    fmt_fleet(&mut out, "fleet.training.first", &training.first_epoch);
    fmt_fleet(&mut out, "fleet.training.steady", &training.steady_epoch);

    out
}

#[test]
fn unified_core_reproduces_pre_refactor_stats_bit_for_bit() {
    let rendered = render_grid();
    let golden = GOLDEN.trim();
    if rendered.trim() != golden {
        // Diff line-by-line so a mismatch names the drifting statistic
        // instead of dumping two 150-line blobs.
        for (got, want) in rendered.trim().lines().zip(golden.lines()) {
            assert_eq!(got, want, "stage-graph output diverged from the pre-refactor golden");
        }
        assert_eq!(
            rendered.trim().lines().count(),
            golden.lines().count(),
            "golden and rendered grids differ in length"
        );
    }
}

/// Prints the grid for (re)capturing the golden block.
#[test]
#[ignore]
fn print_goldens() {
    println!("===GOLDEN START===\n{}===GOLDEN END===", render_grid());
}

const GOLDEN: &str = r#"
single.testbed.epoch_seconds=401ca5bb8899af71
single.testbed.traffic_bytes=416806339
single.testbed.gpu_busy=3fe0624dd2f1a9fc
single.testbed.storage_cpu_busy=402d1da005f80b37
single.testbed.compute_cpu_busy=40222bea9cf87342
single.testbed.link_busy=401c5062ad6313fb
single.testbed.counts=2048/8/1
single.tight.epoch_seconds=401bb7d195212ee9
single.tight.traffic_bytes=202254348
single.tight.gpu_busy=3feff7ced916872f
single.tight.storage_cpu_busy=401b7bb5bd1ea949
single.tight.compute_cpu_busy=40121ae913476cc1
single.tight.link_busy=400b7ca92f1f0d9c
single.tight.counts=999/16/2
single.nostorage.epoch_seconds=4000f217338c63d6
single.nostorage.traffic_bytes=105747921
single.nostorage.gpu_busy=3ff47ae147ae147b
single.nostorage.storage_cpu_busy=0000000000000000
single.nostorage.compute_cpu_busy=40022086da01e589
single.nostorage.link_busy=3ffcb5b9e5026779
single.nostorage.counts=512/4/1
single.nocompute.epoch_seconds=3ffe7d8e3dabc122
single.nocompute.traffic_bytes=109461148
single.nocompute.gpu_busy=3fc0624dd2f1a9fc
single.nocompute.storage_cpu_busy=400a451655b124fa
single.nocompute.compute_cpu_busy=0000000000000000
single.nocompute.link_busy=3ffda913818979de
single.nocompute.counts=512/4/1
single.trace.digest=228b567d627a79c5
single.trace.epoch_seconds=401ca5bb8899af71
single.trace.traffic_bytes=416806339
single.trace.gpu_busy=3fe0624dd2f1a9fc
single.trace.storage_cpu_busy=402d1da005f80b37
single.trace.compute_cpu_busy=40222bea9cf87342
single.trace.link_busy=401c5062ad6313fb
single.trace.counts=2048/8/1
training.total_seconds=403c206acc1481a2
training.total_traffic=1630332427
training.first.epoch_seconds=401ca5bb8899af71
training.first.traffic_bytes=416806339
training.first.gpu_busy=3fe0624dd2f1a9fc
training.first.storage_cpu_busy=402d1da005f80b37
training.first.compute_cpu_busy=40222bea9cf87342
training.first.link_busy=401c5062ad6313fb
training.first.counts=2048/8/1
training.steady.epoch_seconds=400bf3fa8d3d725d
training.steady.traffic_bytes=202254348
training.steady.gpu_busy=3feff7ced916872f
training.steady.storage_cpu_busy=401b7bb5bd1ea949
training.steady.compute_cpu_busy=40121ae913476cc1
training.steady.link_busy=400b7ca92f1f0d9c
training.steady.counts=999/16/1
cached.total_seconds=40418f2f5f7a0965
cached.total_traffic=1829071952
cached.cold.epoch_seconds=401ca5bb8899af71
cached.cold.traffic_bytes=416806339
cached.cold.gpu_busy=3fe0624dd2f1a9fc
cached.cold.storage_cpu_busy=402d1da005f80b37
cached.cold.compute_cpu_busy=40222bea9cf87342
cached.cold.link_busy=401c5062ad6313fb
cached.cold.counts=2048/8/1
cached.warm.epoch_seconds=4004550b894fbf39
cached.warm.traffic_bytes=128387783
cached.warm.gpu_busy=3fe0624dd2f1a9fc
cached.warm.storage_cpu_busy=40115688ae0370a2
cached.warm.compute_cpu_busy=40222bea9cf87342
cached.warm.link_busy=4003b5df25fbf908
cached.warm.counts=2048/8/1
fleet.killed.total.epoch_seconds=4001e42a54f93841
fleet.killed.total.traffic_bytes=318261322
fleet.killed.total.gpu_busy=3fd89374bc6a7efa
fleet.killed.total.storage_cpu_busy=402da28d34f0c7aa
fleet.killed.total.compute_cpu_busy=401b04732ff28317
fleet.killed.total.link_busy=401598f75f69ea4b
fleet.killed.total.counts=1536/6/1
fleet.killed.failovers=230
fleet.killed.node0.served=384 bytes=78421380
fleet.killed.node0.cpu_busy=4005aa7da2d64466
fleet.killed.node0.link_busy=3ff54dff116d90a0
fleet.killed.node1.served=154 bytes=33219962
fleet.killed.node1.cpu_busy=3ff162e6e0460bfc
fleet.killed.node1.link_busy=3fe1fe853cd17dc9
fleet.killed.node2.served=614 bytes=125787312
fleet.killed.node2.cpu_busy=4020faba48e1c51c
fleet.killed.node2.link_busy=4001154b04a4ef29
fleet.killed.node3.served=384 bytes=80832668
fleet.killed.node3.cpu_busy=4004435a9d42bfd4
fleet.killed.node3.link_busy=3ff5ec05c4877b54
fleet.healthy.total.epoch_seconds=3ff7d1fc6a47033a
fleet.healthy.total.traffic_bytes=318261322
fleet.healthy.total.gpu_busy=3fd89374bc6a7efa
fleet.healthy.total.storage_cpu_busy=402a4faed260242b
fleet.healthy.total.compute_cpu_busy=401b04732ff28317
fleet.healthy.total.link_busy=401598f75f69ea48
fleet.healthy.total.counts=1536/6/1
fleet.healthy.failovers=0
fleet.healthy.node0.served=384 bytes=78421380
fleet.healthy.node0.cpu_busy=4005aa7da2d64466
fleet.healthy.node0.link_busy=3ff54dff116d90a0
fleet.healthy.node1.served=384 bytes=82587243
fleet.healthy.node1.cpu_busy=4005fcecfa6593f9
fleet.healthy.node1.link_busy=3ff65f02a6c5c96d
fleet.healthy.node2.served=384 bytes=76420031
fleet.healthy.node2.cpu_busy=4014a9fb0780fc3d
fleet.healthy.node2.link_busy=3ff4cad600ecd3c0
fleet.healthy.node3.served=384 bytes=80832668
fleet.healthy.node3.cpu_busy=4004435a9d42bfd4
fleet.healthy.node3.link_busy=3ff5ec05c4877b54
fleet.one.total.epoch_seconds=401ca5bb8899af71
fleet.one.total.traffic_bytes=416806339
fleet.one.total.gpu_busy=3fe0624dd2f1a9fc
fleet.one.total.storage_cpu_busy=402d1da005f80b37
fleet.one.total.compute_cpu_busy=40222bea9cf87342
fleet.one.total.link_busy=401c5062ad6313fb
fleet.one.total.counts=2048/8/1
fleet.one.failovers=0
fleet.one.node0.served=2048 bytes=416806339
fleet.one.node0.cpu_busy=402d1da005f80b37
fleet.one.node0.link_busy=401c5062ad6313fb
fleet.training.total_seconds=402aec800670871a
fleet.training.total_traffic=1591306610
fleet.training.first.total.epoch_seconds=4001e42a54f93841
fleet.training.first.total.traffic_bytes=318261322
fleet.training.first.total.gpu_busy=3fd89374bc6a7efa
fleet.training.first.total.storage_cpu_busy=402da28d34f0c7aa
fleet.training.first.total.compute_cpu_busy=401b04732ff28317
fleet.training.first.total.link_busy=401598f75f69ea4b
fleet.training.first.total.counts=1536/6/1
fleet.training.first.failovers=230
fleet.training.first.node0.served=384 bytes=78421380
fleet.training.first.node0.cpu_busy=4005aa7da2d64466
fleet.training.first.node0.link_busy=3ff54dff116d90a0
fleet.training.first.node1.served=154 bytes=33219962
fleet.training.first.node1.cpu_busy=3ff162e6e0460bfc
fleet.training.first.node1.link_busy=3fe1fe853cd17dc9
fleet.training.first.node2.served=614 bytes=125787312
fleet.training.first.node2.cpu_busy=4020faba48e1c51c
fleet.training.first.node2.link_busy=4001154b04a4ef29
fleet.training.first.node3.served=384 bytes=80832668
fleet.training.first.node3.cpu_busy=4004435a9d42bfd4
fleet.training.first.node3.link_busy=3ff5ec05c4877b54
fleet.training.steady.total.epoch_seconds=400673757132390a
fleet.training.steady.total.traffic_bytes=318261322
fleet.training.steady.total.gpu_busy=3fd89374bc6a7efa
fleet.training.steady.total.storage_cpu_busy=402fceea10f98923
fleet.training.steady.total.compute_cpu_busy=401b04732ff28317
fleet.training.steady.total.link_busy=401598f75f69ea4b
fleet.training.steady.total.counts=1536/6/1
fleet.training.steady.failovers=384
fleet.training.steady.node0.served=384 bytes=78421380
fleet.training.steady.node0.cpu_busy=4005aa7da2d64466
fleet.training.steady.node0.link_busy=3ff54dff116d90a0
fleet.training.steady.node1.served=0 bytes=0
fleet.training.steady.node1.cpu_busy=0000000000000000
fleet.training.steady.node1.link_busy=0000000000000000
fleet.training.steady.node2.served=768 bytes=159007274
fleet.training.steady.node2.cpu_busy=4025537400f34814
fleet.training.steady.node2.link_busy=400594ec53d94e9b
fleet.training.steady.node3.served=384 bytes=80832668
fleet.training.steady.node3.cpu_busy=4004435a9d42bfd4
fleet.training.steady.node3.link_busy=3ff5ec05c4877b54
"#;
