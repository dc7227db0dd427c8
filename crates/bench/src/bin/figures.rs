//! Regenerates every table and figure of the SOPHON paper at full
//! evaluation scale (40 960 samples per corpus).
//!
//! ```sh
//! cargo run --release -p bench --bin figures            # everything
//! cargo run --release -p bench --bin figures fig3       # one artifact
//! cargo run --release -p bench --bin figures fig4 8192  # custom scale
//! ```

use bench::{
    ablations, cache_effectiveness, cached_fleet_table, discussion_bandwidth_sweep,
    discussion_gpus, extensions, figure_1a, figure_1b, figure_1c, figure_1d, figure_3, figure_4,
    fleet_scaling_table, table1, training_amortization, PAPER_SAMPLES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let len: u64 = args
        .get(1)
        .map(|s| s.parse().expect("scale must be a sample count"))
        .unwrap_or(PAPER_SAMPLES);

    let run = |name: &str, body: &dyn Fn() -> String| {
        if which == "all" || which == name {
            println!("{}", body());
            println!("{}", "-".repeat(72));
        }
    };

    run("table1", &table1);
    run("fig1a", &figure_1a);
    run("fig1b", &|| figure_1b(len));
    run("fig1c", &|| figure_1c(len));
    run("fig1d", &|| figure_1d(len));
    run("fig3", &|| figure_3(len));
    run("fig4", &|| figure_4(len));
    run("bandwidth", &|| discussion_bandwidth_sweep(len));
    run("gpus", &|| discussion_gpus(len));
    run("amortization", &|| training_amortization(len, 50));
    run("cache", &|| cache_effectiveness(len, 50));
    run("fleet", &|| fleet_scaling_table(len));
    run("cached-fleet", &|| cached_fleet_table(len));
    run("ablations", &|| ablations(len));
    run("extensions", &|| extensions(len));

    let known = [
        "all",
        "table1",
        "fig1a",
        "fig1b",
        "fig1c",
        "fig1d",
        "fig3",
        "fig4",
        "bandwidth",
        "gpus",
        "amortization",
        "cache",
        "fleet",
        "cached-fleet",
        "ablations",
        "extensions",
    ];
    if !known.contains(&which) {
        eprintln!("unknown artifact '{which}'; use one of: {}", known.join(" "));
        std::process::exit(2);
    }
}
