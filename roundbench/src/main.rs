//! One command per workload and seed:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path roundbench/Cargo.toml -- \
//!     --workload leaf|query|root --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the per-layer replay and prints the per-layer table.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when
//! any correctness check fails.

mod client;
mod dump_server;
mod gen;
mod measure;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use client::Class;
use measure::{median, peak_rss_mb};
use trace::{per_round_medians, CountingAlloc, SpanLog};
use workloads::{RoundStats, System, Tally, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Times set-up is repeated per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fixed work per measured second: poll rounds (`leaf`, `root`) or
/// requests (`query`). Work never depends on elapsed time.
const LEAF_ROUNDS_PER_SEC: u64 = 13;
const ROOT_ROUNDS_PER_SEC: u64 = 11;
const QUERY_REQUESTS_PER_SEC: u64 = 400;
/// The `query` workload polls inline once per this many requests: 120
/// rounds in a 30 s run, so `round_ms_p90` has 12 samples beyond it.
const REQUESTS_PER_POLL: u64 = 100;
/// Traced runs fail when the round time the layer spans leave
/// unexplained exceeds this share of the traced round's CPU time.
const UNATTRIBUTED_GATE: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Metric name → (value, unit), printed in insertion-independent order.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roundbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    let run_dir = work.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &run_dir, &work);
    let _ = std::fs::remove_dir_all(&run_dir);
    let (metrics, tally) = outcome;
    let correct = tally.problems.is_empty() && tally.failed == 0;
    for problem in &tally.problems {
        println!("CHECK FAILED: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run(args: &Args, run_dir: &Path, work: &Path) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let dir = run_dir.join("setup0");
    let setup = System::setup(args.workload, args.seed, &dir, args.trace, &mut tally);
    let mut setups = vec![setup.elapsed.as_secs_f64()];
    let mut system = setup.system;
    system.viewer.stats = Default::default();
    let log = args.trace.then(SpanLog::new);
    let before = system.daemon.telemetry_snapshot();
    let mut rounds = RoundStats::default();
    match args.workload {
        Workload::Leaf | Workload::Root => {
            let per_sec = if args.workload == Workload::Leaf {
                LEAF_ROUNDS_PER_SEC
            } else {
                ROOT_ROUNDS_PER_SEC
            };
            for _ in 0..per_sec * args.seconds {
                system.poll_round(&mut rounds, log.as_ref(), &mut tally);
                let round = system.current_round();
                for request in system.dashboard() {
                    system
                        .viewer
                        .issue(&system.daemon, &request, log.as_ref().map(|l| (l, round)));
                }
            }
        }
        Workload::Query => {
            for i in 0..QUERY_REQUESTS_PER_SEC * args.seconds {
                if i > 0 && i % REQUESTS_PER_POLL == 0 {
                    system.poll_round(&mut rounds, log.as_ref(), &mut tally);
                }
                let request = system.next_query();
                let round = system.current_round();
                system
                    .viewer
                    .issue(&system.daemon, &request, log.as_ref().map(|l| (l, round)));
            }
        }
    }
    let after = system.daemon.telemetry_snapshot();
    // The peak so far covers one set-up and the measured phase: the
    // extra set-ups below run after this reading.
    let rss_mb_peak = peak_rss_mb();
    if let (Some(log), Some(replay)) = (&log, &system.replay) {
        replay.final_checkpoint(log, system.current_round() * workloads::ROUND_SECS);
    }
    system.final_checks(&mut tally);
    let viewer = &system.viewer.stats;
    tally.attempted += viewer.completed + viewer.failed + viewer.checked;
    tally.failed += viewer.failed + viewer.mismatches;
    if viewer.mismatches > 0 {
        tally.problem(format!(
            "{} of {} sampled responses differ from a fresh render",
            viewer.mismatches, viewer.checked
        ));
    }
    if viewer.failed > 0 {
        tally.problem(format!(
            "{} requests failed, were shed or rate-limited",
            viewer.failed
        ));
    }
    let mut metrics = Metrics::new();
    print_summary(args, &rounds, &system);
    if let Some(log) = &log {
        let trace_dir = work.join("trace");
        let _ = std::fs::create_dir_all(&trace_dir);
        let path = trace_dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
        if let Err(e) = log.write_tsv(&path) {
            tally.problem(format!("could not write spans to {}: {e}", path.display()));
        } else {
            println!("spans written to {}", path.display());
        }
        per_layer(
            &mut metrics,
            log,
            &rounds,
            &system,
            &before,
            &after,
            &mut tally,
        );
    } else {
        end_to_end(&mut metrics, rss_mb_peak, &rounds, &system);
        drop(system);
        let _ = std::fs::remove_dir_all(&dir);
        // More set-ups, each from scratch, so `setup_s` is a median.
        for i in 1..SETUPS {
            let dir = run_dir.join(format!("setup{i}"));
            let setup = System::setup(args.workload, args.seed, &dir, false, &mut tally);
            setups.push(setup.elapsed.as_secs_f64());
            drop(setup.system);
            let _ = std::fs::remove_dir_all(&dir);
        }
        println!(
            "set-ups (s): {}",
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        metrics.insert("setup_s".to_string(), (median(&setups), "s"));
    }
    (metrics, tally)
}

fn end_to_end(metrics: &mut Metrics, rss_mb_peak: f64, rounds: &RoundStats, system: &System) {
    let viewer = &system.viewer.stats;
    let n = rounds.rounds.max(1) as f64;
    let views: Vec<f64> = [Class::Meta, Class::Cluster, Class::Host]
        .iter()
        .flat_map(|c| viewer.by_class[*c as usize].values().iter().copied())
        .collect();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), (value, unit));
    };
    put("round_ms_p50", rounds.wall.p50(), "ms");
    put("round_ms_p90", rounds.wall.quantile(0.90), "ms");
    put("cpu_ms_per_round", rounds.cpu.as_secs_f64() * 1e3 / n, "ms");
    put(
        "wire_bytes_per_round",
        rounds.wire_bytes as f64 / n,
        "bytes",
    );
    put(
        "push_bytes_per_round",
        rounds.push_bytes as f64 / n,
        "bytes",
    );
    put("rss_mb_peak", rss_mb_peak, "MB");
    put("view_ms_p50", median(&views), "ms");
    put(
        "dump_ms_p50",
        viewer.by_class[Class::Dump as usize].p50(),
        "ms",
    );
    put(
        "gql_ms_p50",
        viewer.by_class[Class::Gql as usize].p50(),
        "ms",
    );
    put("query_ms_p50", viewer.all.p50(), "ms");
    put("query_ms_p99", viewer.all.quantile(0.99), "ms");
    put(
        "queries_per_s",
        viewer.completed as f64 / (viewer.all.sum_ms() / 1e3).max(1e-9),
        "1/s",
    );
}

/// Each per-layer metric and the end-to-end metric (and workload) it
/// should move, written down before measuring.
const LAYER_TARGETS: [(&str, &str); 25] = [
    (
        "net.fetch_ms",
        "round_ms_p50, wire_bytes_per_round on root (ungated)",
    ),
    ("ingest.parse_ms", "cpu_ms_per_round on leaf"),
    ("ingest.allocs", "cpu_ms_per_round, rss_mb_peak on leaf"),
    ("ingest.reuse_ratio", "round_ms_p50 on query (10% churn)"),
    ("store.replace_us", "round_ms_p50 on leaf"),
    ("store.root_summary_us", "gql_ms_p50 on query"),
    (
        "archive.update_ms",
        "cpu_ms_per_round, round_ms_p50 on leaf",
    ),
    ("archive.commit_ms", "round_ms_p50, round_ms_p90 on leaf"),
    (
        "archive.checkpoint_ms",
        "none: checkpoints stay out of timed rounds",
    ),
    ("subs.eval_ms", "round_ms_p50 on leaf"),
    (
        "subs.encode_us",
        "round_ms_p50, push_bytes_per_round on leaf",
    ),
    ("query.render_view_ms", "view_ms_p50 on leaf and query"),
    ("query.render_gql_ms", "gql_ms_p50 on query"),
    (
        "query.render_dump_ms",
        "dump_ms_p50 on leaf (a miss every round)",
    ),
    ("serve.hit_ratio", "view_ms_p50, queries_per_s on query"),
    ("serve.overhead_us", "view_ms_p50, queries_per_s on query"),
    ("web.parse_ms", "view_ms_p50 on query"),
    (
        "round.traced_cpu_ms",
        "cpu_ms_per_round (the traced round itself)",
    ),
    (
        "round.unattributed_ms",
        "round_ms_p50 on leaf (self-publish, lock waits)",
    ),
    (
        "tracing.overhead_pct",
        "none: cost of the traced run's wrapper",
    ),
    ("telemetry.cpu_fetch_ms", "cross-check of net.fetch_ms"),
    ("telemetry.cpu_parse_ms", "cross-check of ingest.parse_ms"),
    (
        "telemetry.cpu_summarize_ms",
        "cross-check of ingest.parse_ms",
    ),
    (
        "telemetry.cpu_archive_ms",
        "cross-check of archive.update_ms",
    ),
    (
        "telemetry.cpu_query_ms",
        "cross-check of subs.eval_ms + renders",
    ),
];

/// Span names that make up a round's layers (replayed or wrapped).
const ROUND_LAYERS: [&str; 7] = [
    "net.fetch",
    "ingest.parse",
    "store.replace",
    "archive.update",
    "archive.commit",
    "subs.eval",
    "subs.encode",
];

fn per_layer(
    metrics: &mut Metrics,
    log: &SpanLog,
    rounds: &RoundStats,
    system: &System,
    before: &ganglia_core::telemetry::Snapshot,
    after: &ganglia_core::telemetry::Snapshot,
    tally: &mut Tally,
) {
    let spans = log.spans();
    let layers = per_round_medians(&spans);
    let layer = |name: &str| layers.get(name).map(|(ms, _)| *ms).unwrap_or(0.0);
    // Unattributed: each traced round's CPU time minus the layer spans
    // of that round (fetch wrapped in the round, the rest replayed).
    let mut unattributed = Vec::new();
    let mut traced_cpu = Vec::new();
    for &(round, cpu_ms) in &rounds.traced_rounds {
        let covered: f64 = spans
            .iter()
            .filter(|s| s.round == round && ROUND_LAYERS.contains(&s.name))
            .map(|s| s.ms())
            .sum();
        unattributed.push(cpu_ms - covered);
        traced_cpu.push(cpu_ms);
    }
    let unattributed_ms = median(&unattributed);
    let round_cpu = median(&traced_cpu);
    let share = unattributed_ms.abs() / round_cpu.max(1e-9);
    if share > UNATTRIBUTED_GATE {
        tally.problem(format!(
            "unattributed round time {unattributed_ms:.3} ms is {:.1}% of the traced round \
             ({round_cpu:.3} ms CPU), over the {:.0}% gate",
            share * 100.0,
            UNATTRIBUTED_GATE * 100.0
        ));
    }
    let viewer = &system.viewer.stats;
    let reuse_total = rounds.hosts_reused + rounds.hosts_rebuilt;
    let cpu_delta = |name: &str| {
        let d = after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        d as f64 / 1e6 / rounds.rounds.max(1) as f64
    };
    let views: Vec<f64> = [Class::Meta, Class::Cluster, Class::Host]
        .iter()
        .flat_map(|c| viewer.render[*c as usize].values().iter().copied())
        .collect();
    let overhead_pct =
        (rounds.traced_wall.p50() / rounds.untraced_wall.p50().max(1e-9) - 1.0) * 100.0;
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), (value, unit));
    };
    put("net.fetch_ms", layer("net.fetch"), "ms");
    put("ingest.parse_ms", layer("ingest.parse"), "ms");
    put("ingest.allocs", rounds.allocs.p50(), "count");
    put(
        "ingest.reuse_ratio",
        rounds.hosts_reused as f64 / reuse_total.max(1) as f64,
        "ratio",
    );
    put("store.replace_us", layer("store.replace") * 1e3, "us");
    put(
        "store.root_summary_us",
        layer("store.root_summary") * 1e3,
        "us",
    );
    put("archive.update_ms", layer("archive.update"), "ms");
    put("archive.commit_ms", layer("archive.commit"), "ms");
    put("archive.checkpoint_ms", layer("archive.checkpoint"), "ms");
    put("subs.eval_ms", layer("subs.eval"), "ms");
    put("subs.encode_us", layer("subs.encode") * 1e3, "us");
    put("query.render_view_ms", median(&views), "ms");
    put(
        "query.render_gql_ms",
        viewer.render[Class::Gql as usize].p50(),
        "ms",
    );
    put(
        "query.render_dump_ms",
        viewer.render[Class::Dump as usize].p50(),
        "ms",
    );
    put("serve.hit_ratio", system.viewer.hit_ratio(), "ratio");
    put(
        "serve.overhead_us",
        (viewer.hit_rtt.p50() - viewer.hit_handler.p50()) * 1e3,
        "us",
    );
    put("web.parse_ms", viewer.parse.p50(), "ms");
    put("round.traced_cpu_ms", round_cpu, "ms");
    put("round.unattributed_ms", unattributed_ms, "ms");
    put("tracing.overhead_pct", overhead_pct, "%");
    for (name, counter) in [
        ("telemetry.cpu_fetch_ms", "cpu.fetch_ns"),
        ("telemetry.cpu_parse_ms", "cpu.parse_ns"),
        ("telemetry.cpu_summarize_ms", "cpu.summarize_ns"),
        ("telemetry.cpu_archive_ms", "cpu.archive_ns"),
        ("telemetry.cpu_query_ms", "cpu.query_ns"),
    ] {
        put(name, cpu_delta(counter), "ms");
    }
    println!();
    println!(
        "per-layer table ({} traced of {} rounds; per-round medians)",
        rounds.traced_rounds.len(),
        rounds.rounds
    );
    println!("{:<26} {:>14} {:<6} should move", "metric", "value", "unit");
    for (name, (value, unit)) in metrics.iter() {
        let moves = LAYER_TARGETS
            .iter()
            .find(|(metric, _)| metric == name)
            .map(|(_, moves)| *moves)
            .unwrap_or("");
        println!("{name:<26} {value:>14.4} {unit:<6} {moves}");
    }
    println!(
        "unattributed share {:.1}% of the traced round (gate {:.0}%)",
        share * 100.0,
        UNATTRIBUTED_GATE * 100.0
    );
    println!();
    println!("spans by name (ms summed per round; median over rounds, rounds seen)");
    for (name, (ms, n)) in &layers {
        println!("{name:<26} {ms:>14.4} {n:>8}");
    }
    println!();
    println!("telemetry cross-check (daemon's own exports, per round)");
    for prefix in [
        "cpu.", "archive.", "ingest.", "store.", "summary.", "sub.", "serve.",
    ] {
        for (name, value) in &after.counters {
            if name.starts_with(prefix) {
                let delta = value - before.counter(name).unwrap_or(0);
                println!(
                    "{name:<40} {:>14.1}",
                    delta as f64 / rounds.rounds.max(1) as f64
                );
            }
        }
    }
}

fn print_summary(args: &Args, rounds: &RoundStats, system: &System) {
    let viewer = &system.viewer.stats;
    println!(
        "workload {} seed {} seconds {} trace {}  (nproc {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    );
    println!(
        "rounds {}  wire bytes {}  push bytes {} in {} frames",
        rounds.rounds, rounds.wire_bytes, rounds.push_bytes, rounds.push_frames
    );
    let quantiles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0]
        .iter()
        .map(|q| format!("{:.2}", rounds.wall.quantile(*q)))
        .collect();
    println!(
        "round ms at p10 p25 p50 p75 p90 p95 max: {}",
        quantiles.join(" ")
    );
    println!(
        "requests {} completed, {} failed, {} checked against fresh renders ({} mismatched), {} response bytes",
        viewer.completed, viewer.failed, viewer.checked, viewer.mismatches, viewer.response_bytes
    );
    for class in Class::ALL {
        let s = &viewer.by_class[class as usize];
        if !s.is_empty() {
            println!(
                "  {:<8} n={:<7} p50 {:>9.4} ms  p99 {:>9.4} ms",
                class.name(),
                s.len(),
                s.p50(),
                s.quantile(0.99)
            );
        }
    }
}
