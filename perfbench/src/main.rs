//! The inca-rs benchmark: one command, two workloads, every
//! end-to-end metric by name and unit, outputs checked by oracles.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest_small --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with exactly
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it records the host facts behind the numbers. See
//! `perfbench/README.md` for what each workload stresses.

mod ingest;
mod inputs;
mod layers;
mod net;
mod outcome;
mod spans;
mod stats;

use std::time::Instant;

use inca_server::CentralizedController;

use outcome::{Metrics, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 2] = ["ingest_small", "ingest_large_archived"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Tests that drive timed workloads hold this lock, so they never
/// share the host's cores with each other (a generator without a core
/// of its own falls behind its schedule and fails the run).
#[cfg(test)]
pub static TIMED_TEST: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Where traced runs write their spans: inside the build directory.
fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench")
}

/// Writes a traced run's spans as JSON lines.
pub fn write_spans(rec: &spans::Recorder, workload: &str, seed: u64) {
    let path = out_dir().join(format!("spans-{workload}-seed{seed}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => eprintln!("{} spans written to {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Per-layer facts read from a server's own instruments after a
/// workload: counters, gauges, and histogram sums and counts only
/// (never a bucketed quantile). `wall_s` is the ingest wall time the
/// depot's response seconds are a share of.
pub fn server_facts(controller: &CentralizedController, wall_s: f64, m: &mut Metrics) {
    let metrics = controller.obs().metrics();
    let counter = |name: &str| metrics.counter_value(name, &[]).unwrap_or(0) as f64;
    let gauge = |name: &str| metrics.gauge_value(name, &[]).unwrap_or(0.0);
    let hist = |name: &str, labels: &[(&str, &str)]| {
        metrics
            .histogram_of(name, labels)
            .map_or((0.0, 0.0), |h| (h.sum(), h.count() as f64))
    };
    m.set("dedup.duplicates", controller.duplicate_count() as f64);
    let frames = counter("inca_net_frames_total");
    m.set(
        "reactor.wakeups_per_report",
        if frames > 0.0 {
            counter("inca_net_readiness_wakeups_total") / frames
        } else {
            0.0
        },
    );
    let (batch_sum, batches) = hist("inca_depot_batch_size", &[]);
    m.set("reactor.frames_per_batch", batch_sum / batches.max(1.0));
    m.set(
        "reactor.backpressure_pauses",
        counter("inca_net_backpressure_pauses_total"),
    );
    let (arena, live) = (
        gauge("inca_depot_arena_bytes"),
        gauge("inca_depot_cache_bytes"),
    );
    m.set(
        "depot.garbage_ratio",
        if arena > 0.0 {
            (arena - live) / arena
        } else {
            0.0
        },
    );
    m.set("depot.compactions", counter("inca_depot_compactions_total"));
    m.set("depot.cache_bytes", live);
    let (response_s, busiest_median_s, reports, writes) = controller.with_depot(|d| {
        let stats = d.stats();
        let table4 = stats.table4();
        let response: f64 = table4.iter().map(|b| b.mean * b.count as f64).sum();
        let busiest = table4.iter().max_by_key(|b| b.count).map(|b| b.median);
        (
            response,
            busiest.unwrap_or(f64::NAN),
            stats.report_count() as f64,
            d.archive().write_count() as f64,
        )
    });
    m.set("depot.share", response_s / wall_s);
    // The depot's own median response (unpack + insert) in the Table 4
    // size bucket holding most reports, from its raw samples.
    m.set("depot.response_p50_ms", busiest_median_s * 1e3);
    m.set("archive.writes_per_report", writes / reports.max(1.0));
    let (_, hits) = hist("inca_depot_query_seconds", &[("result", "hit")]);
    let (_, misses) = hist("inca_depot_query_seconds", &[("result", "miss")]);
    m.set("query.memo_hit_ratio", hits / (hits + misses).max(1.0));
}

fn main() {
    let process_start = Instant::now();
    net::allowed_cpus();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let kind = if args.workload == "ingest_small" {
        ingest::Kind::Small
    } else {
        ingest::Kind::LargeArchived
    };
    let p = ingest::Params::of(kind);
    let (tally, mut m) = ingest::run(
        &p,
        args.seed,
        args.seconds,
        args.trace,
        false,
        process_start,
    );
    m.set("fail_ratio", tally.fail_ratio());
    eprintln!(
        "samples: {} acks (p99 {:.4} ms), {} queries",
        m.get("samples.ack"),
        m.get("ack_p99_ms"),
        m.get("samples.query")
    );
    for note in tally.notes() {
        eprintln!("oracle: {note}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match outcome::result_line(&tally, &m, names) {
        Ok(line) => {
            println!(
                "{}",
                outcome::host_facts(&args.workload, args.seed, p.rate, args.trace)
            );
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: invalid run: {e}");
            std::process::exit(1);
        }
    }
}
