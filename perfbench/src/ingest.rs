//! `ingest_small` and `ingest_large_archived`: reports over loopback TCP
//! into the production path (`serve_reactor`, binary envelope, rope
//! cache), offered open-loop at a fixed rate and then closed-loop at
//! saturation, with the final cache checked branch by branch.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inca_obs::Obs;
use inca_server::{
    CacheBackend, CentralizedController, ControllerConfig, Depot, QueryInterface, ReactorHandle,
};
use inca_wire::envelope::EnvelopeMode;

use crate::inputs::{self, Corpus, Stream};
use crate::layers::{self, ProbeConfig};
use crate::net;
use crate::outcome::{Metrics, Tally};
use crate::server_facts;
use crate::spans::Recorder;
use crate::stats::{median, quantile};

/// The two ingest workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Small,
    LargeArchived,
}

/// Fixed offered rates (reports/s), recorded in `BENCHMARK.json` and
/// never re-derived per run: about a third (small) and a fifth (large)
/// of each workload's median closed-loop saturation rate on a 2-core
/// host (26k and 4.9k reports/s). That host's speed drops by a third in
/// slow spells; at 45%, and on the large workload at 1,500 reports/s,
/// the open-loop p50 followed it into queueing.
pub const SMALL_RATE: f64 = 9_000.0;
pub const LARGE_RATE: f64 = 1_000.0;

/// Share of `--seconds` spent in measured rounds, and the length of a
/// round's open-loop and closed-loop phases.
const MEASURE_SHARE: f64 = 0.9;
const ROUND_OPEN_S: f64 = 1.0;
const ROUND_CLOSED_S: f64 = 0.75;

/// What the rounds of one run observed.
#[derive(Default)]
struct Rounds {
    /// Open-loop ack latencies, pooled: the tail is set by arena
    /// compactions, which a pooled p99 averages over many of.
    acks: Vec<f64>,
    lags: Vec<f64>,
    lock_waits: Vec<f64>,
    /// Per round: closed-loop rate, read-back p50/p99.
    sat: Vec<f64>,
    read_p50: Vec<f64>,
    read_p99: Vec<f64>,
    acked: u64,
    errors: u64,
}

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub struct Params {
    pub kind: Kind,
    pub branches: usize,
    pub daemons: usize,
    pub rate: f64,
    /// Frames in flight per connection in the closed loop.
    pub window: usize,
}

impl Params {
    pub fn of(kind: Kind) -> Params {
        match kind {
            Kind::Small => Params {
                kind,
                branches: 5_000,
                daemons: 50,
                rate: SMALL_RATE,
                window: 64,
            },
            Kind::LargeArchived => Params {
                kind,
                branches: 1_200,
                daemons: 40,
                rate: LARGE_RATE,
                window: 8,
            },
        }
    }

    fn corpus(&self, seed: u64) -> Corpus {
        match self.kind {
            Kind::Small => {
                let hosts: Vec<String> = (0..self.daemons)
                    .map(|d| format!("r{d}.perfbench.teragrid.org"))
                    .collect();
                Corpus::small(seed, self.branches, self.daemons, &hosts, "perfbench")
            }
            Kind::LargeArchived => Corpus::large(seed, self.branches, self.daemons),
        }
    }
}

/// A running production-path server and the corpus it will receive.
pub struct Rig {
    pub controller: Arc<CentralizedController>,
    pub reactor: ReactorHandle,
    pub addr: SocketAddr,
}

/// Starts `serve_reactor` on a binary-envelope, rope-backed controller
/// with its own metrics registry (plus the bandwidth archive rule).
pub fn start_server(archive_rule: bool) -> Rig {
    let controller = Arc::new(CentralizedController::new(
        ControllerConfig {
            envelope_mode: EnvelopeMode::Binary,
            ..ControllerConfig::default()
        },
        Depot::with_obs_backend(Obs::new(), CacheBackend::Rope),
    ));
    if archive_rule {
        controller.with_depot_mut(|d| {
            d.add_archive_rule(inca_consumer::bandwidth_archive_rule("teragrid"))
        });
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let reactor = controller.serve_reactor(listener).expect("start reactor");
    let addr = reactor.addr();
    Rig {
        controller,
        reactor,
        addr,
    }
}

/// Core slots: the server's reactor runs alone on the first, the load
/// generator on the second (both wrap to one core on a 1-core host).
pub const SERVER_CPU: usize = 0;
pub const GENERATOR_CPU: usize = 1;

/// Submits one report to every branch in process, in batches, so the
/// cache holds its full working set before anything is measured.
pub fn prefill(controller: &CentralizedController, corpus: &Corpus, stream: &mut Stream) {
    // Wall-clock seconds, as the reactor stamps its submissions: an
    // archive series started at another epoch would first have to
    // catch up on every step in between.
    let now = inca_report::Timestamp::from_secs(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    );
    let batch: Vec<(String, Vec<u8>)> = (0..corpus.branches.len())
        .map(|b| {
            let message = inputs::message(corpus, &stream.send_to(corpus, b));
            (message.resource.clone(), message.encode())
        })
        .collect();
    for chunk in batch.chunks(256) {
        controller.submit_batch(chunk, now);
    }
}

/// Samples `with_depot` lock wait (call to closure entry) every
/// millisecond until `done` is set.
pub fn probe_lock_wait(
    controller: &CentralizedController,
    done: &std::sync::atomic::AtomicBool,
) -> Vec<f64> {
    let mut waits = Vec::new();
    while !done.load(std::sync::atomic::Ordering::Relaxed) {
        let t0 = Instant::now();
        let entered = controller.with_depot(|_| Instant::now());
        waits.push(entered.duration_since(t0).as_secs_f64());
        std::thread::sleep(Duration::from_millis(1));
    }
    waits
}

/// Runs one ingest workload. `corrupt_oracle` swaps one expected report
/// (tests use it to prove the oracle runs).
pub fn run(
    p: &Params,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_oracle: bool,
    process_start: Instant,
) -> (Tally, Metrics) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    // Set-up, several times, keeping the last: inputs, the server (its
    // reactor on the first core), and a cache pre-filled with one
    // report per branch so the measured phases start in steady state.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(prepared.take());
        net::pin_to(SERVER_CPU);
        let corpus = p.corpus(seed);
        let rig = start_server(p.kind == Kind::LargeArchived);
        let mut stream = Stream::new(seed, &corpus);
        prefill(&rig.controller, &corpus, &mut stream);
        prepared = Some((rig, corpus, stream));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (rig, corpus, mut stream) = prepared.expect("set up");
    m.set("setup_s", median(&setups).expect("setups"));
    net::pin_to(GENERATOR_CPU);

    // Rounds until the time is up (at least three): open loop at the
    // fixed rate for a second, closed loop at saturation, then one pass
    // reading every branch back. Interleaving spreads every metric over
    // the whole run, so a slow spell of the host is shared by all of
    // them, and each figure is the median over rounds.
    let mut rounds = Rounds::default();
    let done = std::sync::atomic::AtomicBool::new(false);
    let phase_start = Instant::now();
    let corrupt = corrupt_oracle.then_some(0);
    while rounds.sat.len() < 3 || phase_start.elapsed().as_secs_f64() < seconds * MEASURE_SHARE {
        done.store(false, std::sync::atomic::Ordering::Relaxed);
        // The round's frames are encoded before its schedule starts and
        // freed after it ends, so neither encoding nor freeing a large
        // report makes the sender late.
        let count = (p.rate * ROUND_OPEN_S) as usize;
        let frames: Vec<Vec<u8>> = (0..count)
            .map(|_| inputs::frame(&corpus, &stream.next(&corpus)))
            .collect();
        let (open, waits) = std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                // The generator has the second core to itself.
                let r = net::open_loop(rig.addr, p.rate, count, |i| &frames[i]);
                done.store(true, std::sync::atomic::Ordering::Relaxed);
                r
            });
            let waits = if trace {
                // The prober must not share the spinning generator's
                // core: preempted while holding the read guard, it would
                // stall the reactor's writes for a whole time slice.
                net::pin_to(SERVER_CPU);
                let waits = probe_lock_wait(&rig.controller, &done);
                net::pin_to(GENERATOR_CPU);
                waits
            } else {
                Vec::new()
            };
            (client.join().expect("open-loop client"), waits)
        });
        let open = open.expect("open-loop connect");
        let closed = net::closed_loop(
            rig.addr,
            p.window,
            Duration::from_secs_f64(ROUND_CLOSED_S),
            || inputs::frame(&corpus, &stream.next(&corpus)),
        )
        .expect("closed-loop connect");
        rounds.sat.push(closed.rate());
        rounds.lock_waits.extend(waits);
        for o in [&open, &closed] {
            tally.attempt(o.sent);
            tally.fail(o.rejected, || "reports rejected".into());
            tally.fail(o.lost, || "reports never acked".into());
            rounds.acked += o.acked;
            rounds.errors += o.rejected + o.lost;
        }
        rounds.lags.extend(&open.lag_s);
        rounds.acks.extend(open.latency_s);

        // State oracle: each branch holds its last-sent report; the
        // reads are the workload's query latency samples.
        let mut reads = Vec::with_capacity(corpus.branches.len());
        for (b, (branch, last)) in corpus.branches.iter().zip(&stream.last_sent).enumerate() {
            let t0 = Instant::now();
            let found = rig
                .controller
                .with_depot(|d| QueryInterface::new(d).report(&branch.id));
            reads.push(t0.elapsed().as_secs_f64());
            let expected = last.map(|v| if corrupt == Some(b) { 1 - v } else { v });
            let ok = match (found, expected) {
                (Ok(Some(report)), Some(v)) => report.to_xml() == branch.xml[v],
                (Ok(None), None) => true,
                _ => false,
            };
            tally.check(ok, || {
                format!("branch {} does not hold its last-sent report", branch.id)
            });
        }
        rounds.read_p50.extend(quantile(&reads, 0.5));
        rounds.read_p99.extend(quantile(&reads, 0.99));
    }
    let ingest_wall = phase_start.elapsed().as_secs_f64();
    let sat_rps = median(&rounds.sat).unwrap_or(f64::NAN);

    // Delivery oracle: every send ingested exactly once.
    let duplicates = rig.controller.duplicate_count();
    tally.fail(duplicates, || {
        "duplicate ingests in a fault-free run".into()
    });
    let ingested = rig.controller.with_depot(|d| d.stats().report_count());
    tally.check(ingested == stream.sent, || {
        format!("depot ingested {ingested} of {} sent", stream.sent)
    });

    let ms = |s: Option<f64>| s.map_or(f64::NAN, |s| s * 1e3);
    m.set("ack_p50_ms", ms(quantile(&rounds.acks, 0.5)));
    m.set("samples.ack", rounds.acks.len() as f64);
    m.set(
        "samples.query",
        (rounds.read_p50.len() * corpus.branches.len()) as f64,
    );
    m.set("ack_p99_ms", ms(quantile(&rounds.acks, 0.99)));
    m.set("sat_rps", sat_rps);
    m.set("query_p50_ms", ms(median(&rounds.read_p50)));
    m.set("query_p99_ms", ms(median(&rounds.read_p99)));
    m.set("rss_mb", crate::outcome::peak_rss_mb());

    m.set("gen.lag_p99_ms", ms(quantile(&rounds.lags, 0.99)));
    crate::outcome::check_schedule(&mut tally, &rounds.lags, &rounds.acks);
    if trace {
        m.set(
            "controller.lock_wait_p99_us",
            quantile(&rounds.lock_waits, 0.99).map_or(f64::NAN, |s| s * 1e6),
        );
        server_facts(&rig.controller, ingest_wall, &mut m);
        m.set("sim.reports", rounds.acked as f64);
        m.set("daemon.forward_errors", rounds.errors as f64);

        // Tracing cost: closed-loop rounds with a span per frame.
        let mut spans = Recorder::new();
        let mut traced_rps = Vec::new();
        for _ in 0..3 {
            let traced = net::closed_loop(
                rig.addr,
                p.window,
                Duration::from_secs_f64(ROUND_CLOSED_S),
                || {
                    let send = stream.next(&corpus);
                    let start = Instant::now();
                    let frame = inputs::frame(&corpus, &send);
                    spans.record(send.trace_id, 0, "client.frame", start, Instant::now());
                    frame
                },
            )
            .expect("traced closed loop");
            tally.attempt(traced.sent);
            tally.fail(traced.rejected + traced.lost, || {
                "traced reports not acked".into()
            });
            traced_rps.push(traced.rate());
        }
        m.set(
            "trace.overhead_ratio",
            sat_rps / median(&traced_rps).unwrap_or(f64::NAN),
        );

        let mut rec = Recorder::new();
        let batch = m.get("reactor.frames_per_batch").round().max(1.0) as usize;
        let reports = match p.kind {
            Kind::Small => 4_000,
            Kind::LargeArchived => 600,
        };
        let cfg = ProbeConfig {
            corpus: &corpus,
            seed,
            archive_rule: p.kind == Kind::LargeArchived,
            batch,
            reports,
            resources: corpus
                .branches
                .iter()
                .take(10)
                .map(|b| ("perfbench".to_string(), b.resource.clone()))
                .collect(),
            prefix: corpus.branches[0]
                .id
                .to_string()
                .split_once(',')
                .map_or(corpus.branches[0].id.clone(), |(_, rest)| {
                    rest.parse().expect("suffix of a branch")
                }),
            series: rig
                .controller
                .with_depot(|d| d.archive().series_names().into_iter().next()),
        };
        layers::probe(&cfg, &mut rec, &mut m, &mut tally);
        layers::budget(&rec, reports, 1e6 / sat_rps, &mut m);
        crate::write_spans(&rec, p.kind_name(), seed);
    }
    rig.reactor.stop();
    (tally, m)
}

impl Params {
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            Kind::Small => "ingest_small",
            Kind::LargeArchived => "ingest_large_archived",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            kind: Kind::Small,
            branches: 60,
            daemons: 6,
            rate: 2_000.0,
            window: 4,
        }
    }

    #[test]
    fn a_short_run_is_correct_and_an_injected_wrong_answer_is_caught() {
        let _serial = crate::TIMED_TEST.lock().unwrap_or_else(|e| e.into_inner());
        let (tally, m) = run(&tiny(), 5, 1.0, false, false, Instant::now());
        assert_eq!(tally.failed, 0, "{:?}", tally.notes());
        assert!(m.get("sat_rps") > 0.0);
        assert!(m.get("ack_p50_ms") > 0.0);

        // The expected report of one branch is swapped: every read-back
        // pass (one per round, at least three) must catch it, and
        // nothing else may fail.
        let (tally, _) = run(&tiny(), 5, 1.0, false, true, Instant::now());
        assert!(tally.failed >= 3, "{:?}", tally.notes());
        assert!(
            tally
                .notes()
                .iter()
                .all(|n| n.contains("does not hold its last-sent report")),
            "{:?}",
            tally.notes()
        );
        assert!(tally.fail_ratio() > 0.0);
    }
}
