//! Per-layer probes for traced runs.
//!
//! Each layer is timed from outside, by calling its public functions on
//! the workload's own generated inputs: the wire codec, frame
//! reassembly, seq dedup, the daemon spool, the controller's batched
//! submit (whose [`DepotTiming`] splits out the depot's unpack, insert
//! and archive stages) and the consumer queries. Every call is a span
//! in the benchmark's [`Recorder`]; the per-report spans of one report
//! share its trace id.

use std::time::{Duration, Instant};

use inca_agreement::Agreement;
use inca_consumer::{build_status_page, render_status_page};
use inca_controller::{Spool, SpoolConfig};
use inca_obs::{Obs, TraceContext};
use inca_report::{BranchId, Timestamp};
use inca_server::{
    CacheBackend, CentralizedController, ControllerConfig, DedupIndex, Depot, DepotTiming,
    QueryInterface,
};
use inca_wire::envelope::{Envelope, EnvelopeMode, EnvelopeView};
use inca_wire::frame::FrameBuffer;
use inca_wire::message::{ClientMessage, ServerResponse};

use crate::inputs::{self, Corpus, Stream};
use crate::outcome::{Metrics, Tally};
use crate::spans::Recorder;

/// How the workload's own server is configured, so the probe's
/// controller (binary envelope, rope cache, like the workload's)
/// matches it.
pub struct ProbeConfig<'a> {
    pub corpus: &'a Corpus,
    pub seed: u64,
    /// Upload the `vo=teragrid` bandwidth archive rule.
    pub archive_rule: bool,
    /// Reports per controller batch (the workload's observed mean).
    pub batch: usize,
    /// Reports to probe.
    pub reports: usize,
    /// `(site, resource)` pairs for the status page.
    pub resources: Vec<(String, String)>,
    /// A site-scoped suffix for the `reports` query.
    pub prefix: BranchId,
    /// An archived series for the windowed aggregate, if any.
    pub series: Option<String>,
}

/// Stages whose self times make up `controller.submit`, in budget order.
pub const SUBMIT_STAGES: [&str; 4] = [
    "controller.submit",
    "depot.unpack",
    "depot.insert",
    "depot.archive",
];

/// Runs every probe, recording spans into `rec` and the per-layer
/// means into `m`. Wrong answers count against `tally`.
pub fn probe(cfg: &ProbeConfig<'_>, rec: &mut Recorder, m: &mut Metrics, tally: &mut Tally) {
    let corpus = cfg.corpus;
    let mut stream = Stream::new(cfg.seed ^ 0x9B0BE, corpus);
    let sends: Vec<_> = (0..cfg.reports).map(|_| stream.next(corpus)).collect();
    let now = inputs::base_time() + 86_400;

    // Wire, framing, dedup and envelope, report by report.
    let mut dedup = DedupIndex::default();
    let mut inbuf = FrameBuffer::new();
    let mut bytes = 0usize;
    let mut envelopes: Vec<Vec<u8>> = Vec::with_capacity(sends.len());
    for send in &sends {
        let t = send.trace_id;
        let message = inputs::message(corpus, send);
        let (payload, _) = rec.time(t, 0, "wire.encode", || message.encode());
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&payload);
        bytes += framed.len();
        let (frame, _) = rec.time(t, 0, "wire.frame", || {
            inbuf.extend(&framed);
            inbuf.next_frame()
        });
        let (decoded, _) = rec.time(t, 0, "wire.decode", || {
            ClientMessage::decode(&frame.ok().flatten().unwrap_or_default())
        });
        tally.check(decoded.as_ref().ok() == Some(&message), || {
            format!("wire round trip changed report {}", send.trace_id)
        });
        let (daemon, seq) = message.origin.clone().expect("stamped");
        let (fresh, _) = rec.time(t, 0, "dedup.observe", || dedup.observe(&daemon, seq));
        tally.check(fresh, || {
            format!("fresh seq {seq} of {daemon} seen as duplicate")
        });
        let envelope = Envelope::new(message.branch.clone(), message.report_xml.clone())
            .with_trace(TraceContext {
                trace_id: t,
                parent_span_id: 0,
            });
        let (packed, _) = rec.time(t, 0, "wire.envelope_encode", || {
            envelope.encode(EnvelopeMode::Binary)
        });
        let (view, _) = rec.time(t, 0, "wire.envelope_decode", || {
            EnvelopeView::decode(&packed).map(|v| v.report_xml.len())
        });
        tally.check(view.ok() == Some(message.report_xml.len()), || {
            "envelope round trip changed the report".to_string()
        });
        envelopes.push(packed);
    }
    m.set(
        "wire.bytes_per_report",
        bytes as f64 / sends.len().max(1) as f64,
    );

    // The daemon spool on the stamped stream: enqueue, then drain the
    // due prefix and ack it, a batch at a time.
    let mut spool = Spool::new("perfbench-spool", SpoolConfig::default());
    for chunk in sends.chunks(cfg.batch.max(1)) {
        for send in chunk {
            let message = inputs::message(corpus, send);
            rec.time(send.trace_id, 0, "spool.enqueue", || spool.enqueue(message));
        }
        let t0 = Instant::now();
        let due = spool.due_prefix(now.as_secs(), true);
        let share = t0.elapsed() / due.len().max(1) as u32;
        for (entry, send) in due.iter().zip(chunk) {
            let start = Instant::now();
            let acked = spool.ack(entry.seq);
            let len = start.elapsed() + share;
            rec.child(send.trace_id, 0, "spool.ack", start, len);
            tally.check(acked, || format!("spool lost seq {}", entry.seq));
        }
    }

    // The controller's batched submit into a depot configured like the
    // workload's, pre-filled with one report per branch so the cache is
    // at its steady-state size.
    let controller = CentralizedController::new(
        ControllerConfig {
            envelope_mode: EnvelopeMode::Binary,
            ..ControllerConfig::default()
        },
        Depot::with_obs_backend(Obs::new(), CacheBackend::Rope),
    );
    if cfg.archive_rule {
        controller.with_depot_mut(|d| {
            d.add_archive_rule(inca_consumer::bandwidth_archive_rule("teragrid"))
        });
    }
    let mut prefill_stream = Stream::new(cfg.seed ^ 0xF111, corpus);
    let prefill: Vec<(String, Vec<u8>)> = (0..corpus.branches.len())
        .map(|b| {
            let send = prefill_stream.send_to(corpus, b);
            let message =
                inputs::message(corpus, &send).with_origin("perfbench-prefill", b as u64 + 1);
            (message.resource.clone(), message.encode())
        })
        .collect();
    for chunk in prefill.chunks(256) {
        controller.submit_batch(chunk, now);
    }
    let submissions: Vec<(String, Vec<u8>)> = sends
        .iter()
        .map(|s| {
            let message = inputs::message(corpus, s);
            (message.resource.clone(), message.encode())
        })
        .collect();
    for (chunk, chunk_sends) in submissions
        .chunks(cfg.batch.max(1))
        .zip(sends.chunks(cfg.batch.max(1)))
    {
        let start = Instant::now();
        let results = controller.submit_batch(chunk, now);
        let per_report = start.elapsed() / chunk.len() as u32;
        for (k, ((response, timing), send)) in results.into_iter().zip(chunk_sends).enumerate() {
            tally.check(response == ServerResponse::Ack, || {
                format!("probe submit answered {response:?}")
            });
            let t = send.trace_id;
            let begin = start + per_report * k as u32;
            let id = rec.record(t, 0, "controller.submit", begin, begin + per_report);
            let DepotTiming {
                unpack,
                insert,
                archive,
                ..
            } = timing.unwrap_or(DepotTiming {
                unpack: Duration::ZERO,
                insert: Duration::ZERO,
                archive: Duration::ZERO,
                report_size: 0,
            });
            let at = rec.child(t, id, "depot.unpack", begin, unpack);
            let at = rec.child(t, id, "depot.insert", at, insert);
            rec.child(t, id, "depot.archive", at, archive);
        }
    }
    for name in [
        "wire.encode",
        "wire.frame",
        "wire.decode",
        "wire.envelope_encode",
        "wire.envelope_decode",
        "dedup.observe",
        "spool.enqueue",
        "spool.ack",
        "controller.submit",
        "depot.unpack",
        "depot.insert",
        "depot.archive",
    ] {
        m.set(metric_name(name), rec.mean_us(name));
    }
    let selfs = rec.self_times();
    m.set(
        "controller.admit_us",
        selfs["controller.submit"] / sends.len().max(1) as f64 * 1e6,
    );

    // Consumer queries on the probe depot.
    let agreement = Agreement::teragrid();
    let targets: Vec<&BranchId> = sends
        .iter()
        .take(200)
        .map(|s| &corpus.branches[s.branch].id)
        .collect();
    controller.with_depot(|depot| {
        let q = QueryInterface::new(depot);
        for branch in &targets {
            let (found, _) = rec.time(0, 0, "query.report", || q.report(branch));
            tally.check(matches!(found, Ok(Some(_))), || {
                format!("probe lost {branch}")
            });
        }
        for _ in 0..20 {
            let (r, _) = rec.time(0, 0, "query.reports", || {
                q.reports(Some(&cfg.prefix)).map(|v| v.len())
            });
            tally.check(r.is_ok(), || "reports query failed".into());
            let (doc, _) = rec.time(0, 0, "query.document", || q.current_all().len());
            tally.check(doc > 0, || "empty document".into());
            let end = Timestamp::from_secs(u64::MAX / 4);
            rec.time(0, 0, "temporal.window", || {
                cfg.series
                    .as_deref()
                    .and_then(|s| q.temporal().window_aggregate(s, Timestamp::EPOCH, end))
            });
            rec.time(0, 0, "consumer.status_page", || {
                render_status_page(&build_status_page(&q, &agreement, &cfg.resources, now)).len()
            });
        }
    });
    for name in [
        "query.report",
        "query.reports",
        "query.document",
        "temporal.window",
        "consumer.status_page",
    ] {
        m.set(metric_name(name), rec.mean_us(name));
    }
}

/// The per-layer metric a span name feeds (`wire.encode` →
/// `wire.encode_us`).
fn metric_name(span: &str) -> &'static str {
    crate::outcome::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix("_us") == Some(span))
        .unwrap_or_else(|| panic!("no per-layer metric for span {span}"))
}

/// Prints the per-report latency budget: the stage self times of one
/// controller submit, the residual outside it, and their sum against
/// the end-to-end time per report (`1e6 / sat_rps`).
pub fn budget(rec: &Recorder, reports: usize, e2e_us: f64, m: &mut Metrics) {
    let selfs = rec.self_times();
    let per_report =
        |name: &str| selfs.get(name).copied().unwrap_or(0.0) / reports.max(1) as f64 * 1e6;
    let stages: f64 = SUBMIT_STAGES.iter().map(|s| per_report(s)).sum();
    let residual = e2e_us - stages;
    eprintln!("per-report latency budget (us):");
    for stage in SUBMIT_STAGES {
        let label = if stage == "controller.submit" {
            "controller.admit (self)"
        } else {
            stage
        };
        eprintln!("  {label:<28} {:>10.3}", per_report(stage));
    }
    eprintln!("  {:<28} {:>10.3}", "reactor.residual", residual);
    eprintln!(
        "  {:<28} {:>10.3}  (= 1e6 / sat_rps {:.3})",
        "sum",
        stages + residual,
        e2e_us
    );
    m.set("budget.e2e_us", e2e_us);
    m.set("budget.stages_us", stages);
    m.set("reactor.residual_us", residual);
}
