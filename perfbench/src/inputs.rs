//! Seeded input generation.
//!
//! A workload's inputs are a [`Corpus`] (every branch with two report
//! variants) and a [`Stream`] that picks which branch each submission
//! goes to and stamps it with its delivery identity `(daemon, seq)` and
//! a trace context. Both are pure functions of the seed: the same seed
//! gives byte-identical frames, and the program under test receives
//! nothing but these frames.

use inca_obs::TraceContext;
use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_sim::workload::{synthetic_report, PREMADE_SIZES};
use inca_wire::message::ClientMessage;

/// The §5.2.2 premade sizes the large workload cycles through.
pub const LARGE_SIZES: [usize; 3] = [PREMADE_SIZES[1], PREMADE_SIZES[2], PREMADE_SIZES[3]];

/// Reports carry GMT stamps from the paper's measurement week.
pub fn base_time() -> Timestamp {
    Timestamp::from_gmt(2004, 7, 7, 0, 0, 0)
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_1AC4)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One cached branch and the two report variants submissions to it
/// alternate between, so a branch's final content names its last send.
#[derive(Debug, Clone)]
pub struct Branch {
    pub id: BranchId,
    /// Submitting host (the allowlist key).
    pub resource: String,
    /// Delivery identity of the daemon owning this branch.
    pub daemon: usize,
    pub xml: [String; 2],
}

/// Every branch a workload writes to.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub branches: Vec<Branch>,
    /// Daemon identities; branch `b` belongs to daemon `b % daemons`.
    pub daemons: Vec<String>,
}

impl Corpus {
    /// `ingest_small`: the 851-byte premade report over `branches`
    /// distinct branches of `daemons` resources in the `vo` VO.
    pub fn small(seed: u64, branches: usize, daemons: usize, hosts: &[String], vo: &str) -> Corpus {
        let mut rng = Rng::new(seed ^ 0x5A11);
        let daemon_ids: Vec<String> = (0..daemons).map(|d| format!("perfbench-d{d}")).collect();
        let branches = (0..branches)
            .map(|b| {
                let daemon = b % daemons;
                let host = &hosts[daemon % hosts.len()];
                let reporter = format!("synthetic.premade.851.d{daemon}.r{}", b / daemons);
                let id: BranchId = format!("reporter={reporter},resource={host},vo={vo}")
                    .parse()
                    .expect("generated branch is well formed");
                let xml = [0u64, 1].map(|v| {
                    let gmt = base_time() + rng.below(86_400) as u64 + v;
                    synthetic_report(&reporter, host, gmt, PREMADE_SIZES[0]).to_xml()
                });
                Branch {
                    id,
                    resource: host.clone(),
                    daemon,
                    xml,
                }
            })
            .collect();
        Corpus {
            branches,
            daemons: daemon_ids,
        }
    }

    /// `ingest_large_archived`: pathload-style bandwidth reports of the
    /// three large premade sizes in equal shares, on branches every one
    /// of which the `vo=teragrid` bandwidth archive rule matches.
    pub fn large(seed: u64, branches: usize, daemons: usize) -> Corpus {
        let mut rng = Rng::new(seed ^ 0x1A26E);
        let daemon_ids: Vec<String> = (0..daemons).map(|d| format!("perfbench-d{d}")).collect();
        let branches = (0..branches)
            .map(|b| {
                let daemon = b % daemons;
                let site = format!("site{daemon}");
                let host = format!("tg-login.{site}.teragrid.org");
                let id: BranchId = format!(
                    "dest=dst{},tool=pathload,performance=network,site={site},vo=teragrid",
                    b / daemons
                )
                .parse()
                .expect("generated branch is well formed");
                let size = LARGE_SIZES[b % LARGE_SIZES.len()];
                let xml = [0u64, 1].map(|v| {
                    let gmt = base_time() + rng.below(86_400) as u64 + v;
                    let lower = 800.0 + rng.below(20_000) as f64 / 100.0;
                    bandwidth_report(&host, gmt, lower, size)
                });
                Branch {
                    id,
                    resource: host,
                    daemon,
                    xml,
                }
            })
            .collect();
        Corpus {
            branches,
            daemons: daemon_ids,
        }
    }

    /// A digest of every report variant, for determinism checks.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for b in &self.branches {
            h.write(b.id.to_string().as_bytes());
            h.write(b.resource.as_bytes());
            for x in &b.xml {
                h.write(x.as_bytes());
            }
        }
        h.finish()
    }
}

/// A Figure 2-shaped pathload report padded to exactly `size` bytes.
fn bandwidth_report(host: &str, gmt: Timestamp, lower: f64, size: usize) -> String {
    let build = |filler: String| {
        ReportBuilder::new("network.bandwidth.pathload", "1.0")
            .host(host)
            .gmt(gmt)
            .metric(
                "bandwidth",
                &[
                    ("upperBound", &format!("{:.2}", lower + 15.0), Some("Mbps")),
                    ("lowerBound", &format!("{lower:.2}"), Some("Mbps")),
                ],
            )
            .body_value("trace", filler)
            .success()
            .expect("bandwidth report is valid")
    };
    let overhead = build(String::new()).size_bytes();
    let filler: String = (0..size.saturating_sub(overhead))
        .map(|i| (b'a' + (i % 26) as u8) as char)
        .collect();
    let report = build(filler);
    debug_assert_eq!(report.size_bytes(), size);
    report.to_xml()
}

/// One submission: which branch, which variant, and its stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    pub branch: usize,
    pub variant: usize,
    pub seq: u64,
    pub trace_id: u64,
}

/// The seeded submission stream over a corpus. It also keeps the
/// oracle's view: which variant each branch was last sent.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    next_seq: Vec<u64>,
    sends_to: Vec<u64>,
    /// Variant of the last submission per branch (`None` = never sent).
    pub last_sent: Vec<Option<usize>>,
    pub sent: u64,
}

impl Stream {
    pub fn new(seed: u64, corpus: &Corpus) -> Stream {
        Stream {
            rng: Rng::new(seed ^ 0x57_12EA),
            next_seq: vec![1; corpus.daemons.len()],
            sends_to: vec![0; corpus.branches.len()],
            last_sent: vec![None; corpus.branches.len()],
            sent: 0,
        }
    }

    /// The next submission to branch `branch`.
    pub fn send_to(&mut self, corpus: &Corpus, branch: usize) -> Send {
        let daemon = corpus.branches[branch].daemon;
        let seq = self.next_seq[daemon];
        self.next_seq[daemon] += 1;
        let variant = (self.sends_to[branch] % 2) as usize;
        self.sends_to[branch] += 1;
        self.last_sent[branch] = Some(variant);
        self.sent += 1;
        let trace_id = self.rng.next_u64() | 1;
        Send {
            branch,
            variant,
            seq,
            trace_id,
        }
    }

    /// The next submission, to a uniformly drawn branch.
    pub fn next(&mut self, corpus: &Corpus) -> Send {
        let branch = self.rng.below(corpus.branches.len());
        self.send_to(corpus, branch)
    }
}

/// The encoded, length-prefixed frame of one submission.
pub fn frame(corpus: &Corpus, send: &Send) -> Vec<u8> {
    let payload = message(corpus, send).encode();
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// The client message of one submission, origin- and trace-stamped.
pub fn message(corpus: &Corpus, send: &Send) -> ClientMessage {
    let branch = &corpus.branches[send.branch];
    ClientMessage {
        resource: branch.resource.clone(),
        branch: branch.id.clone(),
        report_xml: branch.xml[send.variant].clone(),
        is_error_report: false,
        trace: Some(TraceContext {
            trace_id: send.trace_id,
            parent_span_id: 0,
        }),
        origin: Some((corpus.daemons[branch.daemon].clone(), send.seq)),
        via: None,
    }
}

/// FNV-1a, for digests of generated inputs.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct Fnv(u64);

#[cfg(test)]
impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts() -> Vec<String> {
        (0..4).map(|i| format!("h{i}.teragrid.org")).collect()
    }

    /// Digest of a corpus plus the first `n` frames of its stream.
    fn inputs_digest(corpus: &Corpus, seed: u64, n: usize) -> u64 {
        let mut stream = Stream::new(seed, corpus);
        let mut h = Fnv::new();
        h.write(&corpus.digest().to_le_bytes());
        for _ in 0..n {
            h.write(&frame(corpus, &stream.next(corpus)));
        }
        h.finish()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        let a = Corpus::small(7, 200, 10, &hosts(), "bench");
        let b = Corpus::small(7, 200, 10, &hosts(), "bench");
        let c = Corpus::small(8, 200, 10, &hosts(), "bench");
        assert_eq!(inputs_digest(&a, 7, 500), inputs_digest(&b, 7, 500));
        assert_ne!(inputs_digest(&a, 7, 500), inputs_digest(&c, 8, 500));
        assert_ne!(
            inputs_digest(&a, 7, 500),
            inputs_digest(&a, 8, 500),
            "stream follows the seed"
        );

        let large = |seed| Corpus::large(seed, 12, 4);
        assert_eq!(
            inputs_digest(&large(3), 3, 50),
            inputs_digest(&large(3), 3, 50)
        );
        assert_ne!(
            inputs_digest(&large(3), 3, 50),
            inputs_digest(&large(4), 4, 50)
        );
    }

    #[test]
    fn reports_have_the_premade_sizes() {
        let small = Corpus::small(1, 10, 2, &hosts(), "bench");
        assert!(small
            .branches
            .iter()
            .all(|b| b.xml.iter().all(|x| x.len() == 851)));
        let large = Corpus::large(1, 6, 2);
        for (i, b) in large.branches.iter().enumerate() {
            for x in &b.xml {
                assert_eq!(x.len(), LARGE_SIZES[i % 3]);
                inca_report::Report::parse(x).unwrap();
            }
        }
    }

    #[test]
    fn seqs_increase_per_daemon_and_variants_alternate_per_branch() {
        let corpus = Corpus::small(2, 100, 10, &hosts(), "bench");
        let mut stream = Stream::new(2, &corpus);
        let mut last_seq = [0u64; 10];
        let mut last_variant = vec![None; 100];
        for _ in 0..1_000 {
            let send = stream.next(&corpus);
            if let Some(v) = last_variant[send.branch] {
                assert_ne!(v, send.variant, "consecutive sends to a branch differ");
            }
            last_variant[send.branch] = Some(send.variant);
            let daemon = corpus.branches[send.branch].daemon;
            assert!(send.seq > last_seq[daemon]);
            last_seq[daemon] = send.seq;
        }
    }
}
