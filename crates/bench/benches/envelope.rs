//! Wire benchmarks: envelope pack/unpack cost vs report size in both
//! modes — the mechanism behind Figure 9's unpack gap. Unpack is the
//! depot's own decode, [`EnvelopeView::decode`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use inca_report::{BranchId, Timestamp};
use inca_sim::workload::{synthetic_report, PREMADE_SIZES};
use inca_wire::envelope::{Envelope, EnvelopeMode, EnvelopeView};

fn bench_unpack(c: &mut Criterion) {
    let mut group = c.benchmark_group("envelope/unpack");
    let branch: BranchId = "reporter=probe,vo=bench".parse().unwrap();
    for &size in &PREMADE_SIZES {
        let report = synthetic_report("probe", "h", Timestamp::from_secs(0), size);
        for (label, mode) in
            [("body", EnvelopeMode::Body), ("binary", EnvelopeMode::Binary)]
        {
            let bytes = Envelope::new(branch.clone(), report.to_xml()).encode(mode);
            group.throughput(Throughput::Bytes(bytes.len() as u64));
            group.bench_with_input(
                BenchmarkId::new(label, size),
                &bytes,
                |b, bytes| b.iter(|| EnvelopeView::decode(bytes).unwrap().report_xml.len()),
            );
        }
    }
    group.finish();
}

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("envelope/pack");
    let branch: BranchId = "reporter=probe,vo=bench".parse().unwrap();
    let report = synthetic_report("probe", "h", Timestamp::from_secs(0), PREMADE_SIZES[3]);
    let env = Envelope::new(branch, report.to_xml());
    group.bench_function("body", |b| b.iter(|| env.encode(EnvelopeMode::Body).len()));
    group.bench_function("binary", |b| b.iter(|| env.encode(EnvelopeMode::Binary).len()));
    group.finish();
}

criterion_group!(benches, bench_unpack, bench_pack);
criterion_main!(benches);
