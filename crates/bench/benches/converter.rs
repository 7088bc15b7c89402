//! DFtoTorch converter benchmarks: streaming per-partition batching vs
//! the collect-then-batch strategy §III-C warns about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rand::SeedableRng;

use geotorch_converter::{collect_then_batch, DfFormatter, RowTransformer};
use geotorch_dataframe::{Column, DataFrame};
use geotorch_tensor::{with_device, Device};

fn feature_df(rows: usize, partitions: usize) -> DataFrame {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let a: Vec<f64> = (0..rows).map(|_| rng.gen()).collect();
    let b: Vec<f64> = (0..rows).map(|_| rng.gen()).collect();
    let c: Vec<f64> = (0..rows).map(|_| rng.gen()).collect();
    let y: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..4)).collect();
    DataFrame::from_columns(vec![
        ("a".into(), Column::F64(a)),
        ("b".into(), Column::F64(b)),
        ("c".into(), Column::F64(c)),
        ("y".into(), Column::I64(y)),
    ])
    .unwrap()
    .repartition(partitions)
    .unwrap()
}

fn bench_converter(c: &mut Criterion) {
    let mut group = c.benchmark_group("df_to_torch");
    group.sample_size(10);
    for &rows in &[10_000usize, 100_000] {
        let df = feature_df(rows, 8);
        let formatter = DfFormatter::for_classification(&["a", "b", "c"], &[3], "y").unwrap();
        group.bench_with_input(BenchmarkId::new("format", rows), &rows, |bench, _| {
            bench.iter(|| formatter.format(&df).unwrap());
        });
        let frame = formatter.format(&df).unwrap();
        group.bench_with_input(BenchmarkId::new("stream_batches", rows), &rows, |bench, _| {
            let rt = RowTransformer::new(256);
            bench.iter(|| rt.batches(&frame).count());
        });
        group.bench_with_input(
            BenchmarkId::new("collect_then_batch", rows),
            &rows,
            |bench, _| {
                bench.iter(|| collect_then_batch(&frame, 256).len());
            },
        );
        // Materialising every batch under each device: batch assembly is
        // serial, so the two should match.
        for (name, device) in [
            ("collect_batches_cpu", Device::Cpu),
            ("collect_batches_parallel", Device::parallel()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, rows), &rows, |bench, _| {
                let rt = RowTransformer::new(256);
                bench.iter(|| with_device(device, || rt.batches(&frame).collect::<Vec<_>>().len()));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_converter);
criterion_main!(benches);
