//! Kernel evaluation cost: WL depth sweep, kernel comparison, and
//! parallel Gram-matrix scaling over worker threads.

use anacin_event_graph::{EventGraph, LabelPolicy};
use anacin_kernels::prelude::*;
use anacin_miniapps::{MiniAppConfig, Pattern};
use anacin_mpisim::{simulate, SimConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn graphs(count: u64, procs: u32) -> Vec<EventGraph> {
    let program = Pattern::Amg2013.build(&MiniAppConfig::with_procs(procs));
    (0..count)
        .map(|seed| {
            let t = simulate(&program, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            EventGraph::from_trace(&t)
        })
        .collect()
}

fn kernel_wl(c: &mut Criterion) {
    let gs = graphs(2, 16);
    let mut group = c.benchmark_group("kernel_wl_depth");
    for h in [0u32, 1, 2, 3, 5] {
        let k = WlKernel::with_iterations(h);
        group.bench_with_input(BenchmarkId::from_parameter(h), &k, |b, k| {
            b.iter(|| k.value(&gs[0], &gs[1]));
        });
    }
    group.finish();
}

fn kernel_comparison(c: &mut Criterion) {
    let gs = graphs(2, 16);
    let mut group = c.benchmark_group("kernel_comparison");
    let kernels: Vec<(&str, Box<dyn GraphKernel>)> = vec![
        ("wl_h3", Box::new(WlKernel::default())),
        (
            "vertex_hist",
            Box::new(VertexHistogramKernel {
                policy: LabelPolicy::TypeAndPeer,
            }),
        ),
        (
            "edge_hist",
            Box::new(EdgeHistogramKernel {
                policy: LabelPolicy::TypeAndPeer,
            }),
        ),
        ("shortest_path_d4", Box::new(ShortestPathKernel::default())),
        ("graphlet", Box::new(GraphletKernel::default())),
    ];
    for (name, k) in &kernels {
        group.bench_function(*name, |b| b.iter(|| k.value(&gs[0], &gs[1])));
    }
    group.finish();
}

fn gram_matrix_scaling(c: &mut Criterion) {
    let gs = graphs(12, 8);
    let k = WlKernel::default();
    let mut group = c.benchmark_group("gram_matrix_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| gram_matrix(&k, &gs, t, None));
        });
    }
    group.finish();
}

criterion_group!(benches, kernel_wl, kernel_comparison, gram_matrix_scaling);
criterion_main!(benches);
