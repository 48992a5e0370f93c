//! Property-based tests of kernel mathematics.

use anacin_event_graph::{EventGraph, LabelPolicy};
use anacin_kernels::prelude::*;
use anacin_mpisim::prelude::*;
use proptest::prelude::*;

fn race_graph(procs: u32, nd: f64, seed: u64) -> EventGraph {
    let mut b = ProgramBuilder::new(procs);
    for r in 1..procs {
        b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
    }
    for _ in 1..procs {
        b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
    }
    let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
    EventGraph::from_trace(&t)
}

fn arb_kernel() -> impl Strategy<Value = usize> {
    0usize..5
}

fn kernel_by_index(i: usize) -> Box<dyn GraphKernel> {
    match i {
        0 => Box::new(WlKernel::default()),
        1 => Box::new(WlKernel {
            iterations: 1,
            policy: LabelPolicy::RankTypePeer,
            edge_sensitive: true,
        }),
        2 => Box::new(VertexHistogramKernel::default()),
        3 => Box::new(EdgeHistogramKernel::default()),
        _ => Box::new(ShortestPathKernel::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel values are symmetric and satisfy Cauchy–Schwarz:
    /// k(G,H)² ≤ k(G,G)·k(H,H).
    #[test]
    fn kernels_are_symmetric_and_cauchy_schwarz(
        ki in arb_kernel(),
        procs in 2u32..8,
        seed_a in 0u64..40,
        seed_b in 40u64..80,
    ) {
        let k = kernel_by_index(ki);
        let g = race_graph(procs, 100.0, seed_a);
        let h = race_graph(procs, 100.0, seed_b);
        let kgh = k.value(&g, &h);
        let khg = k.value(&h, &g);
        prop_assert!((kgh - khg).abs() < 1e-9);
        let kgg = k.value(&g, &g);
        let khh = k.value(&h, &h);
        prop_assert!(kgh * kgh <= kgg * khh * (1.0 + 1e-9));
        // Distance properties follow.
        let d = kernel_distance(kgg, khh, kgh);
        prop_assert!(d >= 0.0);
        prop_assert_eq!(kernel_distance(kgg, kgg, kgg), 0.0);
    }

    /// Feature dot products agree with distance(): ‖φ(G)−φ(H)‖² equals
    /// k(G,G)+k(H,H)−2k(G,H) by expansion.
    #[test]
    fn distance_expansion_identity(
        ki in arb_kernel(),
        seed in 0u64..60,
    ) {
        let k = kernel_by_index(ki);
        let g = race_graph(5, 100.0, seed);
        let h = race_graph(5, 100.0, seed + 1000);
        let fg = k.features(&g);
        let fh = k.features(&h);
        let direct = {
            let mut diff2 = 0.0;
            let mut ids: std::collections::HashSet<u64> =
                fg.iter().map(|(id, _)| id).collect();
            ids.extend(fh.iter().map(|(id, _)| id));
            for id in ids {
                diff2 += (fg.get(id) - fh.get(id)).powi(2);
            }
            diff2.sqrt()
        };
        let via_kernel = kernel_distance(fg.norm_sq(), fh.norm_sq(), fg.dot(&fh));
        prop_assert!((direct - via_kernel).abs() < 1e-6,
            "direct {direct} vs kernel {via_kernel}");
    }

    /// MDS embeddings never exaggerate distances (classical MDS projects,
    /// so embedded distances are bounded by the originals up to noise).
    #[test]
    fn mds_is_contractive(
        n in 2usize..8,
        spread in 0.1f64..10.0,
    ) {
        // Points on a line with the given spacing.
        let e = mds_from_distances(n, |i, j| (i as f64 - j as f64).abs() * spread);
        prop_assert_eq!(e.points.len(), n);
        for i in 0..n {
            for j in 0..n {
                let de = embedded_distance(e.points[i], e.points[j]);
                let orig = (i as f64 - j as f64).abs() * spread;
                prop_assert!(de <= orig + 1e-6, "({i},{j}): {de} > {orig}");
            }
        }
    }

    /// Growing a Gram matrix run-by-run with `gram_append` is
    /// bit-identical to the full recompute, for any prefix split and
    /// thread count.
    #[test]
    fn gram_append_matches_full_recompute(
        n in 2usize..7,
        split in 1usize..6,
        threads in 1usize..5,
        seed in 0u64..20,
    ) {
        let k = WlKernel::default();
        let graphs: Vec<_> = (0..n)
            .map(|i| race_graph(5, 100.0, seed + i as u64))
            .collect();
        let feats: Vec<_> = graphs.iter().map(|g| k.features(g)).collect();
        let full = gram_from_features("wl", &feats, threads, None);
        let start = split.min(n - 1);
        let mut grown = gram_from_features("wl", &feats[..start], threads, None);
        for upto in start + 1..=n {
            grown = gram_append(&grown, &feats[..upto], threads, None);
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(grown.value(i, j).to_bits(), full.value(i, j).to_bits());
            }
        }
    }

    /// The Gram matrix is thread-count invariant.
    #[test]
    fn gram_matrix_parallel_determinism(
        threads in 1usize..9,
        seed in 0u64..20,
    ) {
        let graphs: Vec<_> = (0..5).map(|i| race_graph(5, 100.0, seed + i)).collect();
        let k = WlKernel::default();
        let base = gram_matrix(&k, &graphs, 1, None);
        let par = gram_matrix(&k, &graphs, threads, None);
        for i in 0..5 {
            for j in 0..5 {
                prop_assert_eq!(base.value(i, j), par.value(i, j));
            }
        }
    }
}
