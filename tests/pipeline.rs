//! Differential tests for the feature→Gram kernel stage: the k-way Gram
//! must be bit-identical to pairwise scalar dots for every kernel at every
//! thread count, warm-store reads must be bit-identical to cold computes,
//! and the interned WL relabelling must reproduce the pre-interner label
//! stream exactly.

use anacin_store::ArtifactStore;
use anacin_testkit::prelude::{generate, GenConfig};
use anacin_x::event_graph::label::{fnv1a_words, initial_labels};
use anacin_x::event_graph::EdgeKind;
use anacin_x::prelude::*;
use std::path::PathBuf;

fn temp_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir =
        std::env::temp_dir().join(format!("anacin_ws_pipeline_{}_{}", std::process::id(), tag));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("open temp store");
    (dir, store)
}

fn bits(m: &KernelMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// A spread of testkit-generated programs (collectives, exchanges,
/// wildcards, chaotic ranks), each simulated under full nondeterminism.
fn generated_graphs() -> Vec<EventGraph> {
    let mut graphs = Vec::new();
    for gen_seed in [1u64, 7, 19, 42] {
        let gp = generate(&GenConfig::from_seed(gen_seed));
        for sim_seed in [0u64, 3] {
            let t = simulate(&gp.program, &SimConfig::with_nd_percent(100.0, sim_seed))
                .expect("generated program simulates");
            graphs.push(EventGraph::from_trace(&t));
        }
    }
    graphs
}

fn all_kernels() -> Vec<Box<dyn GraphKernel>> {
    vec![
        Box::new(WlKernel::default()),
        Box::new(VertexHistogramKernel::default()),
        Box::new(EdgeHistogramKernel::default()),
        Box::new(ShortestPathKernel::default()),
        Box::new(GraphletKernel::default()),
    ]
}

/// For every kernel, the Gram matrix (one k-way merge over all feature
/// vectors) equals the matrix of pairwise scalar dots bit for bit, at any
/// thread count.
#[test]
fn gram_is_bit_identical_to_pairwise_dot_for_every_kernel() {
    let graphs = generated_graphs();
    for kernel in all_kernels() {
        let feats = parallel_features(kernel.as_ref(), &graphs, 1, None);
        let pairwise: Vec<u64> = feats
            .iter()
            .flat_map(|a| feats.iter().map(move |b| a.dot(b).to_bits()))
            .collect();
        for threads in [1usize, 2, 8] {
            let m = gram_matrix(kernel.as_ref(), &graphs, threads, None);
            assert_eq!(
                bits(&m),
                pairwise,
                "kernel {} at {threads} threads diverged from pairwise dots",
                kernel.name()
            );
        }
    }
}

/// Warm store reads, cold computes, and the store-free campaign all agree
/// bit-for-bit.
#[test]
fn warm_store_matches_cold_and_plain_campaign() {
    let cfg = CampaignConfig::new(Pattern::Amg2013, 6)
        .runs(5)
        .base_seed(31);
    let plain = run_campaign(&cfg).expect("plain campaign");

    let (dir, store) = temp_store("cold_warm");
    let cold = run_campaign_incremental(&cfg, &store).expect("cold campaign");
    assert!(store.activity().puts > 0, "cold run publishes artifacts");

    let store = ArtifactStore::open(&dir).expect("reopen store");
    let warm = run_campaign_incremental(&cfg, &store).expect("warm campaign");
    let a = store.activity();
    assert_eq!(a.misses, 0, "warm run must hit on every artifact");
    assert_eq!(a.puts, 0, "warm run must publish nothing");

    for (label, r) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(r.traces, plain.traces, "{label} traces differ");
        assert_eq!(r.graphs, plain.graphs, "{label} graphs differ");
        assert_eq!(
            bits(&r.matrix),
            bits(&plain.matrix),
            "{label} gram bits differ from the plain campaign"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed campaign reads the stored runs' features, extracts only the
/// missing ones, and still lands on the uninterrupted result bit-for-bit.
#[test]
fn resumed_campaign_matches_uninterrupted_result() {
    let full = CampaignConfig::new(Pattern::MessageRace, 8)
        .runs(8)
        .base_seed(5);
    let prefix = full.clone().runs(3);

    let (dir, store) = temp_store("resume");
    run_campaign_incremental(&prefix, &store).expect("interrupted prefix campaign");
    let resumed = run_campaign_incremental(&full, &store).expect("resumed campaign");
    let uninterrupted = run_campaign(&full).expect("uninterrupted campaign");
    assert_eq!(resumed.traces, uninterrupted.traces);
    assert_eq!(bits(&resumed.matrix), bits(&uninterrupted.matrix));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// WL interner oracle: the pre-interner relabelling, reimplemented from the
// published definition (initial labels per policy; each round hashes
// [label, MAX, sorted in-contribs, MAX-1, sorted out-contribs]; features
// count (round, label) pairs), checked against the arena/interner path.

fn relabel_reference(g: &EventGraph, labels: &[u64], edge_sensitive: bool) -> Vec<u64> {
    let contrib = |label: u64, kind: EdgeKind| -> u64 {
        if edge_sensitive {
            let k = match kind {
                EdgeKind::Program => 1u64,
                EdgeKind::Message => 2u64,
            };
            fnv1a_words(&[label, k])
        } else {
            label
        }
    };
    let mut next = Vec::with_capacity(labels.len());
    for id in g.node_ids() {
        let mut ins: Vec<u64> = g
            .in_edges(id)
            .iter()
            .map(|&(n, k)| contrib(labels[n.index()], k))
            .collect();
        let mut outs: Vec<u64> = g
            .out_edges(id)
            .iter()
            .map(|&(n, k)| contrib(labels[n.index()], k))
            .collect();
        ins.sort_unstable();
        outs.sort_unstable();
        let mut words = Vec::with_capacity(ins.len() + outs.len() + 3);
        words.push(labels[id.index()]);
        words.push(u64::MAX);
        words.extend_from_slice(&ins);
        words.push(u64::MAX - 1);
        words.extend_from_slice(&outs);
        next.push(fnv1a_words(&words));
    }
    next
}

fn features_reference(k: &WlKernel, g: &EventGraph) -> SparseFeatures {
    let mut rounds = vec![initial_labels(g, k.policy)];
    for _ in 0..k.iterations {
        let next = relabel_reference(g, rounds.last().expect("nonempty"), k.edge_sensitive);
        rounds.push(next);
    }
    let mut f = SparseFeatures::new();
    for (round, labels) in rounds.into_iter().enumerate() {
        for l in labels {
            f.add(fnv1a_words(&[round as u64, l]), 1.0);
        }
    }
    f
}

/// The interned WL implementation (dense ids + reused arena) emits feature
/// maps and label streams identical to the direct u64 relabelling it
/// replaced, across policies, edge sensitivity, and depths.
#[test]
fn interned_wl_features_match_reference_relabelling() {
    let graphs = generated_graphs();
    let policies = [
        LabelPolicy::EventType,
        LabelPolicy::TypeAndPeer,
        LabelPolicy::RankTypePeer,
    ];
    for g in &graphs {
        for policy in policies {
            for edge_sensitive in [false, true] {
                for iterations in [0u32, 2, 4] {
                    let k = WlKernel {
                        iterations,
                        policy,
                        edge_sensitive,
                    };
                    assert_eq!(
                        k.features(g),
                        features_reference(&k, g),
                        "policy={policy:?} edges={edge_sensitive} h={iterations}"
                    );
                    let rounds = k.label_rounds(g);
                    let mut expect = vec![initial_labels(g, policy)];
                    for _ in 0..iterations {
                        expect.push(relabel_reference(
                            g,
                            expect.last().expect("nonempty"),
                            edge_sensitive,
                        ));
                    }
                    assert_eq!(rounds, expect, "label rounds diverge");
                }
            }
        }
    }
}
