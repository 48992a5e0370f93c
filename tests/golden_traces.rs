//! Golden traces: the FNV-1a digest of the canonical store encoding of
//! one simulated trace, for every packaged pattern at 64 ranks, at ND 0 %
//! and 100 %, for two seeds.
//!
//! The encoding covers every event (kind, peers, tags, sizes, channel
//! sequence numbers, match partners, post ordinals, times and call-path
//! ids) plus the interned call-path table, so any change to simulation,
//! matching, event placement or program building that moves a single
//! trace byte changes a digest here. The constants were recorded from the
//! simulator before its wait and arrival-queue bookkeeping was rewritten;
//! a mismatch means a trace changed, not that the table needs updating.

use anacin_miniapps::{MiniAppConfig, Pattern};
use anacin_mpisim::engine::{simulate, SimConfig};
use anacin_store::Artifact;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const PROCS: u32 = 64;
const SEEDS: [u64; 2] = [0, 7];
const ND_PERCENTS: [f64; 2] = [0.0, 100.0];

/// `(pattern, nd %, seed, digest)`.
const GOLDEN: [(&str, u32, u64, u64); 20] = [
    ("message-race", 0, 0, 0x64fd_acdb_41ac_8481),
    ("message-race", 0, 7, 0x56dc_432b_7577_460a),
    ("message-race", 100, 0, 0x8d28_6345_a78b_fc3b),
    ("message-race", 100, 7, 0x58dd_b854_d501_7852),
    ("amg2013", 0, 0, 0x351e_cc39_fdaa_06c9),
    ("amg2013", 0, 7, 0xcb5e_70fd_b9b0_09fa),
    ("amg2013", 100, 0, 0xb003_8ba3_a18e_5090),
    ("amg2013", 100, 7, 0x2699_2956_cf4f_ccbd),
    ("unstructured-mesh", 0, 0, 0x1099_a9f6_c01f_3388),
    ("unstructured-mesh", 0, 7, 0x8c26_c605_8b64_57cf),
    ("unstructured-mesh", 100, 0, 0xa541_c4ee_82cd_23a7),
    ("unstructured-mesh", 100, 7, 0xe6e3_1458_8c13_7b9e),
    ("collectives", 0, 0, 0x162d_795d_b4b1_8b81),
    ("collectives", 0, 7, 0x6a71_edb5_e0eb_f692),
    ("collectives", 100, 0, 0x6344_bfb8_530e_b044),
    ("collectives", 100, 7, 0x557e_c549_b7f3_e86a),
    ("stencil2d", 0, 0, 0x31fc_11c8_08f0_56ea),
    ("stencil2d", 0, 7, 0x44ba_4faa_7f42_cfb5),
    ("stencil2d", 100, 0, 0x55b3_45a6_bfa8_7b24),
    ("stencil2d", 100, 7, 0xac04_d48c_63b7_11af),
];

#[test]
fn trace_bytes_match_the_golden_digests() {
    let mut got = Vec::new();
    for pattern in Pattern::ALL {
        let program = pattern.build(&MiniAppConfig::with_procs(PROCS));
        for nd in ND_PERCENTS {
            for seed in SEEDS {
                let trace = simulate(&program, &SimConfig::with_nd_percent(nd, seed))
                    .unwrap_or_else(|e| panic!("{pattern} nd={nd} seed={seed}: {e}"));
                got.push((pattern.name(), nd as u32, seed, fnv1a(&trace.to_wire())));
            }
        }
    }
    for (want, got) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            (want.0, want.1, want.2),
            (got.0, got.1, got.2),
            "golden table order"
        );
        assert_eq!(
            want.3, got.3,
            "{} nd={}% seed={}: trace digest {:#018x}, golden {:#018x}",
            got.0, got.1, got.2, got.3, want.3
        );
    }
    assert_eq!(GOLDEN.len(), got.len());
}
