//! The sixteen-lane kernel against the reference scanner, whole hit lists
//! at a time: every position where the pattern fires, not only the cuts
//! placed from them (a cut walk can hide a wrong hit behind a forced cut).
//!
//! Three hit paths are held to the per-byte reference scanner
//! (`CyclicPoly::roll`):
//!
//! * `lanes::pattern_hits` — the kernel over every input size it can
//!   cover; on a CPU without `avx512f` this check prints that it was
//!   skipped,
//! * `scalar_pattern_hits` — the scalar scanner every host can take,
//! * `pattern_hits` — the production choice between them.
//!
//! Inputs: every length 0..=4096, lengths around the kernel's size
//! threshold and every residue of the lane step, windows
//! 1/4/16/47/48/49/64/65 and one past the kernel's bound (which the
//! kernel must refuse) and `leaf_bits` 1/4/12/16, random, all-zero, period-48 and wiki text,
//! and hits planted on each lane's first and last byte.

use forkbase_crypto::chunker::{scalar_pattern_hits, LANE_SCAN_MIN};
use forkbase_crypto::{lanes, pattern_hits, ChunkerConfig, CyclicPoly};
use std::sync::Once;

fn random(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn wiki(len: usize, seed: u64) -> Vec<u8> {
    const WORDS: [&str; 10] = [
        "the ",
        "storage ",
        "engine ",
        "fork ",
        "[[branch]] ",
        "merge ",
        "chunk ",
        "tree ",
        "== version ==\n",
        "state. ",
    ];
    let picks = random(len, seed);
    let mut out = Vec::with_capacity(len + 16);
    for &p in &picks {
        if out.len() >= len {
            break;
        }
        out.extend_from_slice(WORDS[p as usize % WORDS.len()].as_bytes());
    }
    out.truncate(len);
    out
}

fn inputs(len: usize, seed: u64) -> [(&'static str, Vec<u8>); 4] {
    [
        ("random", random(len, seed)),
        ("zero", vec![0u8; len]),
        (
            "period-48",
            (0..len).map(|i| ((i % 48) * 37 + 11) as u8).collect(),
        ),
        ("wiki", wiki(len, seed)),
    ]
}

fn cfg(window: usize, leaf_bits: u32) -> ChunkerConfig {
    ChunkerConfig {
        window,
        ..ChunkerConfig::with_leaf_bits(leaf_bits)
    }
}

/// The oracle: one reference `roll` per byte, a hit wherever the primed
/// hash matches the mask.
fn reference_hits(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    let mask = cfg.leaf_mask();
    let mut h = CyclicPoly::new(cfg.window);
    let mut hits = Vec::new();
    for (i, &b) in data.iter().enumerate() {
        let v = h.roll(b);
        if h.primed() && v & mask == 0 {
            hits.push(i + 1);
        }
    }
    hits
}

fn kernel_runs() -> bool {
    static NOTE: Once = Once::new();
    let runs = lanes::available();
    NOTE.call_once(|| {
        if runs {
            println!("lane_scan: avx512f present, the lane kernel is checked");
        } else {
            println!("lane_scan: no avx512f on this CPU, lane kernel checks SKIPPED (scalar hit path still checked)");
        }
    });
    runs
}

/// Every hit path agrees with the oracle on `data`.
fn check(data: &[u8], cfg: &ChunkerConfig, what: &str) {
    let want = reference_hits(data, cfg);
    assert_eq!(scalar_pattern_hits(data, cfg), want, "scalar: {what}");
    assert_eq!(pattern_hits(data, cfg), want, "production: {what}");
    let fits = cfg.window <= lanes::MAX_WINDOW;
    match lanes::pattern_hits(data, cfg) {
        Some(got) => {
            assert!(fits, "kernel took a window past its ring: {what}");
            assert_eq!(got, want, "lanes: {what}");
        }
        None => assert!(!(kernel_runs() && fits), "kernel refused: {what}"),
    }
}

#[test]
fn every_length_to_4096() {
    for len in 0..=4096usize {
        let data = random(len, len as u64);
        check(&data, &cfg(48, 4), &format!("random len {len}"));
    }
}

#[test]
fn lengths_around_the_threshold_and_every_lane_step_residue() {
    let step = lanes::LANES * lanes::STEP;
    let mut lens: Vec<usize> = (LANE_SCAN_MIN - step..=LANE_SCAN_MIN + step).collect();
    lens.extend((0..step).map(|r| 40 * step + r));
    for len in lens {
        for (kind, data) in inputs(len, len as u64 + 7) {
            check(&data, &cfg(48, 4), &format!("{kind} len {len}"));
        }
    }
}

#[test]
fn windows_and_leaf_bits() {
    for window in [1usize, 4, 16, 47, 48, 49, 64, 65, lanes::MAX_WINDOW + 1] {
        for leaf_bits in [1u32, 4, 12, 16] {
            for len in [window, 4 * 128 + 5, LANE_SCAN_MIN + 77, 70_000] {
                for (kind, data) in inputs(len, window as u64 * 31 + leaf_bits as u64) {
                    let what = format!("{kind} len {len} window {window} leaf_bits {leaf_bits}");
                    check(&data, &cfg(window, leaf_bits), &what);
                }
            }
        }
    }
}

/// Set byte `j` so the hash of the window ending there matches the mask.
/// Only positions from `j` on see the change, so planting in increasing
/// order keeps earlier plants.
fn plant(data: &mut [u8], j: usize, cfg: &ChunkerConfig) {
    let hash_at = |data: &[u8]| {
        let mut h = CyclicPoly::new(cfg.window);
        let mut v = 0;
        for &b in &data[(j + 1).saturating_sub(cfg.window)..=j] {
            v = h.roll(b);
        }
        v
    };
    let mask = cfg.leaf_mask();
    for b in 0..=255u8 {
        data[j] = b;
        if hash_at(data) & mask == 0 {
            return;
        }
    }
    panic!("no byte value plants a hit at {j}");
}

#[test]
fn hits_planted_on_every_lane_edge() {
    if !kernel_runs() {
        return;
    }
    for window in [1usize, 48] {
        for tail in [0usize, 77] {
            let cfg = cfg(window, 6);
            let len = 64 * lanes::LANES * lanes::STEP + tail;
            let seg = (len / (lanes::LANES * lanes::STEP)) * lanes::STEP;
            let mut data = random(len, window as u64 + tail as u64);
            // Lane edges, plus the last unprimed byte of the input.
            let mut at: Vec<usize> = (0..lanes::LANES)
                .flat_map(|lane| [lane * seg, (lane + 1) * seg - 1])
                .collect();
            at.push(window.saturating_sub(2));
            at.sort_unstable();
            at.dedup();
            for &j in &at {
                plant(&mut data, j, &cfg);
            }
            let want = reference_hits(&data, &cfg);
            for &j in &at {
                assert_eq!(want.contains(&(j + 1)), j + 1 >= window, "planted at {j}");
            }
            let what = format!("planted, window {window} tail {tail}");
            assert_eq!(lanes::pattern_hits(&data, &cfg), Some(want), "{what}");
        }
    }
}
