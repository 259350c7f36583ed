#![forbid(unsafe_code)]
//! Fig. 7: Monte-Carlo search accuracy under device-to-device variation.
//!
//! The paper's setup: 100 MC runs with FeFET threshold variation
//! σ = 54 mV and 1FeFET1R resistor variation 8 %; the workload is the worst
//! search case of KNN on MNIST — the query's best match sits at Hamming
//! distance 5 while competitors sit at distance 6 — and the reported result
//! is ≈90 % search accuracy (0.6 % classification degradation vs software).
//!
//! We reproduce the campaign on the device-level `Circuit` backend and
//! cross-validate with the fast statistical `Noisy` backend, then sweep the
//! distance gap to show accuracy recovering for easier cases.
//!
//! Run with: `cargo run --release -p ferex-bench --bin fig7_montecarlo`

use ferex_analog::montecarlo::{McResult, MonteCarlo};
use ferex_core::{Backend, CircuitConfig, DistanceMetric, Ferex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 64; // 2-bit symbols per stored vector
const COMPETITORS: usize = 8; // rows at the runner-up distance
const BACKDROP: usize = 7; // easy rows farther away

/// Flips `k` distinct bits of the 2-bit-symbol vector `v`.
fn at_hamming_distance(v: &[u32], k: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut out = v.to_vec();
    let mut flipped = std::collections::HashSet::new();
    while flipped.len() < k {
        let pos = rng.gen_range(0..out.len() * 2);
        if flipped.insert(pos) {
            out[pos / 2] ^= 1 << (pos % 2);
        }
    }
    out
}

/// One MC trial: build a fresh array with sampled variation, search, and
/// check the LTA picks the distance-`d_near` row over the `d_far` rows.
fn trial(backend_of: &dyn Fn(u64) -> Backend, d_near: usize, d_far: usize, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let query: Vec<u32> = (0..DIM).map(|_| rng.gen_range(0..4u32)).collect();
    let mut engine = Ferex::builder()
        .metric(DistanceMetric::Hamming)
        .bits(2)
        .dim(DIM)
        .backend(backend_of(seed))
        .build()
        .expect("2-bit Hamming always encodes");
    engine.array_mut().store(at_hamming_distance(&query, d_near, &mut rng)).expect("stores");
    for _ in 0..COMPETITORS {
        engine.array_mut().store(at_hamming_distance(&query, d_far, &mut rng)).expect("stores");
    }
    for _ in 0..BACKDROP {
        let d = rng.gen_range(3 * d_far..5 * d_far);
        engine.array_mut().store(at_hamming_distance(&query, d, &mut rng)).expect("stores");
    }
    engine.search(&query).expect("searches").nearest == 0
}

fn campaign(
    name: &str,
    backend_of: &dyn Fn(u64) -> Backend,
    runs: usize,
    d_near: usize,
    d_far: usize,
) -> McResult {
    let mc = MonteCarlo { runs, seed: 0xF167 };
    let mut k = 0u64;
    let result = mc.run(|_| {
        k += 1;
        trial(backend_of, d_near, d_far, k)
    });
    let (lo, hi) = result.wilson_95();
    println!(
        "{name:>28} | HD {d_near} vs {d_far} | accuracy {:>5.1}% (95% CI {:.1}–{:.1}%, {runs} runs)",
        result.accuracy() * 100.0,
        lo * 100.0,
        hi * 100.0
    );
    result
}

fn main() {
    println!("# Fig 7: Monte-Carlo KNN worst-case search accuracy");
    println!("# variation: sigma_Vth = 54 mV, sigma_R = 8 %, LTA offset 0.25 I_unit\n");

    let circuit = |seed: u64| -> Backend {
        Backend::Circuit(Box::new(CircuitConfig { seed, ..Default::default() }))
    };
    let noisy = |seed: u64| -> Backend {
        Backend::Noisy(Box::new(CircuitConfig { seed, ..Default::default() }))
    };
    let ideal = |_seed: u64| -> Backend { Backend::Ideal };

    // The paper's headline case: nearest at HD 5, competitors at HD 6.
    campaign("software (ideal array)", &ideal, 100, 5, 6);
    let device = campaign("device-level circuit", &circuit, 100, 5, 6);
    campaign("statistical (Noisy)", &noisy, 100, 5, 6);
    campaign("statistical, 1000 runs", &noisy, 1000, 5, 6);

    println!("\n# gap sweep (Noisy backend, 1000 runs): accuracy vs margin");
    for d_far in [6usize, 7, 8, 10] {
        campaign("", &noisy, 1000, 5, d_far);
    }

    println!(
        "\npaper reference: ~90% accuracy at HD 5-vs-6; measured device-level {:.0}%.",
        device.accuracy() * 100.0
    );
}
