//! Quickstart: configure a FeReX engine, store vectors, run a nearest
//! neighbor search, then reconfigure the same array to another distance
//! metric.
//!
//! Run with: `cargo run --example quickstart`

use ferex::core::{DistanceMetric, Ferex};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build an engine for 2-bit symbols, 8-symbol vectors, Hamming distance.
    // The builder runs the full CSP encoding pipeline: it discovers the
    // minimal cell (3 FeFETs per cell for 2-bit Hamming, as in the paper's
    // Table II) and derives the voltage encoding.
    let mut engine = Ferex::builder().metric(DistanceMetric::Hamming).bits(2).dim(8).build()?;

    println!(
        "configured {} metric with a {}FeFET{}R cell",
        engine.metric(),
        engine.encoding().k,
        engine.encoding().k
    );

    // Store a few reference vectors (one array row each).
    engine.array_mut().store(vec![0, 1, 2, 3, 3, 2, 1, 0])?;
    engine.array_mut().store(vec![3, 3, 3, 3, 0, 0, 0, 0])?;
    engine.array_mut().store(vec![0, 0, 1, 1, 2, 2, 3, 3])?;

    // One associative search returns the nearest row and all row distances.
    let query = [0, 1, 2, 3, 3, 2, 1, 1];
    let result = engine.search(&query)?;
    println!("query {query:?}");
    println!("distances: {:?}", result.distances);
    println!("nearest row: {}", result.nearest);

    // Reconfigure the SAME array to Manhattan distance — stored vectors are
    // kept, only the voltage encoding changes.
    engine.reconfigure(DistanceMetric::Manhattan)?;
    let result = engine.search(&query)?;
    println!("after reconfiguration to {}:", engine.metric());
    println!("distances: {:?}", result.distances);
    println!("nearest row: {}", result.nearest);

    // Per-search delay/energy from the analog cost models (Fig. 6).
    let cost = engine.cost_report(&query)?;
    println!(
        "search delay: {:.2} ns ({:.0}% ScL settling), energy: {:.2} pJ",
        cost.delay.total().value() * 1e9,
        cost.delay.scl_fraction() * 100.0,
        cost.energy.total().value() * 1e12
    );
    Ok(())
}
