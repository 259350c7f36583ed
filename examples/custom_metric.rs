//! Beyond the three paper metrics: encode a *user-defined* distance
//! function. FeReX's CSP pipeline accepts any function table — here an
//! asymmetric "substitution cost" matrix (e.g. penalizing upward symbol
//! errors more than downward ones), which no fixed-function AM supports.
//!
//! Run with: `cargo run --release --example custom_metric`

use ferex::core::array::{Backend, FerexArray};
use ferex::core::{find_minimal_cell, sizing_for, DistanceMatrix};
use ferex::fefet::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Asymmetric 4-value cost table: cost(search=i, stored=j).
    // Underestimates (stored < search) are penalized twice as hard.
    let table = vec![vec![0, 1, 2, 3], vec![2, 0, 1, 2], vec![4, 2, 0, 1], vec![6, 4, 2, 0]];
    let dm = DistanceMatrix::from_table(table);
    println!("custom (asymmetric) cost table:\n{dm}");
    println!("metric-like (symmetric, zero diagonal)? {}", dm.is_metric_like());

    let tech = Technology::default();
    let report = find_minimal_cell(&dm, &sizing_for(&tech))?;
    println!(
        "sized to a {}FeFET{}R cell ({} V_th levels, V_ds up to {} units)",
        report.encoding.k,
        report.encoding.k,
        report.encoding.vth_levels_used,
        report.encoding.max_vds_multiple
    );
    println!("{}", report.encoding);
    report.encoding.verify(&dm).map_err(|e| format!("verify failed: {e}"))?;
    println!("verification: encoding reproduces the custom table exactly\n");

    // Use it: an array of 6-symbol vectors under the custom cost.
    let mut array = FerexArray::new(tech, report.encoding, 6, Backend::Ideal);
    array.store(vec![2, 2, 2, 2, 2, 2])?;
    array.store(vec![1, 1, 1, 1, 1, 1])?;
    let out = array.search_batch_at(&[vec![2, 2, 2, 1, 1, 1]], &[0])?;
    println!("query [2,2,2,1,1,1] vs stored rows: costs {:?}", out[0].distances);
    println!("nearest (lowest asymmetric cost): row {}", out[0].nearest);
    Ok(())
}
