#![forbid(unsafe_code)]
//! Ablation studies for the design choices the paper asserts (DESIGN.md §6).
//!
//! 1. **AC-3 vs plain backtracking** in encoding feasibility (Alg. 1).
//! 2. **Op-amp ScL clamp on/off** — the paper: "the op-amps of all rows are
//!    used to inhibit ScL voltage fluctuation, as the change in V_ds of
//!    FeFETs will alter the I_ON accordingly, resulting in inaccurate LTA
//!    sensing."
//! 3. **Cell size K beyond minimal** — energy cost of over-provisioned cells.
//! 4. **The 1FeFET1R series resistor** — ON-current spread with and without
//!    the resistor clamp (the Soliman/Saito device trick).
//!
//! Run with: `cargo run --release -p ferex-bench --bin ablations`

use ferex_core::feasibility::{chain_problem, enumerate_row_configs};
use ferex_core::{DistanceMatrix, DistanceMetric};
use ferex_csp::Solver;
use ferex_fefet::units::Volt;
use ferex_fefet::{Cell, Technology};

fn main() {
    ablation_ac3();
    ablation_opamp_clamp();
    ablation_cell_size();
    ablation_resistor();
}

/// Ablation 1: solve the chain CSP of 2-bit Manhattan with and without
/// propagation.
fn ablation_ac3() {
    println!("=== Ablation 1: AC-3 + forward checking vs plain backtracking ===");
    let dm = DistanceMatrix::from_metric(DistanceMetric::Manhattan, 2);
    let levels = [1u32, 2, 3];
    let domains: Vec<_> = (0..dm.n_search())
        .map(|i| enumerate_row_configs(dm.row(i), 3, &levels, 1_000_000, i == 0).expect("cap"))
        .collect();
    let problem = chain_problem(&domains);
    let smart = Solver::new().solve(&problem);
    let plain = Solver::plain().solve(&problem);
    println!(
        "  with AC-3 + FC : solution={} nodes={} backtracks={}",
        smart.solution.is_some(),
        smart.stats.nodes,
        smart.stats.backtracks
    );
    println!(
        "  plain backtrack: solution={} nodes={} backtracks={}",
        plain.solution.is_some(),
        plain.stats.nodes,
        plain.stats.backtracks
    );
    println!();
}

/// Ablation 2: replace the op-amp virtual ground with a passive sense
/// resistor and measure how the row-current margin collapses.
fn ablation_opamp_clamp() {
    println!("=== Ablation 2: op-amp ScL clamp vs passive sense resistor ===");
    let tech = Technology::default();
    let dim = 32;
    // Two rows: distances 5 and 6 (the Fig. 7 margin).
    let mut cells: Vec<Vec<Cell>> = Vec::new();
    for on_count in [5usize, 6] {
        let row: Vec<Cell> = (0..dim)
            .map(|c| {
                let mut cell = Cell::new(&tech);
                cell.fefet_mut().set_level(&tech, if c < on_count { 0 } else { 2 });
                cell
            })
            .collect();
        cells.push(row);
    }
    let v_gate = tech.search_voltage(1);
    let v_dl = tech.vds_for_multiple(1);
    let row_current = |row: &[Cell], v_scl: f64| -> f64 {
        row.iter().map(|c| c.current(&tech, v_gate, v_dl, Volt(v_scl)).value()).sum()
    };
    // Clamped: ScL held at 0.
    let clamped: Vec<f64> = cells.iter().map(|r| row_current(r, 0.0)).collect();
    // Unclamped: ScL = I·R_sense, solved by fixed point (R_sense = 50 kΩ).
    let r_sense = 50.0e3;
    let unclamped: Vec<f64> = cells
        .iter()
        .map(|r| {
            let mut i = row_current(r, 0.0);
            for _ in 0..20 {
                i = row_current(r, i * r_sense);
            }
            i
        })
        .collect();
    let margin = |v: &[f64]| (v[1] - v[0]) / v[0] * 100.0;
    println!(
        "  clamped  : I(d=5) = {:.1} nA, I(d=6) = {:.1} nA, margin {:.1}%",
        clamped[0] * 1e9,
        clamped[1] * 1e9,
        margin(&clamped)
    );
    println!(
        "  unclamped: I(d=5) = {:.1} nA, I(d=6) = {:.1} nA, margin {:.1}%",
        unclamped[0] * 1e9,
        unclamped[1] * 1e9,
        margin(&unclamped)
    );
    println!("  (the sense resistor compresses the margin the LTA must resolve)\n");
}

/// Ablation 3: energy cost of cells larger than the minimal K.
fn ablation_cell_size() {
    println!("=== Ablation 3: cell size K vs per-search driver burden ===");
    // Larger cells mean more physical columns for the same logical data:
    // driver and wire energy scale with K while the sensed information is
    // identical.
    let dim = 64usize;
    for k in [3usize, 4, 5, 6] {
        let physical_cols = dim * k;
        // Driver energy ∝ driven lines; array conduction identical.
        let factor = physical_cols as f64 / (dim * 3) as f64;
        println!(
            "  K = {k}: {physical_cols} physical columns per row ({factor:.2}x the minimal-cell wiring)"
        );
    }
    println!("  sizing therefore stops at the smallest feasible K (paper Sec. III-B)\n");
}

/// Ablation 4: ON-current spread across stored levels with and without the
/// series resistor.
fn ablation_resistor() {
    println!("=== Ablation 4: 1FeFET1R resistor clamp vs bare FeFET ===");
    let tech = Technology::default();
    let v_gate = tech.search_voltage(tech.n_vth_levels); // turns on every level
    let v_dl = tech.vds_for_multiple(2);
    let mut clamped = Vec::new();
    let mut bare = Vec::new();
    for level in 0..tech.n_vth_levels {
        let mut cell = Cell::new(&tech);
        cell.fefet_mut().set_level(&tech, level);
        clamped.push(cell.current(&tech, v_gate, v_dl, Volt(0.0)).value());
        bare.push(cell.fefet().drain_current(&tech, v_gate, v_dl).value());
    }
    let spread = |v: &[f64]| {
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / max * 100.0
    };
    println!(
        "  with resistor : currents {:?} nA, spread {:.1}%",
        clamped.iter().map(|c| (c * 1e9 * 10.0).round() / 10.0).collect::<Vec<_>>(),
        spread(&clamped)
    );
    println!(
        "  bare FeFET    : currents {:?} nA, spread {:.1}%",
        bare.iter().map(|c| (c * 1e9 * 10.0).round() / 10.0).collect::<Vec<_>>(),
        spread(&bare)
    );
    println!("  (the resistor makes ON current independent of the stored V_th,");
    println!("   which is what quantizes distances into clean I_unit multiples)");
}
