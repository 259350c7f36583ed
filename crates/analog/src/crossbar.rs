//! The 1FeFET1R crossbar array (paper Fig. 2(a)).
//!
//! Search lines (SLs, gates) and drain lines (DLs) run vertically and are
//! shared per column; source lines (ScLs) run horizontally and collect each
//! row's aggregate current into the row's interface op-amp. This module
//! models the electrical array: cell grid, per-column drive, per-row current
//! summation with optional ScL IR-drop, and row programming with the
//! half-voltage inhibition scheme.

use crate::parasitics::WireParams;
use ferex_fefet::units::{Amp, Volt};
use ferex_fefet::{Cell, DeviceSample, ProgramVthError, Technology, VariationModel, WriteScheme};
use rand::Rng;

/// Per-column search stimulus: gate (SL) and drain (DL) voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnDrive {
    /// Voltage applied to the column's search line (FeFET gates).
    pub v_gate: Volt,
    /// Voltage applied to the column's drain line.
    pub v_dl: Volt,
}

impl ColumnDrive {
    /// A column that is completely deselected (gate and drain grounded).
    pub const IDLE: ColumnDrive = ColumnDrive { v_gate: Volt(0.0), v_dl: Volt(0.0) };
}

/// Electrical fidelity knobs for the array model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayOptions {
    /// Model the resistive voltage rise along each ScL (far cells see a
    /// slightly raised source rail). Requires a short fixed-point solve.
    pub ir_drop: bool,
    /// Use the exact series cell solve instead of the `min(I_sat, V/R)`
    /// approximation.
    pub exact_cell_solve: bool,
    /// Voltage the interface op-amp holds each ScL at (after its gain
    /// error).
    pub v_scl: Volt,
}

impl Default for ArrayOptions {
    fn default() -> Self {
        ArrayOptions { ir_drop: true, exact_cell_solve: false, v_scl: Volt(0.0) }
    }
}

/// A rows × cols crossbar of 1FeFET1R cells.
///
/// # Examples
///
/// ```
/// use ferex_analog::crossbar::{ArrayOptions, ColumnDrive, Crossbar};
/// use ferex_fefet::Technology;
///
/// let tech = Technology::default();
/// let mut xb = Crossbar::new(tech.clone(), Default::default(), 2, 3);
/// xb.program(0, 0, 0); // store level 0 at row 0, col 0
/// let drives = vec![
///     ColumnDrive { v_gate: tech.search_voltage(1), v_dl: tech.vds_for_multiple(1) },
///     ColumnDrive::IDLE,
///     ColumnDrive::IDLE,
/// ];
/// let currents = xb.search(&drives, &ArrayOptions::default());
/// assert!(currents[0].value() > currents[1].value());
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    tech: Technology,
    wire: WireParams,
    rows: usize,
    cols: usize,
    cells: Vec<Cell>,
}

impl Crossbar {
    /// Creates a nominal array (no device variation), all cells erased.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn new(tech: Technology, wire: WireParams, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        let proto = Cell::new(&tech);
        let cells = vec![proto; rows * cols];
        Crossbar { tech, wire, rows, cols, cells }
    }

    /// Creates an array with a fresh device-variation sample per cell.
    pub fn with_variation<R: Rng + ?Sized>(
        tech: Technology,
        wire: WireParams,
        rows: usize,
        cols: usize,
        variation: &VariationModel,
        rng: &mut R,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        let mut cells = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            let sample =
                if variation.is_nominal() { DeviceSample::NOMINAL } else { variation.sample(rng) };
            cells.push(Cell::with_variation(&tech, sample));
        }
        Crossbar { tech, wire, rows, cols, cells }
    }

    /// Number of rows (stored vectors).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (physical FeFETs per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The technology card the array was built with.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The wire parasitics.
    pub fn wire(&self) -> &WireParams {
        &self.wire
    }

    /// The cell at (row, col), or `None` out of range.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Cell> {
        self.cells.get(self.index(row, col)?)
    }

    /// Mutable access to the cell at (row, col), or `None` out of range.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> Option<&mut Cell> {
        let i = self.index(row, col)?;
        self.cells.get_mut(i)
    }

    fn index(&self, row: usize, col: usize) -> Option<usize> {
        (row < self.rows && col < self.cols).then_some(row * self.cols + col)
    }

    /// Ideally programs the cell at (row, col) to threshold level `level`.
    ///
    /// # Panics
    ///
    /// Panics if (row, col) is out of range.
    pub fn program(&mut self, row: usize, col: usize, level: usize) {
        assert!(row < self.rows && col < self.cols, "cell ({row},{col}) out of range");
        let tech = self.tech.clone();
        if let Some(cell) = self.cell_mut(row, col) {
            cell.fefet_mut().set_level(&tech, level);
        }
    }

    /// Programs an entire row with ISPP pulses while applying half-voltage
    /// disturb pulses to every other row — the write-inhibition scheme of
    /// paper Sec. III-A. `levels` must have one entry per column.
    ///
    /// # Errors
    ///
    /// Returns the first per-cell convergence failure.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != cols` or `row` is out of range.
    pub fn program_row_with_inhibit(
        &mut self,
        row: usize,
        levels: &[usize],
        scheme: &WriteScheme,
    ) -> Result<(), ProgramVthError> {
        assert_eq!(levels.len(), self.cols, "one level per column required");
        assert!(row < self.rows, "row {row} out of range");
        let tech = self.tech.clone();
        let mut total_pulses = 0usize;
        if let Some(cells) = self.cells.chunks_exact_mut(self.cols).nth(row) {
            for (cell, &level) in cells.iter_mut().zip(levels) {
                let report = scheme.program_to_level(cell.fefet_mut(), &tech, level)?;
                total_pulses += report.pulses + 1; // +1 for the erase
            }
        }
        // Every pulse applied to the selected row exposes unselected rows to
        // V_write/2 on the shared column lines.
        for (r, cells) in self.cells.chunks_exact_mut(self.cols).enumerate() {
            if r == row {
                continue;
            }
            for cell in cells {
                scheme.disturb(cell.fefet_mut(), &tech, total_pulses.min(64));
            }
        }
        Ok(())
    }

    /// Current of a single row under the given per-column drives.
    ///
    /// With `options.ir_drop` the resistive rise of the ScL toward far
    /// columns is resolved by a short fixed-point iteration (cell currents
    /// are resistor-clamped, so one or two sweeps converge).
    ///
    /// # Panics
    ///
    /// Panics if `drives.len() != cols` or `row` is out of range.
    pub fn row_current(&self, row: usize, drives: &[ColumnDrive], options: &ArrayOptions) -> Amp {
        assert_eq!(drives.len(), self.cols, "one drive per column required");
        assert!(row < self.rows, "row {row} out of range");
        let Some(cells) = self.cells.chunks_exact(self.cols).nth(row) else {
            return Amp(0.0);
        };
        let cell_current = |cell: &Cell, d: &ColumnDrive, v_scl_local: Volt| -> Amp {
            if options.exact_cell_solve {
                cell.current(&self.tech, d.v_gate, d.v_dl, v_scl_local)
            } else {
                cell.current_approx(&self.tech, d.v_gate, d.v_dl, v_scl_local)
            }
        };
        let columns = || cells.iter().zip(drives);
        if !options.ir_drop {
            return columns().map(|(cell, d)| cell_current(cell, d, options.v_scl)).sum();
        }
        // Fixed-point on the local ScL potential: the op-amp clamps the line
        // at column 0; current from far cells flows through the accumulated
        // wire resistance.
        let rw = self.wire.r_per_cell.value();
        let mut currents: Vec<f64> =
            columns().map(|(cell, d)| cell_current(cell, d, options.v_scl).value()).collect();
        for _ in 0..3 {
            // Potential at column j = sum over segments m<=j of Rw * (current
            // flowing through segment m) = Rw * Σ_{m<=j} Σ_{k>=m} I_k. The
            // suffix sums run in from the far end: suffix[c] = suffix[c+1] + I_c.
            let mut suffix = vec![0.0f64; self.cols];
            let mut tail = 0.0f64;
            for (s, &i) in suffix.iter_mut().zip(&currents).rev() {
                tail += i; // lint:allow(float-order/accumulation, reason = "one row's ScL solve sums its columns in one fixed far-to-near order, the same for every read and batch shape")
                *s = tail;
            }
            let mut potential = options.v_scl.value();
            currents = columns()
                .zip(&suffix)
                .map(|((cell, d), s)| {
                    potential += rw * s;
                    cell_current(cell, d, Volt(potential)).value()
                })
                .collect();
        }
        Amp(currents.iter().sum())
    }

    /// Currents of every row under the same per-column drives — one parallel
    /// associative search operation.
    pub fn search(&self, drives: &[ColumnDrive], options: &ArrayOptions) -> Vec<Amp> {
        (0..self.rows).map(|r| self.row_current(r, drives, options)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple_array(rows: usize, cols: usize) -> (Technology, Crossbar) {
        let tech = Technology::default();
        (tech.clone(), Crossbar::new(tech, WireParams::default(), rows, cols))
    }

    fn unit_drive(tech: &Technology) -> ColumnDrive {
        ColumnDrive { v_gate: tech.search_voltage(1), v_dl: tech.vds_for_multiple(1) }
    }

    #[test]
    fn row_current_counts_on_cells() {
        let (tech, mut xb) = simple_array(1, 4);
        // Two cells at level 0 (ON under search 1), two at level 2 (OFF).
        xb.program(0, 0, 0);
        xb.program(0, 1, 2);
        xb.program(0, 2, 0);
        xb.program(0, 3, 2);
        let drives = vec![unit_drive(&tech); 4];
        let i = xb.row_current(0, &drives, &ArrayOptions::default());
        let units = i.value() / tech.i_unit().value();
        assert!((units - 2.0).abs() < 0.05, "expected 2 units, got {units}");
    }

    #[test]
    fn search_distinguishes_rows() {
        let (tech, mut xb) = simple_array(3, 4);
        // Row r has r cells ON.
        for r in 0..3 {
            for c in 0..4 {
                xb.program(r, c, if c < r { 0 } else { 2 });
            }
        }
        let drives = vec![unit_drive(&tech); 4];
        let currents = xb.search(&drives, &ArrayOptions::default());
        assert!(currents[0] < currents[1]);
        assert!(currents[1] < currents[2]);
    }

    #[test]
    fn idle_columns_contribute_nothing() {
        let (tech, mut xb) = simple_array(1, 2);
        xb.program(0, 0, 0);
        xb.program(0, 1, 0);
        let drives = vec![unit_drive(&tech), ColumnDrive::IDLE];
        let i = xb.row_current(0, &drives, &ArrayOptions::default());
        let units = i.value() / tech.i_unit().value();
        assert!((units - 1.0).abs() < 0.05, "idle column leaked: {units}");
    }

    #[test]
    fn ir_drop_reduces_far_cell_current_slightly() {
        let (tech, mut xb) = simple_array(1, 256);
        for c in 0..256 {
            xb.program(0, c, 0);
        }
        let drives = vec![unit_drive(&tech); 256];
        let with = xb
            .row_current(0, &drives, &ArrayOptions { ir_drop: true, ..Default::default() })
            .value();
        let without = xb
            .row_current(0, &drives, &ArrayOptions { ir_drop: false, ..Default::default() })
            .value();
        assert!(with < without, "IR drop must reduce total current");
        // With MΩ cells and Ω wires the worst-case (every cell ON across a
        // 256-cell line) effect stays under ten percent.
        assert!((without - with) / without < 0.1, "IR drop unreasonably large");
    }

    #[test]
    fn exact_solve_agrees_with_approximation() {
        let (tech, mut xb) = simple_array(2, 8);
        for c in 0..8 {
            xb.program(0, c, if c % 2 == 0 { 0 } else { 2 });
            xb.program(1, c, 0);
        }
        let drives = vec![unit_drive(&tech); 8];
        let approx = xb.search(&drives, &ArrayOptions::default());
        let exact =
            xb.search(&drives, &ArrayOptions { exact_cell_solve: true, ..Default::default() });
        for (a, e) in approx.iter().zip(&exact) {
            let rel = (a.value() - e.value()).abs() / e.value().max(1e-12);
            assert!(rel < 0.1, "approx {a:?} vs exact {e:?}");
        }
    }

    #[test]
    fn variation_array_differs_from_nominal() {
        let tech = Technology::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut varied = Crossbar::with_variation(
            tech.clone(),
            WireParams::default(),
            1,
            16,
            &VariationModel::default(),
            &mut rng,
        );
        let (_, mut nominal) = simple_array(1, 16);
        for c in 0..16 {
            varied.program(0, c, 0);
            nominal.program(0, c, 0);
        }
        let drives = vec![unit_drive(&tech); 16];
        let iv = varied.row_current(0, &drives, &ArrayOptions::default()).value();
        let inom = nominal.row_current(0, &drives, &ArrayOptions::default()).value();
        assert!((iv - inom).abs() > 1e-9, "variation had no effect");
        // But the resistor clamp keeps it within ~ 8 %/√16 · few σ.
        assert!((iv - inom).abs() / inom < 0.2);
    }

    #[test]
    fn pulsed_row_programming_preserves_other_rows() {
        let (tech, mut xb) = simple_array(3, 2);
        let scheme = WriteScheme::default();
        xb.program_row_with_inhibit(0, &[1, 2], &scheme).expect("row 0 programs");
        xb.program_row_with_inhibit(1, &[0, 3], &scheme).expect("row 1 programs");
        // Row 0's levels must survive row 1's write thanks to inhibition.
        let level = |r, c| xb.cell(r, c).and_then(|cell| cell.fefet().level(&tech));
        assert_eq!(level(0, 0), Some(1));
        assert_eq!(level(0, 1), Some(2));
        assert_eq!(level(1, 0), Some(0));
        assert_eq!(level(1, 1), Some(3));
    }

    #[test]
    fn cell_access_bounds_checked() {
        let (_, mut xb) = simple_array(2, 2);
        assert!(xb.cell(1, 1).is_some());
        assert!(xb.cell(2, 0).is_none());
        assert!(xb.cell(0, 2).is_none());
        assert!(xb.cell_mut(2, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "one drive per column")]
    fn drive_arity_checked() {
        let (_, xb) = simple_array(1, 3);
        let _ = xb.row_current(0, &[ColumnDrive::IDLE], &ArrayOptions::default());
    }
}
