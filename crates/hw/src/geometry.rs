//! Physical geometry of the wafer: die grid, per-die core grid, and the
//! coordinate systems used by the mapping and NoC crates.
//!
//! The default geometry follows §3 of the paper: a 215 mm × 215 mm wafer
//! holding 9 × 7 dies of 23 mm × 30 mm, each die a 13 × 17 grid of CIM cores
//! of 2.97 mm², for 13 923 cores and ≈54 GB of crossbar SRAM per wafer.

/// Identifier of a CIM core: a dense index into the wafer's global core grid,
/// row-major over (global row, global column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId(pub usize);

/// Cores order by index. (A derived `PartialOrd` would call the
/// `partial_cmp` the determinism lint bans.)
impl Ord for CoreId {
    fn cmp(&self, other: &CoreId) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for CoreId {
    fn partial_cmp(&self, other: &CoreId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Position of a core in the wafer-global core grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreCoord {
    /// Global row (0 at the top of the wafer).
    pub row: usize,
    /// Global column (0 at the left of the wafer).
    pub col: usize,
}

impl CoreCoord {
    /// Manhattan (L1) distance to another core in units of core-to-core hops.
    pub(crate) fn manhattan(&self, other: &CoreCoord) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

/// Position of a die in the wafer's die grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DieCoord {
    /// Die row within the wafer (0..die_rows).
    pub(crate) row: usize,
    /// Die column within the wafer (0..die_cols).
    pub(crate) col: usize,
}

/// Static description of the wafer's physical organisation.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferGeometry {
    /// Number of die rows on the wafer (9 in the paper).
    pub(crate) die_rows: usize,
    /// Number of die columns on the wafer (7 in the paper).
    pub(crate) die_cols: usize,
    /// Core rows per die (13 in the paper).
    pub(crate) core_rows_per_die: usize,
    /// Core columns per die (17 in the paper).
    pub core_cols_per_die: usize,
    /// Area of one CIM core in mm² (2.97 in the paper).
    pub(crate) core_area_mm2: f64,
    /// Wafer edge length in mm (215 in the paper).
    pub(crate) wafer_edge_mm: f64,
}

impl Default for WaferGeometry {
    fn default() -> Self {
        WaferGeometry {
            die_rows: 9,
            die_cols: 7,
            core_rows_per_die: 13,
            core_cols_per_die: 17,
            core_area_mm2: 2.97,
            wafer_edge_mm: 215.0,
        }
    }
}

impl WaferGeometry {
    /// The paper's single-wafer geometry (9 × 7 dies of 13 × 17 cores).
    pub fn paper() -> WaferGeometry {
        WaferGeometry::default()
    }

    /// A reduced geometry useful for fast tests and exact-solver oracles.
    pub fn tiny(die_rows: usize, die_cols: usize, core_rows: usize, core_cols: usize) -> WaferGeometry {
        WaferGeometry {
            die_rows,
            die_cols,
            core_rows_per_die: core_rows,
            core_cols_per_die: core_cols,
            ..WaferGeometry::default()
        }
    }

    /// Number of dies on the wafer.
    pub(crate) fn dies(&self) -> usize {
        self.die_rows * self.die_cols
    }

    /// Number of cores per die.
    pub(crate) fn cores_per_die(&self) -> usize {
        self.core_rows_per_die * self.core_cols_per_die
    }

    /// Total number of cores on the wafer.
    pub fn total_cores(&self) -> usize {
        self.dies() * self.cores_per_die()
    }

    /// Total rows of the wafer-global core grid.
    pub(crate) fn global_rows(&self) -> usize {
        self.die_rows * self.core_rows_per_die
    }

    /// Total columns of the wafer-global core grid.
    pub(crate) fn global_cols(&self) -> usize {
        self.die_cols * self.core_cols_per_die
    }

    /// Converts a core id to its global grid coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this geometry.
    pub fn coord(&self, id: CoreId) -> CoreCoord {
        assert!(id.0 < self.total_cores(), "core id {id} out of range");
        CoreCoord { row: id.0 / self.global_cols(), col: id.0 % self.global_cols() }
    }

    /// Converts a global grid coordinate back to a core id.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn id(&self, coord: CoreCoord) -> CoreId {
        assert!(
            coord.row < self.global_rows() && coord.col < self.global_cols(),
            "coordinate ({}, {}) outside the {}x{} core grid",
            coord.row,
            coord.col,
            self.global_rows(),
            self.global_cols()
        );
        CoreId(coord.row * self.global_cols() + coord.col)
    }

    /// The die a core belongs to.
    pub(crate) fn die_of(&self, id: CoreId) -> DieCoord {
        let c = self.coord(id);
        DieCoord { row: c.row / self.core_rows_per_die, col: c.col / self.core_cols_per_die }
    }

    /// Whether two cores sit on the same die (inter-die hops carry the
    /// `Cost_inter` penalty of the MIQP objective).
    pub fn same_die(&self, a: CoreId, b: CoreId) -> bool {
        self.die_of(a) == self.die_of(b)
    }

    /// Manhattan hop distance between two cores on the global core grid.
    pub fn manhattan(&self, a: CoreId, b: CoreId) -> usize {
        self.coord(a).manhattan(&self.coord(b))
    }

    /// Number of die boundaries crossed by an XY (row-then-column) route
    /// between the two cores.
    pub fn die_crossings(&self, a: CoreId, b: CoreId) -> usize {
        let da = self.die_of(a);
        let db = self.die_of(b);
        da.row.abs_diff(db.row) + da.col.abs_diff(db.col)
    }

    /// Iterator over every core id on the wafer.
    pub fn all_cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.total_cores()).map(CoreId)
    }

    /// Core ids ordered along the S-shaped (boustrophedon) logical route the
    /// paper uses for sequential pipeline dataflow across dies: dies are
    /// visited left-to-right on even die rows and right-to-left on odd die
    /// rows, and within each die cores follow the same serpentine pattern
    /// over core rows.
    pub fn s_order(&self) -> Vec<CoreId> {
        let mut order = Vec::with_capacity(self.total_cores());
        for die_r in 0..self.die_rows {
            let die_cols: Vec<usize> = if die_r % 2 == 0 {
                (0..self.die_cols).collect()
            } else {
                (0..self.die_cols).rev().collect()
            };
            for die_c in die_cols {
                for r in 0..self.core_rows_per_die {
                    let cols: Vec<usize> = if r % 2 == 0 {
                        (0..self.core_cols_per_die).collect()
                    } else {
                        (0..self.core_cols_per_die).rev().collect()
                    };
                    for c in cols {
                        let coord = CoreCoord {
                            row: die_r * self.core_rows_per_die + r,
                            col: die_c * self.core_cols_per_die + c,
                        };
                        order.push(self.id(coord));
                    }
                }
            }
        }
        order
    }

    /// Total crossbar SRAM on the wafer in bytes, given the per-core SRAM
    /// capacity (4 MiB for the paper's core).
    pub fn total_sram_bytes(&self, per_core_bytes: u64) -> u64 {
        self.total_cores() as u64 * per_core_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_geometry_counts() {
        let g = WaferGeometry::paper();
        assert_eq!(g.dies(), 63);
        assert_eq!(g.cores_per_die(), 221);
        assert_eq!(g.total_cores(), 13_923);
    }

    #[test]
    fn paper_wafer_holds_about_54_gb_of_sram() {
        let g = WaferGeometry::paper();
        let four_mib = 4 * 1024 * 1024;
        let gb = g.total_sram_bytes(four_mib) as f64 / 1e9;
        assert!(gb > 53.0 && gb < 60.0, "got {gb} GB");
    }

    #[test]
    fn id_coord_roundtrip() {
        let g = WaferGeometry::paper();
        for id in [0, 1, 118, 119, 6000, 13_922] {
            let id = CoreId(id);
            assert_eq!(g.id(g.coord(id)), id);
        }
    }

    #[test]
    fn die_of_first_and_last_core() {
        let g = WaferGeometry::paper();
        assert_eq!(g.die_of(CoreId(0)), DieCoord { row: 0, col: 0 });
        let last = CoreId(g.total_cores() - 1);
        assert_eq!(g.die_of(last), DieCoord { row: 8, col: 6 });
    }

    #[test]
    fn manhattan_is_symmetric_and_zero_on_self() {
        let g = WaferGeometry::paper();
        let a = CoreId(5);
        let b = CoreId(300);
        assert_eq!(g.manhattan(a, b), g.manhattan(b, a));
        assert_eq!(g.manhattan(a, a), 0);
    }

    #[test]
    fn adjacent_cores_in_same_die_have_no_crossing() {
        let g = WaferGeometry::paper();
        let a = g.id(CoreCoord { row: 0, col: 0 });
        let b = g.id(CoreCoord { row: 0, col: 1 });
        assert_eq!(g.die_crossings(a, b), 0);
        // A core in the next die column over crosses one boundary.
        let c = g.id(CoreCoord { row: 0, col: g.core_cols_per_die });
        assert_eq!(g.die_crossings(a, c), 1);
    }

    #[test]
    fn s_order_visits_every_core_once() {
        let g = WaferGeometry::tiny(2, 2, 3, 3);
        let order = g.s_order();
        assert_eq!(order.len(), g.total_cores());
        let mut seen = vec![false; g.total_cores()];
        for id in &order {
            assert!(!seen[id.0], "core {id} visited twice");
            seen[id.0] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn s_order_consecutive_cores_are_close() {
        // The serpentine order should keep consecutive cores within a small
        // Manhattan distance (the point of the S-shaped route).
        let g = WaferGeometry::tiny(2, 3, 4, 4);
        let order = g.s_order();
        let max_gap = order.windows(2).map(|w| g.manhattan(w[0], w[1])).max().unwrap();
        assert!(
            max_gap <= g.core_rows_per_die + g.core_cols_per_die,
            "serpentine jump of {max_gap} hops is too large"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_panics_on_bad_id() {
        let g = WaferGeometry::tiny(1, 1, 2, 2);
        g.coord(CoreId(4));
    }

    proptest! {
        #[test]
        fn roundtrip_all_ids(die_r in 1usize..4, die_c in 1usize..4,
                             rows in 1usize..5, cols in 1usize..5) {
            let g = WaferGeometry::tiny(die_r, die_c, rows, cols);
            for id in g.all_cores() {
                prop_assert_eq!(g.id(g.coord(id)), id);
                let die = g.die_of(id);
                prop_assert!(die.row < die_r && die.col < die_c);
            }
        }

        #[test]
        fn manhattan_triangle_inequality(a in 0usize..13923, b in 0usize..13923, c in 0usize..13923) {
            let g = WaferGeometry::paper();
            let (a, b, c) = (CoreId(a), CoreId(b), CoreId(c));
            prop_assert!(g.manhattan(a, c) <= g.manhattan(a, b) + g.manhattan(b, c));
        }
    }
}
