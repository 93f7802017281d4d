//! Where on the map a run of searches looked.
//!
//! A search reads an edge's weight — and so whether the edge is closed —
//! only when it settles the edge's tail (a forward search, over
//! out-edges) or its head (a backward search, over in-edges). A run of
//! searches that settled no endpoint of an edge therefore runs the same
//! whatever that edge's closure status: every decision it made read the
//! same weights. [`ReadCells`] records that set coarsely — the cells of
//! a fixed [`GRID`] × [`GRID`] grid over the network's bounding box whose
//! vertices some search settled — so it costs 128 bytes per run whatever
//! the network's size, and answers "could this edge have been read?" with
//! a superset: [`ReadCells::reads_edge`] tests both endpoints' cells.
//!
//! A workspace records only when asked ([`crate::SearchSpace::record_reads`]):
//! its searches run under a rule that marks each settled vertex's cell,
//! and every other search runs as it did, at one untaken branch per
//! query. A serving layer records a request's tree pair that way, and
//! hands each technique's [`crate::AlternativesProvider::answer`] a
//! record seeded with the pair's cells (or an empty one, for a technique
//! that reads no pair) to which the technique's own searches add theirs.
//! Whether a record is worth keeping — whether the call ran to its end —
//! is the caller's judgement.

use std::sync::Arc;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};

use crate::kernel::Recorded;

/// Cells per side of the grid: 32 × 32 cells over the bounding box.
pub const GRID: usize = 32;

/// Words of a [`CellSet`]: one bit per cell.
const WORDS: usize = GRID * GRID / 64;

/// The grid cell of every vertex, 2 bytes a vertex: row-major over the
/// network's bounding box, a vertex on the far edge in the last cell.
/// Built once per network, by whoever records with it.
pub struct CellMap {
    cells: Vec<u16>,
}

impl std::fmt::Debug for CellMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellMap")
            .field("vertices", &self.cells.len())
            .finish()
    }
}

impl CellMap {
    /// The cell of every vertex of `net`.
    pub fn new(net: &RoadNetwork) -> CellMap {
        let bb = net.bbox();
        let (w, h) = (bb.width_deg().max(1e-9), bb.height_deg().max(1e-9));
        let slot = |unit: f64| ((unit * GRID as f64) as usize).min(GRID - 1);
        let cells = net
            .points()
            .iter()
            .map(|p| {
                let (x, y) = (
                    slot((p.lon - bb.min_lon) / w),
                    slot((p.lat - bb.min_lat) / h),
                );
                (y * GRID + x) as u16
            })
            .collect();
        CellMap { cells }
    }

    /// The cell of `v`.
    #[inline]
    pub fn cell(&self, v: NodeId) -> u16 {
        self.cells[v.index()]
    }
}

/// A set of grid cells: one bit per cell, 128 bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellSet([u64; WORDS]);

impl CellSet {
    /// Adds `cell`.
    #[inline]
    pub fn insert(&mut self, cell: u16) {
        self.0[cell as usize / 64] |= 1 << (cell % 64);
    }

    /// Whether `cell` is in the set.
    #[inline]
    pub fn contains(&self, cell: u16) -> bool {
        self.0[cell as usize / 64] & (1 << (cell % 64)) != 0
    }

    /// Adds every cell of `other`.
    pub fn union_with(&mut self, other: &CellSet) {
        for (word, &theirs) in self.0.iter_mut().zip(&other.0) {
            *word |= theirs;
        }
    }
}

/// The cells a run of searches read, with the map that names them.
#[derive(Clone, Debug)]
pub struct ReadCells {
    map: Arc<CellMap>,
    cells: CellSet,
}

impl ReadCells {
    /// An empty record over `map`.
    pub fn new(map: &Arc<CellMap>) -> ReadCells {
        ReadCells {
            map: Arc::clone(map),
            cells: CellSet::default(),
        }
    }

    /// The map that names the record's cells.
    pub(crate) fn map(&self) -> &Arc<CellMap> {
        &self.map
    }

    /// `rule`, marking here the cell of every vertex its search settles.
    pub(crate) fn recording<R>(&mut self, rule: R) -> Recorded<'_, R> {
        Recorded {
            rule,
            cells: &self.map.cells,
            read: &mut self.cells,
        }
    }

    /// The cells read.
    pub fn cells(&self) -> &CellSet {
        &self.cells
    }

    /// Adds what another run over the same map read: the record of both
    /// runs, one after the other.
    pub fn union_with(&mut self, other: &ReadCells) {
        debug_assert!(Arc::ptr_eq(&self.map, &other.map), "two maps");
        self.cells.union_with(&other.cells);
    }

    /// Whether the run could have read edge `e` of `net`: its tail's cell
    /// (a forward search settles the tail) or its head's (a backward
    /// search settles the head) was read. `false` proves that changing
    /// `e` — closing or reopening it — changes nothing the run did.
    pub fn reads_edge(&self, net: &RoadNetwork, e: EdgeId) -> bool {
        let read = |v| self.cells.contains(self.map.cell(v));
        read(net.tail(e)) || read(net.head(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;

    #[test]
    fn a_cell_set_holds_every_cell_of_the_grid() {
        let mut set = CellSet::default();
        let every = 0..(GRID * GRID) as u16;
        for cell in every.clone().step_by(7) {
            assert!(!set.contains(cell));
            set.insert(cell);
            assert!(set.contains(cell));
        }
        assert!(every
            .clone()
            .all(|cell| set.contains(cell) == (cell % 7 == 0)));
        assert_eq!(std::mem::size_of::<CellSet>(), 128);
        let mut other = CellSet::default();
        other.insert(1);
        other.insert(GRID as u16 * GRID as u16 - 1);
        other.union_with(&set);
        assert!(every
            .clone()
            .all(|cell| other.contains(cell)
                == (cell % 7 == 0 || cell == 1 || cell == every.end - 1)));
    }

    #[test]
    fn the_corners_of_the_box_fall_in_the_corner_cells() {
        let net = grid(8);
        let map = CellMap::new(&net);
        let bb = net.bbox();
        for v in net.nodes() {
            let p = net.point(v);
            let cell = map.cell(v) as usize;
            let (x, y) = (cell % GRID, cell / GRID);
            assert_eq!(x == 0, p.lon == bb.min_lon, "{v:?}");
            assert_eq!(x == GRID - 1, p.lon == bb.max_lon, "{v:?}");
            assert_eq!(y == 0, p.lat == bb.min_lat, "{v:?}");
            assert_eq!(y == GRID - 1, p.lat == bb.max_lat, "{v:?}");
        }
    }

    #[test]
    fn an_edge_is_read_through_either_endpoint() {
        let net = grid(8);
        let map = Arc::new(CellMap::new(&net));
        let e = net.edges().next().unwrap();
        let (tail, head) = (net.tail(e), net.head(e));
        assert_ne!(map.cell(tail), map.cell(head));
        for settled in [tail, head] {
            let mut reads = ReadCells::new(&map);
            assert!(!reads.reads_edge(&net, e));
            reads.cells.insert(map.cell(settled));
            assert!(reads.reads_edge(&net, e), "{settled:?}");
        }
    }
}
