//! **Landmark lower bounds** (ALT, Goldberg & Harrelson): a table of
//! exact distances between every vertex and a few landmarks, built once
//! per weight column, that bounds any distance from below by the triangle
//! inequality:
//!
//! ```text
//! lb(v, t) = max over L of max(d(L, t) − d(L, v), d(v, L) − d(t, L))  ≤  d(v, t)
//! ```
//!
//! The bound is **consistent** — `lb(u, t) ≤ w(u, v) + lb(v, t)` on every
//! arc — and it follows a column that is dearer than the table's by a
//! factor: it is read at a **bound scale** `s` (16.16 fixed point,
//! [`UNIT_SCALE`] = 1.0) as `⌊s · lb(v, t)⌋`. When every open edge of a
//! column weighs `w ≥ s · base`, `base` its weight in the table's column,
//! the scaled bound is
//!
//! - *a lower bound there*: `d(v, t) ≥ s · d_base(v, t) ≥ s · lb(v, t)`;
//! - *consistent there*: `s · lb(u) ≤ s · base(u, v) + s · lb(v) ≤
//!   w(u, v) + s · lb(v)`, and as `w` is an integer, `⌊x + w⌋ = ⌊x⌋ + w`,
//!   so the floor keeps it.
//!
//! A traffic epoch publishes its column's scale
//! (`arp_traffic::EpochSnapshot::bound_scale`, ≥ 1.0: factors are ≥ 1 and
//! closures only close), so the base column's one table bounds every epoch
//! about as tightly as the epoch's own table would, with no per-epoch
//! work; Penalty's raised overlay is no cheaper than the epoch's column,
//! and the Google-like provider's private column under the public closures
//! no cheaper than its private table's, which it reads at 1.0.
//! [`crate::SearchSubstrate::build`] reads it twice: an A\* probe over
//! reduced costs finds `d(s, t)`, which fixes the stretch bound `B` before
//! the forward tree starts, and the forward tree then labels `v` only
//! while `d + lb(v, t) ≤ B` (DESIGN.md §8).
//!
//! [`LANDMARKS`] landmarks are chosen by farthest-point selection: the
//! first is the vertex geometrically farthest from the network's centre,
//! each next one the vertex whose round trip to the nearest landmark
//! chosen so far is longest. The table is vertex-major, one 64-byte cache
//! line per vertex, so reading a bound costs one line. An empty table
//! ([`Landmarks::empty`]) bounds everything by 0 and is still a valid
//! table: a build fed it grows the plain ball of radius `B`.

use std::cmp::Reverse;
use std::fmt;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::haversine_m;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{Cost, Weight, UNIT_SCALE};

use crate::budget::SearchBudget;
use crate::kernel::{self, ArcView, Column, Exhaust, InEdges, Labels, OutEdges, Poller};
use crate::scratch::Loan;

/// Number of landmarks in a table.
pub const LANDMARKS: usize = 8;

/// One vertex's distances from and to every landmark: one cache line.
/// Entries are below 2³¹, so the difference of two never overflows an
/// `i32` — which takes half the instructions of saturating `u32`
/// arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct Row {
    /// `d(L_i, v)`.
    from: [i32; LANDMARKS],
    /// `d(v, L_i)`.
    to: [i32; LANDMARKS],
}

impl Row {
    /// The landmark bound on `d(this vertex, t)`, given `t`'s row.
    #[inline]
    fn lower_bound_to(&self, t: &Row) -> Cost {
        let mut lb = 0;
        for i in 0..LANDMARKS {
            lb = lb.max(t.from[i] - self.from[i]).max(self.to[i] - t.to[i]);
        }
        lb as Cost
    }
}

/// A target's [`Row`] and the bound scale its bounds are read at: what a
/// search toward one target keeps to bound every vertex by
/// ([`Landmarks::toward`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Toward {
    row: Row,
    scale: Cost,
}

/// A landmark distance table for one weight column (see the module docs).
#[derive(Default)]
pub struct Landmarks {
    landmarks: Vec<NodeId>,
    rows: Vec<Row>,
}

impl fmt::Debug for Landmarks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Landmarks")
            .field("landmarks", &self.landmarks)
            .field("vertices", &self.rows.len())
            .finish()
    }
}

impl Landmarks {
    /// The table that bounds every distance by 0.
    pub fn empty() -> Landmarks {
        Landmarks::default()
    }

    /// The table of `weights` on `net`: [`LANDMARKS`] landmarks by
    /// farthest-point selection, two complete sweeps each, in a label
    /// store lent from the request path's pool. A column that is not
    /// strongly connected — or whose distances reach 2³¹ ms — gets
    /// the empty table.
    pub fn build(net: &RoadNetwork, weights: &[Weight]) -> Landmarks {
        let n = net.num_nodes();
        let Ok(column) = Column::new(net, weights) else {
            return Landmarks::empty();
        };
        let centre = net.bbox().center();
        let far_out = |v: &NodeId| haversine_m(centre, net.point(*v));
        let Some(mut next) = net
            .nodes()
            .max_by(|a, b| far_out(a).total_cmp(&far_out(b)).then(b.cmp(a)))
        else {
            return Landmarks::empty();
        };
        let mut table = Landmarks {
            landmarks: Vec::with_capacity(LANDMARKS),
            rows: vec![Row::default(); n],
        };
        let mut labels = Loan::<Labels>::take(n);
        // Per vertex, its round trip to the nearest landmark so far.
        let mut spread = vec![Cost::MAX; n];
        while table.landmarks.len() < LANDMARKS {
            let i = table.landmarks.len();
            let from = sweep(&mut labels, &OutEdges(column), next);
            if !fill(&mut table.rows, from, |row| &mut row.from[i]) {
                return Landmarks::empty();
            }
            let to = sweep(&mut labels, &InEdges(column), next);
            if !fill(&mut table.rows, to, |row| &mut row.to[i]) {
                return Landmarks::empty();
            }
            table.landmarks.push(next);
            for (spread, row) in spread.iter_mut().zip(&table.rows) {
                *spread = (*spread).min(row.from[i] as Cost + row.to[i] as Cost);
            }
            let farthest = spread
                .iter()
                .enumerate()
                .max_by_key(|&(v, &s)| (s, Reverse(v)));
            match farthest {
                Some((v, &s)) if s > 0 => next = NodeId(v as u32),
                // Every vertex is a landmark already.
                _ => break,
            }
        }
        table
    }

    /// The table of the given landmarks, from each one's distances
    /// `from[i][v] = d(L_i, v)` and `to[i][v] = d(v, L_i)` on the column
    /// the table is for. The caller vouches that they are that column's
    /// distances; an entry that is not finite or not below 2³¹ yields the
    /// empty table.
    ///
    /// # Panics
    /// Panics when more than [`LANDMARKS`] landmarks are given, or when
    /// the rows differ in length.
    pub fn from_distances(landmarks: &[NodeId], from: &[Vec<Cost>], to: &[Vec<Cost>]) -> Landmarks {
        assert!(
            landmarks.len() <= LANDMARKS,
            "at most {LANDMARKS} landmarks"
        );
        assert!(landmarks.len() == from.len() && from.len() == to.len());
        let n = from.first().map_or(0, Vec::len);
        assert!(from.iter().chain(to).all(|d| d.len() == n));
        let mut rows = vec![Row::default(); n];
        for (i, (from, to)) in from.iter().zip(to).enumerate() {
            let from = fill(&mut rows, from.iter().copied(), |row| &mut row.from[i]);
            if !(from && fill(&mut rows, to.iter().copied(), |row| &mut row.to[i])) {
                return Landmarks::empty();
            }
        }
        Landmarks {
            landmarks: landmarks.to_vec(),
            rows,
        }
    }

    /// The landmarks, in the order they were chosen.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Whether the table bounds every distance by 0.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Heap bytes the table occupies: 64 per vertex.
    pub fn bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<Row>()
    }

    /// The landmark lower bound on `d(v, t)` at bound scale `scale`:
    /// `⌊scale · lb(v, t) / UNIT_SCALE⌋`, a lower bound on a column whose
    /// every open edge weighs at least `scale / UNIT_SCALE` times its
    /// weight in the table's column. At [`UNIT_SCALE`] it is `lb(v, t)`.
    pub fn lower_bound(&self, v: NodeId, t: NodeId, scale: u32) -> Cost {
        self.lower(v.0, &self.toward(t, scale))
    }

    /// `t`'s row and `scale`, to bound many distances to `t` by
    /// ([`Landmarks::lower`]); the row is all zeros in the empty table.
    pub(crate) fn toward(&self, t: NodeId, scale: u32) -> Toward {
        Toward {
            row: self.rows.get(t.index()).copied().unwrap_or_default(),
            scale: scale as Cost,
        }
    }

    /// The bound on `d(v, t)`, given `t`'s [`Landmarks::toward`]: one
    /// cache line read, then one multiply and one shift. `lb` is below
    /// 2³¹ and the scale below 2³², so the product fits a `u64`.
    #[inline]
    pub(crate) fn lower(&self, v: u32, t: &Toward) -> Cost {
        self.rows.get(v as usize).map_or(0, |row| {
            row.lower_bound_to(&t.row) * t.scale / UNIT_SCALE as Cost
        })
    }
}

/// One complete unbudgeted sweep from `root` over `arcs`: every vertex's
/// label, by id.
fn sweep<'a, A: ArcView>(
    labels: &'a mut Labels,
    arcs: &A,
    root: NodeId,
) -> impl Iterator<Item = Cost> + 'a {
    let budget = SearchBudget::unlimited();
    let mut poller = Poller::new(&budget);
    kernel::search(labels, arcs, root.0, Exhaust, &mut poller)
        .expect("an unlimited budget never trips");
    (0..arcs.num_nodes() as u32).map(|v| labels.dist(v))
}

/// Writes `dist` into one entry of every row; `false` when a distance is
/// not finite or not below 2³¹.
fn fill(
    rows: &mut [Row],
    dist: impl Iterator<Item = Cost>,
    entry: impl Fn(&mut Row) -> &mut i32,
) -> bool {
    for (row, d) in rows.iter_mut().zip(dist) {
        match i32::try_from(d) {
            Ok(d) => *entry(row) = d,
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use crate::search::SearchSpace;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::geo::Point;

    #[test]
    fn a_row_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Row>(), 64);
        assert_eq!(std::mem::align_of::<Row>(), 64);
    }

    #[test]
    fn grid_bounds_are_sound_and_exact_at_landmarks() {
        let net = grid(7);
        let table = Landmarks::build(&net, net.weights());
        assert_eq!(table.landmarks().len(), LANDMARKS);
        assert_eq!(table.bytes(), 64 * net.num_nodes());
        let mut ws = SearchSpace::new(&net);
        for v in net.nodes() {
            for t in net.nodes().filter(|&t| t != v) {
                let d = ws.shortest_distance(&net, net.weights(), v, t).unwrap();
                assert!(table.lower_bound(v, t, UNIT_SCALE) <= d, "{v}->{t}");
                // A landmark target is bounded exactly.
                if table.landmarks().contains(&t) {
                    assert_eq!(table.lower_bound(v, t, UNIT_SCALE), d, "{v}->{t}");
                }
            }
            assert_eq!(table.lower_bound(v, v, UNIT_SCALE), 0);
        }
        // The first landmark is a corner: farthest from the centre.
        let corners = [0, 6, 42, 48].map(NodeId);
        assert!(corners.contains(&table.landmarks()[0]));
    }

    #[test]
    fn a_column_that_is_not_strongly_connected_gets_the_empty_table() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(144.0, -37.0));
        let c = b.add_node(Point::new(144.01, -37.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        let table = Landmarks::build(&net, net.weights());
        assert!(table.is_empty());
        assert_eq!(table.lower_bound(a, c, UNIT_SCALE), 0);
    }

    #[test]
    fn fewer_vertices_than_landmarks_makes_every_vertex_one() {
        let net = grid(2);
        let table = Landmarks::build(&net, net.weights());
        let mut chosen = table.landmarks().to_vec();
        chosen.sort();
        assert_eq!(chosen, net.nodes().collect::<Vec<_>>());
    }
}
