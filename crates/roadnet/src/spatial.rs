//! Uniform-grid nearest-vertex index.
//!
//! The demo's query processor "performs geo-coordinate matching and selects
//! the closest vertices from the OSM data to the source and target
//! locations" (§3). A uniform grid over the network bounding box answers
//! nearest-vertex queries in near-constant time at city scale, searching
//! outward ring by ring until the best candidate provably cannot be beaten.

use crate::csr::RoadNetwork;
use crate::geo::{haversine_m, BoundingBox, Point};
use crate::ids::NodeId;

/// Grid-bucketed nearest-vertex index over a [`RoadNetwork`]'s nodes.
#[derive(Clone, Debug)]
pub struct SpatialIndex {
    bbox: BoundingBox,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    /// CSR-style buckets: `starts` has `cols*rows + 1` entries into `items`.
    starts: Vec<u32>,
    items: Vec<NodeId>,
}

/// The bucket occupancy the grid is sized for.
const NODES_PER_CELL: usize = 8;

impl SpatialIndex {
    /// Builds an index targeting roughly eight nodes per bucket.
    pub fn build(net: &RoadNetwork) -> SpatialIndex {
        let n = net.num_nodes();
        let bbox = if net.bbox().is_empty() {
            BoundingBox::new(0.0, 0.0, 0.0, 0.0)
        } else {
            net.bbox()
        };
        let cells = (n / NODES_PER_CELL).max(1);
        let aspect = if bbox.height_deg() > 0.0 {
            (bbox.width_deg() / bbox.height_deg()).clamp(0.1, 10.0)
        } else {
            1.0
        };
        let rows = ((cells as f64 / aspect).sqrt().ceil() as usize).max(1);
        let cols = (cells as f64 / rows as f64).ceil().max(1.0) as usize;
        let cell_w = (bbox.width_deg() / cols as f64).max(1e-9);
        let cell_h = (bbox.height_deg() / rows as f64).max(1e-9);

        let mut idx = SpatialIndex {
            bbox,
            cols,
            rows,
            cell_w,
            cell_h,
            starts: vec![0; cols * rows + 1],
            items: Vec::with_capacity(n),
        };

        // Counting sort into buckets.
        let mut counts = vec![0u32; cols * rows];
        for node in net.nodes() {
            counts[idx.cell_of(net.point(node))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            idx.starts[i + 1] = idx.starts[i] + c;
        }
        let mut cursor = idx.starts.clone();
        idx.items = vec![NodeId::INVALID; n];
        for node in net.nodes() {
            let c = idx.cell_of(net.point(node));
            idx.items[cursor[c] as usize] = node;
            cursor[c] += 1;
        }
        idx
    }

    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.lon - self.bbox.min_lon) / self.cell_w) as isize;
        let cy = ((p.lat - self.bbox.min_lat) / self.cell_h) as isize;
        (
            cx.clamp(0, self.cols as isize - 1) as usize,
            cy.clamp(0, self.rows as isize - 1) as usize,
        )
    }

    fn cell_of(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    fn bucket(&self, cx: usize, cy: usize) -> &[NodeId] {
        let c = cy * self.cols + cx;
        let lo = self.starts[c] as usize;
        let hi = self.starts[c + 1] as usize;
        &self.items[lo..hi]
    }

    /// The nearest network vertex to `query`, or `None` on an empty network.
    pub fn nearest_node(&self, net: &RoadNetwork, query: Point) -> Option<NodeId> {
        self.nearest_node_within(net, query, f64::INFINITY)
            .map(|(n, _)| n)
    }

    /// The nearest vertex within `max_dist_m` metres, with its distance.
    ///
    /// Searches the query's grid cell, then expands ring by ring. After a
    /// candidate is found the search continues until the ring's minimum
    /// possible distance exceeds the best found so far, which guarantees
    /// exactness despite lon/lat cell geometry (we convert the degree
    /// extent of a ring to metres conservatively).
    pub fn nearest_node_within(
        &self,
        net: &RoadNetwork,
        query: Point,
        max_dist_m: f64,
    ) -> Option<(NodeId, f64)> {
        if self.items.is_empty() {
            return None;
        }
        let (qx, qy) = self.cell_coords(query);
        let mut best: Option<(NodeId, f64)> = None;
        let max_ring = self.cols.max(self.rows);
        // Metres per degree, conservatively small so rings are not cut off
        // too early (cos(lat) shrinks the lon metric; use the smaller of
        // the two axes' scale).
        let lat_m_per_deg = 110_574.0;
        let lon_m_per_deg = 111_320.0 * query.lat.to_radians().cos().abs().max(0.2);

        for ring in 0..=max_ring {
            // Lower bound of distance to any cell in this ring.
            if ring >= 1 {
                let ring_deg_w = (ring - 1) as f64 * self.cell_w;
                let ring_deg_h = (ring - 1) as f64 * self.cell_h;
                let min_possible = (ring_deg_w * lon_m_per_deg).min(ring_deg_h * lat_m_per_deg);
                if let Some((_, bd)) = best {
                    if min_possible > bd {
                        break;
                    }
                }
                if min_possible > max_dist_m {
                    break;
                }
            }
            self.for_ring_cells(qx, qy, ring, |cx, cy| {
                for &node in self.bucket(cx, cy) {
                    let d = haversine_m(net.point(node), query);
                    if d <= max_dist_m && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((node, d));
                    }
                }
            });
        }
        best
    }

    fn for_ring_cells(&self, qx: usize, qy: usize, ring: usize, mut f: impl FnMut(usize, usize)) {
        if ring == 0 {
            f(qx, qy);
            return;
        }
        let r = ring as isize;
        let (qx, qy) = (qx as isize, qy as isize);
        for dx in -r..=r {
            for dy in [-r, r] {
                let (cx, cy) = (qx + dx, qy + dy);
                if cx >= 0 && cy >= 0 && (cx as usize) < self.cols && (cy as usize) < self.rows {
                    f(cx as usize, cy as usize);
                }
            }
        }
        for dy in (-r + 1)..r {
            for dx in [-r, r] {
                let (cx, cy) = (qx + dx, qy + dy);
                if cx >= 0 && cy >= 0 && (cx as usize) < self.cols && (cy as usize) < self.rows {
                    f(cx as usize, cy as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EdgeSpec, GraphBuilder};
    use crate::category::RoadCategory;

    /// A g×g lattice of nodes spaced 0.01° apart, fully connected as a grid.
    fn grid_network(g: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..g {
            for x in 0..g {
                ids.push(b.add_node(Point::new(144.0 + x as f64 * 0.01, -37.0 - y as f64 * 0.01)));
            }
        }
        for y in 0..g {
            for x in 0..g {
                let i = y * g + x;
                if x + 1 < g {
                    b.add_bidirectional(
                        ids[i],
                        ids[i + 1],
                        EdgeSpec::category(RoadCategory::Residential),
                    );
                }
                if y + 1 < g {
                    b.add_bidirectional(
                        ids[i],
                        ids[i + g],
                        EdgeSpec::category(RoadCategory::Residential),
                    );
                }
            }
        }
        b.build()
    }

    #[test]
    fn nearest_finds_exact_node() {
        let net = grid_network(10);
        let idx = SpatialIndex::build(&net);
        for node in net.nodes().step_by(7) {
            let found = idx.nearest_node(&net, net.point(node)).unwrap();
            assert_eq!(found, node);
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let net = grid_network(12);
        let idx = SpatialIndex::build(&net);
        let queries = [
            Point::new(144.034, -37.051),
            Point::new(143.99, -37.0), // outside bbox, west
            Point::new(144.2, -37.2),  // outside bbox, southeast
            Point::new(144.055, -37.0449),
        ];
        for q in queries {
            let brute = net
                .nodes()
                .min_by(|&a, &b| {
                    haversine_m(net.point(a), q)
                        .partial_cmp(&haversine_m(net.point(b), q))
                        .unwrap()
                })
                .unwrap();
            let fast = idx.nearest_node(&net, q).unwrap();
            let bd = haversine_m(net.point(brute), q);
            let fd = haversine_m(net.point(fast), q);
            assert!(
                (bd - fd).abs() < 1e-6,
                "query {q}: brute {brute}({bd}) vs fast {fast}({fd})"
            );
        }
    }

    #[test]
    fn nearest_within_rejects_far_queries() {
        let net = grid_network(5);
        let idx = SpatialIndex::build(&net);
        let far = Point::new(150.0, -30.0);
        assert!(idx.nearest_node_within(&net, far, 1000.0).is_none());
        assert!(idx.nearest_node_within(&net, far, f64::INFINITY).is_some());
    }

    #[test]
    fn empty_network_returns_none() {
        let net = GraphBuilder::new().build();
        let idx = SpatialIndex::build(&net);
        assert!(idx.nearest_node(&net, Point::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn single_node_network() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(144.0, -37.0));
        let net = b.build();
        let idx = SpatialIndex::build(&net);
        assert_eq!(
            idx.nearest_node(&net, Point::new(145.0, -38.0)),
            Some(NodeId(0))
        );
    }
}
