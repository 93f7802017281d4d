//! Stratified query sampling.
//!
//! The paper groups responses by the fastest travel time from source to
//! target: small (0, 10], medium (10, 25] and long (25, 80] minutes
//! (§4.1). The sampler draws random source vertices, grows one forward
//! shortest-path tree per source, and fills per-bin quotas by picking
//! random targets whose fastest time lands in each still-open bin.

use arp_core::search::{Direction, SearchSpace};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{Cost, INFINITY};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::study::LengthBin;

/// A sampled study query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StudyQuery {
    /// Query source vertex.
    pub source: NodeId,
    /// Query target vertex.
    pub target: NodeId,
    /// Fastest travel time in ms (on the public weights).
    pub fastest_ms: Cost,
    /// Length bin the query falls into.
    pub bin: LengthBin,
}

/// Samples `quotas[bin]` queries per bin (indexed by [`LengthBin`] order:
/// small, medium, long). Returns the queries it managed to sample; a bin
/// quota may be under-filled if the network simply has no routes of that
/// length (the caller should check [`shortfall`]).
///
/// [`shortfall`]: fn@shortfall
pub fn sample_queries(net: &RoadNetwork, quotas: [usize; 3], seed: u64) -> Vec<StudyQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining = quotas;
    let mut out = Vec::with_capacity(quotas.iter().sum());
    let n = net.num_nodes();
    if n < 2 {
        return out;
    }
    let mut ws = SearchSpace::new(net);
    // Generous attempt budget: each source tree can fill several queries.
    let max_sources = (quotas.iter().sum::<usize>() * 4).max(64);

    for _ in 0..max_sources {
        if remaining.iter().all(|&r| r == 0) {
            break;
        }
        let source = NodeId(rng.random_range(0..n as u32));
        let Ok(tree) = ws.shortest_path_tree(net, net.weights(), source, Direction::Forward) else {
            continue;
        };
        // Bucket reachable nodes by bin.
        let mut buckets: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for v in 0..n as u32 {
            if v == source.0 {
                continue;
            }
            let d = tree.distance(NodeId(v));
            if d == INFINITY {
                continue;
            }
            if let Some(bin) = LengthBin::from_ms(d) {
                buckets[bin.index()].push(v);
            }
        }
        // Take up to 2 queries per open bin from this tree so queries are
        // spread over many sources.
        for bin in LengthBin::ALL {
            let i = bin.index();
            let take = remaining[i].min(2);
            for _ in 0..take {
                if buckets[i].is_empty() {
                    break;
                }
                let j = rng.random_range(0..buckets[i].len());
                let target = buckets[i].swap_remove(j);
                out.push(StudyQuery {
                    source,
                    target: NodeId(target),
                    fastest_ms: tree.distance(NodeId(target)),
                    bin,
                });
                remaining[i] -= 1;
            }
        }
    }
    out
}

/// How many queries per bin are missing from `queries` relative to
/// `quotas`.
pub fn shortfall(queries: &[StudyQuery], quotas: [usize; 3]) -> [usize; 3] {
    let mut have = [0usize; 3];
    for q in queries {
        have[q.bin.index()] += 1;
    }
    [
        quotas[0].saturating_sub(have[0]),
        quotas[1].saturating_sub(have[1]),
        quotas[2].saturating_sub(have[2]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_citygen::{City, Scale};

    #[test]
    fn samples_fill_quotas_where_possible() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 3);
        let quotas = [10, 10, 0];
        let queries = sample_queries(&g.network, quotas, 42);
        let missing = shortfall(&queries, quotas);
        assert_eq!(missing, [0, 0, 0], "sampled {} queries", queries.len());
    }

    #[test]
    fn sampled_queries_match_their_bins() {
        let g = arp_citygen::generate(City::Copenhagen, Scale::Small, 5);
        let queries = sample_queries(&g.network, [8, 8, 0], 7);
        for q in &queries {
            assert_eq!(LengthBin::from_ms(q.fastest_ms), Some(q.bin), "{q:?}");
            assert_ne!(q.source, q.target);
            // Verify the fastest time is real.
            let p = arp_core::shortest_path(&g.network, g.network.weights(), q.source, q.target)
                .unwrap();
            assert_eq!(p.cost_ms, q.fastest_ms);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = arp_citygen::generate(City::Dhaka, Scale::Tiny, 1);
        let a = sample_queries(&g.network, [5, 5, 0], 99);
        let b = sample_queries(&g.network, [5, 5, 0], 99);
        assert_eq!(a, b);
        let c = sample_queries(&g.network, [5, 5, 0], 100);
        assert_ne!(a, c);
    }

    #[test]
    fn impossible_bins_underfill_gracefully() {
        // A tiny city has no (25, 80]-minute routes.
        let g = arp_citygen::generate(City::Melbourne, Scale::Tiny, 2);
        let quotas = [2, 2, 5];
        let queries = sample_queries(&g.network, quotas, 11);
        let missing = shortfall(&queries, quotas);
        assert_eq!(missing[0], 0);
        assert!(missing[2] > 0, "a tiny city cannot host 25+ minute routes");
    }
}
