//! The `/api/route` body, written as one stream.
//!
//! A served body is ~100 kB, almost all of it `[lon,lat]` pairs, and every
//! pair is a network vertex. So the only expensive text is rendered once
//! per vertex when the app starts ([`CoordText`]) and a request copies it:
//! [`route_body`] writes the whole body into one pre-sized `String`, in the
//! sorted-key layout a [`Json`] object tree serializes to —
//!
//! ```text
//! {"approaches":[{"label":…,"routes":[{"color":…,"minutes":…,"polyline":[…]}…]}…],
//!  "degraded":true,            (degraded responses only)
//!  "epoch":…,"fastest_minutes":…,
//!  "geojson":"{\"features\":[{\"geometry\":{\"coordinates\":[…],\"type\":\"LineString\"},
//!      \"properties\":{\"approach\":…,\"minutes\":…,\"rank\":…,\"stroke\":…},
//!      \"type\":\"Feature\"}…],\"type\":\"FeatureCollection\"}",
//!  "lane_status":{…},          (degraded responses only)
//!  "trace_id":…,"truncated":…}
//! ```
//!
//! — with the GeoJSON member written already escaped. Coordinate text
//! needs no escaping, so each route's array is written once, into
//! `approaches`, and copied from there into its feature. The tests hold
//! the writer byte for byte against the `Json`-tree renderer it replaced.

use std::fmt::Write;

use arp_obs::TraceId;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::Point;
use arp_roadnet::ids::{EdgeId, NodeId};

use crate::json::{write_escaped, write_number, Json};
use crate::query::{QueryResponse, RouteInfo};

/// `[lon,lat]` as the wire format spells it.
fn push_coord(out: &mut String, p: Point) {
    out.push('[');
    write_number(p.lon, out);
    out.push(',');
    write_number(p.lat, out);
    out.push(']');
}

/// Every vertex's `[lon,lat]` text, rendered once: one blob plus the end
/// offset of each vertex's slice (~40 bytes a vertex, independent of
/// traffic, epochs and cache size).
pub(crate) struct CoordText {
    text: String,
    ends: Vec<u32>,
}

impl CoordText {
    /// Renders the table for a network's [`RoadNetwork::points`].
    pub(crate) fn new(points: &[Point]) -> CoordText {
        let mut text = String::with_capacity(points.len() * 40);
        let ends = points
            .iter()
            .map(|&p| {
                push_coord(&mut text, p);
                u32::try_from(text.len()).expect("coordinate text of one network fits in 4 GiB")
            })
            .collect();
        text.shrink_to_fit();
        CoordText { text, ends }
    }

    fn of(&self, v: NodeId) -> &str {
        let start = match v.index() {
            0 => 0,
            i => self.ends[i - 1] as usize,
        };
        &self.text[start..self.ends[v.index()] as usize]
    }

    /// Mean bytes per rendered vertex, rounded up: what sizes a body.
    fn mean_len(&self) -> usize {
        self.text.len().div_ceil(self.ends.len().max(1))
    }
}

/// The vertices a route's edges pass, in order: `tail(e₀)`, then the head
/// of every edge.
pub(crate) fn vertices_along<'a>(
    net: &'a RoadNetwork,
    edges: &'a [EdgeId],
) -> impl Iterator<Item = NodeId> + 'a {
    let source = edges.first().map(|&e| net.tail(e));
    source.into_iter().chain(edges.iter().map(|&e| net.head(e)))
}

/// `[item,item,…]`, each item written by `push`.
fn push_array<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// A route's coordinate array. Looked up per vertex along `edges`; a
/// route that carries no edges has its `polyline` formatted instead.
fn push_polyline(out: &mut String, route: &RouteInfo, net: &RoadNetwork, coords: &CoordText) {
    if route.edges.is_empty() {
        push_array(out, route.polyline.iter(), |out, &p| push_coord(out, p));
    } else {
        let vertices = vertices_along(net, &route.edges);
        push_array(out, vertices, |out, v| out.push_str(coords.of(v)));
    }
}

/// `s` as a JSON string the way it reads *inside* the GeoJSON member:
/// escaped once for the GeoJSON document, once more for the member.
fn push_nested_string(out: &mut String, s: &str) {
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str("\\\"");
        out.push_str(s);
        out.push_str("\\\"");
        return;
    }
    let (mut once, mut twice) = (String::new(), String::new());
    write_escaped(s, &mut once);
    write_escaped(&once, &mut twice);
    // The outermost quotes belong to the member, which is already open.
    out.push_str(&twice[1..twice.len() - 1]);
}

/// Renders a computed response as the `/api/route` JSON body. `net` and
/// `coords` are the network the response was computed on and its table.
pub(crate) fn route_body(
    resp: &QueryResponse,
    trace_id: TraceId,
    net: &RoadNetwork,
    coords: &CoordText,
) -> String {
    let routes = || resp.approaches.iter().flat_map(|a| a.routes.iter());
    let (route_count, points) = (
        routes().count(),
        routes().map(|r| r.polyline.len()).sum::<usize>(),
    );
    // Every point appears twice (polyline and feature) with a comma and a
    // byte to spare; ~250 bytes of keys surround each route.
    let mut out =
        String::with_capacity(2 * points * (coords.mean_len() + 2) + 256 * (route_count + 2));
    // Where each route's coordinate array sits in `out`, for its GeoJSON
    // feature to copy.
    let mut arrays = Vec::with_capacity(route_count);
    let mut label_buf = [0u8; 4];

    out.push_str("{\"approaches\":[");
    for (i, approach) in resp.approaches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        write_escaped(approach.label.encode_utf8(&mut label_buf), &mut out);
        out.push_str(",\"routes\":[");
        for (rank, route) in approach.routes.iter().enumerate() {
            if rank > 0 {
                out.push(',');
            }
            out.push_str("{\"color\":");
            write_escaped(route.color, &mut out);
            out.push_str(",\"minutes\":");
            write_number(route.minutes as f64, &mut out);
            out.push_str(",\"polyline\":");
            let start = out.len();
            push_polyline(&mut out, route, net, coords);
            arrays.push(start..out.len());
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
    // Degraded responses (a lane failed or its breaker was open) name the
    // affected approaches by blind label only — the technique behind each
    // label stays hidden from the study participant. Healthy responses
    // omit both keys, keeping them byte-identical to the
    // pre-fault-tolerance wire format.
    if resp.degraded {
        out.push_str(",\"degraded\":true");
    }
    // The traffic epoch every route in this response was computed under —
    // one value for the whole response, because the epoch is pinned per
    // request, never per lane.
    out.push_str(",\"epoch\":");
    write_number(resp.epoch as f64, &mut out);
    out.push_str(",\"fastest_minutes\":");
    write_number(resp.fastest_minutes as f64, &mut out);

    out.push_str(r#","geojson":"{\"features\":["#);
    let mut arrays = arrays.into_iter();
    // Between features, across approaches: an approach without routes
    // contributes no feature and so no comma.
    let mut separator = "";
    for approach in &resp.approaches {
        let label = approach.label.encode_utf8(&mut label_buf);
        for (rank, (route, array)) in approach.routes.iter().zip(&mut arrays).enumerate() {
            out.push_str(separator);
            separator = ",";
            out.push_str(r#"{\"geometry\":{\"coordinates\":"#);
            out.extend_from_within(array);
            out.push_str(r#",\"type\":\"LineString\"},\"properties\":{\"approach\":"#);
            push_nested_string(&mut out, label);
            out.push_str(r#",\"minutes\":"#);
            write_number(route.minutes as f64, &mut out);
            out.push_str(r#",\"rank\":"#);
            write_number(rank as f64, &mut out);
            out.push_str(r#",\"stroke\":"#);
            push_nested_string(&mut out, route.color);
            out.push_str(r#"},\"type\":\"Feature\"}"#);
        }
    }
    out.push_str(r#"],\"type\":\"FeatureCollection\"}""#);

    if resp.degraded {
        let statuses = resp
            .lane_status
            .iter()
            .map(|(label, status)| (label.to_string(), Json::str(status.as_str())));
        out.push_str(",\"lane_status\":");
        out.push_str(&Json::object_of(statuses).to_string_compact());
    }
    // Every served request has a trace id, so clients can always log it;
    // it resolves at `/api/trace/<id>` only for kept traces. A
    // deadline-truncated response is still a 200 — the client gets every
    // route that finished, flagged so the UI can say "some alternatives
    // were cut short"; 504 is reserved for requests where nothing
    // finished at all.
    write!(
        out,
        ",\"trace_id\":\"{trace_id}\",\"truncated\":{}}}",
        resp.truncated
    )
    .expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use arp_citygen::{City, Scale};
    use arp_serve::LaneStatus;

    use super::*;
    use crate::geojson::response_to_geojson;
    use crate::json;
    use crate::query::{ApproachRoutes, QueryProcessor, ROUTE_COLORS};

    /// The oracle: the body as a [`Json`] object tree serializes it, GeoJSON
    /// rendered by [`response_to_geojson`] and escaped as a string member.
    /// This was the server's renderer until the body became a streamed
    /// write; [`route_body`] must reproduce it byte for byte.
    pub(crate) fn reference_body(resp: &QueryResponse, trace_id: TraceId) -> String {
        let approaches = resp
            .approaches
            .iter()
            .map(|a| {
                let routes = a
                    .routes
                    .iter()
                    .map(|r| {
                        Json::object([
                            ("minutes", Json::Number(r.minutes as f64)),
                            ("color", Json::str(r.color)),
                            (
                                "polyline",
                                Json::Array(
                                    r.polyline
                                        .iter()
                                        .map(|p| {
                                            Json::Array(vec![
                                                Json::Number(p.lon),
                                                Json::Number(p.lat),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Json::object([
                    ("label", Json::str(a.label.to_string())),
                    ("routes", Json::Array(routes)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("fastest_minutes", Json::Number(resp.fastest_minutes as f64)),
            ("approaches", Json::Array(approaches)),
            ("truncated", Json::Bool(resp.truncated)),
            ("epoch", Json::Number(resp.epoch as f64)),
            ("geojson", Json::str(response_to_geojson(resp))),
            ("trace_id", Json::str(trace_id.to_string())),
        ];
        if resp.degraded {
            fields.push(("degraded", Json::Bool(true)));
            fields.push((
                "lane_status",
                Json::object_of(
                    resp.lane_status
                        .iter()
                        .map(|(label, status)| (label.to_string(), Json::str(status.as_str()))),
                ),
            ));
        }
        Json::object(fields).to_string_compact()
    }

    fn processor(city: City) -> QueryProcessor {
        let g = arp_citygen::generate(city, Scale::Small, 42);
        QueryProcessor::new(g.name.clone(), g.network, 42)
    }

    /// The serial reference response for one fixed pair across the city.
    fn response(qp: &QueryProcessor) -> QueryResponse {
        let bb = qp.network().bbox();
        let at = |x: f64, y: f64| {
            Point::new(
                bb.min_lon + bb.width_deg() * x,
                bb.min_lat + bb.height_deg() * y,
            )
        };
        qp.process(at(0.3, 0.4), at(0.7, 0.7)).unwrap()
    }

    /// Writer == reference, and what it wrote parses — the body and the
    /// GeoJSON document inside it.
    fn assert_matches_reference(resp: &QueryResponse, qp: &QueryProcessor, what: &str) {
        let id = TraceId::parse("00000000deadbeef").unwrap();
        let coords = CoordText::new(qp.network().points());
        let body = route_body(resp, id, qp.network(), &coords);
        assert_eq!(body, reference_body(resp, id), "{what}");
        let parsed = json::parse(&body).unwrap_or_else(|e| panic!("{what}: {e}"));
        let geojson = parsed.get("geojson").and_then(Json::as_str).unwrap();
        let features = json::parse(geojson).unwrap_or_else(|e| panic!("{what} geojson: {e}"));
        let routes: usize = resp.approaches.iter().map(|a| a.routes.len()).sum();
        assert_eq!(
            features.get("features").unwrap().as_array().unwrap().len(),
            routes,
            "{what}"
        );
    }

    /// `resp` with the approaches at `emptied` stripped of their routes and
    /// marked failed, as a degraded assembly leaves them.
    fn degraded(resp: &QueryResponse, emptied: &[usize]) -> QueryResponse {
        let mut out = resp.clone();
        out.degraded = true;
        out.lane_status.clear();
        for (slot, approach) in out.approaches.iter_mut().enumerate() {
            let failed = emptied.contains(&slot);
            if failed {
                *approach = Arc::new(ApproachRoutes {
                    label: approach.label,
                    routes: Vec::new(),
                });
            }
            let status = if failed {
                LaneStatus::Failed
            } else {
                LaneStatus::Ok
            };
            out.lane_status.push((approach.label, status));
        }
        out
    }

    #[test]
    fn writer_matches_the_json_tree_reference() {
        for city in City::ALL {
            let qp = processor(city);
            let healthy = response(&qp);
            assert!(healthy.approaches.iter().all(|a| !a.routes.is_empty()));
            assert_matches_reference(&healthy, &qp, "healthy");

            // Every polyline the writer looks up by vertex is exactly the
            // vertex walk of its edges.
            for route in healthy.approaches.iter().flat_map(|a| a.routes.iter()) {
                let walked: Vec<Point> = vertices_along(qp.network(), &route.edges)
                    .map(|v| qp.network().point(v))
                    .collect();
                assert_eq!(walked, route.polyline);
            }

            let mut truncated = healthy.clone();
            truncated.truncated = true;
            assert_matches_reference(&truncated, &qp, "truncated");

            // No stray comma between features wherever the empty approach
            // sits, nor when a single approach is left.
            for emptied in [
                &[0][..],
                &[1],
                &[3],
                &[0, 3],
                &[1, 2],
                &[0, 1, 2],
                &[1, 2, 3],
            ] {
                let resp = degraded(&healthy, emptied);
                assert_matches_reference(&resp, &qp, &format!("degraded without {emptied:?}"));
            }
            let mut open_circuit = degraded(&healthy, &[2]);
            open_circuit.truncated = true;
            open_circuit.lane_status[2].1 = LaneStatus::OpenCircuit;
            open_circuit.lane_status[0].1 = LaneStatus::Truncated;
            assert_matches_reference(&open_circuit, &qp, "open circuit");

            let delta = arp_traffic::TrafficDelta::parse("cat:primary*2.5; cat:residential*1.5");
            qp.traffic().apply_delta(&delta.unwrap()).unwrap();
            let bumped = response(&qp);
            assert_eq!(bumped.epoch, 1);
            assert_matches_reference(&bumped, &qp, "epoch 1");
        }
    }

    #[test]
    fn routes_without_edges_and_odd_strings_match_the_reference() {
        let qp = processor(City::Melbourne);
        let mut resp = response(&qp);
        // Hand-built routes carry no edges: the writer formats `polyline`,
        // here with points that are no vertex of the network.
        let off_network = crate::query::RouteInfo {
            minutes: 7,
            cost_ms: 420_000,
            polyline: vec![Point::new(144.5, -37.25), Point::new(145.0, -38.0)],
            color: ROUTE_COLORS[0],
            edges: Vec::new(),
        };
        let mut stripped = resp.approaches[1].routes[0].clone();
        stripped.edges.clear();
        resp.approaches[1] = Arc::new(ApproachRoutes {
            label: 'B',
            routes: vec![off_network, stripped],
        });
        assert_matches_reference(&resp, &qp, "no edges");

        // Labels and colors are written verbatim only when nothing in them
        // needs escaping — twice over, inside the GeoJSON member.
        for (label, color) in [('"', "a\"b"), ('\\', "tab\there"), ('é', "\\\"\n")] {
            let mut odd = resp.approaches[0].routes[0].clone();
            odd.color = color;
            resp.approaches[0] = Arc::new(ApproachRoutes {
                label,
                routes: vec![odd],
            });
            assert_matches_reference(&resp, &qp, &format!("label {label:?} color {color:?}"));
        }

        // Numbers follow the one rule whatever their size.
        resp.fastest_minutes = u64::MAX;
        resp.epoch = 1 << 60;
        resp.degraded = true;
        resp.lane_status = vec![('D', LaneStatus::Ok), ('A', LaneStatus::Failed)];
        assert_matches_reference(&resp, &qp, "large numbers, unsorted statuses");
    }

    #[test]
    fn coordinate_table_spells_every_vertex_like_the_json_tree() {
        let tree = |p: Point| {
            Json::Array(vec![Json::Number(p.lon), Json::Number(p.lat)]).to_string_compact()
        };
        for city in City::ALL {
            let net = arp_citygen::generate(city, Scale::Small, 42).network;
            let table = CoordText::new(net.points());
            for v in net.nodes() {
                assert_eq!(table.of(v), tree(net.point(v)), "{city:?} vertex {v:?}");
            }
        }
        // Integral degrees, negatives, tiny magnitudes (`Display` never
        // switches to exponent form) and long expansions.
        let odd = [
            Point::new(145.0, -38.0),
            Point::new(0.0, -0.0),
            Point::new(-0.5, 90.0),
            Point::new(1e-7, -2.5e-7),
            Point::new(0.1 + 0.2, -1.0 / 3.0),
            Point::new(179.99999999999997, -89.99999999999999),
            Point::new(9.1e15, -9e15),
            Point::new(f64::MIN_POSITIVE, 1e21),
        ];
        let table = CoordText::new(&odd);
        for (i, &p) in odd.iter().enumerate() {
            assert_eq!(table.of(NodeId(i as u32)), tree(p), "{p:?}");
        }
        assert_eq!(table.of(NodeId(0)), "[145,-38]");
        assert_eq!(table.of(NodeId(3)), "[0.0000001,-0.00000025]");
        assert_eq!(CoordText::new(&[]).mean_len(), 0);
    }
}
