//! WGS-84 geometry: points, bounding boxes and great-circle distance.
//!
//! The paper's road-network constructor works on raw OSM coordinates
//! (longitude/latitude in degrees) and derives edge lengths from geometry.
//! We use the haversine formula, which is accurate to well under 0.5 % at
//! city scale — more than enough for travel-time estimation.

use std::fmt;

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 coordinate: `lon`/`lat` in decimal degrees.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    /// Longitude in decimal degrees, positive east.
    pub lon: f64,
    /// Latitude in decimal degrees, positive north.
    pub lat: f64,
}

impl Point {
    /// Creates a point from longitude and latitude in decimal degrees.
    #[inline]
    pub fn new(lon: f64, lat: f64) -> Self {
        Point { lon, lat }
    }

    /// Great-circle distance to `other` in metres.
    #[inline]
    pub fn distance_m(&self, other: &Point) -> f64 {
        haversine_m(*self, *other)
    }

    /// Initial bearing from this point towards `other`, in degrees
    /// clockwise from north, in `[0, 360)`.
    pub fn bearing_deg(&self, other: &Point) -> f64 {
        let phi1 = self.lat.to_radians();
        let phi2 = other.lat.to_radians();
        let dl = (other.lon - self.lon).to_radians();
        let y = dl.sin() * phi2.cos();
        let x = phi1.cos() * phi2.sin() - phi1.sin() * phi2.cos() * dl.cos();
        let deg = y.atan2(x).to_degrees();
        (deg + 360.0) % 360.0
    }

    /// Linear interpolation between two points (valid at city scale where
    /// the coordinate plane is locally flat).
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            lon: self.lon + (other.lon - self.lon) * t,
            lat: self.lat + (other.lat - self.lat) * t,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lon, self.lat)
    }
}

/// Great-circle (haversine) distance between two points in metres.
pub fn haversine_m(a: Point, b: Point) -> f64 {
    let phi1 = a.lat.to_radians();
    let phi2 = b.lat.to_radians();
    let dphi = (b.lat - a.lat).to_radians();
    let dlambda = (b.lon - a.lon).to_radians();
    let s = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * s.sqrt().asin()
}

/// Turn angle at vertex `b` of the polyline segment `a -> b -> c`, in
/// degrees in `[0, 180]`. `0` means continuing straight on; `180` means a
/// full U-turn. Used by the turn-count route-quality feature ("less zig-zag
/// is better", §4.2 of the paper).
pub fn turn_angle_deg(a: Point, b: Point, c: Point) -> f64 {
    let in_bearing = a.bearing_deg(&b);
    let out_bearing = b.bearing_deg(&c);
    let mut diff = (out_bearing - in_bearing).abs();
    if diff > 180.0 {
        diff = 360.0 - diff;
    }
    diff
}

/// An axis-aligned lon/lat rectangle.
///
/// Used by the road-network constructor to clip OSM extracts ("takes a
/// rectangular area as input", §3 of the paper) and by the demo UI to
/// restrict clickable source/target locations.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BoundingBox {
    /// Western edge (minimum longitude).
    pub min_lon: f64,
    /// Southern edge (minimum latitude).
    pub min_lat: f64,
    /// Eastern edge (maximum longitude).
    pub max_lon: f64,
    /// Northern edge (maximum latitude).
    pub max_lat: f64,
}

impl BoundingBox {
    /// An "empty" box that contains nothing and extends under union.
    pub const EMPTY: BoundingBox = BoundingBox {
        min_lon: f64::INFINITY,
        min_lat: f64::INFINITY,
        max_lon: f64::NEG_INFINITY,
        max_lat: f64::NEG_INFINITY,
    };

    /// Creates a box from its corner coordinates.
    pub fn new(min_lon: f64, min_lat: f64, max_lon: f64, max_lat: f64) -> Self {
        BoundingBox {
            min_lon,
            min_lat,
            max_lon,
            max_lat,
        }
    }

    /// True when the box contains no points.
    pub fn is_empty(&self) -> bool {
        self.min_lon > self.max_lon || self.min_lat > self.max_lat
    }

    /// True if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.lon >= self.min_lon
            && p.lon <= self.max_lon
            && p.lat >= self.min_lat
            && p.lat <= self.max_lat
    }

    /// Smallest box containing `self` and `p`.
    pub fn expanded_to(&self, p: Point) -> BoundingBox {
        BoundingBox {
            min_lon: self.min_lon.min(p.lon),
            min_lat: self.min_lat.min(p.lat),
            max_lon: self.max_lon.max(p.lon),
            max_lat: self.max_lat.max(p.lat),
        }
    }

    /// Smallest box containing every point in `points`.
    pub fn of_points(points: &[Point]) -> BoundingBox {
        points
            .iter()
            .fold(BoundingBox::EMPTY, |bb, &p| bb.expanded_to(p))
    }

    /// Centre of the box.
    pub fn center(&self) -> Point {
        Point {
            lon: (self.min_lon + self.max_lon) / 2.0,
            lat: (self.min_lat + self.max_lat) / 2.0,
        }
    }

    /// Width in degrees of longitude.
    pub fn width_deg(&self) -> f64 {
        (self.max_lon - self.min_lon).max(0.0)
    }

    /// Height in degrees of latitude.
    pub fn height_deg(&self) -> f64 {
        (self.max_lat - self.min_lat).max(0.0)
    }

    /// Grows the box by `margin` degrees on every side.
    pub fn padded(&self, margin: f64) -> BoundingBox {
        BoundingBox {
            min_lon: self.min_lon - margin,
            min_lat: self.min_lat - margin,
            max_lon: self.max_lon + margin,
            max_lat: self.max_lat + margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn melbourne() -> Point {
        Point::new(144.9631, -37.8136)
    }

    fn sydney() -> Point {
        Point::new(151.2093, -33.8688)
    }

    #[test]
    fn haversine_known_distance() {
        // Melbourne -> Sydney is ~714 km great-circle.
        let d = haversine_m(melbourne(), sydney());
        assert!((d - 714_000.0).abs() < 10_000.0, "got {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        assert_eq!(haversine_m(melbourne(), melbourne()), 0.0);
    }

    #[test]
    fn haversine_symmetric() {
        let d1 = haversine_m(melbourne(), sydney());
        let d2 = haversine_m(sydney(), melbourne());
        assert!((d1 - d2).abs() < 1e-6);
    }

    #[test]
    fn small_distance_matches_flat_approximation() {
        // ~111.2 km per degree of latitude.
        let a = Point::new(144.0, -37.0);
        let b = Point::new(144.0, -37.01);
        let d = haversine_m(a, b);
        assert!((d - 1_112.0).abs() < 5.0, "got {d}");
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = Point::new(144.0, -37.0);
        let north = Point::new(144.0, -36.9);
        let east = Point::new(144.1, -37.0);
        assert!((origin.bearing_deg(&north) - 0.0).abs() < 1.0);
        assert!((origin.bearing_deg(&east) - 90.0).abs() < 1.0);
    }

    #[test]
    fn turn_angle_straight_and_uturn() {
        let a = Point::new(144.0, -37.0);
        let b = Point::new(144.01, -37.0);
        let c = Point::new(144.02, -37.0);
        assert!(turn_angle_deg(a, b, c) < 1.0);
        assert!(turn_angle_deg(a, b, a) > 179.0);
    }

    #[test]
    fn turn_angle_right_angle() {
        let a = Point::new(144.0, -37.0);
        let b = Point::new(144.01, -37.0);
        let c = Point::new(144.01, -37.01);
        let t = turn_angle_deg(a, b, c);
        assert!((t - 90.0).abs() < 2.0, "got {t}");
    }

    #[test]
    fn bbox_contains_and_expand() {
        let bb = BoundingBox::new(144.0, -38.0, 145.0, -37.0);
        assert!(bb.contains(Point::new(144.5, -37.5)));
        assert!(!bb.contains(Point::new(143.9, -37.5)));
        assert!(!bb.contains(Point::new(144.5, -36.9)));
        let bigger = bb.expanded_to(Point::new(146.0, -37.5));
        assert!(bigger.contains(Point::new(145.5, -37.5)));
    }

    #[test]
    fn bbox_of_points_and_center() {
        let pts = [
            Point::new(144.0, -38.0),
            Point::new(145.0, -37.0),
            Point::new(144.5, -37.5),
        ];
        let bb = BoundingBox::of_points(&pts);
        assert_eq!(bb.min_lon, 144.0);
        assert_eq!(bb.max_lat, -37.0);
        let c = bb.center();
        assert!((c.lon - 144.5).abs() < 1e-9);
        assert!((c.lat - -37.5).abs() < 1e-9);
    }

    #[test]
    fn empty_bbox_behaviour() {
        assert!(BoundingBox::EMPTY.is_empty());
        assert!(!BoundingBox::EMPTY.contains(Point::new(0.0, 0.0)));
        let bb = BoundingBox::of_points(&[]);
        assert!(bb.is_empty());
    }

    #[test]
    fn padded_grows_box() {
        let bb = BoundingBox::new(1.0, 1.0, 2.0, 2.0).padded(0.5);
        assert!(bb.contains(Point::new(0.6, 0.6)));
        assert!(!bb.contains(Point::new(0.4, 0.6)));
    }

    #[test]
    fn lerp_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, -2.0);
        let m = a.lerp(&b, 0.5);
        assert_eq!(m, Point::new(1.0, -1.0));
    }
}
