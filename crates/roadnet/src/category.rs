//! Road categories, default speeds and OSM `highway=*` tag mapping.
//!
//! The paper's pipeline derives edge travel time from the road's maximum
//! speed; when OSM carries no explicit `maxspeed` tag the category default
//! is used. Categories also drive the ×1.3 non-freeway calibration (§3) and
//! the "wider roads" perception feature (§4.2).

use std::fmt;
use std::str::FromStr;

/// Functional class of a road segment, mirroring the OSM `highway=*` scheme.
///
/// Ordering is from most to least important; `Motorway < Residential` in the
/// derived `Ord` sense (lower discriminant = more important road).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum RoadCategory {
    /// Grade-separated freeway / motorway.
    Motorway,
    /// Motorway on/off ramp.
    MotorwayLink,
    /// Major inter-city road that is not a motorway.
    Trunk,
    /// Major arterial within a city.
    Primary,
    /// Secondary arterial.
    Secondary,
    /// Connector between arterials and local streets.
    Tertiary,
    /// Residential street.
    Residential,
    /// Minor road with unknown classification.
    Unclassified,
    /// Access/service road (parking aisles, driveways).
    Service,
}

/// All categories, in importance order. Useful for exhaustive iteration in
/// tests and statistics.
pub const ALL_CATEGORIES: [RoadCategory; 9] = [
    RoadCategory::Motorway,
    RoadCategory::MotorwayLink,
    RoadCategory::Trunk,
    RoadCategory::Primary,
    RoadCategory::Secondary,
    RoadCategory::Tertiary,
    RoadCategory::Residential,
    RoadCategory::Unclassified,
    RoadCategory::Service,
];

impl RoadCategory {
    /// Default maximum speed in km/h when no `maxspeed` tag is present.
    /// Values follow common OSM routing-profile defaults.
    pub fn default_speed_kmh(self) -> f32 {
        match self {
            RoadCategory::Motorway => 100.0,
            RoadCategory::MotorwayLink => 60.0,
            RoadCategory::Trunk => 80.0,
            RoadCategory::Primary => 60.0,
            RoadCategory::Secondary => 60.0,
            RoadCategory::Tertiary => 50.0,
            RoadCategory::Residential => 40.0,
            RoadCategory::Unclassified => 40.0,
            RoadCategory::Service => 20.0,
        }
    }

    /// True for freeway-class roads, which are exempt from the paper's ×1.3
    /// intersection/turn calibration factor (§3: "for each road segment that
    /// is not a freeway/motorway, we multiply the edge weight by 1.3").
    pub fn is_freeway(self) -> bool {
        matches!(self, RoadCategory::Motorway | RoadCategory::MotorwayLink)
    }

    /// A `[0, 1]` score of how "major" the road feels to a driver; 1.0 is a
    /// motorway, 0.0 a service alley. The "wide roads" perception feature
    /// ("highest rated path follows wide roads", §4.2) is the share of a
    /// route on edges scoring at least 0.6 (`arp_core::quality`).
    pub fn width_score(self) -> f64 {
        match self {
            RoadCategory::Motorway => 1.0,
            RoadCategory::Trunk => 0.9,
            RoadCategory::MotorwayLink => 0.7,
            RoadCategory::Primary => 0.75,
            RoadCategory::Secondary => 0.6,
            RoadCategory::Tertiary => 0.45,
            RoadCategory::Residential => 0.25,
            RoadCategory::Unclassified => 0.2,
            RoadCategory::Service => 0.05,
        }
    }

    /// The OSM `highway=*` tag value for this category.
    pub fn osm_tag(self) -> &'static str {
        match self {
            RoadCategory::Motorway => "motorway",
            RoadCategory::MotorwayLink => "motorway_link",
            RoadCategory::Trunk => "trunk",
            RoadCategory::Primary => "primary",
            RoadCategory::Secondary => "secondary",
            RoadCategory::Tertiary => "tertiary",
            RoadCategory::Residential => "residential",
            RoadCategory::Unclassified => "unclassified",
            RoadCategory::Service => "service",
        }
    }

    /// Parses an OSM `highway=*` tag value. Returns `None` for values that
    /// are not drivable roads (footways, cycleways, …), which the road
    /// network constructor must skip.
    pub fn from_osm_tag(tag: &str) -> Option<RoadCategory> {
        Some(match tag {
            "motorway" => RoadCategory::Motorway,
            "motorway_link" => RoadCategory::MotorwayLink,
            "trunk" | "trunk_link" => RoadCategory::Trunk,
            "primary" | "primary_link" => RoadCategory::Primary,
            "secondary" | "secondary_link" => RoadCategory::Secondary,
            "tertiary" | "tertiary_link" => RoadCategory::Tertiary,
            "residential" | "living_street" => RoadCategory::Residential,
            "unclassified" | "road" => RoadCategory::Unclassified,
            "service" => RoadCategory::Service,
            _ => return None,
        })
    }

    /// Compact single-byte code used by the text serialization format.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`RoadCategory::code`].
    pub fn from_code(code: u8) -> Option<RoadCategory> {
        ALL_CATEGORIES.get(code as usize).copied()
    }
}

impl fmt::Display for RoadCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.osm_tag())
    }
}

impl FromStr for RoadCategory {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RoadCategory::from_osm_tag(s).ok_or_else(|| format!("unknown road category: {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn osm_tag_roundtrip() {
        for &cat in &ALL_CATEGORIES {
            assert_eq!(RoadCategory::from_osm_tag(cat.osm_tag()), Some(cat));
            assert_eq!(cat.osm_tag().parse::<RoadCategory>().unwrap(), cat);
        }
    }

    #[test]
    fn code_roundtrip() {
        for &cat in &ALL_CATEGORIES {
            assert_eq!(RoadCategory::from_code(cat.code()), Some(cat));
        }
        assert_eq!(RoadCategory::from_code(200), None);
    }

    #[test]
    fn non_drivable_tags_are_rejected() {
        for tag in ["footway", "cycleway", "path", "steps", "pedestrian", ""] {
            assert_eq!(RoadCategory::from_osm_tag(tag), None, "{tag}");
        }
    }

    #[test]
    fn link_tags_map_to_parent_class() {
        assert_eq!(
            RoadCategory::from_osm_tag("primary_link"),
            Some(RoadCategory::Primary)
        );
        assert_eq!(
            RoadCategory::from_osm_tag("trunk_link"),
            Some(RoadCategory::Trunk)
        );
    }

    #[test]
    fn freeway_classification() {
        assert!(RoadCategory::Motorway.is_freeway());
        assert!(RoadCategory::MotorwayLink.is_freeway());
        assert!(!RoadCategory::Trunk.is_freeway());
        assert!(!RoadCategory::Residential.is_freeway());
    }

    #[test]
    fn speeds_decrease_with_importance() {
        assert!(
            RoadCategory::Motorway.default_speed_kmh()
                > RoadCategory::Residential.default_speed_kmh()
        );
        for &cat in &ALL_CATEGORIES {
            assert!(cat.default_speed_kmh() > 0.0);
        }
    }

    #[test]
    fn width_scores_are_normalized_and_monotone_at_extremes() {
        for &cat in &ALL_CATEGORIES {
            let w = cat.width_score();
            assert!((0.0..=1.0).contains(&w));
        }
        assert!(RoadCategory::Motorway.width_score() > RoadCategory::Service.width_score());
    }

    #[test]
    fn ordering_puts_motorway_first() {
        assert!(RoadCategory::Motorway < RoadCategory::Residential);
        let mut v = [
            RoadCategory::Service,
            RoadCategory::Motorway,
            RoadCategory::Primary,
        ];
        v.sort();
        assert_eq!(v[0], RoadCategory::Motorway);
    }
}
