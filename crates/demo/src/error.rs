//! Error type for the demo system.

use std::fmt;

/// Errors raised by the demo query processor and server.
#[derive(Debug)]
pub enum DemoError {
    /// A clicked location is outside the study rectangle.
    OutOfArea {
        /// Which endpoint ("source" or "target").
        which: &'static str,
    },
    /// No vertex within matching distance of the clicked location.
    NoNearbyRoad {
        /// Which endpoint.
        which: &'static str,
    },
    /// Source and target matched to the same vertex.
    SameLocation,
    /// The matched points are not connected at the request's traffic
    /// epoch: every technique answers with zero routes.
    NoRoute,
    /// Route computation failed.
    Routing(arp_core::CoreError),
    /// A malformed API request.
    BadRequest(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for DemoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemoError::OutOfArea { which } => {
                write!(f, "{which} location is outside the study area")
            }
            DemoError::NoNearbyRoad { which } => {
                write!(f, "no road near the {which} location")
            }
            DemoError::SameLocation => write!(f, "source and target match the same road vertex"),
            DemoError::NoRoute => write!(f, "no route between the matched points"),
            DemoError::Routing(e) => write!(f, "routing failed: {e}"),
            DemoError::BadRequest(m) => write!(f, "bad request: {m}"),
            DemoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DemoError {}

impl From<arp_core::CoreError> for DemoError {
    fn from(e: arp_core::CoreError) -> Self {
        DemoError::Routing(e)
    }
}

impl From<std::io::Error> for DemoError {
    fn from(e: std::io::Error) -> Self {
        DemoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DemoError::OutOfArea { which: "source" }
            .to_string()
            .contains("source"));
        assert!(DemoError::SameLocation.to_string().contains("same"));
        assert!(DemoError::BadRequest("x".into()).to_string().contains("x"));
    }
}
