//! The traffic **delta grammar**: the wire format of `POST /api/traffic`
//! and the unit the feed generator emits.
//!
//! A delta is a `;`-separated list of statements:
//!
//! ```text
//! edge:<id>*<factor>      slow one edge by <factor> (≥ 1.0)
//! cat:<osm_tag>*<factor>  slow every edge of a road category
//! close:<id>              close an edge (incident, no TTL)
//! close:<id>@<ttl>        close an edge for <ttl> ticks
//! close:<id>@@<expiry>    close an edge until absolute tick <expiry>
//! reopen:<id>             lift a closure early
//! clear                   drop the whole overlay (back to base weights)
//! ```
//!
//! Example: `cat:primary*1.8; close:412@3; edge:77*2.5`.
//!
//! Statements are applied in order; later statements win. Parsing is
//! strict (an invalid statement rejects the whole delta) so a half-typo'd
//! incident never half-applies.
//!
//! The `@@` (absolute expiry) form is what the write-ahead journal
//! stores: [`TrafficDelta::to_journal_form`] rewrites relative TTLs into
//! absolute ticks at append time, so replaying a journal after downtime
//! can never resurrect a closure that expired while the process was down.

use std::fmt;

use crate::error::TrafficError;

/// One statement of the delta grammar.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficOp {
    /// `edge:<id>*<factor>` — multiply one edge's weight.
    EdgeFactor {
        /// Target edge id.
        edge: u32,
        /// Slow-down multiplier, ≥ 1.0.
        factor: f64,
    },
    /// `cat:<osm_tag>*<factor>` — multiply every edge of a category.
    CategoryFactor {
        /// Category code ([`arp_roadnet::RoadCategory::code`]).
        category: u8,
        /// Slow-down multiplier, ≥ 1.0.
        factor: f64,
    },
    /// `close:<id>[@<ttl>]` — close an edge, optionally for `ttl` ticks.
    Close {
        /// Target edge id.
        edge: u32,
        /// Remaining ticks before the closure auto-expires (`None` =
        /// until an explicit `reopen`).
        ttl: Option<u32>,
    },
    /// `close:<id>@@<expiry>` — close an edge until the **absolute**
    /// feed tick `expiry` (exclusive: the closure is gone once the tick
    /// counter reaches `expiry`). This is the journal form of a TTL'd
    /// closure; it is also accepted on the wire.
    CloseAt {
        /// Target edge id.
        edge: u32,
        /// Absolute expiry tick.
        expiry: u64,
    },
    /// `reopen:<id>` — lift a closure.
    Reopen {
        /// Target edge id.
        edge: u32,
    },
    /// `clear` — drop every factor and closure.
    Clear,
}

impl fmt::Display for TrafficOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficOp::EdgeFactor { edge, factor } => write!(f, "edge:{edge}*{factor}"),
            TrafficOp::CategoryFactor { category, factor } => {
                let tag = arp_roadnet::RoadCategory::from_code(*category)
                    .map(|c| c.osm_tag())
                    .unwrap_or("unknown");
                write!(f, "cat:{tag}*{factor}")
            }
            TrafficOp::Close { edge, ttl: None } => write!(f, "close:{edge}"),
            TrafficOp::Close {
                edge,
                ttl: Some(ttl),
            } => write!(f, "close:{edge}@{ttl}"),
            TrafficOp::CloseAt { edge, expiry } => write!(f, "close:{edge}@@{expiry}"),
            TrafficOp::Reopen { edge } => write!(f, "reopen:{edge}"),
            TrafficOp::Clear => write!(f, "clear"),
        }
    }
}

/// An ordered batch of [`TrafficOp`]s, applied atomically (one epoch
/// bump per delta, however many statements it carries).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficDelta {
    /// The statements, in application order.
    pub ops: Vec<TrafficOp>,
}

impl TrafficDelta {
    /// The empty delta (still bumps the epoch when applied — an explicit
    /// "tick with no changes" is how the feed models a quiet interval).
    pub fn empty() -> TrafficDelta {
        TrafficDelta::default()
    }

    /// True if the delta carries no statements.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The journal form of this delta, as of feed tick `now`: every
    /// relative-TTL closure (`close:<id>@<ttl>`) becomes an absolute
    /// expiry (`close:<id>@@<now+ttl>`); everything else is unchanged.
    /// This is what the write-ahead journal records, so replay applies
    /// the exact expiry the live process computed.
    pub fn to_journal_form(&self, now: u64) -> TrafficDelta {
        TrafficDelta {
            ops: self
                .ops
                .iter()
                .map(|op| match op {
                    TrafficOp::Close {
                        edge,
                        ttl: Some(ttl),
                    } => TrafficOp::CloseAt {
                        edge: *edge,
                        expiry: now.saturating_add(*ttl as u64),
                    },
                    other => other.clone(),
                })
                .collect(),
        }
    }

    /// Parses the `;`-separated grammar. Whitespace around statements and
    /// a trailing `;` are tolerated; an empty body yields the empty delta.
    pub fn parse(text: &str) -> Result<TrafficDelta, TrafficError> {
        let mut ops = Vec::new();
        for raw in text.split(';') {
            let stmt = raw.trim();
            if stmt.is_empty() {
                continue;
            }
            ops.push(parse_statement(stmt)?);
        }
        Ok(TrafficDelta { ops })
    }
}

impl fmt::Display for TrafficDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

fn parse_factor(stmt: &str, text: &str) -> Result<f64, TrafficError> {
    let factor: f64 = text.parse().map_err(|_| TrafficError::Parse {
        statement: stmt.to_string(),
        reason: format!("bad factor {text:?}"),
    })?;
    if !factor.is_finite() {
        return Err(TrafficError::FactorNotFinite);
    }
    if factor < 1.0 {
        return Err(TrafficError::FactorBelowOne { factor });
    }
    Ok(factor)
}

fn parse_edge_id(stmt: &str, text: &str) -> Result<u32, TrafficError> {
    text.parse().map_err(|_| TrafficError::Parse {
        statement: stmt.to_string(),
        reason: format!("bad edge id {text:?}"),
    })
}

fn parse_statement(stmt: &str) -> Result<TrafficOp, TrafficError> {
    if stmt == "clear" {
        return Ok(TrafficOp::Clear);
    }
    let (verb, rest) = stmt.split_once(':').ok_or_else(|| TrafficError::Parse {
        statement: stmt.to_string(),
        reason: "expected <verb>:<args>".to_string(),
    })?;
    match verb {
        "edge" => {
            let (id, factor) = rest.split_once('*').ok_or_else(|| TrafficError::Parse {
                statement: stmt.to_string(),
                reason: "expected edge:<id>*<factor>".to_string(),
            })?;
            Ok(TrafficOp::EdgeFactor {
                edge: parse_edge_id(stmt, id.trim())?,
                factor: parse_factor(stmt, factor.trim())?,
            })
        }
        "cat" => {
            let (tag, factor) = rest.split_once('*').ok_or_else(|| TrafficError::Parse {
                statement: stmt.to_string(),
                reason: "expected cat:<osm_tag>*<factor>".to_string(),
            })?;
            let tag = tag.trim();
            let category = arp_roadnet::RoadCategory::from_osm_tag(tag).ok_or_else(|| {
                TrafficError::UnknownCategory {
                    tag: tag.to_string(),
                }
            })?;
            Ok(TrafficOp::CategoryFactor {
                category: category.code(),
                factor: parse_factor(stmt, factor.trim())?,
            })
        }
        "close" => match rest.split_once("@@") {
            // The absolute-expiry (journal) form must be checked before
            // the single-`@` TTL form, which would otherwise swallow it.
            Some((id, expiry)) => {
                let expiry: u64 = expiry.trim().parse().map_err(|_| TrafficError::Parse {
                    statement: stmt.to_string(),
                    reason: format!("bad expiry tick {:?}", expiry.trim()),
                })?;
                Ok(TrafficOp::CloseAt {
                    edge: parse_edge_id(stmt, id.trim())?,
                    expiry,
                })
            }
            None => match rest.split_once('@') {
                Some((id, ttl)) => {
                    let ttl: u32 = ttl.trim().parse().map_err(|_| TrafficError::Parse {
                        statement: stmt.to_string(),
                        reason: format!("bad ttl {:?}", ttl.trim()),
                    })?;
                    Ok(TrafficOp::Close {
                        edge: parse_edge_id(stmt, id.trim())?,
                        ttl: Some(ttl),
                    })
                }
                None => Ok(TrafficOp::Close {
                    edge: parse_edge_id(stmt, rest.trim())?,
                    ttl: None,
                }),
            },
        },
        "reopen" => Ok(TrafficOp::Reopen {
            edge: parse_edge_id(stmt, rest.trim())?,
        }),
        other => Err(TrafficError::Parse {
            statement: stmt.to_string(),
            reason: format!("unknown verb {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grammar_round_trips() {
        let text = "cat:primary*1.8; close:412@3; edge:77*2.5; reopen:9; close:5; clear";
        let delta = TrafficDelta::parse(text).unwrap();
        assert_eq!(delta.ops.len(), 6);
        let rendered = delta.to_string();
        assert_eq!(TrafficDelta::parse(&rendered).unwrap(), delta);
    }

    #[test]
    fn whitespace_and_trailing_separator_tolerated() {
        let delta = TrafficDelta::parse("  edge:1*2.0 ;; close:2 ; ").unwrap();
        assert_eq!(delta.ops.len(), 2);
        assert!(TrafficDelta::parse("").unwrap().is_empty());
        assert!(TrafficDelta::parse("  ;  ").unwrap().is_empty());
    }

    #[test]
    fn factors_below_one_are_rejected() {
        assert_eq!(
            TrafficDelta::parse("edge:1*0.5"),
            Err(TrafficError::FactorBelowOne { factor: 0.5 })
        );
        assert_eq!(
            TrafficDelta::parse("cat:primary*0.0"),
            Err(TrafficError::FactorBelowOne { factor: 0.0 })
        );
        assert_eq!(
            TrafficDelta::parse("edge:1*inf"),
            Err(TrafficError::FactorNotFinite)
        );
        assert!(matches!(
            TrafficDelta::parse("edge:1*NaN"),
            Err(TrafficError::FactorNotFinite)
        ));
    }

    #[test]
    fn malformed_statements_reject_the_whole_delta() {
        assert!(TrafficDelta::parse("edge:1*2.0; bogus").is_err());
        assert!(TrafficDelta::parse("edge:*2.0").is_err());
        assert!(TrafficDelta::parse("edge:1").is_err());
        assert!(TrafficDelta::parse("close:abc").is_err());
        assert!(TrafficDelta::parse("close:1@xyz").is_err());
        assert!(TrafficDelta::parse("cat:autobahn*2.0").is_err());
        assert!(TrafficDelta::parse("open:1").is_err());
    }

    #[test]
    fn absolute_expiry_closures_parse_and_round_trip() {
        let delta = TrafficDelta::parse("close:7@@19").unwrap();
        assert_eq!(
            delta.ops[0],
            TrafficOp::CloseAt {
                edge: 7,
                expiry: 19
            }
        );
        assert_eq!(delta.to_string(), "close:7@@19");
        assert_eq!(TrafficDelta::parse(&delta.to_string()).unwrap(), delta);
        assert!(TrafficDelta::parse("close:7@@").is_err());
        assert!(TrafficDelta::parse("close:@@5").is_err());
        assert!(TrafficDelta::parse("close:7@@-1").is_err());
    }

    #[test]
    fn journal_form_absolutizes_ttls_only() {
        let delta =
            TrafficDelta::parse("close:1@3; close:2; close:4@@99; edge:0*2.0; clear").unwrap();
        let journal = delta.to_journal_form(10);
        assert_eq!(
            journal.ops[0],
            TrafficOp::CloseAt {
                edge: 1,
                expiry: 13
            },
            "relative TTL becomes now + ttl"
        );
        assert_eq!(journal.ops[1], TrafficOp::Close { edge: 2, ttl: None });
        assert_eq!(
            journal.ops[2],
            TrafficOp::CloseAt {
                edge: 4,
                expiry: 99
            }
        );
        assert_eq!(journal.ops[3..], delta.ops[3..]);
        // Journal form is a fixpoint: absolutizing twice changes nothing.
        assert_eq!(journal.to_journal_form(500), journal);
    }

    #[test]
    fn category_tags_map_to_codes() {
        let delta = TrafficDelta::parse("cat:motorway*1.5").unwrap();
        assert_eq!(
            delta.ops[0],
            TrafficOp::CategoryFactor {
                category: arp_roadnet::RoadCategory::Motorway.code(),
                factor: 1.5,
            }
        );
    }

    /// The statement forms a client may write, with `{id}`, `{tag}`,
    /// `{f}` (factor) and `{n}` (tick count) slots.
    const FORMS: [&str; 7] = [
        "edge:{id}*{f}",
        "cat:{tag}*{f}",
        "close:{id}",
        "close:{id}@{n}",
        "close:{id}@@{n}",
        "reopen:{id}",
        "clear",
    ];
    /// Per slot: `[accepted spellings, near misses]`.
    const IDS: [&[&str]; 2] = [
        &["0", "7", " 12 ", "+3", "4294967295"],
        &["4294967296", "-1", "", "1.5", "😀"],
    ];
    const TAGS: [&[&str]; 2] = [
        &["primary", "trunk_link", " motorway ", "residential"],
        &["autobahn", "", "Primary", "é"],
    ];
    const FACTORS: [&[&str]; 2] = [
        &["1", "1.8", "2.5", "1e3", ".5e1", "1.", "+2", "1e300"],
        &["1e309", "0.5", "-2", "inf", "NaN", "-inf", "", "→"],
    ];
    const TICKS: [&[&str]; 2] = [
        &["0", "3", "4294967295", "18446744073709551615"],
        &["4294967296", "18446744073709551616", "-1", "", "e"],
    ];
    /// Loose tokens stuck onto a statement.
    const SOUP: [&str; 13] = [
        ":", "*", "@", "@@", ";", "-", ".", "e", " ", "\t", "\n", "é", "clear",
    ];
    const SEPARATORS: [&str; 4] = [";", " ; ", ";;", "\n;"];

    /// One slot's spelling: a near miss one time in four.
    fn pick(slot: [&[&'static str]; 2], (roll, i): (usize, usize)) -> &'static str {
        let spellings = slot[usize::from(roll == 0)];
        spellings[i % spellings.len()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn parse_never_panics_and_what_it_accepts_round_trips(
            statements in proptest::collection::vec(
                (
                    0usize..FORMS.len(),
                    ((0usize..4, 0usize..8), (0usize..4, 0usize..8)),
                    ((0usize..4, 0usize..8), (0usize..4, 0usize..8)),
                    proptest::collection::vec(0usize..SOUP.len(), 0..6),
                    0usize..SEPARATORS.len(),
                ),
                0..4,
            ),
            now in 0u64..u64::MAX,
        ) {
            let mut text = String::new();
            for (form, (id, tag), (factor, ticks), soup, separator) in &statements {
                text.push_str(
                    &FORMS[*form]
                        .replace("{id}", pick(IDS, *id))
                        .replace("{tag}", pick(TAGS, *tag))
                        .replace("{f}", pick(FACTORS, *factor))
                        .replace("{n}", pick(TICKS, *ticks)),
                );
                // Half the statements stay clean.
                text.extend(soup.iter().skip(3).map(|&i| SOUP[i]));
                text.push_str(SEPARATORS[*separator]);
            }
            if let Ok(delta) = TrafficDelta::parse(&text) {
                let written = delta.to_string();
                prop_assert_eq!(TrafficDelta::parse(&written), Ok(delta.clone()), "{:?}", text);
                let journal = delta.to_journal_form(now);
                prop_assert_eq!(journal.to_journal_form(now), journal.clone(), "{:?}", text);
                prop_assert_eq!(TrafficDelta::parse(&journal.to_string()), Ok(journal));
            }
        }
    }
}
