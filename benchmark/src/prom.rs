//! Parser for the Prometheus text exposition `GET /api/metrics` returns,
//! and the delta between two scrapes.

/// One scrape: every sample line, in order.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
}

#[derive(Clone, Debug, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Scrape {
    /// Comment lines and lines that do not parse are skipped: a scrape is
    /// read for the series the benchmark names, and a missing series
    /// reads as 0 either way.
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(parse_sample)
            .collect();
        Scrape { samples }
    }

    /// Sum of every series called `name` whose labels include all of
    /// `labels`. No labels selects every series of that name.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
            .sum()
    }
}

/// What happened between two scrapes of one server.
pub struct Delta<'a> {
    pub from: &'a Scrape,
    pub to: &'a Scrape,
}

impl Delta<'_> {
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.to.sum(name, labels) - self.from.sum(name, labels)
    }

    /// Mean of a histogram over the interval: Δ`_sum` ÷ Δ`_count`.
    pub fn mean(&self, histogram: &str, labels: &[(&str, &str)]) -> f64 {
        ratio(
            self.sum(&format!("{histogram}_sum"), labels),
            self.sum(&format!("{histogram}_count"), labels),
        )
    }
}

/// `num ÷ den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn parse_sample(line: &str) -> Option<Sample> {
    // The value never contains a space; a label value may.
    let (series, value) = line.trim_end().rsplit_once(' ')?;
    let value = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        None => (series, Vec::new()),
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// `k="v",k2="v2"` with `\\`, `\"` and `\n` escapes inside values.
fn parse_labels(text: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next()? {
                (i, '"') => break i,
                (_, '\\') => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                (_, c) => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        rest = after[end + 1..].trim_start_matches(',');
    }
    Some(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP arp_serve_cache_hits_total Cache hits.
# TYPE arp_serve_cache_hits_total counter
arp_serve_cache_hits_total 12
arp_serve_stage_latency_ms_bucket{stage=\"admit\",le=\"0.025\"} 3
arp_serve_stage_latency_ms_sum{stage=\"admit\"} 0.5
arp_serve_stage_latency_ms_count{stage=\"admit\"} 4
arp_serve_stage_latency_ms_sum{stage=\"compute\"} 40
arp_serve_stage_latency_ms_count{stage=\"compute\"} 2
arp_search_settled_nodes_total{technique=\"google_like\"} 66586
arp_search_settled_nodes_total{technique=\"penalty\"} 11400
arp_serve_retries_total{outcome=\"failure\",technique=\"penalty\"} 1
arp_serve_retries_total{outcome=\"success\",technique=\"penalty\"} 2
arp_odd{path=\"a b,c=\\\"d\\\"\\\\\",x=\"1\"} 7
this line is not a sample
arp_traffic_epoch 3
";

    #[test]
    fn parses_plain_and_labelled_series() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.sum("arp_serve_cache_hits_total", &[]), 12.0);
        assert_eq!(s.sum("arp_traffic_epoch", &[]), 3.0);
        assert_eq!(
            s.sum("arp_serve_stage_latency_ms_sum", &[("stage", "admit")]),
            0.5
        );
        assert_eq!(s.sum("arp_search_settled_nodes_total", &[]), 77986.0);
        assert_eq!(
            s.sum(
                "arp_search_settled_nodes_total",
                &[("technique", "penalty")]
            ),
            11400.0
        );
        assert_eq!(s.sum("arp_serve_retries_total", &[]), 3.0);
        assert_eq!(
            s.sum(
                "arp_serve_retries_total",
                &[("technique", "penalty"), ("outcome", "success")]
            ),
            2.0
        );
        assert_eq!(s.sum("arp_absent_total", &[]), 0.0);
    }

    #[test]
    fn label_values_may_hold_spaces_commas_and_escapes() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.sum("arp_odd", &[("path", "a b,c=\"d\"\\")]), 7.0);
        assert_eq!(s.sum("arp_odd", &[("x", "1")]), 7.0);
        assert_eq!(s.sum("arp_odd", &[("x", "2")]), 0.0);
    }

    #[test]
    fn delta_gives_interval_means() {
        let from = Scrape::parse(TEXT);
        let to = Scrape::parse(
            "arp_serve_stage_latency_ms_sum{stage=\"compute\"} 100\n\
             arp_serve_stage_latency_ms_count{stage=\"compute\"} 5\n\
             arp_serve_cache_hits_total 20\n",
        );
        let d = Delta {
            from: &from,
            to: &to,
        };
        assert_eq!(d.sum("arp_serve_cache_hits_total", &[]), 8.0);
        assert_eq!(
            d.mean("arp_serve_stage_latency_ms", &[("stage", "compute")]),
            20.0
        );
        assert_eq!(d.mean("arp_absent", &[]), 0.0);
    }
}
