//! Response store: the feedback form's back-end (Fig. 3).
//!
//! Collects 1–5 ratings per blind label plus the residency flag and an
//! optional comment, exactly the fields the paper's form gathers. The
//! store is in memory; its CSV form is served at `/api/results.csv`.

use std::sync::Mutex;

use crate::blind::LABELS;
use crate::error::DemoError;

/// One submitted feedback form.
#[derive(Clone, Debug, PartialEq)]
pub struct Submission {
    /// Ratings for labels A–D, each 1–5.
    pub ratings: [u8; 4],
    /// "Are you currently living (or have lived) in `<city>`?"
    pub resident: bool,
    /// Fastest route's display minutes for the rated query (used to bin
    /// responses like §4.1).
    pub fastest_minutes: u64,
    /// Optional free-text comment.
    pub comment: String,
}

impl Submission {
    /// Validates rating bounds.
    pub fn validate(&self) -> Result<(), DemoError> {
        for (i, &r) in self.ratings.iter().enumerate() {
            if !(1..=5).contains(&r) {
                return Err(DemoError::BadRequest(format!(
                    "rating for {} must be 1-5, got {r}",
                    LABELS[i]
                )));
            }
        }
        Ok(())
    }
}

/// Per-label summary of collected ratings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelSummary {
    /// Blind label.
    pub label: char,
    /// Number of ratings.
    pub count: usize,
    /// Mean rating.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
}

/// Thread-safe in-memory store with a CSV export.
#[derive(Debug, Default)]
pub struct ResponseStore {
    rows: Mutex<Vec<Submission>>,
}

impl ResponseStore {
    /// An empty store.
    pub fn new() -> ResponseStore {
        ResponseStore::default()
    }

    /// Adds a validated submission.
    pub fn submit(&self, s: Submission) -> Result<(), DemoError> {
        s.validate()?;
        self.rows.lock().expect("store lock").push(s);
        Ok(())
    }

    /// Number of stored submissions.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("store lock").len()
    }

    /// True when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all submissions.
    pub fn snapshot(&self) -> Vec<Submission> {
        self.rows.lock().expect("store lock").clone()
    }

    /// Summary per blind label, optionally filtered by residency.
    pub fn summary(&self, resident: Option<bool>) -> Vec<LabelSummary> {
        let rows = self.rows.lock().expect("store lock");
        LABELS
            .iter()
            .enumerate()
            .map(|(i, &label)| {
                let mut n = 0usize;
                let mut sum = 0.0;
                let mut sum_sq = 0.0;
                for s in rows.iter() {
                    if resident.is_some_and(|want| s.resident != want) {
                        continue;
                    }
                    let x = s.ratings[i] as f64;
                    n += 1;
                    sum += x;
                    sum_sq += x * x;
                }
                let mean = if n > 0 { sum / n as f64 } else { 0.0 };
                let sd = if n > 1 {
                    ((sum_sq - sum * sum / n as f64) / (n as f64 - 1.0))
                        .max(0.0)
                        .sqrt()
                } else {
                    0.0
                };
                LabelSummary {
                    label,
                    count: n,
                    mean,
                    sd,
                }
            })
            .collect()
    }

    /// Serializes all rows to CSV (header + one line per submission).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("rating_a,rating_b,rating_c,rating_d,resident,fastest_minutes,comment\n");
        for s in self.rows.lock().expect("store lock").iter() {
            let comment = s.comment.replace('"', "\"\"");
            out.push_str(&format!(
                "{},{},{},{},{},{},\"{}\"\n",
                s.ratings[0],
                s.ratings[1],
                s.ratings[2],
                s.ratings[3],
                s.resident,
                s.fastest_minutes,
                comment
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(ratings: [u8; 4], resident: bool) -> Submission {
        Submission {
            ratings,
            resident,
            fastest_minutes: 14,
            comment: String::new(),
        }
    }

    #[test]
    fn submit_and_summary() {
        let store = ResponseStore::new();
        store.submit(sub([3, 4, 5, 4], true)).unwrap();
        store.submit(sub([1, 4, 3, 2], false)).unwrap();
        store.submit(sub([5, 4, 4, 3], true)).unwrap();
        assert_eq!(store.len(), 3);

        let all = store.summary(None);
        assert_eq!(all[0].label, 'A');
        assert!((all[0].mean - 3.0).abs() < 1e-9);
        assert!((all[1].mean - 4.0).abs() < 1e-9);
        assert_eq!(all[1].sd, 0.0);

        let residents = store.summary(Some(true));
        assert_eq!(residents[0].count, 2);
        assert!((residents[0].mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_ratings_rejected() {
        let store = ResponseStore::new();
        assert!(store.submit(sub([0, 3, 3, 3], true)).is_err());
        assert!(store.submit(sub([3, 6, 3, 3], true)).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn csv_has_a_header_and_one_quoted_row_per_submission() {
        let store = ResponseStore::new();
        store
            .submit(Submission {
                ratings: [2, 3, 4, 5],
                resident: true,
                fastest_minutes: 24,
                comment: "no route using \"Blackburn rd\"".into(),
            })
            .unwrap();
        store.submit(sub([1, 1, 1, 1], false)).unwrap();
        assert_eq!(
            store.to_csv(),
            "rating_a,rating_b,rating_c,rating_d,resident,fastest_minutes,comment\n\
             2,3,4,5,true,24,\"no route using \"\"Blackburn rd\"\"\"\n\
             1,1,1,1,false,14,\"\"\n"
        );
    }

    #[test]
    fn empty_store_summary() {
        let store = ResponseStore::new();
        let s = store.summary(None);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].count, 0);
        assert_eq!(s[0].mean, 0.0);
    }

    #[test]
    fn concurrent_submissions() {
        use std::sync::Arc;
        let store = Arc::new(ResponseStore::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let st = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    st.submit(sub([1 + (i % 5) as u8, 3, 3, 3], i % 2 == 0))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
    }
}
