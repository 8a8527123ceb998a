//! `compare`: parent against change, from at least ten alternating pairs
//! of result files, one row per (metric, workload).
//!
//! All gated metrics are lower-is-better. A row is
//!
//! * `improved` when the change wins at least nine tenths of all pairs
//!   (ties count for neither side) and the medians differ by more than
//!   the distance between the parent's own quartiles;
//! * `regressed` when the change's median is worse than the parent's by
//!   more than the metric's bound and by more than that distance;
//! * `unresolved` when neither holds and the parent's quartile distance
//!   is wider than the bound, so "no regression" cannot be told from
//!   noise;
//! * `unchanged` otherwise.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::spec::GATES;
use crate::stats::{median, quartiles};

/// Fewest pairs a comparison may rest on.
pub const MIN_PAIRS: usize = 10;

/// A row's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is faster or smaller, beyond noise.
    Improved,
    /// No difference beyond the bound, and noise is within the bound.
    Unchanged,
    /// The change is worse by more than the bound, beyond noise.
    Regressed,
    /// Run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Parent quartiles (q1, median, q3).
    pub parent: [f64; 3],
    /// Change quartiles (q1, median, q3).
    pub change: [f64; 3],
    /// Change median over parent median; the parent median is the base.
    pub ratio: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs the change lost.
    pub losses: usize,
    /// Outcome.
    pub verdict: Verdict,
}

/// Judges one lower-is-better metric from paired samples.
pub fn judge(parent: &[f64], change: &[f64], bound: f64) -> (Verdict, usize, usize) {
    assert_eq!(parent.len(), change.len(), "samples come in pairs");
    let wins = parent.iter().zip(change).filter(|(p, c)| c < p).count();
    let losses = parent.iter().zip(change).filter(|(p, c)| c > p).count();
    let [q1, _, q3] = quartiles(parent);
    let (base, new) = (median(parent), median(change));
    let noise = q3 - q1;
    let beyond_noise = (new - base).abs() > noise;
    let verdict = if new > base * (1.0 + bound) && beyond_noise {
        Verdict::Regressed
    } else if new < base && beyond_noise && wins * 10 >= parent.len() * 9 {
        Verdict::Improved
    } else if noise > bound * base {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, wins, losses)
}

/// What one result file holds: gated metric values per workload and the
/// operation counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultFile {
    /// `(workload, metric)` to value.
    pub values: BTreeMap<(String, String), f64>,
    /// Operations attempted over all workloads.
    pub attempted: u64,
    /// Operations failed over all workloads.
    pub failed: u64,
}

/// Parses a result file: the harness's stdout saved as is. The report is
/// the last line that holds a `workloads` array (all-workload run) or a
/// `workload` name (single-workload run).
pub fn parse_result(text: &str) -> Result<ResultFile, String> {
    let doc = text
        .lines()
        .rev()
        .filter_map(|line| serde_json::from_str::<Value>(line.trim()).ok())
        .chain(serde_json::from_str::<Value>(text).ok())
        .find(|v| v.get("workloads").is_some() || v.get("workload").is_some())
        .ok_or("no benchmark report found")?;
    let reports: Vec<&Value> = match doc.get("workloads").and_then(Value::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![&doc],
    };
    let mut out = ResultFile::default();
    for report in reports {
        let workload = report["workload"]
            .as_str()
            .ok_or("report without a workload name")?;
        out.attempted += report["ops_attempted"].as_u64().unwrap_or(0);
        out.failed += report["ops_failed"].as_u64().unwrap_or(0);
        for gate in GATES {
            let value = report["metrics"][gate.name]["value"]
                .as_f64()
                .ok_or_else(|| format!("{workload}: no {}", gate.name))?;
            out.values
                .insert((workload.to_string(), gate.name.to_string()), value);
        }
    }
    Ok(out)
}

/// The comparison of `parents[i]` against `changes[i]` for every pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per (metric, workload) present in every file.
    pub rows: Vec<Row>,
    /// Failed over attempted operations, parent side.
    pub parent_failed_share: f64,
    /// Failed over attempted operations, change side.
    pub change_failed_share: f64,
}

impl Comparison {
    /// Whether the comparison must fail the caller: any regressed row, or
    /// a higher share of failed operations.
    pub fn rejects(&self) -> bool {
        self.change_failed_share > self.parent_failed_share
            || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The table, one row per (metric, workload).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<12} {:>34} {:>34} {:>22} {:>7}  verdict\n",
            "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "ratio", "wins"
        );
        for r in &self.rows {
            let q = |v: [f64; 3]| format!("{:.4}/{:.4}/{:.4}", v[0], v[1], v[2]);
            out += &format!(
                "{:<16} {:<12} {:>34} {:>34} {:>22} {:>7}  {}\n",
                r.workload,
                r.metric,
                q(r.parent),
                q(r.change),
                format!("{:.4} of {:.4}", r.ratio, r.parent[1]),
                format!("{}/{}", r.wins, r.wins + r.losses),
                r.verdict.name()
            );
        }
        out += &format!(
            "failed-operation share: parent {:.6}, change {:.6}\n",
            self.parent_failed_share, self.change_failed_share
        );
        out
    }
}

/// Compares paired result files.
pub fn compare(parents: &[ResultFile], changes: &[ResultFile]) -> Result<Comparison, String> {
    if parents.len() != changes.len() {
        return Err(format!(
            "{} parent files but {} change files: results come in pairs",
            parents.len(),
            changes.len()
        ));
    }
    if parents.len() < MIN_PAIRS {
        return Err(format!(
            "{} pairs given, at least {MIN_PAIRS} needed",
            parents.len()
        ));
    }
    let share = |files: &[ResultFile]| {
        let attempted: u64 = files.iter().map(|f| f.attempted).sum();
        let failed: u64 = files.iter().map(|f| f.failed).sum();
        failed as f64 / attempted.max(1) as f64
    };
    let mut rows = Vec::new();
    for key in parents[0].values.keys() {
        let series = |files: &[ResultFile]| -> Option<Vec<f64>> {
            files.iter().map(|f| f.values.get(key).copied()).collect()
        };
        let (Some(p), Some(c)) = (series(parents), series(changes)) else {
            return Err(format!("{} {} is missing from some file", key.0, key.1));
        };
        let gate = GATES
            .iter()
            .find(|g| g.name == key.1)
            .expect("only gated metrics are parsed");
        let (verdict, wins, losses) = judge(&p, &c, gate.bound);
        rows.push(Row {
            workload: key.0.clone(),
            metric: gate.name,
            parent: quartiles(&p),
            change: quartiles(&c),
            ratio: median(&c) / median(&p),
            wins,
            losses,
            verdict,
        });
    }
    Ok(Comparison {
        rows,
        parent_failed_share: share(parents),
        change_failed_share: share(changes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten samples around `centre`, `jitter` wide, in a fixed zig-zag.
    fn samples(centre: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre + jitter * ((i * 7 % 10) as f64 / 9.0 - 0.5))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let quiet = samples(1.0, 0.01);
        // Clearly faster, every pair won.
        assert_eq!(
            judge(&quiet, &samples(0.8, 0.01), 0.08).0,
            Verdict::Improved
        );
        // Worse by 20 % against an 8 % bound.
        assert_eq!(
            judge(&quiet, &samples(1.2, 0.01), 0.08).0,
            Verdict::Regressed
        );
        // Worse by 3 %: inside the bound.
        assert_eq!(
            judge(&quiet, &samples(1.03, 0.01), 0.08).0,
            Verdict::Unchanged
        );
        // Same build twice.
        assert_eq!(judge(&quiet, &quiet, 0.08).0, Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // Parent quartiles 30 % apart against an 8 % bound: a 5 % shift
        // cannot be told from noise.
        let noisy = samples(1.0, 0.6);
        let (verdict, ..) = judge(&noisy, &samples(1.05, 0.6), 0.08);
        assert_eq!(verdict, Verdict::Unresolved);
        // A shift far beyond even that noise still regresses.
        assert_eq!(
            judge(&noisy, &samples(2.0, 0.6), 0.08).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_faster_median_that_loses_pairs_is_not_an_improvement() {
        let parent = samples(1.0, 0.01);
        let mut change = samples(0.9, 0.01);
        change[0] = 1.5;
        change[1] = 1.5;
        let (verdict, wins, losses) = judge(&parent, &change, 0.08);
        assert_eq!((wins, losses), (8, 2));
        assert_eq!(verdict, Verdict::Unchanged);
    }

    fn file(wall: f64, failed: u64) -> ResultFile {
        let text = format!(
            r#"{{"workloads":[{{"workload":"zoo-sim","ops_attempted":100,"ops_failed":{failed},"metrics":{{"wall_s":{{"value":{wall}}},"setup_s":{{"value":0.2}},"peak_rss_mb":{{"value":50.0}}}}}}]}}"#
        );
        parse_result(&format!("build noise\n{text}\n")).unwrap()
    }

    #[test]
    fn compare_needs_ten_pairs_and_rejects_on_regression_or_more_failures() {
        let parents: Vec<_> = samples(1.0, 0.01).into_iter().map(|w| file(w, 0)).collect();
        assert!(compare(&parents[..9], &parents[..9]).is_err());

        let same = compare(&parents, &parents).unwrap();
        assert_eq!(same.rows.len(), 3);
        assert!(!same.rejects());
        assert!(same.render().contains("unchanged"));

        let slower: Vec<_> = samples(1.3, 0.01).into_iter().map(|w| file(w, 0)).collect();
        let worse = compare(&parents, &slower).unwrap();
        let wall = worse.rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!(wall.verdict, Verdict::Regressed);
        assert!((wall.ratio - 1.3).abs() < 0.01);
        assert!(worse.rejects());

        let failing: Vec<_> = samples(1.0, 0.01).into_iter().map(|w| file(w, 1)).collect();
        assert!(compare(&parents, &failing).unwrap().rejects());
    }

    #[test]
    fn single_workload_stdout_parses_too() {
        let text = concat!(
            r#"{"workload":"dse-sweep","ops_attempted":9,"ops_failed":0,"metrics":{"wall_s":{"value":1.7},"setup_s":{"value":1.8},"peak_rss_mb":{"value":80.5}}}"#,
            "\n",
            r#"{"correct":true,"attempted":9,"failed":0,"metrics":{}}"#,
            "\n"
        );
        let parsed = parse_result(text).unwrap();
        assert_eq!(parsed.attempted, 9);
        assert_eq!(
            parsed.values[&("dse-sweep".to_string(), "wall_s".to_string())],
            1.7
        );
    }
}
