//! `--compare A B [--repeat-dir]`: judges run B against run A with the
//! regression bounds `BENCHMARK.json` fixes for its end-to-end metrics.
//!
//! Without `--repeat-dir`, A and B are single results files (`--out`).
//! With it, they are directories of results files, paired by sorted file
//! name; a metric whose spread in A exceeds its bound is *unresolved*
//! unless every run of B beats (or loses to) every run of A.

use std::collections::BTreeMap;
use std::path::Path;

use shiptlm_testkit::json::Json;

use crate::stats::quartiles;

type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// `(lower is better, bound)` of one end-to-end metric.
type Bound = (bool, f64);

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds() -> Result<BTreeMap<String, Bound>, String> {
    let doc = read_json(Path::new("BENCHMARK.json"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), (lower, bound)))
        })
        .collect()
}

/// Every value of every run in `path`, by workload and metric.
fn values(path: &str, repeat: bool) -> Result<Values, String> {
    let files: Vec<std::path::PathBuf> = if repeat {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.into()]
    };
    if files.is_empty() {
        return Err(format!("{path}: no results files"));
    }
    let mut out = Values::new();
    for file in files {
        let doc = read_json(&file)?;
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err(format!("{}: not a ledger results file", file.display()));
        };
        for (w, record) in workloads {
            let Some(Json::Obj(metrics)) = record.get("metrics") else {
                continue;
            };
            for (m, v) in metrics {
                if let Some(x) = v.get("value").and_then(Json::as_num) {
                    out.entry(w.clone())
                        .or_default()
                        .entry(m.clone())
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(out)
}

/// `b` against `a` under `bound`; the relative change is signed so that
/// positive is worse.
fn judge(a: &[f64], b: &[f64], (lower, bound): Bound) -> (Verdict, f64) {
    let (q1, ma, q3) = quartiles(a);
    let mb = quartiles(b).1;
    let worse_by = |x: f64, y: f64| if lower { y - x } else { x - y };
    let change = if ma == 0.0 {
        0.0
    } else {
        worse_by(ma, mb) / ma.abs()
    };
    let spread = if ma == 0.0 { 0.0 } else { (q3 - q1) / ma.abs() };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| worse_by(x, y) < 0.0));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| worse_by(x, y) > 0.0));
    let verdict = if spread > bound && !all_better && !all_worse {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if a.len() > 1 {
        let pairs = a.len().min(b.len());
        let wins = a
            .iter()
            .zip(b)
            .filter(|(&x, &y)| worse_by(x, y) < 0.0)
            .count();
        if wins * 10 >= pairs * 9 && -change > spread {
            Verdict::Better
        } else {
            Verdict::Same
        }
    } else if -change > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, change)
}

/// Prints a verdict per workload and metric; `Ok(false)` when any
/// end-to-end metric got worse.
pub fn run(a: &str, b: &str, repeat: bool) -> Result<bool, String> {
    let bounds = bounds()?;
    let (va, vb) = (values(a, repeat)?, values(b, repeat)?);
    let mut ok = true;
    for (w, metrics) in &va {
        let Some(other) = vb.get(w) else { continue };
        for (m, xs) in metrics {
            let Some(ys) = other.get(m) else { continue };
            let (qa, qb) = (quartiles(xs), quartiles(ys));
            let quart = |q: (f64, f64, f64)| format!("[{:.4} {:.4} {:.4}]", q.0, q.1, q.2);
            let detail = if xs.len().min(ys.len()) >= 10 {
                format!(" A{} B{}", quart(qa), quart(qb))
            } else {
                String::new()
            };
            match bounds.get(m) {
                Some(&bound) => {
                    let (verdict, change) = judge(xs, ys, bound);
                    ok &= verdict != Verdict::Worse;
                    println!(
                        "{w} {m}: A {:.4} B {:.4} worse by {:+.1}% (bound {:.0}%) {verdict:?}{detail}",
                        qa.1,
                        qb.1,
                        change * 100.0,
                        bound.1 * 100.0
                    );
                }
                None => {
                    let change = if qa.1 == 0.0 {
                        0.0
                    } else {
                        (qb.1 - qa.1) / qa.1.abs()
                    };
                    println!(
                        "{w} {m}: A {:.4} B {:.4} ({:+.1}%){detail}",
                        qa.1,
                        qb.1,
                        change * 100.0
                    );
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let lower = (true, 0.05);
        assert_eq!(judge(&[100.0], &[104.0], lower).0, Verdict::Same);
        assert_eq!(judge(&[100.0], &[106.0], lower).0, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[90.0], lower).0, Verdict::Better);
        assert_eq!(judge(&[100.0], &[90.0], (false, 0.05)).0, Verdict::Worse);
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let b: Vec<f64> = (0..10).map(|i| 90.0 + i as f64 * 0.5).collect();
        assert_eq!(judge(&a, &b, lower).0, Verdict::Better);
        let noisy: Vec<f64> = (0..10).map(|i| 60.0 + 10.0 * i as f64).collect();
        let mixed: Vec<f64> = (0..10).map(|i| 65.0 + 10.0 * i as f64).collect();
        assert_eq!(judge(&noisy, &mixed, lower).0, Verdict::Unresolved);
    }
}
