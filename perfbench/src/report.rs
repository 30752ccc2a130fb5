//! Statistics, failure accounting and the result line.

use serde::{Serialize, Value};

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples that must lie beyond the reported tail latency.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a latency sample that still has at least
/// [`TAIL_BEYOND`] samples beyond it: the 11th-largest sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that rank.
    pub value: f64,
    /// Its percentile, `100 · (n − 10) / n` for `n` samples.
    pub percentile: f64,
}

/// The tail of `samples`, or `None` when there are too few samples to
/// have [`TAIL_BEYOND`] beyond any of them.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
    })
}

/// Attempted and failed operations of one run. An operation fails when
/// the program returns an error or its output fails a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted, including set-up calls and checks.
    pub attempted: u64,
    /// Operations that errored or produced a wrong answer.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one operation and prints why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("check failed: {}", what());
        }
        self.record(ok);
    }

    /// Folds another run part's counts into this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempted operations, percent.
    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * self.failed as f64 / self.attempted as f64
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// An ordered set of metrics with unique, validated names.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// On an invalid or repeated name: both are bugs in this program.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        self.0.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        });
    }

    /// The value of a metric, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// All metrics in report order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, …}`.
    /// Non-finite values serialize as `null`.
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Object(vec![
                            ("value".to_owned(), m.value.serialize()),
                            ("unit".to_owned(), m.unit.serialize()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The final line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(ops: Ops, metrics: &Metrics) -> String {
    let value = Value::Object(vec![
        ("correct".to_owned(), (ops.failed == 0).serialize()),
        ("attempted".to_owned(), ops.attempted.serialize()),
        ("failed".to_owned(), ops.failed.serialize()),
        ("metrics".to_owned(), metrics.to_value()),
    ]);
    serde_json::to_string(&value).expect("the vendored encoder cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for good in ["p50_ms", "ser_logicsim.pij_ms", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "p50 ms",
            "tail/ms",
            "_lead",
            ".lead",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().put("p50 ms", "ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn metrics_reject_repeated_names() {
        let mut m = Metrics::default();
        m.put("p50_ms", "ms", 1.0);
        m.put("p50_ms", "ms", 2.0);
    }

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        assert_eq!(tail(&[1.0; 10]), None, "10 samples have no tail");
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&samples).expect("11 samples");
        assert_eq!(t.value, 1.0);
        // 1000 samples: 10 beyond the 990th value, the p99 rank.
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        samples.reverse();
        let t = tail(&samples).expect("1000 samples");
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
        let beyond = samples.iter().filter(|&&s| s > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn failed_ops_count_against_attempted() {
        let mut ops = Ops::default();
        assert_eq!(ops.failed_pct(), 0.0);
        ops.record(true);
        ops.record(true);
        ops.check(false, || "wrong answer".to_owned());
        ops.record(true);
        assert_eq!(
            ops,
            Ops {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(ops.failed_pct(), 25.0);
        let mut total = Ops::default();
        total.absorb(ops);
        total.absorb(Ops {
            attempted: 6,
            failed: 0,
        });
        assert_eq!(total.failed_pct(), 10.0);
        let line = result_line(total, &Metrics::default());
        assert!(
            line.starts_with(r#"{"correct":false,"attempted":10,"failed":1,"#),
            "{line}"
        );
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("p50_ms", "ms", 1.5);
        m.put("setup_s", "s", 0.25);
        let line = result_line(
            Ops {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"p50_ms":{"value":1.5,"unit":"ms"},"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
