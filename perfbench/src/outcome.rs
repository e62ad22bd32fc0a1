//! What one workload run produces: metrics, correctness checks and the
//! operation counts of the result line.

use crate::json::Json;
use crate::stats::Summary;

/// One reported number.  `detail` carries the median/tail/count of a timing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub detail: Option<Summary>,
    /// Computed from sizes rather than measured (kernel flop and byte counts).
    pub computed: bool,
}

/// A correctness check; a failed one fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations the workload attempted (requests, folds, forecasts, ...),
    /// not counting checks.
    pub operations: usize,
    /// Operations that failed (shed, expired or errored requests).
    pub failed_operations: usize,
    /// Workload parameters, for provenance.
    pub params: Vec<(String, Json)>,
    /// Figures printed and recorded but kept out of the result line, because
    /// host noise makes them too unsteady to bound.
    pub diagnostics: Vec<Metric>,
}

impl Outcome {
    /// Report a plain value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, None, false);
    }

    /// Report a value read off a set of samples (a percentile), keeping the
    /// samples' summary for the human-readable output.
    pub fn value_with(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        detail: Option<Summary>,
    ) {
        self.push(name, unit, value, detail, false);
    }

    /// Record a figure that is printed and kept in the trajectory, but is not
    /// one of the result line's metrics.
    pub fn diagnostic(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        detail: Option<Summary>,
    ) {
        self.diagnostics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            detail,
            computed: false,
        });
    }

    /// Report a count.
    pub fn count(&mut self, name: &str, value: usize) {
        self.push(name, "count", value as f64, None, false);
    }

    /// Report a value computed from sizes, not measured.
    pub fn computed(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, None, true);
    }

    /// Report the median of timing samples (already in `unit`) and keep the
    /// summary for the human-readable output.  Returns the median.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> f64 {
        let summary = Summary::of(samples);
        self.push(name, unit, summary.median, Some(summary), false);
        summary.median
    }

    fn push(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        detail: Option<Summary>,
        computed: bool,
    ) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            detail,
            computed,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn param(&mut self, name: &str, value: Json) {
        self.params.push((name.to_string(), value));
    }

    /// Operations attempted, each check counting as one.
    pub fn attempted(&self) -> usize {
        self.operations + self.checks.len()
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> usize {
        self.failed_operations + self.checks.iter().filter(|c| !c.ok).count()
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The `metrics` object of the result line.
    pub fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }

    /// Declared metrics this run did not measure.
    pub fn unmeasured(&self, declared: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        declared
            .iter()
            .filter(|(name, _)| self.metrics.iter().all(|m| m.name != *name))
            .map(|(name, _)| *name)
            .collect()
    }

    /// The machine-readable result line, printed last.  Its metrics are
    /// exactly `declared`, each in its declared unit.  A declared metric the
    /// run did not measure reads 0 when `missing_is_zero` (a per-layer
    /// metric of a layer another workload measures) and is a bug otherwise,
    /// as is a reported metric that is not declared.
    pub fn result_line(&self, declared: &[(&str, &str)], missing_is_zero: bool) -> Json {
        for m in &self.metrics {
            assert!(
                declared.iter().any(|(name, _)| *name == m.name),
                "metric {} is not declared",
                m.name
            );
        }
        let metrics = Json::obj(declared.iter().map(|&(name, unit)| {
            let value = match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => {
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m.value
                }
                None => {
                    assert!(missing_is_zero, "metric {name} was not reported");
                    0.0
                }
            };
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }));
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::int(self.attempted())),
            ("failed", Json::int(self.failed())),
            ("metrics", metrics),
        ])
    }

    /// Print every metric with its unit and sample count, then the checks.
    pub fn print_human(&self, label: &str) {
        println!("== {label}");
        for (m, note) in self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.diagnostics.iter().map(|m| (m, "  (diagnostic)")))
        {
            let how = match (&m.detail, m.computed) {
                (Some(s), _) => format!("  [{}]", s.describe()),
                (None, true) => "  [computed from sizes]".to_string(),
                (None, false) => String::new(),
            };
            println!(
                "  {:<22} {:>16} {}{how}{note}",
                m.name,
                format_value(m.value),
                m.unit
            );
        }
        for c in &self.checks {
            println!(
                "  check {:<28} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        println!(
            "  operations: attempted {} failed {}",
            self.attempted(),
            self.failed()
        );
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}
