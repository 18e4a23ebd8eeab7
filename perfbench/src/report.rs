//! The report of one invocation: every metric with its unit and sample
//! count, the host facts, the tallies and the checks, printed as a
//! table, written as one JSON document, and summed up in the final
//! stdout line the benchmark contract asks for.

use std::fmt::Write as _;

use crate::stats::Quantile;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from, when it is a statistic.
    pub n: Option<usize>,
    /// Samples beyond a percentile, when it is one.
    pub beyond: Option<usize>,
    pub note: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Metrics named in the benchmark definition, in order.
    pub metrics: Vec<Metric>,
    /// Further measurements, written to the report document only.
    pub extra: Vec<Metric>,
    pub facts: Vec<(&'static str, String)>,
    /// Failed checks; empty when the run is correct.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        n: None,
        beyond: None,
        note: "",
    }
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) -> &mut Metric {
        self.metrics.push(metric(name, value, unit));
        self.metrics.last_mut().expect("just pushed")
    }

    pub fn put_extra(&mut self, name: &str, value: f64, unit: &'static str) -> &mut Metric {
        self.extra.push(metric(name, value, unit));
        self.extra.last_mut().expect("just pushed")
    }

    /// A percentile metric; a missing percentile (no samples) is a
    /// problem, since every reported metric must be measured.
    pub fn put_quantile(&mut self, name: &str, q: Option<Quantile>) -> &mut Metric {
        let q = q.unwrap_or_else(|| {
            self.problems.push(format!("{name}: no samples"));
            Quantile {
                value: f64::NAN,
                n: 0,
                beyond: 0,
            }
        });
        let m = self.put(name, q.value, "ms");
        m.n = Some(q.n);
        m.beyond = Some(q.beyond);
        m
    }

    /// Whether a metric of this name was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics
            .iter()
            .chain(&self.extra)
            .any(|m| m.name == name)
    }

    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Checks every metric is a finite number; a non-finite value is a
    /// problem (and is written as 0 so the document still parses).
    pub fn validate(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.extra)
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{}: not a finite number", m.name))
            .collect();
        self.problems.extend(bad);
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.facts {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for (title, rows) in [
            ("metrics", &self.metrics),
            ("other measurements", &self.extra),
        ] {
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(out, "## {title}");
            for m in rows.iter() {
                let samples = match (m.n, m.beyond) {
                    (Some(n), Some(b)) => format!(
                        "n={n} beyond={b}{}",
                        if b < crate::stats::MIN_BEYOND {
                            " (thin)"
                        } else {
                            ""
                        }
                    ),
                    (Some(n), None) => format!("n={n}"),
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{:<34} {:>14.4} {:<8} {:<26} {}",
                    m.name, m.value, m.unit, samples, m.note
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {p}");
        }
        out
    }

    /// The report document.
    pub fn document(&self) -> String {
        let rows = |ms: &[Metric]| {
            ms.iter()
                .map(|m| {
                    let mut s = format!(
                        "{{\"name\":{},\"value\":{},\"unit\":{}",
                        quote(&m.name),
                        num(m.value),
                        quote(m.unit)
                    );
                    if let Some(n) = m.n {
                        let _ = write!(s, ",\"samples\":{n}");
                    }
                    if let Some(b) = m.beyond {
                        let _ = write!(s, ",\"beyond\":{b}");
                    }
                    if !m.note.is_empty() {
                        let _ = write!(s, ",\"note\":{}", quote(m.note));
                    }
                    s.push('}');
                    s
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let facts = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect::<Vec<_>>()
            .join(",");
        let list = |xs: &[String]| xs.iter().map(|x| quote(x)).collect::<Vec<_>>().join(",");
        format!(
            "{{\"facts\":{{{facts}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":[{}],\"other\":[{}],\"notes\":[{}],\"problems\":[{}]}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            rows(&self.metrics),
            rows(&self.extra),
            list(&self.notes),
            list(&self.problems)
        )
    }

    /// The contract's last stdout line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.put("latency_p50_ms", 1.25, "ms");
        r.put("setup_s", 0.5, "s");
        r.attempted = 3;
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        r.put_quantile("latency_p99_ms", None);
        r.validate();
        assert!(!r.correct(), "a metric without samples fails the run");
        assert_eq!(quote("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
