//! The benchmark's result: named metrics with units, and the one-line
//! JSON object that ends standard output.

use std::fmt::Write;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Append a metric. A repeated name replaces the earlier value.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// Value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// All metrics in order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// JSON number for `v`. JSON has no NaN or infinity; those become 0 and
/// are caught by [`non_finite`] before reporting.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Names of metrics whose value is not a finite number.
pub fn non_finite(m: &Metrics) -> Vec<String> {
    m.iter()
        .filter(|x| !x.value.is_finite())
        .map(|x| x.name.clone())
        .collect()
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// `{"name":{"value":v,"unit":"u"},...}`
pub fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&x.name),
                num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(m)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("lat_p50_us", 81.25, "us");
        m.put("setup_s", 0.5, "s");
        m.put("setup_s", 0.25, "s");
        assert_eq!(m.get("setup_s"), Some(0.25));
        let line = result_line(true, 10, 1, &m);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{\
             \"lat_p50_us\":{\"value\":81.25,\"unit\":\"us\"},\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_flagged() {
        let mut m = Metrics::default();
        m.put("a", f64::NAN, "s");
        m.put("b", 1.0, "s");
        assert_eq!(non_finite(&m), vec!["a".to_string()]);
        assert!(metrics_json(&m).contains("\"a\":{\"value\":0,"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
