//! The benchmark's output: a human-readable block, a `meta` line
//! stamping the host and build, and — always the last line — one JSON
//! result object with exactly the keys `correct`, `attempted`, `failed`
//! and `metrics`.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Quote `s` as a JSON string.
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

/// Format a measured value with all its digits. `f64`'s `Display` is the
/// shortest string that reads back to the same value and never uses an
/// exponent, so it is valid JSON for every finite value; non-finite
/// values have no JSON form and are refused.
fn json_number(name: &str, value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("metric {name} is not a finite number ({value})"))
    }
}

/// The result object, on one line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_number(m.name, m.value)?,
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// A flat JSON object of already-formatted values, for the `meta` line.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// The metrics as aligned `name value unit` rows.
pub fn table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "  {:<width$}  {:>14.4}  {}", m.name, m.value, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[Metric::new("latency_p50_ms", "ms", 1.2034), Metric::new("setup_s", "s", 0.8127)],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn values_keep_all_their_digits_without_exponents() {
        let line = result_line(false, 1, 1, &[Metric::new("x", "s", 1.0 / 3.0)]).unwrap();
        assert!(line.contains("\"value\": 0.3333333333333333,"), "{line}");
        let tiny = result_line(true, 1, 0, &[Metric::new("x", "s", 1e-7)]).unwrap();
        assert!(tiny.contains("\"value\": 0.0000001,"), "{tiny}");
        let whole = result_line(true, 1, 0, &[Metric::new("x", "count", 38.0)]).unwrap();
        assert!(whole.contains("\"value\": 38,"), "{whole}");
    }

    #[test]
    fn non_finite_values_are_refused() {
        assert!(result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("x", "s", f64::INFINITY)]).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(
            object(&[("nproc", "2".into()), ("profile", json_str("release"))]),
            "{\"nproc\": 2, \"profile\": \"release\"}"
        );
    }
}
