//! What one benchmark process reports: metrics, output checks, run
//! metadata and the self-time table, rendered as one JSON object.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest, used to fingerprint report JSON.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
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

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Accumulated result of one workload process.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(String, String)>,
    /// Operations whose output was checked.
    pub attempted: u64,
    failed: u64,
    /// The first failures' descriptions (bounded).
    failures: Vec<String>,
    layers: String,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records run metadata, rendered as a JSON string.
    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta
            .push((key.to_string(), json_str(&value.to_string())));
    }

    /// Counts one checked operation; records `what` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 50 {
                self.failures.push(what());
            }
        }
    }

    /// Stores the self-time table of a traced run.
    pub fn set_layers(&mut self, tracer: &Tracer) {
        let mut rows = Vec::new();
        for (name, t) in tracer.layer_times() {
            rows.push(format!(
                "{{\"layer\":{},\"calls\":{},\"items\":{},\"total_ms\":{},\"self_ms\":{}}}",
                json_str(name),
                t.calls,
                t.items,
                json_num(t.total_ns as f64 / 1e6),
                json_num(t.self_ns as f64 / 1e6)
            ));
        }
        self.layers = rows.join(",");
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"meta\":{{{}}},\"failures\":[{}],\"layers\":[{}]}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(","),
            meta.join(","),
            failures.join(","),
            self.layers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn failures_are_counted() {
        let mut o = Outcome::default();
        o.check(true, || "fine".into());
        o.check(false, || "broken \"x\"".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o
            .to_json()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
    }
}
