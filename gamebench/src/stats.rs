//! Order statistics and the few lines of JSON the benchmark prints.
//! Self-contained on purpose: nothing here depends on the crates being
//! measured, so editing them can never change how a number is reduced.

use std::fmt::Write as _;

/// A percentile is only reported when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 1) of `values`. Rejects (returns
/// `None`) a percentile with fewer than [`MIN_SAMPLES_BEYOND`] samples
/// strictly beyond it: p95 needs 200 samples, p99 needs 1000.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be in (0, 1)");
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// FNV-1a, the state digest's hash: stable across runs, platforms and
/// toolchains (unlike `DefaultHasher`, whose algorithm is unspecified).
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// JSON string literal for `s`.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for `v` with every digit it was measured with. JSON has
/// no NaN/inf; a non-finite value is a benchmark bug, reported loudly.
pub fn jnum(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    // `{}` on f64 prints the shortest digits that round-trip, never an
    // exponent, and "3" for 3.0 — all valid JSON numbers.
    format!("{v}")
}

/// JSON object from already-encoded `(key, value)` pairs, in order.
pub fn jobj(pairs: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&jstr(k));
        out.push_str(": ");
        out.push_str(v);
    }
    out.push('}');
    out
}

/// One metric as the contract's `{"value": .., "unit": ..}` object.
pub fn jmetric(value: f64, unit: &str) -> String {
    jobj(&[("value", jnum(value)), ("unit", jstr(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_rejects_thin_tails() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 of 199 samples: rank 190, only 9 beyond -> rejected
        assert_eq!(percentile(&v, 0.95), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples: rank 190, exactly 10 beyond -> accepted
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        // p99 needs 1000 samples
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p50 of 20 samples has exactly 10 beyond
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.95), Some(380.0));
    }

    #[test]
    fn json_shape_and_escaping() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(jnum(3.0), "3");
        assert_eq!(jnum(1.2034), "1.2034");
        let m = jmetric(0.8127, "s");
        assert_eq!(m, "{\"value\": 0.8127, \"unit\": \"s\"}");
        let o = jobj(&[
            ("correct", "true".into()),
            ("metrics", jobj(&[("setup_s", m)])),
        ]);
        assert_eq!(
            o,
            "{\"correct\": true, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn fnv_is_the_published_function() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
