//! One repetition's result: request accounting, output checks and the
//! measured metrics, printed as a single JSON line for `run.py`.

/// The result of one repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Requests the workload sent.
    pub sent: u64,
    /// Requests that completed.
    pub succeeded: u64,
    /// Requests lost to a failed output check (all of the repetition's
    /// requests when a whole-run check fails).
    pub failed: u64,
    /// Descriptions of failed output checks; empty when all passed.
    pub failures: Vec<String>,
    /// FNV-1a digest of the run's report, for cross-repetition
    /// determinism checks (0 where the report depends on wall time).
    pub report_digest: u64,
    /// Metrics in report order.
    pub metrics: Vec<(String, f64)>,
}

impl Rep {
    /// Records a metric; a non-finite value fails the run's checks.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value));
    }

    /// Records 0 for every name in `names` not measured by this run:
    /// layers a workload does not exercise.
    pub fn fill_missing(&mut self, names: &[String]) {
        for name in names {
            if !self.metrics.iter().any(|(k, _)| k == name) {
                self.metrics.push((name.clone(), 0.0));
            }
        }
    }

    /// Records an output check; a failing one is listed with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Settles request accounting: a failed check fails every request
    /// the repetition sent.
    pub fn settle(&mut self) {
        if !self.failures.is_empty() {
            self.failed = self.sent;
        }
    }

    /// Renders the repetition as one JSON object.
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), if v.is_finite() { *v } else { 0.0 }))
            .collect();
        format!(
            "{{\"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"report_digest\": \"{:016x}\", \"failures\": [{}], \"metrics\": {{{}}}}}",
            self.sent,
            self.succeeded,
            self.failed,
            self.report_digest,
            failures.join(", "),
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Incremental 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_check_fails_every_request_sent() {
        let mut rep = Rep {
            sent: 10,
            succeeded: 10,
            ..Rep::default()
        };
        rep.check(true, || unreachable!());
        rep.settle();
        assert_eq!(rep.failed, 0);
        rep.check(false, || "lost a request".into());
        rep.settle();
        assert_eq!(rep.failed, 10);
    }

    #[test]
    fn non_finite_metric_fails_and_json_stays_parseable() {
        let mut rep = Rep::default();
        rep.put("x", f64::NAN);
        rep.put("y\"1", 1.5);
        assert_eq!(rep.failures.len(), 1);
        let json = rep.to_json();
        assert!(json.contains("\"x\": 0"), "{json}");
        assert!(json.contains("\"y\\\"1\": 1.5"));
        serde_json::parse_value(&json).expect("valid JSON");
    }

    #[test]
    fn fnv_distinguishes_order() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
