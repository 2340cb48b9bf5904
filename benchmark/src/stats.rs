//! The harness's own arithmetic: medians and quartiles over repeated
//! passes, the percentile rule, and the output digest.

/// Median, quartiles and range of the per-pass values of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// Summarises `values` (at least one).
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "a spread needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Spread {
            n: v.len(),
            median: percentile(&v, 50.0),
            q1: percentile(&v, 25.0),
            q3: percentile(&v, 75.0),
            min: v[0],
            max: v[v.len() - 1],
        }
    }
}

/// The `p`-th percentile (0–100) of an ascending slice, interpolating
/// linearly between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    Spread::of(values).median
}

/// The percentile rule: the highest of p50/p90/p95/p99 that still has
/// at least ten samples beyond it in a sample of `n`.
pub fn supported_percentile(n: usize) -> u32 {
    [99u32, 95, 90]
        .into_iter()
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
        .unwrap_or(50)
}

/// FNV-1a: the per-workload `output_digest` that lets a parent and a
/// change be compared by eye, and the key the trained models are filed
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// One completion: its id, then its tokens, length-prefixed so
    /// adjacent outputs cannot alias.
    pub fn output(&mut self, id: u64, tokens: &[u32]) {
        self.word(id);
        self.word(tokens.len() as u64);
        for &t in tokens {
            self.word(t as u64);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&[10.0, 20.0], 95.0) - 19.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn spread_sorts_before_it_summarises() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!((s.min, s.max), (1.0, 5.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(50), 50);
        assert_eq!(supported_percentile(99), 50);
        assert_eq!(supported_percentile(100), 90);
        assert_eq!(supported_percentile(199), 90);
        assert_eq!(supported_percentile(200), 95);
        assert_eq!(supported_percentile(999), 95);
        assert_eq!(supported_percentile(1000), 99);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.output(1, &[2, 3]);
        a.output(4, &[]);
        // Pinned value: the digest must not drift between versions of
        // the harness, or old and new result files stop being comparable.
        assert_eq!(a.hex(), "c2293a1954537083");
        let mut b = Digest::default();
        b.output(4, &[]);
        b.output(1, &[2, 3]);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.output(1, &[2]);
        c.output(3, &[4]);
        let mut d = Digest::default();
        d.output(1, &[2, 3]);
        d.output(4, &[]);
        assert_ne!(c, d);
        assert_eq!(a, d);
    }
}
