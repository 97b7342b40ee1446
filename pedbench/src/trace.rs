//! Layer timers for the traced runs. Spans are recorded by the
//! benchmark around its calls into each layer's public functions, so a
//! layer's time here is its self time: the benchmark never nests one
//! timed call inside another.

use crate::kv::Kv;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated layer times (names ending `_ms`) and counts for one
/// traced pass. Calls made only to split one layer in two are timed with
/// [`Layers::measure`] and left out.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Run `f`, adding its wall time to layer `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let (ms, r) = self.measure(f);
        self.add(name, ms);
        r
    }

    /// Run `f` and return its wall time in ms without recording it.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (f64, R) {
        let t = Instant::now();
        let r = f();
        (t.elapsed().as_secs_f64() * 1e3, r)
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Sum of every layer time.
    pub fn layer_sum(&self) -> f64 {
        self.values
            .iter()
            .filter(|(k, _)| k.ends_with("_ms"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Per-name median over several traced passes.
    pub fn median_of(runs: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for name in runs[0].values.keys() {
            let xs: Vec<f64> = runs
                .iter()
                .map(|r| r.values.get(name).copied().unwrap_or(0.0))
                .collect();
            out.values.insert(name.clone(), median(&xs));
        }
        out
    }

    /// Every value divided by `n` (per-cycle figures from a multi-cycle pass).
    pub fn scaled(mut self, n: f64) -> Layers {
        for v in self.values.values_mut() {
            *v /= n;
        }
        self
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn into_kv(self) -> Kv {
        Kv(self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sum_counts_times_not_counts() {
        let mut l = Layers::default();
        l.add("fortran.parse_ms", 2.0);
        l.add("fortran.parse_ms", 1.0);
        l.add("lint.program_ms", 4.0);
        l.add("lint.findings", 7.0);
        assert_eq!(l.layer_sum(), 7.0);
        assert_eq!(l.get("lint.findings"), 7.0);
    }

    #[test]
    fn medians_are_taken_per_layer() {
        let mk = |a: f64, b: f64| {
            let mut l = Layers::default();
            l.add("a_ms", a);
            l.add("b_ms", b);
            l
        };
        let m = Layers::median_of(&[mk(1.0, 30.0), mk(2.0, 10.0), mk(3.0, 20.0)]);
        assert_eq!(m.get("a_ms"), 2.0);
        assert_eq!(m.get("b_ms"), 20.0);
        assert_eq!(m.scaled(2.0).get("b_ms"), 10.0);
    }
}
