//! The run's result: counts, problems and named metrics, printed as one
//! JSON line.

use std::collections::BTreeMap;

/// Units of the end-to-end metrics, in print order.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("point_p50_us", "us"),
    ("point_p90_us", "us"),
    ("window_p50_us", "us"),
    ("window_p90_us", "us"),
    ("knn_p50_us", "us"),
    ("knn_p90_us", "us"),
    ("range_p50_us", "us"),
    ("range_p90_us", "us"),
    ("join_p50_us", "us"),
    ("join_p90_us", "us"),
    ("index_mb", "MB"),
    ("recall", "ratio"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    use crate::rung::{CLASSES, READ_CLASSES};
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for c in READ_CLASSES {
        v.push((format!("core.{c}.us_p50"), "us"));
        v.push((format!("core.{c}.blocks_per_op"), "count/op"));
        v.push((format!("core.{c}.nodes_per_op"), "count/op"));
        v.push((format!("core.{c}.candidates_per_op"), "count/op"));
        v.push((format!("core.{c}.useful_ratio"), "ratio"));
    }
    for c in READ_CLASSES {
        v.push((format!("engine.{c}.shards_visited_per_op"), "count/op"));
        v.push((format!("engine.{c}.shards_pruned_per_op"), "count/op"));
    }
    for c in READ_CLASSES {
        v.push((format!("server.{c}.us_p50"), "us"));
    }
    v.push(("server.write.us_p50".into(), "us"));
    v.push(("server.write.us_p99".into(), "us"));
    v.push(("server.compactions".into(), "count"));
    v.push(("server.partial_compactions".into(), "count"));
    v.push(("server.subtree_rebuilds".into(), "count"));
    v.push(("server.swap_pause_us_p99".into(), "us"));
    v.push(("server.rebuild_ms_p99".into(), "ms"));
    for c in CLASSES {
        v.push((format!("net.{c}.us_p50"), "us"));
        v.push((format!("net.{c}.us_p99"), "us"));
    }
    v.push(("net.batch_fill".into(), "ratio"));
    v.push(("net.shed".into(), "count"));
    for c in READ_CLASSES {
        v.push((format!("router.{c}.us_p50"), "us"));
    }
    v.push(("router.shards_visited_per_op".into(), "count/op"));
    v.push(("router.shards_pruned_per_op".into(), "count/op"));
    v.push(("router.upstream_us_p50.shard0".into(), "us"));
    v.push(("router.upstream_us_p50.shard1".into(), "us"));
    v.push(("router.replica_failovers".into(), "count"));
    v.push(("setup.build_s".into(), "s"));
    v.push(("setup.snapshot_s".into(), "s"));
    v.push(("setup.snapshot_mb".into(), "MB"));
    v.push(("setup.load_s".into(), "s"));
    v.push(("setup.serve_s".into(), "s"));
    v.push(("bench.trace_overhead".into(), "ratio"));
    v
}

/// What one run produced.
#[derive(Default)]
pub struct Report {
    /// Operations sent.
    pub attempted: u64,
    /// Wrong answers, sheds and transport errors.
    pub failed: u64,
    /// Wrong answers alone.
    pub wrong: u64,
    /// Failed self-checks (reconciliation, determinism, compactions).
    pub problems: Vec<String>,
    /// Measured metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Reports every metric of `prefixes` not measured yet as 0: the layer
    /// is not on this workload's path.
    pub fn off_path(&mut self, prefixes: &[&str]) {
        for (name, _) in per_layer_names() {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.entry(name).or_insert(0.0);
            }
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }

    /// The result line: every metric of the chosen set, by name with its
    /// unit.  Errors when one was not measured or is not a finite number.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let names: Vec<(String, &str)> = if trace {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = *self
                .values
                .get(&name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let correct = self.wrong == 0 && self.problems.is_empty();
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
