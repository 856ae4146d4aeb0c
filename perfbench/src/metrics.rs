//! Metric records, the metric catalogue and the run's printed report.

use std::collections::BTreeMap;
use std::fmt::Write;

/// The metrics printed on the last line of an untraced run, in
/// `BENCHMARK.json`'s `end_to_end` order: every workload reports each.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_latency_us", "us"),
    ("work_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
];

/// The metrics printed on the last line of a traced run, in
/// `BENCHMARK.json`'s `per_layer` order. A workload whose path does not
/// reach a layer reports that layer's metrics as zero, with zero samples.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("circuit.graph_ms", "ms"),
    ("circuit.program_nodes", "count"),
    ("mapper.map_ms", "ms"),
    ("mapper.ir_layers", "count"),
    ("mapper.nodes_per_ir_layer", "ratio"),
    ("mapper.peak_live_nodes", "count"),
    ("ir.lower_ms", "ms"),
    ("ir.summaries_ms", "ms"),
    ("hardware.generate_us", "us"),
    ("hardware.fusion_success_ratio", "ratio"),
    ("percolation.renorm_us", "us"),
    ("percolation.renorm_success_ratio", "ratio"),
    ("percolation.advance_us", "us"),
    ("percolation.advance_p99_us", "us"),
    ("percolation.merged_per_logical", "ratio"),
    ("percolation.timelike_failures", "count"),
    ("percolation.timelike_self_us", "us"),
    ("percolation.modular_us", "us"),
    ("percolation.join_ratio", "ratio"),
    ("session.execute_ms", "ms"),
    ("session.queue_wait_ms", "ms"),
    ("service.lookup_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.evictions", "count"),
    ("service.busy_refusals", "count"),
];

/// One measured value with its unit, sample count and the base it was
/// taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The reported value. Times and rates are on the nominal host scale
    /// (see `calib`).
    pub value: f64,
    /// The value as measured on this host, before scaling, where it is
    /// kept.
    pub raw: Option<f64>,
    /// Number of samples behind `value`.
    pub samples: usize,
    /// What the value is taken over (the base of a ratio, the statistic
    /// of a timing).
    pub basis: String,
}

/// Metrics keyed by name; insertion overwrites.
#[derive(Debug, Default, Clone)]
pub struct MetricSet(BTreeMap<&'static str, Metric>);

impl MetricSet {
    /// Records a metric.
    pub fn put(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        basis: impl Into<String>,
    ) {
        self.0.insert(
            name,
            Metric {
                name,
                unit,
                value,
                raw: None,
                samples,
                basis: basis.into(),
            },
        );
    }

    /// Records a scaled metric together with its raw value.
    pub fn put_raw(
        &mut self,
        name: &'static str,
        unit: &'static str,
        (value, raw): (f64, f64),
        samples: usize,
        basis: impl Into<String>,
    ) {
        self.0.insert(
            name,
            Metric {
                name,
                unit,
                value,
                raw: Some(raw),
                samples,
                basis: basis.into(),
            },
        );
    }

    /// The set with every time multiplied by `factor` and every rate
    /// divided by it, keeping the measured values as raw; other units are
    /// left as they are.
    pub fn scaled(&self, factor: f64) -> MetricSet {
        let mut out = self.clone();
        for m in out.0.values_mut() {
            let scaled = match m.unit {
                "s" | "ms" | "us" => m.value * factor,
                "1/s" => m.value / factor,
                _ => continue,
            };
            m.raw = Some(m.value);
            m.value = scaled;
        }
        out
    }

    /// The metrics of `catalogue` in catalogue order; a name this set does
    /// not hold reports zero with zero samples.
    pub fn in_order(&self, catalogue: &[(&'static str, &'static str)]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                self.0.get(name).cloned().unwrap_or_else(|| Metric {
                    name,
                    unit,
                    value: 0.0,
                    raw: None,
                    samples: 0,
                    basis: "layer not on this workload's path".into(),
                })
            })
            .collect()
    }

    /// Every metric held, in name order.
    pub fn all(&self) -> impl Iterator<Item = &Metric> {
        self.0.values()
    }
}

/// Renders a metric table, one metric per line.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("# {title}\n");
    let _ = writeln!(
        out,
        "# {:<34} {:>14} {:>14} {:<6} {:>8}  basis",
        "metric", "value", "raw", "unit", "samples"
    );
    for m in metrics {
        let raw = m.raw.map_or("-".to_string(), |r| format!("{r:.6}"));
        let _ = writeln!(
            out,
            "# {:<34} {:>14.6} {:>14} {:<6} {:>8}  {}",
            m.name, m.value, raw, m.unit, m.samples, m.basis
        );
    }
    out
}

/// The final result line: `correct`, `attempted`, `failed` and the metrics
/// as `{"value", "unit"}` objects.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) print as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_metrics_with_units() {
        let mut set = MetricSet::default();
        set.put("setup_s", "s", 0.25, 3, "median");
        let line = result_line(true, 4, 0, &set.in_order(&END_TO_END[..2]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}}}"
        );
    }
}
