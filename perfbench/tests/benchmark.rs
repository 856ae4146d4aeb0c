//! The benchmark's own tests: every workload at its smoke size prints
//! every metric of `BENCHMARK.json` with its unit, the pinned digests hold
//! for the default and held-out seeds, and a perturbed report field fails
//! the digest check.

use oneperc_perfbench::{
    check_pin, run, Options, RunOutput, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,
    PER_LAYER,
};

fn smoke(workload: Workload, seed: u64, trace: bool, perturb: bool) -> RunOutput {
    run(&Options {
        workload,
        seed,
        seconds: 0,
        trace,
        perturb,
    })
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// Asserts that the result line lists exactly `catalogue`, in order, each
/// with its unit.
fn assert_lists(output: &RunOutput, catalogue: &[(&str, &str)]) {
    let line = &output.result_line;
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    let mut from = 0;
    for (name, unit) in catalogue {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line[from..]
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"))
            + from;
        let rest = &line[at + key.len()..];
        let value_end = rest.find(',').expect("value is followed by its unit");
        let value: f64 = rest[..value_end].parse().expect("value is a number");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest[value_end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} unit in {line}"
        );
        from = at + key.len();
    }
    assert_eq!(
        output.metrics.len(),
        catalogue.len(),
        "no metric beyond the catalogue"
    );
}

fn check_workload(workload: Workload) {
    let untraced = smoke(workload, DEFAULT_SEED, false, false);
    assert!(untraced.correct, "{}", untraced.report);
    assert_lists(&untraced, &END_TO_END);
    for metric in &untraced.metrics {
        assert!(
            metric.value > 0.0,
            "{} must never be 0: {}",
            metric.name,
            untraced.report
        );
        assert!(metric.samples > 0, "{} has no samples", metric.name);
    }
    let traced = smoke(workload, DEFAULT_SEED, true, false);
    assert!(traced.correct, "{}", traced.report);
    assert_lists(&traced, &PER_LAYER);
    assert!(
        traced.report.contains("equals untraced"),
        "{}",
        traced.report
    );
    assert!(traced.report.contains("overhead"), "{}", traced.report);
}

#[test]
fn paper_sweep_prints_every_metric_with_its_unit() {
    check_workload(Workload::PaperSweep);
}

#[test]
fn corpus_compile_prints_every_metric_with_its_unit() {
    check_workload(Workload::CorpusCompile);
}

#[test]
fn service_mix_prints_every_metric_with_its_unit() {
    check_workload(Workload::ServiceMix);
}

#[test]
fn rsl_stream_prints_every_metric_with_its_unit() {
    check_workload(Workload::RslStream);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", workload.name())),
            "{}",
            workload.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn pinned_digests_hold_for_default_and_held_out_seeds() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let output = smoke(workload, seed, false, false);
            assert!(output.correct, "{}", output.report);
            let pinned = check_pin(workload, seed, output.prefix_digest);
            assert!(
                matches!(pinned, Ok(Some(_))),
                "{} seed {seed}: {pinned:?}",
                workload.name()
            );
        }
    }
}

#[test]
fn perturbed_report_field_fails_the_digest_check() {
    for workload in [Workload::PaperSweep, Workload::RslStream] {
        let clean = smoke(workload, DEFAULT_SEED, false, false);
        let perturbed = smoke(workload, DEFAULT_SEED, false, true);
        assert!(clean.correct);
        assert_ne!(clean.prefix_digest, perturbed.prefix_digest);
        assert!(!perturbed.correct, "{}", perturbed.report);
        assert!(perturbed.result_line.starts_with("{\"correct\": false"));
        assert!(
            perturbed.report.contains("does not match the pin"),
            "{}",
            perturbed.report
        );
        assert!(check_pin(workload, DEFAULT_SEED, perturbed.prefix_digest).is_err());
    }
}
