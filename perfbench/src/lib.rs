//! # oneperc-perfbench — the repository's benchmark
//!
//! One command runs one of four workloads, times it from outside the
//! program by calling the layer crates' public functions, checks every
//! output, and prints each metric with its unit and sample count. See
//! `perfbench/README.md` for the workloads, the metrics and how to read
//! them.
//!
//! An untraced run reports the end-to-end metrics of [`END_TO_END`]. A
//! traced run (`--trace 1`) first repeats the untraced run as a reference,
//! then runs the same work again with spans recorded around the layer
//! calls, and reports the per-layer metrics of [`PER_LAYER`], the tracing
//! overhead, and whether the traced work produced the same digest.

pub mod calib;
pub mod metrics;
pub mod stats;
pub mod trace;

mod checks;
mod corpus_compile;
mod paper_sweep;
mod pins;
mod rsl_stream;
mod service_mix;

use std::fmt::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use calib::Calibrator;
pub use metrics::{Metric, MetricSet, END_TO_END, PER_LAYER};
use stats::{median, Digest};
use trace::Tracer;

/// Reference bursts taken before a phase starts.
const CALIBRATION_WARM_BURSTS: usize = 2;

/// The workload seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A second pinned seed, kept out of day-to-day tuning so that a claim can
/// be re-checked on inputs it was not tuned against.
pub const HELD_OUT_SEED: u64 = 9001;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The paper's four benchmarks at the Table-1 practical preset, run
    /// through `Session::execute` on one serial lane.
    PaperSweep,
    /// Cold `Session::compile` over a fixed corpus slice from 10³ to 10⁵
    /// gates.
    CorpusCompile,
    /// Requests with a Zipf-like skew through `AsyncSession` and its
    /// program cache.
    ServiceMix,
    /// Layer generation followed by modular renormalization, one merged
    /// layer per operation.
    RslStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::CorpusCompile,
        Workload::ServiceMix,
        Workload::RslStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::CorpusCompile => "corpus-compile",
            Workload::ServiceMix => "service-mix",
            Workload::RslStream => "rsl-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// Length of the timed phase in seconds. Work per run is fixed by this
    /// value (each workload converts it into an operation count at its
    /// nominal rate); `0` selects the minimal smoke size.
    pub seconds: u64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Flip one bit of the first operation's deterministic output before
    /// it is digested, as a changed report field would. Only the
    /// benchmark's own tests set this, to show that the digest check
    /// catches such a change.
    pub perturb: bool,
}

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    /// Operations in the timed phase.
    pub ops: usize,
    /// Set-ups timed for `setup_s` (the last one feeds the timed phase).
    pub setup_reps: usize,
    /// See [`Options::perturb`].
    pub perturb: bool,
}

/// The timed phase of an untraced run.
#[derive(Debug)]
pub(crate) struct Timed {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-operation latency in seconds.
    pub op_latency_s: Vec<f64>,
    /// Host time per unit of work, in microseconds: one entry per
    /// operation, in operation order.
    pub work_latency_us: Vec<f64>,
    /// Units of work completed in the timed phase.
    pub work: f64,
    /// What one unit of work is.
    pub work_unit: &'static str,
    /// One entry per failed operation.
    pub failures: Vec<String>,
    /// Digest of every operation's deterministic output, in order.
    pub digest: Digest,
    /// Digest of the pinned prefix, when the run was long enough.
    pub prefix_digest: Option<u64>,
    /// The workload's own metrics, named as in the README.
    pub extra: MetricSet,
    /// Host-speed reference measured through the run.
    pub calib: Calibrator,
    /// `(start, end)` of every set-up repetition.
    setup_spans: Vec<(Instant, Instant)>,
    /// `(start, end)` of every operation.
    op_spans: Vec<(Instant, Instant)>,
    /// See [`Options::perturb`].
    perturb: bool,
    /// The timings as measured, before [`Timed::finish`] scaled them.
    pub raw: RawTimes,
}

/// Timings of a run as measured on the host.
#[derive(Debug, Default, Clone)]
pub(crate) struct RawTimes {
    pub setup_s: Vec<f64>,
    pub op_latency_s: Vec<f64>,
    pub work_latency_us: Vec<f64>,
}

fn span_ending_now(seconds: f64) -> (Instant, Instant) {
    let end = Instant::now();
    (
        end.checked_sub(Duration::from_secs_f64(seconds))
            .unwrap_or(end),
        end,
    )
}

impl Timed {
    /// An empty run whose work is counted in `work_unit`s; takes the first
    /// reference slices.
    pub fn new(work_unit: &'static str, scale: Scale) -> Timed {
        let mut calib = Calibrator::default();
        for _ in 0..CALIBRATION_WARM_BURSTS {
            calib.burst();
        }
        Timed {
            setup_s: Vec::new(),
            op_latency_s: Vec::new(),
            work_latency_us: Vec::new(),
            work: 0.0,
            work_unit,
            failures: Vec::new(),
            digest: Digest::default(),
            prefix_digest: None,
            extra: MetricSet::default(),
            calib,
            setup_spans: Vec::new(),
            op_spans: Vec::new(),
            perturb: scale.perturb,
            raw: RawTimes::default(),
        }
    }

    /// Runs `setup` `reps` times (at least once), recording the seconds
    /// each run reports, with a reference burst after each, and returns the
    /// last set-up; the earlier ones are dropped before the next starts.
    pub fn repeat_setup<S>(&mut self, reps: usize, mut setup: impl FnMut() -> (S, f64)) -> S {
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let (state, seconds) = setup();
            self.setup_s.push(seconds);
            self.setup_spans.push(span_ending_now(seconds));
            self.calib.burst();
            last = Some(state);
        }
        last.expect("at least one set-up ran")
    }

    /// Records the latency of an operation that just ended; reference
    /// bursts run between operations.
    pub fn op_done(&mut self, seconds: f64) {
        self.op_latency_s.push(seconds);
        self.op_spans.push(span_ending_now(seconds));
        self.calib.after_op(seconds);
    }

    /// Ends the timed phase and puts its timings on the nominal host
    /// scale, each set-up and each operation (and its work latency) by the
    /// reference bursts around it. The measured values stay in
    /// [`Timed::raw`].
    pub fn finish(&mut self) {
        self.calib.burst();
        self.raw = RawTimes {
            setup_s: self.setup_s.clone(),
            op_latency_s: self.op_latency_s.clone(),
            work_latency_us: self.work_latency_us.clone(),
        };
        for (value, &(start, end)) in self.setup_s.iter_mut().zip(&self.setup_spans) {
            *value *= self.calib.factor_between(start, end);
        }
        for (i, &(start, end)) in self.op_spans.iter().enumerate() {
            let factor = self.calib.factor_between(start, end);
            self.op_latency_s[i] *= factor;
            self.work_latency_us[i] *= factor;
        }
    }

    /// Scaled seconds the operations took: the time base of every rate.
    /// Output checks and reference bursts between operations are not in
    /// it.
    pub fn busy_s(&self) -> f64 {
        self.op_latency_s.iter().sum()
    }

    /// Operation-time-weighted mean scale factor of the timed phase.
    pub fn mean_factor(&self) -> f64 {
        let raw: f64 = self.raw.op_latency_s.iter().sum();
        if raw > 0.0 {
            self.busy_s() / raw
        } else {
            1.0
        }
    }

    /// Folds one operation's deterministic output into the digests; the
    /// prefix digest is taken after `prefix_len` operations.
    pub fn fold(&mut self, words: &[u64], prefix_len: usize) {
        if self.perturb && self.op_latency_s.len() == 1 {
            let mut changed = words.to_vec();
            changed[0] ^= 1;
            self.digest.words(&changed);
        } else {
            self.digest.words(words);
        }
        if self.op_latency_s.len() == prefix_len {
            self.prefix_digest = Some(self.digest.value());
        }
    }
}

/// The traced repetition of a run.
#[derive(Debug)]
pub(crate) struct Traced {
    /// Per-layer metrics.
    pub layers: MetricSet,
    /// Seconds spent in the spans that replace the untraced operations.
    pub main_path_s: f64,
    /// Digest of the traced run's deterministic outputs.
    pub digest: u64,
    /// Operations whose traced result disagreed with the program's.
    pub failures: Vec<String>,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Host-speed reference measured through the traced repetition.
    pub calib: Calibrator,
}

impl Traced {
    /// An empty traced repetition; takes the first reference slices.
    pub fn new() -> Traced {
        let mut calib = Calibrator::default();
        for _ in 0..CALIBRATION_WARM_BURSTS {
            calib.burst();
        }
        Traced {
            layers: MetricSet::default(),
            main_path_s: 0.0,
            digest: 0,
            failures: Vec::new(),
            tracer: Tracer::default(),
            calib,
        }
    }
}

/// A finished run: the printed report and the result line.
#[derive(Debug)]
pub struct RunOutput {
    /// Human-readable report (every line starts with `#`).
    pub report: String,
    /// The final JSON result line.
    pub result_line: String,
    /// Whether every check passed.
    pub correct: bool,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Digest of the pinned prefix, when the run was long enough.
    pub prefix_digest: Option<u64>,
}

fn scale(options: &Options) -> Scale {
    let seconds = options.seconds as f64;
    let smoke = options.seconds == 0;
    let setup_reps = if smoke { 1 } else { 5 };
    // Operation counts at each workload's nominal rate on a 2-vCPU host.
    let ops = match options.workload {
        // One round of the four programs per 2.5 s asked for (a round takes
        // about 2.8 s): 24 executions at 15 s.
        Workload::PaperSweep => paper_sweep::ROUND * ((seconds / 2.5).round() as usize).max(1),
        // One pass over the slice (about 14 s of compiles) per 7.5 s asked
        // for, each with fresh circuit seeds: two passes at 15 s. Smoke runs
        // the slice's smallest circuits.
        Workload::CorpusCompile => {
            if smoke {
                corpus_compile::PREFIX
            } else {
                corpus_compile::SLICE_LEN * ((seconds / 7.5).round() as usize).max(1)
            }
        }
        Workload::ServiceMix => ((seconds * 40.0) as usize).max(service_mix::PREFIX),
        Workload::RslStream => ((seconds * 180.0) as usize).max(rsl_stream::PREFIX),
    };
    Scale {
        ops,
        setup_reps,
        perturb: options.perturb,
    }
}

fn run_timed(options: &Options, scale: Scale) -> Timed {
    match options.workload {
        Workload::PaperSweep => paper_sweep::run(options.seed, scale),
        Workload::CorpusCompile => corpus_compile::run(options.seed, scale),
        Workload::ServiceMix => service_mix::run(options.seed, scale),
        Workload::RslStream => rsl_stream::run(options.seed, scale),
    }
}

fn run_traced(options: &Options, scale: Scale) -> Traced {
    match options.workload {
        Workload::PaperSweep => paper_sweep::run_traced(options.seed, scale),
        Workload::CorpusCompile => corpus_compile::run_traced(options.seed, scale),
        Workload::ServiceMix => service_mix::run_traced(options.seed, scale),
        Workload::RslStream => rsl_stream::run_traced(options.seed, scale),
    }
}

/// Checks a prefix digest against the pin for `(workload, seed)`.
/// `Ok(None)` means nothing is pinned for that seed (or the run was too
/// short to cover the pinned prefix).
///
/// # Errors
///
/// Returns a description of the mismatch.
pub fn check_pin(
    workload: Workload,
    seed: u64,
    prefix_digest: Option<u64>,
) -> Result<Option<u64>, String> {
    let (Some(pinned), Some(actual)) = (pins::pinned(workload, seed), prefix_digest) else {
        return Ok(None);
    };
    if pinned == actual {
        Ok(Some(pinned))
    } else {
        Err(format!(
            "digest {actual:016x} of the pinned prefix does not match the pin {pinned:016x} for {} seed {seed}",
            workload.name()
        ))
    }
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if resolved.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        resolved
    }
}

/// Runs one workload and renders its report.
pub fn run(options: &Options) -> RunOutput {
    // Counted before the pin, which narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Where the timed work runs on a session lane, the reference bursts (on
    // this thread) only describe that work if both share one CPU. Work on
    // this thread needs no pin and keeps the scheduler's freedom.
    let on_lane = matches!(
        options.workload,
        Workload::PaperSweep | Workload::ServiceMix
    );
    let pinned_cpu = if on_lane {
        calib::pin_to_current_cpu()
    } else {
        None
    };
    let scale = scale(options);
    let timed = run_timed(options, scale);
    let mut violations: Vec<String> = timed.failures.iter().take(5).cloned().collect();
    let attempted = timed.op_latency_s.len() as u64;
    let failed = timed.failures.len() as u64;

    let pin = check_pin(options.workload, options.seed, timed.prefix_digest);
    let pin_text = match &pin {
        Ok(Some(digest)) => format!("matches pin {digest:016x}"),
        Ok(None) => "no pin for this seed".into(),
        Err(message) => {
            violations.push(message.clone());
            "MISMATCH".into()
        }
    };

    let raw = &timed.raw;
    let mut end_to_end = MetricSet::default();
    let setups = timed.setup_s.len();
    end_to_end.put_raw(
        "setup_s",
        "s",
        (median(&timed.setup_s), median(&raw.setup_s)),
        setups,
        format!("median of {setups} set-ups"),
    );
    let rss = stats::peak_rss_mb().unwrap_or(0.0);
    end_to_end.put(
        "peak_rss_mb",
        "MB",
        rss,
        1,
        "VmHWM of the benchmark process",
    );
    let ops = timed.work_latency_us.len();
    end_to_end.put_raw(
        "work_latency_us",
        "us",
        (median(&timed.work_latency_us), median(&raw.work_latency_us)),
        ops,
        format!(
            "median over {ops} operations of host time per {}",
            timed.work_unit
        ),
    );
    let (busy_s, raw_busy_s) = (timed.busy_s(), raw.op_latency_s.iter().sum::<f64>());
    end_to_end.put_raw(
        "work_per_s",
        "1/s",
        (timed.work / busy_s, timed.work / raw_busy_s),
        ops,
        format!(
            "{} {}s over {busy_s:.3} s of operations",
            timed.work, timed.work_unit
        ),
    );
    end_to_end.put_raw(
        "jobs_per_s",
        "1/s",
        (attempted as f64 / busy_s, attempted as f64 / raw_busy_s),
        ops,
        format!("{attempted} operations over {busy_s:.3} s"),
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# oneperc-perfbench workload={} seed={} seconds={} trace={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    let _ = writeln!(
        report,
        "# basis: nproc={nproc} pinned_cpu={} rustc=\"{}\" commit={} seed={} default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED} operations={attempted} set-ups={setups}",
        pinned_cpu.map_or("none".into(), |cpu| cpu.to_string()),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
        options.seed,
    );
    let _ = writeln!(
        report,
        "# digest: run={:016x} pinned-prefix={} ({pin_text})",
        timed.digest.value(),
        timed
            .prefix_digest
            .map_or("n/a (run shorter than the prefix)".into(), |d| format!(
                "{d:016x}"
            )),
    );
    let _ = writeln!(
        report,
        "# calibration: reference slice median {:.4} ms over {} bursts; timings scaled to the nominal host by the bursts around each set-up and operation (mean factor {:.4})",
        timed.calib.median_slice_s() * 1e3,
        timed.calib.burst_count(),
        timed.mean_factor(),
    );
    report.push_str(&metrics::table(
        "end-to-end (gated)",
        &end_to_end.in_order(&END_TO_END),
    ));
    let extra: Vec<Metric> = timed.extra.all().cloned().collect();
    report.push_str(&metrics::table("workload metrics", &extra));

    let result_metrics = if options.trace {
        let traced = run_traced(options, scale);
        violations.extend(traced.failures.iter().take(5).cloned());
        let traced_factor = traced.calib.factor();
        let reference_s = timed.op_latency_s.iter().sum::<f64>();
        let main_path_s = traced.main_path_s * traced_factor;
        let overhead = main_path_s / reference_s - 1.0;
        let same = traced.digest == timed.digest.value();
        if !same {
            violations.push(format!(
                "traced digest {:016x} differs from untraced {:016x}",
                traced.digest,
                timed.digest.value()
            ));
        }
        let _ = writeln!(
            report,
            "# trace: {} spans; traced digest {:016x} ({}); overhead {:+.2}% ({:.3} s traced main path vs {:.3} s untraced operations, both scaled; traced scale {traced_factor:.4})",
            traced.tracer.len(),
            traced.digest,
            if same { "equals untraced" } else { "DIFFERS" },
            overhead * 100.0,
            main_path_s,
            reference_s
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!(
                "{}-seed{}.jsonl",
                options.workload.name(),
                options.seed
            ));
        match traced.tracer.write_jsonl(&path) {
            Ok(()) => {
                let _ = writeln!(report, "# trace: spans written to {}", path.display());
            }
            Err(err) => {
                let _ = writeln!(report, "# trace: could not write {}: {err}", path.display());
            }
        }
        let layers = traced.layers.scaled(traced_factor).in_order(&PER_LAYER);
        report.push_str(&metrics::table("per-layer (traced)", &layers));
        layers
    } else {
        end_to_end.in_order(&END_TO_END)
    };

    for violation in &violations {
        let _ = writeln!(report, "# VIOLATION: {violation}");
    }
    let correct = violations.is_empty() && failed == 0;
    RunOutput {
        result_line: metrics::result_line(correct, attempted.max(1), failed, &result_metrics),
        report,
        correct,
        metrics: result_metrics,
        prefix_digest: timed.prefix_digest,
    }
}
