//! `paper-sweep`: the paper's four benchmarks at the Table-1 practical
//! preset (25 qubits, p = 0.75, 120×120 RSL, 5×5 virtual hardware,
//! 4-qubit resource states), executed through `Session::execute` on one
//! serial lane.

use std::sync::Arc;
use std::time::Instant;

use oneperc::{CompiledProgram, CompilerConfig, ExecutionReport, Session};
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_circuit::{Circuit, ProgramGraph};
use oneperc_hardware::{FusionEngine, PhysicalLayer};
use oneperc_ir::InstructionProgram;
use oneperc_mapper::{Mapper, MapperConfig};
use oneperc_percolation::{
    LayerRequirement, Renormalizer, ReshapeConfig, ReshapeEngine, TemporalRequirement,
};

use crate::checks::{
    compiled_words, execution_words, program_fingerprint, verify_compiled, verify_report,
    RepeatedCompiles,
};
use crate::stats::{median, mix, percentile, ratio};
use crate::trace::Tracer;
use crate::{Scale, Timed, Traced};

const QUBITS: usize = 25;
const FUSION_P: f64 = 0.75;
const PROGRAMS: [Benchmark; 4] = [
    Benchmark::Qaoa,
    Benchmark::Vqe,
    Benchmark::Qft,
    Benchmark::Rca,
];
/// Execution seed of the set-up's warm-up run.
const WARM_UP_SEED: u64 = 0x3A3A;
/// Executions in one round of the four programs.
pub(crate) const ROUND: usize = PROGRAMS.len();
/// Operations covered by the pinned digest: one round.
pub(crate) const PREFIX: usize = ROUND;

struct Setup {
    config: CompilerConfig,
    session: Session,
    circuits: Vec<Circuit>,
    programs: Vec<Arc<CompiledProgram>>,
}

fn circuits(seed: u64) -> Vec<Circuit> {
    PROGRAMS
        .iter()
        .zip(0u64..)
        .map(|(b, i)| b.circuit(QUBITS, mix(seed, 0xC0DE + i)))
        .collect()
}

/// Input generation, session start, compiling the four programs and one
/// warm-up execution (RCA) on the lane.
fn setup(seed: u64) -> (Setup, f64) {
    let start = Instant::now();
    let circuits = circuits(seed);
    let config = CompilerConfig::for_qubits(QUBITS, FUSION_P, seed);
    let session = Session::builder(config).lanes(1).build();
    let programs: Vec<Arc<CompiledProgram>> = circuits
        .iter()
        .map(|c| {
            Arc::new(
                session
                    .compile(c)
                    .expect("paper benchmark compiles at its preset"),
            )
        })
        .collect();
    // RCA has no random gates and the warm-up seed is fixed, so the
    // set-up does the same work for every workload seed.
    let warm_up = session.execute_shared(programs[3].clone(), WARM_UP_SEED);
    std::hint::black_box(&warm_up);
    let seconds = start.elapsed().as_secs_f64();
    (
        Setup {
            config,
            session,
            circuits,
            programs,
        },
        seconds,
    )
}

fn timed_setup(seed: u64, reps: usize, timed: &mut Timed) -> Setup {
    let mut compiles = RepeatedCompiles::default();
    let setup = timed.repeat_setup(reps, || {
        let (setup, seconds) = setup(seed);
        compiles.record(&setup.programs);
        (setup, seconds)
    });
    for (program, benchmark) in setup.programs.iter().zip(PROGRAMS) {
        if let Err(e) = verify_compiled(program) {
            timed.failures.push(format!("{benchmark}-{QUBITS}: {e}"));
        }
    }
    for &i in compiles.differing() {
        timed.failures.push(format!(
            "{}-{QUBITS}: Session::compile of the same circuit gave different programs in different set-ups (the offline pass is not deterministic)",
            PROGRAMS[i]
        ));
    }
    setup
}

fn op_seed(seed: u64, op: usize) -> u64 {
    mix(seed, 1000 + op as u64)
}

pub(crate) fn run(seed: u64, scale: Scale) -> Timed {
    let mut timed = Timed::new("raw RSL", scale);
    let setup = timed_setup(seed, scale.setup_reps, &mut timed);
    let merging = setup.config.hardware.merging_factor() as u64;
    let mut reports: Vec<ExecutionReport> = Vec::with_capacity(scale.ops);

    for op in 0..scale.ops {
        let program = setup.programs[op % PROGRAMS.len()].clone();
        let start = Instant::now();
        let outcome = setup.session.execute_shared(program, op_seed(seed, op));
        timed.op_done(start.elapsed().as_secs_f64());
        if let Err(e) = verify_report(&outcome, merging) {
            timed
                .failures
                .push(format!("op {op} ({}): {e}", PROGRAMS[op % PROGRAMS.len()]));
        }
        let report = outcome.into_report();
        timed
            .work_latency_us
            .push(report.online_time.as_secs_f64() * 1e6 / report.rsl_consumed.max(1) as f64);
        timed.fold(&execution_words(&report), PREFIX);
        reports.push(report);
    }
    timed.finish();

    let rsl: u64 = reports.iter().map(|r| r.rsl_consumed).sum();
    let logical: u64 = reports.iter().map(|r| r.logical_layers).sum();
    let fusions: u64 = reports.iter().map(|r| r.fusions).sum();
    timed.work = rsl as f64;

    let n = reports.len();
    let busy_s = timed.busy_s();
    let extra = &mut timed.extra;
    extra.put(
        "fail_share",
        "share",
        ratio(timed.failures.len() as f64, n as f64),
        n,
        "failed / attempted executions",
    );
    extra.put(
        "rsl_latency_us",
        "us",
        median(&timed.work_latency_us),
        n,
        "median over executions of online_time / rsl_consumed",
    );
    extra.put(
        "rsl_per_s",
        "1/s",
        rsl as f64 / busy_s,
        n,
        format!("{rsl} RSLs over the operations"),
    );
    extra.put(
        "rsl_per_layer",
        "RSL",
        ratio(rsl as f64, logical as f64),
        n,
        format!("{rsl} RSLs / {logical} logical layers"),
    );
    extra.put(
        "fusions_per_layer",
        "fusion",
        ratio(fusions as f64, logical as f64),
        n,
        format!("{fusions} fusions / {logical} logical layers"),
    );
    let latency_ms: Vec<f64> = timed.op_latency_s.iter().map(|s| s * 1e3).collect();
    extra.put(
        "latency_ms",
        "ms",
        median(&latency_ms),
        n,
        "median execution latency (mixes the four programs)",
    );
    timed
}

/// The traced repetition: a fresh set-up whose compiles go through the
/// layer calls, then per operation `Session::execute` (the reference), a
/// `ReshapeEngine` driven directly with requirements built from
/// `layer_summaries` (the main path), and a replay of generation and
/// renormalization for the same layers.
pub(crate) fn run_traced(seed: u64, scale: Scale) -> Traced {
    let mut traced = Traced::new();
    let mut t = Tracer::default();
    let (setup, _) = setup(seed);
    let config = setup.config;

    // Offline pass through the layer calls, checked against Session::compile.
    let mapper = Mapper::new(
        MapperConfig::new(config.virtual_hardware())
            .with_occupancy_limit(config.occupancy_limit)
            .with_refresh_period(config.refresh_period),
    );
    let mut graph_s = Vec::new();
    let mut map_s = Vec::new();
    let mut lower_s = Vec::new();
    for (i, (circuit, program)) in setup.circuits.iter().zip(&setup.programs).enumerate() {
        t.set_op(i as u64);
        let (graph, g) = t.span("circuit.graph", || ProgramGraph::from_circuit(circuit));
        let (mapping, m) = t.span("mapper.map", || mapper.map(&graph));
        let mapping = mapping.expect("paper benchmark maps at its preset");
        let (_, l) = t.span("ir.lower", || InstructionProgram::lower(&mapping.ir));
        graph_s.push(g);
        map_s.push(m - l);
        lower_s.push(l);
        let via_layers = CompiledProgram {
            program: graph,
            mapping,
            offline_time: Default::default(),
        };
        if compiled_words(&via_layers) != compiled_words(program)
            || program_fingerprint(&via_layers) != program_fingerprint(program)
        {
            traced.failures.push(format!(
                "{}: layer-call compile differs from Session::compile",
                PROGRAMS[i]
            ));
        }
    }

    let hardware = config.hardware;
    let merging = hardware.merging_factor() as u64;
    let mut engine = ReshapeEngine::new(
        ReshapeConfig::new(hardware, config.node_size, config.virtual_side, config.seed)
            .with_temporal_redundancy(config.temporal_redundancy),
    );
    let mut generator = FusionEngine::new(hardware, 0);
    let mut renormalizer = Renormalizer::new();
    let mut buf = PhysicalLayer::blank(hardware.rsl_size, hardware.rsl_size);
    let target = config.virtual_side;

    let mut digest = crate::stats::Digest::default();
    let (mut summaries_s, mut advance_s, mut timelike_self_s) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut generate_per_rsl_s, mut renorm_s, mut execute_s, mut queue_wait_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut fusions_attempted, mut fusions_succeeded) = (0u64, 0u64);
    let (mut renorms, mut renorm_successes) = (0u64, 0u64);
    let (mut merged_total, mut logical_total, mut timelike_failures) = (0u64, 0u64, 0u64);

    for op in 0..scale.ops {
        let index = op % PROGRAMS.len();
        let program = &setup.programs[index];
        let s = op_seed(seed, op);
        t.set_op(op as u64);

        let (outcome, e) = t.span("session.execute", || {
            setup.session.execute_shared(program.clone(), s)
        });
        execute_s.push(e);
        queue_wait_s.push(outcome.report().service.queue_wait.as_secs_f64());
        if let Err(err) = verify_report(&outcome, merging) {
            traced.failures.push(format!("op {op}: {err}"));
        }
        let reference = outcome.into_report();
        digest.words(&execution_words(&reference));

        // Main path: the online pass driven layer by layer.
        let main = t.begin("engine.run");
        engine.reset(s);
        let (summaries, sum_s) = t.span("ir.summaries", || program.mapping.ir.layer_summaries());
        summaries_s.push(sum_s);
        let mut per_layer = Vec::with_capacity(summaries.len());
        for summary in &summaries {
            let requirement = LayerRequirement {
                temporal_edges: summary
                    .incoming_temporal
                    .iter()
                    .map(|&(coord, gap)| TemporalRequirement {
                        coord,
                        back_distance: gap,
                    })
                    .collect(),
                stores: summary.stores,
                retrieves: summary.retrieves,
            };
            let (report, a) = t.span("percolation.advance", || {
                engine.advance_logical_layer(&requirement)
            });
            per_layer.push((report, a));
            if !report.formed {
                break;
            }
        }
        let main_s = t.end(main);
        traced.main_path_s += main_s;
        traced.calib.after_op(main_s);

        let stats = *engine.stats();
        let same = stats.raw_rsl == reference.rsl_consumed
            && stats.merged_layers == reference.merged_layers
            && stats.fusions_attempted == reference.fusions
            && stats.logical_layers == reference.logical_layers
            && stats.routing_layers == reference.routing_layers;
        if !same {
            traced.failures.push(format!(
                "op {op}: traced engine {stats:?} differs from Session::execute {reference:?}"
            ));
        }

        // Replay of the same layer stream: generation and renormalization
        // alone, so that the rest of each advance is the time-like part.
        let replay = t.begin("replay");
        generator.reseed(s);
        for (layer_index, (report, advance)) in per_layer.iter().enumerate() {
            let mut replayed = 0.0;
            let mut reached = 0usize;
            for _ in 0..report.merged_layers {
                let (_, g) = t.span("hardware.generate", || {
                    generator.generate_layer_into(&mut buf)
                });
                let (lattice, r) = t.span("percolation.renorm", || {
                    renormalizer.renormalize(&buf, config.node_size)
                });
                replayed += g + r;
                generate_per_rsl_s.push(g / buf.raw_rsl_consumed.max(1) as f64);
                renorm_s.push(r);
                fusions_attempted += buf.fusions_attempted;
                fusions_succeeded += buf.fusions_succeeded;
                renorms += 1;
                let ok = lattice.node_count() >= target * target
                    && (0..target).all(|i| (0..target).all(|j| lattice.node_flat(i, j).is_some()));
                if ok {
                    renorm_successes += 1;
                    reached += 1;
                }
            }
            let expected = report.timelike_failures + usize::from(report.formed);
            if reached != expected {
                traced.failures.push(format!(
                    "op {op} layer {layer_index}: replay reached the target {reached} times, the engine {expected}"
                ));
            }
            advance_s.push(*advance);
            timelike_self_s.push(advance - replayed);
            merged_total += report.merged_layers as u64;
            logical_total += u64::from(report.formed);
            timelike_failures += report.timelike_failures as u64;
        }
        t.end(replay);
    }
    traced.digest = digest.value();

    let l = &mut traced.layers;
    let ms = |v: &[f64]| median(v) * 1e3;
    let us = |v: &[f64]| median(v) * 1e6;
    let programs = setup.programs.len();
    let nodes: usize = setup
        .programs
        .iter()
        .map(|p| p.mapping.stats.program_nodes)
        .sum();
    let ir_layers: usize = setup.programs.iter().map(|p| p.mapping.stats.layers).sum();
    let peak_live = setup
        .programs
        .iter()
        .map(|p| p.mapping.stats.peak_live_nodes)
        .max()
        .unwrap_or(0);
    l.put(
        "circuit.graph_ms",
        "ms",
        ms(&graph_s),
        programs,
        "median ProgramGraph::from_circuit per set-up compile",
    );
    l.put(
        "circuit.program_nodes",
        "count",
        nodes as f64,
        programs,
        "program nodes of the four compiled programs",
    );
    l.put(
        "mapper.map_ms",
        "ms",
        ms(&map_s),
        programs,
        "median Mapper::map minus its lowering, per set-up compile",
    );
    l.put(
        "mapper.ir_layers",
        "count",
        ir_layers as f64,
        programs,
        "IR layers of the four compiled programs",
    );
    l.put(
        "mapper.nodes_per_ir_layer",
        "ratio",
        ratio(nodes as f64, ir_layers as f64),
        programs,
        "program nodes / IR layers",
    );
    l.put(
        "mapper.peak_live_nodes",
        "count",
        peak_live as f64,
        programs,
        "max over the four programs",
    );
    l.put(
        "ir.lower_ms",
        "ms",
        ms(&lower_s),
        programs,
        "median InstructionProgram::lower per set-up compile",
    );
    l.put(
        "ir.summaries_ms",
        "ms",
        ms(&summaries_s),
        summaries_s.len(),
        "median FlexLatticeIr::layer_summaries per execution",
    );
    l.put(
        "hardware.generate_us",
        "us",
        us(&generate_per_rsl_s),
        generate_per_rsl_s.len(),
        "median generate_layer_into per raw RSL",
    );
    l.put(
        "hardware.fusion_success_ratio",
        "ratio",
        ratio(fusions_succeeded as f64, fusions_attempted as f64),
        renorms as usize,
        format!("{fusions_succeeded} / {fusions_attempted} in-layer fusions"),
    );
    l.put(
        "percolation.renorm_us",
        "us",
        us(&renorm_s),
        renorm_s.len(),
        "median Renormalizer::renormalize per merged layer",
    );
    l.put(
        "percolation.renorm_success_ratio",
        "ratio",
        ratio(renorm_successes as f64, renorms as f64),
        renorms as usize,
        format!("{renorm_successes} / {renorms} renormalizations reached the target"),
    );
    l.put(
        "percolation.advance_us",
        "us",
        us(&advance_s),
        advance_s.len(),
        "p50 advance_logical_layer per logical layer",
    );
    l.put(
        "percolation.advance_p99_us",
        "us",
        percentile(&advance_s, 99.0) * 1e6,
        advance_s.len(),
        "p99 advance_logical_layer per logical layer",
    );
    l.put(
        "percolation.merged_per_logical",
        "ratio",
        ratio(merged_total as f64, logical_total as f64),
        advance_s.len(),
        format!("{merged_total} merged / {logical_total} logical layers"),
    );
    l.put(
        "percolation.timelike_failures",
        "count",
        timelike_failures as f64,
        advance_s.len(),
        "layers that renormalized but missed a time-like connection",
    );
    l.put(
        "percolation.timelike_self_us",
        "us",
        us(&timelike_self_s),
        timelike_self_s.len(),
        "median per logical layer of advance minus replayed generate + renormalize",
    );
    l.put(
        "session.execute_ms",
        "ms",
        ms(&execute_s),
        execute_s.len(),
        "median Session::execute",
    );
    l.put(
        "session.queue_wait_ms",
        "ms",
        ms(&queue_wait_s),
        queue_wait_s.len(),
        "median ServiceTelemetry::queue_wait",
    );
    traced.tracer = t;
    traced
}
