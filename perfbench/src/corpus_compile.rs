//! `corpus-compile`: cold `Session::compile` calls, one circuit per
//! operation, over a fixed slice of the layered corpus family at width 36,
//! from about 10³ gates up to the `layered:w36,d3500,e400` point
//! (≈ 1.0 × 10⁵ gates). Depths are spaced geometrically, so every circuit
//! is its own size class and the median sits on one size. A run makes whole
//! passes over the slice, each circuit with its own seed.

use std::time::Instant;

use oneperc::{CompiledProgram, CompilerConfig, Session};
use oneperc_circuit::{Circuit, ProgramGraph};
use oneperc_corpus::CorpusSpec;
use oneperc_ir::InstructionProgram;
use oneperc_mapper::{Mapper, MapperConfig};

use crate::checks::{compiled_words, verify_compiled};
use crate::stats::{median, mix, ratio, Digest};
use crate::trace::Tracer;
use crate::{Scale, Timed, Traced};

const WIDTH: usize = 36;
const FUSION_P: f64 = 0.9;
const MIN_DEPTH: f64 = 35.0;
const MAX_DEPTH: f64 = 3500.0;
/// Circuits in the slice.
pub(crate) const SLICE_LEN: usize = 16;
/// Circuit seed of the set-up's warm-up compile (fixed, so every workload
/// seed's set-up does the same work).
const WARM_UP_SEED: u64 = 0x3A3A;
/// Operations covered by the pinned digest: the three smallest circuits.
pub(crate) const PREFIX: usize = 3;

/// The slice, smallest first: `layered:w36,d<depth>,e400` with depths
/// spaced geometrically from 35 to 3500.
pub(crate) fn slice() -> Vec<CorpusSpec> {
    (0..SLICE_LEN)
        .map(|i| {
            let step = (MAX_DEPTH / MIN_DEPTH).powf(i as f64 / (SLICE_LEN - 1) as f64);
            let depth = (MIN_DEPTH * step).round() as usize;
            CorpusSpec::Layered {
                width: WIDTH,
                depth,
                entanglement_permille: 400,
            }
        })
        .collect()
}

struct Setup {
    session: Session,
    config: CompilerConfig,
    circuits: Vec<Circuit>,
}

/// Input generation, session start and one warm-up compile of a
/// mid-slice circuit that the timed phase does not contain.
fn setup(seed: u64, ops: usize) -> (Setup, f64) {
    let start = Instant::now();
    let specs = slice();
    let circuits: Vec<Circuit> = specs
        .iter()
        .cycle()
        .take(ops)
        .zip(0u64..)
        .map(|(spec, i)| spec.circuit(mix(seed, i)))
        .collect();
    let config = CompilerConfig::for_qubits(WIDTH, FUSION_P, seed);
    let session = Session::builder(config).lanes(1).build();
    let warm_up = session.compile(&specs[SLICE_LEN / 2].circuit(WARM_UP_SEED));
    std::hint::black_box(&warm_up);
    drop(warm_up);
    let seconds = start.elapsed().as_secs_f64();
    (
        Setup {
            session,
            config,
            circuits,
        },
        seconds,
    )
}

pub(crate) fn run(seed: u64, scale: Scale) -> Timed {
    let mut timed = Timed::new("program node", scale);
    let setup = timed.repeat_setup(scale.setup_reps, || setup(seed, scale.ops));

    let mut nodes_total = 0usize;
    for (op, circuit) in setup.circuits.iter().enumerate() {
        let start = Instant::now();
        let compiled = setup.session.compile(circuit);
        let seconds = start.elapsed().as_secs_f64();
        timed.op_done(seconds);
        let checked = compiled
            .map_err(|e| e.to_string())
            .and_then(|program| verify_compiled(&program).map(|()| program));
        let nodes = match checked {
            Ok(program) => {
                timed.fold(&compiled_words(&program), PREFIX);
                program.mapping.stats.program_nodes
            }
            Err(e) => {
                timed.failures.push(format!("op {op}: {e}"));
                timed.fold(&[u64::MAX], PREFIX);
                0
            }
        };
        nodes_total += nodes;
        timed
            .work_latency_us
            .push(seconds * 1e6 / nodes.max(1) as f64);
    }
    timed.finish();
    timed.work = nodes_total as f64;

    let n = timed.op_latency_s.len();
    let compile_ms: Vec<f64> = timed.op_latency_s.iter().map(|s| s * 1e3).collect();
    let busy_s = timed.busy_s();
    let extra = &mut timed.extra;
    extra.put(
        "fail_share",
        "share",
        ratio(timed.failures.len() as f64, n as f64),
        n,
        "failed / attempted compiles",
    );
    extra.put(
        "compile_ms",
        "ms",
        median(&compile_ms),
        n,
        "median Session::compile per circuit",
    );
    extra.put(
        "compile_nodes_per_s",
        "1/s",
        nodes_total as f64 / busy_s,
        n,
        format!("{nodes_total} program nodes over the operations"),
    );
    timed
}

/// The traced repetition: each compile runs through the layer calls
/// (`ProgramGraph::from_circuit`, then `Mapper::map`, which lowers
/// internally); lowering and `layer_summaries` are then timed on their own
/// outside the main path.
pub(crate) fn run_traced(seed: u64, scale: Scale) -> Traced {
    let mut traced = Traced::new();
    let mut t = Tracer::default();
    let (setup, _) = setup(seed, scale.ops);
    let config = setup.config;
    let mapper = Mapper::new(
        MapperConfig::new(config.virtual_hardware())
            .with_occupancy_limit(config.occupancy_limit)
            .with_refresh_period(config.refresh_period),
    );
    let mut digest = Digest::default();
    let (mut graph_s, mut map_s, mut lower_s, mut summaries_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut ir_layers, mut peak_live) = (0usize, 0usize, 0usize);

    for (op, circuit) in setup.circuits.iter().enumerate() {
        t.set_op(op as u64);
        let main = t.begin("compile");
        let (graph, g) = t.span("circuit.graph", || ProgramGraph::from_circuit(circuit));
        let (mapping, m) = t.span("mapper.map", || mapper.map(&graph));
        let main_s = t.end(main);
        traced.main_path_s += main_s;
        traced.calib.after_op(main_s);
        let mapping = match mapping {
            Ok(mapping) => mapping,
            Err(e) => {
                traced.failures.push(format!("op {op}: {e}"));
                digest.word(u64::MAX);
                continue;
            }
        };
        let (_, l) = t.span("ir.lower", || InstructionProgram::lower(&mapping.ir));
        let (_, s) = t.span("ir.summaries", || mapping.ir.layer_summaries());
        graph_s.push(g);
        map_s.push(m - l);
        lower_s.push(l);
        summaries_s.push(s);
        nodes += mapping.stats.program_nodes;
        ir_layers += mapping.stats.layers;
        peak_live = peak_live.max(mapping.stats.peak_live_nodes);
        let program = CompiledProgram {
            program: graph,
            mapping,
            offline_time: Default::default(),
        };
        digest.words(&compiled_words(&program));
    }
    traced.digest = digest.value();

    let n = graph_s.len();
    let ms = |v: &[f64]| median(v) * 1e3;
    let l = &mut traced.layers;
    l.put(
        "circuit.graph_ms",
        "ms",
        ms(&graph_s),
        n,
        "median ProgramGraph::from_circuit per circuit",
    );
    l.put(
        "circuit.program_nodes",
        "count",
        nodes as f64,
        n,
        "program nodes compiled",
    );
    l.put(
        "mapper.map_ms",
        "ms",
        ms(&map_s),
        n,
        "median Mapper::map minus its lowering, per circuit",
    );
    l.put(
        "mapper.ir_layers",
        "count",
        ir_layers as f64,
        n,
        "IR layers emitted",
    );
    l.put(
        "mapper.nodes_per_ir_layer",
        "ratio",
        ratio(nodes as f64, ir_layers as f64),
        n,
        "program nodes / IR layers",
    );
    l.put(
        "mapper.peak_live_nodes",
        "count",
        peak_live as f64,
        n,
        "max over the slice",
    );
    l.put(
        "ir.lower_ms",
        "ms",
        ms(&lower_s),
        n,
        "median InstructionProgram::lower per circuit",
    );
    l.put(
        "ir.summaries_ms",
        "ms",
        ms(&summaries_s),
        n,
        "median FlexLatticeIr::layer_summaries per circuit",
    );
    traced.tracer = t;
    traced
}
