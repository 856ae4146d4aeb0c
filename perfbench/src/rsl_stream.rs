//! `rsl-stream`: the real-time path on the public types, one merged layer
//! per operation: `FusionEngine::generate_layer_into` on a 240×240 RSL at
//! p = 0.75 (Table 1's largest row, 4-qubit resource states) followed by
//! `ModularRenormalizer::run_shared` with node size 24, MI ratio 7 and
//! 3×3 modules run sequentially (Fig. 14(b)).

use std::sync::Arc;
use std::time::Instant;

use oneperc_hardware::{FusionEngine, HardwareConfig, PhysicalLayer};
use oneperc_percolation::{ModularConfig, ModularOutcome, ModularRenormalizer};

use crate::stats::{median, mix, ratio, tail, Digest};
use crate::trace::Tracer;
use crate::{Scale, Timed, Traced};

const RSL_SIZE: usize = 240;
const RESOURCE_STATE: usize = 4;
const FUSION_P: f64 = 0.75;
const MODULES_PER_SIDE: usize = 3;
const MI_RATIO: usize = 7;
const NODE_SIZE: usize = 24;
/// Seed of the set-up's warm-up layer (fixed, so every workload seed's
/// set-up does the same work).
const WARM_UP_SEED: u64 = 0x3A3A;
/// Operations covered by the pinned digest.
pub(crate) const PREFIX: usize = 32;

struct Stream {
    engine: FusionEngine,
    modular: ModularRenormalizer,
    layer: Arc<PhysicalLayer>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let hardware = HardwareConfig::new(RSL_SIZE, RESOURCE_STATE, FUSION_P);
        Stream {
            engine: FusionEngine::new(hardware, mix(seed, 0x5712EA)),
            modular: ModularRenormalizer::new(
                ModularConfig::new(MODULES_PER_SIDE, MI_RATIO, NODE_SIZE).sequential(),
            ),
            layer: Arc::new(PhysicalLayer::blank(RSL_SIZE, RSL_SIZE)),
        }
    }

    fn generate(&mut self) {
        let layer =
            Arc::get_mut(&mut self.layer).expect("the stream holds the only layer reference");
        self.engine.generate_layer_into(layer);
    }

    fn renormalize(&mut self) -> ModularOutcome {
        self.modular.run_shared(&self.layer)
    }
}

/// Checks one operation and returns its digest words.
fn check(
    layer: &PhysicalLayer,
    outcome: &ModularOutcome,
    merging: usize,
) -> Result<[u64; 8], String> {
    let modules = MODULES_PER_SIDE * MODULES_PER_SIDE;
    let module_nodes: usize = outcome.modules.iter().map(|m| m.node_count()).sum();
    if layer.raw_rsl_consumed != merging {
        return Err(format!(
            "layer consumed {} raw RSLs, merging factor is {merging}",
            layer.raw_rsl_consumed
        ));
    }
    if outcome.modules.len() != modules {
        return Err(format!(
            "{} modules, expected {modules}",
            outcome.modules.len()
        ));
    }
    if outcome.module_nodes != module_nodes || outcome.joined_nodes > outcome.module_nodes {
        return Err(format!(
            "node counts inconsistent: joined {} module {} (sum over modules {module_nodes})",
            outcome.joined_nodes, outcome.module_nodes
        ));
    }
    if outcome.joins_found > outcome.joins_attempted {
        return Err(format!(
            "{} joins found of {} attempted",
            outcome.joins_found, outcome.joins_attempted
        ));
    }
    Ok([
        layer.raw_rsl_consumed as u64,
        layer.fusions_attempted,
        layer.fusions_succeeded,
        layer.bond_count() as u64,
        outcome.joined_nodes as u64,
        outcome.module_nodes as u64,
        outcome.joins_attempted as u64,
        outcome.joins_found as u64,
    ])
}

/// Engine and renormalizer construction plus one warm-up operation.
fn setup(seed: u64) -> (Stream, f64) {
    let start = Instant::now();
    let mut warm = Stream::new(WARM_UP_SEED);
    warm.generate();
    std::hint::black_box(warm.renormalize());
    // The timed stream starts from the workload seed on warm allocations.
    warm.engine.reseed(mix(seed, 0x5712EA));
    (warm, start.elapsed().as_secs_f64())
}

fn merging() -> usize {
    HardwareConfig::new(RSL_SIZE, RESOURCE_STATE, FUSION_P).merging_factor()
}

pub(crate) fn run(seed: u64, scale: Scale) -> Timed {
    let mut timed = Timed::new("raw RSL", scale);
    let mut stream = timed.repeat_setup(scale.setup_reps, || setup(seed));
    let merging = merging();

    let (mut rsl, mut joins_found, mut joins_attempted) = (0u64, 0u64, 0u64);
    for op in 0..scale.ops {
        let start = Instant::now();
        stream.generate();
        let outcome = stream.renormalize();
        let seconds = start.elapsed().as_secs_f64();
        timed.op_done(seconds);
        let raw = stream.layer.raw_rsl_consumed;
        rsl += raw as u64;
        timed
            .work_latency_us
            .push(seconds * 1e6 / raw.max(1) as f64);
        joins_found += outcome.joins_found as u64;
        joins_attempted += outcome.joins_attempted as u64;
        match check(&stream.layer, &outcome, merging) {
            Ok(words) => timed.fold(&words, PREFIX),
            Err(e) => {
                timed.failures.push(format!("op {op}: {e}"));
                timed.fold(&[u64::MAX], PREFIX);
            }
        }
    }
    timed.finish();
    timed.work = rsl as f64;

    let n = timed.op_latency_s.len();
    let busy_s = timed.busy_s();
    let extra = &mut timed.extra;
    extra.put(
        "fail_share",
        "share",
        ratio(timed.failures.len() as f64, n as f64),
        n,
        "failed / attempted merged layers",
    );
    extra.put(
        "rsl_latency_us",
        "us",
        median(&timed.work_latency_us),
        n,
        "median host time per raw RSL",
    );
    if let Some((q, value)) = tail(&timed.work_latency_us) {
        extra.put(
            "rsl_latency_tail_us",
            "us",
            value,
            n,
            format!("p{q:.2} host time per raw RSL, ten samples beyond"),
        );
    }
    extra.put(
        "rsl_per_s",
        "1/s",
        rsl as f64 / busy_s,
        n,
        format!("{rsl} RSLs over the operations"),
    );
    extra.put(
        "join_share",
        "share",
        ratio(joins_found as f64, joins_attempted as f64),
        n,
        format!("{joins_found} / {joins_attempted} joins found"),
    );
    timed
}

/// The traced repetition: generation and modular renormalization each in
/// their own span under one span per operation.
pub(crate) fn run_traced(seed: u64, scale: Scale) -> Traced {
    let mut traced = Traced::new();
    let mut t = Tracer::default();
    let (mut stream, _) = setup(seed);
    let merging = merging();
    let mut digest = Digest::default();
    let (mut generate_s, mut modular_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut succeeded, mut joins_found, mut joins_attempted) =
        (0u64, 0u64, 0u64, 0u64);

    for op in 0..scale.ops {
        t.set_op(op as u64);
        let main = t.begin("op");
        let (_, g) = t.span("hardware.generate", || stream.generate());
        let (outcome, m) = t.span("percolation.modular", || stream.renormalize());
        let main_s = t.end(main);
        traced.main_path_s += main_s;
        traced.calib.after_op(main_s);
        let layer = &stream.layer;
        generate_s.push(g / layer.raw_rsl_consumed.max(1) as f64);
        modular_s.push(m);
        attempted += layer.fusions_attempted;
        succeeded += layer.fusions_succeeded;
        joins_found += outcome.joins_found as u64;
        joins_attempted += outcome.joins_attempted as u64;
        match check(layer, &outcome, merging) {
            Ok(words) => digest.words(&words),
            Err(e) => {
                traced.failures.push(format!("op {op}: {e}"));
                digest.word(u64::MAX);
            }
        }
    }
    traced.digest = digest.value();

    let n = generate_s.len();
    let l = &mut traced.layers;
    l.put(
        "hardware.generate_us",
        "us",
        median(&generate_s) * 1e6,
        n,
        "median generate_layer_into per raw RSL",
    );
    l.put(
        "hardware.fusion_success_ratio",
        "ratio",
        ratio(succeeded as f64, attempted as f64),
        n,
        format!("{succeeded} / {attempted} in-layer fusions"),
    );
    l.put(
        "percolation.modular_us",
        "us",
        median(&modular_s) * 1e6,
        n,
        "median ModularRenormalizer::run_shared per merged layer",
    );
    l.put(
        "percolation.join_ratio",
        "ratio",
        ratio(joins_found as f64, joins_attempted as f64),
        n,
        format!("{joins_found} / {joins_attempted} joins found"),
    );
    traced.tracer = t;
    traced
}
