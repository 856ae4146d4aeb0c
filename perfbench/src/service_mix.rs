//! `service-mix`: one closed-loop client sends requests through an
//! `AsyncSession` with one lane and its `ProgramCache`, at the 9-qubit
//! p = 0.9 preset (36×36 RSL). Requests follow a Zipf-like skew over a
//! fixed pool of 24 `CorpusSpec::sample` circuits and the paper's four
//! benchmarks at 4–9 qubits; the cache holds fewer programs than the pool,
//! so hits, miss-compiles and evictions are all on the path. The workload
//! seed orders the requests and draws each request's execution seed.

use std::sync::Arc;
use std::time::Instant;

use oneperc::{
    AsyncSession, CompiledProgram, CompilerConfig, ExecutionRequest, JobFuture, SubmitError,
};
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_circuit::Circuit;
use oneperc_corpus::CorpusSpec;

use crate::checks::{execution_words, verify_compiled, verify_report, RepeatedCompiles};
use crate::stats::{median, mix, ratio, tail};
use crate::trace::Tracer;
use crate::{Scale, Timed, Traced};

const QUBITS: usize = 9;
const FUSION_P: f64 = 0.9;
/// Fixed seed of the request pool: the pool is part of the workload's
/// definition, the same for every workload seed.
const POOL_SEED: u64 = 0x00C0_FFEE;
const CORPUS_CIRCUITS: u64 = 24;
const CACHE_CAPACITY: usize = 12;
/// Zipf exponent of the request skew.
const SKEW: f64 = 1.0;
/// Requests per block of the request sequence (see [`requests`]).
const BLOCK: usize = 200;
/// Execution seed of the set-up's warm-up request (fixed, so every
/// workload seed's set-up does the same work).
const WARM_UP_SEED: u64 = 0x3A3A;
/// Operations covered by the pinned digest.
pub(crate) const PREFIX: usize = 32;

/// The pool in popularity-rank order.
fn pool() -> Vec<Circuit> {
    let mut pool: Vec<Circuit> = (0..CORPUS_CIRCUITS)
        .map(|i| CorpusSpec::sample(POOL_SEED, i).circuit(mix(POOL_SEED, i)))
        .collect();
    for qubits in 4..=QUBITS {
        for benchmark in Benchmark::all() {
            pool.push(benchmark.circuit(qubits, mix(POOL_SEED, qubits as u64)));
        }
    }
    // Interleave the two sources in a fixed scrambled rank order.
    let mut ranked: Vec<(u64, Circuit)> = pool
        .into_iter()
        .zip(0u64..)
        .map(|(c, i)| (mix(POOL_SEED ^ 0xA11, i), c))
        .collect();
    ranked.sort_by_key(|(key, _)| *key);
    ranked.into_iter().map(|(_, c)| c).collect()
}

/// Request pool indices, in order: blocks of `BLOCK` requests, each the
/// same Zipf-shaped multiset (largest-remainder quotas of the weights
/// `1 / rank^SKEW`) in an order shuffled by the workload seed. Every run of
/// a given length thus sends the same requests, and shorter runs send a
/// prefix of longer ones.
fn requests(seed: u64, count: usize, pool_len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool_len)
        .map(|rank| (rank as f64).powf(-SKEW))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w * BLOCK as f64 / total).collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool_len).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - quota[a] as f64, exact[b] - quota[b] as f64);
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let missing = BLOCK - quota.iter().sum::<usize>();
    for &index in by_remainder.iter().take(missing) {
        quota[index] += 1;
    }
    let block: Vec<usize> = quota
        .iter()
        .enumerate()
        .flat_map(|(index, &q)| std::iter::repeat_n(index, q))
        .collect();

    let mut out = Vec::with_capacity(count + BLOCK);
    for b in 0u64.. {
        if out.len() >= count {
            break;
        }
        let mut shuffled = block.clone();
        for i in (1..shuffled.len()).rev() {
            let j = mix(seed, (b << 32) | i as u64) % (i as u64 + 1);
            shuffled.swap(i, j as usize);
        }
        out.extend(shuffled);
    }
    out.truncate(count);
    out
}

struct Setup {
    service: AsyncSession,
    pool: Vec<Circuit>,
    merging: u64,
}

/// Pool generation, service start, compiling every pool program through
/// the cache (which keeps the last `CACHE_CAPACITY`) and one warm-up
/// request. Returns the compiled pool for checking outside the timing.
fn setup(seed: u64) -> (Setup, Vec<Arc<CompiledProgram>>, f64) {
    let start = Instant::now();
    let pool = pool();
    let config = CompilerConfig::for_qubits(QUBITS, FUSION_P, seed);
    let service = AsyncSession::builder(config)
        .lanes(1)
        .queue_depth(1)
        .program_cache(CACHE_CAPACITY)
        .build();
    let compiled: Vec<Arc<CompiledProgram>> = pool
        .iter()
        .map(|c| service.compile_cached(c).expect("pool circuit compiles"))
        .collect();
    let warm_up = service
        .submit_circuit(&pool[0], WARM_UP_SEED)
        .expect("pool circuit compiles")
        .wait();
    std::hint::black_box(&warm_up);
    let seconds = start.elapsed().as_secs_f64();
    let merging = config.hardware.merging_factor() as u64;
    (
        Setup {
            service,
            pool,
            merging,
        },
        compiled,
        seconds,
    )
}

/// Admits a request without blocking when the window has room; a refusal
/// is counted and the request then waits for a slot.
fn admit(
    refusals: &mut u64,
    try_submit: impl FnOnce() -> Result<JobFuture, SubmitError>,
    submit: impl FnOnce() -> JobFuture,
) -> JobFuture {
    match try_submit() {
        Ok(future) => future,
        Err(SubmitError::Busy { .. }) => {
            *refusals += 1;
            submit()
        }
        Err(e) => panic!("pool circuit failed to compile: {e}"),
    }
}

fn request_words(index: usize, hit: bool, words: &[u64]) -> Vec<u64> {
    let mut out = vec![index as u64, u64::from(hit)];
    out.extend_from_slice(words);
    out
}

pub(crate) fn run(seed: u64, scale: Scale) -> Timed {
    let mut timed = Timed::new("raw RSL", scale);
    let mut compiles = RepeatedCompiles::default();
    let (setup, compiled) = timed.repeat_setup(scale.setup_reps, || {
        let (setup, compiled, seconds) = setup(seed);
        compiles.record(&compiled);
        ((setup, compiled), seconds)
    });
    for (i, program) in compiled.iter().enumerate() {
        if let Err(e) = verify_compiled(program) {
            timed.failures.push(format!("pool circuit {i}: {e}"));
        }
    }
    for &i in compiles.differing() {
        timed.failures.push(format!(
            "pool circuit {i}: Session::compile of the same circuit gave different programs in different set-ups (the offline pass is not deterministic)"
        ));
    }
    drop(compiles);
    drop(compiled);
    let before = setup.service.cache_stats();

    let (mut rsl, mut logical, mut fusions, mut hits, mut refusals) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, index) in requests(seed, scale.ops, setup.pool.len())
        .into_iter()
        .enumerate()
    {
        let circuit = &setup.pool[index];
        let s = mix(seed, 2000 + i as u64);
        let start = Instant::now();
        let future = admit(
            &mut refusals,
            || setup.service.try_submit_circuit(circuit, s),
            || {
                setup
                    .service
                    .submit_circuit(circuit, s)
                    .expect("pool circuit compiles")
            },
        );
        let outcome = future.wait();
        timed.op_done(start.elapsed().as_secs_f64());
        if let Err(e) = verify_report(&outcome, setup.merging) {
            timed
                .failures
                .push(format!("request {i} (pool {index}): {e}"));
        }
        let report = outcome.into_report();
        rsl += report.rsl_consumed;
        logical += report.logical_layers;
        fusions += report.fusions;
        hits += u64::from(report.service.cache_hit);
        timed
            .work_latency_us
            .push(report.online_time.as_secs_f64() * 1e6 / report.rsl_consumed.max(1) as f64);
        timed.fold(
            &request_words(index, report.service.cache_hit, &execution_words(&report)),
            PREFIX,
        );
    }
    timed.finish();
    timed.work = rsl as f64;
    let after = setup.service.cache_stats();

    let n = timed.op_latency_s.len();
    let latency_ms: Vec<f64> = timed.op_latency_s.iter().map(|s| s * 1e3).collect();
    let extra = &mut timed.extra;
    extra.put(
        "fail_share",
        "share",
        ratio(timed.failures.len() as f64, n as f64),
        n,
        "failed / attempted requests",
    );
    extra.put(
        "latency_ms",
        "ms",
        median(&latency_ms),
        n,
        "p50 request latency (submit to completion)",
    );
    if let Some((q, value)) = tail(&latency_ms) {
        extra.put(
            "latency_tail_ms",
            "ms",
            value,
            n,
            format!("p{q:.2} request latency, ten samples beyond"),
        );
    }
    extra.put(
        "rsl_latency_us",
        "us",
        median(&timed.work_latency_us),
        n,
        "median over requests of online_time / rsl_consumed",
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
    extra.put(
        "cache_hit_share",
        "share",
        ratio(hits as f64, n as f64),
        n,
        format!("{hits} hits / {n} lookups"),
    );
    extra.put(
        "cache_evictions",
        "count",
        (after.evictions - before.evictions) as f64,
        n,
        "evictions in the timed phase",
    );
    extra.put(
        "busy_refusals",
        "count",
        refusals as f64,
        n,
        "try_submit refusals",
    );
    timed
}

/// The traced repetition: each request's cache lookup, admission and wait
/// run as separate calls (`compile_cached_lookup`, `try_submit`,
/// `JobFuture::wait`); the per-execution `layer_summaries` rebuild is
/// timed on its own outside the main path.
pub(crate) fn run_traced(seed: u64, scale: Scale) -> Traced {
    let mut traced = Traced::new();
    let mut t = Tracer::default();
    let (setup, compiled, _) = setup(seed);
    drop(compiled);
    let before = setup.service.cache_stats();
    let mut digest = crate::stats::Digest::default();
    let (mut lookup_s, mut execute_s, mut queue_wait_s, mut summaries_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut refusals) = (0u64, 0u64);

    for (i, index) in requests(seed, scale.ops, setup.pool.len())
        .into_iter()
        .enumerate()
    {
        let circuit = &setup.pool[index];
        let s = mix(seed, 2000 + i as u64);
        t.set_op(i as u64);
        let main = t.begin("request");
        let (lookup, l) = t.span("service.lookup", || {
            setup.service.session().compile_cached_lookup(circuit)
        });
        let lookup = lookup.expect("pool circuit compiles");
        let program = lookup.program.clone();
        let (future, _) = t.span("service.submit", || {
            admit(
                &mut refusals,
                || {
                    setup
                        .service
                        .try_submit(ExecutionRequest::new(program.clone(), s))
                },
                || {
                    setup
                        .service
                        .submit(ExecutionRequest::new(program.clone(), s))
                },
            )
        });
        let (outcome, e) = t.span("session.execute", || future.wait());
        let main_s = t.end(main);
        traced.main_path_s += main_s;
        traced.calib.after_op(main_s);
        let (_, sum) = t.span("ir.summaries", || {
            lookup.program.mapping.ir.layer_summaries()
        });

        if let Err(err) = verify_report(&outcome, setup.merging) {
            traced.failures.push(format!("request {i}: {err}"));
        }
        let report = outcome.into_report();
        digest.words(&request_words(index, lookup.hit, &execution_words(&report)));
        hits += u64::from(lookup.hit);
        lookup_s.push(l);
        execute_s.push(e);
        summaries_s.push(sum);
        queue_wait_s.push(report.service.queue_wait.as_secs_f64());
    }
    traced.digest = digest.value();
    let evictions = setup.service.cache_stats().evictions - before.evictions;

    let n = lookup_s.len();
    let l = &mut traced.layers;
    l.put(
        "ir.summaries_ms",
        "ms",
        median(&summaries_s) * 1e3,
        n,
        "median FlexLatticeIr::layer_summaries per request",
    );
    l.put(
        "session.execute_ms",
        "ms",
        median(&execute_s) * 1e3,
        n,
        "median admitted request until its JobFuture resolves",
    );
    l.put(
        "session.queue_wait_ms",
        "ms",
        median(&queue_wait_s) * 1e3,
        n,
        "median ServiceTelemetry::queue_wait",
    );
    l.put(
        "service.lookup_us",
        "us",
        median(&lookup_s) * 1e6,
        n,
        "median compile_cached_lookup (misses compile inside)",
    );
    l.put(
        "service.hit_ratio",
        "ratio",
        ratio(hits as f64, n as f64),
        n,
        format!("{hits} hits / {n} lookups"),
    );
    l.put(
        "service.evictions",
        "count",
        evictions as f64,
        n,
        "cache evictions in the traced phase",
    );
    l.put(
        "service.busy_refusals",
        "count",
        refusals as f64,
        n,
        "try_submit refusals (Busy)",
    );
    traced.tracer = t;
    traced
}
