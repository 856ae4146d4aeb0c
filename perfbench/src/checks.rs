//! Output checks shared by the workloads.

use std::fmt::{self, Write};
use std::sync::Arc;

use oneperc::{CompiledProgram, ExecuteOutcome, ExecutionReport};
use oneperc_ir::InstructionInterpreter;

use crate::stats::Digest;

/// Checks one execution: it completed, and its counters satisfy the online
/// pass's invariants (`logical == ir_layers`, `merged == logical +
/// routing`, `rsl == merging_factor × merged`).
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_report(outcome: &ExecuteOutcome, merging_factor: u64) -> Result<(), String> {
    if let Some(failure) = outcome.failure() {
        return Err(format!("incomplete execution: {failure}"));
    }
    let r = outcome.report();
    if r.logical_layers != r.ir_layers as u64 {
        return Err(format!(
            "logical layers {} != IR layers {}",
            r.logical_layers, r.ir_layers
        ));
    }
    if r.merged_layers != r.logical_layers + r.routing_layers {
        return Err(format!(
            "merged layers {} != logical {} + routing {}",
            r.merged_layers, r.logical_layers, r.routing_layers
        ));
    }
    if r.rsl_consumed != merging_factor * r.merged_layers {
        return Err(format!(
            "RSLs {} != merging factor {merging_factor} × merged layers {}",
            r.rsl_consumed, r.merged_layers
        ));
    }
    Ok(())
}

/// The deterministic fields of an execution report, as digest words. The
/// fields are listed one by one (not taken from a formatted report) so
/// that operational fields added to the report later cannot move the
/// digest.
pub fn execution_words(report: &ExecutionReport) -> [u64; 9] {
    let r = report.deterministic();
    [
        r.rsl_consumed,
        r.merged_layers,
        r.fusions,
        r.logical_layers,
        r.routing_layers,
        r.ir_layers as u64,
        r.program_nodes as u64,
        u64::from(r.complete),
        r.peak_memory_bytes,
    ]
}

/// Checks a compiled program: the mapping is complete, the IR passes
/// `FlexLatticeIr::validate`, and the lowered instructions run cleanly on
/// the instruction interpreter.
///
/// # Errors
///
/// Returns the first failed check.
pub fn verify_compiled(program: &CompiledProgram) -> Result<(), String> {
    let mapping = &program.mapping;
    if !mapping.complete {
        return Err("mapping left program nodes or edges unrealized".into());
    }
    if mapping.stats.program_nodes != program.program.node_count() {
        return Err(format!(
            "mapped {} program nodes of {}",
            mapping.stats.program_nodes,
            program.program.node_count()
        ));
    }
    mapping
        .ir
        .validate()
        .map_err(|e| format!("IR validation failed: {e}"))?;
    InstructionInterpreter::new()
        .run(&mapping.instructions)
        .map_err(|e| format!("instruction interpreter rejected the program: {e}"))
}

/// Digest words describing a compiled program.
pub fn compiled_words(program: &CompiledProgram) -> [u64; 9] {
    let s = &program.mapping.stats;
    [
        s.layers as u64,
        s.program_nodes as u64,
        s.ancilla_nodes as u64,
        s.spatial_edges as u64,
        s.temporal_edges as u64,
        s.cross_layer_edges as u64,
        s.peak_live_nodes as u64,
        program.mapping.instructions.len() as u64,
        u64::from(program.mapping.complete),
    ]
}

/// Fingerprint of what a compile hands the online pass: its IR layer
/// summaries (what each execution turns into layer requirements) and its
/// lowered instructions, streamed through the digest without a copy.
pub fn program_fingerprint(program: &CompiledProgram) -> u64 {
    struct Sink(Digest);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.bytes(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(Digest::default());
    let _ = write!(
        sink,
        "{:?}{:?}",
        program.mapping.ir.layer_summaries(),
        program.mapping.instructions
    );
    sink.0.value()
}

/// Compares the programs every repetition of a set-up compiled with those
/// of its first repetition. The circuits are the same in every repetition,
/// so a difference means the offline pass is not a function of its input,
/// and a run could not do fixed work.
#[derive(Default)]
pub struct RepeatedCompiles {
    first: Option<Vec<u64>>,
    differing: Vec<usize>,
}

impl RepeatedCompiles {
    /// Records one repetition's programs, in circuit order.
    pub fn record(&mut self, programs: &[Arc<CompiledProgram>]) {
        let fingerprints = programs.iter().map(|p| program_fingerprint(p));
        let Some(first) = &self.first else {
            self.first = Some(fingerprints.collect());
            return;
        };
        for (i, (a, b)) in first.iter().zip(fingerprints).enumerate() {
            if *a != b && !self.differing.contains(&i) {
                self.differing.push(i);
            }
        }
    }

    /// Indices of the circuits whose repetitions gave different programs.
    pub fn differing(&self) -> &[usize] {
        &self.differing
    }
}

#[cfg(test)]
mod tests {
    use oneperc::{CompilerConfig, Session};
    use oneperc_circuit::benchmarks::Benchmark;

    use super::*;

    #[test]
    fn repeated_compiles_flag_a_circuit_whose_program_changed() {
        let session = Session::builder(CompilerConfig::for_qubits(4, 0.9, 1))
            .lanes(1)
            .build();
        let compile = |b: Benchmark| Arc::new(session.compile(&b.circuit(4, 7)).expect("compiles"));
        let (qft, rca) = (compile(Benchmark::Qft), compile(Benchmark::Rca));
        let mut compiles = RepeatedCompiles::default();
        compiles.record(&[qft.clone(), rca.clone()]);
        compiles.record(&[compile(Benchmark::Qft), compile(Benchmark::Rca)]);
        assert!(compiles.differing().is_empty());
        compiles.record(&[rca.clone(), rca]);
        assert_eq!(compiles.differing(), &[0]);
    }
}
