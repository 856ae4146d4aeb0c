//! Pinned digests of each workload's first operations, for the default
//! seed and the held-out seed. A change to any deterministic output of
//! those operations fails the run. The prefix is short enough that the
//! smoke size covers it, so the pins hold for every `--seconds`.

use crate::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

const PINS: [(Workload, u64, u64); 8] = [
    (Workload::PaperSweep, DEFAULT_SEED, 0x3bc2_f3bf_003b_3159),
    (Workload::PaperSweep, HELD_OUT_SEED, 0x7e7a_5e71_1e94_76c9),
    (Workload::CorpusCompile, DEFAULT_SEED, 0xd786_f7e4_a2c0_bc38),
    (
        Workload::CorpusCompile,
        HELD_OUT_SEED,
        0x0e91_ba9b_832d_9372,
    ),
    (Workload::ServiceMix, DEFAULT_SEED, 0x768a_51c2_bdb9_a1d5),
    (Workload::ServiceMix, HELD_OUT_SEED, 0xf998_2b9c_67e4_f81a),
    (Workload::RslStream, DEFAULT_SEED, 0x8e77_66ef_b04b_c8ce),
    (Workload::RslStream, HELD_OUT_SEED, 0xc7ab_4cc3_9b61_57e7),
];

/// The pinned prefix digest for `(workload, seed)`, if any.
pub(crate) fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    PINS.iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, digest)| digest)
}
