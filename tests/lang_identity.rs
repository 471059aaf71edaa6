//! Identity proof for the eDSL port of `spmspv`: the `kernel!`-authored
//! program in `wave2::spmspv_lang` must lower to a dataflow graph
//! **node-for-node identical** to the hand-written builder version in
//! `sparse::spmspv`, and therefore compile, place, and simulate to the
//! exact same cycle count. This pins the lowering's fidelity: the eDSL
//! is a front end, not a different compiler.

use nupea::{Heuristic, MemoryModel, Scale, SystemConfig};
use nupea_kernels::workloads::{sparse, wave2};

#[test]
fn spmspv_lang_graph_is_identical_to_handwritten() {
    for par in [1usize, 4] {
        let hand = sparse::spmspv(Scale::Test, par);
        let lang = wave2::spmspv_lang(Scale::Test, par);
        assert_eq!(
            hand.kernel.dfg().dump(),
            lang.kernel.dfg().dump(),
            "par={par}: graphs differ"
        );
        // Same inputs too: the memory images must match word-for-word.
        assert_eq!(hand.mem, lang.mem, "par={par}: memory");
    }
}

#[test]
fn spmspv_lang_simulates_cycle_identical() {
    for (scale, par) in [(Scale::Test, 1usize), (Scale::Test, 4), (Scale::Bench, 4)] {
        let hand = sparse::spmspv(scale, par);
        let lang = wave2::spmspv_lang(scale, par);
        let sys = SystemConfig::monaco_12x12();
        let run = |w: &nupea::Workload| {
            let c = sys
                .compile(w, Heuristic::CriticalityAware)
                .expect("compiles");
            c.simulate(MemoryModel::Nupea).expect("simulates").cycles
        };
        assert_eq!(
            run(&hand),
            run(&lang),
            "{scale:?} par={par}: cycle counts diverge"
        );
    }
}
