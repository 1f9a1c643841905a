//! `MapZeroNet::predict_batch` is bit-identical to the autodiff
//! reference on every row, at every batch width K and under either SIMD
//! kernel kind.
//!
//! Batches are cut from the states of one walked episode per problem,
//! so every row of a batch shares the problem's graph shapes, like the
//! leaves of an MCTS sweep do. The test lives in its own binary because
//! it switches the process-global kernel kind
//! (`mapzero::nn::simd::force_kind`), which would race with kind-
//! sensitive tests running alongside it.

use mapzero::core::embed::{observe, Observation};
use mapzero::core::network::{MapZeroNet, NetConfig, Prediction};
use mapzero::core::MapEnv;
use mapzero::nn::simd::{force_kind, kind, SimdKind};
use mapzero::prelude::*;

/// Observations of up to 16 states of one episode, stepping through
/// the legal actions in a rotating order so the placements spread out.
fn walked_states(problem: &Problem<'_>) -> Vec<Observation> {
    let mut env = MapEnv::new(problem);
    let mut states = Vec::new();
    while states.len() < 16 && !env.done() {
        let legal = env.legal_actions();
        if legal.is_empty() {
            break;
        }
        states.push(observe(&env));
        env.step(legal[states.len() % legal.len()]);
    }
    states
}

/// A prediction as raw bits, so the comparison is bit-for-bit (an
/// `f32 ==` would let `-0.0` match `0.0`).
fn bits(p: &Prediction) -> (Vec<u32>, u32) {
    (p.log_probs.iter().map(|v| v.to_bits()).collect(), p.value.to_bits())
}

#[test]
fn every_batched_row_is_bit_identical_to_reference() {
    let cases = [
        ("conv3", presets::hrea()),
        ("conv2", presets::morphosys()),
        ("mac2", presets::adres()),
        ("sum", presets::simple_mesh(3, 3)),
    ];
    let default_kind = kind();
    for (kernel, cgra) in &cases {
        let dfg = suite::by_name(kernel).expect("suite kernel");
        let mii = Problem::mii(&dfg, cgra).expect("mappable");
        let problem = Problem::new(&dfg, cgra, mii).expect("schedulable");
        let states = walked_states(&problem);
        assert!(states.len() > 1, "{kernel}: the walk must yield several states");
        for net_config in [NetConfig::tiny(), NetConfig::default()] {
            let net = MapZeroNet::new(cgra.pe_count(), net_config);
            for simd in [SimdKind::Scalar, SimdKind::Lanes8] {
                force_kind(simd);
                let reference: Vec<_> =
                    states.iter().map(|o| bits(&net.predict_reference(o))).collect();
                for k in 1..=16 {
                    for offset in [0, k] {
                        let at: Vec<usize> =
                            (0..k).map(|j| (offset + j) % states.len()).collect();
                        let batch: Vec<&Observation> = at.iter().map(|&i| &states[i]).collect();
                        let predictions = net.predict_batch(&batch);
                        assert_eq!(predictions.len(), k);
                        for (row, (pred, &i)) in predictions.iter().zip(&at).enumerate() {
                            assert!(
                                bits(pred) == reference[i],
                                "{kernel}/{}: row {row} of K={k} ({simd:?}, state {i}) \
                                 differs from predict_reference",
                                cgra.name()
                            );
                        }
                    }
                }
            }
        }
    }
    force_kind(default_kind);
}
