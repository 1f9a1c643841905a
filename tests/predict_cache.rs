//! Prediction-cache isolation: a `PredictCache` warmed by one problem
//! must never answer for another. Entries are keyed by network, problem
//! content and search state, so a search over a warm cache holding only
//! other problems' states is bit-identical to a cold-cache search.

use mapzero::core::mcts::SearchResult;
use mapzero::core::network::{MapZeroNet, NetConfig};
use mapzero::core::{MapEnv, Mcts, MctsConfig, PredictCache};
use mapzero::dfg::random::{random_dfg, RandomDfgConfig};
use mapzero::prelude::*;

/// Search the root of `problem` through `cache`.
fn search(net: &MapZeroNet, problem: &Problem<'_>, cache: &PredictCache) -> SearchResult {
    let env = MapEnv::new(problem);
    Mcts::with_cache(net, MctsConfig::fast_test(), cache.clone()).search(&env)
}

/// Warm a cache on `warm_with`, then search `target` through it and
/// through a cold cache: the two searches must agree bit for bit.
fn assert_warm_cache_is_inert(net: &MapZeroNet, warm_with: &Problem<'_>, target: &Problem<'_>) {
    let capacity = MctsConfig::fast_test().cache_capacity;
    let warm = PredictCache::new(capacity);
    let _ = search(net, warm_with, &warm);
    assert!(!warm.is_empty(), "the warm-up search must populate the cache");
    let hot = search(net, target, &warm);
    let cold = search(net, target, &PredictCache::new(capacity));
    assert_eq!(hot.root_value.to_bits(), cold.root_value.to_bits(), "root value moved");
    assert_eq!(hot.visit_distribution, cold.visit_distribution, "visit distribution moved");
    assert_eq!(hot.best_action, cold.best_action);
}

fn random_12(seed: u64) -> Dfg {
    random_dfg(
        &format!("rand-{seed}"),
        &RandomDfgConfig { nodes: 12, edges: 14, self_cycles: 1, max_fanin: 3, seed },
    )
}

/// Two different random DFGs of the same size on HReA at the same II:
/// the old key (II, node count, PE count, placements) gave both the
/// same root key, so the second search was served the first DFG's
/// predictions.
#[test]
fn cache_warmed_by_another_dfg_leaves_search_unchanged() {
    let cgra = presets::hrea();
    let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
    let mut checked = 0;
    for seed in 0..20u64 {
        let (a, b) = (random_12(2 * seed), random_12(2 * seed + 1));
        assert_eq!(a.node_count(), b.node_count());
        let (Ok(mii_a), Ok(mii_b)) = (Problem::mii(&a, &cgra), Problem::mii(&b, &cgra)) else {
            continue;
        };
        let ii = mii_a.max(mii_b);
        let (Ok(pa), Ok(pb)) = (Problem::new(&a, &cgra, ii), Problem::new(&b, &cgra, ii)) else {
            continue;
        };
        let (pa, pb) = (pa.with_candidate_pruning(), pb.with_candidate_pruning());
        assert_ne!(pa.fingerprint(), pb.fingerprint(), "seed {seed}: distinct DFGs collide");
        assert_warm_cache_is_inert(&net, &pa, &pb);
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} of 20 seeds produced a schedulable pair");
}

/// The same kernel on MorphoSys and then ADRES: both are 8×8 with the
/// same links, so they share one network and, at equal II, the same
/// old keys; only ADRES's row-shared memory bus tells them apart. On
/// `mac2` (40 nodes, II 2) the bus changes the masks the search meets,
/// so the old key served MorphoSys predictions to the ADRES search.
#[test]
fn cache_warmed_on_morphosys_leaves_adres_search_unchanged() {
    let (morphosys, adres) = (presets::morphosys(), presets::adres());
    assert_eq!(morphosys.pe_count(), adres.pe_count());
    let net = MapZeroNet::new(adres.pe_count(), NetConfig::tiny());
    for kernel in ["conv2", "mac2"] {
        let dfg = suite::by_name(kernel).unwrap();
        let ii = Problem::mii(&dfg, &morphosys).unwrap().max(Problem::mii(&dfg, &adres).unwrap());
        let on_m = Problem::new(&dfg, &morphosys, ii).unwrap().with_candidate_pruning();
        let on_a = Problem::new(&dfg, &adres, ii).unwrap().with_candidate_pruning();
        assert_ne!(on_m.fingerprint(), on_a.fingerprint(), "{kernel}: fabrics collide");
        assert_warm_cache_is_inert(&net, &on_m, &on_a);
    }
}
