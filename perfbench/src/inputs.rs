//! Workload inputs, all derived from the workload seed: compiler
//! configurations, the Table-2 cases, the serve request stream, and the
//! output check every returned mapping goes through.

use mapzero_arch::{presets, Cgra};
use mapzero_bench::BenchMode;
use mapzero_core::validate::check_mapping;
use mapzero_core::{MapZeroConfig, Mapping};
use mapzero_dfg::random::{random_dfg, RandomDfgConfig};
use mapzero_dfg::{suite, Dfg};
use mapzero_serve::service::ServeConfig;
use mapzero_serve::wire::MapRequest;
use std::time::Duration;

/// The six quick Table-2 kernels.
pub const KERNELS: [&str; 6] = ["sum", "mac", "conv2", "accumulate", "matmul", "conv3"];

/// Serve tenants and their fair-share weights.
pub const TENANTS: [(&str, u32); 3] = [("alpha", 2), ("beta", 1), ("gamma", 1)];

/// Wall-clock cap per compile or request. The expected times are
/// milliseconds, so the cap only catches runaways; an operation that
/// reaches it is a failed operation and its time a lower bound.
pub const CAP: Duration = Duration::from_secs(30);

/// Deterministic cap on MCTS tree expansions per compile or request, far
/// above what any case of these workloads uses.
pub const EXPANSION_CAP: u64 = 2_000_000;

/// SplitMix64 finalizer: decorrelates nearby seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed of item `index` of stream `stream` under the workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ index)
}

const STREAM_ROUND: u64 = 1;
/// Request streams: the timed serve_mix requests, and the HyCube
/// requests of the traced run's defect probe.
const STREAM_REQUEST: u64 = 2;
const STREAM_DEFECT: u64 = 3;

/// The evaluation fabric on which the compiler returns mappings the
/// validator rejects ("hold segment strays to peN"; README, "The HyCube
/// defect"). An operation there may fail, and which ones fail depends on
/// the seed, so the timed workloads leave it out and the traced run
/// measures the defect with a probe of its own.
pub const DEFECT_FABRIC: &str = "HyCube";

/// The evaluation fabrics of the timed workloads: HReA, MorphoSys, ADRES.
pub fn fabrics() -> Vec<Cgra> {
    presets::evaluation_fabrics()
        .into_iter()
        .filter(|c| c.name() != DEFECT_FABRIC)
        .collect()
}

/// HyCube, the fourth evaluation fabric.
pub fn defect_fabric() -> Cgra {
    let cgra = presets::hycube();
    debug_assert_eq!(cgra.name(), DEFECT_FABRIC);
    cgra
}

pub fn kernels() -> Vec<Dfg> {
    KERNELS
        .iter()
        .map(|k| suite::by_name(k).expect("suite kernel exists"))
        .collect()
}

/// One (kernel, fabric) compile case.
#[derive(Debug, Clone)]
pub struct Case {
    pub dfg: Dfg,
    pub cgra: Cgra,
}

/// The six Table-2 kernels on each of `fabrics`, fabric-major.
pub fn table2_cases(fabrics: &[Cgra]) -> Vec<Case> {
    let kernels = kernels();
    fabrics
        .iter()
        .cloned()
        .flat_map(|cgra| {
            kernels.iter().map(move |dfg| Case {
                dfg: dfg.clone(),
                cgra: cgra.clone(),
            })
        })
        .collect()
}

/// The quick-mode compiler configuration with network and MCTS seeds
/// set, bounded by the deterministic work budgets.
pub fn compile_config(net_seed: u64, mcts_seed: u64) -> MapZeroConfig {
    let mut config = BenchMode::Quick.mapzero_config();
    config.net.seed = net_seed;
    config.agent.mcts.seed = mcts_seed;
    config.expansion_budget = Some(EXPANSION_CAP);
    config.time_limit = CAP;
    config
}

/// Configuration of table2_small round `round` (a fresh compiler each).
pub fn round_config(seed: u64, round: u64) -> MapZeroConfig {
    let s = derive(seed, STREAM_ROUND, round);
    compile_config(s, mix(s))
}

/// The compile service of serve_mix: 2 workers, one engine (no hedging,
/// so responses are reproducible), breakers that a fault burst does not
/// trip, and the caps above.
pub fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::fast_test();
    config.workers = 2;
    config.default_deadline = Some(CAP);
    config.expansion_budget = Some(EXPANSION_CAP);
    config.compiler.time_limit = CAP;
    config
}

/// A serve request stream. Even requests are hot Table-2 kernels
/// (repeats hit the shared prediction cache), cycling through every
/// (kernel, fabric) pair of `hot`; odd ones are fresh random DFGs on the
/// `random` fabrics, drawn from stream `stream` of the workload seed.
/// The random DFGs' generator parameters (8–24 nodes, extra edges,
/// self-cycles, fan-in) and fabrics cycle too, so every pass has the same
/// mix and the seed draws only each graph's wiring and opcodes: the few
/// large DFGs that dominate the latency tail then appear equally often
/// under every seed. Tenants rotate.
pub struct RequestMix {
    stream: u64,
    kernels: Vec<Dfg>,
    hot: Vec<Cgra>,
    random: Vec<Cgra>,
}

impl RequestMix {
    /// The timed serve_mix stream: hot kernels on HReA, MorphoSys and
    /// ADRES, random DFGs on HReA only. On ADRES, whose row-shared memory
    /// bus takes one memory operation per row and cycle, some store-heavy
    /// draws (11 nodes, 6 of them stores) have no mapping the compiler
    /// finds in its II window, so the request fails for some seeds and not
    /// others. On MorphoSys a few draws per seed (even 9-node ones) take
    /// 30–110 ms of backtracking search against about 1 ms for the rest,
    /// so the seed, not the program, would set the latency tail, the
    /// throughput and the peak memory.
    pub fn timed() -> RequestMix {
        let hot = fabrics();
        let random = hot.iter().filter(|c| c.name() == "HReA").cloned().collect();
        RequestMix {
            stream: STREAM_REQUEST,
            kernels: kernels(),
            hot,
            random,
        }
    }

    /// The defect probe's stream: hot kernels and random DFGs on HyCube.
    pub fn defect() -> RequestMix {
        RequestMix {
            stream: STREAM_DEFECT,
            kernels: kernels(),
            hot: vec![defect_fabric()],
            random: vec![defect_fabric()],
        }
    }

    /// Request `j` of client `client`.
    pub fn request(&self, seed: u64, client: u64, j: u64) -> MapRequest {
        let (kernels, hot, random) = (&self.kernels, &self.hot, &self.random);
        let i = j * 2 + client;
        let (tenant, weight) = TENANTS[(i % TENANTS.len() as u64) as usize];
        // Per-kind counter over both clients' requests.
        let m = (j / 2 * 2 + client) as usize;
        let (dfg, cgra) = if j.is_multiple_of(2) {
            let pair = m % (kernels.len() * hot.len());
            (kernels[pair / hot.len()].clone(), &hot[pair % hot.len()])
        } else {
            const SIZES: usize = 17;
            let nodes = 8 + m % SIZES;
            let cycle = m / (SIZES * random.len());
            let cfg = RandomDfgConfig {
                nodes,
                edges: nodes + cycle % (nodes / 3 + 1),
                self_cycles: cycle % 2,
                max_fanin: 2 + (cycle / 2) % 2,
                seed: derive(seed, self.stream, i),
            };
            (
                random_dfg(&format!("rand{i}"), &cfg),
                &random[(m / SIZES) % random.len()],
            )
        };
        let prefix = if self.stream == STREAM_DEFECT {
            "h"
        } else {
            "c"
        };
        let mut request =
            MapRequest::new(&format!("{prefix}{client}-{j}"), tenant, dfg, cgra.clone());
        request.weight = weight;
        request
    }
}

/// The output check run on every returned mapping: the independent
/// validator, plus the II bounds (`II ≥ MII`, report and mapping agree).
/// Returns the achieved II.
pub fn check_output(
    dfg: &Dfg,
    cgra: &Cgra,
    mii: u32,
    reported_ii: u32,
    mapping: &Mapping,
) -> Result<u32, String> {
    check_mapping(dfg, cgra, mapping, reported_ii).map_err(|v| {
        format!(
            "{} violation(s), first: {}",
            v.len(),
            v.first().map_or("?", String::as_str)
        )
    })?;
    if mapping.ii < mii {
        return Err(format!("II {} below MII {mii}", mapping.ii));
    }
    Ok(mapping.ii)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_core::validate::corrupt;
    use mapzero_core::Compiler;

    fn fingerprint(r: &MapRequest) -> String {
        format!(
            "{}|{}|{}|{}|{:?}",
            r.id,
            r.tenant,
            r.cgra.name(),
            r.dfg.name(),
            r.dfg
        )
    }

    #[test]
    fn same_seed_gives_same_inputs() {
        let (mix, fabrics) = (RequestMix::timed(), fabrics());
        let stream = |seed| -> Vec<String> {
            (0..2)
                .flat_map(|c| (0..12).map(move |j| (c, j)))
                .map(|(c, j)| fingerprint(&mix.request(seed, c, j)))
                .collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_eq!(round_config(7, 3), round_config(7, 3));
        assert_ne!(round_config(7, 3), round_config(8, 3));
        assert_ne!(round_config(7, 3), round_config(7, 4));
        assert_eq!(round_config(7, 3).net.seed, derive(7, STREAM_ROUND, 3));
        let names = |cases: Vec<Case>| -> Vec<String> {
            cases
                .iter()
                .map(|c| format!("{}@{}", c.dfg.name(), c.cgra.name()))
                .collect()
        };
        assert_eq!(names(table2_cases(&fabrics)), names(table2_cases(&fabrics)));
        assert_eq!(table2_cases(&fabrics).len(), 18);
        assert_eq!(table2_cases(&[defect_fabric()]).len(), 6);
    }

    #[test]
    fn timed_fabrics_leave_out_only_hycube() {
        let names: Vec<String> = fabrics().iter().map(|c| c.name().to_owned()).collect();
        assert_eq!(names, ["HReA", "MorphoSys", "ADRES"]);
        assert_eq!(defect_fabric().name(), DEFECT_FABRIC);
        let defect = RequestMix::defect();
        for j in 0..24 {
            let probe = defect.request(3, 0, j);
            assert_eq!(probe.cgra.name(), DEFECT_FABRIC);
            assert!(probe.id.starts_with('h'));
        }
        let timed = RequestMix::timed();
        assert_ne!(
            format!("{:?}", defect.request(3, 0, 1).dfg),
            format!("{:?}", timed.request(3, 0, 1).dfg),
            "the probe draws its random DFGs from a stream of its own"
        );
    }

    #[test]
    fn serve_requests_cover_every_fabric_and_kernel() {
        let mix = RequestMix::timed();
        let mut hot = std::collections::BTreeSet::new();
        let mut random = std::collections::BTreeSet::new();
        for c in 0..2 {
            for j in 0..96 {
                let r = mix.request(3, c, j);
                let fabric = r.cgra.name().to_owned();
                if j.is_multiple_of(2) {
                    hot.insert((r.dfg.name().to_owned(), fabric));
                } else {
                    let n = r.dfg.node_count();
                    assert!((8..=24).contains(&n), "request {j} has {n} nodes");
                    random.insert(fabric);
                }
            }
        }
        assert_eq!(hot.len(), 18, "every (kernel, fabric) pair is requested");
        let random: Vec<String> = random.into_iter().collect();
        assert_eq!(random, ["HReA"], "random DFGs go to HReA only");
    }

    #[test]
    fn output_check_flags_a_corrupted_mapping() {
        let case = &table2_cases(&fabrics())[1];
        let mut compiler = Compiler::new(round_config(1, 0));
        let report = compiler
            .map(&case.dfg, &case.cgra)
            .expect("mac maps on HReA");
        let mut mapping = report.mapping.expect("a mapping");
        let ii = mapping.ii;
        assert_eq!(
            check_output(&case.dfg, &case.cgra, report.mii, ii, &mapping),
            Ok(ii)
        );
        corrupt(&mut mapping);
        assert!(check_output(&case.dfg, &case.cgra, report.mii, ii, &mapping).is_err());
    }
}
