//! Cross-commit golden hashes of `MapZeroNet::predict_batch`.
//!
//! `predict_batch_exact` pins every batched row to `predict_reference`,
//! but both forwards share the matmul, exp and tanh kernels, so a kernel
//! change that moves a bit moves both sides alike and that test stays
//! green. This test pins the outputs themselves: every log-prob and value
//! bit over walked states of the six quick Table-2 kernels on the four
//! evaluation fabrics, for the tiny and default nets, batch widths
//! K = 1, 3, 8, under both SIMD kernel kinds, hashed (FNV-1a) per
//! (kernel, fabric, net, kind) and compared against committed values.
//!
//! The hashes are a property of the numerics, not of the CPU: the
//! `Lanes8` kernels are bit-identical with and without AVX2. They do
//! depend on the platform libm (the `Scalar` kind's `expf`/`tanhf` and
//! the log-softmax's `expf`/`logf`); they were recorded on x86-64 Linux
//! with glibc. Any change that alters a prediction bit must regenerate
//! them deliberately (`GOLDEN_PRINT=1 cargo test --release --test
//! predict_golden -- --nocapture` prints the table) and say why.
//!
//! Own binary: it switches the process-global kernel kind.

use mapzero::core::embed::{observe, Observation};
use mapzero::core::network::{MapZeroNet, NetConfig};
use mapzero::core::MapEnv;
use mapzero::nn::simd::{force_kind, kind, SimdKind};
use mapzero::prelude::*;

const KERNELS: [&str; 6] = ["sum", "mac", "conv2", "accumulate", "matmul", "conv3"];
const WIDTHS: [usize; 3] = [1, 3, 8];

/// `(kernel, fabric, [tiny/Scalar, tiny/Lanes8, default/Scalar, default/Lanes8])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, [u64; 4])] = &[
    ("sum", "HReA", [0xed1525e4b4d99c87, 0x8ba5fb5a97ae9446, 0x48237fb3abe439ed, 0x42e4af0638867bbd]),
    ("mac", "HReA", [0xd004e768b9324cbe, 0xa5fbd5fe3bf71383, 0x7f8c6ec10a5d0b6c, 0x9d4628d8283ecd5a]),
    ("conv2", "HReA", [0xa90539f4c87fae8d, 0xf4c2b50576a17af8, 0x758fbb1a3d73dcd4, 0xca01843078998753]),
    ("accumulate", "HReA", [0x40d86fe1bf6b1794, 0xfdddee96374ee62c, 0x88e388c7e79fe6c8, 0x16e31c311a6e1a9b]),
    ("matmul", "HReA", [0x95179cca51555e94, 0x9af067ee7f8109b1, 0xf14e7189445d44de, 0x96ddf20c41224290]),
    ("conv3", "HReA", [0x73a1fcd3c1c55749, 0x9242f78611a74eb8, 0x36226e18cae80f34, 0xb44dde5545293fc0]),
    ("sum", "MorphoSys", [0xfd89c77834aae526, 0x52e8023a335c03c4, 0x438f12afdd6726ad, 0x955abf84bddeb03e]),
    ("mac", "MorphoSys", [0xb0cdb739cfd3f885, 0x23088c6fadad3557, 0x22a292da79d920be, 0xbd3411b6dc49ce2e]),
    ("conv2", "MorphoSys", [0x75b3c49533803b2e, 0xc8747e1dd02a18e2, 0x9c837db66cb617c4, 0xcced3b48318a4c4d]),
    ("accumulate", "MorphoSys", [0xe77e3876837e28a1, 0x88834d38b0d0d51a, 0xfddf032a8c5adab7, 0xf0d5b684d9aba09a]),
    ("matmul", "MorphoSys", [0x690969c790908dcd, 0x3c42b7c19429e58e, 0x4c676573d309c5f4, 0xa0301de59e5f6d9e]),
    ("conv3", "MorphoSys", [0xa6b4dcb4b7087738, 0x73dedc0a715ba7fb, 0xe9a4db53d3dd39ea, 0xd2073317c39ea231]),
    ("sum", "ADRES", [0xd0b0aea2ccde94a0, 0x0be868e78df106d0, 0x8df24772565ef6da, 0xb74830203a9eeaac]),
    ("mac", "ADRES", [0xa9d43c111bd4b210, 0xe6bd8f0c18df0d54, 0x59bb709b51dac4b6, 0x0801aa6bc79fe83e]),
    ("conv2", "ADRES", [0x75b3c49533803b2e, 0xc8747e1dd02a18e2, 0x9c837db66cb617c4, 0xcced3b48318a4c4d]),
    ("accumulate", "ADRES", [0xa877686d4da74730, 0x524335c726dbe4d4, 0x2aa7afe34187e985, 0xb07c83f848c44b77]),
    ("matmul", "ADRES", [0x690969c790908dcd, 0x3c42b7c19429e58e, 0x4c676573d309c5f4, 0xa0301de59e5f6d9e]),
    ("conv3", "ADRES", [0xe36eebfe57ec32c5, 0xc47d077d20b19a2a, 0x4de9a32cc52f4796, 0x0b816fda4cb3b60f]),
    ("sum", "HyCube", [0x15a8b92cbdcc768a, 0xd39d9ef0b898f6a3, 0xbddeebc10986787b, 0x0153cb2b96b0c963]),
    ("mac", "HyCube", [0xee29b37ffd08ca57, 0x9a76ea49f9e484da, 0x826e31b4adff44de, 0x737946a48df3aa8a]),
    ("conv2", "HyCube", [0xa6b2d1fc58d3bcd4, 0x6e5f747cfe11ed70, 0xfd52346e6c332e08, 0x9d846639356fe6df]),
    ("accumulate", "HyCube", [0xbe923fd8e4b6e5e3, 0x01521ce8e1ea50ea, 0x78d407effc8833fe, 0x2bc9e31828b2b3a8]),
    ("matmul", "HyCube", [0x6e52b4f48f7b8cad, 0xa1fe42c51c21e962, 0x172d4938d4a2373b, 0x2c029da1573061b6]),
    ("conv3", "HyCube", [0x49e2470573323b80, 0x69ba731ba2de95ab, 0x11707743c46536b1, 0x43933e95503ac496]),
];

/// Up to 10 states of one episode, stepping through the legal actions
/// in a rotating order so the placements spread out.
fn walked_states(problem: &Problem<'_>) -> Vec<Observation> {
    let mut env = MapEnv::new(problem);
    let mut states = Vec::new();
    while states.len() < 10 && !env.done() {
        let legal = env.legal_actions();
        if legal.is_empty() {
            break;
        }
        states.push(observe(&env));
        env.step(legal[(3 * states.len()) % legal.len()]);
    }
    states
}

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, word: u32) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hash of every output bit of `predict_batch` over the walked states,
/// cut into consecutive (wrapping) batches of each width.
fn predictions_hash(net: &MapZeroNet, states: &[Observation]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for k in WIDTHS {
        for start in (0..states.len()).step_by(k) {
            let batch: Vec<&Observation> = (0..k)
                .map(|j| &states[(start + j) % states.len()])
                .collect();
            for p in net.predict_batch(&batch) {
                for v in &p.log_probs {
                    h.write(v.to_bits());
                }
                h.write(p.value.to_bits());
            }
        }
    }
    h.0
}

#[test]
fn predict_batch_outputs_match_committed_hashes() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let default_kind = kind();
    let mut mismatches = Vec::new();
    let mut table = Vec::new();
    for cgra in presets::evaluation_fabrics() {
        for kernel in KERNELS {
            let dfg = suite::by_name(kernel).expect("suite kernel");
            let mii = Problem::mii(&dfg, &cgra).expect("mappable");
            let problem = Problem::new(&dfg, &cgra, mii).expect("schedulable");
            let states = walked_states(&problem);
            assert!(
                states.len() > 1,
                "{kernel}: the walk must yield several states"
            );
            let mut hashes = [0u64; 4];
            let mut slot = 0;
            for net_config in [NetConfig::tiny(), NetConfig::default()] {
                let net = MapZeroNet::new(cgra.pe_count(), net_config);
                for simd in [SimdKind::Scalar, SimdKind::Lanes8] {
                    force_kind(simd);
                    hashes[slot] = predictions_hash(&net, &states);
                    slot += 1;
                }
            }
            let expected = GOLDEN
                .iter()
                .find(|(k, f, _)| *k == kernel && *f == cgra.name())
                .map(|g| g.2);
            if expected != Some(hashes) {
                mismatches.push(format!("{kernel}/{}", cgra.name()));
            }
            table.push(format!(
                "    (\"{kernel}\", \"{}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
                cgra.name(),
                hashes[0],
                hashes[1],
                hashes[2],
                hashes[3]
            ));
        }
    }
    force_kind(default_kind);
    if print {
        println!("{}", table.join("\n"));
    }
    assert!(
        mismatches.is_empty(),
        "predict_batch outputs drifted from the committed golden hashes on {mismatches:?}; \
         fresh table:\n{}",
        table.join("\n")
    );
}
