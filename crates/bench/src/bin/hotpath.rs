//! Inference hot-path benchmark: the tape-free forward, leaf batching
//! and the MCTS search path against their baselines.
//!
//! Four measurements:
//!
//! 1. **Prediction throughput** — `predict_reference` (autodiff tape,
//!    per-op allocations) vs `predict_batch` of one observation
//!    (InferCtx scratch reuse) on a fixed observation, in
//!    predictions/second.
//! 2. **Batched leaf evaluation scaling** — `predict_batch` at batch
//!    sizes 1/4/8/16 under the SIMD kernels against `predict_batch` of
//!    one under the scalar kernels, over distinct episode states (the
//!    MCTS leaf workload). Each round runs the scalar arm and every
//!    batch size back to back in rotated order, and each K is
//!    summarized as the median over rounds of its throughput ratio to
//!    the round's scalar sample, which cancels slow frequency/thermal
//!    drift that a sequential A-then-B layout folds into the
//!    comparison.
//!    A second sweep measures K=1 and K=8 with `NetConfig::tiny()` on
//!    the 64-PE MorphoSys fabric — the network shape of the repository
//!    benchmark's quick-mode compiles (`tiny_net_64pe`).
//! 3. **End-to-end compile time** — the Fig. 11 MapZero configuration on
//!    a workload kernel, one leaf per sweep (`leaf_batch = 1`) vs the
//!    default leaf batch.
//! 4. **Candidate pruning** — the same compile with
//!    `prune_candidates` off vs on.
//!
//! Results land in `results/BENCH_hotpath.json` with the run's metric
//! deltas (including the `search.predict_cache.{hit,miss}` and
//! `search.batch.*` counters) plus the `batch_scaling` table and
//! `batch8_speedup`, so `scripts/ci.sh` can schema-check the file and
//! flag throughput regressions against the committed baseline.

use mapzero_bench::{BenchMode, Harness};
use mapzero_core::embed::{observe, Observation};
use mapzero_core::network::{MapZeroNet, NetConfig};
use mapzero_core::{Compiler, MapEnv, Problem};
use mapzero_obs::json::Json;
use std::time::{Duration, Instant};

/// Median of a sample (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Run `f` repeatedly for at least `budget`, returning calls/second.
fn throughput(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Warm-up: fill scratch buffers so steady state is measured.
    f();
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed() < budget {
        f();
        calls += 1;
    }
    calls as f64 / started.elapsed().as_secs_f64()
}

/// Up to 16 distinct states of one episode (first legal action each
/// step) — the MCTS leaf workload: real leaves all differ in placement.
fn episode_states(problem: &Problem<'_>) -> Vec<Observation> {
    let mut states = Vec::new();
    let mut walk = MapEnv::new(problem);
    while states.len() < 16 && !walk.done() {
        let legal = walk.legal_actions();
        if legal.is_empty() {
            break;
        }
        states.push(observe(&walk));
        walk.step(legal[0]);
    }
    assert!(!states.is_empty(), "the episode yields at least one state");
    states
}

/// Per batch width `k`, eight pre-built `k`-chunks cycling `obs`.
fn cycling_chunks<'a>(obs: &[&'a Observation], widths: &[usize]) -> Vec<Vec<Vec<&'a Observation>>> {
    widths
        .iter()
        .map(|&k| {
            (0..8)
                .map(|c| (0..k).map(|j| obs[(c * k + j) % obs.len()]).collect())
                .collect()
        })
        .collect()
}

fn main() {
    let mode = BenchMode::from_env();
    let h = Harness::begin("hotpath", format!("Inference hot path: before/after ({mode:?} mode)"));
    let budget = match mode {
        BenchMode::Quick => Duration::from_millis(300),
        BenchMode::Full => Duration::from_secs(2),
    };

    // --- 1. Raw prediction throughput -------------------------------
    let dfg = mapzero_dfg::suite::by_name("conv3").expect("kernel exists");
    let cgra = mapzero_arch::presets::hrea();
    let mii = Problem::mii(&dfg, &cgra).expect("mappable");
    let problem = Problem::new(&dfg, &cgra, mii).expect("schedulable");
    let env = MapEnv::new(&problem);
    let obs = observe(&env);
    let net = MapZeroNet::new(cgra.pe_count(), NetConfig::default());
    assert_eq!(
        net.predict_batch(&[&obs])[0],
        net.predict_reference(&obs),
        "hot path must stay bit-identical to the reference"
    );

    h.progress("measuring predict_reference (tape-based)");
    let ref_rate = throughput(budget, || {
        std::hint::black_box(net.predict_reference(&obs));
    });
    h.progress("measuring predict_batch of one (tape-free)");
    let fast_rate = throughput(budget, || {
        std::hint::black_box(net.predict_batch(&[&obs]));
    });
    let predict_speedup = fast_rate / ref_rate.max(f64::MIN_POSITIVE);
    h.note(format!(
        "predictions/sec: reference {ref_rate:.0}, fast {fast_rate:.0} ({predict_speedup:.1}x)"
    ));
    h.field("predictions_per_sec_reference", Json::Num(ref_rate));
    h.field("predictions_per_sec_fast", Json::Num(fast_rate));
    h.field("predict_speedup", Json::Num(predict_speedup));

    // --- 2. Batched leaf evaluation scaling --------------------------
    // The MCTS leaf workload: distinct mid-episode states of one
    // problem (real leaves all differ in placement). The scalar arm is
    // the unbatched configuration — scalar kernels (`SimdKind::Scalar`,
    // libm tanh), one `predict_batch` of one per leaf. The batched arm
    // is the search's configuration — SIMD kernels (`SimdKind::Lanes8`)
    // plus `predict_batch` over K leaves. Kernel kinds are switched per
    // arm via `simd::force_kind`, then restored.
    let states = episode_states(&problem);
    let leaf_obs: Vec<&Observation> = states.iter().collect();
    let default_kind = mapzero_nn::simd::kind();
    let slice = budget / 16;
    let batch_sizes = [1usize, 4, 8, 16];
    let chunks = cycling_chunks(&leaf_obs, &batch_sizes);
    // Arm 0 is the scalar baseline, arm i > 0 batch size
    // `batch_sizes[i - 1]`. Every round runs all arms back to back, so
    // each K's ratio and the K=1 ratio share the round's scalar sample
    // and drift between rounds cancels in the K-vs-K comparison.
    let arm_rate = |arm: usize, round: usize| -> f64 {
        let rate = if arm == 0 {
            mapzero_nn::simd::force_kind(mapzero_nn::simd::SimdKind::Scalar);
            let mut cursor = round;
            throughput(slice, || {
                std::hint::black_box(net.predict_batch(&[leaf_obs[cursor % leaf_obs.len()]]));
                cursor += 1;
            })
        } else {
            mapzero_nn::simd::force_kind(mapzero_nn::simd::SimdKind::Lanes8);
            let arm_chunks = &chunks[arm - 1];
            let mut chunk = round;
            throughput(slice, || {
                std::hint::black_box(net.predict_batch(&arm_chunks[chunk % arm_chunks.len()]));
                chunk += 1;
            }) * batch_sizes[arm - 1] as f64
        };
        mapzero_nn::simd::force_kind(default_kind);
        rate
    };
    let arms = batch_sizes.len() + 1;
    let rounds = 16usize;
    let mut ratios = vec![Vec::new(); batch_sizes.len()];
    let mut rates = vec![Vec::new(); batch_sizes.len()];
    for round in 0..rounds {
        h.progress(format!("measuring predict_batch at K={batch_sizes:?} (round {}/{rounds})", round + 1));
        // Rotate the arm order per round so position-in-round drift
        // cancels across the median instead of biasing one arm.
        let mut sample = vec![0.0f64; arms];
        for step in 0..arms {
            let arm = (round + step) % arms;
            sample[arm] = arm_rate(arm, round);
        }
        for (i, &rate) in sample[1..].iter().enumerate() {
            ratios[i].push(rate / sample[0].max(f64::MIN_POSITIVE));
            rates[i].push(rate);
        }
    }
    let mut scaling = Vec::new();
    let mut batch8_speedup = f64::NAN;
    for ((&k, ratios), rates) in batch_sizes.iter().zip(&mut ratios).zip(&mut rates) {
        let speedup = median(ratios);
        let rate = median(rates);
        h.note(format!("batch {k}: {rate:.0} predictions/sec, {speedup:.2}x vs scalar"));
        if k == 8 {
            batch8_speedup = speedup;
        }
        scaling.push(Json::obj(vec![
            ("batch", Json::Num(k as f64)),
            ("predictions_per_sec", Json::Num(rate)),
            ("speedup_vs_scalar", Json::Num(speedup)),
        ]));
    }
    h.field("batch_scaling", Json::Arr(scaling));
    h.field("batch8_speedup", Json::Num(batch8_speedup));

    // --- 2b. The benchmark's network shape: 64 PEs, tiny net ---------
    // The quick-mode compiles of the repository benchmark run
    // `NetConfig::tiny()` on 64-PE fabrics (MorphoSys, ADRES), where the
    // CGRA encoder's per-message attention work, not FLOPs, dominates a
    // forward. Same interleaved layout: every round runs K=1 and K=8
    // back to back in alternating order under the default kernels.
    let tiny_cgra = mapzero_arch::presets::morphosys();
    let tiny_mii = Problem::mii(&dfg, &tiny_cgra).expect("mappable");
    let tiny_problem = Problem::new(&dfg, &tiny_cgra, tiny_mii).expect("schedulable");
    let tiny_net = MapZeroNet::new(tiny_cgra.pe_count(), NetConfig::tiny());
    let tiny_states = episode_states(&tiny_problem);
    let tiny_obs: Vec<&Observation> = tiny_states.iter().collect();
    let tiny_widths = [1usize, 8];
    let tiny_chunks = cycling_chunks(&tiny_obs, &tiny_widths);
    let mut tiny_rates = vec![Vec::new(); tiny_widths.len()];
    for round in 0..rounds {
        h.progress(format!(
            "measuring tiny net on {} at K={tiny_widths:?} (round {}/{rounds})",
            tiny_cgra.name(),
            round + 1
        ));
        for step in 0..tiny_widths.len() {
            let arm = (round + step) % tiny_widths.len();
            let arm_chunks = &tiny_chunks[arm];
            let mut chunk = round;
            let rate = throughput(slice, || {
                std::hint::black_box(tiny_net.predict_batch(&arm_chunks[chunk % arm_chunks.len()]));
                chunk += 1;
            }) * tiny_widths[arm] as f64;
            tiny_rates[arm].push(rate);
        }
    }
    let mut tiny_rows = Vec::new();
    for (&k, rates) in tiny_widths.iter().zip(&mut tiny_rates) {
        let rate = median(rates);
        h.note(format!(
            "tiny net on {}: batch {k}: {rate:.0} predictions/sec ({:.1} us/row)",
            tiny_cgra.name(),
            1e6 / rate.max(f64::MIN_POSITIVE)
        ));
        tiny_rows.push(Json::obj(vec![
            ("batch", Json::Num(k as f64)),
            ("predictions_per_sec", Json::Num(rate)),
        ]));
    }
    h.field(
        "tiny_net_64pe",
        Json::obj(vec![
            ("fabric", Json::from(tiny_cgra.name())),
            ("kernel", Json::from("conv3")),
            ("batch_scaling", Json::Arr(tiny_rows)),
        ]),
    );

    // --- 3. End-to-end compile time (Fig. 11 workload) ---------------
    // Network-guided search (no playout early exit — the same search
    // the self-play trainer runs): every placement decision is a full
    // MCTS pass, so compile time is dominated by inference and the
    // end-to-end effect of leaf batching is visible.
    let kernel = match mode {
        BenchMode::Quick => "conv3",
        BenchMode::Full => "cap",
    };
    let dfg = mapzero_dfg::suite::by_name(kernel).expect("kernel exists");
    let limit = mode.time_limit();
    // `before` evaluates one leaf per sweep (`leaf_batch = 1`, plain
    // sequential MCTS); `after` is the default leaf batch.
    let compile_secs = |label: &str, before: bool| -> f64 {
        // Best of three runs per arm, damping scheduler noise on the
        // short quick-mode compiles.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut config = mode.mapzero_config();
            if before {
                config.agent.mcts.leaf_batch = 1;
            }
            config.agent.mcts.playout = false;
            // No pretraining: this measures the search path, not training.
            config.pretrain = None;
            let mut compiler = Compiler::new(config);
            let started = Instant::now();
            let report = compiler.map_with_limit(&dfg, &cgra, limit);
            let secs = started.elapsed().as_secs_f64();
            let ii = report.ok().and_then(|r| r.achieved_ii()).unwrap_or(0);
            h.note(format!(
                "compile {kernel} on {} ({label}): {secs:.3} s, II={ii}",
                cgra.name()
            ));
            best = best.min(secs);
        }
        best
    };
    h.progress(format!("compiling {kernel} with one leaf per sweep"));
    let before = compile_secs("before: leaf_batch 1", true);
    h.progress(format!("compiling {kernel} with the default leaf batch"));
    let after = compile_secs("after: default leaf_batch", false);
    let compile_speedup = before / after.max(f64::MIN_POSITIVE);
    h.note(format!("end-to-end compile speedup: {compile_speedup:.2}x"));
    h.field("compile_kernel", Json::from(kernel));
    h.field("compile_secs_before", Json::Num(before));
    h.field("compile_secs_after", Json::Num(after));
    h.field("compile_speedup", Json::Num(compile_speedup));

    // --- 4. Candidate pruning (DESIGN.md §13) ------------------------
    // Same compile workload, full hot path in both arms; only
    // `MctsConfig::prune_candidates` flips. Interleaved pairs with
    // alternating arm order, summarized as the median per-pair ratio —
    // the same drift-cancelling layout as the batch scaling above. The
    // 16×16 headline number lives in `BENCH_search_space.json`; this
    // field tracks the small-fabric (HReA) cost/benefit so a pruning
    // regression shows up even in the quick smoke.
    let prune_arm = |prune: bool| -> f64 {
        let mut config = mode.mapzero_config();
        config.agent.mcts.prune_candidates = prune;
        config.agent.mcts.playout = false;
        config.pretrain = None;
        let mut compiler = Compiler::new(config);
        let started = Instant::now();
        let _ = compiler.map_with_limit(&dfg, &cgra, limit);
        started.elapsed().as_secs_f64()
    };
    let pairs = 5usize;
    let mut prune_ratios = Vec::new();
    for p in 0..pairs {
        h.progress(format!("compiling {kernel} prune off/on (pair {}/{pairs})", p + 1));
        let (off, on) = if p % 2 == 0 {
            let off = prune_arm(false);
            (off, prune_arm(true))
        } else {
            let on = prune_arm(true);
            (prune_arm(false), on)
        };
        prune_ratios.push(off / on.max(f64::MIN_POSITIVE));
    }
    let prune_speedup = median(&mut prune_ratios);
    h.note(format!("candidate pruning compile speedup on {}: {prune_speedup:.2}x", cgra.name()));
    h.field("prune_speedup", Json::Num(prune_speedup));

    h.finish();
}
