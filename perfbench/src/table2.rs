//! table2_small: the six quick Table-2 kernels on three of the four
//! evaluation fabrics (HReA, MorphoSys, ADRES; HyCube only in the traced
//! run's defect probe). A pass compiles all 18 cases once per round,
//! `ROUNDS` rounds, each round with a fresh `Compiler` whose network and
//! MCTS seeds derive from the workload seed. Passes repeat until the
//! run's time is up.

use crate::inputs::{defect_fabric, fabrics, round_config, table2_cases, Case, CAP};
use crate::layers::{Probes, Traced, Tracing};
use crate::stats::{median_of, ms, peak_rss_mb, Repeated};
use crate::{Run, Tally, MIN_PASSES};
use mapzero_core::network::MapZeroNet;
use mapzero_core::{Compiler, MapError, MapZeroConfig, Mapping};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds (seeds) per pass: 48 × 18 = 864 compiles, so even the p99
/// printed in the report rests on 8 samples beyond it.
const ROUNDS: u64 = 48;
/// Interleaved untraced/traced pass pairs of the traced run.
const TRACE_PAIRS: usize = 3;
/// Mapped cases replayed through the layer probes.
const PROBE_CASES: usize = 48;

/// One pass's inputs: the cases, and per round the configuration and
/// the networks a compiler with that configuration would build lazily
/// (no pre-training), built up front so that network construction is
/// set-up, not compile time.
struct Inputs {
    cases: Vec<Case>,
    rounds: Vec<(MapZeroConfig, Vec<Arc<MapZeroNet>>)>,
}

impl Inputs {
    fn compiler(&self, round: usize) -> Compiler {
        let (config, nets) = &self.rounds[round];
        let mut compiler = Compiler::new(*config);
        for net in nets {
            compiler.install_shared_net(Arc::clone(net));
        }
        compiler
    }
}

/// Workload seed of the warm-up compiles' configuration, whatever the
/// run's seed.
const WARMUP_SEED: u64 = 0;

/// Set-up: inputs, networks, and a warm-up compile of every case.
fn setup(seed: u64) -> (Inputs, f64) {
    let started = Instant::now();
    let cases = table2_cases(&fabrics());
    let sizes: BTreeSet<usize> = cases.iter().map(|c| c.cgra.pe_count()).collect();
    let rounds = (0..ROUNDS)
        .map(|r| {
            let config = round_config(seed, r);
            let nets = sizes
                .iter()
                .map(|&pes| Arc::new(MapZeroNet::new(pes, config.net)))
                .collect();
            (config, nets)
        })
        .collect();
    let inputs = Inputs { cases, rounds };
    // The warm-up runs under one fixed configuration: under the seed's
    // own round 0, how long its searches take varied set-up time by half
    // from seed to seed.
    let mut warm = Compiler::new(round_config(WARMUP_SEED, 0));
    for case in &inputs.cases {
        let _ = std::hint::black_box(warm.map_with_limit(&case.dfg, &case.cgra, CAP));
    }
    (inputs, started.elapsed().as_secs_f64())
}

/// Compile one case, check the output, and account it. Returns the
/// compile time and the validated mapping, if any.
fn compile(compiler: &mut Compiler, case: &Case, tally: &mut Tally) -> (Duration, Option<Mapping>) {
    let started = Instant::now();
    let result = compiler.map_with_limit(&case.dfg, &case.cgra, CAP);
    let elapsed = started.elapsed();
    let site = format!("{} on {}", case.dfg.name(), case.cgra.name());
    tally.attempted += 1;
    let mapping = match result {
        Ok(report) => match report.mapping {
            Some(mapping) => tally.check(&case.dfg, &case.cgra, report.mii, mapping, &site),
            None => {
                tally.fail("no mapping in the II window");
                None
            }
        },
        Err(MapError::Timeout { .. }) if elapsed >= CAP => {
            tally.fail("wall-clock cap");
            None
        }
        Err(MapError::Timeout { .. }) => {
            tally.fail("work budget exhausted");
            None
        }
        Err(e) => {
            tally.fail(&format!("error: {e}"));
            None
        }
    };
    (elapsed, mapping)
}

/// One pass over every (round, case). `keep` collects up to
/// `PROBE_CASES` validated mappings for the layer probes; with `traced`
/// each compile gets a request scope and a `bench.compile` span.
fn pass(
    inputs: &Inputs,
    tally: &mut Tally,
    times: &mut Repeated,
    keep: &mut Vec<(usize, usize, Mapping)>,
    traced: bool,
) {
    let mut sum = 0.0;
    for r in 0..inputs.rounds.len() {
        let mut compiler = inputs.compiler(r);
        for (i, case) in inputs.cases.iter().enumerate() {
            let _scope = traced.then(|| mapzero_obs::trace::request_scope(&format!("r{r}-{i}")));
            let _span = mapzero_obs::span!("bench.compile");
            let (elapsed, mapping) = compile(&mut compiler, case, tally);
            sum += ms(elapsed);
            times.record(r * inputs.cases.len() + i, ms(elapsed));
            if let Some(m) = mapping.filter(|_| keep.len() < PROBE_CASES) {
                keep.push((r, i, m));
            }
        }
    }
    times.end_pass(sum);
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let started = Instant::now();
    let ops = (ROUNDS as usize) * table2_cases(&fabrics()).len();
    let mut tally = Tally::default();
    let mut times = Repeated::new(ops);
    let mut setups = Vec::new();
    let mut rss_mb = f64::NAN;
    while times.passes() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let (inputs, secs) = setup(seed);
        setups.push(secs);
        pass(&inputs, &mut tally, &mut times, &mut Vec::new(), false);
        if times.passes() == MIN_PASSES {
            rss_mb = peak_rss_mb();
        }
    }
    let latency_ms = times.best(ms(CAP));
    // One pass at its best: validated compiles per second of summed
    // per-compile minimum times.
    let mapped_per_s = tally.mapped as f64 / times.passes() as f64 / (latency_ms.sum() / 1e3);
    let traced = trace.then(|| traced_passes(seed, &times, &mut tally));
    Run {
        tally,
        setup_s: median_of(&setups),
        peak_rss_mb: rss_mb,
        latency_ms,
        times,
        mapped_per_s,
        traced,
        serve_rows: Vec::new(),
    }
}

/// The HyCube defect, measured: the six kernels on HyCube under every
/// round's configuration, each returned mapping put through the output
/// check. These compiles are a probe of the validator layer, not
/// operations of the workload, and run after the traced passes.
fn defect_probe(inputs: &Inputs) -> Tally {
    let cases = table2_cases(&[defect_fabric()]);
    let mut tally = Tally::default();
    for r in 0..inputs.rounds.len() {
        let mut compiler = inputs.compiler(r);
        for case in &cases {
            compile(&mut compiler, case, &mut tally);
        }
    }
    tally
}

/// Pair untraced passes with passes that have telemetry and in-memory
/// spans on, then replay mapped cases through the layer probes.
fn traced_passes(seed: u64, untraced: &Repeated, tally: &mut Tally) -> Traced {
    let (inputs, _) = setup(seed);
    let mut scratch = Tally::default();
    let mut times = Repeated::new(untraced.ops());
    let mut kept = Vec::new();
    let mut busy_ms = 0.0;
    let trace = Tracing::begin();
    let overhead_ratios = trace.paired(TRACE_PAIRS, |traced| {
        pass(&inputs, &mut scratch, &mut times, &mut kept, traced);
        let sum = *times.pass_sums.last().expect("a pass just ended");
        if traced {
            busy_ms += sum;
        }
        sum
    });
    let deltas = trace.deltas();
    let mut probes = Probes::default();
    for (r, i, mapping) in &kept {
        let case = &inputs.cases[*i];
        let (config, _) = &inputs.rounds[*r];
        let net = MapZeroNet::new(case.cgra.pe_count(), config.net);
        probes.replay(
            &format!("r{r}-{i}"),
            &case.dfg,
            &case.cgra,
            config,
            &net,
            mapping,
        );
    }
    // Invariants hold in the traced passes too.
    tally.broken.append(&mut scratch.broken);
    let data = trace.end(deltas);
    Traced {
        ops: scratch.attempted as usize,
        overhead_ratios,
        busy_s: busy_ms / 1e3,
        data,
        probes,
        defect: defect_probe(&inputs),
        leaf_batch: inputs.rounds[0].0.agent.mcts.leaf_batch,
    }
}
