//! The traced run: telemetry on, spans kept in memory, and the per-layer
//! metrics. Layer timings come from the benchmark's own calls into each
//! layer's public functions, replayed on mappings the timed compiles
//! already returned, so they never count against compile time.

use crate::stats::{median_of, ms, ratio, us, Samples};
use crate::{Metric, Tally};
use mapzero_arch::Cgra;
use mapzero_core::embed::observe;
use mapzero_core::network::MapZeroNet;
use mapzero_core::supervise::Budget;
use mapzero_core::validate::check_mapping;
use mapzero_core::{MapEnv, MapZeroAgent, MapZeroConfig, Mapping, Mcts, Problem};
use mapzero_dfg::Dfg;
use mapzero_obs::metrics::{registry, MetricsSnapshot};
use mapzero_obs::sink::{install_sink, uninstall_sink, MemorySink};
use mapzero_obs::{Phase, PhaseLedger, TraceEvent};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Telemetry and an in-memory span sink for the traced part of a run.
/// [`Tracing::deltas`] closes the timed part (the counters of the
/// replay probes that follow are not wanted); [`Tracing::end`] turns
/// both off and returns what they saw.
pub struct Tracing {
    sink: Arc<MemorySink>,
    metrics: MetricsSnapshot,
    ledger: PhaseLedger,
}

/// Counter, histogram and phase deltas of the traced part of a run, plus
/// its spans.
pub struct TraceData {
    pub metrics: MetricsSnapshot,
    pub phases: PhaseLedger,
    pub spans: Vec<TraceEvent>,
}

impl TraceData {
    fn counter(&self, name: &str) -> f64 {
        self.metrics.counters.get(name).copied().unwrap_or(0) as f64
    }
}

impl Tracing {
    pub fn begin() -> Tracing {
        let sink = Arc::new(MemorySink::new());
        install_sink(sink.clone());
        Tracing {
            sink,
            metrics: registry().snapshot(),
            ledger: PhaseLedger::snapshot(),
        }
    }

    /// Run `pairs` pairs of one untraced and one traced pass, alternating
    /// which goes first so that drift in machine speed cancels; `pass`
    /// is told whether it is traced and returns its summed operation
    /// time. Returns the per-pair ratios traced / untraced and leaves
    /// tracing on. Counters are always live, so the deltas cover both
    /// kinds of pass; phase time and spans only the traced ones.
    pub fn paired(&self, pairs: usize, mut pass: impl FnMut(bool) -> f64) -> Vec<f64> {
        let mut run = |traced: bool| {
            if traced {
                install_sink(self.sink.clone());
            } else {
                uninstall_sink();
                mapzero_obs::set_enabled(false);
            }
            pass(traced)
        };
        let ratios = (0..pairs)
            .map(|p| {
                let (traced, untraced) = if p % 2 == 0 {
                    let u = run(false);
                    (run(true), u)
                } else {
                    let t = run(true);
                    (t, run(false))
                };
                traced / untraced
            })
            .collect();
        install_sink(self.sink.clone());
        ratios
    }

    /// Counter and phase deltas since [`Tracing::begin`].
    pub fn deltas(&self) -> (MetricsSnapshot, PhaseLedger) {
        (
            registry().snapshot().delta(&self.metrics),
            PhaseLedger::snapshot().delta(&self.ledger),
        )
    }

    pub fn end(self, (metrics, phases): (MetricsSnapshot, PhaseLedger)) -> TraceData {
        let data = TraceData {
            metrics,
            phases,
            spans: self.sink.take(),
        };
        uninstall_sink();
        mapzero_obs::set_enabled(false);
        data
    }
}

/// Replayed calls into each layer, one sample per call.
#[derive(Default)]
pub struct Probes {
    mii_us: Samples,
    new_us: Samples,
    candidates_us: Samples,
    episode_ms: Samples,
    decision_ms: Samples,
    predict_k1_us: Samples,
    predict_k8_us: Samples,
    observe_us: Samples,
    step_us: Samples,
    check_us: Samples,
}

impl Probes {
    /// Replay one mapped case through every layer: MII and schedule,
    /// candidate sets, a whole agent episode and one root MCTS decision
    /// at the achieved II, then the returned mapping step by step
    /// through the environment (which routes every edge), observing each
    /// state and evaluating the observations at batch sizes 1 and 8, and
    /// finally the validator. `id` scopes the spans.
    pub fn replay(
        &mut self,
        id: &str,
        dfg: &Dfg,
        cgra: &Cgra,
        config: &MapZeroConfig,
        net: &MapZeroNet,
        mapping: &Mapping,
    ) {
        let _scope = mapzero_obs::trace::request_scope(id);
        let _span = mapzero_obs::span!("bench.replay");
        let t = Instant::now();
        let mii = {
            let _s = mapzero_obs::span!("bench.problem.mii");
            Problem::mii(dfg, cgra)
        };
        self.mii_us.push(us(t.elapsed()));
        if mii.is_err() {
            return;
        }
        let t = Instant::now();
        let problem = {
            let _s = mapzero_obs::span!("bench.problem.new");
            Problem::new(dfg, cgra, mapping.ii)
        };
        self.new_us.push(us(t.elapsed()));
        let Ok(problem) = problem else { return };
        let t = Instant::now();
        let problem = {
            let _s = mapzero_obs::span!("bench.candidates.build");
            problem.with_candidate_pruning()
        };
        self.candidates_us.push(us(t.elapsed()));

        let agent = MapZeroAgent::new(net, config.agent);
        let t = Instant::now();
        {
            let _s = mapzero_obs::span!("bench.agent.episode");
            let budget = Budget::with_deadline(crate::inputs::CAP);
            std::hint::black_box(agent.run_episode_budgeted(&problem, &budget));
        }
        self.episode_ms.push(ms(t.elapsed()));

        let root = MapEnv::new(&problem);
        if !root.legal_actions().is_empty() {
            let mut mcts = Mcts::new(net, config.agent.mcts);
            let t = Instant::now();
            {
                let _s = mapzero_obs::span!("bench.mcts.decision");
                std::hint::black_box(mcts.search(&root));
            }
            self.decision_ms.push(ms(t.elapsed()));
        }

        let mut env = MapEnv::new(&problem);
        let mut observations = Vec::new();
        while let Some(u) = env.current_node() {
            let t = Instant::now();
            let obs = {
                let _s = mapzero_obs::span!("bench.embed.observe");
                observe(&env)
            };
            self.observe_us.push(us(t.elapsed()));
            observations.push(obs);
            let pe = mapping.placement(u).pe;
            if !env.action_mask()[pe.index()] {
                break;
            }
            let t = Instant::now();
            {
                let _s = mapzero_obs::span!("bench.env.step");
                std::hint::black_box(env.step(pe));
            }
            self.step_us.push(us(t.elapsed()));
        }
        for obs in &observations {
            let t = Instant::now();
            {
                let _s = mapzero_obs::span!("bench.nn.predict.k1");
                std::hint::black_box(net.predict_batch(&[obs]));
            }
            self.predict_k1_us.push(us(t.elapsed()));
        }
        for chunk in observations.chunks_exact(8) {
            let batch: Vec<_> = chunk.iter().collect();
            let t = Instant::now();
            {
                let _s = mapzero_obs::span!("bench.nn.predict.k8");
                std::hint::black_box(net.predict_batch(&batch));
            }
            self.predict_k8_us.push(us(t.elapsed()) / 8.0);
        }

        let t = Instant::now();
        {
            let _s = mapzero_obs::span!("bench.validate.check");
            std::hint::black_box(check_mapping(dfg, cgra, mapping, mapping.ii).is_ok());
        }
        self.check_us.push(us(t.elapsed()));
    }
}

/// What one workload's traced run measured.
pub struct Traced {
    /// Operations (compiles or requests) over all passes of the pairs.
    pub ops: usize,
    /// Per pair, a traced pass's time over an untraced pass's.
    pub overhead_ratios: Vec<f64>,
    /// Time the workers spent on the traced passes' operations (compile
    /// or service time), seconds: the denominator of the phase shares.
    pub busy_s: f64,
    pub data: TraceData,
    pub probes: Probes,
    /// Outcomes of the defect probe: operations on HyCube, each returned
    /// mapping put through the output check.
    pub defect: Tally,
    /// The configured MCTS leaf batch (K).
    pub leaf_batch: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn median_metric(name: &'static str, s: &Samples, unit: &'static str) -> Metric {
    metric(name, s.median(), unit, format!("p50, n={}", s.len()))
}

impl Traced {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let p = &self.data;
        let per_op = |name: &str| p.counter(name) / self.ops.max(1) as f64;
        let expansions = p.counter("mcts.expansions");
        let n = format!("per op, {} ops", self.ops);
        let batch = p.metrics.histograms.get("nn.batch.size");
        let batch_mean = batch.map_or(0.0, |h| ratio(h.sum as f64, h.count as f64));
        let probes = &self.probes;
        let mut out = vec![
            median_metric("problem.mii_us", &probes.mii_us, "us"),
            median_metric("problem.new_us", &probes.new_us, "us"),
            median_metric("candidates.build_us", &probes.candidates_us, "us"),
            metric(
                "candidates.dead_state_ratio",
                ratio(
                    p.counter("search.prune.dead_state"),
                    expansions + p.counter("agent.steps"),
                ),
                "ratio",
                "dead states / (expansions + agent steps)".to_owned(),
            ),
            metric(
                "candidates.masked_actions",
                per_op("search.prune.masked_actions"),
                "count",
                n.clone(),
            ),
            median_metric("agent.episode_ms", &probes.episode_ms, "ms"),
            metric(
                "agent.backtracks",
                per_op("agent.backtracks"),
                "count",
                n.clone(),
            ),
            metric("agent.steps", per_op("agent.steps"), "count", n.clone()),
            median_metric("mcts.decision_ms", &probes.decision_ms, "ms"),
            metric(
                "mcts.simulations",
                per_op("mcts.simulations"),
                "count",
                n.clone(),
            ),
            metric("mcts.expansions", per_op("mcts.expansions"), "count", n),
            metric(
                "mcts.branching",
                ratio(p.counter("search.expand.offered"), expansions),
                "count",
                "actions offered per expansion".to_owned(),
            ),
            metric(
                "mcts.batch_fill",
                ratio(batch_mean, self.leaf_batch as f64),
                "ratio",
                format!("mean nn batch {batch_mean:.2} / K={}", self.leaf_batch),
            ),
            median_metric("nn.predict_us.k1", &probes.predict_k1_us, "us"),
            median_metric("nn.predict_us.k8", &probes.predict_k8_us, "us"),
            median_metric("embed.observe_us", &probes.observe_us, "us"),
            median_metric("env.step_us", &probes.step_us, "us"),
            metric(
                "route.conflict_ratio",
                ratio(
                    p.counter("route.conflicts"),
                    p.counter("route.conflicts") + p.counter("route.routed"),
                ),
                "ratio",
                "conflicts / route attempts".to_owned(),
            ),
            median_metric("validate.check_us", &probes.check_us, "us"),
            metric(
                "validate.invalid_share",
                self.defect.invalid_share(),
                "ratio",
                format!(
                    "HyCube probe: {} rejected / {} returned mappings",
                    self.defect.invalid,
                    self.defect.invalid + self.defect.mapped
                ),
            ),
            metric(
                "cache.hit_ratio",
                ratio(
                    p.counter("search.predict_cache.hit"),
                    p.counter("search.predict_cache.hit") + p.counter("search.predict_cache.miss"),
                ),
                "ratio",
                "prediction cache hits / lookups".to_owned(),
            ),
        ];
        // Phase shares of the workers' busy time; `other` is what no
        // phase claimed. Backprop (training) is on neither span.
        let busy = self.busy_s.max(f64::MIN_POSITIVE);
        let mut claimed = 0.0;
        for (phase, name) in [
            (Phase::Embed, "phase.embed"),
            (Phase::Infer, "phase.infer"),
            (Phase::Expand, "phase.expand"),
            (Phase::Route, "phase.route"),
        ] {
            let s = p.phases.get(phase).as_secs_f64();
            claimed += s;
            out.push(metric(
                name,
                s / busy,
                "share",
                format!("{:.1} ms", s * 1e3),
            ));
        }
        out.push(metric(
            "phase.other",
            1.0 - claimed / busy,
            "share",
            format!("busy {:.1} ms", busy * 1e3),
        ));
        out.push(metric(
            "trace.overhead",
            median_of(&self.overhead_ratios) - 1.0,
            "share",
            format!(
                "median of {} interleaved traced/untraced pass ratios {:.3?}",
                self.overhead_ratios.len(),
                self.overhead_ratios
            ),
        ));
        out
    }

    /// Write the traced passes' spans as JSONL (the `mapzero_obs` trace
    /// schema, readable by `trace_summary`) next to the benchmark sources.
    pub fn write_spans(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for event in &self.data.spans {
                writeln!(w, "{}", event.to_json_line())?;
            }
            w.flush()
        });
        match written {
            Ok(()) => eprintln!(
                "spans: {} events in {}",
                self.data.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
        }
    }

    /// Span-derived view: event count and median duration (µs) per span
    /// name.
    pub fn span_summary(&self) -> Vec<(String, usize, f64)> {
        let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for e in &self.data.spans {
            by_name
                .entry(e.name.as_str())
                .or_default()
                .push(e.dur_us as f64);
        }
        by_name
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v.len(), median_of(&v)))
            .collect()
    }
}
