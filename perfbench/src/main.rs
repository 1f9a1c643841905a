//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see README.md for why each was chosen):
//!
//! * `table2_small` — compile the six quick Table-2 kernels on HReA,
//!   MorphoSys and ADRES, round after round, a fresh compiler per round;
//! * `serve_mix` — a closed loop of 2 clients against the compile
//!   service with 2 workers.
//!
//! HyCube, the fourth evaluation fabric, is left out of the timed work:
//! the compiler returns mappings there that the validator rejects, for
//! some seeds and not others. The traced run measures that defect with a
//! probe of its own (`validate.invalid_share`).
//!
//! Every returned mapping goes through the independent validator. The
//! human-readable report goes to stderr; the last stdout line is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`.

mod inputs;
mod layers;
mod serve;
mod stats;
mod table2;

use inputs::{CAP, EXPANSION_CAP};
use mapzero_arch::Cgra;
use mapzero_core::Mapping;
use mapzero_dfg::Dfg;
use stats::{ratio, Repeated, Samples};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Passes per run at the least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and basis, for the human-readable table.
    pub note: String,
}

impl Metric {
    /// A percentile row with its sample count.
    pub fn row(name: &'static str, s: &Samples, q: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: s.quantile(q),
            unit,
            note: s.describe(q, unit),
        }
    }
}

/// Outcome accounting of one workload run, over every pass.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Operations that returned a mapping the output check accepted.
    pub mapped: u64,
    /// Returned mappings the output check (or the service's own
    /// validator gate) rejected.
    pub invalid: u64,
    /// Other failures, by reason.
    pub failures: BTreeMap<String, u64>,
    /// First rejection message per (kernel, fabric) site.
    pub invalid_sites: BTreeMap<String, (u64, String)>,
    ii_ratio_sum: f64,
    /// Broken benchmark invariants; any entry makes the run incorrect.
    pub broken: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: &str) {
        *self.failures.entry(why.to_owned()).or_default() += 1;
    }

    pub fn record_mapped(&mut self, ii: u32, mii: u32) {
        self.mapped += 1;
        self.ii_ratio_sum += f64::from(ii) / f64::from(mii.max(1));
    }

    pub fn record_invalid(&mut self, site: &str, why: &str) {
        self.invalid += 1;
        let entry = self
            .invalid_sites
            .entry(site.to_owned())
            .or_insert((0, why.to_owned()));
        entry.0 += 1;
    }

    /// Run the output check on a returned mapping and account the
    /// verdict; the mapping comes back only when it passed.
    pub fn check(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        mii: u32,
        mapping: Mapping,
        site: &str,
    ) -> Option<Mapping> {
        match inputs::check_output(dfg, cgra, mii, mapping.ii, &mapping) {
            Ok(ii) => {
                self.record_mapped(ii, mii);
                Some(mapping)
            }
            Err(why) => {
                self.record_invalid(site, &why);
                None
            }
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.mapped += other.mapped;
        self.invalid += other.invalid;
        for (k, v) in &other.failures {
            *self.failures.entry(k.clone()).or_default() += v;
        }
        for (site, (n, why)) in &other.invalid_sites {
            self.invalid_sites
                .entry(site.clone())
                .or_insert((0, why.clone()))
                .0 += n;
        }
        self.ii_ratio_sum += other.ii_ratio_sum;
        self.broken.extend(other.broken.iter().cloned());
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.mapped
    }

    /// Rejected mappings out of mappings returned.
    pub fn invalid_share(&self) -> f64 {
        ratio(self.invalid as f64, (self.mapped + self.invalid) as f64)
    }
}

/// What a workload run hands back for reporting.
pub struct Run {
    pub tally: Tally,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Peak resident set after the first `MIN_PASSES` passes, MiB. The
    /// high-water mark creeps up with every further pass (allocator
    /// fragmentation), so reading it after a fixed amount of work keeps
    /// it independent of how many passes fit into the run's time.
    pub peak_rss_mb: f64,
    /// Per-operation time, ms: each operation's minimum over the passes.
    pub latency_ms: Samples,
    /// Every operation time of every pass.
    pub times: Repeated,
    pub mapped_per_s: f64,
    pub traced: Option<layers::Traced>,
    /// Serve-only layer rows (queue wait, service time, cache), printed
    /// in the per-layer table.
    pub serve_rows: Vec<Metric>,
}

impl Run {
    /// The end-to-end metrics, in `BENCHMARK.json` order. One operation
    /// is a compile (table2_small) or a request (serve_mix).
    fn end_to_end(&self) -> Vec<Metric> {
        let (t, l) = (&self.tally, &self.latency_ms);
        let passes = self.times.passes();
        vec![
            Metric {
                name: "setup_s",
                value: self.setup_s,
                unit: "s",
                note: format!("median of {passes} set-ups"),
            },
            Metric {
                name: "latency_ms_geomean",
                value: l.geomean(),
                unit: "ms",
                note: format!("n={}; p50 {}", l.len(), l.describe(0.5, "ms")),
            },
            Metric {
                name: "latency_ms_p90",
                value: l.quantile(0.9),
                unit: "ms",
                note: format!("{}; p99 {}", l.describe(0.9, "ms"), l.describe(0.99, "ms")),
            },
            Metric {
                name: "mapped_per_s",
                value: self.mapped_per_s,
                unit: "1/s",
                note: "from the per-operation minima".to_owned(),
            },
            Metric {
                name: "mapped_share",
                value: ratio(t.mapped as f64, t.attempted as f64),
                unit: "ratio",
                note: format!("{} of {} attempted", t.mapped, t.attempted),
            },
            Metric {
                name: "ii_over_mii",
                value: ratio(t.ii_ratio_sum, t.mapped as f64),
                unit: "ratio",
                note: format!("mean over {} validated mappings", t.mapped),
            },
            Metric {
                name: "peak_rss_mb",
                value: self.peak_rss_mb,
                unit: "MB",
                note: format!("VmHWM after the first {MIN_PASSES} passes"),
            },
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (table2_small | serve_mix)")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_table(title: &str, rows: &[Metric]) {
    eprintln!("\n{title}");
    for m in rows {
        eprintln!(
            "  {:<28} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_metrics(rows: &[Metric], tally: &mut Tally) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                tally
                    .broken
                    .push(format!("metric {} is not finite", m.name));
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    fields.join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "table2_small" => table2::run(args.seed, args.seconds, args.trace),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (table2_small | serve_mix)");
            return ExitCode::from(2);
        }
    };
    let end_to_end = run.end_to_end();
    let Run {
        mut tally,
        times,
        traced,
        serve_rows,
        ..
    } = run;

    eprintln!(
        "{} seed {}: {} attempted, {} mapped, {} rejected by the output check, {} other failures \
         (cap {} s, expansion cap {EXPANSION_CAP})",
        args.workload,
        args.seed,
        tally.attempted,
        tally.mapped,
        tally.invalid,
        tally.failed() - tally.invalid,
        CAP.as_secs()
    );
    eprintln!(
        "  invalid_share {:.4} (rejected / returned mappings)",
        tally.invalid_share()
    );
    for (site, (n, why)) in &tally.invalid_sites {
        eprintln!("  rejected {n}x {site}: {why}");
    }
    for (why, n) in &tally.failures {
        eprintln!("  failed {n}x: {why}");
    }
    eprintln!(
        "  {} passes over {} operations; per-operation minimum over the passes below \
         (all passes: p50 {}, p99 {})",
        times.passes(),
        times.ops(),
        times.raw.describe(0.5, "ms"),
        times.raw.describe(0.99, "ms")
    );
    print_table("end-to-end", &end_to_end);

    let reported = match &traced {
        Some(t) => {
            let rows = t.metrics();
            print_table("per-layer (traced run)", &rows);
            let d = &t.defect;
            eprintln!(
                "\nHyCube defect probe (not workload operations): {} attempted, {} mapped, \
                 {} rejected by the output check, {} other failures",
                d.attempted,
                d.mapped,
                d.invalid,
                d.failed() - d.invalid
            );
            for (site, (n, why)) in &d.invalid_sites {
                eprintln!("  rejected {n}x {site}: {why}");
            }
            for (why, n) in &d.failures {
                eprintln!("  failed {n}x: {why}");
            }
            if !serve_rows.is_empty() {
                print_table("serve layers", &serve_rows);
            }
            eprintln!("\nspans (name, events, median µs):");
            for (name, n, med) in t.span_summary() {
                eprintln!("  {name:<28} {n:>8} {med:>10.1}");
            }
            t.write_spans(&args.workload, args.seed);
            rows
        }
        None => end_to_end,
    };
    let metrics = json_metrics(&reported, &mut tally);
    for why in &tally.broken {
        eprintln!("BROKEN: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.broken.is_empty() && tally.attempted > 0,
        tally.attempted,
        tally.failed()
    );
    ExitCode::SUCCESS
}
