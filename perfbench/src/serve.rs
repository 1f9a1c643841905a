//! serve_mix: the compile service with 2 workers under a closed loop of
//! 2 clients, each sending its next request only after the reply to the
//! previous one. Half the requests are hot Table-2 kernels on HReA,
//! MorphoSys and ADRES, half fresh random DFGs on HReA drawn from the
//! workload seed (HyCube only in the traced run's defect probe; see
//! `RequestMix::timed` for why). A pass starts a fresh service (cold
//! shared prediction cache) and sends every client's fixed request list;
//! passes repeat until the run's time is up.

use crate::inputs::{fabrics, kernels, serve_config, RequestMix, CAP};
use crate::layers::{Probes, Traced, Tracing};
use crate::stats::{median_of, ms, peak_rss_mb, ratio, Repeated, Samples};
use crate::{Metric, Run, Tally, MIN_PASSES};
use mapzero_arch::Cgra;
use mapzero_core::network::MapZeroNet;
use mapzero_core::Mapping;
use mapzero_dfg::Dfg;
use mapzero_obs::metrics::registry;
use mapzero_serve::service::MapService;
use mapzero_serve::wire::{MapRequest, Outcome};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Requests per client per pass. More requests put more of the few
/// large random DFGs that dominate the tail into every pass (steadier
/// across seeds); fewer give more passes per run (steadier minima).
const REQUESTS_PER_CLIENT: usize = 600;
/// Interleaved untraced/traced pass pairs of the traced run.
const TRACE_PAIRS: usize = 3;
/// Mapped responses per client replayed through the layer probes.
const PROBE_PER_CLIENT: usize = 24;
/// Requests of the defect probe, sent one at a time: half hot kernels
/// (8 of each), half random DFGs (every size from 8 to 24 nodes).
const DEFECT_REQUESTS: u64 = 96;
/// How long a client waits for a reply beyond the request's own cap
/// before declaring it lost.
const REPLY_GRACE: Duration = Duration::from_secs(60);

/// One client's view of one pass.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    /// Submit-to-reply time per request, in send order, ms.
    latency_ms: Vec<f64>,
    queue_wait_ms: Samples,
    service_ms: Samples,
    /// Request ids answered, in order.
    answered: Vec<String>,
    /// Mapped responses kept for the layer probes.
    kept: Vec<(String, Dfg, Cgra, Mapping)>,
}

/// Each client's request list for one pass.
fn request_lists(seed: u64) -> Vec<Vec<MapRequest>> {
    let mix = RequestMix::timed();
    (0..CLIENTS as u64)
        .map(|c| {
            (0..REQUESTS_PER_CLIENT as u64)
                .map(|j| mix.request(seed, c, j))
                .collect()
        })
        .collect()
}

fn client(service: &MapService, requests: &[MapRequest], keep: usize) -> ClientLog {
    let (tx, rx) = channel();
    let mut log = ClientLog::default();
    for (j, request) in requests.iter().enumerate() {
        let request = request.clone();
        let (id, dfg, cgra) = (
            request.id.clone(),
            request.dfg.clone(),
            request.cgra.clone(),
        );
        let _scope = mapzero_obs::trace::request_scope(&id);
        let _span = mapzero_obs::span!("bench.request");
        let sent = Instant::now();
        service.submit(request, &tx);
        let reply = rx.recv_timeout(CAP + REPLY_GRACE);
        let latency = sent.elapsed();
        let Ok(response) = reply else {
            log.tally.broken.push(format!("request {id}: no reply"));
            break;
        };
        log.tally.attempted += 1;
        log.latency_ms.push(ms(latency));
        log.queue_wait_ms.push(ms(response.queue_wait));
        log.service_ms.push(ms(response.service_time));
        log.answered.push(response.id.clone());
        if response.id != id {
            log.tally
                .broken
                .push(format!("request {id} answered as {}", response.id));
        }
        let kind = if j.is_multiple_of(2) {
            dfg.name()
        } else {
            "random DFG"
        };
        let site = format!("{kind} on {}", cgra.name());
        match (response.outcome, response.mapping) {
            (Outcome::Mapped, Some(mapping)) => {
                let (Some(mii), Some(ii)) = (response.mii, response.achieved_ii) else {
                    log.tally
                        .broken
                        .push(format!("request {id}: mapped without II fields"));
                    continue;
                };
                // The service validates before replying, so a rejection
                // here means its gate let an invalid mapping out.
                match crate::inputs::check_output(&dfg, &cgra, mii, ii, &mapping) {
                    Ok(ii) => {
                        log.tally.record_mapped(ii, mii);
                        if log.kept.len() < keep {
                            log.kept.push((id, dfg, cgra, mapping));
                        }
                    }
                    Err(why) => {
                        log.tally
                            .broken
                            .push(format!("request {id}: shipped invalid mapping: {why}"));
                        log.tally.record_invalid(&site, &why);
                    }
                }
            }
            (Outcome::Mapped, None) => {
                log.tally
                    .broken
                    .push(format!("request {id}: mapped without a mapping"));
            }
            (Outcome::Internal, _)
                if response
                    .error
                    .as_deref()
                    .is_some_and(|e| e.contains("independent validation")) =>
            {
                log.tally
                    .record_invalid(&site, response.error.as_deref().unwrap_or_default());
            }
            (outcome, _) => log.tally.fail(&format!(
                "outcome {} ({site}, {id}): {}",
                outcome.as_str(),
                response.error.as_deref().unwrap_or("no error message")
            )),
        }
    }
    // Exactly one reply per request: nothing may be left on the channel.
    if let Ok(extra) = rx.try_recv() {
        log.tally
            .broken
            .push(format!("duplicate reply for {}", extra.id));
    }
    log
}

/// Run the closed loop: one thread per request list, joined before
/// returning.
fn closed_loop(service: &MapService, lists: &[Vec<MapRequest>], keep: usize) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .map(|list| s.spawn(move || client(service, list, keep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Steady-state throughput of the closed loop at its best: mapped replies
/// (whose mapping passed the output check) per second. A client that
/// sends its next request as soon as a reply arrives completes requests
/// at the rate of one over its mean latency; the loop's rate is the sum
/// over the clients, each client's time being the sum of its requests'
/// minimum latencies, scaled by the share of replies that were mapped.
/// (A pass's wall time, which lasts until the slower client is done,
/// would also count the faster client's idle wait at the end of the
/// pass, an artefact of a finite request list.)
fn mapped_rate(mapped_share: f64, best: &Samples) -> f64 {
    let requests_per_s: f64 = best
        .values()
        .chunks(REQUESTS_PER_CLIENT)
        .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e3))
        .sum();
    mapped_share * requests_per_s
}

/// Set-up: generate the request lists, start the service, and warm it
/// up with one request per fabric, which finishes the lazy per-fabric
/// network creation.
fn setup(seed: u64) -> (MapService, Vec<Vec<MapRequest>>, f64) {
    let started = Instant::now();
    let lists = request_lists(seed);
    let (kernels, fabrics) = (kernels(), fabrics());
    let service = MapService::start(serve_config());
    let warmup: Vec<MapRequest> = fabrics
        .iter()
        .enumerate()
        .map(|(i, cgra)| {
            MapRequest::new(
                &format!("warmup-{i}"),
                "warmup",
                kernels[0].clone(),
                cgra.clone(),
            )
        })
        .collect();
    std::hint::black_box(service.process_batch(warmup));
    (service, lists, started.elapsed().as_secs_f64())
}

/// One pass against a fresh service; folds the client logs into
/// `tally` and `times` and returns them.
fn pass(seed: u64, tally: &mut Tally, times: &mut Repeated, keep: usize) -> (Vec<ClientLog>, f64) {
    let (service, lists, setup_s) = setup(seed);
    let logs = closed_loop(&service, &lists, keep);
    service.shutdown();
    let mut sum = 0.0;
    for (c, log) in logs.iter().enumerate() {
        tally.merge(&log.tally);
        for (j, &t) in log.latency_ms.iter().enumerate() {
            times.record(c * REQUESTS_PER_CLIENT + j, t);
            sum += t;
        }
    }
    times.end_pass(sum);
    (logs, setup_s)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let started = Instant::now();
    let cache_before = registry().snapshot();
    let mut tally = Tally::default();
    let mut times = Repeated::new(CLIENTS * REQUESTS_PER_CLIENT);
    let mut setups = Vec::new();
    let mut rss_mb = f64::NAN;
    let (mut queue_wait, mut service_ms) = (Samples::default(), Samples::default());
    while times.passes() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let (logs, setup_s) = pass(seed, &mut tally, &mut times, 0);
        setups.push(setup_s);
        if times.passes() == MIN_PASSES {
            rss_mb = peak_rss_mb();
        }
        for log in &logs {
            queue_wait.extend(&log.queue_wait_ms);
            service_ms.extend(&log.service_ms);
        }
    }
    let cache = registry().snapshot().delta(&cache_before);
    let hit = cache
        .counters
        .get("search.predict_cache.hit")
        .copied()
        .unwrap_or(0) as f64;
    let miss = cache
        .counters
        .get("search.predict_cache.miss")
        .copied()
        .unwrap_or(0) as f64;
    let serve_rows = vec![
        Metric::row("serve.queue_wait_ms_p50", &queue_wait, 0.5, "ms"),
        Metric::row("serve.queue_wait_ms_p99", &queue_wait, 0.99, "ms"),
        Metric::row("serve.service_ms_p50", &service_ms, 0.5, "ms"),
        Metric::row("serve.service_ms_p99", &service_ms, 0.99, "ms"),
        Metric {
            name: "serve.cache_hit_ratio",
            value: ratio(hit, hit + miss),
            unit: "ratio",
            note: format!("{hit} hits / {} lookups", hit + miss),
        },
    ];
    let latency_ms = times.best(ms(CAP));
    let mapped_per_s = mapped_rate(
        ratio(tally.mapped as f64, tally.attempted as f64),
        &latency_ms,
    );
    let traced = trace.then(|| traced_passes(seed, &times, &mut tally));
    Run {
        tally,
        setup_s: median_of(&setups),
        peak_rss_mb: rss_mb,
        latency_ms,
        times,
        mapped_per_s,
        traced,
        serve_rows,
    }
}

/// The HyCube defect, measured through the service's validator gate:
/// `DEFECT_REQUESTS` HyCube requests from one client, one at a time,
/// against a fresh service. A probe of the validator layer, not
/// operations of the workload; it runs after the traced passes.
fn defect_probe(seed: u64) -> Tally {
    let mix = RequestMix::defect();
    let list: Vec<MapRequest> = (0..DEFECT_REQUESTS)
        .map(|j| mix.request(seed, 0, j))
        .collect();
    let service = MapService::start(serve_config());
    let mut logs = closed_loop(&service, &[list], 0);
    service.shutdown();
    logs.pop().expect("one client").tally
}

/// Pair untraced passes with passes that have telemetry and in-memory
/// spans on, then replay mapped responses through the layer probes.
fn traced_passes(seed: u64, untraced: &Repeated, tally: &mut Tally) -> Traced {
    let mut scratch = Tally::default();
    let mut times = Repeated::new(untraced.ops());
    let mut kept = Vec::new();
    let mut busy_ms = 0.0;
    let trace = Tracing::begin();
    let overhead_ratios = trace.paired(TRACE_PAIRS, |traced| {
        let keep = if traced && kept.is_empty() {
            PROBE_PER_CLIENT
        } else {
            0
        };
        let (logs, _) = pass(seed, &mut scratch, &mut times, keep);
        for log in logs {
            if traced {
                busy_ms += log.service_ms.sum();
            }
            kept.extend(log.kept);
        }
        *times.pass_sums.last().expect("a pass just ended")
    });
    let deltas = trace.deltas();
    let config = serve_config().compiler;
    let mut probes = Probes::default();
    for (id, dfg, cgra, mapping) in &kept {
        let net = MapZeroNet::new(cgra.pe_count(), config.net);
        probes.replay(id, dfg, cgra, &config, &net, mapping);
    }
    // Invariants hold in the traced passes too.
    tally.broken.append(&mut scratch.broken);
    let data = trace.end(deltas);
    let defect = defect_probe(seed);
    tally.broken.extend(defect.broken.iter().cloned());
    Traced {
        ops: scratch.attempted as usize,
        overhead_ratios,
        busy_s: busy_ms / 1e3,
        data,
        probes,
        defect,
        leaf_batch: config.agent.mcts.leaf_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_answers_each_request_once_and_counts_only_mapped() {
        let (service, mut lists, _) = setup(5);
        for list in &mut lists {
            list.truncate(8);
        }
        // Two requests that must not count as mapped: one whose mapping
        // the service's validator gate rejects, one with an empty II
        // window.
        lists[0][2].fault = Some("validate.corrupt=io".to_owned());
        lists[1][3].ii_max = Some(0);
        let logs = closed_loop(&service, &lists, 0);
        service.shutdown();
        let mut tally = Tally::default();
        for (list, log) in lists.iter().zip(&logs) {
            assert!(log.tally.broken.is_empty(), "{:?}", log.tally.broken);
            let sent: Vec<&str> = list.iter().map(|r| r.id.as_str()).collect();
            assert_eq!(log.answered, sent, "one reply per request, in send order");
            tally.merge(&log.tally);
        }
        assert_eq!(tally.attempted, 16);
        assert_eq!(
            tally.invalid, 1,
            "the corrupted mapping is counted as rejected"
        );
        let failed: Vec<&String> = tally.failures.keys().collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("outcome failed"), "{failed:?}");
        assert_eq!(tally.failures[failed[0]], 1);
        let buckets = tally.failures.values().sum::<u64>() + tally.invalid + tally.mapped;
        assert_eq!(
            buckets, tally.attempted,
            "each reply lands in exactly one bucket"
        );
        assert!(tally.mapped <= 14);
        // The rate counts mapped replies only: with every request at
        // 1 ms, each client completes 1000 requests per second.
        let mut best = Samples::default();
        for _ in 0..CLIENTS * REQUESTS_PER_CLIENT {
            best.push(1.0);
        }
        let share = tally.mapped as f64 / tally.attempted as f64;
        let expected = share * CLIENTS as f64 * 1000.0;
        assert!((mapped_rate(share, &best) - expected).abs() < 1e-9);
    }
}
