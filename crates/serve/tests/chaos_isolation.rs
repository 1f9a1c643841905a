//! The chaos acceptance suite: one tenant's requests armed to panic
//! workers or stall inference must not affect another tenant's
//! outcomes — tenant B's requests complete within their deadlines with
//! mappings bit-identical to an unperturbed run, every admitted request
//! gets exactly one response, and none is duplicated.
//!
//! Determinism backing the bit-identical claim: `fast_test` disables
//! hedging (single engine), `MapZeroNet::new` is deterministic in
//! (size, seed), and every worker reads and writes the one shared
//! prediction cache in place under keys made of the network's parameter
//! fingerprint, the problem's content fingerprint and the search state.
//! An entry therefore only ever answers for the exact state it was
//! computed on, so whatever tenant A's requests leave in the cache can
//! spare tenant B a forward pass but cannot change B's search results;
//! and since the cache lock is never held across inference, A's stalled
//! or panicking forward passes cannot block B on it.

use mapzero_arch::presets;
use mapzero_core::mapping::Mapping;
use mapzero_dfg::suite;
use mapzero_serve::service::{MapService, ServeConfig};
use mapzero_serve::wire::{MapRequest, MapResponse, Outcome};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const B_KERNELS: [&str; 4] = ["sum", "mac", "accumulate", "sum"];

fn tenant_b_batch() -> Vec<MapRequest> {
    B_KERNELS
        .iter()
        .enumerate()
        .map(|(i, kernel)| {
            let mut req = MapRequest::new(
                &format!("b-{i}"),
                "beta",
                suite::by_name(kernel).unwrap(),
                presets::hrea(),
            );
            req.deadline = Some(Duration::from_secs(30));
            req
        })
        .collect()
}

/// Tenant A's sabotage: worker-killing panics and inference stalls,
/// armed per-request so only A's processing is perturbed.
fn tenant_a_batch() -> Vec<MapRequest> {
    let faults =
        ["serve.worker.pre_map=panic", "infer.predict=delay:200", "serve.worker.pre_map=panic"];
    faults
        .iter()
        .enumerate()
        .map(|(i, fault)| {
            let mut req = MapRequest::new(
                &format!("a-{i}"),
                "acme",
                suite::by_name("mac").unwrap(),
                presets::hrea(),
            );
            req.fault = Some((*fault).to_owned());
            req
        })
        .collect()
}

fn b_mappings(responses: &[MapResponse]) -> BTreeMap<String, Mapping> {
    responses
        .iter()
        .filter(|r| r.tenant == "beta")
        .map(|r| {
            assert_eq!(r.outcome, Outcome::Mapped, "{}: {:?}", r.id, r.error);
            (r.id.clone(), r.mapping.clone().expect("mapped response carries a mapping"))
        })
        .collect()
}

#[test]
fn perturbed_tenant_cannot_change_anothers_mappings() {
    let _g = serial();

    // Unperturbed reference run: tenant B alone on a fresh service.
    let baseline_service = MapService::start(ServeConfig::fast_test());
    let baseline = baseline_service.process_batch(tenant_b_batch());
    baseline_service.shutdown();
    let expected = b_mappings(&baseline);
    assert_eq!(expected.len(), B_KERNELS.len());

    // Chaos run: same B requests interleaved with A's armed requests.
    let service = MapService::start(ServeConfig::fast_test());
    let mut batch = Vec::new();
    for (a, b) in tenant_a_batch().into_iter().zip(tenant_b_batch()) {
        batch.push(a);
        batch.push(b);
    }
    batch.push(tenant_b_batch().pop().unwrap());
    let total = batch.len();
    let responses = service.process_batch(batch);

    // Exactly one response per request — nothing lost, nothing
    // duplicated, even with workers dying mid-flight.
    assert_eq!(responses.len(), total);
    let ids: HashSet<&str> = responses.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids.len(), total, "duplicate response ids");

    // Tenant B: every request mapped within its deadline (a `Deadline`
    // or `Internal` outcome here would be a containment failure), with
    // mappings bit-identical to the unperturbed run.
    let perturbed = b_mappings(&responses);
    for (id, mapping) in &expected {
        assert_eq!(
            perturbed.get(id),
            Some(mapping),
            "tenant B mapping for {id} changed under tenant A chaos"
        );
    }
    for r in responses.iter().filter(|r| r.tenant == "beta") {
        assert!(
            r.queue_wait + r.service_time < Duration::from_secs(30),
            "{} missed its deadline: waited {:?}, served {:?}",
            r.id,
            r.queue_wait,
            r.service_time
        );
        assert_eq!(r.worker_deaths, 0, "tenant A's panics leaked onto {}", r.id);
    }

    // Tenant A's panic-armed requests burned their retries and were
    // answered structurally; the stalled one still completed.
    for r in responses.iter().filter(|r| r.tenant == "acme") {
        if r.id == "a-1" {
            assert_eq!(r.outcome, Outcome::Mapped, "stalled request still maps: {:?}", r.error);
        } else {
            assert_eq!(r.outcome, Outcome::Internal, "{}", r.id);
            assert!(r.worker_deaths > 0, "{}", r.id);
        }
    }

    // The pool healed: every death was matched by a respawn, and a
    // fresh request maps normally.
    let stats = service.stats();
    let deaths = stats.worker_deaths.load(std::sync::atomic::Ordering::Relaxed);
    let respawns = stats.respawns.load(std::sync::atomic::Ordering::Relaxed);
    assert!(deaths > 0, "chaos run should have killed at least one worker");
    assert_eq!(deaths, respawns);
    let after = service.process_batch(vec![MapRequest::new(
        "after",
        "beta",
        suite::by_name("sum").unwrap(),
        presets::hrea(),
    )]);
    assert_eq!(after[0].outcome, Outcome::Mapped);
    service.shutdown();
}

/// Repeated chaos runs are themselves reproducible: two perturbed
/// services produce identical tenant-B mappings.
#[test]
fn chaos_runs_are_reproducible() {
    let _g = serial();
    let run = || {
        let service = MapService::start(ServeConfig::fast_test());
        let mut batch = tenant_a_batch();
        batch.extend(tenant_b_batch());
        let responses = service.process_batch(batch);
        service.shutdown();
        b_mappings(&responses)
    };
    assert_eq!(run(), run());
}
